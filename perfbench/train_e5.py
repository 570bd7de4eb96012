"""train-e5: ``intentcnn train --config configs/e5.cfg`` for a fixed 15 epochs.

Backward passes and the Adam update do nearly all the work here and none in
the timed part of the other workloads.  Set-up is a one-epoch warm-up train,
so first-call costs do not land in the timed runs.
"""

from __future__ import annotations

import time

import numpy as np

from common import (SETUP_REPEATS, Context, Result, check_train, median, percentile,
                    put_train_metrics, run_cli, train_argv)
from tracer import TIMED

EPOCHS = 15            # the ROADMAP's "one e5 training run": 180 steps of batch 8
MACRO_F1_GATE = 0.95   # acceptance criterion 5


def run(ctx: Context) -> Result:
    result = Result()
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        out_dir = ctx.path("warmup")
        cmd = run_cli(train_argv(ctx, out_dir, epochs=1))
        setup_seconds.append(ctx.calibrated(cmd.seconds, cmd.start, cmd.end))
        check_train(ctx, cmd, out_dir, result)
    result.put("setup_s", median(setup_seconds), "s")

    ctx.phase(TIMED)
    clock = ctx.clock
    clock.steps.clear()
    clock.step_ends.clear()
    outcomes = []
    started = time.perf_counter()
    while True:
        out_dir = ctx.path("train")
        cmd = run_cli(train_argv(ctx, out_dir, EPOCHS))
        result.attempted += 1
        outcome = check_train(ctx, cmd, out_dir, result)
        if outcome is None:
            result.failed += 1
        else:
            outcomes.append(outcome)
            result.check(outcome.epochs_run == EPOCHS,
                         f"train ran {outcome.epochs_run} epochs, not {EPOCHS}")
            result.check(outcome.macro_f1 >= MACRO_F1_GATE,
                         f"test macro-F1 {outcome.macro_f1} is below {MACRO_F1_GATE}")
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / result.attempted > ctx.seconds:
            break
    ended = time.perf_counter()

    put_train_metrics(result, outcomes)
    steps = clock.steps
    if steps:
        scaled = np.asarray(steps) * ctx.calib.scales(clock.step_ends)
        train_seconds = sum(o.seconds for o in outcomes)
        result.put("latency_ms_p50", median(scaled) * 1e3, "ms", "step_ms_p50",
                   raw=median(steps) * 1e3)
        result.put("latency_ms_tail", percentile(scaled, 90) * 1e3, "ms",
                   "step_ms_p90", raw=percentile(steps, 90) * 1e3)
        result.put("throughput_per_s", len(steps) / train_seconds, "1/s", "steps_per_s",
                   raw=len(steps) / sum(o.raw_seconds for o in outcomes))
    result.notes.append(f"{len(outcomes)} train run(s) of {EPOCHS} epochs, "
                        f"{len(steps)} steps timed; train_s of each run, calibrated "
                        f"(unscaled): "
                        + ", ".join(f"{o.seconds:.4g} ({o.raw_seconds:.4g})" for o in outcomes))
    return result
