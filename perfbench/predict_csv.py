"""predict-csv: one client calling ``intentcnn predict`` once per trace file, closed loop.

Set-up writes the 120 traces of ``configs/synth6.cfg`` (800-1600 frames each)
with ``intentcnn generate`` and trains a two-epoch model.  Every timed call
reloads the 4.1 MB model and parses one CSV, so loading and ingest dominate.
The calibration kernel runs after each call, outside the call's time.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np

import reference
from common import (SETUP_EPOCHS, SETUP_REPEATS, Context, Result, check_train, mean, median,
                    percentile, put_train_metrics, run_cli, train_argv)
from tracer import TIMED

# Largest allowed distance between a printed probability and the float64
# reference.  The float32 network's own rounding stays below 1e-6.
PROB_TOLERANCE = 1e-5


def run(ctx: Context) -> Result:
    result = Result()
    traces_dir, model_dir = ctx.path("traces"), ctx.path("model")
    setup_seconds, outcomes = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cmd = run_cli(["generate", "--config", ctx.config("synth6.cfg"),
                       "--seed", str(ctx.seed), "--out", traces_dir])
        result.check(cmd.rc == 0, f"generate exited {cmd.rc}: {cmd.err.strip()[-300:]}")
        cmd = run_cli(train_argv(ctx, model_dir, epochs=SETUP_EPOCHS))
        ended = time.perf_counter()
        setup_seconds.append(ctx.calibrated(ended - started, started, ended))
        outcome = check_train(ctx, cmd, model_dir, result)
        if outcome is not None:
            outcomes.append(outcome)
    result.put("setup_s", median(setup_seconds), "s")
    put_train_metrics(result, outcomes)

    files = sorted(glob.glob(os.path.join(traces_dir, "task*_trial*.csv")))
    if not result.check(len(files) == 120, f"generate wrote {len(files)} traces, not 120"):
        return result
    order = np.random.default_rng(ctx.seed).permutation(len(files))
    argv = ["predict", "--model", os.path.join(model_dir, "model.intc"),
            "--stats", os.path.join(model_dir, "stats.csv"),
            "--labels", os.path.join(model_dir, "labels.txt"), "--trace"]

    ctx.phase(TIMED)
    calls: list[tuple[int, float, str]] = []       # (file index, seconds, printed line)
    call_ends: list[float] = []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds:
        index = int(order[len(calls) % len(files)])
        if ctx.tracer is not None:
            ctx.tracer.current_request = len(calls)
        cmd = run_cli(argv + [files[index]])
        result.attempted += 1
        if cmd.rc != 0 or len(cmd.out.lines) != 1:
            result.failed += 1
            result.problems.append(f"predict {files[index]} exited {cmd.rc}: "
                                   f"{cmd.err.strip()[-300:]}")
            continue
        calls.append((index, cmd.seconds, cmd.out.lines[0]))
        call_ends.append(cmd.end)
        ctx.calib.run()
    ended = time.perf_counter()

    _check_outputs(calls, files, model_dir, result)
    seconds = [s for _, s, _ in calls]
    if seconds:
        scaled = np.asarray(seconds) * ctx.calib.scales(call_ends)
        wall = ended - started
        result.put("latency_ms_p50", median(scaled) * 1e3, "ms", "predict_ms_p50",
                   raw=median(seconds) * 1e3)
        result.put("latency_ms_tail", percentile(scaled, 90) * 1e3, "ms",
                   "predict_ms_p90", raw=percentile(seconds, 90) * 1e3)
        result.put("throughput_per_s", len(calls) / ctx.calibrated(wall, started, ended),
                   "1/s", "predict_per_s",
                   raw=len(calls) / ctx.uncalibrated(wall, started, ended))
    result.notes.append(f"{len(calls)} predict calls over {len(files)} files")
    return result


def _check_outputs(calls, files, model_dir, result: Result) -> None:
    """Each label is the argmax of its probabilities, the probabilities match
    the float64 reference within PROB_TOLERANCE, and repeated calls on one
    file print the same line."""
    layers = reference.read_model(os.path.join(model_dir, "model.intc"))
    input_frames = layers[0][2]
    mean, std = reference.read_stats(os.path.join(model_dir, "stats.csv"))
    first_line: dict[int, str] = {}
    worst = 0.0
    for index, _, line in calls:
        if index in first_line:
            result.check(line == first_line[index],
                         f"{files[index]}: repeated predict printed a different line")
            continue
        first_line[index] = line
        fields = line.split(",")
        probs = np.array([float(p) for p in fields[2:]])
        result.check(int(fields[0]) == int(np.argmax(probs)),
                     f"{files[index]}: label {fields[0]} is not the argmax")
        expected = reference.forward64(layers, reference.predict_input64(
            reference.read_trace(files[index]), mean, std, input_frames))
        if result.check(expected.shape == probs.shape,
                        f"{files[index]}: {probs.size} probabilities, expected "
                        f"{expected.size}"):
            worst = max(worst, float(np.max(np.abs(expected - probs))))
    result.check(worst <= PROB_TOLERANCE,
                 f"a probability is {worst:.3g} from the float64 reference "
                 f"(tolerance {PROB_TOLERANCE})")
    result.notes.append(f"largest distance from the float64 reference: {worst:.3g}")
