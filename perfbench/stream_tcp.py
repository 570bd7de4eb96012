"""stream-tcp: ``intentcnn stream --source tcp:127.0.0.1:PORT``, window 1000, hop 100.

A separate sender process replays the feed over one connection: first on a
fixed open-loop schedule of RATE frames per second (a third to a half of
what one core sustains, so that queueing behind a slow hop stays rare), then
as fast as the socket accepts.  Both phases send a fixed number of lines,
sized from ``--seconds``, so every run of a seed sends the same lines and
loses the same hops to the same aborts.  Per-line parsing, window assembly
and a batch-1 forward pass per hop dominate; there is no backward pass, CSV
parsing or model load in the timed part, except the model reload of a
restart.

A non-finite token aborts the stream with exit 3 (a known defect).  The
benchmark then acts as a supervisor: it restarts the stream, the sender
resumes on the new connection at the line after the one that ended the
stream, and the hops lost count as failed.

The calibration kernel runs after every CAL_EVERY_LINES-th output line, once
the line's time is taken.  At the fixed rate it runs while the stream would
wait for frames; in the saturating phase its time is subtracted.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import reference
from common import (SETUP_EPOCHS, SETUP_REPEATS, Command, Context, Result, check_train,
                    mean, median, percentile, put_train_metrics, run_cli, train_argv)
from feed import NON_FINITE, VALID, Feed
from intentcnn import dataset, model
from tracer import TIMED

RATE = 4000.0            # frames per second in the fixed-rate phase
PHASE1_SHARE = 0.5       # of --seconds; the rest is the saturating phase
# Lines of the saturating phase per second of its share of --seconds: about
# what one core sustains, so the phase lasts about its share.
SATURATED_RATE = 10000.0
START_DELAY_S = 0.5      # the stream loads its model and connects well within this
WINDOW, HOP = 1000, 100  # the stream command's defaults
MAX_RESTARTS = 100
CHECK_EVERY = 40         # every 40th hop of a connection, from its first, is recomputed
CAL_EVERY_LINES = 4
_ERROR_RE = re.compile(r"error,line=(\d+),")


@dataclass
class Connection:
    """One run of the stream command and what the feed says it should print."""

    first_line: int
    cmd: Command
    expected: list[tuple] = field(default_factory=list)
    abort_line: int | None = None


def run(ctx: Context) -> Result:
    result = Result()
    model_dir = ctx.path("model")
    model_path = os.path.join(model_dir, "model.intc")
    stats_path = os.path.join(model_dir, "stats.csv")
    setup_seconds, outcomes = [], []
    network = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cmd = run_cli(train_argv(ctx, model_dir, epochs=SETUP_EPOCHS))
        if cmd.rc == 0:
            network = model.load_model(model_path)
            dataset.load_stats(stats_path)
        ended = time.perf_counter()
        setup_seconds.append(ctx.calibrated(ended - started, started, ended))
        outcome = check_train(ctx, cmd, model_dir, result)
        if outcome is not None:
            outcomes.append(outcome)
    result.put("setup_s", median(setup_seconds), "s")
    put_train_metrics(result, outcomes)
    if network is None:
        return result

    ctx.phase(TIMED)
    phase1_s = ctx.seconds * PHASE1_SHARE
    phase1_lines = int(RATE * phase1_s)
    phase2_lines = int(SATURATED_RATE * (ctx.seconds - phase1_s))
    stats_mean, stats_std = reference.read_stats(stats_path)
    total_lines = phase1_lines + phase2_lines
    feed = Feed(ctx.seed, stats_mean, stats_std, phase1_lines, total_lines)
    here = os.path.dirname(os.path.abspath(__file__))
    sender = subprocess.Popen(
        [sys.executable, os.path.join(here, "sender.py"), str(ctx.seed), repr(RATE),
         str(phase1_lines), str(phase2_lines), stats_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ctx.run_dir)
    watchdog = threading.Timer(ctx.seconds + 120, sender.kill)
    watchdog.start()
    connections: list[Connection] = []
    try:
        port = int(_read_line(sender, 60).split()[1])
        t0 = time.monotonic() + START_DELAY_S
        _command(sender, f"start {t0!r}")
        argv = ["stream", "--model", model_path, "--stats", stats_path,
                "--labels", os.path.join(model_dir, "labels.txt"),
                "--source", f"tcp:127.0.0.1:{port}"]
        lines_written = 0

        def after_line() -> None:
            nonlocal lines_written
            lines_written += 1
            if lines_written % CAL_EVERY_LINES == 0:
                ctx.calib.run()

        first_line = 0
        while True:
            conn = Connection(first_line, run_cli(argv, after_line))
            connections.append(conn)
            if conn.cmd.rc == 0:
                break
            # Resume quickly: the sender keeps its schedule meanwhile, so
            # time spent here delays the next hops.
            abort_line = _abort_line(feed, conn)
            if not result.check(conn.cmd.rc == 3 and abort_line is not None,
                                f"stream exited {conn.cmd.rc} where the feed predicts no "
                                f"abort: {conn.cmd.err.strip()[-300:]}"):
                break
            if not result.check(len(connections) <= MAX_RESTARTS, "too many restarts"):
                break
            first_line = abort_line + 1
            _command(sender, f"resume {first_line}")
        _command(sender, "done")
        summary = json.loads(_read_line(sender, 30))
    finally:
        watchdog.cancel()
        _stop(sender)

    result.check(summary["lines"] == total_lines,
                 f"the sender sent {summary['lines']} lines, not {total_lines}")
    for conn, after in zip(connections, connections[1:] + [None]):
        _simulate(feed, conn, end_line=total_lines)
        result.check(conn.abort_line == (None if after is None else after.first_line - 1),
                     f"the connection from line {conn.first_line} should have ended at "
                     f"line {conn.abort_line}")
    hops = _check_stream(feed, connections, network, stats_mean, stats_std, result)

    latencies, latency_ends, saturated, saturated_conn = [], [], [], []
    for line, written, conn_index in hops:
        if line < phase1_lines:
            latencies.append(written - (t0 + line / RATE))
            latency_ends.append(written)
        else:
            saturated.append(written)
            saturated_conn.append(conn_index)
    kinds = feed.kinds
    result.attempted = int(np.count_nonzero(kinds == VALID)) // HOP
    result.failed = max(0, result.attempted - len(hops))
    # Written times are on the monotonic clock, the kernel's on perf_counter.
    offset = time.perf_counter() - time.monotonic()
    if latencies:
        scaled = np.asarray(latencies) * ctx.calib.scales(np.asarray(latency_ends) + offset)
        result.notes.append(
            f"fixed-rate hop latency, not gated: p50 {median(scaled) * 1e3:.6g} ms, mean "
            f"{mean(scaled) * 1e3:.6g} ms, p95 {percentile(scaled, 95) * 1e3:.6g} ms, p99 "
            f"{percentile(scaled, 99) * 1e3:.6g} ms (unscaled p50 "
            f"{median(latencies) * 1e3:.6g} ms)")
    # The gated hop times come from the saturating phase, where the stream
    # never waits for input: the time from one hop's line to the next, within
    # a connection.  In the fixed-rate phase the stream sleeps between frames,
    # and on a busy host its wake-ups (and the sender's) are late by up to
    # tens of ms in some runs and not in others, whatever the program does.
    costs, cost_ends = [], []
    for k in range(1, len(saturated)):
        if saturated_conn[k] == saturated_conn[k - 1]:
            start, end = saturated[k - 1] + offset, saturated[k] + offset
            costs.append(ctx.uncalibrated(end - start, start, end))
            cost_ends.append(end)
    if costs:
        scaled = np.asarray(costs) * ctx.calib.scales(cost_ends)
        result.put("latency_ms_p50", median(scaled) * 1e3, "ms", "hop_cost_ms_p50",
                   raw=median(costs) * 1e3)
        result.put("latency_ms_tail", percentile(scaled, 90) * 1e3, "ms", "hop_cost_ms_p90",
                   raw=percentile(costs, 90) * 1e3)
    if len(saturated) > 1:
        frames = (len(saturated) - 1) * HOP
        span = saturated[-1] - saturated[0]
        start, end = saturated[0] + offset, saturated[-1] + offset
        result.put("throughput_per_s", frames / ctx.calibrated(span, start, end), "1/s",
                   "stream_frames_per_s", raw=frames / ctx.uncalibrated(span, start, end))

    records = sum(1 for c in connections for line in c.cmd.out.lines
                  if line.startswith("error,"))
    warm = sum(1 for c in connections for line in c.cmd.out.lines
               if not line.startswith("error,") and line.endswith(",1"))
    result.layer_inputs.update({
        "streaming.sender_lag_ms_max": summary["lag_ms_max"],
        "streaming.error_records": records,
        "streaming.restarts": len(connections) - 1,
        "streaming.warmup_share": warm / max(1, len(hops)),
    })
    result.notes.append(
        f"{len(latencies)} fixed-rate hops, {len(saturated)} saturating-phase hops, "
        f"{len(connections) - 1} restarts, {result.failed} of {result.attempted} hops lost, "
        f"{records} error records, {int(np.count_nonzero(kinds == NON_FINITE))} "
        f"non-finite lines sent")
    return result


def _reported(conn: Connection) -> set[int]:
    """Line numbers (from 1 on the connection) of the error records it printed."""
    return {int(m.group(1)) for m in map(_ERROR_RE.match, conn.cmd.out.lines) if m}


def _abort_line(feed: Feed, conn: Connection) -> int | None:
    """Feed line at which the stream of an aborted connection ended: the last
    frame of the first hop at or after its first non-finite frame.  The same
    rule as _simulate, in NumPy, to resume the sender without delay."""
    kinds = feed.kinds[conn.first_line:]
    reported = np.zeros(kinds.size, dtype=bool)
    reported[[n - 1 for n in _reported(conn) if n <= kinds.size]] = True
    frame = (kinds == VALID) | ((kinds == NON_FINITE) & ~reported)
    poisoned = np.flatnonzero(frame & (kinds == NON_FINITE))
    if poisoned.size == 0:
        return None
    count = np.cumsum(frame)
    hop_ends = np.flatnonzero(frame & (count % HOP == 0))
    after = hop_ends[hop_ends >= poisoned[0]]
    return conn.first_line + int(after[0]) if after.size else None


def _simulate(feed: Feed, conn: Connection, end_line: int) -> None:
    """Expected events of one connection: ("error", line number) and ("hop",
    frame index, feed line of the hop's last frame, window lines or None).

    A non-finite line that the stream reported as an error record is skipped
    like any malformed line.  Otherwise it is taken as a frame (today's
    behaviour), and the first hop whose window holds it ends the stream.
    """
    reported = _reported(conn)
    window: deque[int] = deque(maxlen=WINDOW)
    count, poisoned_at = 0, None
    expected = []
    line = conn.first_line
    while line < end_line:
        number = line - conn.first_line + 1
        kind = feed.kind(line)
        if kind != VALID and (kind != NON_FINITE or number in reported):
            expected.append(("error", number))
        else:
            count += 1
            window.append(line)
            if kind == NON_FINITE:
                poisoned_at = count
            if count % HOP == 0:
                if poisoned_at is not None and count - poisoned_at < WINDOW:
                    conn.abort_line = line
                    break
                checked = (count // HOP) % CHECK_EVERY == 1
                expected.append(("hop", count - 1, line, tuple(window) if checked else None))
        line += 1
    conn.expected = expected


def _check_stream(feed, connections, network, stats_mean, stats_std,
                  result) -> list[tuple[int, float, int]]:
    """Compare every connection's output with its expected events; recompute
    the sampled hops with Network.predict_proba, which must match bit for bit.
    Returns (feed line of the hop's last frame, write time, connection index)
    for each hop."""
    hops = []
    sampled = []
    for conn_index, conn in enumerate(connections):
        lines, times = conn.cmd.out.lines, conn.cmd.out.times
        if not result.check(len(lines) == len(conn.expected),
                             f"stream printed {len(lines)} lines where the feed predicts "
                             f"{len(conn.expected)}"):
            continue
        for text, written, event in zip(lines, times, conn.expected):
            fields = text.split(",")
            if event[0] == "error":
                ok = fields[0] == "error" and fields[1] == f"line={event[1]}"
            else:
                ok = fields[0] == str(event[1])
                if ok:
                    hops.append((event[2], written, conn_index))
                    if event[3] is not None:
                        sampled.append((fields, event[3]))
            if not result.check(ok, f"stream printed {text[:60]!r} where the feed predicts "
                                    f"{event[:2]}"):
                break
    input_frames = network.config.input_frames
    for fields, window_lines in sampled:
        frames = np.stack([feed.frame(i) for i in window_lines])
        x = reference.stream_input(frames, stats_mean, stats_std, WINDOW, input_frames)
        probs = network.predict_proba(x[None])[0]
        printed = fields[3:-1]
        result.check(printed == [f"{float(p):.9g}" for p in probs]
                     and int(fields[1]) == int(np.argmax(probs))
                     and fields[-1] == ("1" if len(window_lines) < WINDOW else "0"),
                     f"hop {fields[0]} differs from Network.predict_proba on its window")
    return hops


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    readable, _, _ = select.select([proc.stdout], [], [], timeout)
    if not readable:
        raise RuntimeError("the feed sender did not answer")
    line = proc.stdout.readline().decode()
    if not line:
        raise RuntimeError("the feed sender exited")
    return line


def _command(proc: subprocess.Popen, text: str) -> None:
    proc.stdin.write(text.encode() + b"\n")
    proc.stdin.flush()


def _stop(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
