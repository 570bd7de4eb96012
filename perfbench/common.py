"""Plumbing shared by the workloads: in-process commands, statistics, results."""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from calibrate import Calibrator
from intentcnn import cli

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# Epochs of the set-up train that makes the model of predict-csv and stream-tcp.
SETUP_EPOCHS = 2

_TRAINED_RE = re.compile(r"epochs_run=(\d+) best_epoch=(-?\d+) test_macro_f1=([0-9.]+)")


class LineRecorder(io.TextIOBase):
    """Stand-in for stdout that keeps every finished line with its write time.

    ``after_line``, when given, is called after each write that finished a
    line, once its time is taken.
    """

    def __init__(self, after_line=None):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._partial = ""
        self._after_line = after_line

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._partial += text
            return len(text)
        now = time.monotonic()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        self.lines.extend(parts)
        self.times.extend([now] * len(parts))
        if self._after_line is not None:
            self._after_line()
        return len(text)


@dataclass
class Command:
    rc: int
    out: LineRecorder
    err: str
    seconds: float
    start: float

    @property
    def end(self) -> float:
        return self.start + self.seconds


def run_cli(argv: list[str], after_line=None) -> Command:
    """Run one ``intentcnn`` command in this process, capturing its output."""
    out, err = LineRecorder(after_line), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    return Command(rc, out, err.getvalue(), seconds, start)


@dataclass
class Context:
    """What a workload gets: where to work, its seed and budget, the tracer
    and the host-speed calibrator (see calibrate.py)."""

    root: str
    run_dir: str
    seed: int
    seconds: float
    calib: Calibrator
    tracer: object | None = None
    clock: object | None = None      # the StepClock, which times training steps

    def uncalibrated(self, seconds: float, start: float, end: float) -> float:
        """A time measured over [start, end), without the calibration kernel's
        own time."""
        return seconds - self.calib.spent(start, end)

    def calibrated(self, seconds: float, start: float, end: float) -> float:
        """The same, at the reference host speed."""
        return self.uncalibrated(seconds, start, end) * self.calib.scale(start, end)

    def config(self, name: str) -> str:
        return os.path.join(self.root, "configs", name)

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)

    def phase(self, phase: int) -> None:
        if self.tracer is not None:
            self.tracer.current_phase = phase


@dataclass
class Result:
    """One workload run: counts, the end-to-end metrics, and what per-layer
    metrics need from the workload's own outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)   # metric -> per-command name
    raw: dict[str, float] = field(default_factory=dict)      # metric -> unscaled value
    layer_inputs: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def put(self, name: str, value: float, unit: str, alias: str | None = None,
            raw: float | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        if alias:
            self.aliases[name] = alias
        if raw is not None:
            self.raw[name] = float(raw)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def train_argv(ctx: Context, out_dir: str, epochs: int) -> list[str]:
    """``intentcnn train`` on the e5 preset, a fixed number of epochs.

    Patience equals the epoch count, so early stopping never shortens a run.
    """
    return ["train", "--config", ctx.config("e5.cfg"), "--out", out_dir,
            "--seed", str(ctx.seed), "--set", f"train.epochs={epochs}",
            "--set", f"train.patience={epochs}"]


@dataclass
class TrainOutcome:
    seconds: float          # calibrated
    raw_seconds: float      # without the kernel's time, unscaled
    macro_f1: float
    epochs_run: int
    best_epoch: int


def check_train(ctx: Context, cmd: Command, out_dir: str,
                result: Result) -> TrainOutcome | None:
    """Verify a finished train command: exit 0, its summary line, finite losses."""
    if not result.check(cmd.rc == 0, f"train exited {cmd.rc}: {cmd.err.strip()[-300:]}"):
        return None
    match = _TRAINED_RE.search(cmd.out.lines[-1] if cmd.out.lines else "")
    if not result.check(match is not None, "train printed no summary line"):
        return None
    with open(os.path.join(out_dir, "history.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    losses = [float(v) for row in rows for v in row[1:3]]
    result.check(len(rows) == int(match.group(1)) and all(math.isfinite(v) for v in losses),
                 "history.csv holds a non-finite loss or a wrong epoch count")
    return TrainOutcome(ctx.calibrated(cmd.seconds, cmd.start, cmd.end),
                        ctx.uncalibrated(cmd.seconds, cmd.start, cmd.end),
                        float(match.group(3)), int(match.group(1)), int(match.group(2)))


def put_train_metrics(result: Result, outcomes: list[TrainOutcome]) -> None:
    """train_s (mean) and test_macro_f1 (median) over the run's train commands,
    and the share of epochs that the kept model needed."""
    if not outcomes:
        return
    result.put("train_s", mean([o.seconds for o in outcomes]), "s",
               raw=mean([o.raw_seconds for o in outcomes]))
    result.put("test_macro_f1", median([o.macro_f1 for o in outcomes]), "ratio")
    result.layer_inputs["model.useful_epoch_share"] = median(
        [(o.best_epoch + 1) / o.epochs_run for o in outcomes])
