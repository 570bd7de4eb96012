"""Host-speed calibration: a fixed kernel run between the program's operations.

The shared 2-vCPU host this benchmark was built on changes speed by up to
±20% over tens of seconds, without stolen time: the same code simply runs
slower.  Runs minutes apart then differ by more than any bound worth
gating.  So each workload runs this kernel between its operations (after a
predict call, at each training step, after every few stream hops) and
reports its timed figures at a reference host speed::

    reported time = measured time x REFERENCE_S / mean kernel time
                    over the same interval

A single operation's time (a call, a step, a hop) is scaled by the mean of
the NEAREST kernel runs around it instead, because the host's speed can
change within a run and a run-wide factor would leave a tail percentile
depending on how much of the run fell in each speed.

The kernel is this file's own code: Python float parsing, NumPy allocation
and small float32 matmuls, the mix the workloads spend their time on.  No
change to intentcnn changes its cost, so a faster or slower program moves
the reported figures as it moves the measured ones.  The kernel never runs
inside a timed operation, and its own time is subtracted from any interval
that contains it.  Traced runs do not calibrate.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Mean kernel time that the reported figures are scaled to; about the
# kernel's median on the 2-vCPU host the first figures came from.
REFERENCE_S = 0.0025
WARMUP_RUNS = 20
NEAREST = 8              # kernel runs that scale a single operation


class Calibrator:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list[float] = []
        self.seconds: list[float] = []
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((150, 24))
        self._text = "\n".join(",".join(f"{v:.6g}" for v in row) for row in rows.tolist())
        self._a = rng.standard_normal((64, 256)).astype(np.float32)
        self._b = rng.standard_normal((256, 256)).astype(np.float32)
        if enabled:
            for _ in range(WARMUP_RUNS):
                self._kernel()

    def _kernel(self) -> float:
        rows = [[float(v) for v in line.split(",")] for line in self._text.split("\n")]
        parsed = np.array(rows, dtype=np.float32)
        block = np.zeros(1 << 20, dtype=np.float32)
        block += 1.0
        product = self._a
        for _ in range(4):
            product = np.tanh(self._a @ self._b)
        return float(parsed[0, 0] + block[-1] + product[0, 0])

    def run(self) -> None:
        """One timed kernel run (nothing when calibration is off)."""
        if not self.enabled:
            return
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def _inside(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.seconds[lo:hi]

    def spent(self, start: float, end: float) -> float:
        """Kernel time that started within [start, end)."""
        return float(sum(self._inside(start, end)))

    def scales(self, times) -> np.ndarray:
        """Factor for each operation that ended at one of ``times``, from the
        NEAREST kernel runs around it; 1 without calibration."""
        times = np.asarray(times, dtype=np.float64)
        if len(self.seconds) < NEAREST:
            return np.ones_like(times)
        starts = np.asarray(self.starts)
        total = np.concatenate(([0.0], np.cumsum(self.seconds)))
        lo = np.clip(np.searchsorted(starts, times) - NEAREST // 2, 0, starts.size - NEAREST)
        return REFERENCE_S * NEAREST / (total[lo + NEAREST] - total[lo])

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured within [start, end) to the
        reference host speed; 1 without calibration."""
        inside = self._inside(start, end)
        if not inside:
            return 1.0
        return REFERENCE_S / (sum(inside) / len(inside))
