"""The stream-tcp feed: wire lines made from the workload seed.

The sender process and the checks in the benchmark process build the same
:class:`Feed`, so the checks know every line that went out.  Frames are
sinusoids plus noise around the model's own standardization statistics,
replayed from a pool of twelve traces of 800-1600 frames.  A small share of
lines is malformed in each way an operator's feed can be: a wrong field
count, a non-numeric token, and a non-finite token (``nan`` or ``1e39``).
"""

from __future__ import annotations

import numpy as np

CHANNELS = 24
POOL_TRACES = 12
WRONG_COUNT_SHARE = 0.001
NON_NUMERIC_SHARE = 0.001
NON_FINITE_PHASE1 = 1          # non-finite lines in the fixed-rate phase
NON_FINITE_PHASE2_GAP = 25000  # then one every this many lines
_KIND_CYCLE = 1 << 16

VALID, WRONG_COUNT, NON_NUMERIC, NON_FINITE = range(4)


class Feed:
    def __init__(self, seed: int, mean: np.ndarray, std: np.ndarray, phase1_lines: int,
                 total_lines: int):
        rng = np.random.default_rng(seed)
        signals = []
        for _ in range(POOL_TRACES):
            frames = int(rng.integers(800, 1601))
            t = np.arange(frames)[:, None] / 100.0
            freq = rng.uniform(0.2, 3.0, CHANNELS)
            phase = rng.uniform(0.0, 2 * np.pi, CHANNELS)
            amp = rng.uniform(0.5, 2.0, CHANNELS)
            signals.append(amp * np.sin(2 * np.pi * freq * t + phase)
                           + 0.1 * rng.standard_normal((frames, CHANNELS)))
        self.frames = (mean + std * np.concatenate(signals)).astype(np.float32)
        self.text = [",".join(f"{v:.9g}" for v in row) for row in self.frames.tolist()]
        draws = rng.random(_KIND_CYCLE)
        cycle = np.full(_KIND_CYCLE, VALID, dtype=np.int8)
        cycle[draws < WRONG_COUNT_SHARE + NON_NUMERIC_SHARE] = NON_NUMERIC
        cycle[draws < WRONG_COUNT_SHARE] = WRONG_COUNT
        segment = phase1_lines // NON_FINITE_PHASE1
        phase1_bad = [k * segment + int(rng.integers(segment // 4, 3 * segment // 4))
                      for k in range(NON_FINITE_PHASE1)]
        phase2_offset = int(rng.integers(NON_FINITE_PHASE2_GAP // 4,
                                         3 * NON_FINITE_PHASE2_GAP // 4))
        # The kind of every line the feed will send.
        self.kinds = cycle[np.arange(total_lines) % _KIND_CYCLE]
        self.kinds[phase1_bad] = NON_FINITE
        self.kinds[phase1_lines + phase2_offset::NON_FINITE_PHASE2_GAP] = NON_FINITE

    def kind(self, i: int) -> int:
        return int(self.kinds[i])

    def frame(self, i: int) -> np.ndarray:
        return self.frames[i % len(self.frames)]

    def line(self, i: int) -> str:
        text = self.text[i % len(self.text)]
        kind = self.kind(i)
        if kind == VALID:
            return text
        fields = text.split(",")
        if kind == WRONG_COUNT:
            return ",".join(fields[:-1])
        if kind == NON_NUMERIC:
            fields[i % CHANNELS] = "n/a"
        else:
            fields[i % CHANNELS] = "nan" if i % 2 else "1e39"
        return ",".join(fields)
