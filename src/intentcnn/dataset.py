"""Trace ingestion, labeling, preprocessing and synthetic trace generation.

A trace is a ``(channels, frames)`` float32 array of sensor values sampled on
one uniform clock, ``SAMPLE_RATE_HZ``.  On disk a trace is a CSV whose header
is ``t,<ch1>,...,<chN>`` and whose file name carries the label
(``task<k>_trial<m>.csv`` -> class index ``k - 1``).

Preprocessing order used across the package: fit per-channel standardization
statistics on the raw (un-padded) frames of the training partition, apply
them everywhere, then zero-pad every trace up to a common block-aligned
length.  Padded frames stay exactly zero; each trace remembers how many of
its frames are real in ``source_frames``.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import os
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import KeyReader, check_bounds, csv_text, read_utf8, split_lines, write_utf8
from .errors import ConfigError, FormatError, InputError, NumericError, excerpt

log = logging.getLogger(__name__)

SAMPLE_RATE_HZ = 100.0
DEFAULT_BLOCK_FRAMES = 1000
STD_FLOOR = 1e-9          # channels with std below this standardize with sigma = 1
RATE_TOLERANCE = 0.01     # inferred sample rate must sit within 1% of SAMPLE_RATE_HZ

_FILENAME_RE = re.compile(r"^task(\d+)_trial(\d+)\.csv$")


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """One recording: values (channels, frames) float32 plus channel metadata.

    ``source_frames`` counts the real frames; anything beyond it is zero
    padding appended by :func:`pad_traces`.
    """

    values: np.ndarray
    channel_names: tuple[str, ...]
    source_frames: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise InputError(f"trace values must be (channels, frames), got shape {self.values.shape}")
        if self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise InputError(f"trace needs at least one channel and one frame, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise NumericError("trace values contain NaN or Inf")
        self.channel_names = tuple(self.channel_names)
        if len(self.channel_names) != self.values.shape[0]:
            raise InputError(f"{len(self.channel_names)} channel names for "
                             f"{self.values.shape[0]} channels")
        if self.source_frames is None:
            self.source_frames = self.values.shape[1]
        if not (1 <= self.source_frames <= self.values.shape[1]):
            raise InputError(f"source_frames {self.source_frames} outside "
                             f"[1, {self.values.shape[1]}]")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]

    def source_values(self) -> np.ndarray:
        """The real (un-padded) part of the trace."""
        return self.values[:, :self.source_frames]


@dataclass
class LabeledDataset:
    """Parallel traces/labels plus the ordered class vocabulary."""

    traces: list[Trace]
    labels: np.ndarray
    vocab: tuple[str, ...]

    def __post_init__(self):
        self.traces = list(self.traces)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.vocab = tuple(self.vocab)
        if self.labels.shape != (len(self.traces),):
            raise InputError(f"{self.labels.shape[0] if self.labels.ndim else 0} labels "
                             f"for {len(self.traces)} traces")
        if len(set(self.vocab)) != len(self.vocab):
            raise InputError(f"duplicate class names in vocab {self.vocab}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.vocab)):
            raise InputError(f"labels must lie in [0, {len(self.vocab)}), got "
                             f"[{self.labels.min()}, {self.labels.max()}]")
        first = self.traces[0] if self.traces else None
        for trace in self.traces:
            if trace.channels != first.channels or trace.channel_names != first.channel_names:
                raise InputError("all traces in a dataset must share channel count and names")

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def channel_names(self) -> tuple[str, ...] | None:
        return self.traces[0].channel_names if self.traces else None

    @property
    def channels(self) -> int | None:
        return self.traces[0].channels if self.traces else None

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.vocab))

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(traces=[self.traces[i] for i in indices],
                              labels=self.labels[indices], vocab=self.vocab)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> tuple[list | None, list]:
    """The header cells (None if there are no records) and the data records of a
    UTF-8 CSV file (:func:`read_utf8` with FormatError).  ``csv.reader`` reads
    the header of text holding a ``"``, and the rest too, as cell lists, if it
    holds one or a line longer than csv's field limit (an error); a
    ``csv.Error`` is a FormatError.  Other records are lines
    (:func:`split_lines`), split by :func:`_cells`."""
    text = read_utf8(path, FormatError)
    reader = None
    try:
        if '"' in text:
            reader = csv.reader(stream := io.StringIO(text, newline=""))
            header, text = next(reader), text[stream.tell():]
        lines = split_lines(text)
        if reader is None:
            return (_cells(lines.pop(0)) if lines else None), lines
        if '"' in text or max(map(len, lines), default=0) > csv.field_size_limit():
            return header, list(reader)
        return header, lines
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _cells(record) -> list[str]:
    """A record's cells: a cell list as it is, a line split at its commas (a
    blank line has none)."""
    if not isinstance(record, str):
        return record
    return record.split(",") if record else []


def parse_trace_csv(path: str) -> Trace:
    """Read a trace CSV: header ``t,<ch1>,...``, one row per frame.

    Validates the header (present, non-empty, unique names), the rows
    (:func:`_read_rows`: the first ragged row or non-numeric cell in file
    order, then the first non-finite value; times need only be finite),
    strictly increasing time, and that the sample rate inferred from the
    median time delta lies within 1% of ``SAMPLE_RATE_HZ``.
    """
    header, data = _read_csv(path)
    if header is None:
        raise FormatError(f"{path}: empty file")
    header = [name.strip() for name in header]
    if len(header) < 2:
        raise FormatError(f"{path}: header needs a time column plus at least one channel")
    if not _read_rows([header], len(header))[2]:
        raise FormatError(f"{path}: missing header row (first line is numeric)")
    if any(name == "" for name in header):
        raise FormatError(f"{path}: blank column name in header")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate column names in header")
    if not data:
        raise FormatError(f"{path}: no data rows after the header")

    numbers, fits, faults = _read_rows(data, len(header))
    if faults:                                  # the first in file order
        r, (cells, c) = next(iter(faults.items()))
        raise FormatError(f"{path}: row {r + 2} has {len(cells)} cells, expected {len(header)}"
                          if c is None else f"{path}: row {r + 2}, column {excerpt(header[c])}: "
                                            f"non-numeric value {excerpt(cells[c])}")
    times = numbers[:, 0]
    fits[:, 0] = np.isfinite(times)
    if not fits.all():
        r, c = divmod(int(np.argmin(fits)), len(header))
        raise FormatError(f"{path}: row {r + 2}, column {excerpt(header[c])}: "
                          f"non-finite value {excerpt(_cells(data[r])[c])}")
    if len(times) > 1:
        with np.errstate(over="ignore"):        # finite times can still differ by inf
            deltas = np.diff(times)
        if np.any(deltas <= 0):
            bad = int(np.argmax(deltas <= 0))
            raise FormatError(f"{path}: time not strictly increasing at row {bad + 3}")
        inferred = 1.0 / float(np.median(deltas))
        if abs(inferred - SAMPLE_RATE_HZ) > RATE_TOLERANCE * SAMPLE_RATE_HZ:
            raise FormatError(f"{path}: inferred sample rate {inferred:.3f} Hz is outside 1% "
                              f"of expected {SAMPLE_RATE_HZ:g} Hz")
    values = numbers[:, 1:].T.astype(np.float32, order="C")
    return Trace(values=values, channel_names=tuple(header[1:]))


# doubles of this magnitude or more round to inf in float32: the midpoint
# between the largest finite float32 and 2**128
_FLOAT32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103

# NumPy's text reader strips these around a value as whitespace, float() does not
_NOT_FOR_NUMPY = "\x1c\x1d\x1e\x1f\r\n"    # (and a "\r" or "\n" would end a line in it)


def _read_rows(rows: list, width: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The number rule for trace rows and stream lines: a row (a line or a
    cell list; :func:`_cells`) holds ``width`` cells, each read as ``float()``
    reads it.  Returns the float64 ``(len(rows), width)`` values, the mask of
    those whose float32 rounding is finite (false for NaN, for magnitudes
    rounding to inf and across a failing row), and each failing row's first
    fault, in row order: ``{row: (cells, None)}`` for the wrong cell count,
    else ``{row: (cells, column)}`` of its first non-numeric cell.

    Several lines go to NumPy's C text reader first.  Every value it reads is
    ``float()``'s, but it strips U+001C-U+001F around a value and splits a
    row at a line break (so it never sees those, nor a blank first line,
    where it warns) and skips blank lines, so its result counts only as
    ``width`` values on every line.  Other rows, and text it rejects
    (``1_000`` and non-ASCII digits too), are read one by one; so is a single
    line, where ``float()`` is faster."""
    if len(rows) > 1 and isinstance(rows[0], str) and rows[0]:
        text = "".join(rows)
        if not any(c in text for c in _NOT_FOR_NUMPY):
            try:
                values = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64,
                                    ndmin=2)
                if values.shape == (len(rows), width):
                    return values, np.abs(values) < _FLOAT32_OVERFLOW, {}
            except ValueError:
                pass
    values, faults = np.full((len(rows), width), np.nan), {}
    for r, row in enumerate(rows):
        cells, numbers = _cells(row), []
        if len(cells) != width:
            faults[r] = cells, None
            continue
        try:
            for cell in cells:
                numbers.append(float(cell))
            values[r] = numbers
        except ValueError:
            faults[r] = cells, len(numbers)
    return values, np.abs(values) < _FLOAT32_OVERFLOW, faults


# "%.9g" writes a float32 x in fixed notation when its 9 significant digits
# M = round-half-even(|x| * 10**(8 - E)), 1e8 <= M < 1e9, have a decimal
# exponent E in -4..8.  For |x| in [1e-4, 1e9) that product is exact in float64
# (a 24-bit significand times 5**(8 - E) < 2**28), so np.rint rounds as "%" does.
_POW10 = np.array([float(10 ** k) for k in range(13)])
# the float32 values in [1e-4, 1e9), where "%.9g" writes fixed notation
_FIXED = float(np.nextafter(np.float32(1e-4), np.float32(1))), 999999936.0
# "%04d" of v = 0..9999 as the low 4 bytes of a uint64, its first digit the
# lowest (cells are little-endian words), and the number of zeros that end it:
# the k in 1..4 with 10**k dividing v
_ASCII4 = sum((np.arange(10_000) // 10 ** (3 - i) % 10 + ord("0")) << 8 * i
              for i in range(4)).astype(np.uint64)
_ZEROS4 = sum(np.arange(10_000) % 10 ** k == 0 for k in range(1, 5))
# A cell is 16 bytes, NUL where nothing is written: ",", "-" or NUL, for E < 0
# "0." and up to two zeros, then from byte 6 a 10-digit body: M with a "0"
# digit inserted at body position k = max(E + 1, 0), which becomes ".", NUL or
# (E = -4) a third zero.  Zeros that end the fraction are NUL, and so is a
# point that no fraction digit follows.
_CELL_BYTES = 16
_BLOCK_CELLS = 8000     # per call: temporaries under 128 KiB run ~2x faster than a whole trace's
# bytes 8-15 of a cell hold body positions 2-9; _BODY_KEEP[p] keeps those below p
_BODY_KEEP = np.array([256 ** max(p - 2, 0) - 1 for p in range(11)], dtype=np.uint64)


def _cell_layout(e: int, point: bool, minus: bool) -> tuple[int, int, int]:
    """The static bytes of a cell with exponent e: bytes 0-5, and what turns
    the inserted "0" into its byte, as amounts to subtract from bytes 0-7 and
    8-15."""
    k = max(e + 1, 0)
    sign = b"," + (b"-" if minus else b"\0")
    if e < 0:
        prefix, inserted = sign + b"0." + b"0" * min(-e - 1, 2), b"0" if e == -4 else b"\0"
    else:
        prefix, inserted = sign, b"." if point else b"\0"
    adjust = (ord("0") - ord(inserted)) << 8 * (6 + k)
    return int.from_bytes(prefix, "little"), adjust % 2 ** 64, adjust >> 64


# indexed by 4 * (E + 4) + 2 * point + minus
_PREFIX, _ADJUST0, _ADJUST1 = np.array([_cell_layout(e, point, minus) for e in range(-4, 9)
                                        for point in (False, True) for minus in (False, True)],
                                       dtype=np.uint64).T.copy()


def _fixed_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "," + "%.9g" cells of a ``(rows, channels)`` float32 block as
    ``(rows, 16 * channels)`` NUL-padded bytes, and the mask of the rows whose
    cells all take fixed notation, which these bytes get right."""
    x = rows.ravel()
    a = np.abs(x, dtype=np.float64)
    fixed = a.clip(*_FIXED)
    covered = fixed == a
    # log10 proposes E; it is 2.6e-8 or more below k for a float32 below 10**k,
    # so only an ulp low at 10**k itself makes it one short, which M shows
    e = np.floor(np.log10(fixed)).astype(np.intp)
    e += fixed * _POW10[8 - e] >= 1e9
    unit = _POW10[8 - e]                        # 10**(digits after the point)
    s = fixed * unit
    np.rint(s, out=s)                           # a float32 below 10**(E + 1) keeps M < 1e9
    s += 9 * unit * np.floor(s / unit)          # the inserted digit: 10x the integer part
    body = s.astype(np.intp)
    upper = body // 10_000
    lo = body - upper * 10_000                  # body positions 6-9
    hi = upper // 10_000                        # 0-1
    mid = upper - hi * 10_000                   # 2-5
    zeros = _ZEROS4[lo]
    zeros += (zeros == 4) * _ZEROS4[mid]
    zeros += (zeros == 8) * _ZEROS4[hi]
    k = np.maximum(e + 1, 0)
    keep = np.maximum(10 - zeros, k)            # body positions written
    layout = 4 * (e + 4) + 2 * (keep > k) + (x < 0)
    cells = np.empty((len(x), 2), "<u8")
    cells[:, 0] = ((_ASCII4[hi] >> 16 << 48) - _ADJUST0[layout]) | _PREFIX[layout]
    cells[:, 1] = ((_ASCII4[mid] | _ASCII4[lo] << 32) - _ADJUST1[layout]) & _BODY_KEEP[keep]
    return cells.view(np.uint8).reshape(len(rows), -1), covered.reshape(len(rows), -1).all(axis=1)


_STAMP_BLOCK = 4096     # frames per block of the cached stamp column


@functools.lru_cache(maxsize=1)
def _stamp_column(blocks: int) -> np.ndarray:
    """The time stamps of frames 0 .. 4096 * blocks - 1 as NUL-padded bytes,
    one row per frame: f / SAMPLE_RATE_HZ to 4 decimals."""
    column = np.array(["%.4f" % (f / SAMPLE_RATE_HZ) for f in range(blocks * _STAMP_BLOCK)],
                      dtype="S")
    column.flags.writeable = False              # every caller gets this one array
    return column.view(np.uint8).reshape(len(column), -1)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace under its ``t,<ch1>,...`` header (:func:`csv_text`), one
    line per frame: its time stamp, then ``",%.9g"`` of each value, which
    float32 values round-trip exactly through.

    The stamps are sliced from :func:`_stamp_column` and the cells formatted
    in bulk (:func:`_fixed_cells`) into NUL-padded fields that one
    ``bytes.translate`` removes, with the same bytes as ``%``; a row holding a
    cell in exponent notation (|x| < 1e-4 or >= 1e9, 0 too) gets its cells
    from ``%``."""
    stamps = _stamp_column(-(-trace.frames // _STAMP_BLOCK))
    head = stamps.shape[1]
    text = np.empty((trace.frames, head + _CELL_BYTES * trace.channels + 1), np.uint8)
    text[:, :head] = stamps[:trace.frames]
    text[:, -1] = ord("\n")
    block = max(1, _BLOCK_CELLS // trace.channels)
    for start in range(0, trace.frames, block):
        rows = trace.values[:, start:start + block].T
        text[start:start + len(rows), head:-1], covered = _fixed_cells(rows)
        for f in (start + np.flatnonzero(~covered)).tolist():
            cells = "".join(",%.9g" % v for v in trace.values[:, f].tolist()).encode()
            text[f, head:-1] = np.frombuffer(cells.ljust(_CELL_BYTES * trace.channels, b"\0"),
                                             np.uint8)
    with open(path, "wb") as fh:
        fh.write(csv_text([("t",) + trace.channel_names]).encode())
        fh.write(text.tobytes().translate(None, b"\0"))


def label_from_filename(name: str) -> tuple[int, int]:
    """task<k>_trial<m>.csv -> (k, m); the class index used downstream is k - 1."""
    base = os.path.basename(name)
    m = _FILENAME_RE.match(base)
    if m is None:
        raise InputError(f"{base!r} does not match the task<k>_trial<m>.csv naming convention")
    task_id, trial = int(m.group(1)), int(m.group(2))
    if task_id < 1:
        raise InputError(f"{base!r}: task numbers start at 1")
    return task_id, trial


def load_csv_dir(path: str) -> LabeledDataset:
    """Load every ``task<k>_trial<m>.csv`` in a directory into a labeled dataset.

    Class index = task number - 1; the vocabulary is task1..taskN for the
    largest task number present.  Files not matching the naming convention
    (such as a companion manifest) are ignored.
    """
    try:
        names = sorted(n for n in os.listdir(path) if _FILENAME_RE.match(n))
    except OSError as exc:
        raise FormatError(f"cannot list directory {path!r}: {exc}") from exc
    if not names:
        raise FormatError(f"no task<k>_trial<m>.csv trace files found in {path!r}")
    traces: list[Trace] = []
    labels: list[int] = []
    max_task = 0
    for name in names:
        task_id, _ = label_from_filename(name)
        traces.append(parse_trace_csv(os.path.join(path, name)))
        labels.append(task_id - 1)
        max_task = max(max_task, task_id)
    vocab = tuple(f"task{k}" for k in range(1, max_task + 1))
    log.info("loaded %d traces across %d classes from %s", len(traces), max_task, path)
    return LabeledDataset(traces=traces, labels=np.array(labels), vocab=vocab)


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def padded_length(longest: int, block_frames: int) -> int:
    """Smallest multiple of block_frames that fits the longest trace."""
    if block_frames < 1:
        raise ConfigError(f"block_frames must be >= 1, got {block_frames}")
    return max(1, math.ceil(longest / block_frames)) * block_frames


def pad_traces(dataset: LabeledDataset, block_frames: int = DEFAULT_BLOCK_FRAMES,
               target_frames: int | None = None) -> LabeledDataset:
    """Append zero frames so every trace reaches a common block-aligned length.

    With ``target_frames`` the caller fixes the final length (it must still
    fit the longest trace -- padding never truncates).
    """
    if not dataset.traces:
        return dataset
    longest = max(trace.frames for trace in dataset.traces)
    if target_frames is None:
        target_frames = padded_length(longest, block_frames)
    elif target_frames < longest:
        raise InputError(f"target_frames {target_frames} would truncate a "
                         f"{longest}-frame trace")
    padded = []
    for trace in dataset.traces:
        if trace.frames == target_frames:
            padded.append(trace)
            continue
        values = np.zeros((trace.channels, target_frames), dtype=np.float32)
        values[:, :trace.frames] = trace.values
        padded.append(replace(trace, values=values))
    return LabeledDataset(traces=padded, labels=dataset.labels, vocab=dataset.vocab)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardizationStats:
    """Per-channel mean and standard deviation fitted on training data."""

    mean: np.ndarray   # float64 (channels,)
    std: np.ndarray    # float64 (channels,), degenerate channels already floored to 1

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise InputError(f"stats must be aligned vectors, got {self.mean.shape} "
                             f"and {self.std.shape}")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise InputError("means and standard deviations must be finite")
        if np.any(self.std <= 0):
            raise InputError("standard deviations must be positive")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def standardize_fit(dataset: LabeledDataset) -> StandardizationStats:
    """Population mean/std per channel over all non-padded frames, pooled across traces."""
    if not dataset.traces:
        raise InputError("cannot fit standardization on an empty dataset")
    channels = dataset.channels
    total = 0
    acc = np.zeros(channels, dtype=np.float64)
    acc_sq = np.zeros(channels, dtype=np.float64)
    for trace in dataset.traces:
        source = trace.source_values().astype(np.float64)
        acc += source.sum(axis=1)
        acc_sq += (source * source).sum(axis=1)
        total += trace.source_frames
    mean = acc / total
    var = acc_sq / total - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    std = np.where(std < STD_FLOOR, 1.0, std)
    return StandardizationStats(mean=mean, std=std)


def standardize_apply(dataset: LabeledDataset, stats: StandardizationStats) -> LabeledDataset:
    """Map every non-padded value to (x - mean) / std; padded frames stay zero."""
    out = [replace(trace, values=prepare_input(trace.source_values(), stats, trace.frames))
           for trace in dataset.traces]
    return LabeledDataset(traces=out, labels=dataset.labels, vocab=dataset.vocab)


def prepare_input(raw, stats: StandardizationStats, input_frames: int,
                  offset: int = 0) -> np.ndarray:
    """Standardize raw ``(channels, frames)`` values into a zero ``(channels,
    input_frames)`` float32 array, starting at column ``offset``.

    The one input preparation of training, prediction and streaming: a float64
    copy is standardized in place and rounded to float32 as it is written, and
    every other frame is exactly zero, so equal raw frames give equal inputs.
    """
    raw = np.asarray(raw)
    channels, frames = raw.shape
    if channels != stats.channels:
        raise InputError(f"stats cover {stats.channels} channels but the input has "
                         f"{channels}")
    if offset + frames > input_frames:
        raise InputError(f"{frames} frames at offset {offset} do not fit an input of "
                         f"{input_frames} frames")
    z = raw.astype(np.float64)
    z -= stats.mean[:, None]
    z /= stats.std[:, None]
    out = np.zeros((channels, input_frames), dtype=np.float32)
    with np.errstate(over="ignore"):        # past float32 is inf, which each caller reports
        out[:, offset:offset + frames] = z
    return out


def save_stats(stats: StandardizationStats, channel_names, path: str) -> None:
    channel_names = tuple(channel_names)
    if len(channel_names) != stats.channels:
        raise InputError(f"{len(channel_names)} names for {stats.channels} channels")
    write_utf8(path, csv_text([("channel", "mean", "std"),
                               *zip(channel_names, map(float, stats.mean), map(float, stats.std))]))


def load_stats(path: str) -> tuple[StandardizationStats, tuple[str, ...]]:
    """The stats and channel names of a CSV as :func:`save_stats` writes it,
    its numbers read by :func:`_read_rows`.  A FormatError names the first bad
    row in file order: a wrong cell count, a non-numeric cell, or values that
    StandardizationStats rejects."""
    header, data = _read_csv(path)
    if header is None or [c.strip() for c in header] != ["channel", "mean", "std"]:
        raise FormatError(f"{path}: expected header 'channel,mean,std'")
    body = list(map(_cells, data))
    numbers, _, faults = _read_rows([row[1:] for row in body], 2)
    if body and not faults:
        try:
            return StandardizationStats(*numbers.T), tuple(row[0] for row in body)
        except InputError:
            pass                                # the row loop names the first bad row
    for r, row in enumerate(body):
        if r in faults:
            raise FormatError(f"{path}: row {r + 2} has {len(row)} cells, expected 3"
                              if faults[r][1] is None else
                              f"{path}: row {r + 2}: non-numeric statistic")
        try:
            StandardizationStats(mean=numbers[r, :1], std=numbers[r, 1:])
        except InputError as exc:
            raise FormatError(f"{path}: row {r + 2}: {exc}") from None
    raise FormatError(f"{path}: no channel rows")      # only an empty body gets here


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Stratified split fractions (must sum to 1) and the shuffle seed."""

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ConfigError(f"split fractions must lie in (0, 1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)!r}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


def format_ratio(fractions) -> str:
    """A split ratio as reports and config files write it, e.g. ``0.8/0.1/0.1``."""
    return "/".join(f"{f:g}" for f in fractions)


def largest_remainder_counts(n: int, fractions) -> list[int]:
    """Apportion n items to fractions: floor quotas, then leftovers by largest remainder.

    Remainder ties break in favour of the earlier fraction (train, then val, then test).
    """
    quotas = [n * f for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = n - sum(counts)
    remainders = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def stratified_split(dataset: LabeledDataset, spec: SplitSpec
                     ) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Per-class seeded shuffle, then largest-remainder apportioning per class.

    Every class needs at least 3 samples, and no partition may end up empty.
    The three results are disjoint and exhaustive; identical seeds give
    identical index sets.
    """
    counts = dataset.class_counts()
    for k, count in enumerate(counts):
        if count < 3:
            raise InputError(f"class {dataset.vocab[k]!r} has only {count} "
                             f"sample(s); stratified splitting needs >= 3")
    rng = np.random.default_rng(spec.seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for k in range(len(dataset.vocab)):
        indices = np.flatnonzero(dataset.labels == k)
        perm = rng.permutation(indices)
        n_train, n_val, _ = largest_remainder_counts(len(indices), spec.fractions)
        parts[0].extend(perm[:n_train].tolist())
        parts[1].extend(perm[n_train:n_train + n_val].tolist())
        parts[2].extend(perm[n_train + n_val:].tolist())
    for name, part in zip(("training", "validation", "test"), parts):
        if not part:
            raise InputError(f"split {format_ratio(spec.fractions)} leaves "
                             f"the {name} partition empty")
    train, val, test = (dataset.subset(sorted(part)) for part in parts)
    log.info("stratified split %s -> %d/%d/%d samples", format_ratio(spec.fractions),
             len(train), len(val), len(test))
    return train, val, test


# ---------------------------------------------------------------------------
# relabeling / class selection / fusion
# ---------------------------------------------------------------------------

def relabel_binary(dataset: LabeledDataset, positive_names) -> LabeledDataset:
    """Collapse to two classes: the named positive classes -> 1, the rest -> 0.

    ``positive_names`` must name a non-empty proper subset of the vocab.  The
    new vocabulary records which source classes landed on each side.
    """
    positive = set(positive_names)
    unknown = [name for name in positive_names if name not in dataset.vocab]
    if unknown:
        raise InputError(f"positive class name(s) {unknown} not in vocab {list(dataset.vocab)}")
    if not positive:
        raise InputError("positive class set is empty")
    if len(positive) == len(dataset.vocab):
        raise InputError("positive class set covers every class; nothing to separate")
    negatives = [name for name in dataset.vocab if name not in positive]
    positives = [name for name in dataset.vocab if name in positive]
    vocab = (f"neg({'+'.join(negatives)})", f"pos({'+'.join(positives)})")
    labels = np.isin(dataset.labels, [dataset.vocab.index(name) for name in positives])
    return LabeledDataset(traces=list(dataset.traces), labels=labels, vocab=vocab)


def select_classes(dataset: LabeledDataset, names) -> LabeledDataset:
    """Keep only the named classes; the new vocab keeps the original order."""
    names = list(names)
    unknown = [n for n in names if n not in dataset.vocab]
    if unknown:
        raise InputError(f"unknown class name(s) {unknown}; vocab is {list(dataset.vocab)}")
    if not names:
        raise InputError("select_classes needs at least one class name")
    keep = [k for k, name in enumerate(dataset.vocab) if name in set(names)]
    remap = {old: new for new, old in enumerate(keep)}
    mask = np.isin(dataset.labels, keep)
    labels = np.array([remap[int(l)] for l in dataset.labels[mask]], dtype=np.int64)
    traces = [trace for trace, m in zip(dataset.traces, mask) if m]
    return LabeledDataset(traces=traces, labels=labels,
                          vocab=tuple(dataset.vocab[k] for k in keep))


def rename_classes(dataset: LabeledDataset, mapping: dict) -> LabeledDataset:
    unknown = [n for n in mapping if n not in dataset.vocab]
    if unknown:
        raise InputError(f"cannot rename unknown class(es) {unknown}")
    vocab = tuple(mapping.get(name, name) for name in dataset.vocab)
    return LabeledDataset(traces=list(dataset.traces), labels=dataset.labels.copy(), vocab=vocab)


def merge_datasets(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    """Fuse two datasets; classes union by name (a's order first, b's new classes after).

    Channel counts and names must match.  Traces keep their lengths, which
    may differ: padding to a common length is :func:`pad_traces`' job.
    """
    if not a.traces:
        return b
    if not b.traces:
        return a
    if a.channels != b.channels or a.channel_names != b.channel_names:
        raise InputError(f"cannot merge: channels {a.channels}/{a.channel_names} vs "
                         f"{b.channels}/{b.channel_names}")
    vocab = list(a.vocab)
    for name in b.vocab:
        if name not in vocab:
            vocab.append(name)
    b_map = {k: vocab.index(name) for k, name in enumerate(b.vocab)}
    labels = np.concatenate([a.labels, np.array([b_map[int(l)] for l in b.labels], dtype=np.int64)])
    return LabeledDataset(traces=list(a.traces) + list(b.traces), labels=labels,
                          vocab=tuple(vocab))


# ---------------------------------------------------------------------------
# synthetic traces
# ---------------------------------------------------------------------------

# template parameter columns: amplitude, frequency (Hz), phase (rad), drift (units/s)
_TEMPLATE_LOW = (0.5, 0.2, 0.0, -0.05)
_TEMPLATE_HIGH = (2.0, 1.5, 2.0 * math.pi, 0.05)
# |template| <= amplitude + |drift| * t for t up to (frame_max - 1) / SAMPLE_RATE_HZ
# seconds, which stays within float32's largest value below this frame_max
_FRAME_MAX_LIMIT = 1 + (float(np.finfo(np.float32).max) - _TEMPLATE_HIGH[0]) \
    * SAMPLE_RATE_HZ / _TEMPLATE_HIGH[3]
NOISE_SIGMAS = 13   # rng.normal's 53-bit uniforms end its ziggurat tail below 12.3 sigmas


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a labeled synthetic dataset.

    Each (class, channel) pair gets one deterministic template
    ``A*sin(2*pi*f*t + phi) + drift*t`` with parameters drawn once from the
    seeded generator; every trial draws its frame count uniformly from
    ``frame_min``..``frame_max`` (inclusive), takes that many leading frames of its
    class template plus fresh Gaussian noise.  The same seed gives the same bits.
    """

    num_classes: int = field(default=6, metadata={"min": 2})
    trials_per_class: int = field(default=20, metadata={"min": 1})
    channels: int = field(default=24, metadata={"min": 1})
    frame_min: int = field(default=800, metadata={"min": 10})
    frame_max: int = 1600
    noise_std: float = field(default=0.1, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    class_prefix: str = "task"

    def __post_init__(self):
        check_bounds(self)
        hi = self.frame_max
        if hi < self.frame_min:
            raise ConfigError(f"frame_max must be >= frame_min, got {hi} < {self.frame_min}")
        if hi >= _FRAME_MAX_LIMIT:
            raise ConfigError(f"frame_max must be below {_FRAME_MAX_LIMIT:.3g}, or template "
                              f"values overflow float32, got {hi}")
        peak = _TEMPLATE_HIGH[0] + _TEMPLATE_HIGH[3] * (hi - 1) / SAMPLE_RATE_HZ
        if peak + NOISE_SIGMAS * self.noise_std >= _FLOAT32_OVERFLOW:
            limit = (_FLOAT32_OVERFLOW - peak) / NOISE_SIGMAS
            raise ConfigError(f"noise_std must be below {limit:.3g} for frame_max={hi}, or "
                              f"trial values overflow float32, got {self.noise_std}")
        if "\r" in self.class_prefix or "\n" in self.class_prefix:     # one name per line
            raise ConfigError(f"class_prefix must not hold a line break, "
                              f"got {excerpt(self.class_prefix)}")

    def class_names(self) -> tuple[str, ...]:
        return tuple(f"{self.class_prefix}{k + 1}" for k in range(self.num_classes))


def _draw_templates(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """(num_classes, channels, 4) template parameters, each uniform on its column's range."""
    return rng.uniform(_TEMPLATE_LOW, _TEMPLATE_HIGH, size=(spec.num_classes, spec.channels, 4))


def template_waveform(params_kc: np.ndarray, frames: int) -> np.ndarray:
    """Noise-free template for one class: params (channels, 4) -> (channels, frames) float64."""
    t = np.arange(frames, dtype=np.float64) / SAMPLE_RATE_HZ
    amp, freq, phase, drift = (params_kc[:, i][:, None] for i in range(4))
    return amp * np.sin(2.0 * math.pi * freq * t[None, :] + phase) + drift * t[None, :]


def synth_generate(spec: SynthSpec) -> LabeledDataset:
    """Generate trials_per_class traces per class from one template per class,
    computed at ``frame_max`` frames: a trial is its first ``frames``
    columns plus fresh noise.  Draw order (fixed for reproducibility): all
    template parameters, then per class, per trial: frame count, then noise.
    """
    rng = np.random.default_rng(spec.seed)
    params = _draw_templates(rng, spec)
    channel_names = tuple(f"c{c + 1:02d}" for c in range(spec.channels))
    traces: list[Trace] = []
    lo, hi = spec.frame_min, spec.frame_max
    templates = [template_waveform(p, hi) for p in params]
    for k in range(spec.num_classes):
        for _ in range(spec.trials_per_class):
            frames = int(rng.integers(lo, hi + 1))
            clean = templates[k][:, :frames]
            noise = rng.normal(0.0, spec.noise_std, size=clean.shape) if spec.noise_std > 0 \
                else np.zeros(clean.shape)
            np.add(noise, clean, out=noise)
            traces.append(Trace(values=noise.astype(np.float32), channel_names=channel_names))
    log.info("generated %d synthetic traces (%d classes x %d trials, %d channels)",
             len(traces), spec.num_classes, spec.trials_per_class, spec.channels)
    labels = np.repeat(np.arange(spec.num_classes), spec.trials_per_class)
    return LabeledDataset(traces=traces, labels=labels, vocab=spec.class_names())


SYNTH_KEYS = tuple(f.name for f in fields(SynthSpec))    # the generation config keys


def parse_synth_spec(pairs: dict[str, str], origin: str = "<config>",
                     origins: dict[str, str] | None = None) -> SynthSpec:
    """Build a SynthSpec from key=value pairs; errors name ``origins[key]`` or ``origin``."""
    reader = KeyReader(pairs, origin, origins)
    spec = reader.take_fields(SynthSpec(), "", SYNTH_KEYS)
    reader.reject_unknown()
    return spec
