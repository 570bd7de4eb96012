r"""Sliding-window online classification over a live frame stream.

A stream of per-frame channel readings is classified at every hop boundary:
the last ``window_frames`` frames (zero-front-filled while the stream is still
warming up) are standardized with the training-time statistics, zero-padded at
the tail up to the model's input length, and pushed through an inference-mode
forward pass, whose conv stack covers the window's live prefix (fixed by the
window alone) and whose kernels compute every row the same way whatever the
batch, so the emitted probabilities are bit-identical to the batch
predictor's row for the same standardized, padded window.

Wire formats:

* input — one line per frame, ``channels`` comma-separated decimal floats.
  Standard input and ``tcp:HOST:PORT`` are read alike: bytes are UTF-8, with
  undecodable bytes read as U+FFFD, and lines end at ``\n``, ``\r\n`` or
  ``\r``.  A line longer than ``LINE_CHARS`` characters is not kept: it
  becomes one error record that holds its first characters;
* output — one line per hop,
  ``frame_index,label,class_name,p_0,...,p_{K-1},warm_up``, the name one CSV cell.

Malformed input lines (too long, the wrong value count, a value that breaks the number
rule of trace cells: anything ``float()`` accepts whose float32 rounding is
finite, or bytes that are not UTF-8) produce a structured error record and
are skipped (the stream keeps running).  A hop whose standardized window does
not fit float32, or whose logits are not finite (a frame far outside the
training statistics), is an error record for the hop's last line; the frames
stay in the window.

The stream is ingested per read of its source, not per line: the lines a read
completed go through the one number rule of trace rows and stream lines and
one write into the ring per hop boundary they reach
(:func:`stream_classify_batches`); a segment holding a bad line costs one more
``float()`` pass of it.  Only lines that have arrived are converted, so no hop
waits for lines it does not need.

The stream holds one fixed ``(channels, 2 * window_frames)`` float32 ring:
frames are written from column ``window_frames`` on, the zero columns before
it are the warm-up front-fill, and when a block would pass the ring's end the
last ``window_frames`` columns move to the front, so every window is a
contiguous view and a hop copies no frames.
"""

from __future__ import annotations

import codecs
import io
import socket
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import check_bounds, csv_cell
from .dataset import StandardizationStats, _read_rows, prepare_input
from .errors import ConfigError, InputError, NumericError
from .model import Network

DEFAULT_WINDOW_FRAMES = 1000
DEFAULT_HOP_FRAMES = 100
READ_BYTES = 65536              # one read of a stream source
LINE_CHARS = 2 * READ_BYTES     # longest stream line kept; a longer one is an error record
EXCERPT_CHARS = 40              # what an error record keeps of its line


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window geometry plus the fitted model and statistics it feeds."""

    network: Network
    stats: StandardizationStats
    window_frames: int = field(default=DEFAULT_WINDOW_FRAMES, metadata={"min": 1})
    hop_frames: int = DEFAULT_HOP_FRAMES
    class_names: tuple[str, ...] | None = None
    stats_path: str | None = None       # the stats file its errors name

    def __post_init__(self):
        check_bounds(self)
        if not (1 <= self.hop_frames <= self.window_frames):
            raise ConfigError(f"hop_frames must lie in [1, window_frames], got "
                              f"{self.hop_frames} with window {self.window_frames}")
        check_model_inputs(self.network, self.stats, self.class_names, self.stats_path)
        if self.window_frames > self.network.config.input_frames:
            raise ConfigError(f"window of {self.window_frames} frames cannot fit the "
                              f"model input of {self.network.config.input_frames}")

    @property
    def channels(self) -> int:
        return self.network.config.channels


def check_model_inputs(network: Network, stats: StandardizationStats, class_names,
                       stats_path: str | None = None) -> None:
    """Raise unless the stats fit the network's channels and the class names (if any) its classes."""
    if stats.channels != network.config.channels:
        raise InputError(f"{stats_path + ': ' if stats_path else ''}statistics cover "
                         f"{stats.channels} channels but the model expects "
                         f"{network.config.channels}")
    if class_names is not None and len(class_names) != network.num_classes:
        raise ConfigError(f"{len(class_names)} class names for {network.num_classes} classes")


def format_probs(label: int, probs, class_names: tuple[str, ...] | None) -> str:
    """``label,class_name,p_0,...,p_{K-1}``, the name ``class<label>`` without ``class_names``."""
    name = class_names[label] if class_names is not None else f"class{label}"
    return f"{label},{csv_cell(name)}," + ",".join(f"{float(p):.9g}" for p in probs)


@dataclass(frozen=True)
class StreamPrediction:
    """One per-hop classification; frame_index is the last frame in the window."""

    frame_index: int
    label: int
    probs: np.ndarray
    warm_up: bool

    def __post_init__(self):
        total = float(np.sum(self.probs, dtype=np.float64))
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class StreamErrorRecord:
    """A skipped input line: position, reason, and the first EXCERPT_CHARS
    characters of the offending text."""

    line_number: int
    message: str
    raw: str


@dataclass(frozen=True)
class Window:
    """A raw (unstandardized) window; zeros front-fill during warm-up.  In a
    stream, ``values`` is a view of the frame ring, valid until the next frame."""

    frame_index: int
    values: np.ndarray          # (channels, window_frames) float32
    real_frames: int            # trailing columns holding actual stream data

    @property
    def warm_up(self) -> bool:
        return self.real_frames < self.values.shape[1]


def window_extract(frame_buffer, cfg: WindowConfig) -> list[Window]:
    """All hop-aligned windows over a recorded buffer of shape (channels, frames).

    A window ends at every hop boundary (frames hop-1, 2*hop-1, ...); windows
    that start before frame 0 are front-filled with zeros.  The windows are
    views of one zero-front-filled copy of the buffer.
    """
    buffer = np.asarray(frame_buffer, dtype=np.float32)
    if buffer.ndim != 2:
        raise InputError(f"frame buffer must be (channels, frames), got shape "
                         f"{buffer.shape}")
    if buffer.shape[0] != cfg.channels:
        raise InputError(f"frame buffer has {buffer.shape[0]} channels but the "
                         f"model expects {cfg.channels}")
    w = cfg.window_frames
    columns = np.zeros((cfg.channels, w + buffer.shape[1]), dtype=np.float32)
    columns[:, w:] = buffer
    return [_window(columns, w + end + 1, end, cfg)
            for end in range(cfg.hop_frames - 1, buffer.shape[1], cfg.hop_frames)]


def _window(columns: np.ndarray, stop: int, end: int, cfg: WindowConfig) -> Window:
    """The window ending at stream frame ``end``: a view of the ``window_frames``
    columns before ``stop``, where ``columns`` is zero before the first frame."""
    return Window(frame_index=end, values=columns[:, stop - cfg.window_frames:stop],
                  real_frames=min(end + 1, cfg.window_frames))


def classify_window(window: Window, cfg: WindowConfig) -> StreamPrediction:
    """Standardize, pad, and classify one window.

    Only the real (received) frames are standardized; warm-up front-fill and
    the tail padding stay exactly zero, matching training-time padding.  A
    standardized value outside float32, or non-finite logits, raise
    NumericError; those two checks decide, and NumPy prints no warning.
    """
    lo = cfg.window_frames - window.real_frames
    x = prepare_input(window.values[:, lo:], cfg.stats,
                      cfg.network.config.input_frames, offset=lo)
    if not np.isfinite(x).all():
        raise NumericError("standardized window overflows float32")
    probs = cfg.network.predict_proba(x[None, :, :])[0]
    return StreamPrediction(frame_index=window.frame_index,
                            label=int(np.argmax(probs)),
                            probs=probs,
                            warm_up=window.warm_up)


class _StreamState:
    """Frame ring that fires a classification at each hop boundary."""

    def __init__(self, cfg: WindowConfig):
        self.cfg = cfg
        self.ring = np.zeros((cfg.channels, 2 * cfg.window_frames), dtype=np.float32)
        self.stop = cfg.window_frames      # next column to write
        self.count = 0
        self.due = cfg.hop_frames          # frames still to come before the next hop boundary

    def push(self, frames: np.ndarray) -> StreamPrediction | None:
        """Write a ``(k, channels)`` block of ``k <= due`` frames into the ring;
        the hop's prediction if the block completes one, else None."""
        w, k = self.cfg.window_frames, len(frames)
        if self.stop + k > 2 * w:
            self.ring[:, :w] = self.ring[:, self.stop - w:self.stop]
            self.stop = w
        self.ring[:, self.stop:self.stop + k] = frames.T
        self.stop += k
        self.count += k
        self.due -= k
        if self.due:
            return None
        self.due = self.cfg.hop_frames
        return classify_window(_window(self.ring, self.stop, self.count - 1, self.cfg),
                               self.cfg)


def _ingest(state: _StreamState, numbers: list, lines: list):
    """Push one segment into the ring: ``lines`` are the stripped lines
    ``numbers``, at most ``state.due`` of them, so a hop fires only if every
    line is good.  Yields error records and a completed hop's prediction in
    line order.  The segment is read by the number rule of trace rows
    (:func:`~intentcnn.dataset._read_rows`); each bad line becomes its record
    (the wrong value count first, then a non-numeric, then a non-finite value)
    and the good lines are written as one block.
    """
    if not lines:
        return
    channels = state.cfg.channels
    values, fits, faults = _read_rows(lines, channels)
    if not fits.all():
        good = fits.all(axis=1)
        for i in np.flatnonzero(~good).tolist():
            cells, column = faults.get(i, (None, None))
            message = ("non-finite value in frame" if cells is None else
                       "non-numeric value in frame" if column is not None else
                       f"expected {channels} comma-separated values, got {len(cells)}")
            yield _record(numbers[i], message, lines[i])
        values = values[good]
    try:
        event = state.push(values)
    except NumericError as exc:
        event = _record(numbers[-1], str(exc), lines[-1])
    if event is not None:
        yield event


def _record(line_number: int, message: str, line: str) -> StreamErrorRecord:
    return StreamErrorRecord(line_number=line_number, message=message,
                             raw=line[:EXCERPT_CHARS])


def stream_classify_batches(batches, cfg: WindowConfig):
    """Classify a stream of line batches; yields StreamPrediction and
    StreamErrorRecord in line order, numbering lines from 1 across batches.

    Blank lines are ignored, and a line longer than ``LINE_CHARS`` characters
    is an error record, after the lines before it are ingested.  The other
    lines gather into segments of at most the frames due before the next hop
    boundary, ending there or at the end of their batch, each ingested at
    once (:func:`_ingest`).  A malformed line yields an error record and is
    skipped: the frame counter does not advance, so window positions refer to
    frames actually accepted.  A hop that overflows (NumericError) yields an
    error record for its last line instead of a prediction.
    """
    state = _StreamState(cfg)
    line_number = 0
    for batch in batches:
        numbers, lines = [], []
        for raw in batch:
            line_number += 1
            if len(raw) > LINE_CHARS:
                yield from _ingest(state, numbers, lines)
                numbers, lines = [], []
                yield _record(line_number, f"line longer than {LINE_CHARS} characters", raw)
                continue
            line = raw.strip()
            if not line:
                continue
            numbers.append(line_number)
            lines.append(line)
            if len(lines) == state.due:
                yield from _ingest(state, numbers, lines)
                numbers, lines = [], []
        yield from _ingest(state, numbers, lines)


def stream_classify(lines, cfg: WindowConfig):
    """Classify a text line stream: :func:`stream_classify_batches` with each
    line a batch of its own, so each event comes as soon as its line is read."""
    yield from stream_classify_batches(([line] for line in lines), cfg)


# ---------------------------------------------------------------------------
# wire formatting and sources
# ---------------------------------------------------------------------------

def format_prediction(prediction: StreamPrediction, cfg: WindowConfig) -> str:
    """``frame_index,label,class_name,p_0,...,p_{K-1},warm_up`` (no newline)."""
    return (f"{prediction.frame_index},"
            f"{format_probs(prediction.label, prediction.probs, cfg.class_names)},"
            f"{1 if prediction.warm_up else 0}")


def format_error_record(record: StreamErrorRecord) -> str:
    """Error lines start with the literal field ``error`` so consumers can
    split them from predictions on the first comma-separated field."""
    return f"error,line={record.line_number},message={record.message}"


def open_line_source(source: str):
    """Line batches from '-' (standard input) or 'tcp:HOST:PORT'.

    Connects (and raises) at call time.  The returned iterator yields, per
    ``read1(READ_BYTES)`` on the binary source, the list of lines that read
    completed (see :func:`_line_batches`); closing it closes a TCP connection.
    """
    if source == "-":
        return _line_batches(sys.stdin.buffer, close=False)
    if source.startswith("tcp:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ConfigError(f"tcp source must look like tcp:HOST:PORT, got {source!r}")
        host, port_text = parts[1], parts[2]
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(f"tcp port must be an integer, got {port_text!r}") from None
        try:
            conn = socket.create_connection((host, port))
        except OSError as exc:
            raise InputError(f"cannot connect to {host}:{port}: {exc}") from exc
        stream = conn.makefile("rb")
        conn.close()                   # the file keeps the connection until it is closed
        return _line_batches(stream, close=True)
    raise ConfigError(f"stream source must be '-' or 'tcp:HOST:PORT', got {source!r}")


def _line_batches(stream, close: bool):
    r"""The lines of a binary stream, one list per ``read1(READ_BYTES)`` that
    completes any.  Bytes are decoded as UTF-8 with undecodable bytes turned
    into U+FFFD (so such a line is an error record); a character split across
    two reads decodes whole.  Lines end at ``\n``, ``\r\n`` or ``\r``, also
    when a ``\r\n`` pair is split across two reads; the ends are dropped.  A
    partial last line waits for the next read, and a final line with no end is
    still a line.  A line is never held whole past ``LINE_CHARS`` characters:
    it comes cut short, but still longer than ``LINE_CHARS``."""
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")(errors="replace"), translate=True)
    pending = ""
    try:
        while True:
            data = stream.read1(READ_BYTES)
            lines = decoder.decode(data, final=not data).split("\n")
            if len(lines) > 1:          # a line stops one character past LINE_CHARS
                lines[0], pending = pending + lines[0][:LINE_CHARS + 1 - len(pending)], ""
            pending += lines.pop()[:LINE_CHARS + 1 - len(pending)]
            if lines:
                yield lines
            if not data:
                if pending:
                    yield [pending]
                return
    finally:
        if close:
            stream.close()
