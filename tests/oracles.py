"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written as plain loops over Python floats so
it shares no code (and no vectorization strategy) with the library.  Where a
test demands bit-exact agreement the inputs are drawn from a dyadic grid (see
``dyadic``) so every product and partial sum is exactly representable and the
result is independent of accumulation order.

The exceptions are ``synth_generate_per_trial``, ``load_stats_per_row``,
``conv1d_input_grad_per_tap`` and ``batchnorm_rows_*``: the earlier, simpler
form of a library function, built from NumPy or the library's own pieces,
kept as the behaviour its faster form must reproduce, exactly or (where the
faster form may reorder sums) within a tolerance.
"""

from __future__ import annotations

import csv
import math
import statistics
import struct

import numpy as np

from intentcnn.dataset import (
    SAMPLE_RATE_HZ,
    LabeledDataset,
    StandardizationStats,
    Trace,
    _read_csv_rows,
    template_waveform,
)
from intentcnn.errors import FormatError, InputError
from intentcnn.numerics import BN_EPSILON


def dyadic(rng: np.random.Generator, shape, step: float = 0.25, span: int = 8) -> np.ndarray:
    """Random float32 values k*step with k in [-span, span]: exact under fp arithmetic."""
    return (rng.integers(-span, span + 1, size=shape) * step).astype(np.float32)


def conv1d_loops(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Triple-loop valid sliding dot product (cross-correlation), matching dtype of x."""
    channels, frames = x.shape
    out_channels, in_channels, kernel_width = weights.shape
    assert channels == in_channels
    out_frames = frames - kernel_width + 1
    out = np.empty((out_channels, out_frames), dtype=x.dtype)
    for o in range(out_channels):
        for t in range(out_frames):
            acc = float(bias[o])
            for c in range(channels):
                for k in range(kernel_width):
                    acc += float(x[c, t + k]) * float(weights[o, c, k])
            out[o, t] = acc
    return out


def conv1d_backward_loops(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray):
    """Gradients (dx, dweights, dbias) of sum(conv1d_loops(x, weights, bias) * upstream)."""
    channels, frames = x.shape
    out_channels, in_channels, kernel_width = weights.shape
    assert channels == in_channels
    out_frames = frames - kernel_width + 1
    dx = np.zeros(x.shape)
    dw = np.zeros(weights.shape)
    db = np.zeros(out_channels)
    for o in range(out_channels):
        for t in range(out_frames):
            g = float(upstream[o, t])
            db[o] += g
            for c in range(channels):
                for k in range(kernel_width):
                    dx[c, t + k] += g * float(weights[o, c, k])
                    dw[o, c, k] += g * float(x[c, t + k])
    return dx.astype(x.dtype), dw.astype(x.dtype), db.astype(x.dtype)


def flipped_conv1d_loops(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Textbook single-channel discrete convolution C(i) = sum_d x(i-d) * w(d), valid part."""
    n, m = len(x), len(kernel)
    out = []
    for i in range(m - 1, n):
        acc = 0.0
        for d in range(m):
            acc += float(x[i - d]) * float(kernel[d])
        out.append(acc)
    return np.asarray(out, dtype=np.asarray(x).dtype)


def maxpool1d_loops(x: np.ndarray, pool: int, stride: int) -> np.ndarray:
    channels, frames = x.shape
    out_frames = (frames - pool) // stride + 1
    out = np.empty((channels, out_frames), dtype=x.dtype)
    for c in range(channels):
        for t in range(out_frames):
            out[c, t] = max(x[c, t * stride: t * stride + pool])
    return out


def maxpool1d_backward_loops(x: np.ndarray, pool: int, stride: int,
                             upstream: np.ndarray) -> np.ndarray:
    """Each window's upstream value goes to its first maximal frame; overlaps add up."""
    channels, frames = x.shape
    out_frames = (frames - pool) // stride + 1
    dx = np.zeros(x.shape, dtype=x.dtype)
    for c in range(channels):
        for t in range(out_frames):
            best = t * stride
            for f in range(t * stride + 1, t * stride + pool):
                if x[c, f] > x[c, best]:
                    best = f
            dx[c, best] += upstream[c, t]
    return dx


def conv1d_input_grad_per_tap(x_shape, weights: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """dx of conv1d_backward as one (C, O) @ (O, T) product per tap k, added
    into tap k's frames in ascending k: the form before the stacked GEMM.
    x_shape and upstream carry a batch axis."""
    kernel_width = weights.shape[2]
    frames = upstream.shape[2]
    dx = np.zeros(x_shape, dtype=np.result_type(weights, upstream))
    for k in range(kernel_width):
        dx[:, :, k:k + frames] += np.ascontiguousarray(weights[:, :, k]).T @ upstream
    return dx


def _rows(x: np.ndarray, channels: int) -> np.ndarray:
    """(B, C * F) -> (B * F, C): every frame of every sample is one row."""
    return x.reshape(len(x), channels, -1).transpose(0, 2, 1).reshape(-1, channels)


def _from_rows(rows: np.ndarray, batch: int, channels: int) -> np.ndarray:
    return rows.reshape(batch, -1, channels).transpose(0, 2, 1).reshape(batch, -1)


def batchnorm_rows_infer(layer, x: np.ndarray) -> np.ndarray:
    """Inference BatchNormLayer.forward on a flattened (B, C * F) map as it was
    written before the channel view: per channel, the map transposed to one
    row per frame; per entry (C * F statistics), the map as it is."""
    channels = len(layer.gamma)
    rows = _rows(x, channels)
    inv_std = 1.0 / np.sqrt(layer.running_var.astype(np.float64) + BN_EPSILON)
    out = layer.gamma * ((rows - layer.running_mean) * inv_std) + layer.beta
    return _from_rows(out.astype(x.dtype), len(x), channels)


def batchnorm_rows_train(layer, x: np.ndarray, upstream: np.ndarray):
    """(out, dx, dgamma, dbeta, batch_mean, batch_var) of train-mode
    batchnorm on a flattened (B, C * F) map, in the row form of
    ``batchnorm_rows_infer`` with the earlier mixed-precision formulas."""
    channels = len(layer.gamma)
    rows, up = _rows(x, channels), _rows(upstream, channels)
    n = len(rows)
    mean = rows.mean(axis=0, dtype=np.float64)
    var = rows.var(axis=0, dtype=np.float64)
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x_hat = ((rows - mean) * inv_std).astype(x.dtype)
    out = (layer.gamma * x_hat + layer.beta).astype(x.dtype)
    dxhat = up * layer.gamma
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0, dtype=np.float64)
                          - x_hat * (dxhat * x_hat).sum(axis=0, dtype=np.float64))
    dgamma = (up * x_hat).sum(axis=0, dtype=np.float64)
    dbeta = up.sum(axis=0, dtype=np.float64)
    return (_from_rows(out, len(x), channels), _from_rows(dx.astype(x.dtype), len(x), channels),
            dgamma, dbeta, mean, var)


def dense_loops(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    out_features, in_features = weights.shape
    out = np.empty(out_features, dtype=x.dtype)
    for o in range(out_features):
        acc = float(bias[o])
        for i in range(in_features):
            acc += float(weights[o, i]) * float(x[i])
        out[o] = acc
    return out


def forward_full_width(network, x: np.ndarray) -> np.ndarray:
    """Inference logits with every layer's ``forward`` run over the whole
    input, tail padding included: the reference for ``Network.forward_infer``,
    which runs the conv stack over each sample's live prefix only."""
    a = np.asarray(x, dtype=network.dtype)
    for layer in network.conv_stack:
        a, _ = layer.forward(a, False)
    a = a.reshape(len(a), -1)
    for layer in network.fc_stack:
        a, _ = layer.forward(a, False)
    return a


def train_full_width(network, x: np.ndarray, dlogits_of):
    """Logits, pooled map and parameter gradients with every layer's
    training ``forward`` and ``backward`` run over the whole input, tail padding
    included: the reference for ``Network.forward_train`` and
    ``Network.backward``, which pack each sample's live prefix into one
    sequence.  ``dlogits_of(logits)`` gives the upstream gradient."""
    a = np.asarray(x, dtype=network.dtype)
    conv_caches, fc_caches = [], []
    for layer in network.conv_stack:
        a, cache = layer.forward(a, True)
        conv_caches.append(cache)
    pooled = a
    a = a.reshape(len(a), -1)
    for layer in network.fc_stack:
        a, cache = layer.forward(a, True)
        fc_caches.append(cache)
    logits = a
    grads = {}
    upstream = dlogits_of(logits)
    for layer, cache in zip(network.fc_stack[::-1], fc_caches[::-1]):
        upstream, layer_grads = layer.backward(cache, upstream)
        grads.update(layer_grads)
    upstream = upstream.reshape(pooled.shape)
    for layer, cache in zip(network.conv_stack[::-1], conv_caches[::-1]):
        upstream, layer_grads = layer.backward(cache, upstream)
        grads.update(layer_grads)
    return logits, pooled, grads


def pairwise_metrics(truths, preds, num_classes):
    """Per-class precision/recall/F1 and macro F1 computed directly from label pairs."""
    per_class = []
    f1_sum = 0.0
    for k in range(num_classes):
        tp = sum(1 for t, p in zip(truths, preds) if t == k and p == k)
        fp = sum(1 for t, p in zip(truths, preds) if t != k and p == k)
        fn = sum(1 for t, p in zip(truths, preds) if t == k and p != k)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1, tp + fn))
        f1_sum += f1
    return per_class, f1_sum / num_classes


def simulate_shapes(channels, frames, conv_filters, kernel_width, pool, pool_stride,
                    fc_sizes, num_classes):
    """Step-by-step shape walk of the standard conv/pool/fc stack."""
    shapes = []
    c, f = channels, frames
    for n, filters in enumerate(conv_filters, start=1):
        f = f - kernel_width + 1
        c = filters
        shapes.append((f"conv{n}", (c, f)))
        if f < 1:
            return shapes
        f = (f - pool) // pool_stride + 1
        shapes.append((f"pool{n}", (c, f)))
        if f < 1:
            return shapes
    d = c * f
    shapes.append(("flatten", (d,)))
    for n, width in enumerate(fc_sizes, start=1):
        d = width
        shapes.append((f"fc{n}", (d,)))
    shapes.append(("output", (num_classes,)))
    return shapes


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _fits_float32(x: float) -> bool:
    """True when x rounds to a finite float32, decided by ``struct``, not NumPy."""
    try:
        struct.pack("<f", x)
    except OverflowError:
        return False
    return math.isfinite(x)


def parse_trace_csv_cells(path: str):
    """Per-cell ``float()`` reading of a trace CSV with the library's error
    precedence: header faults, then ragged rows and non-numeric cells in file
    order, then non-finite cells in file order (a time must be finite, a
    channel value must fit float32), then time order and sample rate.

    Returns ``(values, channel_names)`` with values (channels, frames)
    float32 rounded by ``struct``; raises FormatError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if len(header) < 2:
        raise FormatError(f"{path}: header needs a time column plus at least one channel")
    if all(_is_float(cell) for cell in header):
        raise FormatError(f"{path}: missing header row (first line is numeric)")
    if "" in header:
        raise FormatError(f"{path}: blank column name in header")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate column names in header")
    if len(rows) < 2:
        raise FormatError(f"{path}: no data rows after the header")
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            if not _is_float(cell):
                raise FormatError(f"{path}: row {r}, column {name!r}: non-numeric value {cell!r}")
    for r, row in enumerate(rows[1:], start=2):
        for c, (name, cell) in enumerate(zip(header, row)):
            if not (math.isfinite(float(cell)) if c == 0 else _fits_float32(float(cell))):
                raise FormatError(f"{path}: row {r}, column {name!r}: non-finite value {cell!r}")
    times = [float(row[0]) for row in rows[1:]]
    deltas = [b - a for a, b in zip(times, times[1:])]
    for i, delta in enumerate(deltas):
        if delta <= 0:
            raise FormatError(f"{path}: time not strictly increasing at row {i + 3}")
    if deltas:
        inferred = 1.0 / statistics.median(deltas)
        if abs(inferred - SAMPLE_RATE_HZ) > 0.01 * SAMPLE_RATE_HZ:
            raise FormatError(f"{path}: inferred sample rate {inferred:.3f} Hz is outside 1% "
                              f"of expected {SAMPLE_RATE_HZ:g} Hz")
    columns = [[float(row[c]) for row in rows[1:]] for c in range(1, len(header))]
    values = np.array([np.frombuffer(struct.pack(f"<{len(col)}f", *col), dtype="<f4")
                       for col in columns], dtype=np.float32)
    return values, tuple(header[1:])


class AdamWholeArray:
    """Adam as one allocating NumPy expression per parameter: the formula the
    chunked ``model._Adam`` must match bit for bit."""

    def __init__(self, spec):
        self.spec = spec
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def apply(self, params, grads) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8            # Kingma & Ba's defaults
        self.step += 1
        bias1 = 1.0 - beta1 ** self.step
        bias2 = 1.0 - beta2 ** self.step
        for key, value in params:
            grad = grads[key]
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(value)
                self.m[key] = m
                self.v[key] = np.zeros_like(value)
            v = self.v[key]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + eps)
            value -= self.spec.learning_rate * update.astype(value.dtype, copy=False)


def write_trace_csv(trace, path: str) -> None:
    """The trace writer as one ``csv.writer.writerow`` per frame over
    ``f"{v:.9g}"`` of each float32 scalar: the bytes ``dataset.write_trace_csv``
    must reproduce.  The time stamp is ``f / SAMPLE_RATE_HZ`` to 4 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("t",) + trace.channel_names)
        for f in range(trace.frames):
            row = [f"{f / SAMPLE_RATE_HZ:.4f}"]
            row.extend(f"{v:.9g}" for v in trace.values[:, f])
            writer.writerow(row)


def draw_templates(rng: np.random.Generator, spec) -> np.ndarray:
    """Template parameters drawn one scalar at a time, class by class, channel
    by channel: amplitude, frequency (Hz), phase (rad), drift (units/s)."""
    params = np.empty((spec.num_classes, spec.channels, 4), dtype=np.float64)
    for k in range(spec.num_classes):
        for c in range(spec.channels):
            params[k, c, 0] = rng.uniform(0.5, 2.0)
            params[k, c, 1] = rng.uniform(0.2, 1.5)
            params[k, c, 2] = rng.uniform(0.0, 2.0 * math.pi)
            params[k, c, 3] = rng.uniform(-0.05, 0.05)
    return params


def synth_generate_per_trial(spec):
    """``dataset.synth_generate`` with the template recomputed for every trial at
    the trial's own length: the reference that computing each class template
    once and slicing it must reproduce bit for bit."""
    rng = np.random.default_rng(spec.seed)
    params = draw_templates(rng, spec)
    channel_names = tuple(f"c{c + 1:02d}" for c in range(spec.channels))
    traces, labels = [], []
    lo, hi = spec.frame_min, spec.frame_max
    for k in range(spec.num_classes):
        for _ in range(spec.trials_per_class):
            frames = int(rng.integers(lo, hi + 1))
            clean = template_waveform(params[k], frames)
            noise = rng.normal(0.0, spec.noise_std, size=clean.shape) if spec.noise_std > 0 \
                else np.zeros_like(clean)
            traces.append(Trace(values=(clean + noise).astype(np.float32),
                                channel_names=channel_names))
            labels.append(k)
    return LabeledDataset(traces=traces, labels=np.array(labels), vocab=spec.class_names())


def load_stats_per_row(path: str):
    """A stats file read and checked one row at a time, stopping at the first
    bad row: the values, names and error messages ``dataset.load_stats`` must
    reproduce."""
    rows = _read_csv_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["channel", "mean", "std"]:
        raise FormatError(f"{path}: expected header 'channel,mean,std'")
    names, means, stds = [], [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise FormatError(f"{path}: row {r} has {len(row)} cells, expected 3")
        names.append(row[0])
        try:
            means.append(float(row[1]))
            stds.append(float(row[2]))
            StandardizationStats(mean=means[-1:], std=stds[-1:])
        except ValueError:
            raise FormatError(f"{path}: row {r}: non-numeric statistic") from None
        except InputError as exc:
            raise FormatError(f"{path}: row {r}: {exc}") from None
    if not names:
        raise FormatError(f"{path}: no channel rows")
    return StandardizationStats(mean=np.array(means), std=np.array(stds)), tuple(names)
