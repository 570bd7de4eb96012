"""The trace classifier network: configuration, training, and binary model files.

Architecture (fixed topology, configurable widths): N repetitions of
[conv -> relu -> maxpool] over (channels, frames) input (the relu runs after
the pooling, where it gives the same values on fewer frames), one batch
normalization, flatten, a stack of relu dense layers, and a final dense
classifier read through softmax.  Batch normalization sits either directly
after the last pooling stage (normalizing each conv channel, the default) or
after flattening (normalizing each flattened entry).  Training and inference
share one forward runner, which never convolves a sample's zero tail
padding: its pooled columns all equal one column, computed once and copied.
Training packs the batch's live prefixes into one sequence, folds the tail's
gradient into that column and runs each dense layer as one GEMM; inference
runs each prefix and each dense row alone, so no sample depends on its batch.

All learnable parameters are float32; an alternative dtype can be requested
at build time for high-precision gradient verification.  Model files use the
``INTC`` container described next to :func:`serialize`.
"""

from __future__ import annotations

import copy
import itertools
import math
import mmap
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .config import KeyReader, check_bounds
from .errors import ConfigError, FormatError, InputError, NumericError, TrainingError
from .metrics import confusion_matrix, macro_f1
from .numerics import (
    GradCheckResult,
    batchnorm_backward,
    batchnorm_forward_infer,
    batchnorm_forward_train,
    batchnorm_update_running,
    categorical_cross_entropy,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    gradient_check,
    maxpool1d_backward,
    maxpool1d_forward,
    one_hot,
    relu_backward,
    relu_forward,
    softmax,
    softmax_cce_logit_grad,
)

BATCHNORM_POSITIONS = ("after_last_conv", "before_first_fc")

MAGIC = b"INTC"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# configuration and shape planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkConfig:
    """Widths and placement choices for the standard conv/pool/fc stack."""

    channels: int = field(default=24, metadata={"min": 1})
    input_frames: int = field(default=2000, metadata={"min": 1})
    conv_filters: tuple[int, ...] = field(default=(16, 32, 64, 64),
                                          metadata={"min": 1, "nonempty": True})
    kernel_width: int = field(default=5, metadata={"min": 1})
    pool: int = field(default=2, metadata={"min": 1})
    pool_stride: int = field(default=2, metadata={"min": 1})
    fc_sizes: tuple[int, ...] = field(default=(128, 64), metadata={"min": 1})
    num_classes: int = field(default=6, metadata={"min": 2})
    batchnorm_position: str = field(default="after_last_conv",
                                    metadata={"choices": BATCHNORM_POSITIONS})

    def __post_init__(self):
        object.__setattr__(self, "conv_filters", tuple(int(f) for f in self.conv_filters))
        object.__setattr__(self, "fc_sizes", tuple(int(s) for s in self.fc_sizes))
        check_bounds(self)


# the NetworkConfig fields that an experiment takes from its data, not its config
DATA_DERIVED_FIELDS = ("channels", "input_frames", "num_classes")


def plan_layers(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Walk the stack and return each layer's output shape; fail on underflow.

    Conv/pool entries report ``(channels, frames)``; flatten and dense entries
    report ``(width,)``.  A layer whose input is too short raises ConfigError
    naming that layer.
    """
    shapes: list[tuple[str, tuple[int, ...]]] = []
    channels, frames = config.channels, config.input_frames
    for n, filters in enumerate(config.conv_filters, start=1):
        if frames < config.kernel_width:
            raise ConfigError(f"conv{n} needs at least kernel_width={config.kernel_width} "
                              f"input frames but would receive {frames}")
        frames = frames - config.kernel_width + 1
        channels = filters
        shapes.append((f"conv{n}", (channels, frames)))
        if frames < config.pool:
            raise ConfigError(f"pool{n} needs at least pool={config.pool} input frames "
                              f"but would receive {frames}")
        frames = (frames - config.pool) // config.pool_stride + 1
        shapes.append((f"pool{n}", (channels, frames)))
    if config.batchnorm_position == "after_last_conv":
        shapes.append(("batchnorm", (channels, frames)))
    flat = channels * frames
    shapes.append(("flatten", (flat,)))
    if config.batchnorm_position == "before_first_fc":
        shapes.append(("batchnorm", (flat,)))
    for n, width in enumerate(config.fc_sizes, start=1):
        shapes.append((f"fc{n}", (width,)))
    shapes.append(("output", (config.num_classes,)))
    return shapes


def parse_network_config(reader: KeyReader) -> NetworkConfig:
    """Read ``model.*`` keys, one per NetworkConfig field but the
    DATA_DERIVED_FIELDS, from a KeyReader."""
    return reader.take_fields(NetworkConfig(), "model.", [f.name for f in fields(NetworkConfig)
                                                          if f.name not in DATA_DERIVED_FIELDS])


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class ConvLayer:
    """Valid cross-correlation.  Its output is the pre-activation: the relu
    that follows every conv runs in the PoolLayer after it."""

    def __init__(self, name: str, weights: np.ndarray, bias: np.ndarray):
        self.name = name
        self.weights = weights
        self.bias = bias

    def param_items(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.bias", self.bias)]

    def forward(self, x, train):
        return conv1d_forward(x, self.weights, self.bias), (x if train else None)

    def backward(self, cache, upstream, input_grad=True):
        """(dx, parameter gradients); dx is None when input_grad is false."""
        dx, dw, db = conv1d_backward(cache, self.weights, upstream, input_grad=input_grad)
        return dx, {f"{self.name}.weights": dw, f"{self.name}.bias": db}


class PoolLayer:
    """relu of the temporal max pooling of a conv pre-activation; no parameters.

    relu commutes with max pooling, so relu runs on the pooled map, about
    1/stride the size of the conv output.  A training forward keeps only the
    pooling's routes (one boolean mask per window tap: "this tap is its
    window's first maximum, and that maximum is > 0"), so the conv output is
    freed once the forward pass moves on, and the backward pass compares
    nothing.  Values and gradients are the same bits as pooling relu(pre)
    and masking by pre > 0 afterwards.
    """

    def __init__(self, name: str, pool: int, stride: int):
        self.name = name
        self.pool = pool
        self.stride = stride

    def param_items(self):
        return []

    def forward(self, pre, train):
        if not train:
            return relu_forward(maxpool1d_forward(pre, self.pool, self.stride)), None
        pooled, routes = maxpool1d_forward(pre, self.pool, self.stride, routes=True)
        routes.masks &= pooled > 0                  # relu: no gradient where the max is <= 0
        return relu_forward(pooled), routes

    def backward(self, routes, upstream):
        return maxpool1d_backward(routes, self.pool, self.stride, upstream), {}


class BatchNormLayer:
    """Batch normalization over conv channels or flattened entries, one
    gamma, beta and running statistic each.

    It runs on the flattened map in either position, read as a (B, C, F)
    view: per channel, the (B, C * F) map is (B, C, F); per entry, it is
    (B, C * F, 1).  The kernels reduce over the batch and frame axes, so
    neither position copies or transposes the map.  Training may reorder
    those reductions; inference is elementwise and keeps its bits.
    ``forward`` is side-effect free; the running statistics only move
    when the owner explicitly calls :meth:`update_running` with the cache.
    """

    def __init__(self, name: str, gamma: np.ndarray, beta: np.ndarray,
                 running_mean: np.ndarray, running_var: np.ndarray):
        self.name = name
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var

    def param_items(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def _view(self, x):
        return x.reshape(len(x), len(self.gamma), -1)

    def forward(self, x, train):
        if train:
            out, cache = batchnorm_forward_train(self._view(x), self.gamma, self.beta)
        else:
            out, cache = batchnorm_forward_infer(self._view(x), self.gamma, self.beta,
                                                 self.running_mean, self.running_var), None
        return out.reshape(x.shape), cache

    def backward(self, cache, upstream):
        dx, dgamma, dbeta = batchnorm_backward(cache, self._view(upstream))
        return dx.reshape(upstream.shape), {
            f"{self.name}.gamma": dgamma.astype(self.gamma.dtype),
            f"{self.name}.beta": dbeta.astype(self.beta.dtype)}

    def update_running(self, cache):
        new_mean, new_var = batchnorm_update_running(cache, self.running_mean.astype(np.float64),
                                                     self.running_var.astype(np.float64))
        self.running_mean = new_mean.astype(self.running_mean.dtype)
        self.running_var = new_var.astype(self.running_var.dtype)


class DenseLayer:
    """Affine map, optionally followed by relu (the classifier head omits it).

    Training runs the batch as one GEMM; inference keeps one product per
    row, so that no sample depends on its batch (see :func:`dense_forward`).
    """

    def __init__(self, name: str, weights: np.ndarray, bias: np.ndarray, relu: bool):
        self.name = name
        self.weights = weights
        self.bias = bias
        self.relu = relu

    def param_items(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.bias", self.bias)]

    def forward(self, x, train):
        pre = dense_forward(x, self.weights, self.bias, per_row=not train)
        return (relu_forward(pre) if self.relu else pre), ((x, pre) if train else None)

    def backward(self, cache, upstream):
        x, pre = cache
        dpre = relu_backward(pre, upstream) if self.relu else upstream
        dx, dw, db = dense_backward(x, self.weights, dpre)
        return dx, {f"{self.name}.weights": dw, f"{self.name}.bias": db}


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

class Network:
    """The conv stack (conv, pool), the flatten point, the fc stack (batchnorm, dense)."""

    def __init__(self, config: NetworkConfig, conv_stack, fc_stack, dtype=np.float32):
        self.config = config
        self.conv_stack = list(conv_stack)
        self.fc_stack = list(fc_stack)
        self.dtype = np.dtype(dtype)
        # (channels, frames) entering flatten; its column j reads the input
        # frames [j * step, j * step + field)
        self.conv_out_shape = [s for n, s in plan_layers(config) if n.startswith("pool")][-1]
        self.step, self.field = 1, 1
        for _ in config.conv_filters:
            self.field += (config.kernel_width + config.pool - 2) * self.step
            self.step *= config.pool_stride

    # -- structure ----------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    def layers(self):
        return self.conv_stack + self.fc_stack

    def param_items(self):
        items = []
        for layer in self.layers():
            items.extend(layer.param_items())
        return items

    def snapshot(self):
        """Deep copy of every mutable tensor (parameters and running statistics)."""
        return copy.deepcopy((self.conv_stack, self.fc_stack))

    def restore(self, state) -> None:
        self.conv_stack, self.fc_stack = copy.deepcopy(state)

    # -- forward / backward --------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3:
            raise InputError(f"network input must be (batch, channels, frames), "
                             f"got shape {x.shape}")
        expected = (self.config.channels, self.config.input_frames)
        if x.shape[1:] != expected:
            raise InputError(f"network expects (channels, frames) = {expected}, "
                             f"got {x.shape[1:]}")
        return x.astype(self.dtype, copy=False)

    def _prefix_widths(self, x) -> np.ndarray:
        """The input frames that each sample's pooled columns need.

        A sample is live up to one past its last column holding a non-zero
        (NaN and inf count).  Pooled columns from ``ceil(live / step)`` on read
        only zeros and so equal that one: the conv stack needs the first
        ``ceil(live / step) * step + field`` frames, at most the whole input.
        Over ``w`` such frames it computes columns ``0..(w - field) // step``.
        """
        live = (x != 0).any(axis=1)             # NaN and inf count
        ends = np.where(live.any(axis=1), live.shape[1] - live[:, ::-1].argmax(axis=1), 0)
        return np.minimum(-(-ends // self.step) * self.step + self.field, live.shape[1])

    def _forward(self, x, train):
        """Logits and one cache per layer call (each None unless ``train``).

        The conv stack runs over blocks of sample prefixes
        (:meth:`_prefix_widths`).  Training packs the batch into one
        ``(1, C, frames)`` block, each prefix zero-padded to a multiple of
        ``step``: every segment starts on a pooled column, so conv and pool
        compute its columns as for the sample alone.  Inference runs one
        ``(1, C, width)`` view of each sample's prefix, so that no column's
        bits depend on where it sits in a GEMM.  Sample i's pooled column j
        is its block's column ``first_i + min(j, last_i)``: the tail copies
        the last column its prefix computes, and no packed column whose
        windows cross into the next segment is read.  conv1's cache adds each
        sample's (first, last).
        """
        x = self._check_input(x)
        widths = self._prefix_widths(x)
        lasts = ((widths - self.field) // self.step).tolist()   # last column each prefix computes
        if train:
            segments = -(-widths // self.step) * self.step
            starts = np.cumsum(segments) - segments
            packed = np.zeros((1, x.shape[1], segments.sum()), self.dtype)
            for sample, start, width in zip(x, starts, widths):
                packed[0, :, start:start + width] = sample[:, :width]
            firsts = (starts // self.step).tolist()
            blocks = [(packed, list(enumerate(firsts)))]
        else:
            blocks = ((x[i:i + 1, :, :width], [(i, 0)]) for i, width in enumerate(widths.tolist()))
        pooled = np.empty((len(x), *self.conv_out_shape), self.dtype)
        caches = []
        for a, members in blocks:                       # members: (sample, first column)
            for layer in self.conv_stack:
                a, cache = layer.forward(a, train)
                caches.append(cache)
            for i, first in members:
                last = first + lasts[i]
                pooled[i, :, :lasts[i]] = a[0, :, first:last]
                pooled[i, :, lasts[i]:] = a[0, :, last:last + 1]
        if train:
            caches[0] = (caches[0], list(zip(firsts, lasts)))
        a = pooled.reshape(len(x), -1)
        for layer in self.fc_stack:
            a, cache = layer.forward(a, train)
            caches.append(cache)
        return a, caches

    def forward_train(self, x):
        """Logits plus one cache per layer for :meth:`backward`.  No side effects."""
        return self._forward(x, True)

    def forward_infer(self, x):
        """Logits; no sample's bits depend on its batchmates."""
        return self._forward(x, False)[0]

    def backward(self, caches, dlogits, fc_grads_ready=None):
        """Gradients for every parameter, keyed like the param_items names.

        ``fc_grads_ready``, if given, gets a dict of the fc-stack gradients once they are final.
        A copied tail column is the same function of the parameters as the
        column it copies, so that packed column takes the upstream summed
        over itself and the tail; the columns no sample reads take 0.
        """
        grads: dict[str, np.ndarray] = {}
        upstream = dlogits
        split = len(self.conv_stack)
        for layer, cache in zip(reversed(self.fc_stack), reversed(caches[split:])):
            upstream, layer_grads = layer.backward(cache, upstream)
            grads.update(layer_grads)
        if fc_grads_ready is not None:
            fc_grads_ready(dict(grads))
        packed, columns = caches[0]
        pooled = upstream.reshape(len(columns), *self.conv_out_shape)
        upstream = np.zeros((1, pooled.shape[1], (packed.shape[2] - self.field) // self.step + 1),
                            pooled.dtype)
        for sample, (first, last) in zip(pooled, columns):
            upstream[0, :, first:first + last] = sample[:, :last]
            sample[:, last:].sum(axis=1, out=upstream[0, :, first + last])
        for layer, cache in zip(reversed(self.conv_stack[1:]), reversed(caches[1:split])):
            upstream, layer_grads = layer.backward(cache, upstream)
            grads.update(layer_grads)
        # the stack opens with conv1, whose input (the network input) needs no gradient
        _, layer_grads = self.conv_stack[0].backward(packed, upstream, input_grad=False)
        grads.update(layer_grads)
        return grads

    def update_running_stats(self, caches) -> None:
        for layer, cache in zip(self.layers(), caches):
            if isinstance(layer, BatchNormLayer):
                layer.update_running(cache)

    # -- prediction -----------------------------------------------------------

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities from one batched inference-mode forward pass.

        No sample's arithmetic depends on the rest of its batch: its conv
        prefix (see :meth:`_forward`) comes from its own input, pooling
        and batchnorm are elementwise, convs run one GEMM per tap and sample,
        and dense layers one matmul per row, so online single-window use and
        offline batch evaluation agree bit for bit.  Values may differ in
        their last bits from the training forward's, which packs the batch,
        runs each dense layer as one GEMM over the batch and normalizes with
        batch statistics.  NumPy's warnings are off, as a finite input can
        still overflow: softmax's finiteness check reports it as NumericError.
        """
        with np.errstate(all="ignore"):
            return softmax(self.forward_infer(x))


def build_network(config: NetworkConfig, seed: int = 0, dtype=np.float32) -> Network:
    """Construct a network with He-uniform weights (bound sqrt(6/fan_in)), zero
    biases, unit batchnorm scale.  Draws happen in layer order from one seeded
    generator, so a given (config, seed) always yields the same parameters.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def initial(tag, dims):
        if tag == b"BNRM":  # gamma, beta, running_mean, running_var
            return [np.ones(dims[0], dtype=dtype), np.zeros(dims[0], dtype=dtype),
                    np.zeros(dims[0], dtype=dtype), np.ones(dims[0], dtype=dtype)]
        if tag in (b"CONV", b"DENS"):  # weights (out, fan_in...), then bias
            bound = np.sqrt(6.0 / math.prod(dims[1:]))
            return [rng.uniform(-bound, bound, size=dims).astype(dtype),
                    np.zeros(dims[0], dtype=dtype)]
        return []

    records = [(tag, dims, initial(tag, dims)) for tag, dims in _record_layout(config)]
    return _network_from_records(config, records, dtype)


def _network_from_records(config: NetworkConfig, records, dtype) -> Network:
    """Layers for ``(tag, dims, arrays)`` records that follow ``_record_layout(config)``."""
    conv_stack: list = []
    fc_stack: list = []
    convs = denses = 0
    for tag, dims, arrays in records:
        if tag == b"CONV":
            convs += 1
            conv_stack.append(ConvLayer(f"conv{convs}", *arrays))
        elif tag == b"POOL":
            conv_stack.append(PoolLayer(f"pool{convs}", *dims))
        elif tag == b"BNRM":
            fc_stack.append(BatchNormLayer("batchnorm", *arrays))
        elif tag == b"DENS":
            denses += 1
            head = denses > len(config.fc_sizes)
            fc_stack.append(DenseLayer("output" if head else f"fc{denses}", *arrays, relu=not head))
    return Network(config, conv_stack, fc_stack, dtype=dtype)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    """Optimization schedule; defaults follow the standard recipe."""

    epochs: int = field(default=60, metadata={"min": 1})
    batch_size: int = field(default=8, metadata={"min": 2})    # batch statistics need two samples
    learning_rate: float = field(default=1e-3, metadata={"above": 0})
    optimizer: str = field(default="adam", metadata={"choices": ("adam", "sgd")})
    patience: int = field(default=10, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_macro_f1: float


@dataclass
class TrainResult:
    """Training history; the trained network itself is restored to best-epoch state."""

    history: list[EpochRecord]
    best_epoch: int
    best_val_loss: float
    stopped_early: bool


def parse_train_spec(reader: KeyReader) -> TrainSpec:
    """Read ``train.*`` keys (one per TrainSpec field) from a KeyReader."""
    return reader.take_fields(TrainSpec(), "train.", [f.name for f in fields(TrainSpec)])


# Elements per Adam chunk: every pass over a chunk of a parameter, its grad,
# m, v and two scratch chunks (6 x 256 KiB in float32) stays in L2 cache.
ADAM_CHUNK = 65536
# Adam's moment decay rates and denominator offset, at Kingma & Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class _Sgd:
    """SGD and Adam's base.  ``update`` moves a share of the parameters in place
    for the given 1-based step; ``train`` runs it on two disjoint shares at once,
    with the same step number, so no update writes to the optimizer itself."""

    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def update(self, params, grads, step: int) -> None:
        for key, value in params:
            value -= self.spec.learning_rate * grads[key].astype(value.dtype, copy=False)


class _Adam(_Sgd):
    """Adam (Kingma & Ba, arXiv:1412.6980).

    Each parameter is walked in flat chunks of ADAM_CHUNK elements (loop
    tiling), and every chunk runs the same elementwise ufuncs in the same
    order as the whole-array formula, so the bits do not depend on the chunk
    size.  Gradients come in their parameter's dtype.  The moments of every
    parameter exist from the start and each call has its own scratch, so
    calls on disjoint parameters may run at once.
    """

    def __init__(self, spec: TrainSpec, params):
        super().__init__(spec)
        self.m = {key: np.zeros(value.size, value.dtype) for key, value in params}  # flat
        self.v = {key: np.zeros_like(m) for key, m in self.m.items()}

    def update(self, params, grads, step: int) -> None:
        bias1 = 1.0 - ADAM_BETA1 ** step
        bias2 = 1.0 - ADAM_BETA2 ** step
        for key, value in params:
            flat = value.reshape(-1)
            assert np.may_share_memory(flat, value), f"{key} is not contiguous"
            grad = grads[key].reshape(-1)
            assert grad.dtype == flat.dtype, f"{key} gradient is {grad.dtype}"
            m, v = self.m[key], self.v[key]
            scratch = np.empty((2, min(flat.size, ADAM_CHUNK)), flat.dtype)
            for start in range(0, flat.size, ADAM_CHUNK):
                end = min(start + ADAM_CHUNK, flat.size)
                g, mc, vc = grad[start:end], m[start:end], v[start:end]
                s, u = scratch[:, :end - start]
                # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
                mc *= ADAM_BETA1
                mc += np.multiply(1.0 - ADAM_BETA1, g, out=s)
                vc *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=s)
                vc += np.multiply(s, g, out=s)
                # value -= lr ((m / bias1) / (sqrt(v / bias2) + eps))
                np.divide(vc, bias2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPSILON
                np.divide(mc, bias1, out=u)
                u /= s
                flat[start:end] -= np.multiply(self.spec.learning_rate, u, out=u)


def _batch_plan(n: int, batch_size: int):
    """Start offsets of each batch; a trailing single sample is dropped."""
    starts = list(range(0, n, batch_size))
    if starts and n - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return starts


def train(network: Network, train_x, train_y, val_x, val_y, spec: TrainSpec) -> TrainResult:
    """Mini-batch training with early stopping on validation loss.

    The validation pass runs in inference mode every epoch.  The network is
    left holding the parameters (and running statistics) of the epoch with
    the strictly lowest validation loss; ties keep the earliest epoch.
    """
    train_x = np.asarray(train_x)
    train_y = np.asarray(train_y)
    val_x = np.asarray(val_x)
    val_y = np.asarray(val_y)
    if len(train_x) != len(train_y):
        raise InputError(f"{len(train_x)} training samples vs {len(train_y)} labels")
    if len(val_x) != len(val_y):
        raise InputError(f"{len(val_x)} validation samples vs {len(val_y)} labels")
    if len(train_x) < 2:
        raise InputError("training needs at least two samples")
    if len(val_x) == 0:
        raise InputError("training needs a non-empty validation set for early stopping")
    num_classes = network.num_classes
    for name, labels in (("training", train_y), ("validation", val_y)):
        if labels.min() < 0 or labels.max() >= num_classes:
            raise InputError(f"{name} labels outside [0, {num_classes})")

    optimizer = _Adam(spec, network.param_items()) if spec.optimizer == "adam" else _Sgd(spec)
    conv_params, fc_params = ([item for layer in stack for item in layer.param_items()]
                              for stack in (network.conv_stack, network.fc_stack))
    update_fc = np.errstate(**np.geterr())(optimizer.update)   # float errors act as here
    rng = np.random.default_rng(spec.seed)
    history: list[EpochRecord] = []
    best_state = network.snapshot()
    best_val = np.inf
    best_epoch = -1
    stale = 0
    step = 0

    with ThreadPoolExecutor(max_workers=1) as helper:     # updates the fc stack
        for epoch in range(spec.epochs):
            perm = rng.permutation(len(train_x))
            loss_sum = 0.0
            sample_count = 0
            for batch_index, start in enumerate(_batch_plan(len(perm), spec.batch_size)):
                take = perm[start:start + spec.batch_size]
                xb = train_x[take]
                yb = one_hot(train_y[take], num_classes)
                try:
                    logits, caches = network.forward_train(xb)
                    probs = softmax(logits)
                    loss = categorical_cross_entropy(probs, yb)
                except NumericError as exc:
                    raise TrainingError(f"non-finite values at epoch {epoch}, batch "
                                        f"{batch_index}: {exc}", epoch=epoch,
                                        batch=batch_index) from exc
                step += 1
                handed = []                     # the fc-stack update, once handed over
                grads = network.backward(caches, softmax_cce_logit_grad(probs, yb),
                                         lambda fc_grads: handed.append(helper.submit(
                                             update_fc, fc_params, fc_grads, step)))
                network.update_running_stats(caches)
                optimizer.update(conv_params, grads, step)
                handed[0].result()              # the next forward reads the fc stack
                loss_sum += loss.value * loss.batch_size
                sample_count += loss.batch_size

            val_loss, val_f1 = _validate(network, val_x, val_y)
            record = EpochRecord(epoch=epoch, train_loss=loss_sum / sample_count,
                                 val_loss=val_loss, val_macro_f1=val_f1)
            history.append(record)
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = network.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= spec.patience:
                    break

    network.restore(best_state)
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_val_loss=float(best_val), stopped_early=stale >= spec.patience)


def _validate(network: Network, val_x, val_y) -> tuple[float, float]:
    probs = network.predict_proba(val_x)
    loss = categorical_cross_entropy(probs, one_hot(val_y, network.num_classes))
    preds = np.argmax(probs, axis=-1)
    cm = confusion_matrix(np.asarray(val_y), preds, network.num_classes)
    return float(loss.value), macro_f1(cm)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def check_network_gradients(network: Network, x, labels, epsilon: float = 1e-5,
                            target_rel_tol: float | None = None) -> GradCheckResult:
    """Finite-difference check of every parameter gradient through the full loss.

    Runs one analytic forward/backward at the network's own precision, then
    probes each parameter coordinate with central differences of the
    train-mode softmax cross entropy.  The difference quotients are evaluated
    through a float64 twin that mirrors the exact (perturbed) parameter
    values, so for a float32 network the reference derivative is far more
    accurate than the gradients it judges; the measured error is then
    genuinely the float32 backward pass's own.
    """
    x = np.asarray(x)
    targets = one_hot(np.asarray(labels), network.num_classes)
    names = [name for name, _ in network.param_items()]
    arrays = [arr for _, arr in network.param_items()]
    eval_net = build_network(network.config, seed=0, dtype=np.float64)
    eval_arrays = [arr for _, arr in eval_net.param_items()]
    x_eval = x.astype(np.float64)

    def loss_fn() -> float:
        for dst, src in zip(eval_arrays, arrays):
            dst[...] = src  # float32 values are exact in float64
        logits, _ = eval_net.forward_train(x_eval)
        return categorical_cross_entropy(softmax(logits), targets).value

    logits, caches = network.forward_train(x)
    probs = softmax(logits)
    grads = network.backward(caches, softmax_cce_logit_grad(probs, targets))
    analytic = [grads[name].astype(arr.dtype) for name, arr in zip(names, arrays)]
    return gradient_check(loss_fn, arrays, analytic, epsilon=epsilon,
                          target_rel_tol=target_rel_tol,
                          loss_eps=float(np.finfo(np.float64).eps))


# ---------------------------------------------------------------------------
# model files (INTC container)
# ---------------------------------------------------------------------------
#
# Layout, all integers little-endian u32, all floats little-endian f32:
#   magic "INTC" | version | record_count
#   per record: 4-byte ASCII tag | ndims | ndims x u32 | payload floats
#     INPT (channels, frames)           no payload
#     CONV (out, in, kernel)            weights then bias
#     POOL (pool, stride)               no payload
#     BNRM (features, style)            gamma, beta, running_mean, running_var
#                                       style 0 = conv channels, 1 = flat entries
#     DENS (out, in)                    weights then bias
# Records appear in network order.  relu is implied after every conv (the
# network applies it to the pooled map, as every CONV is followed by a POOL)
# and after every dense except the last.  The INPT, CONV, POOL, BNRM and DENS
# dims determine a NetworkConfig, and a file is valid exactly when its records
# equal _record_layout of that config, nothing follows the last one and every
# payload float is finite.

_TAGS = (b"INPT", b"CONV", b"POOL", b"BNRM", b"DENS")


def _record_layout(config: NetworkConfig) -> list[tuple[bytes, tuple[int, ...]]]:
    """The ``(tag, dims)`` of every record of a ``config`` network, in file order.

    The only description of the record layout: build_network draws parameters
    in this order, serialize writes it and deserialize accepts nothing else.
    Allocates no arrays, so it is safe on dims read from an untrusted file.
    """
    records = [(b"INPT", (config.channels, config.input_frames))]
    inputs = config.channels
    for name, shape in plan_layers(config):
        if name.startswith("conv"):
            records.append((b"CONV", (shape[0], inputs, config.kernel_width)))
        elif name.startswith("pool"):
            records.append((b"POOL", (config.pool, config.pool_stride)))
        elif name == "batchnorm":
            records.append((b"BNRM", (shape[0], 0 if len(shape) == 2 else 1)))
        elif name != "flatten":
            records.append((b"DENS", (shape[0], inputs)))
        inputs = shape[0]
    return records


def _payload_shapes(tag: bytes, dims) -> list[tuple[int, ...]]:
    """Shapes of the float arrays that follow a record's dims."""
    if tag == b"BNRM":
        return [dims[:1]] * 4
    return [dims, dims[:1]] if tag in (b"CONV", b"DENS") else []


def serialize(network: Network) -> bytes:
    layout = _record_layout(network.config)
    out = bytearray(MAGIC) + struct.pack("<II", FORMAT_VERSION, len(layout))
    for (tag, dims), layer in zip(layout, [None] + network.layers()):
        out += tag + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
        arrays = [arr for _, arr in layer.param_items()] if layer else []
        if isinstance(layer, BatchNormLayer):
            arrays += [layer.running_mean, layer.running_var]
        for arr in arrays:
            out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(out)


def save_model(network: Network, path: str) -> None:
    """Write ``<path>.tmp``, then rename it over ``path``: whoever maps the old file keeps it."""
    with open(path + ".tmp", "wb") as fh:
        fh.write(serialize(network))
    os.replace(path + ".tmp", path)


class _Cursor:
    """Reads a byte string front to back; never reads, or allocates, past its end."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.offset = 0

    def take(self, count: int, what: str) -> memoryview:
        if self.offset + count > len(self.data):
            raise FormatError(f"model file truncated at byte {self.offset} while "
                              f"reading {what}")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count, what))


def deserialize(data: bytes) -> Network:
    """Rebuild a network from INTC bytes in one pass; any defect is a FormatError.

    The loaded arrays are views of ``data`` (a copy-on-write map is writable; read-only
    bytes get one writable copy): a corrupt size costs no memory, no weight is copied."""
    cursor = _Cursor(bytearray(data) if memoryview(data).readonly else data)
    magic = bytes(cursor.take(4, "magic"))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    version, count = cursor.u32s(2, "format version and record count")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4, "
                          f"expected {FORMAT_VERSION}")
    offsets, records = [], []
    for index in range(count):
        offsets.append(cursor.offset)
        tag = bytes(cursor.take(4, f"tag of record {index}"))
        if tag not in _TAGS:
            raise FormatError(f"unknown record tag {tag!r} at byte {offsets[-1]}")
        name = tag.decode("ascii")
        (ndims,) = cursor.u32s(1, f"dimension count of {name}")
        if not 1 <= ndims <= 8:
            raise FormatError(f"record {name} at byte {offsets[-1]} claims {ndims} "
                              f"dimensions")
        dims = cursor.u32s(ndims, f"dimensions of {name}")
        arrays = [np.frombuffer(cursor.take(4 * math.prod(shape), f"{name} payload"),
                                dtype="<f4").reshape(shape).astype(np.float32, copy=False)
                  for shape in _payload_shapes(tag, dims)]
        records.append((tag, dims, arrays))
    if cursor.offset != len(data):
        raise FormatError(f"{len(data) - cursor.offset} trailing bytes after the last "
                          f"record (at byte {cursor.offset})")
    try:
        config = _config_of(records)
        layout = _record_layout(config)
    except ConfigError as exc:
        raise FormatError(f"stored architecture is invalid: {exc}") from exc
    stored = [(tag, dims) for tag, dims, _ in records]
    for index, (got, want) in enumerate(itertools.zip_longest(stored, layout)):
        if got != want:
            got_text, want_text = (f"{r[0].decode('ascii')} {r[1]}" if r else "no record"
                                   for r in (got, want))
            raise FormatError(f"record {index} at byte "
                              f"{offsets[index] if got else len(data)} is {got_text}, "
                              f"but the stored architecture needs {want_text}")
    for index, (tag, _, arrays) in enumerate(records):
        if not all(np.isfinite(a).all() for a in arrays):
            raise FormatError(f"record {index} at byte {offsets[index]} "
                              f"({tag.decode('ascii')}) holds a NaN or Inf value")
    return _network_from_records(config, records, np.float32)


def _config_of(records) -> NetworkConfig:
    """The NetworkConfig that the first record of each tag describes.

    Reads the last dim with [-1], so a record with too few dims reaches the
    layout comparison rather than an IndexError.
    """
    dims = {tag: [d for t, d, _ in records if t == tag] for tag in _TAGS}
    missing = [tag.decode("ascii") for tag in _TAGS if not dims[tag]]
    if missing:
        raise FormatError(f"model file has no {', '.join(missing)} record")
    return NetworkConfig(
        channels=dims[b"INPT"][0][0],
        input_frames=dims[b"INPT"][0][-1],
        conv_filters=tuple(d[0] for d in dims[b"CONV"]),
        kernel_width=dims[b"CONV"][0][-1],
        pool=dims[b"POOL"][0][0],
        pool_stride=dims[b"POOL"][0][-1],
        fc_sizes=tuple(d[0] for d in dims[b"DENS"][:-1]),
        num_classes=dims[b"DENS"][-1][0],
        batchnorm_position=BATCHNORM_POSITIONS[dims[b"BNRM"][0][-1] != 0],
    )


def load_model(path: str) -> Network:
    """The network at ``path``; a regular file is mapped copy-on-write, never read whole.

    A pipe or a device is read in chunks into one buffer once its first bytes are the magic."""
    try:
        with open(path, "rb") as fh:
            try:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            except (OSError, ValueError):    # a pipe, a device or an empty file
                if (data := fh.read(len(MAGIC))) == MAGIC:
                    data = bytearray(data)
                    while chunk := fh.read(1 << 20):
                        data += chunk
    except OSError as exc:
        raise FormatError(f"cannot read model file {path!r}: {exc}") from exc
    return deserialize(data)
