"""From-scratch neural-network primitives for multichannel time series.

Every layer here is written against plain numpy with explicit forward and
backward passes -- no autodiff framework.  Conventions:

* Every kernel takes one batched form, batch axis first: a feature map is
  ``(batch, channels, frames)`` and a dense input is ``(batch, features)``.
  A single sample is a batch of one (``x[None]``).
* Convolution is the *valid* sliding dot product (cross-correlation): the
  kernel is applied un-flipped.  Callers that hold textbook flipped-convolution
  kernels reverse them along the tap axis first.
* Arrays keep their dtype (the training pipeline uses float32); reductions
  that feed statistics or losses accumulate in float64.
* All functions are pure: they never mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

PROB_FLOOR = 1e-12  # probabilities are clamped to [PROB_FLOOR, 1] inside losses
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
KINK_TOL = 0.2      # gradient_check: one-sided slopes this far apart (relative) mark a kink
NOISE_COEFF = 8.0   # gradient_check: finite-difference noise, in machine epsilons of the loss


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _batched(x: np.ndarray, ndim: int) -> np.ndarray:
    """x as an array, or InputError unless it has ndim axes, batch first."""
    x = np.asarray(x)
    if x.ndim != ndim:
        raise InputError(f"input must have {ndim} axes, batch first, got shape {x.shape}")
    return x


def _require_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{name} contains NaN or Inf")


def _taps(xb: np.ndarray, width: int, stride: int) -> list[np.ndarray]:
    """Tap k of every window as a strided (B, C, out_frames) view: frame t*stride + k.

    Conv and pool take their windows from here; the caller has checked
    1 <= width <= frames and stride >= 1.
    """
    span = (xb.shape[2] - width) // stride * stride + 1
    return [xb[:, :, k:k + span:stride] for k in range(width)]


def _masked(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """values where keep holds, else +0: bit for bit np.where(keep, values, 0).

    The values' bits are ANDed with an all-ones or all-zeros word, so there is
    no branch to mispredict, and -0.0, +-inf and NaN pass or clear like any
    other value (multiplying by the mask would turn masked zeros into -0.0
    and masked infinities into NaN).  Items must be 1, 2, 4 or 8 bytes wide,
    which excludes longdouble and complex values.
    """
    uint = np.dtype(f"u{values.dtype.itemsize}")
    bits = np.negative(keep, dtype=uint)            # True -> all ones, False -> 0
    bits &= values.view(uint)
    return bits.view(values.dtype)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_operands(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check x against (O, C, K) weights; return both as arrays."""
    x = _batched(x, 3)
    weights = np.asarray(weights)
    if weights.ndim != 3 or weights.shape[2] < 1:
        raise InputError(f"weights must be (out_channels, in_channels, kernel_width), got shape {weights.shape}")
    _, in_channels, kernel_width = weights.shape
    if x.shape[1] != in_channels:
        raise InputError(f"input has {x.shape[1]} channels but kernels expect {in_channels}")
    if x.shape[2] < kernel_width:
        raise InputError(f"{x.shape[2]} frames is shorter than kernel width {kernel_width}")
    return x, weights


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid sliding dot product over the frame axis.

    x: (B, C, F); weights: (out_channels, C, kernel_width); bias: (out_channels,).
    Returns (B, out_channels, F-K+1).

    out[b, o, t] = sum_c sum_k x[b, c, t + k] * weights[o, c, k] + bias[o]

    Taps accumulate in ascending k, one (O, C) @ (C, T) GEMM per tap and
    sample, and the bias comes last, so no sample depends on its batch.
    """
    x, weights = _conv_operands(x, weights)
    w_taps = np.ascontiguousarray(weights.transpose(2, 0, 1))    # (K, O, C): plain GEMMs
    bias = np.asarray(bias)
    if bias.shape != (w_taps.shape[1],):
        raise InputError(f"bias shape {bias.shape} does not match {w_taps.shape[1]} output channels")
    taps = _taps(x, len(w_taps), 1)
    out = w_taps[0] @ taps[0]
    for w_tap, tap in zip(w_taps[1:], taps[1:]):
        out += w_tap @ tap
    out += bias[:, None]
    return out


def conv1d_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray, *,
                    input_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv1d_forward.

    upstream has the forward output's shape.  Returns (dx, dweights, dbias)
    shaped as x, weights and bias.  dweights[:, :, k] is tap_k @ upstream^T
    summed over the batch and transposed: a (C, T) @ (T, O) GEMM per sample on
    one contiguous (B, T, O) copy of upstream.  dx takes one stacked (C*K, O) @
    (O, T) GEMM per sample, whose rows c*K + k form weights[:, :, k]^T @
    upstream, added into tap k's frames in ascending k.

    With ``input_grad=False`` dx is not computed and comes back as None;
    dweights and dbias are the same bits as in the full call.  A network's
    first layer needs no gradient for its input.
    """
    x, weights = _conv_operands(x, weights)
    out_channels, _, kernel_width = weights.shape
    upstream = np.asarray(upstream)
    taps = _taps(x, kernel_width, 1)
    out_shape = (x.shape[0], out_channels, taps[0].shape[2])
    if upstream.shape != out_shape:
        raise InputError(f"upstream shape {upstream.shape} does not match forward output {out_shape}")
    dbias = upstream.sum(axis=(0, 2))
    up_t = np.ascontiguousarray(upstream.transpose(0, 2, 1))  # (B, T, O): faster than (O, T) @ (T, C)
    dweights = np.stack([(tap @ up_t).sum(axis=0).T for tap in taps], axis=2)
    if not input_grad:
        return None, dweights, dbias
    shares = weights.reshape(out_channels, -1).T @ upstream   # (B, C*K, T)
    shares = shares.reshape(len(upstream), x.shape[1], kernel_width, -1)
    dx = np.zeros(x.shape, dtype=shares.dtype)
    for k, dx_tap in enumerate(_taps(dx, kernel_width, 1)):
        dx_tap += shares[:, :, k]
    return dx, dweights, dbias


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

@dataclass
class PoolRoutes:
    """What maxpool1d_backward needs of a pooled input: ``masks[k]`` marks the
    windows whose first maximum is tap k (a window holding NaN routes
    nothing), and dx takes the input's ``shape`` and ``dtype``."""
    masks: np.ndarray          # (pool, B, C, out_frames) bool
    shape: tuple[int, int, int]
    dtype: np.dtype


def maxpool1d_forward(x: np.ndarray, pool: int, stride: int, *, routes: bool = False):
    """Window-wise maximum along frames of x: (B, C, F); out_frames =
    (F - pool)//stride + 1.

    Trailing frames that do not fill a window are dropped.  Ties take the
    earliest frame (relevant only to the backward pass).  With ``routes``
    the call returns ``(out, PoolRoutes)``, so that the backward pass needs
    no x.
    """
    x = _batched(x, 3)
    if pool < 1 or stride < 1:
        raise InputError(f"pool and stride must be >= 1, got pool={pool} stride={stride}")
    if x.shape[2] < pool:
        raise InputError(f"{x.shape[2]} frames is shorter than pool size {pool}")
    taps = _taps(x, pool, stride)
    if not routes:
        return functools.reduce(np.maximum, taps) if pool > 1 else taps[0].copy()  # not a view of x
    # The taps are first copied to contiguous rows: NumPy copies a strided
    # view and then reduces and compares the copy in less time than it takes
    # to reduce and compare the view.
    values = np.empty((pool,) + taps[0].shape, dtype=x.dtype)
    for row, tap in zip(values, taps):
        np.copyto(row, tap)
    out = functools.reduce(np.maximum, values)
    masks = np.empty(values.shape, dtype=bool)
    found = np.zeros(out.shape, dtype=bool)         # windows whose first max is routed
    for row, first in zip(values, masks):
        np.equal(row, out, out=first)
        np.greater(first, found, out=first)         # a max, and no earlier one
        found |= first
    return out, PoolRoutes(masks, x.shape, x.dtype)


def maxpool1d_backward(routes: PoolRoutes, pool: int, stride: int,
                       upstream: np.ndarray) -> np.ndarray:
    """Route upstream gradient to each window's first maximal frame; where
    windows overlap, a frame adds up its windows' shares in window order.

    routes are what maxpool1d_forward(..., routes=True) kept of the pooled
    input.  Each tap's share is masked without branches (``_masked``), bit
    for bit equal to ``np.where(route, upstream, 0)``, and added into a zero dx.
    """
    out_shape = routes.masks.shape[1:]
    if routes.masks.shape[0] != pool or (routes.shape[2] - pool) // stride + 1 != out_shape[2]:
        raise InputError(f"routes do not match pool={pool} stride={stride}")
    upstream = np.asarray(upstream)
    if upstream.shape != out_shape:
        raise InputError(f"upstream shape {upstream.shape} does not match pooled output "
                         f"{out_shape}")
    dx = np.zeros(routes.shape, dtype=routes.dtype)
    for dx_tap, mask in zip(_taps(dx, pool, stride)[::-1], routes.masks[::-1]):
        dx_tap += _masked(upstream, mask)           # windows in ascending order
    return dx


# ---------------------------------------------------------------------------
# dense / relu
# ---------------------------------------------------------------------------

def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, *,
                  per_row: bool = True) -> np.ndarray:
    """Affine map y = x W^T + b.  x: (B, in); weights: (out, in); bias: (out,).

    Each row is one (1, in) @ (in, out) product, so no row depends on its
    batch.  With ``per_row=False`` (training) the batch is one (out, in) @
    (in, batch) GEMM, which reads the weights once; its bits differ."""
    x = _batched(x, 2)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if weights.ndim != 2:
        raise InputError(f"weights must be (out, in), got shape {weights.shape}")
    if bias.shape != (weights.shape[0],):
        raise InputError(f"bias shape {bias.shape} does not match {weights.shape[0]} outputs")
    if x.shape[1] != weights.shape[1]:
        raise InputError(f"input has {x.shape[1]} features but weights expect {weights.shape[1]}")
    return ((x[:, None, :] @ weights.T)[:, 0] if per_row else (weights @ x.T).T) + bias


def dense_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = _batched(x, 2)
    upstream = np.asarray(upstream)
    weights = np.asarray(weights)
    if upstream.shape != (x.shape[0], weights.shape[0]):
        raise InputError(f"upstream shape {upstream.shape} does not match output "
                         f"{(x.shape[0], weights.shape[0])}")
    dx = upstream @ weights
    dweights = upstream.T @ x
    dbias = upstream.sum(axis=0)
    return dx, dweights, dbias


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x), 0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Pass upstream where x > 0, +0 elsewhere (x <= 0 or NaN).

    Branch-free (``_masked``) and bit for bit equal to
    ``np.where(x > 0, upstream, 0)`` in upstream's dtype.
    """
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if x.shape != upstream.shape:
        raise InputError(f"upstream shape {upstream.shape} does not match input {x.shape}")
    return _masked(upstream, x > 0)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormCache:
    """Intermediate values needed by batchnorm_backward."""
    x_hat: np.ndarray          # float64 normalized input, (batch, channels, frames)
    inv_std: np.ndarray        # float64 (channels,)
    gamma: np.ndarray
    batch_mean: np.ndarray     # float64 (channels,)
    batch_var: np.ndarray      # float64 (channels,) population variance


def batchnorm_forward_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
                            ) -> tuple[np.ndarray, BatchNormCache]:
    """Normalize each channel by its batch mean and population variance.

    x: (batch, channels, frames), reduced over batch and frames; >= 2 values
    per channel.  Returns (gamma * x_hat + beta, cache) in x's shape and
    dtype; the statistics and x_hat are float64, computed in place on one
    copy of x.
    """
    x = _batched(x, 3)
    count = x.shape[0] * x.shape[2]
    if count < 2:
        raise InputError(f"batchnorm train mode needs >= 2 values per channel, got {count}")
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise InputError(f"gamma/beta must be ({x.shape[1]},), got {gamma.shape} and {beta.shape}")
    x_hat = x.astype(np.float64)
    mean = x_hat.sum(axis=(0, 2)) / count
    x_hat -= mean[:, None]
    var = np.einsum("bcf,bcf->c", x_hat, x_hat) / count
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x_hat *= inv_std[:, None]
    out = np.multiply(x_hat, gamma[:, None], out=np.empty(x.shape, x.dtype))
    out += beta[:, None]
    return out, BatchNormCache(x_hat=x_hat, inv_std=inv_std, gamma=gamma,
                               batch_mean=mean, batch_var=var)


def batchnorm_forward_infer(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                            running_mean: np.ndarray, running_var: np.ndarray) -> np.ndarray:
    """Normalize x: (batch, channels, frames) per channel with stored running
    statistics.  Elementwise: no value depends on its batch."""
    x = _batched(x, 3)
    inv_std = 1.0 / np.sqrt(np.asarray(running_var, dtype=np.float64) + BN_EPSILON)
    out = (x - np.asarray(running_mean)[:, None]) * inv_std[:, None]
    out *= np.asarray(gamma)[:, None]
    out += np.asarray(beta)[:, None]
    return out.astype(x.dtype, copy=False)


def batchnorm_update_running(cache: BatchNormCache, running_mean: np.ndarray,
                             running_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential moving average update with BN_MOMENTUM; returns new
    (running_mean, running_var)."""
    running_mean = np.asarray(running_mean)
    running_var = np.asarray(running_var)
    new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * cache.batch_mean
    new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * cache.batch_var
    return (new_mean.astype(running_mean.dtype, copy=False),
            new_var.astype(running_var.dtype, copy=False))


def batchnorm_backward(cache: BatchNormCache, upstream: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through train-mode batchnorm: (dx, dgamma, dbeta) in
    upstream's dtype, dx in its (batch, channels, frames) shape.  Per channel
    of n values, in float64,
    dx = gamma * inv_std * (up - dbeta / n - x_hat * dgamma / n)."""
    upstream = np.asarray(upstream)
    x_hat = cache.x_hat
    if upstream.shape != x_hat.shape:
        raise InputError(f"upstream shape {upstream.shape} does not match input {x_hat.shape}")
    count = upstream.shape[0] * upstream.shape[2]
    dx = upstream.astype(np.float64)
    dbeta = dx.sum(axis=(0, 2))
    dgamma = np.einsum("bcf,bcf->c", dx, x_hat)
    dx -= (dbeta / count)[:, None]
    dx -= x_hat * (dgamma / count)[:, None]
    dx *= (cache.gamma * cache.inv_std)[:, None]
    dtype = upstream.dtype
    return dx.astype(dtype), dgamma.astype(dtype), dbeta.astype(dtype)


# ---------------------------------------------------------------------------
# softmax and losses
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise shift-invariant softmax over the last axis."""
    logits = np.asarray(logits)
    if logits.shape[-1] < 2:
        raise InputError(f"softmax needs at least 2 classes, got {logits.shape[-1]}")
    _require_finite(logits, "logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InputError(f"labels must be a vector, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InputError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


@dataclass(frozen=True)
class LossValue:
    """Scalar loss averaged over a batch."""
    value: float
    batch_size: int


def _check_prob_matrix(probs: np.ndarray, targets: np.ndarray) -> None:
    if probs.ndim != 2 or targets.ndim != 2:
        raise InputError(f"probs and targets must be 2-D, got {probs.shape} and {targets.shape}")
    if probs.shape != targets.shape:
        raise InputError(f"probs shape {probs.shape} does not match targets {targets.shape}")
    if probs.shape[1] < 2:
        raise InputError(f"need at least 2 classes, got {probs.shape[1]}")
    _require_finite(probs, "probs")
    row_sums = probs.sum(axis=1, dtype=np.float64)
    if np.any(np.abs(row_sums - 1.0) > 1e-4):
        raise InputError("each probability row must sum to 1")


def categorical_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean negative log-likelihood of one-hot targets under predicted probs.

    J = -(1/M) * sum_m sum_k targets[m, k] * log(clamp(probs[m, k]))
    """
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    _check_prob_matrix(probs, targets)
    if np.any((targets != 0) & (targets != 1)) or np.any(targets.sum(axis=1) != 1):
        raise InputError("targets must be one-hot rows")
    batch = probs.shape[0]
    clamped = np.clip(probs, PROB_FLOOR, 1.0)
    total = -np.sum(targets * np.log(clamped.astype(np.float64)), dtype=np.float64)
    return LossValue(value=float(total / batch), batch_size=batch)


def softmax_cce_logit_grad(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of categorical_cross_entropy(softmax(z)) w.r.t. logits z: (probs - targets) / M."""
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    if probs.shape != targets.shape:
        raise InputError(f"probs shape {probs.shape} does not match targets {targets.shape}")
    return ((probs - targets) / probs.shape[0]).astype(probs.dtype, copy=False)


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> LossValue:
    """J = -(1/M) * sum_m [y log h + (1 - y) log(1 - h)] over a vector batch."""
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    if probs.ndim != 1 or targets.ndim != 1:
        raise InputError(f"probs and targets must be vectors, got {probs.shape} and {targets.shape}")
    if probs.shape != targets.shape:
        raise InputError(f"probs shape {probs.shape} does not match targets {targets.shape}")
    if probs.size == 0:
        raise InputError("empty batch")
    _require_finite(probs, "probs")
    if np.any((targets != 0) & (targets != 1)):
        raise InputError("targets must be 0/1")
    h = np.clip(probs.astype(np.float64), PROB_FLOOR, 1.0 - PROB_FLOOR)
    y = targets.astype(np.float64)
    total = -np.sum(y * np.log(h) + (1.0 - y) * np.log(1.0 - h), dtype=np.float64)
    return LossValue(value=float(total / probs.size), batch_size=int(probs.size))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    checked: int
    skipped_kink: int      # one-sided slopes disagree: non-smooth within epsilon
    skipped_noise: int     # |gradient| below what finite differences can resolve

    @property
    def skipped(self) -> int:
        return self.skipped_kink + self.skipped_noise


def gradient_check(loss_fn, arrays, analytic_grads, epsilon: float = 1e-5,
                   target_rel_tol: float | None = None,
                   loss_eps: float | None = None) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` recomputes the scalar loss from the current contents of
    ``arrays`` (perturbed in place and restored).  ``analytic_grads`` aligns
    with ``arrays``.  Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8).

    Two kinds of coordinate are excluded and counted instead of checked:

    * kinks -- where forward and backward one-sided slopes disagree, i.e. the
      loss is non-smooth (relu/pool tie) within ``epsilon`` of the point;
    * noise -- where the finite-difference resolution (``loss_eps`` scaled by
      loss magnitude / epsilon) cannot certify the requested tolerance.

    ``loss_eps`` is the machine epsilon of the arithmetic ``loss_fn`` runs in;
    it defaults to the epsilon of each checked array's dtype, which is right
    when the loss is evaluated at the same precision as the parameters.  A
    caller that evaluates the loss in double precision while checking float32
    parameters should pass ``loss_eps = np.finfo(np.float64).eps``.
    ``target_rel_tol`` defaults to 1e-3 for float32 arrays and 1e-6 otherwise.
    """
    if not (1e-6 <= epsilon <= 1e-2):
        raise InputError(f"epsilon must lie in [1e-6, 1e-2], got {epsilon}")
    arrays = list(arrays)
    analytic_grads = list(analytic_grads)
    if len(arrays) != len(analytic_grads):
        raise InputError("arrays and analytic_grads must align")
    for arr, grad in zip(arrays, analytic_grads):
        if np.asarray(arr).shape != np.asarray(grad).shape:
            raise InputError(f"gradient shape {np.asarray(grad).shape} does not match "
                             f"array shape {np.asarray(arr).shape}")
        _require_finite(arr, "checked array")

    if target_rel_tol is None:
        is_f32 = any(np.asarray(a).dtype == np.float32 for a in arrays)
        target_rel_tol = 1e-3 if is_f32 else 1e-6

    f0 = float(loss_fn())
    worst = 0.0
    checked = 0
    skipped_kink = 0
    skipped_noise = 0
    for arr, grad in zip(arrays, analytic_grads):
        if not arr.flags.writeable:
            raise InputError("gradient_check needs writeable arrays")
        grad = np.asarray(grad)
        if loss_eps is not None:
            eps_mach = float(loss_eps)
        else:
            eps_mach = float(np.finfo(arr.dtype).eps)
        sigma = NOISE_COEFF * eps_mach * max(abs(f0), 1.0) / epsilon
        # a derivative this small is indistinguishable from zero: below both the
        # finite-difference resolution and what the analytic pass's own dtype
        # can accumulate without the result being pure rounding residue
        grad_eps = float(np.finfo(grad.dtype).eps)
        zero_atol = 4.0 * sigma + NOISE_COEFF * grad_eps * max(abs(f0), 1.0)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + epsilon
            h_plus = float(arr[idx]) - float(orig)    # actual representable step
            f_plus = float(loss_fn())
            arr[idx] = orig - epsilon
            h_minus = float(orig) - float(arr[idx])
            f_minus = float(loss_fn())
            arr[idx] = orig
            central = (f_plus - f_minus) / (h_plus + h_minus)
            fwd = (f_plus - f0) / h_plus
            bwd = (f0 - f_minus) / h_minus
            if abs(fwd - bwd) > KINK_TOL * max(abs(fwd), abs(bwd)) + 4.0 * sigma:
                skipped_kink += 1
                continue
            a = float(grad[idx])
            if max(abs(a), abs(central)) <= zero_atol:
                # both the claim and the measurement are zero at this resolution
                checked += 1
                continue
            scale = max(abs(a), abs(central), 1e-8)
            if sigma > 0.25 * target_rel_tol * scale:
                skipped_noise += 1
                continue
            rel = abs(central - a) / scale
            worst = max(worst, rel)
            checked += 1
    return GradCheckResult(max_relative_error=worst, checked=checked,
                           skipped_kink=skipped_kink, skipped_noise=skipped_noise)
