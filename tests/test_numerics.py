"""Layer primitives against hand-computed values, loop oracles and finite differences."""

from __future__ import annotations

import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from intentcnn import numerics as nm
from intentcnn.model import PoolLayer
from intentcnn.errors import InputError, NumericError

import oracles


# ---------------------------------------------------------------------------
# convolution forward
# ---------------------------------------------------------------------------

def test_conv_identity_kernel_single_channel():
    x = np.array([[3.0, 1.0, 4.0, 1.0, 5.0]], dtype=np.float32)
    w = np.array([[[1.0]]], dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    npt.assert_array_equal(nm.conv1d_forward(x[None], w, b)[0], x)


def test_conv_matches_textbook_flipped_convolution():
    # classic flipped convolution of [1,2,3] with [1,2] keeps valid outputs [4,7];
    # the library computes the un-flipped sliding dot product, so the caller
    # reverses the kernel taps to get the same numbers.
    x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    kernel = np.array([1.0, 2.0], dtype=np.float32)
    expected = oracles.flipped_conv1d_loops(x, kernel)
    npt.assert_array_equal(expected, np.array([4.0, 7.0], dtype=np.float32))
    got = nm.conv1d_forward(x[None, None, :], kernel[::-1].copy()[None, None, :], np.zeros(1, np.float32))
    npt.assert_array_equal(got[0, 0], expected)


def test_conv_two_channels_sum():
    x = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)
    w = np.ones((1, 2, 1), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    npt.assert_array_equal(nm.conv1d_forward(x[None], w, b)[0], np.array([[3.0, 3.0]], dtype=np.float32))


def test_conv_bias_is_added_per_output_channel():
    x = np.zeros((1, 4), dtype=np.float32)
    w = np.zeros((2, 1, 2), dtype=np.float32)
    b = np.array([1.5, -2.0], dtype=np.float32)
    out = nm.conv1d_forward(x[None], w, b)[0]
    npt.assert_array_equal(out, np.array([[1.5] * 3, [-2.0] * 3], dtype=np.float32))


def test_conv_matches_loop_oracle_bit_exact_on_dyadic_grid():
    rng = np.random.default_rng(11)
    for channels in (1, 2, 4):
        for frames in (1, 2, 5, 9, 17):
            for kernel_width in (1, 2, 5):
                if kernel_width > frames:
                    continue
                x = oracles.dyadic(rng, (channels, frames))
                w = oracles.dyadic(rng, (3, channels, kernel_width))
                b = oracles.dyadic(rng, (3,))
                got = nm.conv1d_forward(x[None], w, b)[0]
                want = oracles.conv1d_loops(x, w, b)
                assert got.dtype == np.float32
                npt.assert_array_equal(got, want)


def _per_sample_case(kernel, rng):
    """(x, call, output shape): a float32 batch of 4 and one call of a kernel
    that keeps each sample's bits whatever its batch."""
    def normal(*shape):
        return rng.normal(size=shape).astype(np.float32)
    x = normal(4, 7) if kernel == "dense" else normal(4, 3, 10)
    if kernel == "conv":
        w, b = normal(2, 3, 3), normal(2)
        return x, lambda x: nm.conv1d_forward(x, w, b), (4, 2, 8)
    if kernel == "pool":
        return x, lambda x: nm.maxpool1d_forward(x, 3, 2), (4, 3, 4)
    if kernel == "dense":
        w, b = normal(5, 7), normal(5)
        return x, lambda x: nm.dense_forward(x, w, b), (4, 5)
    gamma, beta, mean = normal(3), normal(3), normal(3)
    var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
    return x, lambda x: nm.batchnorm_forward_infer(x, gamma, beta, mean, var), (4, 3, 10)


@pytest.mark.parametrize("kernel", ["conv", "pool", "dense", "batchnorm"])
def test_kernel_batched_matches_per_sample(kernel):
    x, call, shape = _per_sample_case(kernel, np.random.default_rng(5))
    batched = call(x)
    assert batched.shape == shape
    for i in range(len(x)):
        npt.assert_array_equal(batched[i:i + 1], call(x[i:i + 1]))


def test_conv_errors():
    w = np.zeros((1, 2, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    with pytest.raises(InputError, match="3 channels but kernels expect 2"):
        nm.conv1d_forward(np.zeros((1, 3, 10), np.float32), w, b)   # channel mismatch
    with pytest.raises(InputError, match="2 frames is shorter than kernel width 3"):
        nm.conv1d_forward(np.zeros((1, 2, 2), np.float32), w, b)    # frames < kernel width
    up = np.zeros((1, 1, 8), np.float32)
    with pytest.raises(InputError, match="weights must be"):
        nm.conv1d_backward(np.zeros((1, 2, 10), np.float32), w[0], up)   # weights with 2 dims
    with pytest.raises(InputError, match="3 channels but kernels expect 2"):
        nm.conv1d_backward(np.zeros((1, 3, 10), np.float32), w, up)      # channel mismatch
    with pytest.raises(InputError, match="2 frames is shorter than kernel width 3"):
        nm.conv1d_backward(np.zeros((1, 2, 2), np.float32), w, up[:, :, :0])   # frames < kernel width
    with pytest.raises(InputError, match="weights must be"):
        nm.conv1d_forward(np.zeros((1, 2, 10), np.float32), w[:, :, :0], b)   # kernel width 0
    with pytest.raises(InputError, match="input must have 3 axes"):
        nm.conv1d_forward(np.zeros((2, 10), np.float32), w, b)      # no batch axis
    with pytest.raises(InputError, match="upstream shape"):
        nm.conv1d_backward(np.zeros((1, 2, 10), np.float32), w, up[0])   # upstream without batch axis


def test_conv_backward_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.5, 1.5, size=(1, 3, 8)).astype(np.float64) * rng.choice([-1, 1], size=(1, 3, 8))
    w = rng.uniform(0.3, 1.0, size=(2, 3, 3)) * rng.choice([-1, 1], size=(2, 3, 3))
    b = rng.uniform(-0.5, 0.5, size=2)
    up = rng.uniform(0.5, 1.5, size=(1, 2, 6)) * rng.choice([-1, 1], size=(1, 2, 6))
    dx, dw, db = nm.conv1d_backward(x, w, up)

    def loss():
        return float(np.sum(nm.conv1d_forward(x, w, b) * up))

    res = nm.gradient_check(loss, [x, w, b], [dx, dw, db], epsilon=1e-5)
    assert res.max_relative_error < 1e-6
    assert res.checked >= 0.9 * (x.size + w.size + b.size)


def test_conv_backward_matches_loop_oracle_bit_exact_on_dyadic_grid():
    rng = np.random.default_rng(23)
    for channels in (1, 2, 3):
        for kernel_width in range(1, 6):
            for frames in range(kernel_width, 20):
                for out_channels in (1, 3):
                    x = oracles.dyadic(rng, (2, channels, frames))
                    w = oracles.dyadic(rng, (out_channels, channels, kernel_width))
                    up = oracles.dyadic(rng, (2, out_channels, frames - kernel_width + 1))
                    dx, dw, db = nm.conv1d_backward(x, w, up)
                    want = [oracles.conv1d_backward_loops(x[b], w, up[b]) for b in range(2)]
                    case = (channels, kernel_width, frames, out_channels)
                    assert dx.tobytes() == np.stack([want[0][0], want[1][0]]).tobytes(), case
                    assert dw.tobytes() == (want[0][1] + want[1][1]).tobytes(), case
                    assert db.tobytes() == (want[0][2] + want[1][2]).tobytes(), case


def test_conv_backward_without_input_grad_keeps_parameter_grads_bit_exact():
    # the dyadic sweep's shapes with normal values: equality needs the same arithmetic
    rng = np.random.default_rng(29)
    for channels in (1, 2, 3):
        for kernel_width in range(1, 6):
            for frames in range(kernel_width, 20):
                for out_channels in (1, 3):
                    x = rng.normal(size=(2, channels, frames)).astype(np.float32)
                    w = rng.normal(size=(out_channels, channels, kernel_width)).astype(np.float32)
                    up = rng.normal(size=(2, out_channels, frames - kernel_width + 1)).astype(np.float32)
                    _, dw, db = nm.conv1d_backward(x, w, up)
                    no_dx, dw_only, db_only = nm.conv1d_backward(x, w, up, input_grad=False)
                    case = (channels, kernel_width, frames, out_channels)
                    assert no_dx is None, case
                    assert dw_only.tobytes() == dw.tobytes(), case
                    assert db_only.tobytes() == db.tobytes(), case


@pytest.mark.parametrize("batch,frames", [(1, 10_500), (8, 2_000)])
@pytest.mark.parametrize("out_channels,channels", [(16, 24), (64, 64)], ids=["conv1", "conv4"])
def test_conv_weight_grad_at_packed_widths_is_exact_on_dyadic_grid(batch, frames, out_channels,
                                                                   channels):
    # e5's conv1 and conv4 channel counts at its packed batch-1 and padded
    # batch-8 widths, long enough for OpenBLAS's large-shape kernels; every
    # partial sum stays below 2**24 sixteenths, so any order is exact
    rng = np.random.default_rng(41)
    kernel_width = 5
    x = oracles.dyadic(rng, (batch, channels, frames + kernel_width - 1))
    w = oracles.dyadic(rng, (out_channels, channels, kernel_width))
    up = oracles.dyadic(rng, (batch, out_channels, frames))
    _, dw, db = nm.conv1d_backward(x, w, up, input_grad=False)
    x64, up64 = x.astype(np.float64), up.astype(np.float64)
    want = np.stack([np.tensordot(up64, x64[:, :, k:k + frames], axes=([0, 2], [0, 2]))
                     for k in range(kernel_width)], axis=2)
    assert dw.tobytes() == want.astype(np.float32).tobytes()
    assert db.tobytes() == up64.sum(axis=(0, 2)).astype(np.float32).tobytes()


@pytest.mark.parametrize("batch", [1, 2])
def test_stacked_conv_input_grad_kernel_is_bitwise_per_tap(batch):
    # float32 normal values on packed-like shapes (one long sequence per
    # sample): equality needs the same products summed in the same order
    rng = np.random.default_rng(31)
    for out_channels, channels, frames, kernel_width in (
            (16, 24, 1500, 5), (32, 16, 700, 5), (64, 32, 350, 5), (64, 64, 180, 5),
            (8, 4, 40, 3), (5, 3, 9, 1)):
        x = rng.normal(size=(batch, channels, frames)).astype(np.float32)
        w = rng.normal(size=(out_channels, channels, kernel_width)).astype(np.float32)
        up = rng.normal(size=(batch, out_channels, frames - kernel_width + 1)).astype(np.float32)
        dx, _, _ = nm.conv1d_backward(x, w, up)
        want = oracles.conv1d_input_grad_per_tap(x.shape, w, up)
        assert dx.tobytes() == want.tobytes(), (out_channels, channels, frames, kernel_width)


def test_stacked_conv_input_grad_kernel_at_one_output_frame_is_close_to_per_tap():
    # with one output frame the stacked product is a matrix-vector product,
    # whose sums BLAS may order differently
    rng = np.random.default_rng(37)
    for batch in (1, 2):
        x = rng.normal(size=(batch, 64, 5)).astype(np.float32)
        w = rng.normal(size=(64, 64, 5)).astype(np.float32)
        up = rng.normal(size=(batch, 64, 1)).astype(np.float32)
        dx, _, _ = nm.conv1d_backward(x, w, up)
        npt.assert_allclose(dx, oracles.conv1d_input_grad_per_tap(x.shape, w, up),
                            rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def test_maxpool_constant_and_examples():
    npt.assert_array_equal(
        nm.maxpool1d_forward(np.array([[[5.0, 5.0, 5.0, 5.0]]], np.float32), 2, 2),
        np.array([[[5.0, 5.0]]], np.float32))
    npt.assert_array_equal(
        nm.maxpool1d_forward(np.array([[[1.0, 3.0, 2.0, 8.0]]], np.float32), 2, 2),
        np.array([[[3.0, 8.0]]], np.float32))
    # trailing frame that does not fill a window is dropped
    npt.assert_array_equal(
        nm.maxpool1d_forward(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]], np.float32), 2, 2),
        np.array([[[2.0, 4.0]]], np.float32))


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for channels in (1, 4):
        for frames in (2, 3, 8, 19, 32):
            for pool in (2, 3):
                for stride in (1, 2, 3):
                    if frames < pool:
                        continue
                    x = rng.normal(size=(channels, frames)).astype(np.float32)
                    npt.assert_array_equal(
                        nm.maxpool1d_forward(x[None], pool, stride)[0],
                        oracles.maxpool1d_loops(x, pool, stride))


def _pool_backward(x, pool, stride, up):
    """maxpool1d_backward on the routes that maxpool1d_forward keeps of x."""
    _, routes = nm.maxpool1d_forward(x, pool, stride, routes=True)
    return nm.maxpool1d_backward(routes, pool, stride, up)


def test_maxpool_backward_routes_to_first_max():
    x = np.array([[[2.0, 2.0, 1.0, 5.0]]], dtype=np.float32)
    up = np.array([[[10.0, 20.0]]], dtype=np.float32)
    dx = _pool_backward(x, 2, 2, up)
    npt.assert_array_equal(dx, np.array([[[10.0, 0.0, 0.0, 20.0]]], np.float32))


def test_maxpool_backward_overlapping_windows_accumulate():
    x = np.array([[[1.0, 9.0, 2.0, 3.0]]], dtype=np.float32)
    up = np.array([[[1.0, 1.0, 1.0]]], dtype=np.float32)   # pool 2, stride 1 -> 3 windows
    dx = _pool_backward(x, 2, 1, up)
    npt.assert_array_equal(dx, np.array([[[0.0, 2.0, 0.0, 1.0]]], np.float32))


def test_maxpool_backward_adds_overlapping_shares_in_window_order():
    # frame 2 is the maximum of all three windows; in float32 (1 + 1e8) - 1e8 is 0
    # while (-1e8 + 1e8) + 1 is 1, so only ascending window order gives 0
    x = np.array([[[0.0, 0.0, 5.0, 0.0, 0.0]]], np.float32)
    up = np.array([[[1.0, 1e8, -1e8]]], np.float32)
    want = np.array([[[0.0, 0.0, 0.0, 0.0, 0.0]]], np.float32)
    npt.assert_array_equal(_pool_backward(x, 3, 1, up), want)
    npt.assert_array_equal(oracles.maxpool1d_backward_loops(x[0], 3, 1, up[0]), want[0])


def test_maxpool_backward_matches_loop_oracle():
    # dyadic values from a 5-point grid: many ties, and sums exact in any order
    rng = np.random.default_rng(17)
    for pool in (1, 2, 3):
        for stride in (1, 2, 3, 4):                 # stride > pool leaves gaps
            for frames in range(pool, pool + 9):
                out_frames = (frames - pool) // stride + 1
                x = oracles.dyadic(rng, (3, 2, frames), step=0.5, span=2)
                up = oracles.dyadic(rng, (3, 2, out_frames))
                dx = _pool_backward(x, pool, stride, up)
                want = np.stack([oracles.maxpool1d_backward_loops(x[b], pool, stride, up[b])
                                 for b in range(3)])
                assert dx.tobytes() == want.tobytes(), (pool, stride, frames)
                assert _pool_backward(x[:1], pool, stride, up[:1]).tobytes() == \
                    want[:1].tobytes()


def test_maxpool_backward_finite_differences():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(1, 2, 11)).astype(np.float64)
    up = rng.normal(size=(1, 2, 5))

    def loss():
        return float(np.sum(nm.maxpool1d_forward(x, 3, 2) * up))

    dx = _pool_backward(x, 3, 2, up)
    res = nm.gradient_check(loss, [x], [dx], epsilon=1e-5)
    assert res.max_relative_error < 1e-6


def test_maxpool_errors():
    with pytest.raises(InputError, match="1 frames is shorter than pool size 2"):
        nm.maxpool1d_forward(np.zeros((1, 1, 1), np.float32), 2, 2)
    with pytest.raises(InputError, match="pool and stride must be >= 1"):
        nm.maxpool1d_forward(np.zeros((1, 1, 4), np.float32), 0, 2)
    with pytest.raises(InputError, match="input must have 3 axes"):
        nm.maxpool1d_forward(np.zeros((1, 4), np.float32), 2, 2)   # no batch axis


# ---------------------------------------------------------------------------
# dense / relu
# ---------------------------------------------------------------------------

def test_dense_worked_example_and_identity():
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = nm.dense_forward(np.array([[1.0, 1.0]], np.float32), w, np.zeros(2, np.float32))
    npt.assert_array_equal(out, np.array([[3.0, 7.0]], np.float32))
    eye = np.eye(3, dtype=np.float32)
    x = np.array([[4.0, -1.0, 2.5]], np.float32)
    npt.assert_array_equal(nm.dense_forward(x, eye, np.zeros(3, np.float32)), x)


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(9)
    x = oracles.dyadic(rng, (6,))
    w = oracles.dyadic(rng, (4, 6))
    b = oracles.dyadic(rng, (4,))
    npt.assert_array_equal(nm.dense_forward(x[None], w, b)[0], oracles.dense_loops(x, w, b))


def test_dense_gemm_kernel_matches_loops_within_float32_tolerance():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(40, 300)).astype(np.float32)
    b = rng.normal(size=40).astype(np.float32)
    for batch in (1, 2, 8):
        x = rng.normal(size=(batch, 300)).astype(np.float32)
        got = nm.dense_forward(x, w, b, per_row=False)
        assert got.shape == (batch, 40) and got.dtype == np.float32
        want = np.stack([oracles.dense_loops(row, w, b) for row in x])
        npt.assert_allclose(got, want, rtol=1e-5, atol=1e-4)
    x = oracles.dyadic(rng, (6,))
    w, b = oracles.dyadic(rng, (4, 6)), oracles.dyadic(rng, (4,))
    npt.assert_array_equal(nm.dense_forward(x[None], w, b, per_row=False)[0],
                           oracles.dense_loops(x, w, b))


def test_dense_backward_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    up = rng.uniform(0.5, 1.5, size=(5, 3)) * rng.choice([-1.0, 1.0], size=(5, 3))
    dx, dw, db = nm.dense_backward(x, w, up)

    def loss():
        return float(np.sum(nm.dense_forward(x, w, b) * up))

    res = nm.gradient_check(loss, [x, w, b], [dx, dw, db], epsilon=1e-5)
    assert res.max_relative_error < 1e-6
    assert res.checked >= x.size + w.size + b.size - 2


def test_dense_errors():
    x, w, b = np.zeros((2, 4), np.float32), np.zeros((3, 4), np.float32), np.zeros(3, np.float32)
    with pytest.raises(InputError):
        nm.dense_forward(x, w[0], b)                        # weights with 1 dim
    with pytest.raises(InputError):
        nm.dense_forward(x, w, b[:2])                       # bias mismatch
    with pytest.raises(InputError):
        nm.dense_forward(x[:, :3], w, b)                    # feature mismatch
    with pytest.raises(InputError):
        nm.dense_backward(x, w, np.zeros((2, 2), np.float32))   # upstream mismatch
    with pytest.raises(InputError):
        nm.dense_forward(x[0], w, b)                        # no batch axis
    with pytest.raises(InputError):
        nm.dense_backward(x, w, np.zeros(3, np.float32))    # upstream without batch axis


def test_relu_forward_and_backward():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    npt.assert_array_equal(nm.relu_forward(x), np.array([0.0, 0.0, 2.0], np.float32))
    up = np.array([5.0, 7.0, 9.0], dtype=np.float32)
    npt.assert_array_equal(nm.relu_backward(x, up), np.array([0.0, 0.0, 9.0], np.float32))


def test_relu_finite_differences_away_from_kink():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12)
    up = rng.uniform(0.5, 1.5, size=12) * rng.choice([-1.0, 1.0], size=12)

    def loss():
        return float(np.sum(nm.relu_forward(x) * up))

    res = nm.gradient_check(loss, [x], [nm.relu_backward(x, up)], epsilon=1e-5)
    assert res.max_relative_error < 1e-6
    assert res.skipped == 0


# ---------------------------------------------------------------------------
# branch-free gradient masks
# ---------------------------------------------------------------------------

_MASK_SETTINGS = settings(max_examples=200, deadline=None, database=None, print_blob=True)
_FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])
_UINT = {np.float32: np.uint32, np.float64: np.uint64}


def _special_floats(dtype, allow_nan=True):
    """Any float of dtype, subnormals included, with -0.0, +-inf (and NaN) drawn often."""
    width = np.finfo(dtype).bits
    specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf] + ([math.nan] if allow_nan else [])
    return st.one_of(st.sampled_from(specials),
                     st.floats(width=width, allow_nan=allow_nan, allow_subnormal=True))


def _upstream(draw, dtype, shape):
    """An upstream gradient of shape (B, C, F), drawn C-contiguous or as the
    transposed view of a (B, F, C) array that BatchNormLayer hands back."""
    batch, channels, frames = shape
    if draw(st.booleans()):
        return draw(hnp.arrays(dtype, shape, elements=_special_floats(dtype)))
    rows = draw(hnp.arrays(dtype, (batch, frames, channels), elements=_special_floats(dtype)))
    return rows.transpose(0, 2, 1)


@_MASK_SETTINGS
@given(data=st.data(), dtype=_FLOAT_DTYPES,
       shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12)))
def test_relu_backward_is_bitwise_np_where(data, dtype, shape):
    x = data.draw(hnp.arrays(dtype, shape, elements=_special_floats(dtype)))
    up = _upstream(data.draw, dtype, shape)
    got = nm.relu_backward(x, up)
    want = np.where(x > 0, up, 0)
    assert got.dtype == want.dtype == dtype
    npt.assert_array_equal(got.view(_UINT[dtype]), want.view(_UINT[dtype]))


@_MASK_SETTINGS
@given(data=st.data(), dtype=_FLOAT_DTYPES, batch=st.integers(1, 3), channels=st.integers(1, 3),
       pool=st.integers(1, 3), stride=st.integers(1, 4), extra=st.integers(0, 8))
def test_maxpool_backward_is_bitwise_loop_oracle(data, dtype, batch, channels, pool, stride, extra):
    # NaN stays out of x only: a window holding NaN has no first maximum to route to
    frames = pool + extra
    x = data.draw(hnp.arrays(dtype, (batch, channels, frames),
                             elements=_special_floats(dtype, allow_nan=False)))
    up = _upstream(data.draw, dtype, (batch, channels, (frames - pool) // stride + 1))
    got = _pool_backward(x, pool, stride, up)
    want = np.stack([oracles.maxpool1d_backward_loops(x[b], pool, stride, up[b])
                     for b in range(batch)])
    assert got.dtype == want.dtype == dtype
    _assert_bits_or_nan(got, want)


def _assert_bits_or_nan(got, oracle):
    """Bit for bit where the oracle is a number, NaN exactly where it is NaN.

    Where a frame adds up NaN shares, IEEE 754 leaves open which operand's
    sign and payload the sum keeps, and NumPy's vector and scalar adds choose
    differently, so the bits of a NaN sum are not compared."""
    nan = np.isnan(oracle)
    npt.assert_array_equal(np.isnan(got), nan)
    uint = _UINT[oracle.dtype.type]
    npt.assert_array_equal(got[~nan].view(uint), oracle[~nan].view(uint))


def test_maxpool_backward_nan_sum_is_compared_as_nan():
    # both windows of [0, 5, 0] route to frame 1, which adds two NaNs of
    # different sign; the loop oracle and the library may keep either's bits
    x = np.array([[[0.0, 5.0, 0.0]]], np.float32)
    up = np.array([[[0x7fc00000, 0xffc00000]]], np.uint32).view(np.float32)
    got = _pool_backward(x, 2, 1, up)
    oracle = oracles.maxpool1d_backward_loops(x[0], 2, 1, up[0])[None]
    assert np.isnan(got[0, 0, 1]) and np.isnan(oracle[0, 0, 1])
    assert got[0, 0, ::2].view(np.uint32).tolist() == [0, 0]
    _assert_bits_or_nan(got, oracle)


def _first_max_loops(x, pool, stride, up, relu):
    """maxpool1d_backward_loops that routes nothing from a window holding NaN
    (it has no first maximum) or, with relu, from one whose maximum is not > 0."""
    dx = np.zeros(x.shape, dtype=x.dtype)
    for b, c in np.ndindex(x.shape[:2]):
        for t in range(up.shape[2]):
            window = x[b, c, t * stride:t * stride + pool]
            if np.isnan(window).any() or (relu and not window.max() > 0):
                continue
            dx[b, c, t * stride + int(np.argmax(window == window.max()))] += up[b, c, t]
    return dx


@_MASK_SETTINGS
@given(data=st.data(), dtype=_FLOAT_DTYPES, batch=st.integers(1, 3), channels=st.integers(1, 3),
       window=st.one_of(st.sampled_from([(2, 2), (3, 1), (2, 3)]),
                        st.tuples(st.integers(1, 3), st.integers(1, 4))),
       extra=st.integers(0, 8))
def test_relu_folded_into_pooling_is_bitwise_relu_then_pool(data, dtype, batch, channels,
                                                            window, extra):
    # the reference runs relu on the whole map, pools, and backpropagates both;
    # NaN may sit in pre too, as np.maximum propagates it in either order
    pool, stride = window
    pre = data.draw(hnp.arrays(dtype, (batch, channels, pool + extra),
                               elements=_special_floats(dtype)))
    activated = nm.relu_forward(pre)
    want_out = nm.maxpool1d_forward(activated, pool, stride)
    up = _upstream(data.draw, dtype, want_out.shape)
    want_dx = nm.relu_backward(pre, _pool_backward(activated, pool, stride, up))
    layer = PoolLayer("pool1", pool, stride)
    out, cache = layer.forward(pre, True)
    dx, grads = layer.backward(cache, up)
    infer, infer_cache = layer.forward(pre, False)
    assert grads == {} and infer_cache is None
    for got, want in ((out, want_out), (infer, want_out), (dx, want_dx)):
        assert got.dtype == want.dtype == dtype
        npt.assert_array_equal(got.view(_UINT[dtype]), want.view(_UINT[dtype]))
    # pool routes and the layer's relu-folded routes against first-max loops,
    # NaN in the pooled map included
    for got, relu in ((_pool_backward(pre, pool, stride, up), False), (dx, True)):
        oracle = _first_max_loops(pre, pool, stride, up, relu)
        assert got.dtype == oracle.dtype == dtype
        _assert_bits_or_nan(got, oracle)


def test_maxpool_routes_errors():
    _, routes = nm.maxpool1d_forward(np.zeros((1, 2, 8), np.float32), 2, 2, routes=True)
    for pool, stride, up in ((3, 2, np.zeros((1, 2, 4), np.float32)),
                             (2, 1, np.zeros((1, 2, 4), np.float32)),
                             (2, 2, np.zeros((1, 2, 3), np.float32)),
                             (2, 2, np.zeros((2, 4), np.float32))):
        with pytest.raises(InputError):
            nm.maxpool1d_backward(routes, pool, stride, up)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

# A (batch, features) input is passed as the (batch, features, 1) view that
# BatchNormLayer builds for per-entry normalization.

def test_batchnorm_train_normalizes_each_feature():
    x = np.array([[1.0], [3.0]], dtype=np.float32)
    out, _ = nm.batchnorm_forward_train(x[:, :, None], np.ones(1, np.float32), np.zeros(1, np.float32))
    npt.assert_allclose(out[:, :, 0], np.array([[-1.0], [1.0]], np.float32), atol=1e-4)

    rng = np.random.default_rng(19)
    x = rng.normal(2.0, 3.0, size=(16, 5)).astype(np.float32)
    out, _ = nm.batchnorm_forward_train(x[:, :, None], np.ones(5, np.float32), np.zeros(5, np.float32))
    npt.assert_allclose(out[:, :, 0].mean(axis=0), np.zeros(5), atol=1e-6)
    npt.assert_allclose(out[:, :, 0].std(axis=0), np.ones(5), atol=1e-3)


def test_batchnorm_infer_identity_with_unit_stats():
    x = np.array([[0.5, -1.0], [2.0, 3.0]], dtype=np.float32)
    out = nm.batchnorm_forward_infer(x[:, :, None], np.ones(2, np.float32), np.zeros(2, np.float32),
                                     np.zeros(2, np.float32), np.ones(2, np.float32))
    npt.assert_allclose(out[:, :, 0], x, rtol=1e-4)


def test_batchnorm_running_update():
    x = np.array([[[0.0]], [[2.0]]], dtype=np.float32)    # batch mean 1, population var 1
    _, cache = nm.batchnorm_forward_train(x, np.ones(1, np.float32), np.zeros(1, np.float32))
    mean, var = nm.batchnorm_update_running(cache, np.zeros(1, np.float32), np.ones(1, np.float32))
    npt.assert_allclose(mean, [0.1], atol=1e-7)
    npt.assert_allclose(var, [1.0], atol=1e-7)


def test_batchnorm_requires_two_rows():
    ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
    with pytest.raises(InputError, match=">= 2 values per channel"):
        nm.batchnorm_forward_train(np.zeros((1, 3, 1), np.float32), ones, zeros)
    with pytest.raises(InputError, match="input must have 3 axes"):
        nm.batchnorm_forward_train(np.zeros((4, 3), np.float32), ones, zeros)   # 2-D input
    with pytest.raises(InputError, match="input must have 3 axes"):
        nm.batchnorm_forward_infer(np.zeros((4, 3), np.float32), ones, zeros, zeros, ones)
    _, cache = nm.batchnorm_forward_train(np.ones((4, 3, 1), np.float32), ones, zeros)
    with pytest.raises(InputError, match="upstream shape"):
        nm.batchnorm_backward(cache, np.zeros((4, 3), np.float32))   # 2-D upstream


def test_batchnorm_backward_finite_differences():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(6, 4, 1))
    gamma = rng.uniform(0.5, 1.5, size=4)
    beta = rng.normal(size=4)
    up = rng.normal(size=(6, 4, 1))

    def loss():
        out, _ = nm.batchnorm_forward_train(x, gamma, beta)
        return float(np.sum(out * up))

    _, cache = nm.batchnorm_forward_train(x, gamma, beta)
    dx, dgamma, dbeta = nm.batchnorm_backward(cache, up)
    res = nm.gradient_check(loss, [x, gamma, beta], [dx, dgamma, dbeta], epsilon=1e-5)
    assert res.max_relative_error < 1e-6
    assert res.checked >= 0.9 * (x.size + gamma.size + beta.size)


# ---------------------------------------------------------------------------
# softmax and losses
# ---------------------------------------------------------------------------

def test_softmax_examples():
    npt.assert_allclose(nm.softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)
    npt.assert_allclose(nm.softmax(np.array([math.log(2.0), 0.0])),
                        np.array([2 / 3, 1 / 3]), atol=1e-12)


def test_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(29)
    logits = rng.normal(size=(20, 6))
    base = nm.softmax(logits)
    npt.assert_allclose(base.sum(axis=1), np.ones(20), atol=1e-6)
    for c in (-50.0, -1.0, 3.5, 200.0):
        npt.assert_allclose(nm.softmax(logits + c), base, atol=1e-6)


def test_softmax_rejects_non_finite_and_single_class():
    with pytest.raises(NumericError):
        nm.softmax(np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        nm.softmax(np.array([1.0]))


def test_cce_perfect_prediction_is_zero():
    targets = nm.one_hot(np.array([0, 1]), 2, dtype=np.float64)
    assert nm.categorical_cross_entropy(targets, targets).value == 0.0


@pytest.mark.parametrize("k", range(2, 11))
def test_cce_uniform_equals_log_k(k):
    probs = np.full((3, k), 1.0 / k, dtype=np.float64)
    targets = nm.one_hot(np.array([0, 1, k - 1]), k, dtype=np.float64)
    loss = nm.categorical_cross_entropy(probs, targets)
    assert abs(loss.value - math.log(k)) < 1e-9
    assert loss.batch_size == 3


def test_cce_rejects_bad_targets_and_probs():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(InputError):
        nm.categorical_cross_entropy(probs, np.array([[0.5, 0.5, 0.0], [1, 0, 0]]))
    with pytest.raises(InputError):
        nm.categorical_cross_entropy(np.array([[0.9, 0.9, 0.9], [1, 0, 0]]),
                                     nm.one_hot(np.array([0, 0]), 3))


def test_cce_clamp_keeps_zero_probability_finite():
    probs = np.array([[0.0, 1.0]], dtype=np.float64)
    targets = np.array([[1.0, 0.0]], dtype=np.float64)
    loss = nm.categorical_cross_entropy(probs, targets)
    assert math.isfinite(loss.value)
    assert abs(loss.value - (-math.log(nm.PROB_FLOOR))) < 1e-6


def test_softmax_cce_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    logits = rng.normal(size=(4, 5))
    targets = nm.one_hot(np.array([0, 2, 4, 2]), 5, dtype=np.float64)

    def loss():
        return nm.categorical_cross_entropy(nm.softmax(logits), targets).value

    grad = nm.softmax_cce_logit_grad(nm.softmax(logits), targets)
    res = nm.gradient_check(loss, [logits], [grad], epsilon=1e-5)
    assert res.max_relative_error < 1e-5
    assert res.checked == logits.size


def test_bce_values():
    assert abs(nm.binary_cross_entropy(np.array([0.5]), np.array([1.0])).value
               - math.log(2.0)) < 1e-9
    loss = nm.binary_cross_entropy(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
    assert abs(loss.value - 0.105360516) < 1e-8
    assert nm.binary_cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0])).value < 1e-10


def test_one_hot_shapes_and_bounds():
    out = nm.one_hot(np.array([2, 0]), 4)
    npt.assert_array_equal(out, np.array([[0, 0, 1, 0], [1, 0, 0, 0]], np.float32))
    with pytest.raises(InputError):
        nm.one_hot(np.array([4]), 4)


# ---------------------------------------------------------------------------
# gradient checker behaviour
# ---------------------------------------------------------------------------

def test_gradient_check_flags_kink_at_relu_zero():
    x = np.array([0.0, 1.0], dtype=np.float64)
    up = np.array([1.0, 1.0])

    def loss():
        return float(np.sum(nm.relu_forward(x) * up))

    res = nm.gradient_check(loss, [x], [nm.relu_backward(x, up)], epsilon=1e-5)
    assert res.skipped_kink == 1
    assert res.checked == 1
    assert res.max_relative_error < 1e-6


def test_gradient_check_catches_wrong_gradient():
    x = np.array([1.0, -2.0, 0.7])

    def loss():
        return float(np.sum(x ** 2))

    wrong = 3.0 * x   # truth is 2x
    res = nm.gradient_check(loss, [x], [wrong], epsilon=1e-5)
    assert res.max_relative_error > 0.3


def test_gradient_check_epsilon_bounds():
    with pytest.raises(InputError):
        nm.gradient_check(lambda: 0.0, [np.zeros(1)], [np.zeros(1)], epsilon=1.0)
