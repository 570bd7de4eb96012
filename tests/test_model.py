"""Tests for network construction, training, gradient flow and model files."""

import contextlib
import dataclasses
import itertools
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from intentcnn.errors import ConfigError, FormatError, InputError, TrainingError
from intentcnn import model as model_module
from intentcnn.model import (
    ADAM_CHUNK,
    BATCHNORM_POSITIONS,
    BatchNormLayer,
    ConvLayer,
    Network,
    NetworkConfig,
    PoolLayer,
    TrainSpec,
    _Adam,
    _batch_plan,
    build_network,
    check_network_gradients,
    deserialize,
    load_model,
    parse_network_config,
    parse_train_spec,
    plan_layers,
    save_model,
    serialize,
    train,
)
from intentcnn.config import KeyReader

from intentcnn.numerics import (categorical_cross_entropy, one_hot, softmax,
                                softmax_cce_logit_grad)
from oracles import (AdamWholeArray, batchnorm_rows_infer, batchnorm_rows_train, dyadic,
                     forward_full_width, simulate_shapes, train_full_width)

SMALL = NetworkConfig(channels=3, input_frames=32, conv_filters=(2, 2), kernel_width=3,
                      pool=2, pool_stride=2, fc_sizes=(8,), num_classes=3)


def make_batch(rng, config, n):
    return rng.normal(0.0, 1.0, size=(n, config.channels, config.input_frames)).astype(np.float32)


def separable_data(config, per_class, seed=0):
    """Two constant-offset classes with small noise: +1 vs -1 baselines."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, level in enumerate((-1.0, 1.0)):
        base = np.full((config.channels, config.input_frames), level, dtype=np.float32)
        for _ in range(per_class):
            xs.append(base + rng.normal(0.0, 0.1, size=base.shape).astype(np.float32))
            ys.append(label)
    order = rng.permutation(len(xs))
    x = np.stack(xs)[order]
    y = np.array(ys, dtype=np.int64)[order]
    return x, y


# ---------------------------------------------------------------------------
# configuration and shape planning
# ---------------------------------------------------------------------------

def test_default_config_plan_matches_oracle():
    config = NetworkConfig()
    plan = [entry for entry in plan_layers(config) if entry[0] != "batchnorm"]
    expected = simulate_shapes(24, 2000, [16, 32, 64, 64], 5, 2, 2, [128, 64], 6)
    assert plan == expected
    # frozen walk of the default geometry
    assert dict(plan)["conv1"] == (16, 1996)
    assert dict(plan)["pool4"] == (64, 121)
    assert dict(plan)["flatten"] == (7744,)


def test_plan_names_underflowing_layer():
    with pytest.raises(ConfigError, match="conv4"):
        plan_layers(NetworkConfig(channels=24, input_frames=64))
    with pytest.raises(ConfigError, match="conv1"):
        plan_layers(NetworkConfig(input_frames=3, kernel_width=5))


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(num_classes=1)
    with pytest.raises(ConfigError):
        NetworkConfig(conv_filters=())
    with pytest.raises(ConfigError):
        NetworkConfig(pool=0)
    with pytest.raises(ConfigError):
        NetworkConfig(batchnorm_position="nowhere")


def test_batchnorm_position_changes_plan():
    after = plan_layers(NetworkConfig(batchnorm_position="after_last_conv"))
    before = plan_layers(NetworkConfig(batchnorm_position="before_first_fc"))
    assert ("batchnorm", (64, 121)) in after
    assert ("batchnorm", (7744,)) in before


def test_parse_network_config_roundtrip():
    pairs = {"model.conv_filters": "4, 8", "model.kernel_width": "3", "model.fc_sizes": "16"}
    config = parse_network_config(KeyReader(pairs))
    assert config.conv_filters == (4, 8)
    assert config.kernel_width == 3
    assert config.fc_sizes == (16,)
    assert config.pool == 2  # default preserved
    for key in ("channels", "input_frames", "num_classes"):     # the data decides these
        reader = KeyReader({**pairs, f"model.{key}": "2"})
        assert parse_network_config(reader) == config
        with pytest.raises(ConfigError, match=rf"unknown key\(s\): model\.{key}$"):
            reader.reject_unknown()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_network_is_deterministic():
    a = build_network(SMALL, seed=11)
    b = build_network(SMALL, seed=11)
    for (name_a, arr_a), (name_b, arr_b) in zip(a.param_items(), b.param_items()):
        assert name_a == name_b
        npt.assert_array_equal(arr_a, arr_b)
    c = build_network(SMALL, seed=12)
    assert any(not np.array_equal(arr_a, arr_c)
               for (_, arr_a), (_, arr_c) in zip(a.param_items(), c.param_items()))


def test_build_network_init_ranges():
    net = build_network(SMALL, seed=0)
    params = dict(net.param_items())
    conv1 = params["conv1.weights"]
    bound = np.sqrt(6.0 / (3 * 3))  # fan_in = in_channels * kernel_width
    assert conv1.shape == (2, 3, 3)
    assert np.max(np.abs(conv1)) <= bound
    assert np.std(conv1) > 0
    npt.assert_array_equal(params["conv1.bias"], np.zeros(2))
    npt.assert_array_equal(params["batchnorm.gamma"], np.ones(2))
    npt.assert_array_equal(params["batchnorm.beta"], np.zeros(2))
    fc1 = params["fc1.weights"]
    assert fc1.shape == (8, 12)  # flatten = 2 channels * 6 frames
    assert np.max(np.abs(fc1)) <= np.sqrt(6.0 / 12)


def test_forward_shapes_and_input_checks():
    net = build_network(SMALL, seed=1)
    rng = np.random.default_rng(0)
    x = make_batch(rng, SMALL, 4)
    logits, caches = net.forward_train(x)
    assert logits.shape == (4, 3)
    assert len(caches) == len(net.layers())
    assert net.forward_infer(x).shape == (4, 3)
    with pytest.raises(InputError):
        net.forward_infer(x[:, :, :10])
    with pytest.raises(InputError):
        net.forward_infer(x[0])


def test_predict_proba_rows_sum_to_one():
    net = build_network(SMALL, seed=2)
    rng = np.random.default_rng(3)
    probs = net.predict_proba(make_batch(rng, SMALL, 5))
    assert probs.shape == (5, 3)
    npt.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-5)


def test_predict_is_batch_grouping_invariant():
    # grouping samples differently must not change a single output bit
    net = build_network(SMALL, seed=4)
    rng = np.random.default_rng(5)
    x = make_batch(rng, SMALL, 6)
    whole = net.predict_proba(x)
    singles = np.stack([net.predict_proba(x[i:i + 1])[0] for i in range(6)])
    npt.assert_array_equal(whole, singles)
    halves = np.concatenate([net.predict_proba(x[:2]), net.predict_proba(x[2:])])
    npt.assert_array_equal(whole, halves)


@pytest.mark.parametrize("overrides", [{}, {"batchnorm_position": "before_first_fc"},
                                       {"fc_sizes": ()}],
                         ids=["default", "before_first_fc", "no_fc"])
def test_predict_rows_are_batch_size_invariant_on_full_size_networks(overrides):
    # a row's probabilities must not change a bit with the batch it rides in
    config = NetworkConfig(**overrides)
    net = build_network(config, seed=11)
    rng = np.random.default_rng(12)
    x = make_batch(rng, config, 13)
    x[::2, :, 1500:] = 0.0                  # zero tail padding, as prepare_input leaves it
    singles = np.concatenate([net.predict_proba(x[i:i + 1]) for i in range(13)])
    for b in (1, 2, 3, 5, 7, 8, 13):
        assert net.predict_proba(x[:b]).tobytes() == singles[:b].tobytes(), b


# small stacks whose pooled columns each read `field` frames, `step` apart
_PREFIX_CONFIGS = {
    "pool-eq-stride": dict(conv_filters=(2, 3, 2), kernel_width=3, pool=2, pool_stride=2),
    "pool3-stride2": dict(conv_filters=(2, 2), kernel_width=3, pool=3, pool_stride=2),
    "pool2-stride3": dict(conv_filters=(3, 2), kernel_width=2, pool=2, pool_stride=3),
    "kernel1": dict(conv_filters=(2, 2), kernel_width=1, pool=2, pool_stride=2),
    "before_first_fc": dict(conv_filters=(2, 2), kernel_width=3, pool=2, pool_stride=2,
                            batchnorm_position="before_first_fc"),
    "no_fc": dict(conv_filters=(2, 2), kernel_width=3, pool=2, pool_stride=2, fc_sizes=()),
}


def _prefix_config(name):
    return NetworkConfig(**{"channels": 3, "input_frames": 45, "fc_sizes": (6,),
                            "num_classes": 3, **_PREFIX_CONFIGS[name]})


def _dyadic_network(config, seed):
    """A network whose conv stack computes exactly: dyadic weights and biases, and
    batchnorm running statistics away from their identity defaults."""
    net = build_network(config, seed=seed)
    rng = np.random.default_rng(seed)
    for key, value in net.param_items():
        if key.startswith("conv"):
            value[...] = dyadic(rng, value.shape, span=4)
    for layer in net.layers():
        if isinstance(layer, BatchNormLayer):
            layer.running_mean = rng.normal(size=layer.running_mean.shape).astype(np.float32)
            layer.running_var = rng.uniform(0.5, 2.0, layer.running_var.shape).astype(np.float32)
    return net


def _live_prefix_batch(rng, config):
    """Sample L is non-zero exactly on its first L frames, for L = 0..input_frames."""
    frames = config.input_frames
    x = dyadic(rng, (frames + 1, config.channels, frames))
    x[x == 0] = 0.25
    x *= np.arange(frames) < np.arange(frames + 1)[:, None, None]
    return x


@pytest.mark.parametrize("name", list(_PREFIX_CONFIGS))
def test_forward_infer_over_live_prefixes_equals_the_full_width_forward(name):
    # dyadic values keep the conv stack exact, so skipping the zero tail and
    # copying its pooled column must not move a bit at any live width
    config = _prefix_config(name)
    net = _dyadic_network(config, seed=7)
    x = _live_prefix_batch(np.random.default_rng(8), config)
    assert net.step > 1 and net.field < config.input_frames
    expected = forward_full_width(net, x)
    assert net.forward_infer(x).tobytes() == expected.tobytes()
    for live in range(config.input_frames + 1):
        assert net.forward_infer(x[live:live + 1]).tobytes() == expected[live].tobytes(), live


@pytest.mark.parametrize("config", [SMALL, _prefix_config("pool2-stride3"), NetworkConfig()],
                         ids=["small", "pool2-stride3", "default"])
def test_forward_infer_without_tail_padding_is_the_full_width_forward(config):
    net = build_network(config, seed=9)
    x = make_batch(np.random.default_rng(10), config, 3)
    assert (x[:, :, -1] != 0).all()
    assert net.forward_infer(x).tobytes() == forward_full_width(net, x).tobytes()


def test_forward_infer_rows_ignore_their_batchmates_live_widths():
    config = _prefix_config("pool-eq-stride")
    net = build_network(config, seed=13)
    x = make_batch(np.random.default_rng(14), config, 8)
    for i, live in enumerate((45, 30, 17, 16, 1, 0)):   # 0: an all-zero sample
        x[i, :, live:] = 0.0
    x[6, :, 5:] = 0.0
    x[6, 1, 33] = np.nan                    # a non-finite tail frame is live
    x[7, :, 3:] = 0.0
    x[7, 0, 37] = np.inf                    # the last frame any pooled column reads
    with np.errstate(invalid="ignore"):
        whole = net.forward_infer(x)
        assert np.isnan(whole[6:]).all() and np.isfinite(whole[:6]).all()
        assert np.isnan(forward_full_width(net, x[6:])).all()
        singles = [net.forward_infer(x[i:i + 1]) for i in range(8)]
        assert whole.tobytes() == np.concatenate(singles).tobytes()
        for order in (np.arange(8)[::-1], np.array([4, 0, 7, 2, 6, 1, 5, 3])):
            assert net.forward_infer(x[order]).tobytes() == whole[order].tobytes()


def _live_tails(net, rng, unit=0.25):
    """Conv biases (multiples of unit) that keep every channel of an all-zero
    input above 0 after each relu, so the zero tail's pooled columns carry a
    value and a gradient."""
    a = np.zeros((1, net.config.channels, net.config.input_frames), net.dtype)
    for layer in net.conv_stack:
        if isinstance(layer, ConvLayer):
            layer.bias[...] = 0.0
            pre = layer.forward(a, False)[0][0, :, -1]
            layer.bias[...] = rng.integers(1, 4, layer.bias.shape) * unit - np.minimum(pre, 0.0)
        a, _ = layer.forward(a, False)
    assert (a > 0).all()
    return net


def _dlogits_of(labels, num_classes):
    targets = one_hot(labels, num_classes)
    return lambda logits: softmax_cce_logit_grad(softmax(logits), targets)


def _packed_step(net, x, dlogits_of):
    """Logits, the pooled map entering the fc stack, and gradients of one packed step."""
    seen = []
    first = net.fc_stack[0]
    original = first.forward
    first.forward = lambda a, train: seen.append(a.copy()) or original(a, train)
    try:
        logits, caches = net.forward_train(x)
    finally:
        del first.forward
    return logits, seen[0].reshape(len(x), *net.conv_out_shape), net.backward(caches, dlogits_of(logits))


@pytest.mark.parametrize("name", list(_PREFIX_CONFIGS))
def test_packed_training_matches_the_full_width_reference(name):
    # every live width 0..input_frames in a shuffled batch: all-zero samples,
    # unpadded ones, widths below step, and tails whose gradient is folded
    config = _prefix_config(name)
    rng = np.random.default_rng(21)
    net = _live_tails(build_network(config, seed=20, dtype=np.float64), rng)
    x = _live_prefix_batch(rng, config).astype(np.float64)
    x = x[rng.permutation(len(x))] * rng.uniform(0.5, 1.5, x.shape)
    dlogits_of = _dlogits_of(rng.integers(0, config.num_classes, len(x)), config.num_classes)
    want_logits, want_pooled, want = train_full_width(net, x, dlogits_of)
    logits, pooled, grads = _packed_step(net, x, dlogits_of)
    assert sorted(grads) == sorted(want)
    # gradients relative to their largest entry: some, such as the bias of a
    # conv whose channel batchnorm then centers, are rounding noise around 0
    scale = max(np.abs(ref).max() for ref in want.values())
    for got, ref, top in [(logits, want_logits, np.abs(want_logits).max()),
                          (pooled, want_pooled, np.abs(want_pooled).max())] + [
            (grads[key], want[key], scale) for key in want]:
        assert got.shape == ref.shape and got.dtype == np.float64
        assert np.abs(got - ref).max() <= 1e-12 * top


@pytest.mark.parametrize("name", list(_PREFIX_CONFIGS))
def test_packed_training_pooled_map_is_bitwise_the_full_width_map(name):
    # dyadic conv weights and inputs keep the conv stack exact, so packing
    # must not move a bit of the map the fc stack reads
    config = _prefix_config(name)
    net = _live_tails(_dyadic_network(config, seed=22), np.random.default_rng(27))
    x = _live_prefix_batch(np.random.default_rng(23), config)
    x = x[np.random.default_rng(24).permutation(len(x))]
    dlogits_of = _dlogits_of(np.arange(len(x)) % config.num_classes, config.num_classes)
    want_logits, want_pooled, _ = train_full_width(net, x, dlogits_of)
    logits, pooled, _ = _packed_step(net, x, dlogits_of)
    assert pooled.tobytes() == want_pooled.tobytes()
    assert logits.tobytes() == want_logits.tobytes()


def test_packed_training_gradients_float64_on_zero_padded_inputs():
    # step 4 on SMALL: an all-zero sample, an unpadded one, widths below step
    assert build_network(SMALL).step == 4
    rng = np.random.default_rng(25)
    net = _live_tails(build_network(SMALL, seed=26, dtype=np.float64), rng)
    lives = (0, 32, 3, 17, 1, 9, 25, 30)
    x = rng.normal(0.0, 1.0, size=(len(lives), 3, 32))
    x *= np.arange(32) < np.array(lives)[:, None, None]
    result = check_network_gradients(net, x, np.arange(len(lives)) % 3,
                                     epsilon=1e-5, target_rel_tol=1e-6)
    assert result.max_relative_error < 1e-6
    assert result.checked > 0.8 * (result.checked + result.skipped)


def test_batchnorm_per_channel_normalizes_channels():
    net = build_network(SMALL, seed=6)
    bn = [l for l in net.layers() if isinstance(l, BatchNormLayer)]
    assert len(bn) == 1 and bn[0].gamma.shape == (SMALL.conv_filters[-1],)
    x = np.random.default_rng(6).normal(3.0, 2.0, size=(4, 2 * 6)).astype(np.float32)
    out = bn[0].forward(x, True)[0].reshape(4, 2, 6)    # (batch, channels, frames)
    npt.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
    npt.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-3)
    fc_net = build_network(
        NetworkConfig(channels=3, input_frames=32, conv_filters=(2, 2), kernel_width=3,
                      pool=2, pool_stride=2, fc_sizes=(8,), num_classes=3,
                      batchnorm_position="before_first_fc"), seed=6)
    bn2 = [l for l in fc_net.fc_stack if isinstance(l, BatchNormLayer)]
    assert len(bn2) == 1
    assert bn2[0].gamma.shape == (12,)


def _batchnorm_layer(position, seed):
    """The batchnorm layer of an e5-shaped stack's head in ``position``, with
    non-trivial parameters and running statistics, and its input width."""
    rng = np.random.default_rng(seed)
    config = NetworkConfig(channels=3, input_frames=64, conv_filters=(4, 6), kernel_width=3,
                           pool=2, pool_stride=2, fc_sizes=(8,), num_classes=3,
                           batchnorm_position=position)
    bn = next(l for l in build_network(config, seed=seed).fc_stack if isinstance(l, BatchNormLayer))
    for name in ("gamma", "beta", "running_mean"):
        setattr(bn, name, rng.normal(size=bn.gamma.shape).astype(np.float32))
    bn.running_var = rng.uniform(0.2, 3.0, size=bn.gamma.shape).astype(np.float32)
    return bn, 6 * 14, rng


@pytest.mark.parametrize("position", BATCHNORM_POSITIONS)
def test_batchnorm_view_kernel_infer_is_bitwise_row_formula(position):
    bn, width, rng = _batchnorm_layer(position, 41)
    for batch in (1, 8):
        x = rng.normal(1.0, 2.0, size=(batch, width)).astype(np.float32)
        assert bn.forward(x, False)[0].tobytes() == batchnorm_rows_infer(bn, x).tobytes()


@pytest.mark.parametrize("position", BATCHNORM_POSITIONS)
def test_batchnorm_view_kernel_train_matches_row_formula(position):
    bn, width, rng = _batchnorm_layer(position, 43)
    x = rng.normal(1.0, 2.0, size=(8, width)).astype(np.float32)
    up = rng.normal(size=(8, width)).astype(np.float32)
    out, cache = bn.forward(x, True)
    dx, grads = bn.backward(cache, up)
    want_out, want_dx, dgamma, dbeta, mean, var = batchnorm_rows_train(bn, x, up)
    assert out.shape == dx.shape == x.shape and out.dtype == dx.dtype == np.float32
    npt.assert_allclose(out, want_out, rtol=1e-5, atol=1e-5)
    npt.assert_allclose(dx, want_dx, rtol=1e-4, atol=1e-5)
    npt.assert_allclose(grads["batchnorm.gamma"], dgamma, rtol=1e-5, atol=1e-4)
    npt.assert_allclose(grads["batchnorm.beta"], dbeta, rtol=1e-5, atol=1e-4)
    npt.assert_allclose(cache.batch_mean, mean, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(cache.batch_var, var, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients through the whole stack
# ---------------------------------------------------------------------------

def test_full_network_gradients_float64():
    net = build_network(SMALL, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, size=(4, 3, 32))
    labels = np.array([0, 1, 2, 1])
    result = check_network_gradients(net, x, labels, epsilon=1e-5, target_rel_tol=1e-6)
    assert result.max_relative_error < 1e-6
    total = result.checked + result.skipped
    assert result.checked > 0.8 * total


def test_full_network_gradients_float64_bn_before_fc():
    config = NetworkConfig(channels=2, input_frames=24, conv_filters=(2,), kernel_width=3,
                           pool=2, pool_stride=2, fc_sizes=(6,), num_classes=2,
                           batchnorm_position="before_first_fc")
    net = build_network(config, seed=9, dtype=np.float64)
    rng = np.random.default_rng(10)
    x = rng.normal(0.0, 1.0, size=(4, 2, 24))
    result = check_network_gradients(net, x, np.array([0, 1, 0, 1]),
                                     epsilon=1e-5, target_rel_tol=1e-6)
    assert result.max_relative_error < 1e-6


# ---------------------------------------------------------------------------
# pool layers: the calls a per-layer profile times, and what backward keeps
# ---------------------------------------------------------------------------

def test_train_step_calls_each_pool_primitive_once_per_pool_layer(monkeypatch):
    # the per-layer profile names pool1..4 and costs them from the calls that
    # intentcnn.model makes through its own namespace, by their positional
    # arguments: the packed conv output (1, C, F), pool, stride
    calls = {"forward": [], "backward": []}
    for kind, recorded in calls.items():
        original = getattr(model_module, f"maxpool1d_{kind}")

        def recorder(*args, _original=original, _recorded=recorded, **kwargs):
            _recorded.append((args, kwargs))
            return _original(*args, **kwargs)
        monkeypatch.setattr(model_module, f"maxpool1d_{kind}", recorder)
    config = NetworkConfig()
    x = make_batch(np.random.default_rng(0), config, 11)
    lives = np.array([2000, 1600, 1201, 802, 900, 1000, 1100, 1985])
    x[:8] *= np.arange(2000) < lives[:, None, None]
    y = np.arange(11) % config.num_classes
    train(build_network(config, seed=0), x[:8], y[:8], x[8:], y[8:],
          TrainSpec(epochs=1, batch_size=8))
    # the default network's pooled columns are 16 frames apart and read 76
    widths = np.minimum(-(-lives // 16) * 16 + 76, 2000)
    frames = int((-(-widths // 16) * 16).sum())
    shapes = []
    for filters in config.conv_filters:
        frames -= config.kernel_width - 1
        shapes.append((1, filters, frames))
        frames = (frames - config.pool) // config.pool_stride + 1
    for kind, order in (("forward", shapes), ("backward", shapes[::-1])):
        # the training step's forward keeps routes; validation's batch-1 calls do not
        step = [args for args, kwargs in calls[kind] if kind == "backward" or kwargs.get("routes")]
        assert [tuple(args[0].shape) for args in step] == order
        assert [args[1:3] for args in step] == [(config.pool, config.pool_stride)] * len(order)


def test_train_calls_the_forward_methods_a_step_clock_wraps(monkeypatch):
    # perfbench times a training step from one Network.forward_train call to
    # the next call of forward_train or forward_infer (the epoch's validation),
    # both looked up in vars(Network), and per layer from the kernels that
    # intentcnn.model calls through its own namespace
    assert {"forward_train", "forward_infer"} <= set(vars(Network))
    calls = {"forward_train": 0, "forward_infer": 0}
    current, conv_modes = [None], set()
    for method in calls:
        def recorder(self, x, _original=vars(Network)[method], _method=method):
            calls[_method] += 1
            current[0] = _method
            try:
                return _original(self, x)
            finally:
                current[0] = None
        monkeypatch.setattr(Network, method, recorder)
    conv = model_module.conv1d_forward
    monkeypatch.setattr(model_module, "conv1d_forward",
                        lambda *args: conv_modes.add(current[0]) or conv(*args))
    x, y = separable_data(SMALL, per_class=5)
    epochs, batch_size = 3, 4
    train(build_network(SMALL, seed=4), x[:8], y[:8] % 3, x[8:], y[8:] % 3,
          TrainSpec(epochs=epochs, batch_size=batch_size, patience=epochs))
    assert calls == {"forward_train": epochs * len(_batch_plan(8, batch_size)),
                     "forward_infer": epochs}
    assert conv_modes == {"forward_train", "forward_infer"}


def _kept_arrays(obj) -> list[np.ndarray]:
    """The arrays a layer cache keeps alive: for a view, the array it views."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return list({id(a): a for item in obj for a in _kept_arrays(item)}.values())
    return []


def test_pool_layer_cache_frees_the_conv_output():
    pre = np.random.default_rng(1).normal(size=(8, 16, 1996)).astype(np.float32)
    _, cache = PoolLayer("pool1", 2, 2).forward(pre, True)
    kept = _kept_arrays(cache)
    assert kept and all(a.shape != pre.shape for a in kept)
    assert sum(a.nbytes for a in kept) <= pre.nbytes / 4


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_batch_plan_drops_trailing_singleton():
    assert _batch_plan(10, 8) == [0, 8]
    assert _batch_plan(9, 8) == [0]
    assert _batch_plan(8, 8) == [0]
    assert _batch_plan(17, 8) == [0, 8]
    assert _batch_plan(2, 8) == [0]


def test_train_spec_validation():
    with pytest.raises(ConfigError):
        TrainSpec(batch_size=1)
    with pytest.raises(ConfigError):
        TrainSpec(optimizer="adagrad")
    with pytest.raises(ConfigError):
        TrainSpec(learning_rate=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_adam_is_bitwise_the_whole_array_formula(dtype):
    sizes = [1, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5]
    rng = np.random.default_rng(7)
    shapes = [(n,) for n in sizes] + [(5, 3, 7)]
    start = [rng.normal(0.0, 0.1, size=shape).astype(dtype) for shape in shapes]
    params = [(f"p{i}", value.copy()) for i, value in enumerate(start)]
    reference = [(f"p{i}", value.copy()) for i, value in enumerate(start)]
    spec = TrainSpec(learning_rate=3e-3)
    adam, oracle = _Adam(spec, params), AdamWholeArray(spec)
    for step in range(1, 5):
        # gradients over many decades, so the sqrt and division round often
        grads = {key: (rng.standard_normal(value.shape)
                       * 10.0 ** rng.uniform(-9, 3, size=value.shape)).astype(dtype)
                 for key, value in params}
        adam.update(params, grads, step)
        oracle.apply(reference, grads)
    for (key, got), (_, want) in zip(params, reference):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), key
        assert adam.m[key].tobytes() == oracle.m[key].tobytes(), key
        assert adam.v[key].tobytes() == oracle.v[key].tobytes(), key


def test_an_sgd_step_moves_every_parameter_by_exactly_lr_times_its_gradient():
    x, y = separable_data(SMALL, per_class=5)
    spec = TrainSpec(epochs=1, batch_size=8, learning_rate=0.05, optimizer="sgd", seed=3)
    net = build_network(SMALL, seed=21)
    before = {key: value.copy() for key, value in net.param_items()}
    # train's first batch is its seed's permutation of the 8 training samples
    take = np.random.default_rng(spec.seed).permutation(8)
    logits, caches = net.forward_train(x[take])
    grads = net.backward(caches, softmax_cce_logit_grad(softmax(logits),
                                                        one_hot(y[take], SMALL.num_classes)))
    result = train(net, x[:8], y[:8], x[8:], y[8:], spec)
    assert result.best_epoch == 0
    for key, value in net.param_items():
        assert value.dtype == grads[key].dtype == np.float32, key
        want = before[key] - np.float32(spec.learning_rate) * grads[key]
        assert value.tobytes() == want.tobytes(), key
        assert value.tobytes() != before[key].tobytes(), key


def test_train_learns_separable_classes():
    config = NetworkConfig(channels=3, input_frames=32, conv_filters=(2, 2), kernel_width=3,
                           pool=2, pool_stride=2, fc_sizes=(8,), num_classes=2)
    net = build_network(config, seed=13)
    x, y = separable_data(config, per_class=10)
    spec = TrainSpec(epochs=20, batch_size=4, learning_rate=1e-2, patience=10, seed=1)
    result = train(net, x[:14], y[:14], x[14:], y[14:], spec)
    assert result.history[0].train_loss > result.history[-1].train_loss * 0.9
    assert result.history[result.best_epoch].val_macro_f1 == 1.0
    npt.assert_array_equal(np.argmax(net.predict_proba(x[14:]), axis=-1), y[14:])


def test_train_is_deterministic():
    config = SMALL
    x, y = separable_data(config, per_class=6)
    y = y % config.num_classes
    spec = TrainSpec(epochs=4, batch_size=4, learning_rate=1e-3, seed=5)
    results = []
    for _ in range(2):
        net = build_network(config, seed=3)
        result = train(net, x[:8], y[:8], x[8:], y[8:], spec)
        results.append((result, dict(net.param_items())))
    hist_a, hist_b = results[0][0].history, results[1][0].history
    assert [(r.train_loss, r.val_loss, r.val_macro_f1) for r in hist_a] == \
           [(r.train_loss, r.val_loss, r.val_macro_f1) for r in hist_b]
    for key in results[0][1]:
        npt.assert_array_equal(results[0][1][key], results[1][1][key])


def test_train_restores_best_epoch():
    config = SMALL
    x, y = separable_data(config, per_class=8)
    y = y % config.num_classes
    net = build_network(config, seed=21)
    spec = TrainSpec(epochs=8, batch_size=4, learning_rate=5e-3, patience=8, seed=2)
    result = train(net, x[:10], y[:10], x[10:], y[10:], spec)
    best = min(result.history, key=lambda r: r.val_loss)
    assert result.best_epoch == best.epoch
    assert result.best_val_loss == best.val_loss
    # the returned network must reproduce the best recorded validation loss
    from intentcnn.model import _validate
    val_loss, _ = _validate(net, x[10:], y[10:])
    assert val_loss == pytest.approx(best.val_loss, rel=1e-6)


def test_train_early_stopping_on_plateau():
    config = SMALL
    x, y = separable_data(config, per_class=6)
    y = y % config.num_classes
    net = build_network(config, seed=17)
    # a learning rate this small cannot move the loss: epoch 0 stays the best
    spec = TrainSpec(epochs=30, batch_size=4, learning_rate=1e-12, patience=3, seed=0)
    result = train(net, x[:8], y[:8], x[8:], y[8:], spec)
    assert result.stopped_early
    assert len(result.history) <= 1 + 3 + 1
    assert result.best_epoch == 0


def test_train_rejects_bad_inputs():
    net = build_network(SMALL, seed=0)
    rng = np.random.default_rng(0)
    x = make_batch(rng, SMALL, 6)
    y = np.array([0, 1, 2, 0, 1, 2])
    spec = TrainSpec(epochs=1)
    with pytest.raises(InputError, match="non-empty validation set"):
        train(net, x, y, x[:0], y[:0], spec)  # empty validation set
    with pytest.raises(InputError, match="6 training samples vs 4 labels"):
        train(net, x, y[:4], x, y, spec)
    with pytest.raises(InputError, match="training labels outside"):
        train(net, x, y + 5, x, y, spec)


def test_train_raises_on_nonfinite():
    net = build_network(SMALL, seed=1)
    net.conv_stack[0].weights[0, 0, 0] = np.nan
    rng = np.random.default_rng(2)
    x = make_batch(rng, SMALL, 4)
    y = np.array([0, 1, 2, 0])
    with pytest.raises(TrainingError) as info:
        train(net, x, y, x, y, TrainSpec(epochs=1, batch_size=4))
    assert info.value.epoch == 0
    assert info.value.batch == 0


def _tailed_data(config, n, seed):
    """n samples whose tails are zero from a random frame on, so that the
    packed forward folds tail columns; labels cycle through the classes."""
    rng = np.random.default_rng(seed)
    x = make_batch(rng, config, n)
    for sample, live in zip(x, rng.integers(config.input_frames // 4, config.input_frames + 1,
                                            size=n)):
        sample[:, live:] = 0.0
    return x, np.arange(n) % config.num_classes


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("position", BATCHNORM_POSITIONS)
@pytest.mark.parametrize("fc_sizes", [(8, 5), ()])
def test_packed_training_writes_the_bytes_of_a_serial_loop(optimizer, position, fc_sizes):
    # train updates the fc stack on a helper thread during the conv backward;
    # a serial loop with one whole-network update per step is the reference
    config = dataclasses.replace(SMALL, batchnorm_position=position, fc_sizes=fc_sizes)
    x, y = _tailed_data(config, 15, seed=31)
    spec = TrainSpec(epochs=2, batch_size=4, learning_rate=0.02, optimizer=optimizer,
                     patience=2, seed=8)
    net = build_network(config, seed=32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # the two threads interleave as finely as they can
    try:
        result = train(net, x[:9], y[:9], x[9:], y[9:], spec)
    finally:
        sys.setswitchinterval(interval)

    ref = build_network(config, seed=32)
    opt = (_Adam(spec, ref.param_items()) if optimizer == "adam"
           else model_module._Sgd(spec))
    rng = np.random.default_rng(spec.seed)
    states, history, step = [], [], 0
    for _ in range(spec.epochs):
        perm = rng.permutation(9)
        loss_sum, count = 0.0, 0
        for start in _batch_plan(9, spec.batch_size):     # 9 = 4 + 4, the last one dropped
            take = perm[start:start + spec.batch_size]
            targets = one_hot(y[take], config.num_classes)
            logits, caches = ref.forward_train(x[take])
            probs = softmax(logits)
            loss = categorical_cross_entropy(probs, targets)
            grads = ref.backward(caches, softmax_cce_logit_grad(probs, targets))
            ref.update_running_stats(caches)
            step += 1
            opt.update(ref.param_items(), grads, step)
            loss_sum, count = loss_sum + loss.value * loss.batch_size, count + loss.batch_size
        states.append(serialize(ref))
        history.append((loss_sum / count, *model_module._validate(ref, x[9:], y[9:])))
    assert [(r.train_loss, r.val_loss, r.val_macro_f1) for r in result.history] == history
    best = min(range(spec.epochs), key=lambda e: history[e][1])
    assert result.best_epoch == best
    assert serialize(net) == states[best]
    assert states[0] != states[1]


def _active_threads_after(run):
    """What ``run`` raised, and how many threads it left alive beside the ones
    alive before it (a thread of another test that ends meanwhile is no count)."""
    before = set(threading.enumerate())
    with pytest.raises(Exception) as info:
        run()
    return info.value, len(set(threading.enumerate()) - before)


def test_an_error_on_either_thread_of_a_training_step_reaches_the_caller(monkeypatch):
    x, y = _tailed_data(SMALL, 12, seed=33)
    spec = TrainSpec(epochs=2, batch_size=4, seed=9)
    original = _Adam.update
    threads = []

    def fc_update_fails(self, params, grads, step):
        threads.append(threading.current_thread())
        if threads[-1] is not threading.main_thread() and step == 2:
            raise RuntimeError("fc update failed")
        original(self, params, grads, step)

    monkeypatch.setattr(_Adam, "update", fc_update_fails)
    error, left = _active_threads_after(
        lambda: train(build_network(SMALL, seed=34), x[:8], y[:8], x[8:], y[8:], spec))
    assert (type(error), str(error), left) == (RuntimeError, "fc update failed", 0)
    helpers = {t for t in threads if t is not threading.main_thread()}
    assert len(helpers) == 1 and len(threads) == 4     # conv and fc shares of two steps
    monkeypatch.undo()

    def conv_backward_fails(*args, **kwargs):
        raise RuntimeError("conv backward failed")

    monkeypatch.setattr(model_module, "conv1d_backward", conv_backward_fails)
    error, left = _active_threads_after(
        lambda: train(build_network(SMALL, seed=34), x[:8], y[:8], x[8:], y[8:], spec))
    assert (type(error), str(error), left) == (RuntimeError, "conv backward failed", 0)
    monkeypatch.undo()

    def fc_update_poisons(self, params, grads, step):     # the next forward is not finite
        original(self, params, grads, step)
        if threading.current_thread() is not threading.main_thread():
            params[0][1][0] = np.nan

    monkeypatch.setattr(_Adam, "update", fc_update_poisons)
    error, left = _active_threads_after(
        lambda: train(build_network(SMALL, seed=34), x[:8], y[:8], x[8:], y[8:], spec))
    assert (type(error), error.epoch, error.batch, left) == (TrainingError, 0, 1, 0)


def test_the_fc_stack_update_keeps_the_callers_floating_point_error_settings(monkeypatch):
    x, y = _tailed_data(SMALL, 12, seed=35)
    original = _Adam.update
    seen = []

    def recording(self, params, grads, step):
        seen.append(np.geterr())
        original(self, params, grads, step)

    monkeypatch.setattr(_Adam, "update", recording)
    settings = dict(divide="raise", over="raise", under="ignore", invalid="raise")
    with np.errstate(**settings):
        train(build_network(SMALL, seed=36), x[:8], y[:8], x[8:], y[8:],
              TrainSpec(epochs=1, batch_size=4, seed=10))
    assert seen == [settings] * 4


def test_each_step_number_reaches_both_shares_once_and_carries_across_epochs(monkeypatch):
    x, y = _tailed_data(SMALL, 12, seed=37)
    original = _Adam.update
    seen = []

    def recording(self, params, grads, step):
        seen.append((step, threading.current_thread() is threading.main_thread()))
        original(self, params, grads, step)

    monkeypatch.setattr(_Adam, "update", recording)
    result = train(build_network(SMALL, seed=38), x[:8], y[:8], x[8:], y[8:],
                   TrainSpec(epochs=2, batch_size=4, seed=11))
    assert len(result.history) == 2                     # two epochs of two steps
    assert sorted(seen) == [(step, main) for step in (1, 2, 3, 4) for main in (False, True)]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_training_writes_no_attribute_or_moment_entry_of_its_optimizer(monkeypatch, optimizer):
    # the two shares update at once, so only the arrays they own may change
    x, y = _tailed_data(SMALL, 12, seed=39)
    cls = _Adam if optimizer == "adam" else model_module._Sgd
    original = cls.__init__
    made = []

    def recording(self, *args):
        original(self, *args)
        made.append((self, dict(vars(self)),
                     {name: dict(table) for name, table in vars(self).items()
                      if isinstance(table, dict)}))

    monkeypatch.setattr(cls, "__init__", recording)
    net = build_network(SMALL, seed=40)
    train(net, x[:8], y[:8], x[8:], y[8:],
          TrainSpec(epochs=2, batch_size=4, optimizer=optimizer, seed=12))
    [(opt, attributes, tables)] = made
    assert type(opt) is cls
    assert vars(opt).keys() == attributes.keys()
    assert all(vars(opt)[name] is value for name, value in attributes.items())
    for name, entries in tables.items():
        table = getattr(opt, name)
        assert table.keys() == entries.keys() == {key for key, _ in net.param_items()}
        assert all(table[key] is array for key, array in entries.items())
        assert all(array.any() for array in table.values()), name    # updated in place
    assert set(tables) == ({"m", "v"} if optimizer == "adam" else set())


def test_running_stats_move_during_training():
    net = build_network(SMALL, seed=2)
    bn = next(l for l in net.layers() if isinstance(l, BatchNormLayer))
    before = bn.running_mean.copy()
    rng = np.random.default_rng(3)
    x = make_batch(rng, SMALL, 8) + 5.0
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    train(net, x, y, x, y, TrainSpec(epochs=1, batch_size=4, seed=0))
    bn_after = next(l for l in net.layers() if isinstance(l, BatchNormLayer))
    assert not np.array_equal(bn_after.running_mean, before)


def test_parse_train_spec():
    reader = KeyReader({"train.epochs": "5", "train.learning_rate": "0.01",
                        "train.optimizer": "sgd"})
    spec = parse_train_spec(reader)
    assert spec.epochs == 5
    assert spec.learning_rate == pytest.approx(0.01)
    assert spec.optimizer == "sgd"
    assert spec.batch_size == 8  # default preserved


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_serialize_round_trip_bytes_and_predictions():
    net = build_network(SMALL, seed=31)
    rng = np.random.default_rng(32)
    x = make_batch(rng, SMALL, 8) * 2.0
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    train(net, x, y, x, y, TrainSpec(epochs=2, batch_size=4, seed=0))
    blob = serialize(net)
    clone = deserialize(blob)
    assert serialize(clone) == blob
    assert clone.config == net.config
    for (name_a, arr_a), (name_b, arr_b) in zip(net.param_items(), clone.param_items()):
        assert name_a == name_b
        npt.assert_array_equal(arr_a, arr_b)
    probe = make_batch(rng, SMALL, 3)
    npt.assert_array_equal(net.predict_proba(probe), clone.predict_proba(probe))


def test_save_and_load_model_file(tmp_path):
    net = build_network(SMALL, seed=33)
    path = str(tmp_path / "model.intc")
    save_model(net, path)
    clone = load_model(path)
    npt.assert_array_equal(clone.conv_stack[0].weights, net.conv_stack[0].weights)
    assert clone.config == net.config


def _trained_small_network(seed):
    """A SMALL network after one epoch, so its running statistics are not 0 and 1."""
    net = build_network(SMALL, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = make_batch(rng, SMALL, 8) + 1.5
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    train(net, x, y, x, y, TrainSpec(epochs=1, batch_size=4, seed=0))
    return net


def _state_arrays(net):
    """Every parameter and running statistic of a network, named."""
    items = list(net.param_items())
    for layer in net.layers():
        if isinstance(layer, BatchNormLayer):
            items += [(f"{layer.name}.running_mean", layer.running_mean),
                      (f"{layer.name}.running_var", layer.running_var)]
    return items


def _load_through_a_fifo(path):
    """load_model on a file that cannot seek: a FIFO that one thread writes."""
    fifo = path.with_suffix(".fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    network = load_model(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    return network


_LOADERS = {"file": lambda path: load_model(str(path)),
            "fifo": _load_through_a_fifo,
            "bytes": lambda path: deserialize(path.read_bytes()),
            "bytearray": lambda path: deserialize(bytearray(path.read_bytes()))}


@pytest.mark.parametrize("source", list(_LOADERS))
def test_load_model_arrays_are_writable_float32_and_share_no_memory(tmp_path, source):
    path = tmp_path / "model.intc"
    save_model(_trained_small_network(43), str(path))
    arrays = _state_arrays(_LOADERS[source](path))
    assert len(arrays) == 12                      # 2 convs, batchnorm (4), 2 denses
    for name, arr in arrays:
        assert arr.dtype == np.float32, name
        assert arr.flags.writeable and arr.flags.c_contiguous, name
    for (name_a, a), (name_b, b) in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b), (name_a, name_b)


def test_deserialize_of_bytes_bytearray_and_load_model_serialize_alike(tmp_path):
    path = tmp_path / "model.intc"
    blob = serialize(_trained_small_network(44))
    path.write_bytes(blob)
    for source, load in _LOADERS.items():
        assert serialize(load(path)) == blob, source


def _load_a_fifo_fed(tmp_path, head: bytes, zero_mib: int) -> tuple[int, str]:
    """The tracemalloc peak of load_model on a FIFO that gets ``head``, then
    ``zero_mib`` MiB of zeros; load_model must raise a FormatError.  The writer
    sends slices of one buffer made beforehand, so the peak is the reader's."""
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    zeros = memoryview(bytes(2 ** 20))

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb", buffering=0) as fh:
            fh.write(head)
            for _ in range(zero_mib):
                fh.write(zeros)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            load_model(str(fifo))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.join(timeout=10)
    assert not writer.is_alive()
    return peak, str(info.value)


def test_a_piped_model_with_a_bad_magic_is_refused_after_four_bytes(tmp_path):
    peak, message = _load_a_fifo_fed(tmp_path, b"", 64)
    assert message == r"bad magic b'\x00\x00\x00\x00' at byte 0, expected b'INTC'"
    assert peak < 2 ** 20                               # reading the pipe whole takes 64 MiB


def test_a_piped_model_with_trailing_bytes_is_held_once(tmp_path):
    blob = serialize(build_network(SMALL, seed=49))
    peak, message = _load_a_fifo_fed(tmp_path, blob, 16)
    assert message == (f"{16 * 2 ** 20} trailing bytes after the last record "
                       f"(at byte {len(blob)})")
    assert peak < 1.3 * (len(blob) + 16 * 2 ** 20)      # a read and a copy of it take 2x


def test_a_training_step_on_a_loaded_model_is_bitwise_one_on_a_deserialized_clone(tmp_path):
    net = _trained_small_network(45)
    path = tmp_path / "model.intc"
    save_model(net, str(path))
    blob = path.read_bytes()
    x = make_batch(np.random.default_rng(46), SMALL, 8)
    targets = one_hot(np.array([0, 1, 2, 0, 1, 2, 0, 1]), SMALL.num_classes)
    stepped = []
    for copy in (load_model(str(path)), _load_through_a_fifo(path), deserialize(serialize(net)),
                 net):
        logits, caches = copy.forward_train(x)
        grads = copy.backward(caches, softmax_cce_logit_grad(softmax(logits), targets))
        copy.update_running_stats(caches)
        _Adam(TrainSpec(), copy.param_items()).update(copy.param_items(), grads, 1)
        stepped.append(serialize(copy))
    assert stepped[0] == stepped[1] == stepped[2] == stepped[3] != blob
    assert path.read_bytes() == blob                # the step wrote to no page of the file


def test_a_loaded_network_keeps_its_weights_when_save_model_replaces_its_file(tmp_path):
    path = tmp_path / "model.intc"
    save_model(_trained_small_network(47), str(path))
    loaded = load_model(str(path))
    blob = path.read_bytes()
    save_model(build_network(SMALL, seed=48), str(path))
    assert path.read_bytes() != blob
    assert serialize(loaded) == blob
    assert os.listdir(tmp_path) == ["model.intc"]   # no .tmp left behind


def test_deserialize_rejects_bad_magic_and_version():
    net = build_network(SMALL, seed=34)
    blob = bytearray(serialize(net))
    with pytest.raises(FormatError, match="magic"):
        deserialize(b"XXXX" + bytes(blob[4:]))
    wrong_version = bytearray(blob)
    wrong_version[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(wrong_version))


def test_deserialize_rejects_truncation_with_layer_name():
    net = build_network(SMALL, seed=35)
    blob = serialize(net)
    with pytest.raises(FormatError, match="truncated"):
        deserialize(blob[:len(blob) // 2])
    with pytest.raises(FormatError, match="truncated"):
        deserialize(blob[:10])


def test_deserialize_rejects_trailing_bytes():
    net = build_network(SMALL, seed=36)
    with pytest.raises(FormatError, match="trailing"):
        deserialize(serialize(net) + b"\x00\x00\x00\x00")


def test_deserialize_rejects_unknown_tag():
    net = build_network(SMALL, seed=37)
    blob = bytearray(serialize(net))
    # first record tag sits right after magic+version+count
    assert bytes(blob[12:16]) == b"INPT"
    blob[12:16] = b"WHAT"
    with pytest.raises(FormatError, match="WHAT"):
        deserialize(bytes(blob))


def test_bn_running_stats_survive_round_trip():
    net = build_network(SMALL, seed=38)
    rng = np.random.default_rng(39)
    x = make_batch(rng, SMALL, 8) + 1.5
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    train(net, x, y, x, y, TrainSpec(epochs=1, batch_size=4, seed=0))
    clone = deserialize(serialize(net))
    bn = next(l for l in net.layers() if isinstance(l, BatchNormLayer))
    bn_clone = next(l for l in clone.layers() if isinstance(l, BatchNormLayer))
    npt.assert_array_equal(bn.running_mean, bn_clone.running_mean)
    npt.assert_array_equal(bn.running_var, bn_clone.running_var)
    assert not np.array_equal(bn.running_mean, np.zeros_like(bn.running_mean))


@pytest.mark.parametrize("dim_offset, value", [(24, 2 ** 31), (20, 2 ** 20)],
                         ids=["inpt_frames", "inpt_channels"])
def test_deserialize_rejects_huge_header_dims_cheaply(dim_offset, value):
    # INPT sits at byte 12: tag, ndims, channels (byte 20), frames (byte 24)
    blob = bytearray(serialize(build_network(NetworkConfig(), seed=40)))
    assert bytes(blob[12:16]) == b"INPT"
    blob[dim_offset:dim_offset + 4] = struct.pack("<I", value)
    blob = bytes(blob)
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(FormatError, match=r"record \d+ at byte \d+"):
            deserialize(blob)
        elapsed = time.monotonic() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 * len(blob)


def test_deserialize_names_the_first_record_off_the_layout():
    blob = bytearray(serialize(build_network(SMALL, seed=41)))
    # SMALL: INPT, CONV, POOL, CONV, POOL, BNRM, DENS, DENS; the first POOL
    # record starts after INPT (16 bytes) and CONV (20 + 4 * (2*3*3 + 2) bytes)
    pool_at = 12 + 16 + 20 + 4 * (2 * 3 * 3 + 2)
    assert bytes(blob[pool_at:pool_at + 4]) == b"POOL"
    second_pool_at = pool_at + 16 + 20 + 4 * (2 * 2 * 3 + 2)
    assert bytes(blob[second_pool_at:second_pool_at + 4]) == b"POOL"
    strided = bytearray(blob)
    strided[pool_at + 12:pool_at + 16] = struct.pack("<I", 3)   # first stride 2 -> 3
    with pytest.raises(FormatError, match=f"record 4 at byte {second_pool_at} is POOL"):
        deserialize(bytes(strided))     # the second POOL no longer matches the first
    no_input = bytearray(blob[:12] + blob[28:])                   # INPT dropped
    no_input[8:12] = struct.pack("<I", 7)
    with pytest.raises(FormatError, match="no INPT record"):
        deserialize(bytes(no_input))


def test_deserialize_rejects_bad_dimension_counts():
    blob = bytearray(serialize(build_network(SMALL, seed=42)))
    for ndims in (0, 9):
        bad = bytearray(blob)
        bad[16:20] = struct.pack("<I", ndims)
        with pytest.raises(FormatError, match="dimensions"):
            deserialize(bytes(bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deserialize_rejects_non_finite_payloads(bad):
    blob = serialize(build_network(SMALL, seed=1))
    conv_at = 12 + 16                                # after the header and INPT
    first_weight = conv_at + 20
    corrupt = bytearray(blob)
    corrupt[first_weight:first_weight + 4] = struct.pack("<f", bad)
    with pytest.raises(FormatError, match=f"record 1 at byte {conv_at} \\(CONV\\) holds a NaN"):
        deserialize(bytes(corrupt))
    corrupt = bytearray(blob)
    corrupt[-4:] = struct.pack("<f", bad)            # the output layer's last bias
    last = len(plan_layers(SMALL)) - 1               # INPT is record 0; flatten has none
    with pytest.raises(FormatError, match=f"record {last} at byte \\d+ \\(DENS\\)"):
        deserialize(bytes(corrupt))
