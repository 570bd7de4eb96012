"""Acceptance gate: ten criteria, one test (and one verdict line) each.

Run with ``pytest tests/test_acceptance.py -v`` — each criterion appears as a
single pass/fail line.  Criteria 5 and 6 train full-size networks on the
synthetic six-class corpus; they override the library's default epoch count
(60) down to 15, which the training curves show is already far past the point
where validation macro-F1 saturates, keeping the whole gate fast.
"""

from __future__ import annotations

import math
import struct
import time

import numpy as np
import pytest

import oracles
from intentcnn.dataset import (
    SplitSpec,
    StandardizationStats,
    SynthSpec,
    pad_traces,
    standardize_apply,
    standardize_fit,
    stratified_split,
    synth_generate,
)
from intentcnn.errors import FormatError
from intentcnn.evaluation import (
    ExperimentSpec,
    SourceSpec,
    render_report,
    run_experiment,
    standard_experiment,
    write_experiment_outputs,
)
from intentcnn.metrics import confusion_matrix, macro_f1, per_class_metrics
from intentcnn.model import (
    NetworkConfig,
    TrainSpec,
    build_network,
    check_network_gradients,
    deserialize,
    load_model,
    save_model,
    serialize,
)
from intentcnn.numerics import (
    binary_cross_entropy,
    categorical_cross_entropy,
    conv1d_forward,
    maxpool1d_forward,
    one_hot,
)
from intentcnn.streaming import WindowConfig, stream_classify


def _verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {text}")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

REDUCED_NET = NetworkConfig(channels=4, input_frames=64, conv_filters=(2, 2, 2, 2),
                            kernel_width=3, pool=2, pool_stride=2, fc_sizes=(16, 8),
                            num_classes=3)


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4, 64))
    labels = np.array([0, 1, 2, 0])

    net32 = build_network(REDUCED_NET, seed=5, dtype=np.float32)
    result32 = check_network_gradients(net32, x, labels, epsilon=1e-4)
    assert result32.max_relative_error < 1e-3, (
        f"float32 gradient error {result32.max_relative_error:.3e} exceeds 1e-3")

    net64 = build_network(REDUCED_NET, seed=5, dtype=np.float64)
    result64 = check_network_gradients(net64, x, labels, epsilon=1e-5)
    assert result64.max_relative_error < 1e-6, (
        f"float64 gradient error {result64.max_relative_error:.3e} exceeds 1e-6")

    # the non-smooth/noise exclusions must stay a sliver of the parameter set
    for result in (result32, result64):
        total = result.checked + result.skipped
        assert result.checked >= 0.9 * total

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (limit 60s)"
    _verdict(1, f"analytic vs central differences: float32 max rel err "
                f"{result32.max_relative_error:.2e} (<1e-3), float64 "
                f"{result64.max_relative_error:.2e} (<1e-6), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. forward oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_forward_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    conv_cases = 0
    for in_channels in range(1, 5):
        for kernel in range(1, 6):
            for frames in range(kernel, 33):
                x = oracles.dyadic(rng, (2, in_channels, frames))
                for out_channels in (1, 3):
                    weights = oracles.dyadic(rng, (out_channels, in_channels, kernel))
                    bias = oracles.dyadic(rng, (out_channels,))
                    fast = conv1d_forward(x, weights, bias)
                    for b in range(x.shape[0]):
                        slow = oracles.conv1d_loops(x[b], weights, bias)
                        assert fast[b].tobytes() == slow.tobytes()
                    conv_cases += 1
    pool_cases = 0
    for pool in (2, 3):
        for channels in range(1, 5):
            for frames in range(pool, 33):
                x = oracles.dyadic(rng, (2, channels, frames))
                fast = maxpool1d_forward(x, pool, stride=pool)
                for b in range(x.shape[0]):
                    slow = oracles.maxpool1d_loops(x[b], pool, stride=pool)
                    assert fast[b].tobytes() == slow.tobytes()
                pool_cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s (limit 30s)"
    _verdict(2, f"conv/pool forward bit-exact vs loop oracles over {conv_cases} "
                f"conv and {pool_cases} pool configurations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. loss analytics
# ---------------------------------------------------------------------------

def test_criterion_03_loss_analytics():
    for k in range(2, 11):
        probs = np.full((3, k), 1.0 / k)
        targets = one_hot(np.array([0, 1, k - 1]), k, dtype=np.float64)
        loss = categorical_cross_entropy(probs, targets).value
        assert abs(loss - math.log(k)) < 1e-9, f"CCE(uniform, K={k}) != ln {k}"
    bce = binary_cross_entropy(np.array([0.5]), np.array([1.0])).value
    assert abs(bce - math.log(2.0)) < 1e-9
    _verdict(3, "CCE(uniform K=2..10) = ln K and BCE(1, 0.5) = ln 2 within 1e-9")


# ---------------------------------------------------------------------------
# 4. standardization contract
# ---------------------------------------------------------------------------

def test_criterion_04_standardization_contract():
    for seed in (0, 1, 2):
        spec = SynthSpec(num_classes=4, trials_per_class=8, channels=6,
                         frame_min=50, frame_max=90, noise_std=0.1, seed=seed)
        data = synth_generate(spec)
        train_part, _, _ = stratified_split(data, SplitSpec(0.7, 0.15, 0.15,
                                                            seed=seed))
        stats = standardize_fit(train_part)
        standardized = standardize_apply(train_part, stats)
        padded = pad_traces(standardized, block_frames=100)
        total = 0
        acc = np.zeros(6, dtype=np.float64)
        acc_sq = np.zeros(6, dtype=np.float64)
        for trace in padded.traces:
            source = trace.source_values().astype(np.float64)
            acc += source.sum(axis=1)
            acc_sq += (source * source).sum(axis=1)
            total += trace.source_frames
        mean = acc / total
        std = np.sqrt(acc_sq / total - mean * mean)
        assert np.abs(mean).max() < 1e-6, f"seed {seed}: |mean| up to {np.abs(mean).max()}"
        assert np.abs(std - 1.0).max() < 1e-6, f"seed {seed}: |std-1| up to {np.abs(std - 1).max()}"
    _verdict(4, "post fit/apply, every channel's non-padded |mean| < 1e-6 and "
                "|std - 1| < 1e-6 on three generated training splits")


# ---------------------------------------------------------------------------
# 5. six-class protocol analog
# ---------------------------------------------------------------------------

GATE_TRAIN = TrainSpec(epochs=15, batch_size=8)


def test_criterion_05_six_class_macro_f1():
    start = time.monotonic()
    spec = standard_experiment("e5", seed=0, train_spec=GATE_TRAIN)
    report = run_experiment(spec)
    assert report.vocab == ("task1", "task2", "task3", "task4", "task5", "task6")
    assert [o.ratio_tag() for o in report.outcomes] == [
        "0.8/0.1/0.1", "0.7/0.15/0.15", "0.6/0.2/0.2"]
    scores = []
    for outcome in report.outcomes:
        assert outcome.confusion.shape == (6, 6)
        assert outcome.macro_f1 >= 0.95, (
            f"ratio {outcome.ratio_tag()}: macro-F1 {outcome.macro_f1:.4f} < 0.95")
        scores.append(outcome.macro_f1)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"six-class run took {elapsed:.0f}s (limit 600s)"
    _verdict(5, f"6-class / 120-sample / 24-channel run: macro-F1 "
                f"{', '.join(f'{s:.4f}' for s in scores)} across the three "
                f"ratios (>= 0.95), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. binary protocol analog
# ---------------------------------------------------------------------------

def test_criterion_06_binary_macro_f1_and_protocol():
    spec = standard_experiment("e1", seed=0, train_spec=GATE_TRAIN)
    report = run_experiment(spec)
    # grasping keeps label 0; everything else (the survey class) is label 1
    assert report.vocab == ("neg(task1)", "pos(task4)")
    required = ("relabel", "standardize_fit", "standardize_apply", "pad",
                "train", "evaluate")
    positions = [report.stages.index(stage) for stage in required]
    assert positions == sorted(positions), (
        f"protocol stages out of order: {report.stages}")
    scores = []
    for outcome in report.outcomes:
        assert outcome.confusion.shape == (2, 2)
        assert outcome.macro_f1 >= 0.97, (
            f"ratio {outcome.ratio_tag()}: macro-F1 {outcome.macro_f1:.4f} < 0.97")
        scores.append(outcome.macro_f1)
    _verdict(6, f"binary grasp-vs-survey run: macro-F1 "
                f"{', '.join(f'{s:.4f}' for s in scores)} (>= 0.97), protocol "
                f"order relabel->standardize->pad->train->confusion verified")


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def _tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="gate7",
        sources=(SourceSpec(kind="synth", synth=SynthSpec(
            num_classes=3, trials_per_class=10, channels=2,
            frame_min=30, frame_max=40, noise_std=0.05, seed=7)),),
        ratios=((0.8, 0.1, 0.1), (0.6, 0.2, 0.2)),
        seed=3,
        network=NetworkConfig(channels=2, input_frames=40, conv_filters=(2, 2),
                              kernel_width=3, pool=2, pool_stride=2,
                              fc_sizes=(8,), num_classes=3),
        train=TrainSpec(epochs=3, batch_size=4),
        block_frames=10,
    )


def test_criterion_07_rerun_determinism(tmp_path):
    runs = []
    for name in ("first", "second"):
        report = run_experiment(_tiny_spec())
        out_dir = tmp_path / name
        written = write_experiment_outputs(report, str(out_dir))
        runs.append((out_dir, written))
    (dir_a, names_a), (dir_b, names_b) = runs
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
            f"rerun changed {name}")
    _verdict(7, f"rerunning an experiment reproduced all {len(names_a)} output "
                f"files byte-for-byte (reports, models, stats, labels)")


# ---------------------------------------------------------------------------
# 8. streaming/batch equivalence
# ---------------------------------------------------------------------------

def test_criterion_08_streaming_batch_equivalence():
    network = build_network(NetworkConfig(channels=4, input_frames=2000,
                                          conv_filters=(2, 2), kernel_width=5,
                                          pool=2, pool_stride=2, fc_sizes=(16,),
                                          num_classes=3), seed=2)
    stats = StandardizationStats(mean=np.array([0.1, -0.2, 0.3, 0.05]),
                                 std=np.array([1.5, 0.7, 2.0, 1.1]))
    replay = synth_generate(SynthSpec(num_classes=3, trials_per_class=1,
                                      channels=4, frame_min=5000, frame_max=5000,
                                      noise_std=0.1, seed=3))
    buffer = replay.traces[0].values                       # (4, 5000) float32
    cfg = WindowConfig(network=network, stats=stats,
                       window_frames=1000, hop_frames=100)
    lines = [",".join(f"{v:.9g}" for v in buffer[:, t]) + "\n"
             for t in range(buffer.shape[1])]
    streamed = list(stream_classify(lines, cfg))
    assert len(streamed) == 5000 // 100
    assert [p.warm_up for p in streamed] == [True] * 9 + [False] * 41
    window, input_frames = cfg.window_frames, network.config.input_frames
    for i, prediction in enumerate(streamed):
        end = 100 * (i + 1) - 1
        assert prediction.frame_index == end
        real = min(end + 1, window)
        padded = np.zeros((4, input_frames), dtype=np.float32)
        chunk = buffer[:, end + 1 - real: end + 1].astype(np.float64)
        padded[:, window - real: window] = (
            (chunk - stats.mean[:, None]) / stats.std[:, None]
        ).astype(np.float32)
        expected = network.predict_proba(padded[None, :, :])[0]
        assert prediction.probs.tobytes() == expected.tobytes(), (
            f"hop at frame {end}: streaming probs differ from batch predict")
    _verdict(8, "5000-frame replay: all 50 hop predictions bit-identical to "
                "batch predict on the standardized, padded windows")


# ---------------------------------------------------------------------------
# 9. metric oracle
# ---------------------------------------------------------------------------

def test_criterion_09_metric_oracle():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 60))
        truths = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        matrix = confusion_matrix(truths, preds, k)
        oracle_classes, oracle_macro = oracles.pairwise_metrics(truths, preds, k)
        assert macro_f1(matrix) == oracle_macro
        for ours, (precision, recall, f1, support) in zip(per_class_metrics(matrix),
                                                          oracle_classes):
            assert (ours.precision, ours.recall, ours.f1, ours.support) == \
                (precision, recall, f1, support)
    worked = macro_f1(np.array([[1, 1], [0, 2]]))
    assert abs(worked - 0.7333) <= 1e-4
    _verdict(9, f"macro-F1 equals the pairwise oracle exactly on 1000 random "
                f"vectors; worked 2x2 case gives {worked:.4f} (0.7333 +/- 1e-4)")


# ---------------------------------------------------------------------------
# 10. serialization
# ---------------------------------------------------------------------------

def test_criterion_10_serialization_contract(tmp_path):
    config = NetworkConfig(channels=3, input_frames=32, conv_filters=(2, 2),
                           kernel_width=3, pool=2, pool_stride=2, fc_sizes=(8,),
                           num_classes=3)
    network = build_network(config, seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3, 32)).astype(np.float32)
    _, caches = network.forward_train(x)
    network.update_running_stats(caches)       # non-trivial batchnorm state

    blob = serialize(network)
    clone = deserialize(blob)
    assert serialize(clone) == blob
    assert clone.predict_proba(x).tobytes() == network.predict_proba(x).tobytes()

    path = str(tmp_path / "model.intc")
    save_model(network, path)
    assert serialize(load_model(path)) == blob

    with pytest.raises(FormatError):
        deserialize(b"XXXX" + blob[4:])                    # corrupted magic
    with pytest.raises(FormatError):
        deserialize(blob[:4] + struct.pack("<I", 99) + blob[8:])   # bad version
    with pytest.raises(FormatError):
        deserialize(blob[:-7])                             # truncated payload
    with pytest.raises(FormatError):
        deserialize(blob[:10])                             # truncated header
    _verdict(10, "save/load round-trips bit-exactly; corrupted magic, version, "
                 "and truncation each raise the designated format error")
