"""Tests for the confusion-matrix metrics against a pairwise-count oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from intentcnn.errors import InputError
from intentcnn.metrics import (
    ClassMetrics,
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_metrics,
)

from oracles import pairwise_metrics


def test_confusion_matrix_counts_pairs():
    truths = np.array([0, 0, 1, 1, 1, 2])
    preds = np.array([0, 1, 1, 1, 0, 2])
    cm = confusion_matrix(truths, preds, 3)
    npt.assert_array_equal(cm, [[1, 1, 0], [1, 2, 0], [0, 0, 1]])
    assert cm.dtype == np.int64


def test_confusion_matrix_validation():
    with pytest.raises(InputError, match="aligned 1-D arrays"):
        confusion_matrix(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(InputError, match="true labels must lie in"):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]), 2)  # true label out of range
    with pytest.raises(InputError, match="labels must be integers"):
        confusion_matrix(np.array([0.5, 1.0]), np.array([0, 1]), 2)
    empty = confusion_matrix(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
    npt.assert_array_equal(empty, np.zeros((3, 3), dtype=np.int64))


def test_frozen_two_class_example():
    # confusion [[1,1],[0,2]]: class 0 -> P=1, R=1/2, F1=2/3; class 1 -> P=2/3, R=1, F1=0.8
    cm = np.array([[1, 1], [0, 2]])
    metrics = per_class_metrics(cm)
    assert metrics[0].precision == 1.0
    assert metrics[0].recall == 0.5
    assert metrics[0].f1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert metrics[1].precision == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert metrics[1].recall == 1.0
    assert metrics[1].f1 == pytest.approx(0.8, abs=1e-15)
    assert metrics[0].support == 2
    assert metrics[1].support == 2
    assert macro_f1(cm) == pytest.approx(0.7333333333333334, abs=1e-12)
    assert accuracy(cm) == 0.75


def test_perfect_predictions():
    cm = np.diag([4, 7, 2])
    for m in per_class_metrics(cm):
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0
        assert not m.zero_division
    assert macro_f1(cm) == 1.0
    assert accuracy(cm) == 1.0


def test_zero_division_flags():
    # class 1 never predicted and never true beyond one miss; class 2 never true
    cm = np.array([[3, 0, 0],
                   [2, 0, 0],
                   [0, 0, 0]])
    metrics = per_class_metrics(cm)
    assert metrics[1].precision == 0.0 and metrics[1].recall == 0.0 and metrics[1].f1 == 0.0
    assert metrics[1].zero_division
    assert metrics[2].zero_division  # no support at all
    assert metrics[2].support == 0
    assert not metrics[0].zero_division


def test_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(123)
    for _ in range(200):
        num_classes = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        truths = rng.integers(0, num_classes, size=n)
        preds = rng.integers(0, num_classes, size=n)
        cm = confusion_matrix(truths, preds, num_classes)
        got = per_class_metrics(cm)
        expected_per_class, expected_macro = pairwise_metrics(truths.tolist(),
                                                              preds.tolist(), num_classes)
        for m, (precision, recall, f1, support) in zip(got, expected_per_class):
            assert m.precision == precision  # bitwise: same integer-ratio arithmetic
            assert m.recall == recall
            assert m.f1 == f1
            assert m.support == support
        assert macro_f1(cm) == expected_macro


def test_confusion_rejects_bad_matrix():
    with pytest.raises(InputError, match="must be square"):
        per_class_metrics(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(InputError, match="non-negative integers"):
        per_class_metrics(np.array([[1.5, 0], [0, 1.0]]))
    with pytest.raises(InputError, match="non-negative integers"):
        per_class_metrics(np.array([[1, -1], [0, 1]]))


def test_class_metrics_is_frozen():
    m = ClassMetrics(precision=1.0, recall=1.0, f1=1.0, support=3)
    with pytest.raises(AttributeError):
        m.f1 = 0.5
