"""Classification quality measures: confusion matrix, per-class P/R/F1, macro F1.

Conventions: confusion rows index the true class, columns the predicted
class.  Undefined ratios (0/0) score 0 and set the ``zero_division`` flag on
the affected class.  Macro F1 is the unweighted mean of per-class F1 scores;
all ratio arithmetic happens in plain double precision from integer counts,
so results are reproducible to the bit across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall/F1 for a single class; support counts its true samples."""

    precision: float
    recall: float
    f1: float
    support: int
    zero_division: bool = False


def confusion_matrix(truths, preds, num_classes: int) -> np.ndarray:
    """Count (true, predicted) label pairs into a (num_classes, num_classes) matrix."""
    truths = np.asarray(truths)
    preds = np.asarray(preds)
    if truths.ndim != 1 or truths.shape != preds.shape:
        raise InputError(f"labels must be aligned 1-D arrays, got {truths.shape} "
                         f"and {preds.shape}")
    if truths.size == 0:
        # no observations yet: a well-formed all-zero tally
        return np.zeros((num_classes, num_classes), dtype=np.int64)
    if not (np.issubdtype(truths.dtype, np.integer) and np.issubdtype(preds.dtype, np.integer)):
        raise InputError("labels must be integers")
    if num_classes < 2:
        raise InputError(f"num_classes must be >= 2, got {num_classes}")
    for name, arr in (("true", truths), ("predicted", preds)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise InputError(f"{name} labels must lie in [0, {num_classes}), got "
                             f"[{arr.min()}, {arr.max()}]")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (truths, preds), 1)
    return matrix


def _check_confusion(confusion: np.ndarray) -> np.ndarray:
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise InputError(f"confusion matrix must be square, got {confusion.shape}")
    if not np.issubdtype(confusion.dtype, np.integer) or np.any(confusion < 0):
        raise InputError("confusion matrix entries must be non-negative integers")
    return confusion


def per_class_metrics(confusion: np.ndarray) -> tuple[ClassMetrics, ...]:
    """Precision/recall/F1 per class from a confusion matrix; 0/0 ratios score 0."""
    confusion = _check_confusion(confusion)
    out = []
    for k in range(confusion.shape[0]):
        tp = int(confusion[k, k])
        fp = int(confusion[:, k].sum()) - tp
        fn = int(confusion[k, :].sum()) - tp
        undefined = (tp + fp == 0) or (tp + fn == 0)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append(ClassMetrics(precision=precision, recall=recall, f1=f1,
                                support=tp + fn, zero_division=undefined))
    return tuple(out)


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores."""
    metrics = per_class_metrics(confusion)
    return sum(m.f1 for m in metrics) / len(metrics)


def accuracy(confusion: np.ndarray) -> float:
    confusion = _check_confusion(confusion)
    total = int(confusion.sum())
    if total == 0:
        raise InputError("confusion matrix is empty")
    return int(np.trace(confusion)) / total
