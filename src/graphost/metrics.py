"""Evaluation metrics: accuracy, macro F1, rank-based ROC-AUC, and homophily
degree change reports."""

from __future__ import annotations

import numpy as np

from .graphs import LabeledGraph, WeightedGraph, edge_homophily_or_none

__all__ = ["accuracy", "f1_macro", "roc_auc", "hd_delta_report"]


def accuracy(predicted, true) -> float:
    predicted = np.asarray(predicted).reshape(-1)
    true = np.asarray(true).reshape(-1)
    if predicted.shape != true.shape:
        raise ValueError("predicted and true labels must have equal length")
    if predicted.size == 0:
        raise ValueError("accuracy of an empty label set is undefined")
    return float(np.count_nonzero(predicted == true)) / predicted.size


def f1_macro(predicted, true, num_classes: int) -> float:
    """Unweighted mean of per-class F1.

    A class with no true and no predicted samples contributes F1 = 0.
    """
    predicted = np.asarray(predicted, dtype=np.int64).reshape(-1)
    true = np.asarray(true, dtype=np.int64).reshape(-1)
    if predicted.shape != true.shape:
        raise ValueError("predicted and true labels must have equal length")
    if predicted.size == 0:
        raise ValueError("f1 of an empty label set is undefined")
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    for name, arr in (("predicted", predicted), ("true", true)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} labels fall outside [0, {num_classes})")
    scores = []
    for cls in range(num_classes):
        tp = np.count_nonzero((predicted == cls) & (true == cls))
        fp = np.count_nonzero((predicted == cls) & (true != cls))
        fn = np.count_nonzero((predicted != cls) & (true == cls))
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of tied values shares the mean of its
    first and last rank. Ranks are integers or halves, so they are exact.
    A run's mean rank does not depend on the order inside it, so the sort
    need not be stable."""
    order = np.argsort(x)
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Mann-Whitney ROC-AUC: P(score_pos > score_neg) with ties counting 1/2."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("undefined AUC: both classes must be present")
    if np.isnan(scores).any():  # NaN has no rank order
        return float("nan")
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def hd_delta_report(
    graph_before: LabeledGraph | WeightedGraph,
    graph_after: LabeledGraph | WeightedGraph,
    labels,
) -> tuple[float | None, float | None, float | None]:
    """(HD before, HD after, signed change), computed with evaluation labels.
    A graph with no edges has no HD: its side reads None, and so does the change.

    The only place oracle labels may touch a test graph is here, after the
    fact; edge weights are irrelevant to HD.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    before = graph_before.base if isinstance(graph_before, WeightedGraph) else graph_before
    after = graph_after.base if isinstance(graph_after, WeightedGraph) else graph_after
    if labels.shape[0] != before.num_nodes or labels.shape[0] != after.num_nodes:
        raise ValueError("labels length must match both graphs' node count")
    hd_before = edge_homophily_or_none(before, labels)
    hd_after = edge_homophily_or_none(after, labels)
    delta = None if hd_before is None or hd_after is None else hd_after - hd_before
    return hd_before, hd_after, delta
