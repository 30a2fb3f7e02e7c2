"""Test-time structural transformation: confidence weighting and top-delta
edge filtering, composed into the label-free end-to-end pipeline.

Harmfulness of an edge is its heterophily confidence on homophilic graphs
and its homophily confidence on heterophilic graphs. Filtering removes the
ceil(delta * E) most harmful edges, breaking score ties by ascending
canonical edge index, so the whole pipeline is invariant to the order the
input edge list arrived in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import overload

import numpy as np

from .graphs import LabeledGraph, WeightedGraph, edge_homophily_degree
from .models import Checkpoint, EdgeScoreTable, edge_homophily_scores

__all__ = [
    "TransformConfig",
    "build_weighted_graph",
    "filter_edges",
    "graphost_transform",
    "resolve_mode",
]

MODES = ("homophilic", "heterophilic", "auto")


@dataclass(frozen=True)
class TransformConfig:
    mode: str = "auto"
    delta: float = 0.3
    enable_weighting: bool = True
    enable_filtering: bool = True
    # Literal score-threshold reading of the filter rule (harm >= delta)
    # instead of the default top-fraction ranking.
    threshold_semantics: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "delta": self.delta,
            "enable_weighting": self.enable_weighting,
            "enable_filtering": self.enable_filtering,
            "threshold_semantics": self.threshold_semantics,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TransformConfig":
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__ if k in doc})

    def resolved(self, train_graph: LabeledGraph | None) -> "TransformConfig":
        if self.mode != "auto":
            return self
        if train_graph is None:
            raise ValueError("mode='auto' needs a labeled training graph to resolve")
        return replace(self, mode=resolve_mode(train_graph))


def _check_mode(mode: str) -> None:
    if mode not in ("homophilic", "heterophilic"):
        raise ValueError(f"mode must be 'homophilic' or 'heterophilic', got {mode!r}")


def _harmfulness(scores: EdgeScoreTable, mode: str) -> np.ndarray:
    _check_mode(mode)
    return 1.0 - scores.scores if mode == "homophilic" else scores.scores.copy()


def build_weighted_graph(
    graph: LabeledGraph, scores: EdgeScoreTable, mode: str
) -> WeightedGraph:
    """Weight each edge by its keep-confidence: the homophily score on
    homophilic graphs, the heterophily score on heterophilic ones."""
    _check_mode(mode)
    if len(scores) != graph.num_edges:
        raise ValueError(f"{len(scores)} scores for {graph.num_edges} edges")
    weights = scores.scores if mode == "homophilic" else 1.0 - scores.scores
    return WeightedGraph(base=graph, edge_weights=weights)


@overload
def filter_edges(graph: LabeledGraph, scores: EdgeScoreTable, mode: str,
                 delta: float, threshold_semantics: bool = False) -> LabeledGraph: ...
@overload
def filter_edges(graph: WeightedGraph, scores: EdgeScoreTable, mode: str,
                 delta: float, threshold_semantics: bool = False) -> WeightedGraph: ...


def filter_edges(graph, scores, mode, delta, threshold_semantics=False):
    """Drop the most confidently harmful edges; nodes and features untouched.

    Default semantics remove exactly min(ceil(delta * E), E) edges ranked by
    harmfulness descending (ties -> ascending edge index). With
    threshold_semantics=True, every edge whose harmfulness is >= delta goes
    instead.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    base = graph.base if isinstance(graph, WeightedGraph) else graph
    if len(scores) != base.num_edges:
        raise ValueError(f"{len(scores)} scores for {base.num_edges} edges")
    harm = _harmfulness(scores, mode)
    if threshold_semantics:
        keep_mask = harm < delta
    else:
        k = min(int(np.ceil(delta * base.num_edges)), base.num_edges)
        keep_mask = np.ones(base.num_edges, dtype=bool)
        if k > 0:
            order = np.argsort(-harm, kind="stable")
            keep_mask[order[:k]] = False
    new_base = base.with_edges(base.edges[keep_mask])
    if isinstance(graph, WeightedGraph):
        return WeightedGraph(base=new_base, edge_weights=graph.edge_weights[keep_mask])
    return new_base


def graphost_transform(
    test_graph: LabeledGraph,
    predictor: Checkpoint | EdgeScoreTable,
    config: TransformConfig,
) -> WeightedGraph:
    """Score edges with the trained predictor, weight the graph, filter the
    top-delta harmful edges. Needs no test labels; the classifier is never
    touched.

    ``predictor`` is the trained predictor checkpoint or the EdgeScoreTable
    already computed from it for ``test_graph``. Scoring is the only step
    that reads the predictor and it does not depend on ``config``, so a
    caller applying several configs to one graph scores it once and passes
    the table to each.
    """
    if config.mode == "auto":
        raise ValueError(
            "config.mode is 'auto'; resolve it against the training graph first"
        )
    if isinstance(predictor, EdgeScoreTable):
        if len(predictor) != test_graph.num_edges:
            raise ValueError(f"{len(predictor)} scores for {test_graph.num_edges} edges")
        scores = predictor
    else:
        scores = edge_homophily_scores(predictor, test_graph)
    if config.enable_weighting:
        weighted = build_weighted_graph(test_graph, scores, config.mode)
    else:
        weighted = WeightedGraph(base=test_graph)
    if config.enable_filtering:
        weighted = filter_edges(
            weighted, scores, config.mode, config.delta, config.threshold_semantics
        )
    return weighted


def resolve_mode(train_graph: LabeledGraph) -> str:
    """Majority edge type of the labeled training graph; HD of exactly 0.5
    counts as homophilic."""
    if train_graph.labels is None:
        raise ValueError("mode resolution needs a labeled training graph")
    return (
        "homophilic"
        if edge_homophily_degree(train_graph) >= 0.5
        else "heterophilic"
    )
