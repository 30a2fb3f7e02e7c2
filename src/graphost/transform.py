"""Test-time structural transformation: confidence weighting and top-delta
edge filtering, composed into the label-free end-to-end pipeline.

``graphost_transform`` is the one path. From each edge's homophily score s
it takes the edge's weight (its keep-confidence: s on homophilic graphs,
1 - s on heterophilic ones) and its harm (1 - s on homophilic graphs, s on
heterophilic ones). Filtering has one rule: it removes exactly the
ceil(delta * E) most harmful edges, breaking ties by ascending canonical
edge index, so the whole pipeline is invariant to the order the input edge
list arrived in. The regime is "homophilic" or "heterophilic";
``resolve_mode`` reads it off the predictor checkpoint's training ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import LabeledGraph, WeightedGraph
from .jsonfile import JsonObject, typed
from .models import Checkpoint, EdgeScoreTable, edge_homophily_scores

__all__ = [
    "TransformConfig",
    "filter_edges",
    "graphost_transform",
    "resolve_mode",
]

MODES = ("homophilic", "heterophilic")


@dataclass(frozen=True)
class TransformConfig:
    mode: str
    delta: float = 0.3
    enable_weighting: bool = True
    enable_filtering: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("enable_weighting", "enable_filtering"):
            typed(name, getattr(self, name), "true or false")
        if not 0.0 <= typed("delta", self.delta, "a number") < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


def _keep_mask(harm: np.ndarray, delta: float) -> np.ndarray:
    """Edges that survive filtering: exactly k = min(ceil(delta * E), E)
    edges go, ranked by harm descending (ties -> ascending edge index).

    O(E), no sort: with `cut` the k-th largest harm, every edge above it
    goes, and so do the lowest-indexed edges at it until k are gone."""
    e = len(harm)
    k = min(int(np.ceil(delta * e)), e)
    if k == 0:
        return np.ones(e, dtype=bool)
    cut = np.partition(harm, e - k)[e - k]
    keep = harm <= cut
    removed_above = e - np.count_nonzero(keep)
    keep[np.flatnonzero(harm == cut)[:k - removed_above]] = False
    return keep


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
    if isinstance(predictor, EdgeScoreTable):
        if len(predictor) != test_graph.num_edges:
            raise ValueError(f"{len(predictor)} scores for {test_graph.num_edges} edges")
        s = predictor.scores
    else:
        s = edge_homophily_scores(predictor, test_graph).scores
    homophilic = config.mode == "homophilic"
    weights = (s if homophilic else 1.0 - s) if config.enable_weighting else None
    if not config.enable_filtering:
        return WeightedGraph(base=test_graph, edge_weights=weights)
    keep = _keep_mask(1.0 - s if homophilic else s, config.delta)
    return WeightedGraph(
        base=test_graph._derived(edges=test_graph.edges[keep]),
        edge_weights=None if weights is None else weights[keep],
    )


def filter_edges(graph: LabeledGraph, scores: EdgeScoreTable, mode: str,
                 delta: float) -> LabeledGraph:
    """The graph ``graphost_transform`` keeps with weighting off: nodes and
    features untouched, the ceil(delta * E) most confidently harmful edges
    dropped."""
    config = TransformConfig(mode=mode, delta=delta, enable_weighting=False)
    return graphost_transform(graph, scores, config).base


def resolve_mode(predictor: Checkpoint) -> str:
    """Majority edge type of the predictor's training graph: HD = 1 - alpha,
    its metadata's heterophilic edge fraction; alpha = 0.5 is homophilic."""
    alpha = JsonObject(predictor.metadata, where="metadata").number("alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"metadata alpha {alpha:g} lies outside [0, 1]")
    return "homophilic" if alpha <= 0.5 else "heterophilic"
