"""Graph containers, homophily measurement, structural perturbations, and file I/O.

Graphs are undirected: every edge is stored once in canonical (u < v)
order, sorted lexicographically. Graphs are immutable after construction --
every mutating operation returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .jsonfile import FileFormatError, read_json, write_json

__all__ = [
    "GraphFormatError",
    "LabeledGraph",
    "WeightedGraph",
    "canonicalize_edges",
    "edge_homophily_degree",
    "edge_homophily_or_none",
    "inject_structural_noise",
    "random_edge_drop",
    "load_graph",
    "load_weighted_graph",
    "save_graph",
]

# Rejection sampling budget before falling back to enumerating all non-edges.
_REJECTION_ATTEMPT_FACTOR = 100


class GraphFormatError(FileFormatError):
    """Malformed graph file; carries the offending path and 1-based line."""


# Largest node count whose pair keys u * n + v fit in int64.
_MAX_KEYED_NODES = 3_037_000_499


def canonicalize_edges(edges, num_nodes: int) -> np.ndarray:
    """Return the canonical (E, 2) int64 edge array: each pair reordered to
    u < v, then sorted lexicographically and deduplicated. Self-loops and
    out-of-range endpoints are rejected. The result is always a new array.

    Pairs are ordered by the int64 key u * num_nodes + v; input whose keys
    already strictly increase (any graph's own edges) skips the sort.
    """
    if num_nodes > _MAX_KEYED_NODES:
        raise ValueError(
            f"num_nodes {num_nodes} exceeds {_MAX_KEYED_NODES}, the most an "
            "int64 edge key supports"
        )
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge list must have shape (E, 2), got {arr.shape}")
    if arr.min() < 0 or arr.max() >= num_nodes:
        bad = arr[(arr < 0).any(axis=1) | (arr >= num_nodes).any(axis=1)][0]
        raise ValueError(
            f"edge ({bad[0]}, {bad[1]}) references a node outside [0, {num_nodes})"
        )
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if (lo == hi).any():
        bad = lo[lo == hi][0]
        raise ValueError(f"self-loop ({bad}, {bad}) is not allowed")
    keys = lo * num_nodes + hi
    if not (keys[1:] > keys[:-1]).all():
        # np.sort, not np.unique: numpy 2.4's np.unique dedupes int64 through
        # a hash table, several times slower than a sort at millions of edges.
        keys.sort()
        keep = np.empty(len(keys), dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        lo = keys // num_nodes
        hi = keys - lo * num_nodes
    return np.stack([lo, hi], axis=1)


def _freeze(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledGraph:
    """Node set with edges, optional features (n x l) and optional labels.

    Labels may be absent (test graphs served to label-free operations).
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    num_classes: int | None = None

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        edges = canonicalize_edges(self.edges, self.num_nodes)
        object.__setattr__(self, "edges", _freeze(edges))
        if self.features is not None:
            feats = np.ascontiguousarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != self.num_nodes:
                raise ValueError(
                    f"features must be (num_nodes, dim), got {feats.shape} for "
                    f"{self.num_nodes} nodes"
                )
            if not np.isfinite(feats).all():
                row = int(np.flatnonzero(~np.isfinite(feats).all(axis=1))[0])
                raise ValueError(f"features of node {row} are not finite")
            object.__setattr__(self, "features", _freeze(feats))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != self.num_nodes:
                raise ValueError("labels length must equal num_nodes")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be non-negative class indices")
            if self.num_classes is None:
                object.__setattr__(
                    self, "num_classes", int(labels.max()) + 1 if labels.size else 0
                )
            elif labels.size and labels.max() >= self.num_classes:
                raise ValueError(
                    f"label {labels.max()} out of range for {self.num_classes} classes"
                )
            object.__setattr__(self, "labels", _freeze(labels))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise ValueError("graph has no features")
        return self.features.shape[1]

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edges}

    def with_edges(self, edges) -> "LabeledGraph":
        """New graph sharing nodes/features/labels with a replaced edge set."""
        return replace(self, edges=edges)

    def with_features(self, features: np.ndarray) -> "LabeledGraph":
        return replace(self, features=features)


@dataclass(frozen=True)
class WeightedGraph:
    """A graph plus per-edge weights in [0, 1], aligned with the edge list."""

    base: LabeledGraph
    edge_weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.edge_weights is None:
            weights = np.ones(self.base.num_edges, dtype=np.float64)
        else:
            weights = np.asarray(self.edge_weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != self.base.num_edges:
            raise ValueError(
                f"{weights.shape[0]} weights for {self.base.num_edges} edges"
            )
        outside = ~((weights >= 0.0) & (weights <= 1.0))  # NaN is outside too
        if outside.any():
            bad = weights[outside][0]
            raise ValueError(f"edge weights must lie in [0, 1], got {bad}")
        object.__setattr__(self, "edge_weights", _freeze(weights))

    @property
    def num_edges(self) -> int:
        return self.base.num_edges


def edge_homophily_or_none(graph: LabeledGraph, labels: np.ndarray) -> float | None:
    """Fraction of the graph's edges whose endpoints share a label under
    `labels`, or None for a graph with no edges, where it is undefined."""
    if graph.num_edges == 0:
        return None
    same = labels[graph.edges[:, 0]] == labels[graph.edges[:, 1]]
    return float(np.count_nonzero(same)) / graph.num_edges


def edge_homophily_degree(graph: LabeledGraph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if graph.labels is None:
        raise ValueError("edge homophily degree requires node labels")
    hd = edge_homophily_or_none(graph, graph.labels)
    if hd is None:
        raise ValueError("undefined HD: graph has no edges")
    return hd


def _in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """np.isin(keys, sorted_keys) by binary search in the ascending keys."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _sample_non_edges(
    graph: LabeledGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample up to `count` distinct non-edges (no self-loops).

    Rejection sampling against the existing edge set, falling back to full
    complement enumeration once the attempt budget is spent. Returns fewer
    than `count` rows only when the complement pool is smaller. Pairs are
    compared as int64 keys u * n + v (u < v); within a batch the first
    occurrence of a new pair wins, in draw order.
    """
    n = graph.num_nodes
    existing = graph.edges[:, 0] * n + graph.edges[:, 1]  # ascending: edges are canonical
    pool_size = n * (n - 1) // 2 - len(existing)
    target = min(count, pool_size)
    if target <= 0:
        return np.empty((0, 2), dtype=np.int64)

    chosen = np.empty(0, dtype=np.int64)  # draw order
    taken = chosen  # the same keys, sorted for membership tests
    attempts_left = _REJECTION_ATTEMPT_FACTOR * target
    while len(chosen) < target and attempts_left > 0:
        batch = min(attempts_left, max(64, target - len(chosen)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        attempts_left -= batch
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        keys = keys[(us != vs) & ~_in_sorted(keys, existing) & ~_in_sorted(keys, taken)]
        _, first = np.unique(keys, return_index=True)
        chosen = np.concatenate([chosen, keys[np.sort(first)][: target - len(chosen)]])
        taken = np.sort(chosen)

    if len(chosen) < target:
        # Dense graph: enumerate the complement and draw without replacement.
        us, vs = np.triu_indices(n, k=1)
        complement = us * n + vs
        complement = complement[
            ~_in_sorted(complement, existing) & ~_in_sorted(complement, taken)
        ]
        extra = rng.choice(len(complement), size=target - len(chosen), replace=False)
        chosen = np.concatenate([chosen, complement[np.sort(extra)]])

    return np.stack([chosen // n, chosen % n], axis=1)


def _keep_mask(num_edges: int, drop: int, rng: np.random.Generator) -> np.ndarray:
    """True for each edge kept after dropping `drop` uniformly at random."""
    keep = np.ones(num_edges, dtype=bool)
    keep[rng.choice(num_edges, size=drop, replace=False)] = False
    return keep


def inject_structural_noise(
    graph: LabeledGraph, noise_ratio: float, seed: int
) -> LabeledGraph:
    """Remove floor(noise_ratio/2 * E) random edges and add as many random
    non-edges of the original graph (fewer if the non-edge pool runs out).

    Node set, features, and labels are untouched.
    """
    if not 0.0 <= noise_ratio <= 1.0:
        raise ValueError(f"noise_ratio must be in [0, 1], got {noise_ratio}")
    k = int(np.floor(noise_ratio / 2.0 * graph.num_edges))
    if k == 0:
        return graph
    rng = np.random.default_rng(seed)
    keep = _keep_mask(graph.num_edges, k, rng)
    added = _sample_non_edges(graph, k, rng)
    new_edges = np.concatenate([graph.edges[keep], added], axis=0)
    return graph.with_edges(new_edges)


def random_edge_drop(graph: LabeledGraph, drop_count: int, seed: int) -> LabeledGraph:
    """Uniformly remove exactly `drop_count` edges; deterministic per seed."""
    if drop_count < 0:
        raise ValueError("drop_count must be non-negative")
    if drop_count > graph.num_edges:
        raise ValueError(
            f"cannot drop {drop_count} edges from a graph with {graph.num_edges}"
        )
    if drop_count == 0:
        return graph
    keep = _keep_mask(graph.num_edges, drop_count, np.random.default_rng(seed))
    return graph.with_edges(graph.edges[keep])


# ---------------------------------------------------------------------------
# File format: JSON is the one graph file format. A file holds a single
# object {"num_nodes", "edges", "features", "labels", "num_classes"}
# (labels/features optional; weighted graphs add "edge_weights", which only
# load_weighted_graph reads). A legacy "directed": false key is accepted;
# "directed": true is rejected.
# ---------------------------------------------------------------------------


def load_graph(path: str | Path) -> LabeledGraph:
    """Load an unweighted JSON container. A file with "edge_weights" raises
    GraphFormatError: dropping its weights would read every edge as 1."""
    return _load(path, weighted=False).base


def load_weighted_graph(path: str | Path) -> WeightedGraph:
    """Load a JSON container; missing "edge_weights" means unit weights."""
    return _load(path, weighted=True)


def _load(path: str | Path, weighted: bool) -> WeightedGraph:
    doc = read_json(path, GraphFormatError)
    if not weighted and "edge_weights" in doc:
        doc.fail('the file holds "edge_weights"; read it with load_weighted_graph')
    if doc.boolean("directed", False):
        doc.fail("directed graphs are not supported")
    base = doc.build(
        LabeledGraph,
        num_nodes=doc.integer("num_nodes"),
        edges=doc.array("edges", (None, 2), "integer", "a list of [u, v] integer pairs"),
        features=doc.array("features", (None, None), "number", "a list of numeric rows", None),
        labels=doc.array("labels", (None,), "integer", "a list of integer class indices", None),
        num_classes=doc.integer("num_classes", None),
    )
    weights = doc.array("edge_weights", (None,), "number", "a list of numbers", None)
    return doc.build(WeightedGraph, base=base, edge_weights=weights)


def save_graph(graph: LabeledGraph | WeightedGraph, path: str | Path) -> None:
    """Write the JSON container; the arrays go to write_json as they are."""
    base = graph.base if isinstance(graph, WeightedGraph) else graph
    doc: dict = {"num_nodes": base.num_nodes, "edges": base.edges}
    if base.features is not None:
        doc["features"] = base.features
    if base.labels is not None:
        doc["labels"] = base.labels
        doc["num_classes"] = base.num_classes
    if isinstance(graph, WeightedGraph):
        doc["edge_weights"] = graph.edge_weights
    write_json(path, doc)
