"""Contextual stochastic block model sampling.

Nodes are laid out block-wise by class. Features for node i come from a
dedicated counter-based Philox stream keyed on (seed, node index), so a
node's feature draw does not depend on class sizes or sampling order;
normals use numpy's ziggurat sampler. Edges come from one separate stream,
scanned in a fixed block order (intra-class first, then cross blocks in
ascending index order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import LabeledGraph

__all__ = [
    "CsbmParams",
    "symmetric_binary_params",
    "generate_csbm",
    "generate_csbm_multiclass",
    "perturb_features",
]

_MASK64 = (1 << 64) - 1
_STREAM_FEATURE = 1 << 62
_STREAM_EDGES = 2 << 62
_STREAM_NOISE = 3 << 62


@dataclass(frozen=True)
class CsbmParams:
    """Class means, block sizes, and intra/inter edge probabilities."""

    class_means: tuple[tuple[float, ...], ...]
    class_sizes: tuple[int, ...]
    intra_prob: float
    inter_prob: float

    def __post_init__(self):
        means = tuple(tuple(float(x) for x in m) for m in self.class_means)
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "class_sizes", tuple(int(n) for n in self.class_sizes))
        s = len(self.class_means)
        if s < 2:
            raise ValueError("need at least two classes")
        if len(self.class_sizes) != s:
            raise ValueError("class_sizes length must match class_means")
        dims = {len(m) for m in self.class_means}
        if len(dims) != 1:
            raise ValueError("all class means must share one dimension")
        for a in range(s):
            for b in range(a + 1, s):
                if self.class_means[a] == self.class_means[b]:
                    raise ValueError(f"class means {a} and {b} coincide")
        if any(n < 1 for n in self.class_sizes):
            raise ValueError("every class needs at least one node")
        if not (0.0 <= self.intra_prob <= 1.0 and 0.0 <= self.inter_prob <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")

    @property
    def num_classes(self) -> int:
        return len(self.class_means)

    @property
    def feature_dim(self) -> int:
        return len(self.class_means[0])

    @property
    def num_nodes(self) -> int:
        return sum(self.class_sizes)

    def to_dict(self) -> dict:
        return {
            "class_means": [list(m) for m in self.class_means],
            "class_sizes": list(self.class_sizes),
            "intra_prob": self.intra_prob,
            "inter_prob": self.inter_prob,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CsbmParams":
        return cls(
            class_means=tuple(tuple(m) for m in doc["class_means"]),
            class_sizes=tuple(doc["class_sizes"]),
            intra_prob=float(doc["intra_prob"]),
            inter_prob=float(doc["inter_prob"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "CsbmParams":
        return cls.from_dict(json.loads(Path(path).read_text()))


def symmetric_binary_params(
    mean_distance: float,
    feature_dim: int,
    class_sizes: tuple[int, int],
    intra_prob: float,
    inter_prob: float,
) -> CsbmParams:
    """Two classes with means +-u where u is spread evenly over all
    dimensions and ||mu_1 - mu_2|| equals `mean_distance`."""
    u = np.full(feature_dim, mean_distance / (2.0 * np.sqrt(feature_dim)))
    return CsbmParams(
        class_means=(tuple(u), tuple(-u)),
        class_sizes=tuple(class_sizes),
        intra_prob=intra_prob,
        inter_prob=inter_prob,
    )


def _stream_key(seed: int, word: int) -> np.ndarray:
    # An explicit uint64 array: plain int lists with entries >= 2**63 would be
    # routed through float64 by numpy and silently lose the low bits.
    return np.array([seed & _MASK64, word & _MASK64], dtype=np.uint64)


def _node_stream(seed: int, tag: int, node: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, tag | node)))


def _block_offsets(sizes: tuple[int, ...]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)])


def _sample_features(params: CsbmParams, seed: int) -> np.ndarray:
    n, l = params.num_nodes, params.feature_dim
    feats = np.empty((n, l), dtype=np.float64)
    offsets = _block_offsets(params.class_sizes)
    means = np.asarray(params.class_means, dtype=np.float64)
    for k, size in enumerate(params.class_sizes):
        for i in range(offsets[k], offsets[k] + size):
            feats[i] = means[k] + _node_stream(seed, _STREAM_FEATURE, i).standard_normal(l)
    return feats


def _sample_edges(params: CsbmParams, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, _STREAM_EDGES)))
    offsets = _block_offsets(params.class_sizes)
    p, q = params.intra_prob, params.inter_prob
    chunks: list[np.ndarray] = []
    s = params.num_classes
    for k1 in range(s):
        lo1, m1 = offsets[k1], params.class_sizes[k1]
        if m1 > 1 and p > 0.0:
            iu, ju = np.triu_indices(m1, k=1)
            mask = rng.random(len(iu)) < p
            if mask.any():
                chunks.append(np.stack([iu[mask] + lo1, ju[mask] + lo1], axis=1))
        elif m1 > 1:
            rng.random(m1 * (m1 - 1) // 2)  # keep stream layout independent of p
        for k2 in range(k1 + 1, s):
            lo2, m2 = offsets[k2], params.class_sizes[k2]
            flat = np.flatnonzero(rng.random(m1 * m2) < q)
            if flat.size:
                chunks.append(
                    np.stack([flat // m2 + lo1, flat % m2 + lo2], axis=1)
                )
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0).astype(np.int64)


def _generate(params: CsbmParams, seed: int) -> LabeledGraph:
    labels = np.repeat(np.arange(params.num_classes), params.class_sizes)
    return LabeledGraph(
        num_nodes=params.num_nodes,
        edges=_sample_edges(params, seed),
        features=_sample_features(params, seed),
        labels=labels,
        num_classes=params.num_classes,
    )


def generate_csbm(params: CsbmParams, seed: int) -> LabeledGraph:
    """Sample a two-class CSBM graph: features N(mu_k, I), same-class pairs
    connected with intra_prob, cross-class pairs with inter_prob."""
    if params.num_classes != 2:
        raise ValueError("generate_csbm is binary; use generate_csbm_multiclass")
    return _generate(params, seed)


def generate_csbm_multiclass(params: CsbmParams, seed: int) -> LabeledGraph:
    """s-class CSBM: every same-class pair uses intra_prob, every cross-class
    pair uses inter_prob. With s = 2 this matches generate_csbm exactly."""
    return _generate(params, seed)


def perturb_features(graph: LabeledGraph, noise_std: float, seed: int) -> LabeledGraph:
    """Add N(0, noise_std^2 I) feature noise; structure and labels unchanged."""
    if graph.features is None:
        raise ValueError("graph has no features to perturb")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    if noise_std == 0:
        return graph
    noisy = np.array(graph.features, dtype=np.float64)
    l = noisy.shape[1]
    for i in range(graph.num_nodes):
        noisy[i] += noise_std * _node_stream(seed, _STREAM_NOISE, i).standard_normal(l)
    return graph.with_features(noisy)
