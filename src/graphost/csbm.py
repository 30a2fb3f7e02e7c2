"""Contextual stochastic block model sampling.

Nodes are laid out block-wise by class. Every draw comes from a
counter-based Philox stream keyed on (seed, tag):

- Features: one ``standard_normal((n, l))`` from the feature stream. Row i
  holds the stream's normals i*l ... i*l + l - 1, so a node's draw does not
  depend on class sizes. Feature noise uses its own stream the same way.
- Edges: every block (intra-class, or one cross-class pair) has its own
  stream keyed by a block id, so a block's edges depend only on its sizes
  and probability. Hits are found by geometric-gap skipping over the
  block's candidate pairs in row-major order (Batagelj & Brandes, Phys.
  Rev. E 71, 2005), which costs O(pairs hit), not O(pairs).

Normals use numpy's ziggurat sampler. ``SAMPLER_VERSION`` names this
layout; it changes whenever a seed would draw a different graph.
``derive_seed`` gives the child seeds that one experiment or trial seed
draws its graphs with.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .graphs import LabeledGraph
from .jsonfile import JsonObject, read_json, typed, write_json

__all__ = [
    "SAMPLER_VERSION",
    "CsbmParams",
    "derive_seed",
    "symmetric_binary_params",
    "generate_csbm",
    "perturb_features",
]

SAMPLER_VERSION = 2

_STREAM_FEATURE = 1 << 62
_STREAM_EDGES = 2 << 62
_STREAM_NOISE = 3 << 62


def _checked(seed: int) -> int:
    """`seed`, refused by name unless 0 <= seed < 2**64: its uint64 key
    would wrap any other onto the draw of seed mod 2**64."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed}")
    return seed


def derive_seed(seed: int, tag: int) -> int:
    """Disjoint child seeds for sub-draws of one experiment seed. The
    caller's seed is refused if negative or if its child would reach 2**64,
    so the message names it and no child of it draws."""
    child = _checked(seed) * 1_000_003 + tag
    if child >= 2**64:
        raise ValueError(f"seed {seed} is too large: its child for tag {tag} reaches 2**64")
    return child


@dataclass(frozen=True)
class CsbmParams:
    """Class means, block sizes, and intra/inter edge probabilities."""

    class_means: tuple[tuple[float, ...], ...]
    class_sizes: tuple[int, ...]
    intra_prob: float
    inter_prob: float

    def __post_init__(self):
        means = tuple(tuple(float(typed(f"class_means[{k}][{i}]", x, "a number"))
                            for i, x in enumerate(m)) for k, m in enumerate(self.class_means))
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "class_sizes", tuple(
            typed(f"class_sizes[{k}]", n, "an integer") for k, n in enumerate(self.class_sizes)))
        s = len(self.class_means)
        if s < 2:
            raise ValueError("need at least two classes")
        if len(self.class_sizes) != s:
            raise ValueError("class_sizes length must match class_means")
        dims = {len(m) for m in self.class_means}
        if len(dims) != 1:
            raise ValueError("all class means must share one dimension")
        if not np.isfinite(self.class_means).all():
            raise ValueError("class_means must be finite")
        for a in range(s):
            for b in range(a + 1, s):
                if self.class_means[a] == self.class_means[b]:
                    raise ValueError(f"class means {a} and {b} coincide")
        if any(n < 1 for n in self.class_sizes):
            raise ValueError("every class needs at least one node")
        for name in ("intra_prob", "inter_prob"):
            if not 0.0 <= typed(name, getattr(self, name), "a number") <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")

    @property
    def num_classes(self) -> int:
        return len(self.class_means)

    @property
    def feature_dim(self) -> int:
        return len(self.class_means[0])

    @property
    def num_nodes(self) -> int:
        return sum(self.class_sizes)

    @classmethod
    def from_dict(cls, doc: dict | JsonObject) -> "CsbmParams":
        """Params from their JSON form (a dict, or a file's JsonObject); each
        field is read by its JSON type, so nothing is silently cast."""
        doc = doc if isinstance(doc, JsonObject) else JsonObject(doc)
        means = doc.array("class_means", (None, None), "number",
                          "a list of equal-length lists of numbers")
        return doc.build(
            cls,
            class_means=tuple(map(tuple, means.tolist())),
            class_sizes=tuple(doc.array("class_sizes", (None,), "integer",
                                        "a list of integers").tolist()),
            intra_prob=doc.number("intra_prob"),
            inter_prob=doc.number("inter_prob"),
        )

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "CsbmParams":
        return cls.from_dict(read_json(path))


def symmetric_binary_params(
    mean_distance: float,
    feature_dim: int,
    class_sizes: tuple[int, int],
    intra_prob: float,
    inter_prob: float,
) -> CsbmParams:
    """Two classes with means +-u where u is spread evenly over all
    dimensions and ||mu_1 - mu_2|| equals `mean_distance`, which must be > 0."""
    if not mean_distance > 0:
        # 0 makes the means coincide, and a negative distance swaps them
        raise ValueError(f"mean_distance must be positive, got {mean_distance}")
    u = np.full(feature_dim, mean_distance / (2.0 * np.sqrt(feature_dim)))
    return CsbmParams(
        class_means=(tuple(u), tuple(-u)),
        class_sizes=tuple(class_sizes),
        intra_prob=intra_prob,
        inter_prob=inter_prob,
    )


def _stream(seed: int, word: int) -> np.random.Generator:
    # An explicit uint64 key: plain int lists with entries >= 2**63 would be
    # routed through float64 by numpy and silently lose the low bits.
    key = np.array([_checked(seed), word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_offsets(sizes: tuple[int, ...]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)])


def _sample_features(params: CsbmParams, seed: int) -> np.ndarray:
    feats = _stream(seed, _STREAM_FEATURE).standard_normal(
        (params.num_nodes, params.feature_dim)
    )
    offsets = _block_offsets(params.class_sizes)
    for k, mean in enumerate(params.class_means):
        feats[offsets[k] : offsets[k + 1]] += mean
    return feats


def _block_hits(rng: np.random.Generator, pairs: int, prob: float) -> np.ndarray:
    """Sorted indices in [0, pairs), each kept independently with `prob`.

    The gap from one hit to the next is Geometric(prob); gaps are drawn in
    batches of about the expected remaining hits, so memory is O(hits).
    """
    if pairs == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64)
    chunks: list[np.ndarray] = []
    last = -1
    while True:
        batch = int((pairs - 1 - last) * prob) + 64
        gaps = rng.geometric(prob, size=batch)
        # Any gap of pairs + 1 or more lands past the end, even from
        # last = -1; capping it there keeps the cumsum from overflowing.
        np.minimum(gaps, pairs + 1, out=gaps)
        pos = last + np.cumsum(gaps)
        if pos[-1] >= pairs:
            chunks.append(pos[: np.searchsorted(pos, pairs)])
            break
        chunks.append(pos)
        last = int(pos[-1])
    return np.concatenate(chunks)


def _unrank_triu(hits: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major upper-triangle index -> (i, j), i < j < m; the inverse of
    the order ``np.triu_indices(m, k=1)`` enumerates."""
    rows = np.arange(m, dtype=np.int64)
    starts = rows * (2 * m - rows - 1) // 2
    i = np.searchsorted(starts, hits, side="right") - 1
    return i, hits - starts[i] + i + 1


def _sample_edges(params: CsbmParams, seed: int) -> np.ndarray:
    """Blocks in a fixed order: for each class k1 its intra block, then the
    cross blocks (k1, k2 > k1). Block (k1, k2) draws from its own stream,
    keyed by the id k2 (k2 + 1) / 2 + k1."""
    offsets = _block_offsets(params.class_sizes)
    sizes = params.class_sizes
    chunks: list[np.ndarray] = []
    for k1 in range(params.num_classes):
        for k2 in range(k1, params.num_classes):
            rng = _stream(seed, _STREAM_EDGES | (k2 * (k2 + 1) // 2 + k1))
            m1, m2 = sizes[k1], sizes[k2]
            if k1 == k2:
                hits = _block_hits(rng, m1 * (m1 - 1) // 2, params.intra_prob)
                i, j = _unrank_triu(hits, m1)
            else:
                hits = _block_hits(rng, m1 * m2, params.inter_prob)
                i, j = np.divmod(hits, m2)
            chunks.append(np.stack([i + offsets[k1], j + offsets[k2]], axis=1))
    return np.concatenate(chunks, axis=0)


def generate_csbm(params: CsbmParams, seed: int) -> LabeledGraph:
    """Sample an s-class CSBM graph: features N(mu_k, I), same-class pairs
    connected with intra_prob, cross-class pairs with inter_prob."""
    labels = np.repeat(np.arange(params.num_classes), params.class_sizes)
    return LabeledGraph(
        num_nodes=params.num_nodes,
        edges=_sample_edges(params, seed),
        features=_sample_features(params, seed),
        labels=labels,
        num_classes=params.num_classes,
    )


def perturb_features(graph: LabeledGraph, noise_std: float, seed: int) -> LabeledGraph:
    """Add N(0, noise_std^2 I) feature noise; structure and labels unchanged."""
    if graph.features is None:
        raise ValueError("graph has no features to perturb")
    if not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite, got {noise_std}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    _checked(seed)  # also where no noise is drawn
    if noise_std == 0:
        return graph
    noise = _stream(seed, _STREAM_NOISE).standard_normal(graph.features.shape)
    noise *= noise_std
    noise += graph.features  # the same bits as features + noise: IEEE addition commutes
    return graph.with_features(noise)
