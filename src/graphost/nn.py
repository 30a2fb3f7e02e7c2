"""Dense numerical engine: aggregation operators, activations, losses with
exact gradients, and Adam.

Matrices are float64 C-order numpy arrays throughout. Aggregation is a
weighted mean over neighbours: h_i = sum_j w_ij x_j / sum_j w_ij, summed in
ascending neighbour order, which keeps results bit-reproducible. Edge weights
must be finite and non-negative. It comes in two kinds, one function each:
`MeanAggregator` is the GCN layers' operator, a sparse row-normalised matrix
with sorted columns that counts each node as its own neighbour with weight 1;
`mean_aggregate`, the theory lab's strict-neighbour mean used once per graph,
scatters over the edges directly.

`csr_matrix` is the package's one sparse builder and the only place that
imports scipy.sparse, which it does on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import LabeledGraph

__all__ = [
    "csr_matrix",
    "MeanAggregator",
    "mean_aggregate",
    "relu",
    "relu_grad",
    "sigmoid",
    "softmax",
    "wbce_loss",
    "bce_loss",
    "cross_entropy_loss",
    "AdamState",
    "adam_step",
]

PROB_EPS = 1e-7  # log-loss probability clamp


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf")


def _directed_entries(
    graph: LabeledGraph, edge_weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dst, src, weight) for both directions of every canonical edge (u, v),
    u < v: first (v <- u) for each edge, then (u <- v). Within a node's
    entries the neighbours come out ascending -- lower ones from the first
    half, upper ones from the second -- since the edges are sorted."""
    if edge_weights is None:
        w = np.ones(graph.num_edges, dtype=np.float64)
    else:
        w = np.asarray(edge_weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != graph.num_edges:
            raise ValueError(f"{w.shape[0]} edge weights for {graph.num_edges} edges")
        _require_finite("edge_weights", w)
        negative = np.flatnonzero(w < 0.0)
        if negative.size:
            i = negative[0]
            u, v = graph.edges[i]
            raise ValueError(
                f"edge_weights[{i}] = {float(w[i])} on edge ({u}, {v}) is negative"
            )
    dst = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    src = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    return dst, src, np.concatenate([w, w])


def csr_matrix(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int):
    """The n x n scipy CSR matrix holding values[k] at (rows[k], cols[k]),
    with each row's columns ascending and repeated positions summed."""
    # Imported here, not at module level: loading scipy.sparse takes about
    # 0.2 s (it pulls in numpy.f2py, numpy.ma and unittest), as long as a
    # whole theory-validate run, and sampling, graph file I/O and the theory
    # checks never build a matrix.
    import scipy.sparse

    mat = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return mat


class MeanAggregator:
    """The GCN layer's aggregation for a fixed graph: each node takes the
    weighted mean of its neighbours and itself, its own weight 1. self_loops
    must be passed as True: strict-neighbour means are `mean_aggregate`'s,
    and False, the old default, raises rather than silently gain self loops.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        edge_weights: np.ndarray | None = None,
        *,
        self_loops: bool = False,
    ):
        if not self_loops:
            raise ValueError("MeanAggregator needs self_loops=True; strict-neighbour "
                             "means are mean_aggregate's")
        n = graph.num_nodes
        dst, src, weights = _directed_entries(graph, edge_weights)
        loop = np.arange(n, dtype=np.int64)
        dst = np.concatenate([dst, loop])
        src = np.concatenate([src, loop])
        weights = np.concatenate([weights, np.ones(n)])
        totals = np.bincount(dst, weights=weights, minlength=n)
        self._mat = csr_matrix(weights / totals[dst], dst, src, n)
        self.num_nodes = n

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.num_nodes:
            raise ValueError(f"expected {self.num_nodes} rows, got {x.shape[0]}")
        return self._mat @ x

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        # The CSC view of the transpose sums each output row over ascending
        # source rows, the order a sorted CSR transpose would use.
        return self._mat.T @ g


def mean_aggregate(
    graph: LabeledGraph,
    features: np.ndarray,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Strict-neighbour weighted mean, the theory lab's aggregation; a node
    with zero total incident weight (isolated, or all its weights 0) copies
    its own feature.

    One gather-scatter per feature column over the 2E directed entries, with
    no n x n operator: O(E + n d) memory. Each row sums its neighbours'
    weight / total products in ascending neighbour order, starting from +0.0.
    """
    x = np.asarray(features, dtype=np.float64)
    n = graph.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"expected {n} rows, got {x.shape[0]}")
    dst, src, weights = _directed_entries(graph, edge_weights)
    totals = np.bincount(dst, weights=weights, minlength=n)
    fallback = totals == 0.0
    totals[fallback] = 1.0
    coef = weights / totals[dst]
    cols = x[:, None] if x.ndim == 1 else x
    out = np.empty(cols.shape)  # float64 even with no edges, where bincount gives int64
    for j in range(cols.shape[1]):
        out[:, j] = np.bincount(dst, weights=coef * cols[src, j], minlength=n)
    # added onto the +0.0 sum of zero-weight terms, so a -0.0 feature reads +0.0
    out[fallback] += cols[fallback]
    return out.reshape(x.shape)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_grad(pre: np.ndarray) -> np.ndarray:
    return (pre > 0.0).astype(np.float64)


_ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "identity": (lambda x, out=None: x, lambda pre: np.ones_like(pre)),
}


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    arr = np.asarray(x, dtype=np.float64)
    _require_finite("sigmoid input", arr)
    flat = np.atleast_1d(arr).copy()
    pos = flat >= 0
    flat[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    flat[~pos] = ex / (1.0 + ex)
    return float(flat[0]) if arr.ndim == 0 else flat.reshape(arr.shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax; rows sum to 1 and every entry is positive."""
    logits = np.asarray(logits, dtype=np.float64)
    _require_finite("softmax input", logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def wbce_loss(
    predictions: np.ndarray, labels: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Weighted binary cross-entropy, summed over samples.

    loss = -sum_i [ alpha * y_i * log(p_i) + (1 - alpha) * (1 - y_i) * log(1 - p_i) ]

    Predictions are clamped to [1e-7, 1 - 1e-7] before the log; the returned
    gradient is with respect to the (clamped) predictions.
    """
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have the same length")
    _require_finite("predictions", p)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    loss = -np.sum(alpha * y * np.log(p) + (1.0 - alpha) * (1.0 - y) * np.log1p(-p))
    grad = -alpha * y / p + (1.0 - alpha) * (1.0 - y) / (1.0 - p)
    return float(loss), grad


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Unweighted binary cross-entropy, summed over samples: twice WBCE at
    alpha = 1/2, bit for bit, since halving and doubling are exact."""
    loss, grad = wbce_loss(predictions, labels, 0.5)
    return 2.0 * loss, 2.0 * grad


def cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; returns (loss, gradient w.r.t. logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    _require_finite("logits", logits)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ValueError("logits must be (n, c) with one label per row")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclass
class AdamState:
    """Adam accumulators; single-owner, mutated by adam_step."""

    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float = 1e-2) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        for name, value in params.items():
            state.first_moment[name] = np.zeros_like(value)
            state.second_moment[name] = np.zeros_like(value)
        return state


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter dict."""
    if set(params) != set(grads):
        raise ValueError("params and grads must share the same keys")
    state.step += 1
    t = state.step
    out: dict[str, np.ndarray] = {}
    for name, value in params.items():
        g = grads[name]
        if g.shape != value.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {value.shape}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        out[name] = value - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return out
