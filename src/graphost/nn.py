"""Dense numerical engine: aggregation operators, activations, losses with
exact gradients, and Adam.

Matrices are float64 C-order numpy arrays throughout. Aggregation is a
weighted mean over neighbours: h_i = sum_j w_ij x_j / sum_j w_ij, summed in
ascending neighbour order, which keeps results bit-reproducible. Edge weights
must be finite and non-negative. It comes in two kinds, one function each:
`MeanAggregator` is the GCN layers' operator, a sparse row-normalised matrix
with sorted columns that counts each node as its own neighbour with weight 1;
`mean_aggregate`, the theory lab's unweighted strict-neighbour mean used once
per graph, scatters over the edges directly. `EdgeAdjacency` is the predictor
backward's symmetric per-edge matrix, whose pattern a fit builds once.

`csr_matrix` is the package's one sparse builder and the only place that
imports scipy.sparse, which it does on its first call. Both operators write
their entries once into arrays scipy adopts without a copy: int32 indices
where scipy would pick int32 anyway, in an order whose rows come out sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import LabeledGraph

__all__ = [
    "csr_matrix",
    "EdgeAdjacency",
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
_INT32_MAX = np.iinfo(np.int32).max


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf")


def _checked_weights(graph: LabeledGraph, edge_weights: np.ndarray | None) -> np.ndarray | None:
    """edge_weights as one finite, non-negative float64 per edge; None stays
    None (every weight 1)."""
    if edge_weights is None:
        return None
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
    return w


def _entry_indices(edges: np.ndarray, n: int, self_loops: bool) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the directed entries of canonical edges (u, v), u < v:
    first (v, u) for each edge, then each node's (i, i) loop if asked, then
    (u, v) for each edge. In this order every row's columns already ascend
    (lower neighbours, itself, upper neighbours, since the edges are
    sorted), so scipy's COO -> CSR pass lays them out with no sort. The
    indices are int32 wherever scipy would pick int32 for the matrix, so it
    keeps these arrays instead of converting them."""
    e, loops = len(edges), n if self_loops else 0
    nnz = 2 * e + loops
    dtype = np.int32 if max(nnz, n) <= _INT32_MAX else np.int64
    rows, cols = np.empty(nnz, dtype=dtype), np.empty(nnz, dtype=dtype)
    rows[:e], cols[:e] = edges[:, 1], edges[:, 0]
    rows[e:e + loops] = cols[e:e + loops] = np.arange(loops)
    rows[e + loops:], cols[e + loops:] = edges[:, 0], edges[:, 1]
    return rows, cols


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

    The build holds the matrix's (row, col, coefficient) entries once, in
    preallocated arrays that scipy adopts as they are, and divides the
    coefficients in place: its peak is about 2.3 times the finished matrix.
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
        n, e, edges = graph.num_nodes, graph.num_edges, graph.edges
        w = _checked_weights(graph, edge_weights)
        # Each node's total sums its lower neighbours' weights, then its upper
        # neighbours', then its own 1: the canonical edges list a node's lower
        # edges before its upper ones, so bincount over them in edge order adds
        # in exactly that order. Unweighted, the integer counts are exact.
        totals = np.bincount(edges.ravel(), minlength=n,
                             weights=None if w is None else np.repeat(w, 2)) + 1.0
        rows, cols = _entry_indices(edges, n, self_loops=True)
        coef = np.empty(len(rows))
        coef[:e] = coef[e + n:] = 1.0 if w is None else w
        coef[e:e + n] = 1.0
        np.divide(coef[:e], totals[edges[:, 1]], out=coef[:e])
        np.divide(coef[e:e + n], totals, out=coef[e:e + n])
        np.divide(coef[e + n:], totals[edges[:, 0]], out=coef[e + n:])
        self._mat = csr_matrix(coef, rows, cols, n)
        self.num_nodes = n

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.num_nodes:
            raise ValueError(f"expected {self.num_nodes} rows, got {x.shape[0]}")
        return self._mat @ x

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        # The CSC view of the transpose sums each output row over ascending
        # source rows, the order a sorted CSR transpose would use.
        return self._mat.T @ g


class EdgeAdjacency:
    """The symmetric n x n CSR matrix holding one value per canonical edge
    (u, v) at both (u, v) and (v, u). Its pattern is built once; `fill`
    writes a new value per edge into it in place, so a training loop builds
    no matrix per epoch."""

    def __init__(self, edges: np.ndarray, n: int):
        rows, cols = _entry_indices(edges, n, self_loops=False)
        # Built with each entry holding its edge's index (exact in float64):
        # once scipy has laid the entries out, the data names each stored
        # entry's edge.
        edge_ids = np.arange(len(edges), dtype=np.float64)
        self.matrix = csr_matrix(np.concatenate([edge_ids, edge_ids]), rows, cols, n)
        self._edge_of_entry = self.matrix.data.astype(np.intp)

    def fill(self, values: np.ndarray):
        """The matrix with values[k] at both entries of edge k."""
        np.take(values, self._edge_of_entry, out=self.matrix.data)
        return self.matrix


def mean_aggregate(graph: LabeledGraph, features: np.ndarray) -> np.ndarray:
    """Strict-neighbour mean, the theory lab's aggregation; an isolated node
    copies its own feature.

    One gather-scatter per feature column over the 2E directed entries, with
    no n x n operator: O(E + n d) memory, and time linear in the columns
    passed, so a caller that reads only some columns passes only those. Each
    row sums its neighbours' 1 / degree products in ascending neighbour
    order, starting from +0.0.
    """
    x = np.asarray(features, dtype=np.float64)
    n = graph.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"expected {n} rows, got {x.shape[0]}")
    # (v <- u) for each edge, then (u <- v); int64 indices, which the
    # per-column gathers and bincounts use without a conversion
    dst = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
    src = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    degree = np.bincount(dst, minlength=n)
    isolated = degree == 0
    coef = 1.0 / degree[dst]  # every destination has degree >= 1
    cols = x[:, None] if x.ndim == 1 else x
    by_column = np.ascontiguousarray(cols.T)  # each column's gather reads one run
    out = np.empty(cols.shape)  # float64 even with no edges, where bincount gives int64
    for j in range(cols.shape[1]):
        out[:, j] = np.bincount(dst, weights=coef * by_column[j][src], minlength=n)
    # added onto the empty +0.0 sum, so a -0.0 feature reads +0.0
    out[isolated] += cols[isolated]
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
