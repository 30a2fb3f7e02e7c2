"""Dense numerical engine: aggregation operators, activations, losses with
exact gradients, and Adam.

Matrices are float64 C-order numpy arrays throughout. Aggregation is a
weighted mean over neighbours: h_i = sum_j w_ij x_j / sum_j w_ij, summed in
ascending neighbour order, which keeps results bit-reproducible. Edge weights
must be finite and non-negative. It comes in two kinds, one function each:
`MeanAggregator` is the GCN layers' operator, a sparse row-normalised matrix
with sorted columns that counts each node as its own neighbour with weight 1;
`mean_aggregate`, the theory lab's unweighted strict-neighbour mean used once
per graph, scatters over the edges directly.

`MeanAggregator` is the one sparse operator of a graph: its self-looped
pattern serves the forward product, the adjoint (a product with the
transpose's data on the same pattern, which is symmetric) and the predictor
backward's per-edge `EdgeMatrix`. `csr_matrix` is the package's one sparse
builder; it returns a `CsrMatrix`, whose products run scipy's compiled
`csr_matvecs` (scipy/sparse/_sparsetools), loaded on the first build without
importing the scipy.sparse package. A pattern's entries are written once,
with int32 indices wherever nnz fits, in an order whose rows come out sorted.
"""

from __future__ import annotations

import importlib.util
import threading
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

from .graphs import LabeledGraph

__all__ = [
    "csr_matrix",
    "CsrMatrix",
    "EdgeMatrix",
    "MeanAggregator",
    "mean_aggregate",
    "relu",
    "relu_backward",
    "sigmoid",
    "softmax",
    "wbce_loss",
    "bce_loss",
    "cross_entropy_loss",
    "AdamState",
    "adam_step",
    "NonFiniteError",
]

PROB_EPS = 1e-7  # log-loss probability clamp
ADAM_BETA1 = 0.9  # Adam's first-moment decay
ADAM_BETA2 = 0.999  # Adam's second-moment decay
ADAM_EPS = 1e-8  # Adam's denominator guard
_INT32_MAX = np.iinfo(np.int32).max


class NonFiniteError(ValueError):
    """A value that is not finite, computed from finite inputs, as an
    overflowing checkpoint or graph gives. The message names the quantity;
    `source`, where known, names the input it came from by its parameter
    name ("train_graph", "val_graph", "classifier", "predictor",
    "mean_distance"), whose flag and value the CLI prints before the message."""

    def __init__(self, message: str, source: str | None = None):
        super().__init__(message)
        self.source = source


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


def _entry_indices(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the self-looped entries of canonical edges (u, v), u < v:
    first (v, u) for each edge, then each node's (i, i) loop, then (u, v) for
    each edge. In this order every row's columns already ascend (lower
    neighbours, itself, upper neighbours, since the edges are sorted), so the
    COO -> CSR pass lays them out with no sort. The indices take the
    matrix's index dtype, int32 wherever it holds nnz (>= n, with the
    loops), which the kernel reads unconverted."""
    e = len(edges)
    nnz = 2 * e + n
    dtype = np.int32 if nnz <= _INT32_MAX else np.int64
    rows, cols = np.empty(nnz, dtype=dtype), np.empty(nnz, dtype=dtype)
    rows[:e], cols[:e] = edges[:, 1], edges[:, 0]
    rows[e:e + n] = cols[e:e + n] = np.arange(n)
    rows[e + n:], cols[e + n:] = edges[:, 0], edges[:, 1]
    return rows, cols


_kernels = None
_kernels_lock = threading.Lock()


def _load_sparsetools():
    """scipy's compiled sparse kernels, the extension module scipy.sparse
    wraps, loaded from scipy's sparse directory on their own: importing the
    scipy.sparse package would take 0.13-0.19 s and about 22 MB (its
    array-API layer pulls in numpy.f2py, numpy.testing, numpy.ma and
    numpy.random) to reach three kernels."""
    name = "scipy.sparse._sparsetools"
    scipy_spec = importlib.util.find_spec("scipy")  # finds; runs no scipy code
    for location in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        finder = FileFinder(str(Path(location, "sparse")),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled sparse kernels {name} were not found", name=name)


def _sparsetools():
    """The kernels, loaded once per process on first use, also when two
    threads build their first matrices at once."""
    global _kernels
    if _kernels is None:
        with _kernels_lock:
            if _kernels is None:
                _kernels = _load_sparsetools()
    return _kernels


class CsrMatrix:
    """An n x n matrix in CSR form: row i holds data[indptr[i]:indptr[i + 1]]
    at columns indices[indptr[i]:indptr[i + 1]], ascending. Products run
    scipy's compiled kernels on these arrays, which check no bounds, so every
    operand is checked first."""

    __slots__ = ("indptr", "indices", "data", "n")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int):
        self.indptr, self.indices, self.data, self.n = indptr, indices, data, n

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype.kind != "f" or x.ndim not in (1, 2):
            raise ValueError(f"expected a 1-D or 2-D float array, got {x.ndim}-D {x.dtype}")
        if x.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows, got {x.shape[0]}")
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.zeros(x.shape)
        width = 1 if x.ndim == 1 else x.shape[1]
        _sparsetools().csr_matvecs(self.n, self.n, width, self.indptr, self.indices,
                                   self.data, x.reshape(-1), out.reshape(-1))
        return out

    def transposed(self) -> "CsrMatrix":
        """The transpose of a matrix whose pattern is symmetric: it keeps
        indptr and indices, and entry (i, j) takes the value at (j, i),
        copied exactly."""
        out = np.empty(len(self.indices))
        _sparsetools().csr_tocsc(self.n, self.n, self.indptr, self.indices, self.data,
                                 np.empty_like(self.indptr), np.empty_like(self.indices), out)
        return CsrMatrix(self.indptr, self.indices, out, self.n)


def csr_matrix(values: np.ndarray, edges: np.ndarray, n: int) -> CsrMatrix:
    """The n x n matrix on the self-looped pattern of edges (u, v), u < v,
    distinct and sorted: values[k] at the k-th entry `_entry_indices`
    writes. Edges outside the matrix are refused before the kernel runs,
    and edges whose rows come out unsorted or repeated after it; nothing is
    sorted here."""
    values, edges = np.asarray(values, dtype=np.float64), np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2 or values.shape != (2 * len(edges) + n,):
        raise ValueError(f"{values.shape} values for edges of shape {edges.shape} on {n} nodes")
    if len(edges) and not 0 <= edges.min() <= edges.max() < n:
        raise ValueError(f"an edge lies outside the {n} x {n} matrix")
    rows, cols = _entry_indices(edges, n)
    kernels = _sparsetools()
    indptr, indices, data = np.empty(n + 1, rows.dtype), np.empty_like(rows), np.empty(len(rows))
    # the kernel keeps each row's entries in input order
    kernels.coo_tocsr(n, n, len(rows), rows, cols, values, indptr, indices, data)
    if not kernels.csr_has_canonical_format(n, indptr, indices):
        raise ValueError("the edges are not canonical: each (u, v) needs u < v, "
                         "in sorted order, with no repeats")
    return CsrMatrix(indptr, indices, data, n)


class MeanAggregator:
    """The GCN layer's aggregation for a fixed graph: each node takes the
    weighted mean of its neighbours and itself, its own weight 1. self_loops
    must be passed as True: strict-neighbour means are `mean_aggregate`'s,
    and False, the old default, raises rather than silently gain self loops.

    The build holds the matrix's (row, col, coefficient) entries once, in
    preallocated arrays that the COO -> CSR kernel reads as they are, and
    writes each coefficient's quotient in place: its peak is about 2.3 times
    the finished matrix. An inference operator holds nothing more; training
    adds the transpose's data on the first `adjoint` call, and an
    `EdgeMatrix` shares the pattern.
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
        coef, w = np.empty(2 * e + n), 1.0 if w is None else w
        np.divide(w, totals[edges[:, 1]], out=coef[:e])
        np.divide(1.0, totals, out=coef[e:e + n])
        np.divide(w, totals[edges[:, 0]], out=coef[e + n:])
        self._mat = csr_matrix(coef, edges, n)
        self._transpose: CsrMatrix | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._mat @ x

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """The transpose times g, on the same kernel as `apply`: each output
        row sums over ascending source rows, as a sorted CSR transpose
        would."""
        if self._transpose is None:
            self._transpose = self._mat.transposed()
        return self._transpose @ g


class EdgeMatrix:
    """The predictor backward's per-edge matrix: the symmetric n x n matrix
    holding one value per chosen canonical edge (u, v), edges[edge_ids], at
    both (u, v) and (v, u), on the graph's self-looped pattern. That is the
    `aggregator`'s pattern, shared, where the graph has one; otherwise (an
    MLP's graph) it is built here, once. Self loops and the edges not chosen
    hold 0, which changes no product: a row's sum starts at +0.0, and
    adding +-0.0 to it gives the same bits. `fill` writes new values in
    place, so a training loop builds no matrix per epoch."""

    def __init__(self, edges: np.ndarray, n: int, edge_ids: np.ndarray | slice = slice(None),
                 aggregator: MeanAggregator | None = None):
        # with each row's columns ascending and distinct (`csr_matrix` refuses
        # others), edges whose first nodes never fall are sorted
        if not np.all(edges[:-1, 0] <= edges[1:, 0]):
            raise ValueError("the edges are not canonical: they must come in sorted order")
        pattern = (csr_matrix(np.zeros(2 * len(edges) + n), edges, n) if aggregator is None
                   else aggregator._mat)
        nnz, dtype = len(pattern.indices), pattern.indices.dtype
        # Each entry's mirror comes after it exactly where the entry is an
        # upper (u, v) one, and those are the sorted edges in order. The ids
        # die with the expression: held to the end of this build, they
        # raised a 200k predictor fit's VmHWM by 24 MB.
        mirror = CsrMatrix(pattern.indptr, pattern.indices, np.arange(nnz, dtype=np.float64),
                           n).transposed().data.astype(dtype)
        upper = np.flatnonzero(mirror > np.arange(nnz, dtype=dtype)).astype(dtype)[edge_ids]
        self._entries = np.stack([upper, mirror[upper]])
        self.matrix = CsrMatrix(pattern.indptr, pattern.indices, np.zeros(nnz), n)

    def fill(self, values: np.ndarray) -> CsrMatrix:
        """The matrix with values[k] at both entries of the k-th chosen edge."""
        self.matrix.data[self._entries] = values
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


def relu_backward(g: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """d(loss)/d(pre) from g = d(loss)/d(relu(pre)): g where pre > 0, else a
    zero of g's sign, the bits of g * relu'(pre) without the float mask."""
    return np.multiply(g, pre > 0.0)


# name -> (forward, backward(g, pre))
_ACTIVATIONS = {
    "relu": (relu, relu_backward),
    "identity": (lambda x, out=None: x, lambda g, pre: g),
}


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows. Both branches take t = e^-|x|, the value each branch's own
    exp gives, so every result keeps the two-branch formula's bits."""
    arr = np.asarray(x, dtype=np.float64)
    _require_finite("sigmoid input", arr)
    t = np.abs(np.atleast_1d(arr))
    np.exp(np.negative(t, out=t), out=t)
    out = np.where(arr >= 0, 1.0, t)
    t += 1.0
    out /= t
    return float(out[0]) if arr.ndim == 0 else out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax; rows sum to 1 and every entry is positive."""
    logits = np.asarray(logits, dtype=np.float64)
    _require_finite("softmax input", logits)
    with np.errstate(over="ignore"):  # a shift past -max float is -inf, whose exp is 0
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

    learning_rate: float
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float) -> "AdamState":
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
    """One bias-corrected Adam update; returns the new parameter dict. A
    second moment that is not finite is refused with NonFiniteError naming
    the parameter: its update would be m_hat / inf = 0, a parameter that
    silently never moves."""
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
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        with np.errstate(over="ignore"):  # an overflowing square is refused below
            v += (1.0 - ADAM_BETA2) * g * g
        bad = v[~np.isfinite(v)]
        if bad.size:  # a finite g keeps m finite, so v covers both moments
            raise NonFiniteError(f"Adam's second moment of {name} is {bad[0]}, not finite")
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        out[name] = value - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out
