import tracemalloc

import numpy as np
import pytest

from graphost.csbm import generate_csbm, symmetric_binary_params
from graphost.graphs import LabeledGraph


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central-difference gradients of a scalar loss over a parameter dict.

    Independent oracle for the hand-derived backward passes; mutates copies
    only.
    """
    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name in work:
        flat = work[name].reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = loss_fn(work)
            flat[i] = original - step
            minus = loss_fn(work)
            flat[i] = original
            g[i] = (plus - minus) / (2.0 * step)
        grads[name] = g.reshape(work[name].shape)
    return grads


def csbm_20k(seed=0):
    """2 x 10k nodes at the benchmark fixture's mean degree (~21, p/q = 2.5),
    16-dim features: the scale at which the memory bounds are stated."""
    m = 10_000
    q = (0.05 * 299 + 0.02 * 300) / (2.5 * (m - 1) + m)
    return generate_csbm(symmetric_binary_params(2.0, 16, (m, m), 2.5 * q, q), seed=seed)


def traced_peak(call):
    """(call(), the tracemalloc peak in bytes of that call alone)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def assert_same_csr(got, want):
    """Two CSR matrices (`nn.CsrMatrix` or scipy's) hold equal arrays, dtypes and
    zero signs."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


def gradient_relative_error(analytic, numeric):
    """Max-norm relative error between two gradient dicts."""
    a = np.concatenate([analytic[k].reshape(-1) for k in sorted(analytic)])
    n = np.concatenate([numeric[k].reshape(-1) for k in sorted(numeric)])
    scale = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
    return float(np.abs(a - n).max() / scale)


def random_labeled_graph(rng, num_nodes, edge_prob, num_classes=2, feature_dim=3):
    """Erdos-Renyi-style labeled graph for small randomized tests."""
    edges = [
        (u, v)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
        if rng.random() < edge_prob
    ]
    if not edges:
        edges = [(0, 1)]
    return LabeledGraph(
        num_nodes=num_nodes,
        edges=np.asarray(edges, dtype=np.int64),
        features=rng.normal(size=(num_nodes, feature_dim)),
        labels=rng.integers(0, num_classes, size=num_nodes),
        num_classes=num_classes,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
