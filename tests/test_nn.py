import ast
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graphost
from graphost import nn
from graphost.graphs import LabeledGraph
from graphost.nn import (
    PROB_EPS,
    AdamState,
    EdgeMatrix,
    MeanAggregator,
    NonFiniteError,
    _ACTIVATIONS,
    _entry_indices,
    adam_step,
    bce_loss,
    csr_matrix,
    cross_entropy_loss,
    mean_aggregate,
    relu_backward,
    sigmoid,
    softmax,
    wbce_loss,
)

from graphost.models import (
    ArchitectureSpec,
    Checkpoint,
    _edge_scores_with_cache,
    init_params,
    network_backward,
    network_forward,
    predict_labels,
)

from conftest import (
    assert_same_csr,
    csbm_20k,
    csr_bytes,
    finite_difference_grads,
    gradient_relative_error,
    traced_peak,
)


def star_graph():
    # node 0 is the hub, leaves 1 and 2
    return LabeledGraph(
        num_nodes=3,
        edges=np.array([[0, 1], [0, 2]]),
        features=np.array([[9.0, 9.0], [2.0, 0.0], [0.0, 2.0]]),
    )


class TestMeanAggregate:
    def test_star_center_average(self):
        g = star_graph()
        h = mean_aggregate(g, g.features)
        assert np.allclose(h[0], [1.0, 1.0])
        assert np.allclose(h[1], [9.0, 9.0])  # leaf sees only the hub

    def test_isolated_node_copies_feature(self):
        g = LabeledGraph(
            num_nodes=3,
            edges=np.array([[0, 1]]),
            features=np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
        )
        h = mean_aggregate(g, g.features)
        assert np.array_equal(h[2], [5.0, 5.0])

    def test_rejects_wrong_row_count(self):
        g = star_graph()
        with pytest.raises(ValueError, match="expected 3 rows, got 2"):
            mean_aggregate(g, g.features[:2])

    def test_weighted_mean_hand_value(self):
        # the weighted operator: node 0 averages itself (weight 1) with its
        # neighbours at weights 1 and 3
        g = LabeledGraph(
            num_nodes=3,
            edges=np.array([[0, 1], [0, 2]]),
            features=np.array([[0.0], [1.0], [3.0]]),
        )
        h = MeanAggregator(g, np.array([1.0, 3.0]), self_loops=True).apply(g.features)
        assert h[0, 0] == pytest.approx((1.0 * 0.0 + 1.0 * 1.0 + 3.0 * 3.0) / 5.0)

    def test_adjoint_matches_transpose(self, rng):
        g = LabeledGraph(num_nodes=4, edges=np.array([[0, 1], [1, 2], [2, 3]]))
        agg = MeanAggregator(g, self_loops=True)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        # <Mx, y> == <x, M^T y>
        assert np.sum(agg.apply(x) * y) == pytest.approx(np.sum(x * agg.adjoint(y)))


@st.composite
def aggregation_cases(draw):
    """A graph (possibly edgeless, with isolated nodes), 1-5 feature columns
    of mixed magnitude and sign (-0.0 included), and edge weights that are
    absent or include exact zeros."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    edges = np.array([(u, v) for u, v in pairs if u != v], dtype=np.int64).reshape(-1, 2)
    graph = LabeledGraph(num_nodes=n, edges=edges)
    d = draw(st.integers(1, 5))
    # values that cancel (+-1e16) or round (0.1, 1e-3) make the summation order show
    value = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 0.1, 1e-3, 1e16, -1e16])
    features = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)
    weights = draw(st.none() | st.lists(weight, min_size=graph.num_edges,
                                        max_size=graph.num_edges).map(np.array))
    return graph, features, weights


EDGELESS_CASE = (
    LabeledGraph(num_nodes=4, edges=np.empty((0, 2), dtype=np.int64)),
    np.array([[1.5, -0.0, 2.0], [-0.0, 0.0, -1.0], [3.0, 4.0, -0.0], [-2.0, 0.5, 1.0]]),
    None,
)


def strict_mean_rows(graph, features):
    """The strict-neighbour mean one row at a time in Python floats: each
    column's sum starts at +0.0 and adds 1 / degree times each neighbour's
    value in ascending neighbour order; an isolated node adds its own
    feature onto that sum."""
    x = np.asarray(features, dtype=np.float64)
    cols = x.reshape(len(x), -1)
    neighbours = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    out = np.empty(cols.shape)
    for i, nbrs in enumerate(neighbours):
        nbrs.sort()
        for j in range(cols.shape[1]):
            row_sum = 0.0
            for k in nbrs:
                row_sum += 1.0 / len(nbrs) * float(cols[k, j])
            out[i, j] = row_sum if nbrs else row_sum + float(cols[i, j])
    return out.reshape(x.shape)


class TestMeanAggregateOracle:
    """mean_aggregate scatters over the edges; a per-row loop is its
    reference, bit for bit, sign of zero included."""

    @given(aggregation_cases(), st.booleans())
    @example(EDGELESS_CASE, False)
    @example(EDGELESS_CASE, True)
    @settings(max_examples=150, deadline=None)
    def test_equals_row_loop_reference(self, case, one_dimensional):
        graph, features, _ = case
        x = features[:, 0] if one_dimensional else features
        got = mean_aggregate(graph, x)
        want = strict_mean_rows(graph, x)
        assert got.dtype == np.float64 and got.shape == want.shape == x.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(aggregation_cases(), st.booleans())
    @example(EDGELESS_CASE, False)
    @example(EDGELESS_CASE, True)
    @settings(max_examples=150, deadline=None)
    def test_unweighted_equals_unit_weights(self, case, one_dimensional):
        # the weighted operator: unweighted totals are integer degrees, unit
        # weights go through float totals; the two must agree bit for bit
        graph, features, _ = case
        x = features[:, 0] if one_dimensional else features
        plain = MeanAggregator(graph, self_loops=True).apply(x)
        unit = MeanAggregator(graph, np.ones(graph.num_edges), self_loops=True).apply(x)
        assert plain.dtype == unit.dtype == np.float64
        assert plain.shape == unit.shape == x.shape
        assert plain.tobytes() == unit.tobytes()

    def test_sums_in_ascending_neighbour_order(self):
        # node 2 sums 1e16/3 - 1e16/3 + 1/3 = 1/3 in ascending order (0, 1,
        # then the upper neighbour 3); upper first, 1/3 is lost to rounding
        g = LabeledGraph(num_nodes=4, edges=np.array([[0, 2], [1, 2], [2, 3]]))
        x = np.array([[1e16], [-1e16], [0.0], [1.0]])
        h = mean_aggregate(g, x)
        assert h[2, 0] == 1.0 / 3.0
        assert np.array_equal(h, strict_mean_rows(g, x))


def mean_operator_coo(graph, weights):
    """MeanAggregator's matrix as its constructor built it before
    nn.csr_matrix was the one builder (COO entries, csr_matrix, then
    sort_indices), kept as oracle."""
    n = graph.num_nodes
    w = np.ones(graph.num_edges) if weights is None else np.asarray(weights, dtype=np.float64)
    loop = np.arange(n)
    dst = np.concatenate([graph.edges[:, 1], graph.edges[:, 0], loop])
    src = np.concatenate([graph.edges[:, 0], graph.edges[:, 1], loop])
    w = np.concatenate([w, w, np.ones(n)])
    totals = np.bincount(dst, weights=w, minlength=n)
    mat = scipy.sparse.csr_matrix((w / totals[dst], (dst, src)), shape=(n, n))
    mat.sort_indices()
    return mat


def as_scipy(mat):
    """scipy's CSR matrix over a CsrMatrix's own arrays."""
    return scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=(mat.n, mat.n))


def sorted_transpose_adjoint(mat, g):
    """MeanAggregator.adjoint as it was before it used the transpose view:
    the transpose built as a second CSR with sorted columns, kept as oracle."""
    adj = as_scipy(mat).T.tocsr()
    adj.sort_indices()
    return adj @ g


class TestMeanAggregator:
    @pytest.mark.parametrize("kwargs", [{}, {"self_loops": False}], ids=["omitted", "false"])
    def test_strict_mode_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="mean_aggregate"):
            MeanAggregator(star_graph(), **kwargs)

    def test_self_loops_is_keyword_only(self):
        with pytest.raises(TypeError):
            MeanAggregator(star_graph(), None, True)

    @given(aggregation_cases())
    @settings(max_examples=150, deadline=None)
    def test_adjoint_equals_sorted_transpose(self, case):
        # features double as the upstream gradient: -0.0, cancelling and
        # rounding values make any change of summation order show
        graph, grad, weights = case
        agg = MeanAggregator(graph, weights, self_loops=True)
        got = agg.adjoint(grad)
        want = sorted_transpose_adjoint(agg._mat, grad)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCsrMatrix:
    @given(aggregation_cases())
    @settings(max_examples=100, deadline=None)
    def test_mean_operator_arrays_unchanged(self, case):
        graph, _, weights = case
        got = MeanAggregator(graph, weights, self_loops=True)._mat
        assert_same_csr(got, mean_operator_coo(graph, weights))

    @pytest.mark.parametrize("n, pairs", [(1, 0), (5, 30), (200, 3000)])
    def test_canonical_edges_kept_others_refused(self, rng, n, pairs):
        raw = rng.integers(0, n, size=(pairs, 2))
        edges = LabeledGraph(num_nodes=n, edges=raw[raw[:, 0] != raw[:, 1]]).edges
        values = rng.standard_normal(2 * len(edges) + n)
        got = csr_matrix(values, edges, n)
        assert got.n == n and len(got.indptr) == n + 1 and got.indptr[-1] == len(got.data)
        row_of = np.repeat(np.arange(n), np.diff(got.indptr))
        # within each row the columns strictly ascend: sorted, no repeats
        assert np.all((np.diff(row_of) > 0) | (np.diff(got.indices) > 0))
        rows, cols = _entry_indices(edges, n)
        dense, stored = np.zeros((n, n)), np.zeros((n, n))
        dense[rows, cols] = values
        stored[row_of, got.indices] = got.data
        assert np.array_equal(stored, dense)
        # a reversed, repeated or self-looped edge is refused rather than
        # sorted and summed
        bad_edges = [np.array([[1, 0]]), np.array([[0, 1], [0, 1]]), np.array([[1, 1]])]
        for bad in bad_edges if n > 1 else []:
            with pytest.raises(ValueError, match="the edges are not canonical"):
                csr_matrix(np.ones(2 * len(bad) + n), bad, n)

    @pytest.mark.parametrize("edges, values, message", [
        ([[0, 3]], 5, "an edge lies outside the 3 x 3 matrix"),
        ([[-1, 0]], 5, "an edge lies outside the 3 x 3 matrix"),
        ([[0, 1]], 4, r"\(4,\) values for edges of shape \(1, 2\) on 3 nodes"),
    ], ids=["edge-past-n", "negative-node", "short-values"])
    def test_edges_checked_before_the_kernel(self, edges, values, message):
        with pytest.raises(ValueError, match=message):
            csr_matrix(np.ones(values), np.array(edges), 3)

    def test_edge_matrix_refuses_unsorted_edges(self):
        # each row comes out sorted, but edge k would get another edge's entries
        edges = np.array([[2, 3], [0, 1]])
        with pytest.raises(ValueError, match="they must come in sorted order"):
            EdgeMatrix(edges, 4)


@st.composite
def product_cases(draw):
    """An aggregation case, an operand of width 1-64 or a 1-D vector over its
    nodes, the edges the edge matrix holds (all, or a sorted subset as a
    holdout fit leaves them), one value per held edge, and whether the
    matrices take int64 indices."""
    graph, _, weights = draw(aggregation_cases())
    width = draw(st.none() | st.integers(1, 64))
    shape = (graph.num_nodes,) if width is None else (graph.num_nodes, width)
    value = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 0.1, 1e-3, 1e16, -1e16])
    x = draw(arrays(np.float64, shape, elements=value))
    edge_ids = draw(st.none() | st.sets(st.integers(0, max(graph.num_edges - 1, 0)))
                    .map(lambda ids: np.array(sorted(i for i in ids if i < graph.num_edges),
                                              dtype=np.int64)))
    held = graph.num_edges if edge_ids is None else len(edge_ids)
    edge_values = draw(arrays(np.float64, held, elements=value))
    return graph, weights, x, edge_ids, edge_values, draw(st.booleans())


ONE_NODE_CASE = (LabeledGraph(num_nodes=1, edges=np.empty((0, 2), dtype=np.int64)), None,
                 np.array([[-0.0, 2.5]]), None, np.empty(0), True)
# node 3's edges (1, 3) and (3, 4) are both held out; -0.0 operands and values
HELD_OUT_NODE_CASE = (
    LabeledGraph(num_nodes=5, edges=np.array([[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]])),
    np.array([1.0, 0.0, 2.0, 0.5, 3.0]),
    np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0], [-0.0, -1.0], [0.0, -0.0]]),
    np.array([0, 1, 3]), np.array([-0.0, 2.0, -0.0]), False,
)


def edge_matrix_oracle(graph, edge_ids, values):
    """The predictor backward's per-edge matrix as nn.EdgeAdjacency built it
    before it shared the aggregator's pattern, kept as oracle: scipy's CSR
    over the held edges alone, no self loops and no zero entries."""
    edges = graph.edges if edge_ids is None else graph.edges[edge_ids]
    src, dst = edges[:, 0], edges[:, 1]
    mat = scipy.sparse.csr_matrix(
        (np.concatenate([values, values]), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(graph.num_nodes, graph.num_nodes))
    mat.sort_indices()
    return mat


class TestKernelsAgainstScipy:
    """Every product runs scipy's compiled kernels directly; scipy.sparse
    over the same arrays is the oracle, bit for bit, signs of zero included."""

    @given(product_cases())
    @example((EDGELESS_CASE[0], None, EDGELESS_CASE[1], None, np.empty(0), False))
    @example(ONE_NODE_CASE)
    @example(HELD_OUT_NODE_CASE)
    @example(HELD_OUT_NODE_CASE[:3] + (None, np.array([-0.0, 1.0, 0.0, -0.0, 0.0]), True))
    @settings(max_examples=150, deadline=None)
    def test_products_equal_scipy(self, case):
        # the adjoint's oracle is scipy's transpose product, which runs the
        # CSC kernel over the operator's own arrays
        graph, weights, x, edge_ids, edge_values, int64 = case
        with mock.patch("graphost.nn._INT32_MAX", 0 if int64 else np.iinfo(np.int32).max):
            agg = MeanAggregator(graph, weights, self_loops=True)
            ids = slice(None) if edge_ids is None else edge_ids
            shared = EdgeMatrix(graph.edges, graph.num_nodes, ids, agg)
            built = EdgeMatrix(graph.edges, graph.num_nodes, ids)
        index_dtype = np.int64 if int64 else np.int32
        assert agg._mat.indices.dtype == shared.matrix.indices.dtype == index_dtype
        assert shared.matrix.indices is agg._mat.indices  # one pattern, not a copy
        oracle = edge_matrix_oracle(graph, edge_ids, edge_values)
        for _ in range(2):  # a second fill leaves nothing of the first
            products = [(agg.apply(x), as_scipy(agg._mat) @ x),
                        (agg.adjoint(x), as_scipy(agg._mat).T @ x),
                        (shared.fill(edge_values) @ x, oracle @ x),
                        (built.fill(edge_values) @ x, oracle @ x)]
            for got, want in products:
                assert got.dtype == np.float64 and got.shape == want.shape == x.shape
                assert got.tobytes() == want.tobytes()
            shared.fill(np.full(len(edge_values), 7.0))
            built.fill(np.full(len(edge_values), 7.0))
        assert np.array_equal(as_scipy(built.fill(edge_values)).toarray(), oracle.toarray())

    PRODUCTS = {
        "apply": lambda g: MeanAggregator(g, self_loops=True).apply,
        "adjoint": lambda g: MeanAggregator(g, self_loops=True).adjoint,
        "edge-adjacency": lambda g: EdgeMatrix(g.edges, 3, aggregator=MeanAggregator(
            g, self_loops=True)).fill(np.ones(2)).__matmul__,
    }

    @pytest.mark.parametrize("product", PRODUCTS)
    @pytest.mark.parametrize("operand, message", [
        (np.ones((4, 2)), "expected 3 rows, got 4"),
        (np.ones(2), "expected 3 rows, got 2"),
        (np.ones((3, 2), dtype=np.int64), "float array, got 2-D int64"),
        (np.ones(3, dtype=bool), "float array, got 1-D bool"),
        (np.ones((3, 2, 1)), "1-D or 2-D float array, got 3-D"),
    ], ids=["too-many-rows", "too-few-rows", "integer", "bool", "3-D"])
    def test_bad_operand_rejected(self, product, operand, message):
        with pytest.raises(ValueError, match=message):
            self.PRODUCTS[product](star_graph())(operand)

    @pytest.mark.parametrize("product", PRODUCTS)
    def test_operand_converted_to_contiguous_float64(self, product, rng):
        run = self.PRODUCTS[product](star_graph())
        x = rng.standard_normal((2, 3)).T  # a strided view
        assert run(x).tobytes() == run(np.ascontiguousarray(x)).tobytes()
        single = x.astype(np.float32)
        assert run(single).tobytes() == run(single.astype(np.float64)).tobytes()


class TestKernelLoader:
    def test_loads_once_under_concurrent_first_builds(self, monkeypatch):
        loads, load = [], nn._load_sparsetools

        def slow_load():
            loads.append(1)
            time.sleep(0.05)
            return load()

        monkeypatch.setattr(nn, "_kernels", None)
        monkeypatch.setattr(nn, "_load_sparsetools", slow_load)
        barrier, got = threading.Barrier(2), []

        def first_build():
            barrier.wait()
            got.append(nn._sparsetools())

        threads = [threading.Thread(target=first_build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(loads) == 1 and len(got) == 2 and got[0] is got[1]

    def test_missing_extension_is_named(self, monkeypatch):
        monkeypatch.setattr(nn, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools"):
            nn._load_sparsetools()


class TestBuildMemory:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_peak_within_two_and_a_half_matrices(self, weighted):
        # The build used to hold its entries two and three times over (a
        # concatenation per direction, then with the self loops, int64
        # indices that scipy converted): 4.3x the finished matrix at this size.
        graph = csbm_20k()
        weights = np.random.default_rng(0).random(graph.num_edges) if weighted else None
        MeanAggregator(graph, weights, self_loops=True)  # sparse kernels loaded
        agg, peak = traced_peak(lambda: MeanAggregator(graph, weights, self_loops=True))
        assert peak <= 2.5 * csr_bytes(agg._mat)

    def test_int64_indices_past_int32_range(self, monkeypatch):
        # where max(nnz, n) passes int32's range the matrix takes int64 indices
        monkeypatch.setattr("graphost.nn._INT32_MAX", 6)
        graph = LabeledGraph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]))
        rows, cols = _entry_indices(graph.edges, 3)
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tolist() == [1, 2, 0, 1, 2, 0, 1]
        assert cols.tolist() == [0, 1, 0, 1, 2, 1, 2]
        got = MeanAggregator(graph, self_loops=True)._mat
        assert got.indptr.dtype == got.indices.dtype == np.int64
        want = mean_operator_coo(graph, None)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        monkeypatch.setattr("graphost.nn._INT32_MAX", 7)
        assert _entry_indices(graph.edges, 3)[0].dtype == np.int32
        assert MeanAggregator(graph, self_loops=True)._mat.indptr.dtype == np.int32


class TestNegativeWeights:
    """A negative weight would put a mean outside its neighbours' convex
    hull; the weighted operator refuses it, naming the first such edge."""

    @staticmethod
    def star():
        g = LabeledGraph(num_nodes=4, edges=np.array([[0, 1], [0, 2], [0, 3]]),
                         features=np.array([[1.0], [2.0], [3.0], [4.0]]))
        return g, np.array([0.5, -1.0, -2.0])

    MESSAGE = r"edge_weights\[1\] = -1\.0 on edge \(0, 2\) is negative"

    def test_operator_rejects(self):
        g, w = self.star()
        with pytest.raises(ValueError, match=self.MESSAGE):
            MeanAggregator(g, w, self_loops=True)

    def test_predict_labels_rejects_raw_weights(self):
        g, w = self.star()
        spec = ArchitectureSpec.default("gcn", 1, 2)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            predict_labels(ckpt, g, w)

    def test_zero_and_above_one_stay_legal(self):
        g, _ = self.star()
        w = np.array([0.0, -0.0, 5.0])
        h = MeanAggregator(g, w, self_loops=True).apply(g.features)
        assert np.allclose(h[:, 0], [(1.0 + 5.0 * 4.0) / 6.0, 2.0, 3.0, (5.0 * 1.0 + 4.0) / 6.0])


SRC = Path(graphost.__file__).parent
GENERATE = ["generate", "--p", "0.06", "--q", "0.02", "--sizes", "40,40", "--out", "g"]


TRAIN = ["train", "--train-graph", "g/train.json", "--val-graph", "g/val.json",
         "--epochs", "3", "--out", "t"]
INPUTS = ["--test-graph", "g/test.json", "--classifier", "t/classifier.json",
          "--predictor", "t/predictor.json"]
FIXTURE_AND_SCORING = ("from graphost import fixtures, models\n"
                       "fx = fixtures.make_fixture(nodes_per_class=40, max_epochs=3)\n"
                       "models.edge_homophily_scores(fx.predictor, fx.test_graph(0))\n")


def loaded_after(tmp_path, argvs, then=""):
    """(scipy.sparse loaded, the sparse kernels loaded, numpy.ma loaded) in a
    fresh interpreter after importing graphost, running each argv through
    the CLI, all with exit code 0, and then the code `then`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "import graphost\n"
            "argvs = json.loads(sys.argv[1])\n"
            "if argvs:\n"
            "    from graphost.cli import main\n"
            "    assert [main(a) for a in argvs] == [0] * len(argvs)\n"
            f"{then}"
            "nn = sys.modules.get('graphost.nn')\n"
            "print('scipy.sparse' in sys.modules, nn is not None and nn._kernels is not None,\n"
            "      'numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                            cwd=tmp_path, capture_output=True, text=True, check=True)
    return tuple(word == "True" for word in result.stdout.strip().splitlines()[-1].split())


def scipy_scopes(node, scope):
    """The enclosing module.function of every scipy import under node, and
    of every string naming a scipy module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scipy_scopes(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            modules = [child.value]
        else:
            modules = []
        if any(re.fullmatch(r"scipy(\.\w+)*", m) for m in modules):
            yield scope
        yield from scipy_scopes(child, scope)


class TestScipySparseNeverLoaded:
    def test_import_loads_nothing(self, tmp_path):
        assert loaded_after(tmp_path, []) == (False, False, False)

    @pytest.mark.parametrize("argvs", [
        [GENERATE],
        [["theory-validate", "--suite", "all", "--seed", "1", "--out", "th"]],
    ], ids=["generate", "theory-validate"])
    def test_commands_without_a_matrix_load_nothing(self, tmp_path, argvs):
        assert loaded_after(tmp_path, argvs) == (False, False, False)

    def test_commands_with_matrices_load_only_the_kernels(self, tmp_path):
        # TRAIN is train --target both; checking that a validation graph has
        # both edge classes must not import numpy.ma, as np.unique does
        argvs = [GENERATE, TRAIN,
                 ["transform", "--test-graph", "g/test.json", "--predictor", "t/predictor.json",
                  "--out", "o"],
                 ["evaluate", *INPUTS, "--out", "o"],
                 ["ablate", *INPUTS, "--seed", "0,1", "--out", "o"]]
        assert loaded_after(tmp_path, argvs) == (False, True, False)

    def test_fixture_and_scoring_load_only_the_kernels(self, tmp_path):
        assert loaded_after(tmp_path, [], then=FIXTURE_AND_SCORING) == (False, True, False)

    def test_only_the_loader_names_scipy(self):
        scopes = {scope for path in sorted(SRC.glob("*.py"))
                  for scope in scipy_scopes(ast.parse(path.read_text()), path.stem)}
        assert scopes == {"nn._load_sparsetools"}


def identity_gcn(dim: int) -> tuple[ArchitectureSpec, dict]:
    """Two-layer GCN with identity weights, zero biases and no activation."""
    spec = ArchitectureSpec(kind="gcn", layer_dims=(dim, dim, dim), activation="identity")
    eye, zero = np.eye(dim), np.zeros(dim)
    return spec, {"W0": eye, "b0": zero, "W1": eye, "b1": zero}


class TestGcnLayer:
    def test_identity_parameters_reduce_to_aggregation(self):
        g = star_graph()
        agg = MeanAggregator(g, self_loops=True)
        spec, params = identity_gcn(2)
        out = network_forward(spec, params, g.features, agg)
        assert np.array_equal(out, agg.apply(agg.apply(g.features)))

    def test_zero_weight_severs_message(self):
        g = LabeledGraph(
            num_nodes=2, edges=np.array([[0, 1]]), features=np.array([[1.0], [4.0]])
        )
        agg = MeanAggregator(g, np.array([0.0]), self_loops=True)
        assert np.array_equal(agg.apply(g.features), g.features)  # self-loop only

    def test_uniform_weights_equal_unweighted(self, rng):
        g = LabeledGraph(
            num_nodes=4,
            edges=np.array([[0, 1], [1, 2], [0, 3]]),
            features=rng.normal(size=(4, 3)),
        )
        assert np.array_equal(
            MeanAggregator(g, self_loops=True).apply(g.features),
            MeanAggregator(g, np.ones(3), self_loops=True).apply(g.features),
        )

    def test_shape_mismatch_rejected(self):
        g = star_graph()
        spec, params = identity_gcn(3)
        with pytest.raises(ValueError, match="does not match"):
            network_forward(spec, params, g.features, MeanAggregator(g, self_loops=True))

    def test_finite_difference_gradient(self, rng):
        # independent oracle for the hand-derived layer backward pass
        g = LabeledGraph(
            num_nodes=5,
            edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]),
            features=rng.normal(size=(5, 3)),
            labels=rng.integers(0, 2, size=5),
        )
        spec = ArchitectureSpec(kind="gcn", layer_dims=(3, 4, 2))
        params = init_params(spec, seed=7)
        agg = MeanAggregator(g, self_loops=True)

        def loss_fn(p):
            logits = network_forward(spec, p, g.features, agg)
            return cross_entropy_loss(logits, g.labels)[0]

        logits, cache = network_forward(spec, params, g.features, agg, with_cache=True)
        _, grad_logits = cross_entropy_loss(logits, g.labels)
        analytic = network_backward(spec, params, cache, grad_logits, agg)
        numeric = finite_difference_grads(loss_fn, params)
        assert gradient_relative_error(analytic, numeric) <= 1e-4


class TestActivationsAndScores:
    def test_softmax_symmetry(self):
        assert np.allclose(softmax(np.zeros((1, 3))), [[1 / 3, 1 / 3, 1 / 3]])

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(scale=10, size=(50, 7)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert (probs > 0).all()

    def test_softmax_of_logits_spanning_past_max_float(self):
        # the shift of -1e308 by the row max overflows to -inf, silently
        assert np.array_equal(softmax(np.array([[1e308, -1e308]])), [[1.0, 0.0]])

    def test_softmax_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            softmax(np.array([[np.nan, 0.0]]))

    def test_sigmoid_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049)
        assert sigmoid(-1.0) == pytest.approx(0.2689414213699951)

    def test_sigmoid_extreme_stability(self):
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert sigmoid(1000.0) == pytest.approx(1.0)

    def test_cosine_self_and_orthogonal(self):
        edges = np.array([[0, 1]])
        v = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert _edge_scores_with_cache(v, edges)[1]["cos"][0] == pytest.approx(1.0)
        assert _edge_scores_with_cache(np.eye(2), edges)[1]["cos"][0] == 0.0

    def test_cosine_zero_vector_convention(self):
        z = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert _edge_scores_with_cache(z, np.array([[0, 1]]))[1]["cos"][0] == 0.0

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_cosine_symmetric(self, values):
        u = np.array(values)
        z = np.stack([u, np.roll(u, 1) + 1.0])
        cos = _edge_scores_with_cache(z, np.array([[0, 1], [1, 0]]))[1]["cos"]
        assert cos[0] == pytest.approx(cos[1])


def bce_loss_formula(predictions, labels):
    """bce_loss as it was written before it became twice WBCE at
    alpha = 1/2, kept as oracle."""
    p = np.clip(np.asarray(predictions, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    loss = -np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    grad = -y / p + (1.0 - y) / (1.0 - p)
    return float(loss), grad


class TestLosses:
    def test_wbce_hand_value(self):
        # -0.3 * ln(0.5)
        loss, _ = wbce_loss(np.array([0.5]), np.array([1.0]), alpha=0.3)
        assert loss == pytest.approx(0.20794415416798358)

    def test_wbce_half_alpha_is_half_bce(self, rng):
        p = rng.uniform(0.05, 0.95, size=40)
        y = rng.integers(0, 2, size=40).astype(float)
        wloss, wgrad = wbce_loss(p, y, alpha=0.5)
        bloss, bgrad = bce_loss(p, y)
        assert wloss == 0.5 * bloss  # exact: scaling by a power of two
        assert np.array_equal(wgrad, 0.5 * bgrad)

    @given(
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
        st.data(),
    )
    @settings(max_examples=50)
    def test_wbce_half_alpha_property(self, probs, data):
        p = np.array(probs)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(p), max_size=len(p))), dtype=float)
        assert wbce_loss(p, y, 0.5)[0] == 0.5 * bce_loss(p, y)[0]

    @given(
        # the clamp's endpoints and the values beyond them included
        st.lists(st.sampled_from([0.0, 1e-9, PROB_EPS, 0.5, 1.0 - PROB_EPS, 1.0 - 1e-9, 1.0])
                 | st.floats(0.0, 1.0), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=300)
    def test_bce_equals_its_old_formula(self, probs, data):
        p = np.array(probs)
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(p),
                                        max_size=len(p))))
        loss, grad = bce_loss(p, y)
        want_loss, want_grad = bce_loss_formula(p, y)
        assert loss == want_loss and np.signbit(loss) == np.signbit(want_loss)
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(want_grad))

    def test_wbce_gradient_matches_finite_difference(self, rng):
        p = rng.uniform(0.1, 0.9, size=12)
        y = rng.integers(0, 2, size=12).astype(float)
        _, grad = wbce_loss(p, y, alpha=0.3)
        step = 1e-6
        for i in range(len(p)):
            shifted = p.copy()
            shifted[i] += step
            plus = wbce_loss(shifted, y, 0.3)[0]
            shifted[i] -= 2 * step
            minus = wbce_loss(shifted, y, 0.3)[0]
            assert grad[i] == pytest.approx((plus - minus) / (2 * step), rel=1e-4)

    def test_clamping_keeps_loss_finite(self):
        loss, grad = wbce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]), alpha=0.5)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_cross_entropy_gradient_matches_finite_difference(self, rng):
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad = cross_entropy_loss(logits, labels)
        step = 1e-6
        for i in range(6):
            for c in range(3):
                shifted = logits.copy()
                shifted[i, c] += step
                plus = cross_entropy_loss(shifted, labels)[0]
                shifted[i, c] -= 2 * step
                minus = cross_entropy_loss(shifted, labels)[0]
                assert grad[i, c] == pytest.approx((plus - minus) / (2 * step), abs=1e-6)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            wbce_loss(np.array([0.5]), np.array([1.0]), alpha=1.5)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params, learning_rate=0.1)
        out = adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(out["w"], params["w"])
        assert state.step == 1

    def test_first_step_is_learning_rate_sized(self):
        # with g = 1 the bias-corrected first step is lr / (1 + eps)
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params, learning_rate=0.1)
        out = adam_step(params, {"w": np.array([1.0])}, state)
        assert out["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_trajectories_bit_identical(self, rng):
        grads = [rng.normal(size=3) for _ in range(20)]

        def run():
            params = {"w": np.zeros(3)}
            state = AdamState.for_params(params, learning_rate=0.05)
            for g in grads:
                params = adam_step(params, {"w": g}, state)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"w": np.zeros(4)}, state)

    def test_state_holds_rate_step_and_moments_only(self):
        state = AdamState.for_params({"w": np.zeros(2)}, learning_rate=0.1)
        assert list(vars(state)) == ["learning_rate", "step", "first_moment", "second_moment"]
        assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (0.9, 0.999, 1e-8)

    # tier-1 turns numpy's overflow warning into a failure
    @pytest.mark.parametrize("g, shown", [(1e200, "inf"), (np.inf, "inf"), (np.nan, "nan")])
    def test_non_finite_second_moment_refused_by_name(self, g, shown):
        params = {"b": np.zeros(1), "w": np.zeros(3)}
        state = AdamState.for_params(params)
        with pytest.raises(NonFiniteError, match=rf"^Adam's second moment of w is {shown}, "
                                                 "not finite$") as caught:
            adam_step(params, {"b": np.ones(1), "w": np.array([1.0, g, 1.0])}, state)
        assert caught.value.source is None


class TestActivationBackward:
    def test_relu_backward_has_the_bits_of_the_float_mask(self):
        # zeros keep the sign g * relu'(pre) gives them: -0.0 where g < 0
        g = np.array([[-2.0, 3.0, -0.0, 0.0], [np.inf, -1.5, 4.0, -np.inf]])
        pre = np.array([[-1.0, 0.0, 2.0, -0.0], [1.0, -3.0, np.nan, 0.5]])
        want = g * (pre > 0.0).astype(np.float64)
        got = relu_backward(g, pre)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0]) and not np.signbit(got[0, 1])

    def test_identity_backward_passes_the_gradient_through(self):
        g = np.array([[1.0, -0.0], [np.nan, 2.0]])
        assert _ACTIVATIONS["identity"][1](g, np.zeros_like(g)) is g


def sigmoid_two_branch(x):
    """sigmoid as it was written before its branches shared one exp, kept as
    oracle: each branch's exp over its own masked copy."""
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).copy()
    pos = flat >= 0
    flat[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    flat[~pos] = ex / (1.0 + ex)
    return float(flat[0]) if arr.ndim == 0 else flat.reshape(arr.shape)


class TestSigmoidOracle:
    @given(arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    @example(np.array([[0.0], [-0.0], [5e-324], [-5e-324], [745.2], [-745.2], [1e308]]))
    def test_bit_identical_to_two_branches(self, x):
        got = sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == sigmoid_two_branch(x).tobytes()

    @pytest.mark.parametrize("x", [0.0, -0.0, 0.3, -0.3, 40.0, -40.0, -800.0])
    def test_scalar_is_a_float_with_the_same_bits(self, x):
        got = sigmoid(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(sigmoid_two_branch(x)).tobytes()

    def test_input_is_left_as_it_was(self):
        x = np.array([-1.0, 0.5, 2.0])
        sigmoid(x)
        assert np.array_equal(x, [-1.0, 0.5, 2.0])

class TestPublicRefusals:
    """Each refusal below is reached through its public input, with its
    message pinned."""

    def test_edge_weight_count_must_match_the_edges(self):
        with pytest.raises(ValueError, match="^3 edge weights for 2 edges$"):
            MeanAggregator(star_graph(), np.ones(3), self_loops=True)

    def test_wbce_lengths_differ(self):
        with pytest.raises(ValueError,
                           match="^predictions and labels must have the same length$"):
            wbce_loss(np.array([0.5, 0.5]), np.array([1.0]), 0.5)

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros(3), np.array([0, 1, 2])), (np.zeros((3, 2)), np.array([0, 1])),
    ], ids=["one-dimensional", "label-count"])
    def test_cross_entropy_shapes(self, logits, labels):
        with pytest.raises(ValueError, match=r"^logits must be \(n, c\) with one label per row$"):
            cross_entropy_loss(logits, labels)

    def test_adam_keys_must_match(self):
        params = {"W0": np.zeros((2, 2))}
        with pytest.raises(ValueError, match="^params and grads must share the same keys$"):
            adam_step(params, {"W1": np.zeros((2, 2))}, AdamState.for_params(params))
