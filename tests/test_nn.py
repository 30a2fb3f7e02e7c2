import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphost
from graphost.graphs import LabeledGraph
from graphost.nn import (
    PROB_EPS,
    AdamState,
    MeanAggregator,
    _entry_indices,
    adam_step,
    bce_loss,
    csr_matrix,
    cross_entropy_loss,
    mean_aggregate,
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

    def test_unit_weights_bitwise_equal_unweighted(self):
        g = star_graph()
        plain = mean_aggregate(g, g.features)
        weighted = mean_aggregate(g, g.features, np.ones(2))
        assert np.array_equal(plain, weighted)

    def test_isolated_node_copies_feature(self):
        g = LabeledGraph(
            num_nodes=3,
            edges=np.array([[0, 1]]),
            features=np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
        )
        h = mean_aggregate(g, g.features)
        assert np.array_equal(h[2], [5.0, 5.0])

    def test_zero_incident_weight_treated_as_isolated(self):
        g = LabeledGraph(
            num_nodes=2,
            edges=np.array([[0, 1]]),
            features=np.array([[3.0], [7.0]]),
        )
        h = mean_aggregate(g, g.features, np.array([0.0]))
        assert np.array_equal(h, g.features)

    def test_weighted_mean_hand_value(self):
        g = LabeledGraph(
            num_nodes=3,
            edges=np.array([[0, 1], [0, 2]]),
            features=np.array([[0.0], [1.0], [3.0]]),
        )
        h = mean_aggregate(g, g.features, np.array([1.0, 3.0]))
        assert h[0, 0] == pytest.approx((1.0 * 1.0 + 3.0 * 3.0) / 4.0)

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


def strict_mean_rows(graph, features, weights):
    """The strict-neighbour mean one row at a time in Python floats: a
    node's total and each column's sum start at +0.0 and take its
    neighbours in ascending order; a node with total 0 adds its own feature
    onto that sum."""
    x = np.asarray(features, dtype=np.float64)
    cols = x.reshape(len(x), -1)
    w = [1.0] * graph.num_edges if weights is None else [float(v) for v in weights]
    neighbours = [[] for _ in range(graph.num_nodes)]
    for (u, v), wi in zip(graph.edges.tolist(), w):
        neighbours[u].append((v, wi))
        neighbours[v].append((u, wi))
    out = np.empty(cols.shape)
    for i, nbrs in enumerate(neighbours):
        nbrs.sort()
        total = 0.0
        for _, wi in nbrs:
            total += wi
        for j in range(cols.shape[1]):
            row_sum = 0.0
            for k, wi in nbrs:
                row_sum += wi / (total or 1.0) * float(cols[k, j])
            out[i, j] = row_sum + float(cols[i, j]) if total == 0.0 else row_sum
    return out.reshape(x.shape)


class TestMeanAggregateOracle:
    """mean_aggregate scatters over the edges; a per-row loop is its
    reference, bit for bit, sign of zero included."""

    @given(aggregation_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_row_loop_reference(self, case):
        graph, features, weights = case
        got = mean_aggregate(graph, features, weights)
        want = strict_mean_rows(graph, features, weights)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(aggregation_cases(), st.booleans())
    @example(EDGELESS_CASE, False)
    @example(EDGELESS_CASE, True)
    @settings(max_examples=150, deadline=None)
    def test_unweighted_equals_unit_weights(self, case, one_dimensional):
        # unweighted totals are integer degrees, unit weights go through the
        # weighted path's float totals: the two must agree bit for bit
        graph, features, _ = case
        x = features[:, 0] if one_dimensional else features
        plain = mean_aggregate(graph, x)
        unit = mean_aggregate(graph, x, np.ones(graph.num_edges))
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
        assert np.array_equal(h, strict_mean_rows(g, x, None))


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


def sorted_transpose_adjoint(mat, g):
    """MeanAggregator.adjoint as it was before it used the transpose view:
    the transpose built as a second CSR with sorted columns, kept as oracle."""
    adj = mat.T.tocsr()
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

    @pytest.mark.parametrize("n, nnz", [(1, 0), (5, 30), (200, 3000)])
    def test_rows_ascending_repeats_summed(self, rng, n, nnz):
        rows, cols = rng.integers(0, n, size=(2, nnz))
        values = rng.standard_normal(nnz)
        got = csr_matrix(values, rows, cols, n)
        assert got.shape == (n, n) and got.has_sorted_indices
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), values)
        assert np.allclose(got.toarray(), dense, rtol=1e-12, atol=1e-12)


class TestBuildMemory:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_peak_within_two_and_a_half_matrices(self, weighted):
        # The build used to hold its entries two and three times over (a
        # concatenation per direction, then with the self loops, int64
        # indices that scipy converted): 4.3x the finished matrix at this size.
        graph = csbm_20k()
        weights = np.random.default_rng(0).random(graph.num_edges) if weighted else None
        MeanAggregator(graph, weights, self_loops=True)  # scipy.sparse imported
        agg, peak = traced_peak(lambda: MeanAggregator(graph, weights, self_loops=True))
        assert peak <= 2.5 * csr_bytes(agg._mat)

    def test_int64_indices_where_scipy_needs_them(self, monkeypatch):
        # past int32's range the entries keep int64, as scipy would pick
        monkeypatch.setattr("graphost.nn._INT32_MAX", 6)
        graph = LabeledGraph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]))
        rows, cols = _entry_indices(graph.edges, 3, self_loops=True)
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tolist() == [1, 2, 0, 1, 2, 0, 1]
        assert cols.tolist() == [0, 1, 0, 1, 2, 1, 2]
        assert_same_csr(MeanAggregator(graph, self_loops=True)._mat,
                        mean_operator_coo(graph, None))
        monkeypatch.setattr("graphost.nn._INT32_MAX", 7)
        assert _entry_indices(graph.edges, 3, self_loops=True)[0].dtype == np.int32


class TestNegativeWeights:
    """A negative weight would put a mean outside its neighbours' convex
    hull; both aggregation paths refuse it, naming the first such edge."""

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

    def test_mean_aggregate_rejects(self):
        g, w = self.star()
        with pytest.raises(ValueError, match=self.MESSAGE):
            mean_aggregate(g, g.features, w)

    def test_predict_labels_rejects_raw_weights(self):
        g, w = self.star()
        spec = ArchitectureSpec.default("gcn", 1, 2)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            predict_labels(ckpt, g, w)

    def test_zero_and_above_one_stay_legal(self):
        g, _ = self.star()
        w = np.array([0.0, -0.0, 5.0])
        assert np.array_equal(mean_aggregate(g, g.features, w),
                              strict_mean_rows(g, g.features, w))
        h = MeanAggregator(g, w, self_loops=True).apply(g.features)
        assert np.allclose(h[:, 0], [(1.0 + 5.0 * 4.0) / 6.0, 2.0, 3.0, (5.0 * 1.0 + 4.0) / 6.0])


SRC = Path(graphost.__file__).parent
GENERATE = ["generate", "--p", "0.06", "--q", "0.02", "--sizes", "40,40", "--out", "g"]


def scipy_sparse_loaded(tmp_path, argvs):
    """Whether a fresh interpreter has scipy.sparse loaded after importing
    graphost and running each argv through the CLI, all with exit code 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "import graphost\n"
            "argvs = json.loads(sys.argv[1])\n"
            "if argvs:\n"
            "    from graphost.cli import main\n"
            "    assert [main(a) for a in argvs] == [0] * len(argvs)\n"
            "print('scipy.sparse' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                            cwd=tmp_path, capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1] == "True"


def scipy_import_scopes(node, scope):
    """The enclosing module.function of every scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scipy_import_scopes(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield scope
        yield from scipy_import_scopes(child, scope)


class TestScipySparseLoadsAtFirstBuild:
    def test_import_leaves_it_unloaded(self, tmp_path):
        assert not scipy_sparse_loaded(tmp_path, [])

    @pytest.mark.parametrize("argvs", [
        [GENERATE],
        [["theory-validate", "--suite", "all", "--seed", "1", "--out", "th"]],
    ], ids=["generate", "theory-validate"])
    def test_commands_without_a_matrix_leave_it_unloaded(self, tmp_path, argvs):
        assert not scipy_sparse_loaded(tmp_path, argvs)

    def test_train_loads_it(self, tmp_path):
        train = ["train", "--train-graph", "g/train.json", "--val-graph", "g/val.json",
                 "--target", "classifier", "--epochs", "3", "--out", "t"]
        assert scipy_sparse_loaded(tmp_path, [GENERATE, train])

    def test_one_function_imports_scipy(self):
        scopes = [scope for path in sorted(SRC.glob("*.py"))
                  for scope in scipy_import_scopes(ast.parse(path.read_text()), path.stem)]
        assert scopes == ["nn.csr_matrix"]


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
