import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphost.graphs import LabeledGraph
from graphost.nn import (
    AdamState,
    MeanAggregator,
    adam_step,
    bce_loss,
    cross_entropy_loss,
    mean_aggregate,
    sigmoid,
    softmax,
    wbce_loss,
)

from graphost.models import (
    ArchitectureSpec,
    _edge_scores_with_cache,
    init_params,
    network_backward,
    network_forward,
)

from conftest import finite_difference_grads, gradient_relative_error


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


class TestMeanAggregateOracle:
    """mean_aggregate scatters over the edges; the strict-mode sparse
    operator is its reference, bit for bit, sign of zero included."""

    @given(aggregation_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_sparse_operator(self, case):
        graph, features, weights = case
        got = mean_aggregate(graph, features, weights)
        want = MeanAggregator(graph, weights, self_loops=False).apply(features)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sums_in_ascending_neighbour_order(self):
        # node 2 sums 1e16/3 - 1e16/3 + 1/3 = 1/3 in ascending order (0, 1,
        # then the upper neighbour 3); upper first, 1/3 is lost to rounding
        g = LabeledGraph(num_nodes=4, edges=np.array([[0, 2], [1, 2], [2, 3]]))
        x = np.array([[1e16], [-1e16], [0.0], [1.0]])
        h = mean_aggregate(g, x)
        assert h[2, 0] == 1.0 / 3.0
        assert np.array_equal(h, MeanAggregator(g, self_loops=False).apply(x))


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
