import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphost.fixtures import make_fixture
from graphost.graphs import LabeledGraph, WeightedGraph, edge_homophily_degree
from graphost.models import (
    ArchitectureSpec,
    Checkpoint,
    EdgeScoreTable,
    build_edge_training_set,
    edge_homophily_scores,
    init_params,
)
from graphost.transform import (
    MODES,
    TransformConfig,
    _keep_mask,
    filter_edges,
    graphost_transform,
    resolve_mode,
)

from conftest import random_labeled_graph


def oracle_scores(graph):
    """Perfect homophily knowledge: 1 where endpoints share a label."""
    same = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    return EdgeScoreTable(scores=same.astype(np.float64))


def brute_force_filter(graph, scores, mode, delta):
    """Independent enumeration oracle: sort (harm desc, index asc), drop the
    top ceil(delta * E), return surviving edge pairs and their HD."""
    harm = (1.0 - scores.scores) if mode == "homophilic" else scores.scores
    ranked = sorted(range(graph.num_edges), key=lambda i: (-harm[i], i))
    k = min(int(np.ceil(delta * graph.num_edges)), graph.num_edges)
    survivors = sorted(set(range(graph.num_edges)) - set(ranked[:k]))
    pairs = [tuple(graph.edges[i]) for i in survivors]
    same = sum(
        1 for u, v in pairs if graph.labels[u] == graph.labels[v]
    )
    hd = same / len(pairs) if pairs else None
    return set(pairs), hd


def reference_weighted_graph(graph, scores, mode):
    """The weighting step as a separate function, before the transform had
    one path: keep-confidence s (homophilic) or 1 - s (heterophilic)."""
    weights = scores.scores if mode == "homophilic" else 1.0 - scores.scores
    return WeightedGraph(base=graph, edge_weights=weights)


def reference_filter(graph, scores, mode, delta):
    """The filtering step on a WeightedGraph, as a separate function: drop
    the top ceil(delta * E) harmful edges and keep the survivors' weights."""
    harm = 1.0 - scores.scores if mode == "homophilic" else scores.scores.copy()
    k = min(int(np.ceil(delta * graph.num_edges)), graph.num_edges)
    keep_mask = np.ones(graph.num_edges, dtype=bool)
    if k > 0:
        order = np.argsort(-harm, kind="stable")
        keep_mask[order[:k]] = False
    return WeightedGraph(base=graph.base.with_edges(graph.base.edges[keep_mask]),
                         edge_weights=graph.edge_weights[keep_mask])


def reference_transform(graph, scores, config):
    """The weighting-then-filtering composition, the oracle for graphost_transform."""
    if config.enable_weighting:
        weighted = reference_weighted_graph(graph, scores, config.mode)
    else:
        weighted = WeightedGraph(base=graph)
    if config.enable_filtering:
        weighted = reference_filter(weighted, scores, config.mode, config.delta)
    return weighted


# Few distinct values, so that ties occur; -0.0 and 0.7 (1 - 0.7 is not 0.3)
# make sign bits and last-bit differences show.
TIED_SCORES = [-0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0]


class TestOnePathMatchesReference:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.data(),
           st.sampled_from(MODES), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75]) | st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, graph_seed, n, data, mode, weighting, filtering, delta):
        g = random_labeled_graph(np.random.default_rng(graph_seed), n, 0.5)
        scores = EdgeScoreTable(scores=np.array(data.draw(st.lists(
            st.sampled_from(TIED_SCORES), min_size=g.num_edges, max_size=g.num_edges))))
        config = TransformConfig(mode=mode, delta=delta, enable_weighting=weighting,
                                 enable_filtering=filtering)
        got = graphost_transform(g, scores, config)
        want = reference_transform(g, scores, config)
        assert got.base.edges.dtype == want.base.edges.dtype
        assert np.array_equal(got.base.edges, want.base.edges)
        assert got.edge_weights.dtype == want.edge_weights.dtype
        assert got.edge_weights.tobytes() == want.edge_weights.tobytes()
        assert np.array_equal(np.signbit(got.edge_weights), np.signbit(want.edge_weights))
        assert filter_edges(g, scores, mode, delta).edges.tobytes() == (
            reference_filter(WeightedGraph(base=g), scores, mode, delta).base.edges.tobytes())


def weighting_only(mode):
    return TransformConfig(mode=mode, enable_filtering=False)


class TestWeightedConstruction:
    def test_homophilic_keeps_scores(self, rng):
        g = random_labeled_graph(rng, 6, 0.7)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        wg = graphost_transform(g, scores, weighting_only("homophilic"))
        assert np.array_equal(wg.edge_weights, scores.scores)
        assert np.array_equal(wg.base.edges, g.edges)

    def test_heterophilic_flips_scores(self, rng):
        g = random_labeled_graph(rng, 6, 0.7)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        wg = graphost_transform(g, scores, weighting_only("heterophilic"))
        assert np.allclose(wg.edge_weights, 1.0 - scores.scores)

    def test_length_mismatch(self, rng):
        g = random_labeled_graph(rng, 6, 0.7)
        with pytest.raises(ValueError, match="scores for"):
            graphost_transform(g, EdgeScoreTable(scores=np.array([0.5])),
                               weighting_only("homophilic"))

    def test_auto_is_not_a_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TransformConfig(mode="auto")


def argsort_keep_mask(harm, delta):
    """_keep_mask as it was before it partitioned: a full stable argsort of
    -harm, kept as oracle."""
    k = min(int(np.ceil(delta * len(harm))), len(harm))
    keep = np.ones(len(harm), dtype=bool)
    keep[np.argsort(-harm, kind="stable")[:k]] = False
    return keep


class TestKeepMask:
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.269, 0.5, 0.731, 1.0]) | st.floats(0, 1),
                    max_size=60).map(np.array),
           st.sampled_from([0.0, 0.1, 0.3, 0.9]) | st.floats(0.0, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, harm, delta):
        assert np.array_equal(_keep_mask(harm, delta), argsort_keep_mask(harm, delta))

    def test_ties_go_in_index_order(self):
        harm = np.array([0.5, 0.9, 0.5, 0.5, 0.1, 0.5])
        # k = ceil(0.5 * 6) = 3: the 0.9 edge, then the two lowest-indexed 0.5 edges
        assert _keep_mask(harm, 0.5).tolist() == [False, False, False, True, True, True]


class TestFilterEdges:
    @pytest.mark.parametrize("weighting", [True, False])
    def test_filtered_arm_shares_the_parents_frozen_arrays(self, rng, weighting):
        g = random_labeled_graph(rng, 30, 0.3)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        config = TransformConfig(mode="homophilic", delta=0.3, enable_weighting=weighting)
        out = graphost_transform(g, scores, config).base
        assert np.shares_memory(out.features, g.features)
        assert np.shares_memory(out.labels, g.labels)
        assert not out.edges.flags.writeable
        # the kept rows of the canonical edges, as they are
        assert np.array_equal(out.edges, g.edges[_keep_mask(1.0 - scores.scores, 0.3)])

    def test_delta_zero_identity(self, rng):
        g = random_labeled_graph(rng, 8, 0.5)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        out = filter_edges(g, scores, "homophilic", 0.0)
        assert np.array_equal(out.edges, g.edges)

    def test_exact_removal_count(self):
        g = LabeledGraph(
            num_nodes=11,
            edges=np.array([[i, i + 1] for i in range(10)]),
            labels=np.zeros(11, dtype=int),
        )
        scores = EdgeScoreTable(scores=np.linspace(0, 1, 10))
        out = filter_edges(g, scores, "homophilic", 0.3)
        assert out.num_edges == 7
        # harm = 1 - score: the three lowest scores go
        kept_scores = {round(float(s), 3) for s in np.linspace(0, 1, 10)[3:]}
        surviving = {
            round(float(scores.scores[i]), 3)
            for i in range(10)
            if tuple(g.edges[i]) in out.edge_pairs()
        }
        assert surviving == kept_scores

    def test_tie_break_by_edge_index(self):
        g = LabeledGraph(
            num_nodes=5,
            edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
            labels=np.zeros(5, dtype=int),
        )
        scores = EdgeScoreTable(scores=np.full(4, 0.5))
        out = filter_edges(g, scores, "homophilic", 0.5)
        # all harm equal -> first two canonical edges removed
        assert out.edges.tolist() == [[2, 3], [3, 4]]

    def test_weighted_graph_keeps_surviving_weights(self, rng):
        g = random_labeled_graph(rng, 8, 0.6)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        wg = graphost_transform(g, scores, weighting_only("homophilic"))
        out = graphost_transform(g, scores, TransformConfig(mode="homophilic", delta=0.4))
        for i, pair in enumerate(map(tuple, out.base.edges)):
            j = next(k for k, p in enumerate(map(tuple, g.edges)) if p == pair)
            assert out.edge_weights[i] == wg.edge_weights[j]

    def test_invalid_delta(self, rng):
        g = random_labeled_graph(rng, 5, 0.5)
        scores = EdgeScoreTable(scores=np.full(g.num_edges, 0.5))
        with pytest.raises(ValueError, match="delta"):
            filter_edges(g, scores, "homophilic", 1.0)

    def test_nodes_and_features_untouched(self, rng):
        g = random_labeled_graph(rng, 9, 0.5)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        out = filter_edges(g, scores, "homophilic", 0.7)
        assert out.num_nodes == g.num_nodes
        assert np.array_equal(out.features, g.features)

    @given(st.integers(0, 10_000), st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_removal_count_property(self, graph_seed, delta):
        rng = np.random.default_rng(graph_seed)
        g = random_labeled_graph(rng, 8, 0.5)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        out = filter_edges(g, scores, "homophilic", delta)
        assert g.num_edges - out.num_edges == min(
            int(np.ceil(delta * g.num_edges)), g.num_edges
        )


class TestOracleFilterEquivalence:
    @pytest.mark.parametrize("fixture_seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.5, 0.9])
    def test_matches_brute_force(self, fixture_seed, delta):
        rng = np.random.default_rng(fixture_seed)
        g = random_labeled_graph(rng, 30, 0.2)
        scores = oracle_scores(g)
        expected_pairs, expected_hd = brute_force_filter(g, scores, "homophilic", delta)
        out = filter_edges(g, scores, "homophilic", delta)
        assert out.edge_pairs() == expected_pairs
        if expected_hd is not None and out.num_edges:
            assert edge_homophily_degree(out) == expected_hd

    def test_hd_monotone_in_delta_with_oracle(self, rng):
        g = random_labeled_graph(rng, 30, 0.25)
        scores = oracle_scores(g)
        previous = edge_homophily_degree(g)
        het_total = int(np.count_nonzero(scores.scores == 0.0))
        for delta in np.arange(0.05, 0.95, 0.05):
            out = filter_edges(g, scores, "homophilic", float(delta))
            removed = g.num_edges - out.num_edges
            if out.num_edges == 0:
                break
            hd = edge_homophily_degree(out)
            if removed <= het_total:
                assert hd >= previous - 1e-12
            previous = hd


class TestTransformConfig:
    def test_mode_and_delta_validated(self):
        with pytest.raises(ValueError, match="mode"):
            TransformConfig(mode="sideways")
        with pytest.raises(ValueError, match="delta"):
            TransformConfig(mode="homophilic", delta=1.0)
        # the ranked rule is the only filter rule: no score-threshold switch
        with pytest.raises(TypeError, match="threshold_semantics"):
            TransformConfig(mode="homophilic", threshold_semantics=True)
        assert asdict(TransformConfig(mode="homophilic")) == {
            "mode": "homophilic", "delta": 0.3, "enable_weighting": True,
            "enable_filtering": True,
        }

    @pytest.mark.parametrize("field, value", [
        ("enable_weighting", "no"), ("enable_weighting", 1), ("enable_weighting", None),
        ("enable_filtering", 0), ("enable_filtering", np.bool_(False)),
        ("delta", False), ("delta", "0.3"), ("delta", None),
    ])
    def test_fields_are_not_cast(self, field, value):
        # a switch takes a bool only, and a bool is never a number
        with pytest.raises(ValueError, match=field):
            TransformConfig(mode="homophilic", **{field: value})

    def test_mode_is_required_and_resolved(self):
        with pytest.raises(TypeError, match="mode"):
            TransformConfig()
        with pytest.raises(ValueError, match="'auto'"):
            TransformConfig(mode="auto")


class TestResolveMode:
    """The regime is read off the predictor's alpha, the heterophilic edge
    fraction of its training graph (HD = 1 - alpha): alpha <= 0.5 is
    homophilic, the old HD >= 0.5 rule on the same edge counts."""

    @staticmethod
    def predictor(metadata: dict) -> Checkpoint:
        spec = ArchitectureSpec.default("gcn", 2, 2, 2, 2)
        return Checkpoint(spec=spec, params=init_params(spec, 0), metadata=metadata)

    @pytest.mark.parametrize("labels, edges, alpha, mode", [
        ([0, 0, 0, 1], [[0, 1], [1, 2], [2, 3]], 1 / 3, "homophilic"),  # HD = 2/3
        ([0, 0, 0, 1], [[0, 1], [2, 3]], 0.5, "homophilic"),  # HD = 0.5 boundary
        ([0, 1, 0, 1], [[0, 1], [1, 2], [2, 3]], 1.0, "heterophilic"),  # HD = 0
    ])
    def test_training_graph_alpha_picks_regime(self, labels, edges, alpha, mode):
        g = LabeledGraph(num_nodes=4, edges=np.array(edges), labels=np.array(labels))
        assert build_edge_training_set(g)[2] == alpha
        assert resolve_mode(self.predictor({"alpha": alpha})) == mode
        assert (edge_homophily_degree(g) >= 0.5) == (mode == "homophilic")

    @pytest.mark.parametrize("metadata, message", [
        ({}, "missing required key 'alpha' in metadata"),
        ({"alpha": True}, '"alpha" in metadata must be a finite number'),
        ({"alpha": "0.3"}, '"alpha" in metadata must be a finite number'),
        ({"alpha": float("nan")}, '"alpha" in metadata must be a finite number'),
        ({"alpha": 1.5}, "alpha 1.5 lies outside"),
        ({"alpha": -0.1}, "alpha -0.1 lies outside"),
    ])
    def test_unusable_alpha_rejected(self, metadata, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve_mode(self.predictor(metadata))

    @pytest.mark.parametrize("intra, inter, alpha, mode", [
        (0.05, 0.02, 0.2910, "homophilic"),
        (0.02, 0.05, 0.7189, "heterophilic"),
    ])
    def test_bench_fixtures_match_training_graph_rule(self, intra, inter, alpha, mode):
        # scripts/run_benchmark.py's two fixtures; alpha is read off the
        # training graph before training, so one epoch gives the same one
        fx = make_fixture(intra_prob=intra, inter_prob=inter, seed=0, num_layers=4,
                          predictor_hidden=64, max_epochs=1, patience=1)
        assert fx.predictor.metadata["alpha"] == pytest.approx(alpha, abs=5e-5)
        assert 1.0 - fx.predictor.metadata["alpha"] == edge_homophily_degree(fx.train_graph)
        assert fx.mode == resolve_mode(fx.predictor) == mode
        assert (resolve_mode(fx.predictor) == "homophilic") == (
            edge_homophily_degree(fx.train_graph) >= 0.5
        )


class TestPipelineAlgebra:
    def test_weight_filter_order_independent(self, rng):
        g = random_labeled_graph(rng, 12, 0.4)
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        weighted_first = graphost_transform(
            g, scores, TransformConfig(mode="homophilic", delta=0.4)
        )
        filtered = filter_edges(g, scores, "homophilic", 0.4)
        surviving_idx = [
            i for i, pair in enumerate(map(tuple, g.edges))
            if pair in filtered.edge_pairs()
        ]
        filtered_first = graphost_transform(
            filtered, EdgeScoreTable(scores=scores.scores[surviving_idx]),
            weighting_only("homophilic"),
        )
        assert np.array_equal(weighted_first.base.edges, filtered_first.base.edges)
        assert np.array_equal(weighted_first.edge_weights, filtered_first.edge_weights)

    def test_permutation_invariance(self, rng):
        g = random_labeled_graph(rng, 10, 0.5)
        perm = rng.permutation(g.num_edges)
        shuffled = LabeledGraph(
            num_nodes=g.num_nodes,
            edges=g.edges[perm],
            features=g.features,
            labels=g.labels,
        )
        # canonical ordering makes the same score table apply to both
        scores = EdgeScoreTable(scores=rng.uniform(size=g.num_edges))
        a = filter_edges(g, scores, "homophilic", 0.5)
        b = filter_edges(shuffled, scores, "homophilic", 0.5)
        assert np.array_equal(a.edges, b.edges)


ARM_CONFIGS = {
    "base": dict(enable_weighting=False, enable_filtering=False),
    "wo_weight": dict(enable_weighting=False, enable_filtering=True),
    "wo_filter": dict(enable_weighting=True, enable_filtering=False),
    "full": dict(enable_weighting=True, enable_filtering=True),
}


class TestScoreTableArgument:
    @pytest.fixture
    def setup(self, rng):
        graph = random_labeled_graph(rng, 30, 0.3, feature_dim=4)
        spec = ArchitectureSpec.default("gcn", 4, 8, hidden=8)
        return graph, Checkpoint(spec=spec, params=init_params(spec, seed=5))

    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    @pytest.mark.parametrize("arm", sorted(ARM_CONFIGS))
    def test_table_gives_the_predictor_result(self, setup, mode, arm):
        graph, predictor = setup
        config = TransformConfig(mode=mode, delta=0.3, **ARM_CONFIGS[arm])
        from_predictor = graphost_transform(graph, predictor, config)
        table = edge_homophily_scores(predictor, graph)
        from_table = graphost_transform(graph, table, config)
        assert np.array_equal(from_table.base.edges, from_predictor.base.edges)
        assert np.array_equal(from_table.edge_weights, from_predictor.edge_weights)

    @pytest.mark.parametrize("weighting", [True, False])
    @pytest.mark.parametrize("filtering", [True, False])
    def test_wrong_length_table_rejected(self, setup, weighting, filtering):
        graph, _ = setup
        table = EdgeScoreTable(scores=np.full(graph.num_edges + 1, 0.5))
        config = TransformConfig(
            mode="homophilic", enable_weighting=weighting, enable_filtering=filtering
        )
        with pytest.raises(ValueError, match="scores for"):
            graphost_transform(graph, table, config)


@st.composite
def labeled_test_graphs(draw):
    """A test graph with labels, plus a permutation of those labels."""
    n = draw(st.integers(2, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    edges = np.array([(u, v) for u, v in pairs if u != v], dtype=np.int64).reshape(-1, 2)
    features = np.array(draw(st.lists(st.floats(-10, 10), min_size=3 * n, max_size=3 * n)))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    graph = LabeledGraph(num_nodes=n, edges=edges, features=features.reshape(n, 3),
                         labels=labels, num_classes=3)
    return graph, draw(st.permutations(labels.tolist()))


class TestLabelFree:
    """Scoring and the transform never read test labels: a graph with its
    labels, with permuted labels and with none give the same bits."""

    @given(labeled_test_graphs(), st.sampled_from(["gcn", "mlp"]),
           st.sampled_from(["homophilic", "heterophilic"]), st.sampled_from([0.0, 0.3, 0.7]),
           st.booleans(), st.booleans(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_labels_change_no_output(self, case, kind, mode, delta, weighting, filtering,
                                     seed):
        graph, permuted = case
        spec = ArchitectureSpec.default(kind, 3, 4, hidden=4)
        predictor = Checkpoint(spec=spec, params=init_params(spec, seed=seed))
        config = TransformConfig(mode=mode, delta=delta, enable_weighting=weighting,
                                 enable_filtering=filtering)
        want_scores = edge_homophily_scores(predictor, graph).scores
        want = graphost_transform(graph, predictor, config)
        for variant in (replace(graph, labels=np.array(permuted)), replace(graph, labels=None)):
            scores = edge_homophily_scores(predictor, variant).scores
            assert scores.tobytes() == want_scores.tobytes()
            got = graphost_transform(variant, predictor, config)
            assert np.array_equal(got.base.edges, want.base.edges)
            assert got.base.features.tobytes() == want.base.features.tobytes()
            assert got.edge_weights.tobytes() == want.edge_weights.tobytes()
