import json
import tracemalloc

import numpy as np
import pytest

from graphost.csbm import (
    _STREAM_NOISE,
    CsbmParams,
    _sample_edges,
    _stream,
    _unrank_triu,
    generate_csbm,
    perturb_features,
    symmetric_binary_params,
)
from graphost.graphs import LabeledGraph, edge_homophily_degree


def binary_params(p, q, n=100, dim=2, distance=2.0):
    return symmetric_binary_params(distance, dim, (n, n), p, q)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="coincide"):
            CsbmParams(((1.0,), (1.0,)), (5, 5), 0.5, 0.1)
        with pytest.raises(ValueError, match="two classes"):
            CsbmParams(((1.0,),), (5,), 0.5, 0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CsbmParams(((1.0,), (0.0,)), (5, 5), 1.5, 0.1)
        with pytest.raises(ValueError, match="at least one node"):
            CsbmParams(((1.0,), (0.0,)), (5, 0), 0.5, 0.1)

    def test_json_round_trip(self, tmp_path):
        params = binary_params(0.3, 0.1)
        path = tmp_path / "params.json"
        params.save(path)
        assert CsbmParams.load(path) == params
        assert CsbmParams.from_dict(json.loads(json.dumps(params.to_dict()))) == params

    @pytest.mark.parametrize("field, value", [
        ("class_means", 5),
        ("class_means", [[1.0, 0.0], [-1.0]]),
        ("class_means", [[1.0, "0"], [-1.0, 0.0]]),
        ("class_means", [[1.0, True], [-1.0, 0.0]]),
        ("class_means", [[1.0, float("nan")], [-1.0, 0.0]]),
        ("class_sizes", [3.7, 3]),
        ("class_sizes", [True, 3]),
        ("class_sizes", "3,3"),
        ("intra_prob", "0.1"),
        ("inter_prob", None),
    ])
    def test_from_dict_rejects_mistyped_field_by_name(self, field, value):
        doc = {"class_means": [[1.0, 0.0], [-1.0, 0.0]], "class_sizes": [3, 3],
               "intra_prob": 0.2, "inter_prob": 0.05}
        with pytest.raises(ValueError, match=field):
            CsbmParams.from_dict(doc | {field: value})
        doc.pop(field)
        with pytest.raises(ValueError, match=field):
            CsbmParams.from_dict(doc)

    @pytest.mark.parametrize("field, value, shown", [
        ("class_means", ((1.0, True), (-1.0, 0.0)), r"class_means\[0\]\[1\]"),
        ("class_means", ((1.0, 0.0), ("-1", 0.0)), r"class_means\[1\]\[0\]"),
        ("class_sizes", (300.7, 300), r"class_sizes\[0\]"),
        ("class_sizes", (300, 300.0), r"class_sizes\[1\]"),
        ("class_sizes", ("3", 300), r"class_sizes\[0\]"),
        ("class_sizes", (True, 300), r"class_sizes\[0\]"),
        ("intra_prob", True, "intra_prob"),
        ("intra_prob", "0.1", "intra_prob"),
        ("inter_prob", False, "inter_prob"),
        ("inter_prob", 1.5, "inter_prob"),
    ])
    def test_fields_are_not_cast(self, field, value, shown):
        # no field is silently reinterpreted: a float or bool count, a bool
        # or string number is refused by name
        fields = {"class_means": ((1.0, 0.0), (-1.0, 0.0)), "class_sizes": (3, 3),
                  "intra_prob": 0.2, "inter_prob": 0.05}
        with pytest.raises(ValueError, match=shown):
            CsbmParams(**fields | {field: value})

    def test_numpy_scalars_are_numbers(self):
        params = CsbmParams(((np.float64(1.0), np.int64(0)), (-1.0, 0.0)),
                            (np.int64(3), np.int32(4)), np.float64(0.2), 0.05)
        assert params.class_sizes == (3, 4) and type(params.class_sizes[0]) is int
        assert json.dumps(params.to_dict())

    @pytest.mark.parametrize("distance", [0.0, -2.0, -1e-300, float("nan")])
    def test_symmetric_params_refuse_non_positive_distance(self, distance):
        # 0 would make the means coincide and a negative distance swap them
        with pytest.raises(ValueError, match="mean_distance must be positive"):
            symmetric_binary_params(distance, 4, (10, 10), 0.5, 0.1)

    def test_symmetric_means_distance(self):
        params = symmetric_binary_params(2.0, 16, (10, 10), 0.5, 0.1)
        mu = np.asarray(params.class_means)
        assert np.linalg.norm(mu[0] - mu[1]) == pytest.approx(2.0)


class TestGeneration:
    def test_two_disjoint_cliques(self):
        g = generate_csbm(binary_params(1.0, 0.0, n=3), seed=0)
        pairs = g.edge_pairs()
        assert pairs == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}

    def test_blockwise_labels(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=4), seed=0)
        assert g.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_seed_determinism(self):
        params = binary_params(0.2, 0.05)
        a = generate_csbm(params, seed=42)
        b = generate_csbm(params, seed=42)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.features, b.features)

    def test_different_seeds_differ(self):
        params = binary_params(0.2, 0.05)
        a = generate_csbm(params, seed=1)
        b = generate_csbm(params, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_node_features_independent_of_class_sizes(self):
        # node 0 sits in class 0 under both layouts; its per-node stream must
        # not depend on how many nodes follow it
        small = generate_csbm(binary_params(0.5, 0.1, n=5), seed=9)
        large = generate_csbm(binary_params(0.5, 0.1, n=50), seed=9)
        assert np.array_equal(small.features[0], large.features[0])

    def test_intra_edge_count_matches_expectation(self):
        # analytic oracle: E[intra edges] = p * 2 * C(500, 2) = 4990,
        # Var = p(1-p) * 2 * C(500, 2); compare the Monte Carlo mean at 3 SE
        p, n, seeds = 0.02, 500, 40
        params = binary_params(p, 0.01, n=n, dim=2)
        pairs = 2 * (n * (n - 1) // 2)
        expected = p * pairs
        std_err = np.sqrt(p * (1 - p) * pairs / seeds)
        counts = []
        for seed in range(seeds):
            g = generate_csbm(params, seed=seed)
            same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
            counts.append(int(np.count_nonzero(same)))
        assert abs(np.mean(counts) - expected) <= 3 * std_err

    def test_equal_probabilities_hd_matches_pair_ratio(self):
        # brute-force expectation over pair types: with p = q every pair is
        # equally likely, so E[HD] = intra_pairs / total_pairs
        n, seeds = 100, 40
        params = binary_params(0.05, 0.05, n=n, dim=2)
        intra = 2 * (n * (n - 1) // 2)
        total = (2 * n) * (2 * n - 1) // 2
        expected = intra / total
        values = [
            edge_homophily_degree(generate_csbm(params, seed=s)) for s in range(seeds)
        ]
        std_err = np.std(values, ddof=1) / np.sqrt(seeds)
        assert abs(np.mean(values) - expected) <= 4 * std_err

    def test_feature_mean_convergence(self):
        params = binary_params(0.01, 0.005, n=500, dim=8)
        g = generate_csbm(params, seed=5)
        mu = np.asarray(params.class_means)
        for cls in (0, 1):
            sample_mean = g.features[g.labels == cls].mean(axis=0)
            assert np.linalg.norm(sample_mean - mu[cls]) <= 4 * np.sqrt(8 / 500)


class TestEdgeSampler:
    def test_unranking_matches_triu_order(self):
        for m in range(1, 65):
            iu, ju = np.triu_indices(m, k=1)
            i, j = _unrank_triu(np.arange(len(iu)), m)
            assert np.array_equal(i, iu) and np.array_equal(j, ju), m

    def test_blocks_draw_independently(self):
        # each block has its own stream: q only moves cross-block edges,
        # p only moves intra-block edges
        means = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
        sizes = (30, 40, 25)

        def split(p, q):
            g = generate_csbm(CsbmParams(means, sizes, p, q), seed=11)
            same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
            return g.edges[same], g.edges[~same]

        intra, cross = split(0.3, 0.05)
        intra_q, cross_q = split(0.3, 0.2)
        intra_p, cross_p = split(0.6, 0.05)
        assert np.array_equal(intra, intra_q) and not np.array_equal(cross, cross_q)
        assert np.array_equal(cross, cross_p) and not np.array_equal(intra, intra_p)

    @pytest.mark.parametrize("p, q", [(0.1, 0.5), (0.5, 1.0), (1.0, 0.1)])
    def test_pair_frequencies(self, p, q):
        # every pair is an independent Bernoulli(p or q) draw: over 2,000
        # seeds each pair's frequency sits within 4 SE of its probability
        m, seeds = 6, 2000
        params = binary_params(p, q, n=m)
        n = 2 * m
        counts = np.zeros(n * n)
        for seed in range(seeds):
            e = _sample_edges(params, seed)
            counts[e[:, 0] * n + e[:, 1]] += 1
        u, v = np.triu_indices(n, k=1)
        prob = np.where((u < m) == (v < m), p, q)
        freq = counts.reshape(n, n)[u, v] / seeds
        se = np.sqrt(prob * (1 - prob) / seeds)
        assert np.all(np.abs(freq - prob) <= 4 * se)
        assert counts.reshape(n, n)[np.tril_indices(n)].sum() == 0

    def test_memory_linear_in_edges(self):
        # 2 x 5,000 nodes at mean degree ~21: an all-pairs scan would trace
        # hundreds of MB; the sampler holds O(n + E)
        m = 5000
        q = 21.0 / (2.5 * (m - 1) + m)
        params = symmetric_binary_params(2.0, 16, (m, m), 2.5 * q, q)
        tracemalloc.start()
        try:
            g = generate_csbm(params, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 15 * m < g.num_edges < 27 * m
        assert peak < 64 * 2**20


class TestMulticlass:
    def test_three_disjoint_cliques(self):
        params = CsbmParams(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)), (2, 2, 2), 1.0, 0.0)
        g = generate_csbm(params, seed=0)
        assert g.edge_pairs() == {(0, 1), (2, 3), (4, 5)}

    def test_complete_tripartite(self):
        params = CsbmParams(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)), (2, 2, 2), 0.0, 1.0)
        g = generate_csbm(params, seed=0)
        assert g.num_edges == 12  # 3 block pairs x 2 x 2
        same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
        assert not same.any()


class TestPerturbFeatures:
    def test_zero_noise_identity(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=5), seed=0)
        assert perturb_features(g, 0.0, seed=1) is g

    def test_structure_unchanged(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=5), seed=0)
        noisy = perturb_features(g, 0.5, seed=1)
        assert np.array_equal(noisy.edges, g.edges)
        assert not np.array_equal(noisy.features, g.features)

    def test_deterministic(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=5), seed=0)
        a = perturb_features(g, 0.5, seed=1)
        b = perturb_features(g, 0.5, seed=1)
        assert np.array_equal(a.features, b.features)

    def test_node_noise_independent_of_graph_size(self):
        small = generate_csbm(binary_params(0.5, 0.1, n=5), seed=0)
        large = generate_csbm(binary_params(0.5, 0.1, n=50), seed=0)
        delta_small = perturb_features(small, 0.5, seed=1).features - small.features
        delta_large = perturb_features(large, 0.5, seed=1).features - large.features
        assert np.array_equal(delta_small[:5], delta_large[:5])

    def test_shares_the_parents_frozen_structure(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=50, dim=4), seed=0)
        noisy = perturb_features(g, 0.5, seed=1)
        assert np.shares_memory(noisy.edges, g.edges)
        assert np.shares_memory(noisy.labels, g.labels)
        assert not np.shares_memory(noisy.features, g.features)
        for a in (noisy.edges, noisy.labels, noisy.features):
            assert not a.flags.writeable
        # features + noise as it was computed before the sum reused the noise
        noise = _stream(1, _STREAM_NOISE).standard_normal(g.features.shape)
        noise *= 0.5
        assert np.array_equal(noisy.features, g.features + noise)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_noise_std_named(self, noise_std):
        g = generate_csbm(binary_params(0.5, 0.1, n=5), seed=0)
        with pytest.raises(ValueError, match=f"noise_std must be finite, got {noise_std}"):
            perturb_features(g, noise_std, seed=1)

    def test_noise_scale(self):
        g = generate_csbm(binary_params(0.5, 0.1, n=400, dim=8), seed=0)
        noisy = perturb_features(g, 0.7, seed=1)
        delta = noisy.features - g.features
        assert abs(delta.std() - 0.7) < 0.02


class TestPerturbRefusals:
    """perturb_features refuses what it cannot perturb, by message."""

    def test_featureless_graph_is_refused(self):
        graph = generate_csbm(binary_params(0.1, 0.02, n=10), seed=0)
        bare = LabeledGraph(graph.num_nodes, graph.edges, labels=graph.labels)
        with pytest.raises(ValueError, match="^graph has no features to perturb$"):
            perturb_features(bare, 0.5, seed=0)

    def test_negative_noise_std_is_refused(self):
        graph = generate_csbm(binary_params(0.1, 0.02, n=10), seed=0)
        with pytest.raises(ValueError, match="^noise_std must be non-negative$"):
            perturb_features(graph, -0.5, seed=0)
