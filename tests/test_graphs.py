import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphost.graphs as graphs_module
from graphost.graphs import (
    GraphFormatError,
    LabeledGraph,
    WeightedGraph,
    canonicalize_edges,
    edge_homophily_degree,
    inject_structural_noise,
    load_graph,
    load_weighted_graph,
    random_edge_drop,
    save_graph,
)

from conftest import random_labeled_graph


def triangle(labels=(0, 0, 1)):
    return LabeledGraph(
        num_nodes=3,
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
        features=np.eye(3),
        labels=np.array(labels),
    )


edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=40,
)


class TestCanonicalization:
    def test_undirected_sorted_unique(self):
        edges = canonicalize_edges([(2, 1), (1, 2), (0, 3)], num_nodes=4)
        assert edges.tolist() == [[0, 3], [1, 2]]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            canonicalize_edges([(1, 1)], num_nodes=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            canonicalize_edges([(0, 5)], num_nodes=3)

    @given(edge_lists)
    @settings(max_examples=100)
    def test_idempotent(self, edges):
        once = canonicalize_edges(edges, num_nodes=10)
        twice = canonicalize_edges(once, num_nodes=10)
        assert np.array_equal(once, twice)

    @given(edge_lists)
    @settings(max_examples=100)
    def test_permutation_invariant(self, edges):
        reversed_order = list(reversed(edges))
        assert np.array_equal(
            canonicalize_edges(edges, num_nodes=10),
            canonicalize_edges(reversed_order, num_nodes=10),
        )


def canonical_reference(edges, num_nodes):
    """The row-wise np.unique canonicalisation the keyed sort replaced."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.stack([arr.min(axis=1), arr.max(axis=1)], axis=1)
    return np.unique(pairs, axis=0)


class TestCanonicalReference:
    @given(
        edge_lists,
        st.sampled_from(["as_given", "reversed_pairs", "doubled", "canonical"]),
    )
    @settings(max_examples=200)
    def test_equals_unique_reference(self, edges, layout):
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if layout == "reversed_pairs":
            arr = np.ascontiguousarray(arr[:, ::-1])
        elif layout == "doubled":
            arr = np.concatenate([arr, arr[::-1, ::-1]])
        elif layout == "canonical":
            arr = canonical_reference(arr, 10)
        out = canonicalize_edges(arr, num_nodes=10)
        want = canonical_reference(arr, 10)
        assert out.dtype == np.int64 and out.shape == (len(want), 2)
        assert np.array_equal(out, want)
        assert not np.shares_memory(out, arr)

    def test_graph_edges_never_alias_input(self):
        edges = np.array([[0, 1], [1, 2]])
        g = LabeledGraph(num_nodes=3, edges=edges)
        edges[0, 1] = 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert edges.flags.writeable

    def test_rejects_node_count_beyond_int64_keys(self):
        canonicalize_edges([(0, 1)], num_nodes=3_037_000_499)
        with pytest.raises(ValueError, match="int64"):
            canonicalize_edges([(0, 1)], num_nodes=3_037_000_500)


class TestGraphInvariants:
    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="labels length"):
            LabeledGraph(num_nodes=3, edges=np.array([[0, 1]]), labels=np.array([0, 1]))

    def test_features_shape_checked(self):
        with pytest.raises(ValueError, match="features"):
            LabeledGraph(num_nodes=3, edges=np.array([[0, 1]]), features=np.zeros((2, 4)))

    def test_num_classes_inferred(self):
        g = triangle(labels=(0, 2, 1))
        assert g.num_classes == 3

    def test_immutable_arrays(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5

    def test_weighted_graph_range_checked(self):
        g = triangle()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightedGraph(base=g, edge_weights=np.array([0.5, 1.2, 0.1]))
        with pytest.raises(ValueError, match="weights for"):
            WeightedGraph(base=g, edge_weights=np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats = np.eye(3)
        feats[1, 2] = bad
        with pytest.raises(ValueError, match="node 1 are not finite"):
            LabeledGraph(num_nodes=3, edges=np.array([[0, 1]]), features=feats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\], got"):
            WeightedGraph(base=triangle(), edge_weights=np.array([0.5, bad, 0.1]))

    def test_weighted_graph_defaults_to_unit(self):
        wg = WeightedGraph(base=triangle())
        assert np.array_equal(wg.edge_weights, np.ones(3))


class TestHomophilyDegree:
    def test_all_same_class(self):
        g = LabeledGraph(
            num_nodes=3, edges=np.array([[0, 1], [1, 2]]), labels=np.array([0, 0, 0])
        )
        assert edge_homophily_degree(g) == 1.0

    def test_hand_enumerated_third(self):
        # labels [0,0,1] over a triangle: only (0,1) joins same-class nodes
        assert edge_homophily_degree(triangle()) == pytest.approx(1.0 / 3.0)

    def test_empty_edge_list_is_undefined(self):
        g = LabeledGraph(num_nodes=3, edges=np.empty((0, 2)), labels=np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="undefined HD"):
            edge_homophily_degree(g)

    def test_requires_labels(self):
        g = LabeledGraph(num_nodes=2, edges=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="labels"):
            edge_homophily_degree(g)

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=10),
        edge_lists.filter(lambda e: len(e) > 0),
    )
    @settings(max_examples=100)
    def test_always_a_fraction(self, labels, edges):
        n = len(labels)
        edges = [(u % n, v % n) for u, v in edges if u % n != v % n]
        if not edges:
            return
        g = LabeledGraph(num_nodes=n, edges=np.array(edges), labels=np.array(labels))
        assert 0.0 <= edge_homophily_degree(g) <= 1.0

    def test_photo_like_corpus_ingest(self, tmp_path):
        # Synthetic stand-in with the published homophily level: 10,000 edges
        # of which 9,546 connect same-label endpoints -> HD 95.46%.
        intra = [(i, j) for i in range(150) for j in range(i + 1, 150)][:9546]
        cross = [(i, 150 + j) for i in range(150) for j in range(150)][:454]
        g = LabeledGraph(
            num_nodes=300,
            edges=np.array(intra + cross),
            features=np.arange(300, dtype=float).reshape(-1, 1),
            labels=np.array([0] * 150 + [1] * 150),
        )
        save_graph(g, tmp_path / "photo_like.json")
        loaded = load_graph(tmp_path / "photo_like.json")
        assert loaded.num_edges == 10_000
        assert edge_homophily_degree(loaded) == pytest.approx(0.9546)


class TestStructuralNoise:
    def test_zero_ratio_is_identity(self):
        g = triangle()
        assert np.array_equal(inject_structural_noise(g, 0.0, seed=1).edges, g.edges)

    def test_edge_count_preserved(self, rng):
        edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.25]
        g = LabeledGraph(num_nodes=30, edges=np.array(edges))
        noisy = inject_structural_noise(g, 0.5, seed=3)
        assert noisy.num_edges == g.num_edges
        removed = g.edge_pairs() - noisy.edge_pairs()
        added = noisy.edge_pairs() - g.edge_pairs()
        assert len(removed) == len(added) == int(np.floor(0.25 * g.num_edges))

    def test_hundred_edges_half_noise(self):
        rng = np.random.default_rng(0)
        edges = set()
        while len(edges) < 100:
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = LabeledGraph(num_nodes=40, edges=np.array(sorted(edges)))
        noisy = inject_structural_noise(g, 0.5, seed=9)
        assert noisy.num_edges == 100
        assert len(g.edge_pairs() - noisy.edge_pairs()) == 25

    def test_complete_graph_addition_pool_empty(self):
        n = 8
        complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = LabeledGraph(num_nodes=n, edges=np.array(complete))
        k = int(np.floor(0.25 * len(complete)))
        noisy = inject_structural_noise(g, 0.5, seed=4)
        # complement of the original edge set is empty -> nothing can be added
        assert noisy.num_edges == len(complete) - k
        assert noisy.edge_pairs() <= g.edge_pairs()

    def test_dense_graph_falls_back_to_enumeration(self):
        n = 12
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = LabeledGraph(num_nodes=n, edges=np.array(all_pairs[:-3]))
        noisy = inject_structural_noise(g, 1.0, seed=5)
        # pool of 3 non-edges caps the additions
        removed = int(np.floor(0.5 * g.num_edges))
        assert noisy.num_edges == g.num_edges - removed + 3

    def test_drop_draw_is_one_choice_without_replacement(self, rng):
        # both the noise injection and the random drop remove the edges of
        # rng.choice(E, k, replace=False), drawn first from default_rng(seed)
        edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.25]
        g = LabeledGraph(num_nodes=30, edges=np.array(edges))
        k = int(np.floor(0.25 * g.num_edges))
        removed = np.random.default_rng(11).choice(g.num_edges, size=k, replace=False)
        kept = np.delete(g.edges, removed, axis=0)
        assert np.array_equal(random_edge_drop(g, k, seed=11).edges, kept)
        assert kept.tolist() == [
            e for e in inject_structural_noise(g, 0.5, seed=11).edges.tolist()
            if tuple(e) in g.edge_pairs()
        ]

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="noise_ratio"):
            inject_structural_noise(triangle(), 1.5, seed=0)

    def test_no_self_loops_or_duplicates(self):
        g = triangle()
        noisy = inject_structural_noise(g, 1.0, seed=7)
        assert (noisy.edges[:, 0] != noisy.edges[:, 1]).all()
        assert len(noisy.edge_pairs()) == noisy.num_edges

    def test_pure_function_of_seed(self):
        g = triangle()
        a = inject_structural_noise(g, 1.0, seed=11)
        b = inject_structural_noise(g, 1.0, seed=11)
        assert np.array_equal(a.edges, b.edges)

    def test_nodes_and_features_unchanged(self):
        g = triangle()
        noisy = inject_structural_noise(g, 0.8, seed=2)
        assert noisy.num_nodes == g.num_nodes
        assert np.array_equal(noisy.features, g.features)
        assert np.array_equal(noisy.labels, g.labels)


def sample_non_edges_loop(graph, count, rng):
    """The pure-Python sampler the vectorised one replaced, kept as oracle."""
    n = graph.num_nodes
    existing = graph.edge_pairs()
    target = min(count, n * (n - 1) // 2 - len(existing))
    if target <= 0:
        return np.empty((0, 2), dtype=np.int64)
    chosen, chosen_set = [], set()
    attempts_left = graphs_module._REJECTION_ATTEMPT_FACTOR * target
    while len(chosen) < target and attempts_left > 0:
        batch = min(attempts_left, max(64, target - len(chosen)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        attempts_left -= batch
        for u, v in zip(us.tolist(), vs.tolist()):
            pair = (min(u, v), max(u, v))
            if u == v or pair in existing or pair in chosen_set:
                continue
            chosen.append(pair)
            chosen_set.add(pair)
            if len(chosen) == target:
                break
    if len(chosen) < target:
        complement = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in existing and (u, v) not in chosen_set
        ]
        extra = rng.choice(len(complement), size=target - len(chosen), replace=False)
        chosen.extend(complement[i] for i in sorted(extra.tolist()))
    return np.asarray(chosen, dtype=np.int64).reshape(-1, 2)


class TestNonEdgeSampler:
    @pytest.mark.parametrize("attempt_factor", [100, 1])
    def test_matches_loop_oracle(self, monkeypatch, attempt_factor):
        # attempt factor 1 spends the rejection budget early, so many cases
        # reach the dense complement fallback
        monkeypatch.setattr(graphs_module, "_REJECTION_ATTEMPT_FACTOR", attempt_factor)
        rng = np.random.default_rng(77)
        for _ in range(150):
            n = int(rng.integers(2, 30))
            arr = rng.integers(0, n, size=(int(rng.integers(0, n * n)), 2))
            g = LabeledGraph(num_nodes=n, edges=arr[arr[:, 0] != arr[:, 1]])
            count, seed = int(rng.integers(0, n * n)), int(rng.integers(0, 2**31))
            want = sample_non_edges_loop(g, count, np.random.default_rng(seed))
            got = graphs_module._sample_non_edges(g, count, np.random.default_rng(seed))
            assert got.dtype == np.int64 and np.array_equal(got, want)


class TestDerivedGraphs:
    """Graphs derived inside the package share the arrays they keep, frozen;
    what a caller passes in is still checked."""

    def test_with_features_shares_edges_and_labels(self):
        g = triangle()
        h = g.with_features(np.ones((3, 2)))
        assert np.shares_memory(h.edges, g.edges) and np.shares_memory(h.labels, g.labels)
        assert not h.features.flags.writeable
        assert np.array_equal(g.features, np.eye(3))

    @pytest.mark.parametrize("features, message", [
        (np.ones((2, 2)), "features must be"),
        (np.full((3, 1), np.nan), "node 0 are not finite"),
    ])
    def test_with_features_checks_what_it_is_given(self, features, message):
        with pytest.raises(ValueError, match=message):
            triangle().with_features(features)

    def test_random_edge_drop_keeps_a_frozen_canonical_subset(self, rng):
        g = random_labeled_graph(rng, 30, 0.3)
        dropped = random_edge_drop(g, g.num_edges // 3, seed=2)
        assert not dropped.edges.flags.writeable
        assert np.array_equal(dropped.edges, canonicalize_edges(dropped.edges, 30))
        assert dropped.edge_pairs() <= g.edge_pairs()
        assert np.shares_memory(dropped.features, g.features)
        assert np.shares_memory(dropped.labels, g.labels)


class TestRandomEdgeDrop:
    def test_zero_drop_identity(self):
        g = triangle()
        assert np.array_equal(random_edge_drop(g, 0, seed=0).edges, g.edges)

    def test_full_drop(self):
        assert random_edge_drop(triangle(), 3, seed=0).num_edges == 0

    def test_exact_count_and_subset(self):
        g = triangle()
        dropped = random_edge_drop(g, 2, seed=5)
        assert dropped.num_edges == 1
        assert dropped.edge_pairs() <= g.edge_pairs()

    def test_seed_determinism(self):
        g = triangle()
        assert np.array_equal(
            random_edge_drop(g, 2, seed=3).edges, random_edge_drop(g, 2, seed=3).edges
        )

    def test_over_drop_rejected(self):
        with pytest.raises(ValueError, match="cannot drop"):
            random_edge_drop(triangle(), 4, seed=0)


class TestGraphIO:
    def test_json_round_trip(self, tmp_path):
        g = triangle()
        path = tmp_path / "g.json"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.num_nodes == g.num_nodes
        assert np.array_equal(loaded.edges, g.edges)
        assert np.array_equal(loaded.features, g.features)
        assert np.array_equal(loaded.labels, g.labels)
        assert loaded.num_classes == g.num_classes

    def test_missing_labels_key_loads_unlabeled(self, tmp_path):
        path = tmp_path / "unlabeled.json"
        path.write_text(
            '{"num_nodes": 2, "edges": [[0, 1]], "features": [[1.0], [2.0]]}'
        )
        g = load_graph(path)
        assert g.labels is None

    def test_truncated_json_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"num_nodes": 2, "edges"')
        with pytest.raises(GraphFormatError, match="offset"):
            load_graph(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"num_nodes": 2,\n "edges": [[0, 1]],\n "labels": [0 1]}\n')
        with pytest.raises(GraphFormatError, match=r"broken\.json:3: invalid JSON: .* offset") as err:
            load_graph(path)
        assert err.value.line == 3

    def test_weighted_round_trip(self, tmp_path):
        wg = WeightedGraph(base=triangle(), edge_weights=np.array([0.25, 0.5, 1.0]))
        path = tmp_path / "wg.json"
        save_graph(wg, path)
        loaded = load_weighted_graph(path)
        assert np.array_equal(loaded.edge_weights, wg.edge_weights)
        assert np.array_equal(loaded.base.edges, wg.base.edges)

    def test_load_graph_rejects_weighted_file(self, tmp_path):
        path = tmp_path / "wg.json"
        save_graph(WeightedGraph(base=triangle(), edge_weights=np.array([0.25, 0.5, 1.0])), path)
        with pytest.raises(GraphFormatError, match="load_weighted_graph") as err:
            load_graph(path)
        assert err.value.path == str(path)
        assert str(err.value).count(str(path)) == 1

    def test_zero_edge_graph_round_trip(self, tmp_path):
        g = LabeledGraph(num_nodes=2, edges=[], labels=np.array([0, 1]))
        save_graph(g, tmp_path / "empty.json")
        loaded = load_graph(tmp_path / "empty.json")
        assert loaded.num_edges == 0 and loaded.edges.shape == (0, 2)

    def test_non_finite_json_feature_names_path(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"num_nodes": 2, "edges": [[0, 1]], "features": [[1.0], [NaN]]}')
        with pytest.raises(GraphFormatError, match="not finite") as err:
            load_graph(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_json_weight_names_path(self, tmp_path, bad):
        path = tmp_path / "w.json"
        path.write_text(f'{{"num_nodes": 2, "edges": [[0, 1]], "edge_weights": [{bad}]}}')
        with pytest.raises(GraphFormatError, match=r"\[0, 1\]") as err:
            load_weighted_graph(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("directed, loads", [(True, False), (False, True), (None, True)])
    def test_directed_key(self, tmp_path, directed, loads):
        doc = {"num_nodes": 2, "edges": [[1, 0]]}
        if directed is not None:
            doc["directed"] = directed
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        if loads:
            assert load_graph(path).edges.tolist() == [[0, 1]]
        else:
            with pytest.raises(GraphFormatError, match="directed") as err:
                load_graph(path)
            assert err.value.path == str(path)

    @pytest.mark.parametrize("loader", [load_graph, load_weighted_graph])
    @pytest.mark.parametrize("key", ["label", "feature", "edge_weight"])
    def test_unknown_key_names_path(self, tmp_path, loader, key):
        # a misspelled optional key once loaded as if it were absent
        doc = {"num_nodes": 2, "edges": [[0, 1]], key: [0, 1]}
        path = tmp_path / "misspelled.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphFormatError, match=f"unknown key {key!r}") as err:
            loader(path)
        assert err.value.path == str(path)
        assert str(err.value).count(str(path)) == 1

    @pytest.mark.parametrize("field, value, message", [
        ("num_nodes", None, '"num_nodes" must be an integer'),
        ("num_nodes", 2.5, '"num_nodes" must be an integer'),
        ("num_classes", "x", '"num_classes" must be an integer'),
        ("labels", ["a", "b"], '"labels" must be a list of integer class indices'),
        ("labels", [0.5, 1], '"labels" must be a list of integer class indices'),
        ("features", [[1.0], [None]], '"features" must be a list of numeric rows'),
        ("edge_weights", 0.5, '"edge_weights" must be a list of numbers'),
        ("edge_weights", [[0.5], [0.5, 1.0]], '"edge_weights" must be a list of numbers'),
    ])
    def test_mistyped_field_names_path(self, tmp_path, field, value, message):
        doc = {"num_nodes": 2, "edges": [[0, 1]], "labels": [0, 1], "num_classes": 2}
        doc[field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphFormatError, match=re.escape(message)) as err:
            load_weighted_graph(path)
        assert err.value.path == str(path)
        assert str(err.value).count(str(path)) == 1

    @pytest.mark.parametrize("edges", [
        [[0, 1, 2], [3, 4, 5]],  # width 3: once silently reshaped into 3 pairs
        [0, 1],
        [[0, 1], [2]],
        [[]],
        [[0.5, 1]],
        [["0", "1"]],
        [[[0, 1]]],
        "0 1",
    ])
    def test_edges_must_be_integer_pairs(self, tmp_path, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_nodes": 6, "edges": edges}))
        with pytest.raises(GraphFormatError, match="integer pairs") as err:
            load_graph(path)
        assert err.value.path == str(path)


class TestConstructorRefusals:
    """Each refusal of the graph constructors and derivations, reached through
    its public input, with its message pinned."""

    @pytest.mark.parametrize("edges, shape", [
        (np.array([0, 1, 2]), r"\(3,\)"), (np.array([[0, 1, 2]]), r"\(1, 3\)"),
    ])
    def test_edge_list_of_wrong_shape(self, edges, shape):
        with pytest.raises(ValueError, match=rf"^edge list must have shape \(E, 2\), got {shape}$"):
            canonicalize_edges(edges, 3)
        with pytest.raises(ValueError, match=r"^edge list must have shape"):
            LabeledGraph(num_nodes=3, edges=edges)

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match="^num_nodes must be non-negative$"):
            LabeledGraph(num_nodes=-1, edges=np.empty((0, 2), dtype=np.int64))

    def test_negative_label(self):
        with pytest.raises(ValueError, match="^labels must be non-negative class indices$"):
            triangle(labels=(0, -1, 1))

    def test_label_beyond_num_classes(self):
        with pytest.raises(ValueError, match="^label 2 out of range for 2 classes$"):
            LabeledGraph(num_nodes=3, edges=np.array([[0, 1]]), labels=np.array([0, 2, 1]),
                         num_classes=2)

    def test_feature_dim_of_a_featureless_graph(self):
        graph = LabeledGraph(num_nodes=3, edges=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="^graph has no features$"):
            graph.feature_dim

    def test_negative_drop_count(self):
        with pytest.raises(ValueError, match="^drop_count must be non-negative$"):
            random_edge_drop(triangle(), -1, seed=0)
