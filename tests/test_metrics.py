import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import graphost
from graphost.graphs import LabeledGraph, WeightedGraph
from graphost.metrics import _midranks, accuracy, f1_macro, hd_delta_report, roc_auc


def auc_pair_counting(scores, labels):
    """O(n^2) Mann-Whitney oracle: count positive-over-negative pairs, ties
    worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_hand_count(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            accuracy([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestF1Macro:
    def test_perfect(self):
        assert f1_macro([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_all_one_class_hand_value(self):
        # predicting all 0 on a half/half truth: F1 = (2/3 + 0) / 2
        predicted = [0, 0, 0, 0]
        true = [0, 0, 1, 1]
        assert f1_macro(predicted, true, 2) == pytest.approx(1.0 / 3.0)

    def test_single_class_perfect(self):
        assert f1_macro([0, 0], [0, 0], 1) == 1.0

    def test_absent_class_contributes_zero(self):
        # class 2 never predicted nor true
        assert f1_macro([0, 1], [0, 1], 3) == pytest.approx(2.0 / 3.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            f1_macro([0, 3], [0, 1], 2)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_scores(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_tie_convention(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="undefined AUC"):
            roc_auc([0.4, 0.6], [1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            roc_auc([0.4, 0.6], [1, 2])

    @given(st.integers(0, 100_000))
    @settings(max_examples=80)
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 25)
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(
            auc_pair_counting(scores, labels)
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.5 + 2**-53, 1.0]) | st.floats(0, 1),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=200,
        ).filter(lambda pairs: len({y for _, y in pairs}) == 2)
    )
    @settings(max_examples=200)
    def test_equals_scipy_rankdata_reference(self, pairs):
        # Early stopping compares AUCs exactly, so the numpy midranks must
        # reproduce the scipy.stats.rankdata result bit for bit.
        scores = np.array([s for s, _ in pairs])
        labels = np.array([y for _, y in pairs])
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        rank_sum = float(rankdata(scores)[labels == 1].sum())
        expected = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert roc_auc(scores, labels) == expected

    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5 + 2**-53, 1.0]), min_size=1,
                 max_size=600)
        | st.integers(1, 4).flatmap(
            lambda k: st.lists(st.integers(0, k).map(float), min_size=17, max_size=3000))
    )
    @settings(max_examples=150)
    def test_midranks_equal_stable_sort_ranks(self, values):
        # Every run of ties gets its mean rank whatever the order inside it,
        # so the default (unstable) sort gives the stable sort's ranks exactly.
        x = np.array(values)
        order = np.argsort(x, kind="stable")
        sorted_x = x[order]
        starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
        ends = np.r_[starts[1:], x.size]
        want = np.empty(x.size)
        want[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
        assert _midranks(x).tobytes() == want.tobytes()

    def test_import_leaves_scipy_stats_unloaded(self):
        env = dict(os.environ)
        src = str(Path(graphost.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import graphost, sys; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"

    @given(st.integers(0, 100_000))
    @settings(max_examples=50)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 30)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base)
        assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base)


class TestHdDeltaReport:
    def graph(self, edges):
        return LabeledGraph(num_nodes=4, edges=np.array(edges))

    def test_identity_is_zero_delta(self):
        g = self.graph([[0, 1], [1, 2], [2, 3]])
        labels = np.array([0, 0, 1, 1])
        before, after, delta = hd_delta_report(g, g, labels)
        assert before == after
        assert delta == 0.0

    def test_oracle_filtering_raises_hd(self):
        g = self.graph([[0, 1], [1, 2], [2, 3]])
        labels = np.array([0, 0, 1, 1])
        cleaned = self.graph([[0, 1], [2, 3]])  # heterophilic (1,2) removed
        before, after, delta = hd_delta_report(g, cleaned, labels)
        assert before == pytest.approx(2.0 / 3.0)
        assert after == 1.0
        assert delta > 0

    def test_weighted_graphs_accepted(self):
        g = self.graph([[0, 1], [1, 2]])
        wg = WeightedGraph(base=g, edge_weights=np.array([0.5, 0.5]))
        labels = np.array([0, 0, 1, 1])
        before, after, delta = hd_delta_report(g, wg, labels)
        assert delta == 0.0

    def test_edgeless_side_gives_none(self):
        g = self.graph([[0, 1]])
        empty = LabeledGraph(num_nodes=4, edges=np.empty((0, 2)))
        labels = np.array([0, 0, 1, 1])
        assert hd_delta_report(g, empty, labels) == (1.0, None, None)
        assert hd_delta_report(empty, g, labels) == (None, 1.0, None)

    def test_label_length_checked(self):
        g = self.graph([[0, 1]])
        with pytest.raises(ValueError, match="labels length"):
            hd_delta_report(g, g, np.array([0, 1]))


class TestMetricRefusals:
    """Each refusal of f1_macro and roc_auc through its public input, with
    its message pinned, and roc_auc's NaN for a score without rank order."""

    def test_f1_lengths_differ(self):
        with pytest.raises(ValueError, match="^predicted and true labels must have equal length$"):
            f1_macro([0, 1], [0], 2)

    def test_f1_of_no_labels(self):
        with pytest.raises(ValueError, match="^f1 of an empty label set is undefined$"):
            f1_macro([], [], 2)

    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_f1_without_classes(self, num_classes):
        with pytest.raises(ValueError, match="^num_classes must be positive$"):
            f1_macro([0], [0], num_classes)

    def test_auc_lengths_differ(self):
        with pytest.raises(ValueError, match="^scores and labels must have equal length$"):
            roc_auc([0.1, 0.9], [1])

    @pytest.mark.parametrize("scores", [[np.nan, 0.5, 0.7], [0.2, 0.5, np.nan]])
    def test_auc_of_a_nan_score_is_nan(self, scores):
        assert np.isnan(roc_auc(scores, [0, 1, 1]))
