import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphost.cli import main as cli_main
from graphost.csbm import CsbmParams
from graphost.graphs import LabeledGraph
from graphost.models import NonFiniteError
from graphost.theory import (
    SUITES,
    BoundarySpec,
    _misclassification_rate,
    _strict_mean,
    boundary_from_means,
    boundary_signed_value,
    class_separation_distance,
    degree_relaxation_constraint,
    direction,
    expected_embedding,
    imbalanced_boundary,
    lemma_check,
    midpoint,
    misclassification_prob,
    monte_carlo_theorem_check,
    multiclass_separation,
    phi_vs_simulation,
    separation_check,
    std_normal_cdf,
    validate,
)

SYMMETRIC = np.array([[1.0, 0.0], [-1.0, 0.0]])


def axis_params(p, q, n=500, a=2.0):
    return CsbmParams(
        class_means=((a / 2, 0.0), (-a / 2, 0.0)),
        class_sizes=(n, n),
        intra_prob=p,
        inter_prob=q,
    )


class TestNormalCdf:
    def test_against_erfc_oracle(self):
        for x in np.linspace(-8, 8, 2001):
            exact = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(std_normal_cdf(float(x)) - exact) <= 7.5e-8

    def test_far_lower_tail_stays_positive_and_ordered(self):
        # below x ~ -8.3, 1 - Phi(-x) would cancel to 0
        assert std_normal_cdf(-10.0) > std_normal_cdf(-30.0) > std_normal_cdf(-37.0) > 0.0

    def test_symmetry(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5)
        assert std_normal_cdf(1.5) + std_normal_cdf(-1.5) == pytest.approx(1.0)


class TestExpectedEmbedding:
    def test_equal_probabilities_give_midpoint(self):
        for cls in (0, 1):
            out = expected_embedding(cls, 0.4, 0.4, SYMMETRIC)
            assert np.allclose(out, [0.0, 0.0])

    def test_pure_intra_returns_own_mean(self):
        assert np.allclose(expected_embedding(0, 0.7, 0.0, SYMMETRIC), SYMMETRIC[0])
        assert np.allclose(expected_embedding(1, 0.7, 0.0, SYMMETRIC), SYMMETRIC[1])

    def test_hand_value(self):
        # (0.8 - 0.2) / (0.8 + 0.2) = 0.6
        out = expected_embedding(0, 0.8, 0.2, SYMMETRIC)
        assert np.allclose(out, [0.6, 0.0])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            expected_embedding(0, 0.0, 0.0, SYMMETRIC)

    def test_multiclass_form(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        out = expected_embedding(0, 0.5, 0.1, means)
        expected = (0.5 * means[0] + 0.1 * (means[1] + means[2])) / 0.7
        assert np.allclose(out, expected)


class TestBoundary:
    def test_midpoint_and_direction(self):
        assert np.allclose(midpoint(SYMMETRIC), [0.0, 0.0])
        assert np.allclose(direction(SYMMETRIC), [1.0, 0.0])

    def test_direction_rejects_equal_means(self):
        with pytest.raises(ValueError, match="coincide"):
            direction(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("a", [1.4e154, 1e300, 1.7e308])
    def test_direction_refuses_an_overflowing_norm(self, a):
        # the squares overflow, so the norm is inf and the "direction" was 0
        with pytest.raises(NonFiniteError,
                           match="class-mean difference is inf, not finite") as caught:
            direction(np.array([[a / 2, 0.0], [-a / 2, 0.0]]))
        assert caught.value.source == "mean_distance"  # the setting that scales the means
        assert np.array_equal(direction(np.array([[6e153, 0.0], [-6e153, 0.0]])), [1.0, 0.0])

    def test_midpoint_of_expected_embeddings_is_invariant(self, rng):
        # closed-form identity checked numerically over random (p, q)
        for _ in range(50):
            p, q = rng.uniform(0.01, 1.0, size=2)
            e0 = expected_embedding(0, p, q, SYMMETRIC)
            e1 = expected_embedding(1, p, q, SYMMETRIC)
            assert np.allclose((e0 + e1) / 2.0, midpoint(SYMMETRIC), atol=1e-12)

    def test_embedding_difference_direction_sign(self):
        o = direction(SYMMETRIC)
        diff_hom = expected_embedding(0, 0.8, 0.2, SYMMETRIC) - expected_embedding(1, 0.8, 0.2, SYMMETRIC)
        diff_het = expected_embedding(0, 0.2, 0.8, SYMMETRIC) - expected_embedding(1, 0.2, 0.8, SYMMETRIC)
        assert np.dot(diff_hom, o) > 0
        assert np.dot(diff_het, o) < 0

    def test_signed_value_on_boundary(self):
        boundary = boundary_from_means(SYMMETRIC)
        assert boundary_signed_value(boundary.midpoint, boundary) == pytest.approx(0.0)

    def test_signed_value_at_class_mean(self):
        boundary = boundary_from_means(SYMMETRIC)
        assert boundary_signed_value(SYMMETRIC[0], boundary) == pytest.approx(1.0)

    def test_rescaled_direction_same_decisions(self, rng):
        o = np.array([3.0, 4.0])
        boundary = BoundarySpec(direction=o / np.linalg.norm(o), midpoint=np.zeros(2))
        h = rng.normal(size=(20, 2))
        signs = np.sign(boundary_signed_value(h, boundary))
        raw = np.sign(h @ o)
        assert np.array_equal(signs, raw)

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            BoundarySpec(direction=np.array([1.0, 1.0]), midpoint=np.zeros(2))


class TestClosedForms:
    def test_separation_zero_at_equal_probs(self):
        assert class_separation_distance(0.3, 0.3, 5.0) == 0.0

    def test_separation_hand_value(self):
        assert class_separation_distance(0.8, 0.2, 2.0) == pytest.approx(0.6)

    def test_separation_monotone_in_contrast(self):
        base = class_separation_distance(0.5, 0.3, 1.0)
        for p, q in [(0.55, 0.25), (0.6, 0.2), (0.7, 0.1)]:
            better = class_separation_distance(p, q, 1.0)
            assert better > base
            base = better

    def test_misclassification_half_at_equal_probs(self):
        assert misclassification_prob(0.3, 0.3, 100, 100, 2.0) == pytest.approx(0.5)

    def test_misclassification_vanishes_for_large_distance(self):
        assert misclassification_prob(0.05, 0.01, 500, 500, 100.0) <= 1e-12

    def test_misclassification_resolves_small_errors(self):
        # Phi arguments -12.9 and -29.9: both errors are tiny but distinct
        before = misclassification_prob(0.02, 0.01, 500, 500, 20.0)
        after = misclassification_prob(0.03, 0.005, 500, 500, 20.0)
        assert before > after > 0.0

    def test_misclassification_degenerate_degree(self):
        with pytest.raises(ValueError, match="degree"):
            misclassification_prob(0.0, 0.0, 100, 100, 2.0)

    def test_imbalanced_boundary_balanced_reduction(self):
        assert imbalanced_boundary(1.0, 3.0, 1.0, 50, 50) == pytest.approx(2.0)

    def test_imbalanced_boundary_shift_sign(self):
        # the larger class 2 (mean 2) takes ground: the boundary moves toward 0
        balanced = imbalanced_boundary(0.0, 2.0, 1.0, 100, 100)
        shifted = imbalanced_boundary(0.0, 2.0, 1.0, 100, 300)
        assert shifted < balanced

    def test_imbalanced_boundary_hand_value(self):
        # mu = 0, 2, sigma = 1, n2/n1 = e^2 -> 1 + 1 * 2 / (0 - 2) = 0
        n1 = 1000
        n2 = int(round(n1 * math.e**2))
        value = imbalanced_boundary(0.0, 2.0, 1.0, n1, n2)
        assert value == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("mu1, mu2", [(0.0, 2.0), (2.0, 0.0), (1.0, -1.0), (-1.0, 1.0),
                                          (-0.5, 3.0), (3.0, -0.5)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n1, n2", [(100, 300), (300, 100), (50, 50), (7, 1000)])
    def test_imbalanced_boundary_is_where_the_weighted_densities_cross(self, mu1, mu2, sigma,
                                                                       n1, n2):
        def excess(x):  # n1 phi_1(x) - n2 phi_2(x), without the common factor
            return (n1 * math.exp(-0.5 * ((x - mu1) / sigma) ** 2)
                    - n2 * math.exp(-0.5 * ((x - mu2) / sigma) ** 2))

        lo, hi = (mu1 + mu2) / 2 - 20 * sigma, (mu1 + mu2) / 2 + 20 * sigma
        assert excess(lo) * excess(hi) < 0
        for _ in range(200):  # bisection
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if (excess(mid) > 0) == (excess(lo) > 0) else (lo, mid)
        assert imbalanced_boundary(mu1, mu2, sigma, n1, n2) == pytest.approx(lo, abs=1e-9)

    def test_imbalanced_boundary_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            imbalanced_boundary(0.0, 1.0, 0.0, 10, 10)
        with pytest.raises(ValueError, match="class means coincide"):
            imbalanced_boundary(1.0, 1.0, 1.0, 10, 30)


class TestDegreeRelaxationConstraint:
    def test_identity_transform_is_false(self):
        assert not degree_relaxation_constraint(0.02, 0.01, 0.02, 0.01, 500, 500, "homophilic")

    def test_homophilic_example(self):
        assert degree_relaxation_constraint(0.02, 0.01, 0.03, 0.005, 500, 500, "homophilic")

    def test_degree_preserving_improvement(self):
        # p' n1 + q' n2 = p n1 + q n2 with p' > p, q' < q: variance terms
        # cancel and the contrast strictly improves
        p, q, n1, n2 = 0.02, 0.01, 500, 500
        p2 = 0.025
        q2 = (p * n1 + q * n2 - p2 * n1) / n2
        assert degree_relaxation_constraint(p, q, p2, q2, n1, n2, "homophilic")

    def test_regime_mismatch_rejected(self):
        with pytest.raises(ValueError, match="homophilic regime"):
            degree_relaxation_constraint(0.01, 0.02, 0.03, 0.005, 500, 500, "homophilic")
        with pytest.raises(ValueError, match="heterophilic regime"):
            degree_relaxation_constraint(0.02, 0.01, 0.005, 0.03, 500, 500, "heterophilic")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_agrees_with_phi_formula_sign(self, seed):
        # cross-check: the constraint must match the sign of the closed-form
        # error difference
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.02, 0.2)
        q = rng.uniform(0.001, p * 0.9)
        p2 = rng.uniform(0.02, 0.2)
        q2 = rng.uniform(0.001, p2 * 0.9)
        n1 = n2 = 400
        holds = degree_relaxation_constraint(p, q, p2, q2, n1, n2, "homophilic")
        diff = misclassification_prob(p, q, n1, n2, 2.0) - misclassification_prob(
            p2, q2, n1, n2, 2.0
        )
        if abs(diff) > 1e-12:  # Phi saturates for extreme arguments
            assert holds == (diff > 0)


class TestMulticlassSeparation:
    def test_reduction_to_binary(self, rng):
        for _ in range(100):
            p, q = rng.uniform(0.01, 0.99, size=2)
            a = rng.uniform(0.1, 5.0)
            assert abs(
                multiclass_separation(p, q, 2, a)
                - 2.0 * class_separation_distance(p, q, a)
            ) <= 1e-12

    def test_zero_at_equal_probs(self):
        for s in range(2, 8):
            assert multiclass_separation(0.2, 0.2, s, 3.0) == 0.0

    def test_strictly_decreasing_in_class_count(self):
        values = [multiclass_separation(0.1, 0.02, s, 2.0) for s in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="s must"):
            multiclass_separation(0.1, 0.02, 1, 2.0)


class TestMonteCarloTheoremCheck:
    def test_null_transform_no_systematic_change(self):
        params = axis_params(0.02, 0.01)
        report = monte_carlo_theorem_check(params, params, trials=10, seed=3)
        assert not report.constraint_satisfied
        assert abs(report.mean_difference) <= 0.02
        assert report.regime == "homophilic"

    def test_homophilic_improvement(self):
        report = monte_carlo_theorem_check(
            axis_params(0.02, 0.01), axis_params(0.03, 0.005), trials=10, seed=0
        )
        assert report.constraint_satisfied
        assert report.improved_trials >= 9
        assert report.mean_difference > 0

    def test_heterophilic_improvement(self):
        report = monte_carlo_theorem_check(
            axis_params(0.01, 0.02), axis_params(0.005, 0.03), trials=10, seed=0
        )
        assert report.regime == "heterophilic"
        assert report.improved_trials >= 9

    def test_regime_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="regime-inconsistent"):
            monte_carlo_theorem_check(
                axis_params(0.02, 0.01), axis_params(0.005, 0.03), trials=2, seed=0
            )

    def test_means_must_match(self):
        with pytest.raises(ValueError, match="means"):
            monte_carlo_theorem_check(
                axis_params(0.02, 0.01), axis_params(0.03, 0.005, a=4.0), trials=2, seed=0
            )

    def test_report_serialization(self):
        report = monte_carlo_theorem_check(
            axis_params(0.02, 0.01), axis_params(0.03, 0.005), trials=3, seed=0
        )
        doc = report.to_dict()
        assert doc["trials"] == 3
        assert len(doc["rates_before"]) == 3
        rows = report.to_csv_rows()
        assert rows[0][0] == "trial"
        assert len(rows) == 4


def full_width_rate(graph, boundary, orientation):
    """_misclassification_rate as it was before it aggregated only the
    boundary's columns: every column through _strict_mean, kept as oracle."""
    h, include = _strict_mean(graph)
    predicted_c0 = orientation * boundary_signed_value(h[include], boundary) > 0.0
    wrong = np.count_nonzero(predicted_c0 != (graph.labels[include] == 0))
    return float(wrong) / max(1, include.sum()), int(np.count_nonzero(~include))


@st.composite
def boundary_cases(draw):
    """A small labeled graph with isolated nodes and small-integer features
    (so many signed values are exactly 0), and class means whose
    components mix zeros and nonzeros."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=30))
    edges = np.array([(u, v) for u, v in pairs if u != v], dtype=np.int64).reshape(-1, 2)
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]) | st.floats(-3, 3)
    features = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    graph = LabeledGraph(num_nodes=n, edges=edges, features=features, labels=labels,
                         num_classes=2)
    component = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0])
    means = np.array(draw(st.lists(component, min_size=2 * d, max_size=2 * d))).reshape(2, d)
    assume(not np.array_equal(means[0], means[1]))
    return graph, boundary_from_means(means), draw(st.sampled_from([1.0, -1.0]))


class TestMisclassificationRate:
    @given(boundary_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_full_width_reference(self, case):
        graph, boundary, orientation = case
        assert _misclassification_rate(graph, boundary, orientation) == full_width_rate(
            graph, boundary, orientation)

    def test_aggregates_only_the_boundary_columns(self, monkeypatch):
        import graphost.theory as theory

        widths = []
        real = theory.mean_aggregate
        monkeypatch.setattr(theory, "mean_aggregate",
                            lambda g, x, *a: widths.append(x.shape[1]) or real(g, x, *a))
        params = CsbmParams(class_means=((1.0,) + (0.0,) * 15, (-1.0,) + (0.0,) * 15),
                            class_sizes=(50, 50), intra_prob=0.1, inter_prob=0.05)
        monte_carlo_theorem_check(params, params, trials=2, seed=0)
        assert widths == [1] * 4
        lemma_check(params, seed=0)
        assert widths[-1] == 16


class TestSampleCounts:
    def test_theorem_check_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 0"):
            monte_carlo_theorem_check(axis_params(0.02, 0.01), axis_params(0.03, 0.005),
                                      trials=0)

    def test_phi_vs_simulation_needs_a_sample(self):
        with pytest.raises(ValueError, match="samples must be an integer >= 1, got 0"):
            phi_vs_simulation(0.02, 0.01, 500, 500, 2.0, samples=0)


class TestEmpiricalChecks:
    def test_lemma_check_small(self):
        result = lemma_check(axis_params(0.05, 0.02, n=800), seed=1)
        assert result["midpoint_error"] <= 0.1
        assert abs(result["direction_cosine"]) >= 0.99

    def test_lemma_check_refuses_an_overflowing_norm_before_drawing(self, monkeypatch):
        import graphost.theory as theory

        monkeypatch.setattr(theory, "_generate", lambda *args: pytest.fail("drew a graph"))
        for check in (lemma_check, separation_check):
            with pytest.raises(NonFiniteError, match="norm of the class-mean difference"):
                check(axis_params(0.05, 0.02, n=50, a=1e300))

    def test_lemma_sign_flips_with_regime(self):
        hom = lemma_check(axis_params(0.04, 0.01, n=800), seed=2)
        het = lemma_check(axis_params(0.01, 0.04, n=800), seed=2)
        assert hom["direction_cosine"] > 0.99
        assert het["direction_cosine"] < -0.99

    def test_separation_check_close(self):
        result = separation_check(axis_params(0.05, 0.02, n=1000), seed=4)
        assert result["relative_error"] <= 0.05

    def test_phi_vs_simulation_within_band(self):
        result = phi_vs_simulation(0.02, 0.01, 500, 500, 2.0, samples=50_000, seed=7)
        assert result["within_3_std_errors"]

    def test_phi_simulation_heterophilic(self):
        result = phi_vs_simulation(0.01, 0.02, 500, 500, 2.0, samples=50_000, seed=8)
        assert result["within_3_std_errors"]


# theory-validate's settings as the merged options name them, small enough to run quickly
SETTINGS = {"p": 0.02, "q": 0.01, "p2": 0.03, "q2": 0.005, "n1": 120, "n2": 100,
            "mean_distance": 2.0, "dim": 3, "trials": 3, "samples": 3000, "lemma_nodes": 250,
            "midpoint_tol": 0.05, "cosine_tol": 0.999, "separation_tol": 0.05}


class TestValidate:
    """theory.validate called with a plain settings dict, without the CLI."""

    @pytest.mark.parametrize("suite", ["all", "theorem"])
    def test_matches_the_cli_report(self, tmp_path, suite):
        seed = 4
        argv = ["theory-validate", "--suite", suite, "--seed", str(seed),
                "--out", str(tmp_path), "--pin-timestamp"]
        for key in ("p", "q", "p2", "q2", "n1", "n2", "mean_distance", "dim", "trials",
                    "samples", "lemma_nodes"):
            argv += ["--" + key.replace("_", "-"), str(SETTINGS[key])]
        cfg = tmp_path / "tolerances.json"
        cfg.write_text(json.dumps({k: SETTINGS[k] for k in SETTINGS if k.endswith("_tol")}))
        assert cli_main(argv + ["--config", str(cfg)]) in (0, 1)
        doc = json.loads((tmp_path / f"theory-report-pinned-{seed}.json").read_text())

        suites = list(SUITES) if suite == "all" else [suite]
        rows, report = validate(SETTINGS, suites, seed)
        assert [list(row) for row in rows] == [
            [c["name"], c["passed"], c["detail"]] for c in doc["checks"]]
        assert all(type(passed) is bool for _, passed, _ in rows)
        assert json.loads(json.dumps(report.to_dict())) == doc["theorem_report"]
        # nothing is kept from one call to the next
        assert validate(SETTINGS, suites, seed) == (rows, report)

    def test_no_report_without_the_theorem_suite(self):
        assert validate(SETTINGS, ["phi", "multiclass"], 0)[1] is None

    @pytest.mark.parametrize("mean_distance", [2.0, 20.0, 60.0, 200.0])
    @pytest.mark.parametrize("p2, q2, holds", [(0.03, 0.005, True), (0.011, 0.009, False)])
    def test_constraint_decides_at_every_mean_distance(self, mean_distance, p2, q2, holds):
        # at 60 and 200 both closed-form errors underflow to 0
        settings = {**SETTINGS, "n1": 500, "n2": 500, "mean_distance": mean_distance,
                    "p2": p2, "q2": q2}
        [(name, passed, detail)] = validate(settings, ["constraint"], 0)[0]
        assert name == "constraint-vs-phi" and passed, detail
        assert detail.startswith(f"constraint {holds}, closed-form error change ")

    @pytest.mark.parametrize("suite", [s for s in SUITES if SUITES[s].needs_transform])
    def test_transform_suites_need_p2_and_q2(self, suite):
        with pytest.raises(ValueError, match=f"suite '{suite}' needs p2 and q2"):
            validate({**SETTINGS, "q2": None}, ["lemmas", suite], 0)


# Each closed-form input's values of moderate size (|x| <= 1e6) inside its
# domain, and values outside it: NaN, +-inf and finite values past its bounds.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BELOW_ZERO = st.floats(max_value=-math.ulp(0.0))
WHOLE_FLOATS = st.integers(-5, 5).map(float)
IN_DOMAIN = {
    **dict.fromkeys(["p", "q", "p_new", "q_new"], st.floats(0.0, 1.0)),
    **dict.fromkeys(["n1", "n2", "trials", "samples"], st.integers(1, 10**6)),
    "s": st.integers(2, 10**6),
    "mean_distance": st.floats(0.0, 1e6),
    "sigma": st.floats(0.0, 1e6, exclude_min=True),
    **dict.fromkeys(["mu1", "mu2"], st.floats(-1e6, 1e6)),
}
OUT_OF_DOMAIN = {
    **dict.fromkeys(["p", "q", "p_new", "q_new"], NON_FINITE | BELOW_ZERO
                    | st.floats(min_value=math.nextafter(1.0, 2.0))),
    **dict.fromkeys(["n1", "n2", "trials", "samples"], NON_FINITE | st.integers(max_value=0)
                    | WHOLE_FLOATS | st.floats(0.0, 1e6).filter(lambda v: not v.is_integer())),
    "s": NON_FINITE | st.integers(max_value=1) | WHOLE_FLOATS | st.just(2.5),
    "mean_distance": NON_FINITE | BELOW_ZERO,
    "sigma": NON_FINITE | st.floats(max_value=0.0),
    **dict.fromkeys(["mu1", "mu2"], NON_FINITE),
}


def constraint(p, q, p_new, q_new, n1, n2):
    """degree_relaxation_constraint in the regime p and q are in."""
    regime = "homophilic" if p > q else "heterophilic"
    return degree_relaxation_constraint(p, q, p_new, q_new, n1, n2, regime)


# The scalar closed forms and their parameters, which name their domains
CLOSED_FORMS = [
    (class_separation_distance, ("p", "q", "mean_distance")),
    (misclassification_prob, ("p", "q", "n1", "n2", "mean_distance")),
    (multiclass_separation, ("p", "q", "s", "mean_distance")),
    (imbalanced_boundary, ("mu1", "mu2", "sigma", "n1", "n2")),
    (constraint, ("p", "q", "p_new", "q_new", "n1", "n2")),
]


def theorem_check(trials):
    return monte_carlo_theorem_check(axis_params(0.02, 0.01), axis_params(0.03, 0.005), trials)


def embedding(p, q):
    return expected_embedding(0, p, q, SYMMETRIC)


# Every parameter of every entry point that checks one, the Monte Carlo
# checks' sample counts included: the value is refused before any draw
REFUSING = [(fn, names, name) for fn, names in CLOSED_FORMS + [
    (phi_vs_simulation, ("p", "q", "n1", "n2", "mean_distance", "samples")),
    (theorem_check, ("trials",)),
    (embedding, ("p", "q")),
] for name in names]
MEANS = st.integers(2, 5).flatmap(lambda s: st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim),
                         min_size=s, max_size=s))).map(np.array)


class TestDomain:
    """Each closed-form input has one domain, checked at every entry point:
    p, q, p_new and q_new in [0, 1] with p + q > 0; integer counts n1, n2,
    trials and samples >= 1 and s >= 2; a finite mean_distance >= 0, a
    finite sigma > 0 and finite mu1, mu2 and means."""

    @pytest.mark.parametrize("fn, names, name", REFUSING,
                             ids=[f"{fn.__name__}-{name}" for fn, _, name in REFUSING])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_value_outside_its_domain_is_refused_by_name(self, fn, names, name, data):
        args = {n: data.draw(IN_DOMAIN[n], label=n) for n in names}
        args[name] = bad = data.draw(OUT_OF_DOMAIN[name], label=f"bad {name}")
        with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(str(bad))}$"):
            fn(**args)

    @pytest.mark.parametrize("fn, names", CLOSED_FORMS, ids=[fn.__name__ for fn, _ in CLOSED_FORMS])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_values_inside_their_domains_give_finite_results(self, fn, names, data):
        args = {n: data.draw(IN_DOMAIN[n], label=n) for n in names}
        assume(args.get("p", 1.0) + args.get("q", 1.0) > 0.0)
        if fn is constraint:  # the regime holds before and after
            assume(np.sign(args["p"] - args["q"]) == np.sign(args["p_new"] - args["q_new"]) != 0)
        if fn is imbalanced_boundary:
            assume(args["mu1"] != args["mu2"])
            try:
                value = fn(**args)
            except NonFiniteError:  # only where the exact shift lies past the float range
                mu1, mu2, sigma, n1, n2 = (args[n] for n in names)
                assert (2 * math.log(sigma) + math.log(abs(math.log(n2 / n1)))
                        - math.log(abs(mu1 - mu2)) > math.log(sys.float_info.max) - 1e-9)
                return
        else:
            value = fn(**args)
        assert type(value) is bool if fn is constraint else math.isfinite(value)

    @given(MEANS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_means_inside_their_domain_give_finite_embeddings(self, means, data):
        p, q = data.draw(IN_DOMAIN["p"]), data.draw(IN_DOMAIN["q"])
        assume(p + q > 0.0)
        k = data.draw(st.integers(0, len(means) - 1))
        assert np.isfinite(expected_embedding(k, p, q, means)).all()
        if len(means) == 2:
            assert np.isfinite(midpoint(means)).all()
            assume(not np.array_equal(means[0], means[1]))
            assert np.linalg.norm(direction(means)) == pytest.approx(1.0)

    @given(MEANS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_finite_means_are_refused(self, means, data):
        means[data.draw(st.integers(0, len(means) - 1)),
              data.draw(st.integers(0, means.shape[1] - 1))] = data.draw(NON_FINITE)
        with pytest.raises(ValueError, match="^means must be finite$"):
            expected_embedding(0, 0.5, 0.1, means)
        if len(means) == 2:
            for fn in (midpoint, direction, boundary_from_means):
                with pytest.raises(ValueError, match="^means must be finite$"):
                    fn(means)

    @pytest.mark.parametrize("means", [np.zeros(4), np.zeros((1, 2)), np.zeros((3, 2)),
                                       np.zeros((2, 2, 2))], ids=lambda m: str(m.shape))
    def test_means_of_the_wrong_shape_are_refused(self, means):
        shape = re.escape(str(means.shape))
        for fn in (midpoint, direction):
            with pytest.raises(ValueError, match=f"^means must be 2 rows of class means, "
                                                 f"got shape {shape}$"):
                fn(means)
        if means.shape == (3, 2):  # any s >= 2 classes have expected embeddings
            assert np.array_equal(expected_embedding(0, 0.5, 0.1, means), [0.0, 0.0])
        else:
            with pytest.raises(ValueError, match=f"^means must be s >= 2 rows of class means, "
                                                 f"got shape {shape}$"):
                expected_embedding(0, 0.5, 0.1, means)

    @pytest.mark.parametrize("p, q", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])
    @pytest.mark.parametrize("fn", [
        lambda p, q: class_separation_distance(p, q, 1.0),
        lambda p, q: misclassification_prob(p, q, 10, 10, 2.0),
        lambda p, q: multiclass_separation(p, q, 3, 1.0),
        lambda p, q: expected_embedding(0, p, q, SYMMETRIC),
        lambda p, q: degree_relaxation_constraint(p, q, 0.03, 0.005, 10, 10, "homophilic"),
        lambda p, q: phi_vs_simulation(p, q, 10, 10, 2.0),
    ])
    def test_p_and_q_both_zero_are_refused(self, fn, p, q):
        with pytest.raises(ValueError, match="^p \\+ q must be positive: at p = q = 0 every "
                                             "degree is 0$"):
            fn(p, q)

    @pytest.mark.parametrize("call, message", [
        (lambda: class_separation_distance(math.nan, 0.2, 1.0), "p must lie in [0, 1], got nan"),
        (lambda: misclassification_prob(math.nan, 0.1, 10, 10, 2.0),
         "p must lie in [0, 1], got nan"),
        (lambda: imbalanced_boundary(0, 1, math.nan, 10, 10),
         "sigma must be finite and > 0, got nan"),
        (lambda: expected_embedding(0, math.nan, 0.1, SYMMETRIC), "p must lie in [0, 1], got nan"),
        (lambda: multiclass_separation(2.0, -0.5, 3, 1.0), "p must lie in [0, 1], got 2.0"),
        (lambda: misclassification_prob(-0.5, 0.6, 10, 10, 2.0),
         "p must lie in [0, 1], got -0.5"),
        (lambda: misclassification_prob(0.1, 0.05, 0, 10, 2.0), "n1 must be an integer >= 1, got 0"),
        (lambda: degree_relaxation_constraint(0.02, 0.01, 0.03, 0.005, math.nan, 10, "homophilic"),
         "n1 must be an integer >= 1, got nan"),
        (lambda: degree_relaxation_constraint(0.02, 0.01, 0.03, 0.005, -10, 10, "homophilic"),
         "n1 must be an integer >= 1, got -10"),
        (lambda: degree_relaxation_constraint(0.0, 0.01, 0.03, 0.005, 10, 10, "homophilic"),
         "homophilic regime needs p > q and p_new > q_new; got (0.0, 0.01) -> (0.03, 0.005)"),
    ])
    def test_inputs_once_read_as_numbers_are_refused(self, call, message):
        # each of these returned nan, a number, False or a math domain error
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_boundary_zero_probabilities_are_inside_the_domain(self):
        # p = 0 or q = 0 alone is a valid CSBM: the constraint once refused it
        assert degree_relaxation_constraint(0.02, 0.01, 0.03, 0.0, 10, 10, "homophilic")
        assert not degree_relaxation_constraint(0.0, 0.02, 0.0, 0.01, 10, 10, "heterophilic")
        assert misclassification_prob(0.0, 0.02, 10, 10, 2.0) < 0.5

    @pytest.mark.parametrize("args, value", [
        ((0.0, 5e-324, 1.0, 1, 100), "-inf"),  # ln(100) / -5e-324
        ((0.0, 1.0, 1e200, 5, 5), "nan"),  # sigma^2 = inf, times ln(1) = 0
    ])
    def test_an_imbalanced_boundary_past_the_float_range_is_refused(self, args, value):
        with pytest.raises(NonFiniteError, match=f"^the boundary is {value}, not finite$"):
            imbalanced_boundary(*args)


class TestStructuralRefusals:
    """The theory lab's refusals of inputs that no domain rule covers, each
    reached through its public input, with its message pinned."""

    def test_boundary_dimensions_must_match(self):
        with pytest.raises(ValueError, match="^direction and midpoint must share a dimension$"):
            BoundarySpec(direction=np.array([1.0, 0.0]), midpoint=np.zeros(3))

    @pytest.mark.parametrize("class_index", [2, -1, 1.0, math.nan])
    def test_class_index_out_of_range(self, class_index):
        with pytest.raises(ValueError, match=f"^class_index {class_index} out of range for 2 "
                                             "classes$"):
            expected_embedding(class_index, 0.5, 0.1, SYMMETRIC)

    def test_unknown_regime_name(self):
        with pytest.raises(ValueError, match="^regime must be 'homophilic' or 'heterophilic', "
                                             "got 'neutral'$"):
            degree_relaxation_constraint(0.02, 0.01, 0.03, 0.005, 500, 500, "neutral")

    def test_class_sizes_must_match(self):
        with pytest.raises(ValueError, match="^class sizes must stay fixed across the "
                                             "transformation$"):
            monte_carlo_theorem_check(axis_params(0.02, 0.01), axis_params(0.03, 0.005, n=400))

    def test_checks_are_binary(self):
        three = CsbmParams(class_means=((1.0,), (-1.0,), (0.0,)), class_sizes=(20, 20, 20),
                           intra_prob=0.1, inter_prob=0.05)
        with pytest.raises(ValueError, match="^theorem checks are binary; use two-class "
                                             "parameters$"):
            monte_carlo_theorem_check(three, three, trials=1)
        with pytest.raises(ValueError, match="^lemma checks are binary; use two-class "
                                             "parameters$"):
            lemma_check(three)

    def test_theorem_check_needs_p_unlike_q(self):
        with pytest.raises(ValueError, match="^original parameters need p != q to define a "
                                             "regime$"):
            monte_carlo_theorem_check(axis_params(0.02, 0.02), axis_params(0.03, 0.005))

    def test_lemma_check_needs_a_non_isolated_node_in_each_class(self):
        # one node in class 0 and no inter-class edges: it is always isolated
        params = CsbmParams(class_means=((1.0,), (-1.0,)), class_sizes=(1, 50),
                            intra_prob=0.5, inter_prob=0.0)
        with pytest.raises(ValueError, match="^class 0 has no non-isolated nodes$"):
            lemma_check(params, seed=0)
