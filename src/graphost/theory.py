"""Closed-form calculators and Monte Carlo validators for the CSBM analysis:
expected post-aggregation embeddings, the midpoint/direction lemmas, the
optimal linear boundary, misclassification probabilities, the degree
relaxation constraint, the imbalanced-class boundary, and the multi-class
separation formula.

``SUITES`` is the table of ``graphost theory-validate``'s check suites, with
their tolerances and pass rules; ``validate`` runs some of them on one seed.

``lemma_check`` is the one Monte Carlo report on a single sampled binary
graph: the empirical midpoint, direction and class-mean distance against
their closed forms. ``separation_check`` returns its distance keys. It
aggregates every feature column, because the midpoint and direction read all
of them; ``monte_carlo_theorem_check`` aggregates only the columns where the
fixed boundary's direction is nonzero, so its cost follows those columns, not
the feature width.

All of this deliberately uses strict-neighbour mean aggregation (no self
loop), unlike the practical model layer, because that is the operation the
closed forms describe. Nodes of degree zero are excluded from error counts
and reported separately.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# generate_csbm under the theory lab's own name, which perfbench's trace patches
from .csbm import CsbmParams, _sample_edges, derive_seed, generate_csbm as _generate
from .graphs import LabeledGraph
from .models import NonFiniteError
from .nn import mean_aggregate

__all__ = [
    "BoundarySpec",
    "TheoremCheckReport",
    "std_normal_cdf",
    "expected_embedding",
    "midpoint",
    "direction",
    "boundary_from_means",
    "boundary_signed_value",
    "class_separation_distance",
    "misclassification_prob",
    "degree_relaxation_constraint",
    "imbalanced_boundary",
    "multiclass_separation",
    "monte_carlo_theorem_check",
    "lemma_check",
    "separation_check",
    "phi_vs_simulation",
    "Suite",
    "SUITES",
    "validate",
]


@dataclass(frozen=True)
class BoundarySpec:
    """Hyperplane through `midpoint`, orthogonal to unit vector `direction`."""

    direction: np.ndarray
    midpoint: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.direction, dtype=np.float64).reshape(-1)
        m = np.asarray(self.midpoint, dtype=np.float64).reshape(-1)
        if o.shape != m.shape:
            raise ValueError("direction and midpoint must share a dimension")
        if abs(np.linalg.norm(o) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector (within 1e-12)")
        o.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "direction", o)
        object.__setattr__(self, "midpoint", m)


# Each closed-form input's domain by parameter name: a test, False for NaN,
# and the rule it states. Where p and q are both read, p + q > 0 as well.
_DOMAIN: dict[str, tuple[Callable[[float], bool], str]] = {
    **dict.fromkeys(("p", "q", "p_new", "q_new"), (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")),
    **dict.fromkeys(("n1", "n2", "trials", "samples"), (
        lambda v: isinstance(v, numbers.Integral) and v >= 1, "be an integer >= 1")),
    "s": (lambda v: isinstance(v, numbers.Integral) and v >= 2, "be an integer >= 2"),
    "mean_distance": (lambda v: 0.0 <= v < math.inf, "be finite and >= 0"),
    "sigma": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    **dict.fromkeys(("mu1", "mu2"), (math.isfinite, "be finite")),
}


def _check(**values) -> None:
    """Refuses the first of `values` outside its _DOMAIN rule, by name, and
    p = q = 0."""
    for name, value in values.items():
        test, rule = _DOMAIN[name]
        if not test(value):
            raise ValueError(f"{name} must {rule}, got {value}")
    if "q" in values and values["p"] + values["q"] == 0.0:
        raise ValueError("p + q must be positive: at p = q = 0 every degree is 0")


def _means(means, count: int | None) -> np.ndarray:
    """`means` as a float array of s >= 2 finite rows, one per class, where
    s is `count` if one is given."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or len(means) < 2 or count not in (None, len(means)):
        raise ValueError(f"means must be {count or 's >= 2'} rows of class means, "
                         f"got shape {means.shape}")
    if not np.isfinite(means).all():
        raise ValueError("means must be finite")
    return means


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, 0.5 * erfc(-x / sqrt(2))."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def expected_embedding(class_index: int, p: float, q: float, means) -> np.ndarray:
    """Mean of the post-aggregation embedding for one class:
    (p * mu_k + q * sum_{j != k} mu_j) / (p + (s - 1) * q)."""
    _check(p=p, q=q)
    means = _means(means, None)
    s = len(means)
    if not (isinstance(class_index, numbers.Integral) and 0 <= class_index < s):
        raise ValueError(f"class_index {class_index} out of range for {s} classes")
    others = means.sum(axis=0) - means[class_index]
    return (p * means[class_index] + q * others) / (p + (s - 1) * q)


def midpoint(means) -> np.ndarray:
    return _means(means, 2).sum(axis=0) / 2.0


def _norm(v: np.ndarray, what: str) -> float:
    """||v||, refused with NonFiniteError where it is not finite: the squares
    of finite entries past about 1.3e154 overflow. The vectors measured here
    are class means, whose scale the mean distance sets."""
    with np.errstate(over="ignore"):  # the overflow is refused below, by name
        norm = float(np.linalg.norm(v))
    if not math.isfinite(norm):
        raise NonFiniteError(f"the norm of {what} is {norm}, not finite", "mean_distance")
    return norm


def direction(means) -> np.ndarray:
    means = _means(means, 2)
    diff = means[0] - means[1]
    norm = _norm(diff, "the class-mean difference")
    if norm == 0.0:
        raise ValueError("direction undefined: class means coincide")
    return diff / norm


def boundary_from_means(means) -> BoundarySpec:
    return BoundarySpec(direction=direction(means), midpoint=midpoint(means))


def boundary_signed_value(h: np.ndarray, boundary: BoundarySpec) -> float | np.ndarray:
    """o . h - o . m for one embedding (d,) or a batch (n, d).

    Positive values classify as class 0 in the homophilic orientation
    (p > q); heterophilic regimes flip the decision sign.
    """
    h = np.asarray(h, dtype=np.float64)
    value = h @ boundary.direction - boundary.direction @ boundary.midpoint
    return float(value) if h.ndim == 1 else value


def class_separation_distance(p: float, q: float, mean_distance: float) -> float:
    """Distance from a class's expected embedding to the optimal boundary:
    (1/2) * |p - q| / (p + q) * mean_distance."""
    _check(p=p, q=q, mean_distance=mean_distance)
    return 0.5 * abs(p - q) / (p + q) * mean_distance


def _phi_argument(p: float, q: float, n1: int, n2: int, mean_distance: float) -> float:
    """-a |p - q| sqrt(p n1 + q n2) / (2 (p + q)), the argument of Phi in
    `misclassification_prob`. The degree p n1 + q n2 is positive: p + q is."""
    _check(p=p, q=q, n1=n1, n2=n2, mean_distance=mean_distance)
    return -mean_distance * abs(p - q) * math.sqrt(p * n1 + q * n2) / (2.0 * (p + q))


def misclassification_prob(
    p: float, q: float, n1: int, n2: int, mean_distance: float
) -> float:
    """Phi(-a |p - q| sqrt(p n1 + q n2) / (2 (p + q))), the per-class error of
    the optimal fixed boundary at average degree p n1 + q n2."""
    return std_normal_cdf(_phi_argument(p, q, n1, n2, mean_distance))


def degree_relaxation_constraint(
    p: float,
    q: float,
    p_new: float,
    q_new: float,
    n1: int,
    n2: int,
    regime: str,
) -> bool:
    """Strict-improvement condition once degree invariance is dropped.

    homophilic:   (p'-q')(p+q) sqrt(p' n1 + q' n2) > (p-q)(p'+q') sqrt(p n1 + q n2)
    heterophilic: (q'-p')(p+q) sqrt(p' n1 + q' n2) > (q-p)(p'+q') sqrt(p n1 + q n2)
    """
    _check(p=p, q=q, p_new=p_new, q_new=q_new, n1=n1, n2=n2)
    if regime not in ("homophilic", "heterophilic"):
        raise ValueError(f"regime must be 'homophilic' or 'heterophilic', got {regime!r}")
    # q - p is -(p - q) exactly, so one formula with the regime's sign serves both
    sign, order = (1.0, ">") if regime == "homophilic" else (-1.0, "<")
    if not (sign * (p - q) > 0.0 and sign * (p_new - q_new) > 0.0):
        raise ValueError(
            f"{regime} regime needs p {order} q and p_new {order} q_new; "
            f"got ({p}, {q}) -> ({p_new}, {q_new})"
        )
    lhs = sign * (p_new - q_new) * (p + q) * math.sqrt(p_new * n1 + q_new * n2)
    rhs = sign * (p - q) * (p_new + q_new) * math.sqrt(p * n1 + q * n2)
    return lhs > rhs


def imbalanced_boundary(mu1: float, mu2: float, sigma: float, n1: int, n2: int) -> float:
    """The Bayes boundary of two one-dimensional Gaussians N(mu_k, sigma^2)
    with priors in proportion to the class counts n_k, where n1 phi_1 equals
    n2 phi_2: (mu1 + mu2) / 2 + sigma^2 ln(n2 / n1) / (mu1 - mu2). It moves
    toward the smaller class's mean. A boundary past the float range, as
    sigma^2 past it or means closer than sigma^2 / 1e308 give, is refused."""
    _check(mu1=mu1, mu2=mu2, sigma=sigma, n1=n1, n2=n2)
    if mu1 == mu2:
        raise ValueError("boundary undefined: class means coincide")
    boundary = (mu1 + mu2) / 2.0 + sigma * sigma * math.log(n2 / n1) / (mu1 - mu2)
    if not math.isfinite(boundary):
        raise NonFiniteError(f"the boundary is {boundary}, not finite")
    return boundary


def multiclass_separation(p: float, q: float, s: int, mean_distance: float) -> float:
    """Distance between two classes' expected embeddings in an s-class model:
    |p - q| / (p + (s - 1) q) * mean_distance."""
    _check(p=p, q=q, s=s, mean_distance=mean_distance)
    return abs(p - q) / (p + (s - 1) * q) * mean_distance


@dataclass(frozen=True)
class TheoremCheckReport:
    """Per-trial misclassification rates before/after the structural change."""

    regime: str
    constraint_satisfied: bool
    trials: int
    rates_before: tuple[float, ...]
    rates_after: tuple[float, ...]
    excluded_before: tuple[int, ...]
    excluded_after: tuple[int, ...]
    seed: int
    params: dict = field(default_factory=dict)
    params_new: dict = field(default_factory=dict)

    @property
    def mean_before(self) -> float:
        return float(np.mean(self.rates_before))

    @property
    def mean_after(self) -> float:
        return float(np.mean(self.rates_after))

    @property
    def mean_difference(self) -> float:
        """Positive when the transformation lowered the error rate."""
        return self.mean_before - self.mean_after

    @property
    def improved_trials(self) -> int:
        return int(
            np.count_nonzero(
                np.asarray(self.rates_after) < np.asarray(self.rates_before)
            )
        )

    def to_dict(self) -> dict:
        """The fields and the four derived figures."""
        return asdict(self) | {name: getattr(self, name) for name in (
            "mean_before", "mean_after", "mean_difference", "improved_trials")}

    def to_csv_rows(self) -> list[list]:
        header = ["trial", "rate_before", "rate_after", "excluded_before", "excluded_after"]
        columns = zip(self.rates_before, self.rates_after, self.excluded_before,
                      self.excluded_after)
        return [header] + [[t, *row] for t, row in enumerate(columns)]


def _strict_mean(
    graph: LabeledGraph, columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Strict-neighbour mean embeddings of the given feature columns (all by
    default), and which nodes have a neighbour."""
    degree = np.bincount(graph.edges.ravel(), minlength=graph.num_nodes)
    x = graph.features if columns is None else graph.features[:, columns]
    return mean_aggregate(graph, x), degree > 0


def _misclassification_rate(
    graph: LabeledGraph, boundary: BoundarySpec, orientation: float
) -> tuple[float, int]:
    """Error rate of the fixed boundary on strict-mean aggregated embeddings,
    excluding degree-0 nodes; returns (rate, excluded_count).

    Only the columns where the boundary's direction is nonzero are
    aggregated; the others stay 0 in h. They added h_j * 0 = +-0 to o . h
    before, and still do at the same positions, so every signed value keeps
    its bits up to the sign of a zero, which `> 0` reads the same."""
    read = np.flatnonzero(boundary.direction)
    partial, include = _strict_mean(graph, read)
    h = np.zeros((np.count_nonzero(include), graph.features.shape[1]))
    h[:, read] = partial[include]
    signed = boundary_signed_value(h, boundary)
    predicted_c0 = orientation * signed > 0.0
    true_c0 = graph.labels[include] == 0
    rate = float(np.count_nonzero(predicted_c0 != true_c0)) / max(1, include.sum())
    return rate, int(np.count_nonzero(~include))


def monte_carlo_theorem_check(
    params: CsbmParams,
    params_new: CsbmParams,
    trials: int = 20,
    seed: int = 0,
) -> TheoremCheckReport:
    """Empirical companion to the fixed-boundary improvement theorems.

    Each trial samples node features once, draws the edge set under the
    original (p, q) and independently under the new (p', q') with those same
    features, aggregates over strict neighbours, and classifies every node
    with the fixed boundary built from the original parameters. Both
    parameter sets must share class means and sizes and sit in the same
    regime; the degree-relaxation constraint is evaluated and recorded.
    Only the feature columns the boundary reads are aggregated.
    """
    _check(trials=trials)
    if params.class_means != params_new.class_means:
        raise ValueError("class means must stay fixed across the transformation")
    if params.class_sizes != params_new.class_sizes:
        raise ValueError("class sizes must stay fixed across the transformation")
    if params.num_classes != 2:
        raise ValueError("theorem checks are binary; use two-class parameters")
    p, q = params.intra_prob, params.inter_prob
    p2, q2 = params_new.intra_prob, params_new.inter_prob
    if p == q:
        raise ValueError("original parameters need p != q to define a regime")
    regime = "homophilic" if p > q else "heterophilic"
    orientation, order = (1.0, ">") if p > q else (-1.0, "<")
    same_transform = (p2, q2) == (p, q)
    if not same_transform and not orientation * (p2 - q2) > 0.0:
        raise ValueError(f"regime-inconsistent parameters: expected p' {order} q'")
    n1, n2 = params.class_sizes
    constraint = not same_transform and degree_relaxation_constraint(p, q, p2, q2, n1, n2, regime)
    boundary = boundary_from_means(params.class_means)

    before: list[tuple[float, int]] = []  # (rate, excluded) per trial
    after: list[tuple[float, int]] = []
    for t in range(trials):
        trial_seed = derive_seed(seed, 2 * t)
        original = _generate(params, trial_seed)
        transformed = original.with_edges(_sample_edges(params_new, trial_seed + 1))
        before.append(_misclassification_rate(original, boundary, orientation))
        after.append(_misclassification_rate(transformed, boundary, orientation))
    rates_before, excluded_before = zip(*before)
    rates_after, excluded_after = zip(*after)

    return TheoremCheckReport(
        regime=regime,
        constraint_satisfied=constraint,
        trials=trials,
        rates_before=rates_before,
        rates_after=rates_after,
        excluded_before=excluded_before,
        excluded_after=excluded_after,
        seed=seed,
        params=params.to_dict(),
        params_new=params_new.to_dict(),
    )


def lemma_check(params: CsbmParams, seed: int = 0) -> dict:
    """Both classes' mean aggregated embedding over their non-isolated nodes
    in one sampled binary CSBM graph, against the closed forms: the lemmas'
    midpoint and direction, and the distance between the classes,
    |p - q| / (p + q) * ||mu_1 - mu_2||. Every feature column is
    aggregated: the midpoint and direction read all of them."""
    if params.num_classes != 2:
        raise ValueError("lemma checks are binary; use two-class parameters")
    means = np.asarray(params.class_means, dtype=np.float64)
    o = direction(means)  # refuses means too far apart before any draw
    graph = _generate(params, seed)
    h, include = _strict_mean(graph)
    emp = []
    for cls in (0, 1):
        mask = include & (graph.labels == cls)
        if not mask.any():
            raise ValueError(f"class {cls} has no non-isolated nodes")
        emp.append(h[mask].mean(axis=0))
    emp_mid = (emp[0] + emp[1]) / 2.0
    expected_mid = midpoint(means)
    diff = emp[0] - emp[1]
    empirical = _norm(diff, "the aggregated class-mean difference")
    cos = float(np.dot(diff, o) / (empirical * np.linalg.norm(o)))
    a = float(np.linalg.norm(means[0] - means[1]))  # finite: direction took this norm
    closed_form = 2.0 * class_separation_distance(
        params.intra_prob, params.inter_prob, a
    )
    rel = abs(empirical - closed_form) / closed_form if closed_form else float("inf")
    return {
        "empirical_class_means": [emp[0].tolist(), emp[1].tolist()],
        "empirical_midpoint": emp_mid.tolist(),
        "expected_midpoint": expected_mid.tolist(),
        "midpoint_error": _norm(emp_mid - expected_mid, "the midpoint error"),
        "direction_cosine": cos,
        "excluded_nodes": int(np.count_nonzero(~include)),
        "empirical_distance": empirical,
        "closed_form_distance": closed_form,
        "relative_error": rel,
    }


def separation_check(params: CsbmParams, seed: int = 0) -> dict:
    """lemma_check's distance between the aggregated class means and its
    closed form |p - q| / (p + q) * ||mu_1 - mu_2||, with their relative error."""
    report = lemma_check(params, seed)
    return {k: report[k] for k in ("empirical_distance", "closed_form_distance",
                                   "relative_error")}


def phi_vs_simulation(
    p: float,
    q: float,
    n1: int,
    n2: int,
    mean_distance: float,
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Closed-form misclassification probability against direct sampling from
    the post-aggregation Gaussian, classified by the optimal fixed boundary.

    The tolerance band is three standard errors of the closed-form rate.
    """
    _check(samples=samples)
    closed_form = misclassification_prob(p, q, n1, n2, mean_distance)
    means = np.array([[mean_distance / 2.0, 0.0], [-mean_distance / 2.0, 0.0]])
    boundary = boundary_from_means(means)
    orientation = 1.0 if p > q else -1.0
    sigma = 1.0 / math.sqrt(p * n1 + q * n2)
    mean_c0 = expected_embedding(0, p, q, means)
    rng = np.random.default_rng(seed)
    h = mean_c0 + sigma * rng.standard_normal((samples, 2))
    signed = boundary_signed_value(h, boundary)
    simulated = float(np.count_nonzero(orientation * signed <= 0.0)) / samples
    std_error = math.sqrt(max(closed_form * (1.0 - closed_form), 1e-12) / samples)
    return {
        "closed_form": closed_form,
        "simulated": simulated,
        "std_error": std_error,
        "within_3_std_errors": abs(simulated - closed_form) <= 3.0 * std_error,
    }


Check = tuple[str, bool, str]  # (name, passed, detail)


def _axis_params(settings: dict, sizes: tuple[int, int], p: float, q: float) -> CsbmParams:
    """Two classes with means +-mean_distance/2 on the first of dim axes."""
    mu = np.zeros(settings["dim"])
    mu[0] = settings["mean_distance"] / 2.0
    return CsbmParams(class_means=(tuple(mu), tuple(-mu)), class_sizes=sizes,
                      intra_prob=p, inter_prob=q)


@dataclass
class _Draws:
    """One validate call's settings and seed, and its sampled reports, each
    made on first read: the lemma graph is drawn at most once per call."""

    settings: dict
    seed: int

    @functools.cached_property
    def lemma(self) -> dict:
        s, nodes = self.settings, self.settings["lemma_nodes"]
        return lemma_check(_axis_params(s, (nodes, nodes), s["p"], s["q"]), self.seed)

    @functools.cached_property
    def theorem(self) -> TheoremCheckReport:
        s = self.settings
        sizes = (s["n1"], s["n2"])
        return monte_carlo_theorem_check(_axis_params(s, sizes, s["p"], s["q"]),
                                         _axis_params(s, sizes, s["p2"], s["q2"]),
                                         trials=s["trials"], seed=self.seed)


def _lemma_checks(draws: _Draws) -> list[Check]:
    s, lc = draws.settings, draws.lemma
    midpoint, cosine = lc["midpoint_error"], abs(lc["direction_cosine"])
    midpoint_tol, cosine_tol = s["midpoint_tol"], s["cosine_tol"]
    return [
        ("lemma-midpoint", midpoint <= midpoint_tol,
         f"midpoint error {midpoint:.5f} (tol {midpoint_tol})"),
        ("lemma-direction", cosine >= cosine_tol,
         f"|cosine| {cosine:.6f} (tol {cosine_tol})"),
    ]


def _separation_checks(draws: _Draws) -> list[Check]:
    sc = draws.lemma
    detail = (f"empirical {sc['empirical_distance']:.5f} vs closed form "
              f"{sc['closed_form_distance']:.5f} (rel err {sc['relative_error']:.5f})")
    return [("separation-closed-form",
             sc["relative_error"] <= draws.settings["separation_tol"], detail)]


def _phi_checks(draws: _Draws) -> list[Check]:
    s = draws.settings
    r = phi_vs_simulation(s["p"], s["q"], s["n1"], s["n2"], s["mean_distance"],
                          s["samples"], draws.seed)
    detail = (f"closed form {r['closed_form']:.6f} vs simulated {r['simulated']:.6f} "
              f"(3se {3 * r['std_error']:.6f})")
    return [("phi-vs-simulation", r["within_3_std_errors"], detail)]


def _theorem_checks(draws: _Draws) -> list[Check]:
    """Passes when at least 90 % of the trials improved and the mean error fell."""
    report, trials = draws.theorem, draws.settings["trials"]
    need = int(np.ceil(0.9 * trials))
    detail = (f"{report.improved_trials}/{trials} trials improved, mean "
              f"difference {report.mean_difference:+.5f} "
              f"(constraint {'holds' if report.constraint_satisfied else 'violated'})")
    passed = report.improved_trials >= need and report.mean_difference > 0
    return [("theorem-improvement", passed, detail)]


def _constraint_checks(draws: _Draws) -> list[Check]:
    s = draws.settings
    p, q, p2, q2 = s["p"], s["q"], s["p2"], s["q2"]
    n1, n2, a = s["n1"], s["n2"], s["mean_distance"]
    regime = "homophilic" if p > q else "heterophilic"
    holds = degree_relaxation_constraint(p, q, p2, q2, n1, n2, regime)
    before, after = _phi_argument(p, q, n1, n2, a), _phi_argument(p2, q2, n1, n2, a)
    diff = std_normal_cdf(before) - std_normal_cdf(after)
    detail = f"constraint {holds}, closed-form error change {diff:+.6f}"
    # Phi is strictly increasing, so the error falls exactly when its argument
    # does, even where both errors underflow to 0
    return [("constraint-vs-phi", holds == (before > after), detail)]


def _multiclass_checks(draws: _Draws) -> list[Check]:
    p, q, a = draws.settings["p"], draws.settings["q"], draws.settings["mean_distance"]
    grid_ok = True
    worst = 0.0
    rng = np.random.default_rng(draws.seed)
    for _ in range(100):
        gp = rng.uniform(0.01, 0.99)
        gq = rng.uniform(0.01, 0.99)
        ga = rng.uniform(0.1, 5.0)
        lhs = multiclass_separation(gp, gq, 2, ga)
        rhs = 2.0 * class_separation_distance(gp, gq, ga)
        worst = max(worst, abs(lhs - rhs))
        grid_ok = grid_ok and abs(lhs - rhs) <= 1e-12
    mono = all(
        multiclass_separation(p, q, s, a) > multiclass_separation(p, q, s + 1, a)
        for s in range(2, 10)
    ) if p != q and q > 0 else True
    return [
        ("multiclass-reduction", grid_ok, f"max |s=2 formula - binary formula| = {worst:.2e}"),
        ("multiclass-monotone", mono, "separation strictly decreases in the class count"),
    ]


class Suite(NamedTuple):
    """A suite's checks in report order, and whether it reads p2 and q2."""

    checks: Callable[[_Draws], list[Check]]
    needs_transform: bool = False


# The --suite choices; "all" runs every suite in this order.
SUITES: dict[str, Suite] = {
    "lemmas": Suite(_lemma_checks),
    "separation": Suite(_separation_checks),
    "phi": Suite(_phi_checks),
    "theorem": Suite(_theorem_checks, needs_transform=True),
    "constraint": Suite(_constraint_checks, needs_transform=True),
    "multiclass": Suite(_multiclass_checks),
}


def validate(
    settings: dict, suites, seed: int
) -> tuple[list[Check], TheoremCheckReport | None]:
    """The (name, passed, detail) rows of `suites` (SUITES keys, in the order
    given) on one seed, and the theorem suite's Monte Carlo report if it
    ran. `settings` maps theory-validate's option names to values."""
    for suite in suites:
        if SUITES[suite].needs_transform and None in (settings.get("p2"), settings.get("q2")):
            raise ValueError(f"suite {suite!r} needs p2 and q2")
    draws = _Draws(settings, seed)
    rows = [row for suite in suites for row in SUITES[suite].checks(draws)]
    return rows, draws.theorem if "theorem" in suites else None
