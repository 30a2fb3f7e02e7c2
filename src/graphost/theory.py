"""Closed-form calculators and Monte Carlo validators for the CSBM analysis:
expected post-aggregation embeddings, the midpoint/direction lemmas, the
optimal linear boundary, misclassification probabilities, the degree
relaxation constraint, the imbalanced-class boundary, and the multi-class
separation formula.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .csbm import CsbmParams, _generate, _sample_edges
from .graphs import LabeledGraph
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


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the Zelen-Severo rational approximation
    (Abramowitz & Stegun 26.2.17), absolute error below 7.5e-8."""
    if x < 0.0:
        return 1.0 - std_normal_cdf(-x)
    t = 1.0 / (1.0 + 0.2316419 * x)
    poly = t * (
        0.319381530
        + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429)))
    )
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1.0 - pdf * poly


def expected_embedding(class_index: int, p: float, q: float, means) -> np.ndarray:
    """Mean of the post-aggregation embedding for one class:
    (p * mu_k + q * sum_{j != k} mu_j) / (p + (s - 1) * q)."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or len(means) < 2:
        raise ValueError("means must be an (s >= 2, l) array")
    s = len(means)
    if not 0 <= class_index < s:
        raise ValueError(f"class_index {class_index} out of range for {s} classes")
    denom = p + (s - 1) * q
    if denom <= 0.0:
        raise ValueError("p + (s - 1) * q must be positive")
    others = means.sum(axis=0) - means[class_index]
    return (p * means[class_index] + q * others) / denom


def midpoint(means) -> np.ndarray:
    means = np.asarray(means, dtype=np.float64)
    if means.shape[0] != 2:
        raise ValueError("midpoint is defined for exactly two class means")
    return (means[0] + means[1]) / 2.0


def direction(means) -> np.ndarray:
    means = np.asarray(means, dtype=np.float64)
    if means.shape[0] != 2:
        raise ValueError("direction is defined for exactly two class means")
    diff = means[0] - means[1]
    norm = np.linalg.norm(diff)
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
    if p + q <= 0.0:
        raise ValueError("p + q must be positive")
    if mean_distance < 0.0:
        raise ValueError("mean_distance must be non-negative")
    return 0.5 * abs(p - q) / (p + q) * mean_distance


def misclassification_prob(
    p: float, q: float, n1: int, n2: int, mean_distance: float
) -> float:
    """Phi(-a |p - q| sqrt(p n1 + q n2) / (2 (p + q))), the per-class error of
    the optimal fixed boundary at average degree p n1 + q n2."""
    degree = p * n1 + q * n2
    if degree <= 0.0:
        raise ValueError("degenerate degree: p * n1 + q * n2 must be positive")
    if p + q <= 0.0:
        raise ValueError("p + q must be positive")
    arg = -mean_distance * abs(p - q) * math.sqrt(degree) / (2.0 * (p + q))
    return std_normal_cdf(arg)


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
    for name, value in (("p", p), ("q", q), ("p_new", p_new), ("q_new", q_new)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {value}")
    if regime == "homophilic":
        if not (p > q and p_new > q_new):
            raise ValueError(
                "homophilic regime needs p > q and p_new > q_new; "
                f"got ({p}, {q}) -> ({p_new}, {q_new})"
            )
        lhs = (p_new - q_new) * (p + q) * math.sqrt(p_new * n1 + q_new * n2)
        rhs = (p - q) * (p_new + q_new) * math.sqrt(p * n1 + q * n2)
    elif regime == "heterophilic":
        if not (p < q and p_new < q_new):
            raise ValueError(
                "heterophilic regime needs p < q and p_new < q_new; "
                f"got ({p}, {q}) -> ({p_new}, {q_new})"
            )
        lhs = (q_new - p_new) * (p + q) * math.sqrt(p_new * n1 + q_new * n2)
        rhs = (q - p) * (p_new + q_new) * math.sqrt(p * n1 + q * n2)
    else:
        raise ValueError(f"regime must be 'homophilic' or 'heterophilic', got {regime!r}")
    return lhs > rhs


def imbalanced_boundary(mu1: float, mu2: float, sigma: float, n1: int, n2: int) -> float:
    """One-dimensional equal-variance boundary with a class prior shift:
    (mu1 + mu2) / 2 + ln(n2 / n1) / (2 sigma^2)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if n1 < 1 or n2 < 1:
        raise ValueError("class counts must be positive")
    return (mu1 + mu2) / 2.0 + math.log(n2 / n1) / (2.0 * sigma * sigma)


def multiclass_separation(p: float, q: float, s: int, mean_distance: float) -> float:
    """Distance between two classes' expected embeddings in an s-class model:
    |p - q| / (p + (s - 1) q) * mean_distance."""
    if s < 2:
        raise ValueError("s must be at least 2")
    denom = p + (s - 1) * q
    if denom <= 0.0:
        raise ValueError("p + (s - 1) * q must be positive")
    if mean_distance < 0.0:
        raise ValueError("mean_distance must be non-negative")
    return abs(p - q) / denom * mean_distance


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
        return {
            "regime": self.regime,
            "constraint_satisfied": self.constraint_satisfied,
            "trials": self.trials,
            "seed": self.seed,
            "rates_before": list(self.rates_before),
            "rates_after": list(self.rates_after),
            "excluded_before": list(self.excluded_before),
            "excluded_after": list(self.excluded_after),
            "mean_before": self.mean_before,
            "mean_after": self.mean_after,
            "mean_difference": self.mean_difference,
            "improved_trials": self.improved_trials,
            "params": self.params,
            "params_new": self.params_new,
        }

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [
            ["trial", "rate_before", "rate_after", "excluded_before", "excluded_after"]
        ]
        for t in range(self.trials):
            rows.append(
                [
                    t,
                    self.rates_before[t],
                    self.rates_after[t],
                    self.excluded_before[t],
                    self.excluded_after[t],
                ]
            )
        return rows


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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
    same_transform = (p2, q2) == (p, q)
    if not same_transform:
        if regime == "homophilic" and not p2 > q2:
            raise ValueError("regime-inconsistent parameters: expected p' > q'")
        if regime == "heterophilic" and not p2 < q2:
            raise ValueError("regime-inconsistent parameters: expected p' < q'")
    constraint = (
        False
        if same_transform
        else degree_relaxation_constraint(
            p, q, p2, q2, params.class_sizes[0], params.class_sizes[1], regime
        )
    )
    boundary = boundary_from_means(params.class_means)
    orientation = 1.0 if p > q else -1.0

    rates_before: list[float] = []
    rates_after: list[float] = []
    excluded_before: list[int] = []
    excluded_after: list[int] = []
    for t in range(trials):
        trial_seed = seed * 1_000_003 + 2 * t
        original = _generate(params, trial_seed)
        transformed = original.with_edges(_sample_edges(params_new, trial_seed + 1))
        rate_b, excl_b = _misclassification_rate(original, boundary, orientation)
        rate_a, excl_a = _misclassification_rate(transformed, boundary, orientation)
        rates_before.append(rate_b)
        rates_after.append(rate_a)
        excluded_before.append(excl_b)
        excluded_after.append(excl_a)

    return TheoremCheckReport(
        regime=regime,
        constraint_satisfied=constraint,
        trials=trials,
        rates_before=tuple(rates_before),
        rates_after=tuple(rates_after),
        excluded_before=tuple(excluded_before),
        excluded_after=tuple(excluded_after),
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
    graph = _generate(params, seed)
    h, include = _strict_mean(graph)
    emp = []
    for cls in (0, 1):
        mask = include & (graph.labels == cls)
        if not mask.any():
            raise ValueError(f"class {cls} has no non-isolated nodes")
        emp.append(h[mask].mean(axis=0))
    means = np.asarray(params.class_means, dtype=np.float64)
    emp_mid = (emp[0] + emp[1]) / 2.0
    expected_mid = midpoint(means)
    diff = emp[0] - emp[1]
    o = direction(means)
    cos = float(np.dot(diff, o) / (np.linalg.norm(diff) * np.linalg.norm(o)))
    empirical = float(np.linalg.norm(diff))
    a = float(np.linalg.norm(means[0] - means[1]))
    closed_form = 2.0 * class_separation_distance(
        params.intra_prob, params.inter_prob, a
    )
    rel = abs(empirical - closed_form) / closed_form if closed_form else float("inf")
    return {
        "empirical_class_means": [emp[0].tolist(), emp[1].tolist()],
        "empirical_midpoint": emp_mid.tolist(),
        "expected_midpoint": expected_mid.tolist(),
        "midpoint_error": float(np.linalg.norm(emp_mid - expected_mid)),
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    closed_form = misclassification_prob(p, q, n1, n2, mean_distance)
    a = mean_distance
    means = np.array([[a / 2.0, 0.0], [-a / 2.0, 0.0]])
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
