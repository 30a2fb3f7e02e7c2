"""Seeded experiment harness: ablation arms, structural-noise robustness,
filtering-ratio sweeps, and the random-drop comparison.

Every arm within an experiment reuses the same per-seed streams, so arm
differences are attributable to the method rather than sampling. Arms that
transform the same graph share one EdgeScoreTable: the graph is scored once
and each arm's config is applied to those scores. Test
graphs are supplied either as a single labeled graph or as a callable
seed -> graph, which lets each seed evaluate a fresh test sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .graphs import LabeledGraph, WeightedGraph, inject_structural_noise, random_edge_drop
from .metrics import accuracy, f1_macro, hd_delta_report
from .models import Checkpoint, edge_homophily_scores, predict_labels
from .transform import TransformConfig, graphost_transform

__all__ = [
    "METRICS",
    "ExperimentReport",
    "RepeatedArmError",
    "derive_seed",
    "evaluate_graph",
    "run_ablation",
    "run_noise_robustness",
    "run_delta_sweep",
    "run_random_drop_comparison",
]


def derive_seed(seed: int, tag: int) -> int:
    """Disjoint child seeds for sub-draws of one experiment seed."""
    return seed * 1_000_003 + tag


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed metric values for every arm of one experiment."""

    experiment: str
    seeds: tuple[int, ...]
    arm_values: dict[str, tuple[float, ...]]
    config: dict
    extras: dict = field(default_factory=dict)
    timestamp: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("an experiment needs at least one seed")
        for arm, values in self.arm_values.items():
            if len(values) != len(self.seeds):
                raise ValueError(f"arm {arm!r} has {len(values)} values for "
                                 f"{len(self.seeds)} seeds")
            if not np.isfinite(values).all():
                raise ValueError(f"arm {arm!r} contains non-finite values")

    def mean(self, arm: str) -> float:
        return float(np.mean(self.arm_values[arm]))

    def std(self, arm: str) -> float:
        values = self.arm_values[arm]
        return float(np.std(values, ddof=1)) if len(values) >= 2 else 0.0

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "timestamp": self.timestamp,
            "seeds": list(self.seeds),
            "config": self.config,
            "arms": {
                arm: {
                    "values": list(values),
                    "mean": self.mean(arm),
                    "std": self.std(arm),
                }
                for arm, values in self.arm_values.items()
            },
            "extras": self.extras,
        }

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["experiment", "arm", "seed", "value", "mean", "std"]]
        for arm, values in self.arm_values.items():
            for seed, value in zip(self.seeds, values):
                rows.append([self.experiment, arm, seed, value,
                             self.mean(arm), self.std(arm)])
        return rows

    def save(self, json_path: str | Path, csv_path: str | Path | None = None) -> None:
        Path(json_path).write_text(json.dumps(self.to_dict(), sort_keys=True))
        if csv_path is not None:
            lines = [",".join(str(cell) for cell in row) for row in self.to_csv_rows()]
            Path(csv_path).write_text("\n".join(lines) + "\n")


GraphProvider = Callable[[int], LabeledGraph]


def _as_provider(test_graphs: LabeledGraph | GraphProvider) -> GraphProvider:
    if callable(test_graphs):
        return test_graphs
    return lambda _seed: test_graphs


METRICS = ("accuracy", "f1_macro")


def evaluate_graph(
    classifier: Checkpoint,
    graph: LabeledGraph | WeightedGraph,
    metric: str = "accuracy",
) -> float:
    """Classifier metric on a labeled (possibly weighted) graph."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {list(METRICS)}, got {metric!r}")
    if isinstance(graph, WeightedGraph):
        base, weights = graph.base, graph.edge_weights
    else:
        base, weights = graph, None
    if base.labels is None:
        raise ValueError("evaluation needs a labeled graph")
    predicted, _ = predict_labels(classifier, base, weights)
    if metric == "accuracy":
        return accuracy(predicted, base.labels)
    return f1_macro(predicted, base.labels, base.num_classes)


def _require_resolved(config: TransformConfig) -> None:
    if config.mode == "auto":
        raise ValueError("harness needs a resolved transform mode, not 'auto'")


class RepeatedArmError(ValueError):
    """Two grid values give one arm label, so their values would merge."""


def _grid_arms(prefix: str, grid: tuple[float, ...]) -> list[str]:
    """One arm label per grid value, the value printed with :g."""
    arms = [f"{prefix}{value:g}" for value in grid]
    for i, arm in enumerate(arms):
        first = arms.index(arm)
        if first < i:
            raise RepeatedArmError(
                f"grid values {grid[first]!r} and {grid[i]!r} both give arm {arm!r}"
            )
    return arms


def run_ablation(
    classifier: Checkpoint,
    predictor: Checkpoint,
    test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig,
    seeds: tuple[int, ...],
    metric: str = "accuracy",
) -> ExperimentReport:
    """Arms per seed: base (untransformed), w/o-weight, w/o-filter, full."""
    _require_resolved(config)
    provider = _as_provider(test_graphs)
    arm_configs = {
        "wo_weight": replace(config, enable_weighting=False, enable_filtering=True),
        "wo_filter": replace(config, enable_weighting=True, enable_filtering=False),
        "full": replace(config, enable_weighting=True, enable_filtering=True),
    }
    values: dict[str, list[float]] = {"base": []} | {a: [] for a in arm_configs}
    hd_before: list[float] = []
    hd_after_full: list[float] = []
    for seed in seeds:
        graph = provider(seed)
        values["base"].append(evaluate_graph(classifier, graph, metric))
        scores = edge_homophily_scores(predictor, graph)
        for arm, arm_cfg in arm_configs.items():
            transformed = graphost_transform(graph, scores, arm_cfg)
            values[arm].append(evaluate_graph(classifier, transformed, metric))
            if arm == "full" and graph.labels is not None:
                before, after, _ = hd_delta_report(graph, transformed, graph.labels)
                hd_before.append(before)
                hd_after_full.append(after)
    return ExperimentReport(
        experiment="ablation",
        seeds=tuple(seeds),
        arm_values={a: tuple(v) for a, v in values.items()},
        config=config.to_dict() | {"metric": metric},
        extras={"hd_before": hd_before, "hd_after_full": hd_after_full},
    )


def run_noise_robustness(
    classifier: Checkpoint,
    predictor: Checkpoint,
    test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig,
    seeds: tuple[int, ...],
    noise_levels: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5),
    metric: str = "accuracy",
) -> ExperimentReport:
    """Full pipeline under injected structural noise vs. the clean base."""
    _require_resolved(config)
    provider = _as_provider(test_graphs)
    arms = _grid_arms("graphost_noise", noise_levels)
    values: dict[str, list[float]] = {arm: [] for arm in ["base"] + arms}
    for seed in seeds:
        graph = provider(seed)
        values["base"].append(evaluate_graph(classifier, graph, metric))
        for idx, (arm, level) in enumerate(zip(arms, noise_levels)):
            noisy = inject_structural_noise(graph, level, derive_seed(seed, idx))
            transformed = graphost_transform(noisy, predictor, config)
            values[arm].append(evaluate_graph(classifier, transformed, metric))
    return ExperimentReport(
        experiment="noise-robustness",
        seeds=tuple(seeds),
        arm_values={a: tuple(v) for a, v in values.items()},
        config=config.to_dict() | {"metric": metric, "noise_levels": list(noise_levels)},
    )


def run_delta_sweep(
    classifier: Checkpoint,
    predictor: Checkpoint,
    test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig,
    seeds: tuple[int, ...],
    delta_grid: tuple[float, ...] = tuple(i / 10.0 for i in range(10)),
    metric: str = "accuracy",
) -> ExperimentReport:
    """One arm per filtering ratio on the grid."""
    _require_resolved(config)
    provider = _as_provider(test_graphs)
    arms = _grid_arms("delta=", delta_grid)
    values: dict[str, list[float]] = {arm: [] for arm in arms}
    for seed in seeds:
        graph = provider(seed)
        scores = edge_homophily_scores(predictor, graph)
        for arm, d in zip(arms, delta_grid):
            transformed = graphost_transform(graph, scores, replace(config, delta=d))
            values[arm].append(evaluate_graph(classifier, transformed, metric))
    return ExperimentReport(
        experiment="delta-sweep",
        seeds=tuple(seeds),
        arm_values={a: tuple(v) for a, v in values.items()},
        config=config.to_dict() | {"metric": metric, "delta_grid": list(delta_grid)},
    )


def run_random_drop_comparison(
    classifier: Checkpoint,
    predictor: Checkpoint,
    test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig,
    seeds: tuple[int, ...],
    metric: str = "accuracy",
) -> ExperimentReport:
    """Base vs. random edge-dropping (count matched to the filter) vs. the
    full pipeline."""
    _require_resolved(config)
    provider = _as_provider(test_graphs)
    values: dict[str, list[float]] = {"base": [], "random_drop": [], "graphost": []}
    dropped: list[int] = []
    for seed in seeds:
        graph = provider(seed)
        values["base"].append(evaluate_graph(classifier, graph, metric))
        transformed = graphost_transform(graph, predictor, config)
        k = graph.num_edges - transformed.num_edges
        randomly_dropped = random_edge_drop(graph, k, derive_seed(seed, 7))
        if randomly_dropped.num_edges != transformed.num_edges:
            raise AssertionError("random-drop arm is not count-matched")
        dropped.append(k)
        values["random_drop"].append(
            evaluate_graph(classifier, randomly_dropped, metric)
        )
        values["graphost"].append(evaluate_graph(classifier, transformed, metric))
    return ExperimentReport(
        experiment="random-drop",
        seeds=tuple(seeds),
        arm_values={a: tuple(v) for a, v in values.items()},
        config=config.to_dict() | {"metric": metric},
        extras={"dropped_edges": dropped},
    )
