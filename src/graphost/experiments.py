"""Seeded experiment harness: ablation arms, structural-noise robustness,
filtering-ratio sweeps, and the random-drop comparison.

Each runner is a per-seed function one_seed(seed, graph, score) returning
({arm: metric}, extras), run for every seed by _run_arms. Arms reuse the
seed's streams, so arm differences come from the method, not sampling; arms
that transform one graph share one EdgeScoreTable, scored once, and apply
their configs to those scores. Test graphs are a single labeled graph or a
callable seed -> graph, which lets each seed evaluate a fresh test sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .graphs import LabeledGraph, WeightedGraph, inject_structural_noise, random_edge_drop
from .jsonfile import write_json
from .metrics import accuracy, f1_macro, hd_delta_report
from .models import Checkpoint, edge_homophily_scores, predict_labels
from .transform import TransformConfig, graphost_transform
from .workers import map_in_order

__all__ = [
    "METRICS",
    "ExperimentReport",
    "RepeatedArmError",
    "derive_seed",
    "evaluate_graph",
    "parse_seeds",
    "run_ablation",
    "run_noise_robustness",
    "run_delta_sweep",
    "run_random_drop_comparison",
    "write_report",
]


def derive_seed(seed: int, tag: int) -> int:
    """Disjoint child seeds for sub-draws of one experiment seed."""
    return seed * 1_000_003 + tag


def _distinct(seeds: tuple[int, ...]) -> tuple[int, ...]:
    """`seeds`, refused if one repeats: a repeat would report copies of one
    run as spread across seeds."""
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"seed list repeats {', '.join(map(str, repeated))}")
    return seeds


def parse_seeds(value) -> tuple[int, ...]:
    """The seeds of a comma-separated list; an empty item or a repeated seed
    is refused."""
    items = str(value).split(",")
    if any(item.strip() == "" for item in items):
        raise ValueError("seed list has an empty item")
    return _distinct(tuple(int(item) for item in items))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed metric values for every arm of one experiment."""

    experiment: str
    seeds: tuple[int, ...]
    arm_values: dict[str, tuple[float, ...]]
    config: dict
    extras: dict = field(default_factory=dict)

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


def write_report(out_dir: Path, name: str, doc: dict, stamp: str, seeds: tuple[int, ...] = (),
                 csv_rows: list[list] | None = None, csv_name: str | None = None) -> None:
    """The one report writer. Writes `doc`, stamped with "timestamp": `stamp`,
    to <name>.json in `out_dir`, or to <name>-<stamp>-<seeds>.json given
    seeds, and `csv_rows` as a CSV named alike after `csv_name` (default
    `name`): str() of each cell, comma-joined, a newline per row."""
    suffix = f"-{stamp}-{'-'.join(map(str, seeds))}" if seeds else ""
    write_json(out_dir / f"{name}{suffix}.json", doc | {"timestamp": stamp})
    if csv_rows is not None:
        text = "\n".join(",".join(str(cell) for cell in row) for row in csv_rows) + "\n"
        (out_dir / f"{csv_name or name}{suffix}.csv").write_text(text)


GraphProvider = Callable[[int], LabeledGraph]


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


def _run_arms(
    experiment: str, classifier: Checkpoint, test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig, seeds: tuple[int, ...], metric: str,
    one_seed: Callable[[int, LabeledGraph, Callable], tuple[dict, dict]], grid: dict | None = None,
) -> ExperimentReport:
    """The seed x arm loop; a repeated seed is refused before any seed runs.
    one_seed(seed, graph, score) returns the seed's {arm: metric} in report
    order and its extras, scoring each arm's graph by score(graph) =
    evaluate_graph(classifier, graph, metric) before it builds the next.
    Seeds are independent and may run side by side (map_in_order); values and
    extras join in seed order, the bits of a plain loop; `grid` joins config."""
    seeds = _distinct(tuple(seeds))

    def run(seed: int) -> tuple[dict, dict]:
        graph = test_graphs(seed) if callable(test_graphs) else test_graphs
        return one_seed(seed, graph, lambda g: evaluate_graph(classifier, g, metric))

    values: dict[str, list[float]] = {}
    extras: dict[str, list] = {}
    for seed_dicts in map_in_order(run, seeds):
        for column, seed_dict in zip((values, extras), seed_dicts):
            for key, value in seed_dict.items():
                column.setdefault(key, []).append(value)
    return ExperimentReport(experiment, seeds, {a: tuple(v) for a, v in values.items()},
                            asdict(config) | {"metric": metric} | (grid or {}), extras)


def run_ablation(
    classifier: Checkpoint,
    predictor: Checkpoint,
    test_graphs: LabeledGraph | GraphProvider,
    config: TransformConfig,
    seeds: tuple[int, ...],
    metric: str = "accuracy",
) -> ExperimentReport:
    """Arms per seed: base (untransformed), w/o-weight, w/o-filter, full. extras
    hold each seed's HD before and after full, None on a side with no edges."""
    arm_configs = {
        "wo_weight": replace(config, enable_weighting=False, enable_filtering=True),
        "wo_filter": replace(config, enable_weighting=True, enable_filtering=False),
        "full": replace(config, enable_weighting=True, enable_filtering=True),
    }

    def one_seed(seed, graph, score):
        values = {"base": score(graph)}  # scoring it checked that graph has labels
        scores = edge_homophily_scores(predictor, graph)
        for arm, arm_cfg in arm_configs.items():
            transformed = graphost_transform(graph, scores, arm_cfg)
            values[arm] = score(transformed)
        before, after, _ = hd_delta_report(graph, transformed, graph.labels)
        return values, {"hd_before": before, "hd_after_full": after}

    return _run_arms("ablation", classifier, test_graphs, config, seeds, metric, one_seed)


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
    level_arms = _grid_arms("graphost_noise", noise_levels)

    def one_seed(seed, graph, score):
        values = {"base": score(graph)}
        for idx, (arm, level) in enumerate(zip(level_arms, noise_levels)):
            noisy = inject_structural_noise(graph, level, derive_seed(seed, idx))
            values[arm] = score(graphost_transform(noisy, predictor, config))
        return values, {}

    return _run_arms("noise-robustness", classifier, test_graphs, config, seeds, metric,
                     one_seed, {"noise_levels": list(noise_levels)})


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
    delta_arms = _grid_arms("delta=", delta_grid)

    def one_seed(seed, graph, score):
        scores = edge_homophily_scores(predictor, graph)
        return {arm: score(graphost_transform(graph, scores, replace(config, delta=d)))
                for arm, d in zip(delta_arms, delta_grid)}, {}

    return _run_arms("delta-sweep", classifier, test_graphs, config, seeds, metric, one_seed,
                     {"delta_grid": list(delta_grid)})


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

    def one_seed(seed, graph, score):
        base = score(graph)
        transformed = graphost_transform(graph, predictor, config)
        k = graph.num_edges - transformed.num_edges
        randomly_dropped = random_edge_drop(graph, k, derive_seed(seed, 7))
        if randomly_dropped.num_edges != transformed.num_edges:
            raise AssertionError("random-drop arm is not count-matched")
        return ({"base": base, "random_drop": score(randomly_dropped),
                 "graphost": score(transformed)}, {"dropped_edges": k})

    return _run_arms("random-drop", classifier, test_graphs, config, seeds, metric, one_seed)
