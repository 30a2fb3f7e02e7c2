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

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

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
    arms: Callable[[int, LabeledGraph, dict], Iterator[tuple[str, LabeledGraph | WeightedGraph]]],
    grid: dict | None = None, extras: tuple[str, ...] = (),
) -> ExperimentReport:
    """The seed x arm loop: arms(seed, graph, found) yields (arm, graph) in
    report order for each seed's test graph, each yielded graph evaluated
    before the next is made, and sets that seed's `extras` keys in `found`.
    Seeds are independent, so they may run side by side (map_in_order);
    values and extras are assembled in seed order, the bits of a plain loop.
    `grid` joins the report's config block. A repeated seed is refused
    before any seed runs."""
    seeds = _distinct(tuple(seeds))
    provider = test_graphs if callable(test_graphs) else lambda _seed: test_graphs

    def one_seed(seed: int) -> tuple[list[tuple[str, float]], dict]:
        found: dict = {}
        values = [(arm, evaluate_graph(classifier, graph, metric))
                  for arm, graph in arms(seed, provider(seed), found)]
        return values, found

    per_seed = map_in_order(one_seed, seeds)
    values: dict[str, list[float]] = {}
    for seed_values, _ in per_seed:
        for arm, value in seed_values:
            values.setdefault(arm, []).append(value)
    return ExperimentReport(
        experiment=experiment,
        seeds=seeds,
        arm_values={a: tuple(v) for a, v in values.items()},
        config=asdict(config) | {"metric": metric} | (grid or {}),
        extras={key: [found[key] for _, found in per_seed] for key in extras},
    )


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

    def arms(seed, graph, found):
        yield "base", graph  # evaluating it checked that graph has labels
        scores = edge_homophily_scores(predictor, graph)
        for arm, arm_cfg in arm_configs.items():
            transformed = graphost_transform(graph, scores, arm_cfg)
            yield arm, transformed
        # the loop ends on the full arm
        found["hd_before"], found["hd_after_full"], _ = hd_delta_report(
            graph, transformed, graph.labels)

    return _run_arms("ablation", classifier, test_graphs, config, seeds, metric, arms,
                     extras=("hd_before", "hd_after_full"))


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

    def arms(seed, graph, found):
        yield "base", graph
        for idx, (arm, level) in enumerate(zip(level_arms, noise_levels)):
            noisy = inject_structural_noise(graph, level, derive_seed(seed, idx))
            yield arm, graphost_transform(noisy, predictor, config)

    return _run_arms("noise-robustness", classifier, test_graphs, config, seeds, metric, arms,
                     {"noise_levels": list(noise_levels)})


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

    def arms(seed, graph, found):
        scores = edge_homophily_scores(predictor, graph)
        for arm, d in zip(delta_arms, delta_grid):
            yield arm, graphost_transform(graph, scores, replace(config, delta=d))

    return _run_arms("delta-sweep", classifier, test_graphs, config, seeds, metric, arms,
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

    def arms(seed, graph, found):
        yield "base", graph
        transformed = graphost_transform(graph, predictor, config)
        k = found["dropped_edges"] = graph.num_edges - transformed.num_edges
        randomly_dropped = random_edge_drop(graph, k, derive_seed(seed, 7))
        if randomly_dropped.num_edges != transformed.num_edges:
            raise AssertionError("random-drop arm is not count-matched")
        yield "random_drop", randomly_dropped
        yield "graphost", transformed

    return _run_arms("random-drop", classifier, test_graphs, config, seeds, metric, arms,
                     extras=("dropped_edges",))
