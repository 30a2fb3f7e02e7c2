"""Seeded experiment harness: ablation arms, structural-noise robustness,
filtering-ratio sweeps, and the random-drop comparison.

The four experiments are one study run four ways on the same per-seed test
graphs, and run_study runs any of them together. An arm is named by its
recipe: the seed's test graph, with structural noise injected or not, then
transformed by a TransformConfig, dropped at random or left as it is. Each
seed draws its graph once, builds and evaluates each distinct recipe once
(experiments share an arm only where their recipes are equal, never because
their values match) and scores each source graph once, into one
EdgeScoreTable for every transform of it. Arms reuse the seed's streams, so
arm differences come from the method, not sampling. run_ablation,
run_delta_sweep, run_noise_robustness and run_random_drop_comparison are
views of run_study that run one experiment. Test graphs are a single labeled
graph or a callable seed -> graph, which lets each seed evaluate a fresh
test sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .csbm import derive_seed
from .graphs import LabeledGraph, WeightedGraph, inject_structural_noise, random_edge_drop
from .jsonfile import write_json
from .metrics import accuracy, f1_macro, hd_delta_report
from .models import Checkpoint, edge_homophily_scores, predict_labels
from .transform import TransformConfig, graphost_transform
from .workers import map_in_order

__all__ = [
    "EXPERIMENTS",
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
    "run_study",
    "write_report",
]


def _distinct(seeds: tuple[int, ...]) -> tuple[int, ...]:
    """`seeds`, refused if one is negative, which numpy's generators refuse
    only at the first draw, or if one repeats: a repeat would report copies
    of one run as spread across seeds."""
    if any(s < 0 for s in seeds):
        raise ValueError(f"seeds must be non-negative, got {min(seeds)}")
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
    base = graph.base if isinstance(graph, WeightedGraph) else graph
    weights = graph.edge_weights if isinstance(graph, WeightedGraph) else None
    if base.labels is None:
        raise ValueError("evaluation needs a labeled graph")
    predicted, _ = predict_labels(classifier, base, weights)
    if metric == "accuracy":
        return accuracy(predicted, base.labels)
    return f1_macro(predicted, base.labels, base.num_classes)


class RepeatedArmError(ValueError):
    """Two grid values give one arm label, so their values would merge.
    `grid` names the grid by its run_study parameter ("delta_grid" or
    "noise_levels"), whose flag the CLI prints before the message."""

    def __init__(self, message: str, grid: str):
        super().__init__(message)
        self.grid = grid


def _grid_arms(prefix: str, grid: str, values: tuple[float, ...]) -> dict[str, float]:
    """{arm label: value} for run_study's grid parameter `grid`, the label the
    value printed with :g."""
    arms = {}
    for value in values:
        arm = f"{prefix}{value:g}"
        if arm in arms:
            raise RepeatedArmError(
                f"grid values {arms[arm]!r} and {value!r} both give arm {arm!r}", grid)
        arms[arm] = value
    return arms


EXPERIMENTS = ("ablation", "delta-sweep", "noise-robustness", "random-drop")
NOISE_LEVELS = (0.0, 0.1, 0.3, 0.5)
DELTA_GRID = tuple(i / 10.0 for i in range(10))
# The step that drops, at random, as many edges as the study config's transform removes.
_RANDOM_DROP = "random_drop"


def _plan(name: str, config: TransformConfig, noise_levels: tuple[float, ...],
          delta_grid: tuple[float, ...]) -> tuple[dict[str, tuple], dict, dict, tuple]:
    """Experiment `name`'s {arm: recipe} in report order, the grid its report
    config records, its extras, {key: value from one seed's {arm: _Arm}}, and
    the arms whose HD the extras read. Only the experiment's own grid is read,
    so a repeated value in another grid is not refused."""
    base = {"base": (None, None)}
    if name == "ablation":
        return (base | {arm: (None, replace(config, enable_weighting=w, enable_filtering=f))
                        for arm, w, f in (("wo_weight", False, True), ("wo_filter", True, False),
                                          ("full", True, True))}, {},
                {"hd_before": lambda arms: arms["full"].hd[0],
                 "hd_after_full": lambda arms: arms["full"].hd[1]}, ("full",))
    if name == "delta-sweep":
        return ({arm: (None, replace(config, delta=d))
                 for arm, d in _grid_arms("delta=", "delta_grid", delta_grid).items()},
                {"delta_grid": list(delta_grid)}, {}, ())
    if name == "noise-robustness":
        return (base | {arm: ((level, tag), config) for tag, (arm, level) in enumerate(
                            _grid_arms("graphost_noise", "noise_levels", noise_levels).items())},
                {"noise_levels": list(noise_levels)}, {}, ())
    if name == "random-drop":
        return (base | {"random_drop": (None, _RANDOM_DROP), "graphost": (None, config)}, {},
                {"dropped_edges": lambda arms: arms["base"].edges - arms["graphost"].edges}, ())
    raise ValueError(f"unknown experiment {name!r}; choose from {list(EXPERIMENTS)}")


class _Arm(NamedTuple):
    """What a seed keeps of an arm's graph: its metric, edge count and, for an
    arm whose HD an extra reads, the (before, after) of hd_delta_report."""

    value: float
    edges: int
    hd: tuple[float | None, float | None] | None


def run_study(classifier: Checkpoint, predictor: Checkpoint,
              test_graphs: LabeledGraph | GraphProvider, config: TransformConfig,
              seeds: tuple[int, ...], experiments: tuple[str, ...] = EXPERIMENTS,
              metric: str = "accuracy", noise_levels: tuple[float, ...] = NOISE_LEVELS,
              delta_grid: tuple[float, ...] = DELTA_GRID) -> dict[str, ExperimentReport]:
    """{experiment: report} for each of `experiments`, in the order given.

    An unknown experiment, a repeated grid arm of an asked experiment, a
    repeated seed and an empty seed list are refused before any graph is
    drawn. Each seed then draws its test graph once and builds each distinct
    recipe (noise, step) once: the graph, with structural noise injected if
    noise is a (level, seed tag), then transformed by step, a
    TransformConfig, or dropped at random as far as config's transform
    filters (_RANDOM_DROP), or left as it is (None). Each source graph is
    scored once, for every transform of it. A seed keeps each arm's metric,
    edge count and, where an extra reads it, HD, not its graph. Seeds are
    independent and may run side by side (map_in_order); values and extras
    join in seed order, the bits of a plain loop."""
    seeds = _distinct(tuple(seeds))
    if not seeds:
        raise ValueError("an experiment needs at least one seed")
    plans = {name: _plan(name, config, noise_levels, delta_grid) for name in experiments}
    recipes = list(dict.fromkeys(r for plan in plans.values() for r in plan[0].values()))
    hd_recipes = {plan[0][arm] for plan in plans.values() for arm in plan[3]}
    # One source at a time, the clean graph first; a random drop reads config's arm.
    recipes.sort(key=lambda recipe: (recipe[0] is not None, recipe[1] == _RANDOM_DROP))

    def one_seed(seed: int) -> dict[tuple, _Arm]:
        graph = test_graphs(seed) if callable(test_graphs) else test_graphs
        arms, scores = {}, {}  # scores: the current source's only
        for noise, step in recipes:
            # No plan gives one noise two steps, so a noisy source is built per recipe.
            arm = graph if noise is None else inject_structural_noise(
                graph, noise[0], derive_seed(seed, noise[1]))
            if step == _RANDOM_DROP:
                arm = random_edge_drop(graph, graph.num_edges - arms[None, config].edges,
                                       derive_seed(seed, 7))
            elif step is not None:
                if noise not in scores:
                    scores = {noise: edge_homophily_scores(predictor, arm)}
                arm = graphost_transform(arm, scores[noise], step)
            # Evaluating the arm first checks that it has labels. Only `arm` holds
            # its graph, until the next recipe rebinds it, before any transform.
            arms[noise, step] = _Arm(evaluate_graph(classifier, arm, metric), arm.num_edges,
                                     hd_delta_report(graph, arm, graph.labels)[:2]
                                     if (noise, step) in hd_recipes else None)
        return arms

    per_seed = map_in_order(one_seed, seeds)
    reports = {}
    for name, (plan, grid, extras, _) in plans.items():
        seed_arms = [{arm: arms[recipe] for arm, recipe in plan.items()} for arms in per_seed]
        reports[name] = ExperimentReport(
            name, seeds, {arm: tuple(arms[arm].value for arms in seed_arms) for arm in plan},
            asdict(config) | {"metric": metric} | grid,
            {key: [extra(arms) for arms in seed_arms] for key, extra in extras.items()})
    return reports


def run_ablation(classifier: Checkpoint, predictor: Checkpoint,
                 test_graphs: LabeledGraph | GraphProvider, config: TransformConfig,
                 seeds: tuple[int, ...], metric: str = "accuracy") -> ExperimentReport:
    """Arms per seed: base (untransformed), w/o-weight, w/o-filter, full. extras
    hold each seed's HD before and after full, None on a side with no edges."""
    return run_study(classifier, predictor, test_graphs, config, seeds, ("ablation",),
                     metric)["ablation"]


def run_noise_robustness(classifier: Checkpoint, predictor: Checkpoint,
                         test_graphs: LabeledGraph | GraphProvider, config: TransformConfig,
                         seeds: tuple[int, ...], noise_levels: tuple[float, ...] = NOISE_LEVELS,
                         metric: str = "accuracy") -> ExperimentReport:
    """Full pipeline under injected structural noise vs. the clean base."""
    return run_study(classifier, predictor, test_graphs, config, seeds, ("noise-robustness",),
                     metric, noise_levels)["noise-robustness"]


def run_delta_sweep(classifier: Checkpoint, predictor: Checkpoint,
                    test_graphs: LabeledGraph | GraphProvider, config: TransformConfig,
                    seeds: tuple[int, ...], delta_grid: tuple[float, ...] = DELTA_GRID,
                    metric: str = "accuracy") -> ExperimentReport:
    """One arm per filtering ratio on the grid."""
    return run_study(classifier, predictor, test_graphs, config, seeds, ("delta-sweep",),
                     metric, delta_grid=delta_grid)["delta-sweep"]


def run_random_drop_comparison(classifier: Checkpoint, predictor: Checkpoint,
                               test_graphs: LabeledGraph | GraphProvider,
                               config: TransformConfig, seeds: tuple[int, ...],
                               metric: str = "accuracy") -> ExperimentReport:
    """Base vs. random edge-dropping (count matched to the filter) vs. the
    full pipeline."""
    return run_study(classifier, predictor, test_graphs, config, seeds, ("random-drop",),
                     metric)["random-drop"]
