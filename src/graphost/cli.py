"""Command-line entry point.

Subcommands: generate | train | transform | evaluate | ablate | sweep-delta
| noise-robustness | random-drop | theory-validate. Flag values override the
--config JSON file, which overrides built-in defaults; each option's parser
reads all three alike, main merges them once, and every subcommand runs on
the merged options. One writer stamps, names and writes every report.
Verbosity comes from GRAPHOST_LOG (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .csbm import (
    SAMPLER_VERSION,
    CsbmParams,
    generate_csbm,
    symmetric_binary_params,
)
from .experiments import (
    METRICS,
    RepeatedArmError,
    derive_seed,
    evaluate_graph,
    run_ablation,
    run_delta_sweep,
    run_noise_robustness,
    run_random_drop_comparison,
    write_csv,
)
from .graphs import LabeledGraph, edge_homophily_or_none, load_graph, save_graph
from .jsonfile import FileFormatError, read_json, write_json
from .metrics import hd_delta_report
from .models import (
    ArchitectureSpec,
    Checkpoint,
    OptimizerConfig,
    load_checkpoint,
    save_checkpoint,
    train_classifier,
    train_homophily_predictor,
)
from .theory import (
    class_separation_distance,
    degree_relaxation_constraint,
    lemma_check,
    misclassification_prob,
    monte_carlo_theorem_check,
    multiclass_separation,
    phi_vs_simulation,
    separation_check,  # unused: kept bound for perfbench's trace of the theory lab
)
from .transform import MODES, TransformConfig, graphost_transform, resolve_mode
from .workers import map_in_order

PINNED_TIMESTAMP = "pinned"


class CliError(Exception):
    """Input/config problem; reported as a usage error before any output."""


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _int(value) -> int:
    """Integer text, or a JSON integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError("expected an integer")
    return int(value)


def _float(value) -> float:
    """Number text, or a JSON number (not a bool); finite either way."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("expected a number")
    number = float(value)
    if not np.isfinite(number):
        raise ValueError("must be finite")
    return number


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _ranged(in_range: Callable[[float], bool], shown: str,
            read: Callable[[object], float] = _float) -> Callable[[object], float]:
    """`read` (_float or _int), also requiring the value to lie in the range `shown`."""
    def parse(value) -> float:
        number = read(value)
        if not in_range(number):
            raise ValueError(f"{number:g} lies outside {shown}")
        return number
    return parse


def _split(item: Callable, sep: str = ",") -> Callable[[object], tuple]:
    """Text of `sep`-separated pieces, each read by `item`."""
    return lambda value: tuple(item(piece) for piece in _text(value).split(sep))


def _parse_seeds(value) -> tuple[int, ...]:
    seeds = tuple(int(tok) for tok in str(value).split(",") if tok.strip() != "")
    if not seeds:
        raise ValueError("seed list must not be empty")
    return seeds


@dataclass(frozen=True)
class _Option:
    """One settable value: built-in default, parser, choices, help. `parse`
    reads flag text and config JSON values alike, raising ValueError on
    anything else; a `_switch` option is a presence flag that sets True."""

    default: object = None
    parse: Callable[[object], object] = _text
    choices: tuple[str, ...] | None = None
    help: str | None = None

    def read(self, value):
        value = self.parse(value)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"must be one of {self.choices}")
        return value


_NETWORK_KINDS = ("gcn", "mlp")
_COUNT = _ranged(lambda v: v >= 1, "[1, inf)", _int)
_PROBABILITY = _ranged(lambda v: 0 <= v <= 1, "[0, 1]")
_RATIO = _ranged(lambda v: 0 <= v < 1, "[0, 1)")

_OPTIONS: dict[str, _Option] = {
    # all but transform; a seed list is checked but kept as given: reports echo it
    "seed": _Option("0", lambda v: _parse_seeds(v) and v,
                    help="seed or comma-separated seed list"),
    "out": _Option(".", help="output directory"),
    "pin_timestamp": _Option(
        False, _switch, help="pin report timestamps for byte-reproducible output"
    ),
    # CSBM parameters
    "params": _Option(help="CsbmParams JSON file"),
    "p": _Option(parse=_PROBABILITY, help="intra-class edge probability"),
    "q": _Option(parse=_PROBABILITY, help="inter-class edge probability"),
    "sizes": _Option("300,300", _split(_COUNT), help="comma-separated class sizes"),
    "dim": _Option(16, _COUNT, help="feature dimension"),
    "means": _Option(parse=_split(_split(_float), ";"),
                     help="class means, ';'-separated comma vectors"),
    "mean_distance": _Option(2.0, _float, help="||mu1 - mu2|| for symmetric binary means"),
    # training
    "train_graph": _Option(help="labeled training graph"),
    "val_graph": _Option(),
    "target": _Option("both", choices=("classifier", "predictor", "both")),
    "kind": _Option("gcn", choices=_NETWORK_KINDS, help="classifier backbone"),
    "predictor_kind": _Option("gcn", choices=_NETWORK_KINDS),
    "hidden": _Option(32, _COUNT),
    "layers": _Option(2, _ranged(lambda v: v >= 2, "[2, inf)", _int)),
    "lr": _Option(1e-2, _ranged(lambda v: v >= 0, "[0, inf)")),
    "epochs": _Option(1000, _COUNT),
    "patience": _Option(50, _COUNT),
    "loss": _Option("wbce", choices=("wbce", "bce"), help="predictor loss"),
    # transformation and evaluation
    "test_graph": _Option(),
    "classifier": _Option(),
    "predictor": _Option(help="predictor checkpoint path"),
    "mode": _Option(
        "auto", choices=(*MODES, "auto"), help="edge regime; auto reads it from --predictor"
    ),
    "delta": _Option(0.3, _RATIO, help="filtering ratio in [0, 1)"),
    "no_weight": _Option(False, _switch, help="disable confidence weighting"),
    "no_filter": _Option(False, _switch, help="disable edge filtering"),
    "metric": _Option("accuracy", choices=METRICS),
    "delta_grid": _Option(
        "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        _split(_RATIO),
        help="comma-separated filtering ratios",
    ),
    "noise_levels": _Option(
        "0,0.1,0.3,0.5", _split(_PROBABILITY),
        help="comma-separated noise ratios",
    ),
    # theory validation
    "p2": _Option(parse=_PROBABILITY, help="transformed intra-class probability"),
    "q2": _Option(parse=_PROBABILITY, help="transformed inter-class probability"),
    "n1": _Option(500, _COUNT),
    "n2": _Option(500, _COUNT),
    "trials": _Option(20, _COUNT),
    "samples": _Option(100_000, _COUNT),
    "lemma_nodes": _Option(2000, _COUNT),
    "midpoint_tol": _Option(0.05, _float),
    "cosine_tol": _Option(0.999, _float),
    "separation_tol": _Option(0.05, _float),
    # "suite" is added beside _THEORY_SUITES, whose keys are its choices.
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _single_seed(options: dict) -> int:
    """The one seed of a subcommand that makes a single run."""
    seeds = _parse_seeds(options["seed"])
    if len(seeds) > 1:
        raise CliError(f"--seed takes one seed here, got {options['seed']!r}")
    return seeds[0]


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return read_json(path).raw
    except FileFormatError as exc:
        raise CliError(f"bad config file {exc}") from exc
    except OSError as exc:  # missing, a directory, unreadable
        raise CliError(f"cannot read --config file {path}: {exc.strerror or exc}") from exc


def _merge_options(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, each read by its option's parser; a
    rejected value is a usage error naming the flag (or config-only key)
    and the config file it came from. None stays where it is the default."""
    spec = _SUBCOMMANDS[args.command]
    defaults = spec.defaults()
    given = {key: (value, "") for key, value in defaults.items()}
    for key, value in _load_config_file(args.config).items():
        if key not in given:
            raise CliError(f"unknown config key {key!r}")
        given[key] = (value, f" in config file {args.config}")
    merged = {}
    for key, (value, source) in given.items():
        if getattr(args, key, None) is not None:
            value, source = getattr(args, key), ""
        try:
            unset = value is None and defaults[key] is None
            merged[key] = None if unset else _OPTIONS[key].read(value)
        except (ValueError, OverflowError) as exc:  # float() of a huge JSON integer
            name = _flag(key) if key in spec.flags + _COMMON else f"config key {key!r}"
            raise CliError(f"bad {name} value {value!r}{source}: {exc}") from exc
    return merged


def _out_dir(options: dict) -> Path:
    """The output directory, made just before a command's first write."""
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(options: dict, name: str, doc: dict, seeds: tuple[int, ...] = (),
                  csv_rows: list[list] | None = None) -> str:
    """The one report writer. Stamps `doc` with "pinned" under
    --pin-timestamp, else the UTC time to the microsecond (two runs in one
    second keep both reports), and writes it to <name>.json, or to
    <name>-<stamp>-<seeds>.json given seeds, with `csv_rows` as a CSV of the
    same stem. Returns the stamp."""
    stamp = (PINNED_TIMESTAMP if options["pin_timestamp"]
             else datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ"))
    stem = f"{name}-{stamp}-{'-'.join(map(str, seeds))}" if seeds else name
    out = _out_dir(options)
    write_json(out / f"{stem}.json", doc | {"timestamp": stamp})
    if csv_rows is not None:
        write_csv(out / f"{stem}.csv", csv_rows)
    return stamp


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _require_file(options: dict, key: str, load: Callable[[Path], object]):
    """`load` of the file option `key` names; unset, missing or unreadable
    is a usage error."""
    if options[key] is None:
        raise CliError(f"{_flag(key)} is required")
    try:
        return load(Path(options[key]))
    except OSError as exc:  # missing, a directory, unreadable
        raise CliError(f"cannot read {_flag(key)} file {options[key]}: "
                       f"{exc.strerror or exc}") from exc


def _graph(options: dict, key: str, labeled: bool = False) -> LabeledGraph:
    """The graph option `key` names; one without features, or without labels
    where `labeled`, is a usage error naming the flag and the file."""
    graph = _require_file(options, key, load_graph)
    for part, needed in (("features", True), ("labels", labeled)):
        if needed and getattr(graph, part) is None:
            raise CliError(f"{_flag(key)} {options[key]} has no {part}")
    return graph


def _checkpoint(options: dict, role: str, test_graph: LabeledGraph) -> Checkpoint:
    """The checkpoint option `role` names; a role, input width or class count
    that does not fit `role` and `test_graph` is a usage error."""
    checkpoint = _require_file(options, role, load_checkpoint)
    trained_as = checkpoint.metadata.get("trained_as", role)
    if trained_as != role:
        raise CliError(f"{_flag(role)} {options[role]}: checkpoint was trained as "
                       f"{trained_as!r}, not as the {role}")
    spec, graph = checkpoint.spec, f"--test-graph {options['test_graph']}"
    if test_graph.feature_dim != spec.input_dim:
        raise CliError(f"{graph} has feature dim {test_graph.feature_dim}, but "
                       f"{_flag(role)} {options[role]} takes {spec.input_dim}")
    if role == "classifier" and test_graph.num_classes != spec.output_dim:
        raise CliError(f"{graph} has {test_graph.num_classes} classes, but "
                       f"{_flag(role)} {options[role]} predicts {spec.output_dim}")
    return checkpoint


def _params_from_options(options: dict) -> CsbmParams:
    if options["params"] is not None:
        try:
            return _require_file(options, "params", CsbmParams.load)
        except FileFormatError as exc:
            raise CliError(f"bad params file {exc}") from exc
    p, q, sizes = options["p"], options["q"], options["sizes"]
    if p is None or q is None:
        raise CliError("need --params FILE or inline --p and --q")
    if options["means"] is not None:
        return CsbmParams(class_means=options["means"], class_sizes=sizes,
                          intra_prob=p, inter_prob=q)
    if len(sizes) != 2:
        raise CliError("--mean-distance only builds binary params; pass --means for s > 2")
    return symmetric_binary_params(options["mean_distance"], options["dim"], sizes, p, q)


def cmd_generate(options: dict) -> int:
    params = _params_from_options(options)
    seed = _single_seed(options)
    splits = {split: generate_csbm(params, derive_seed(seed, idx))
              for idx, split in enumerate(("train", "val", "test"))}
    manifest = {
        "seed": seed,
        "sampler_version": SAMPLER_VERSION,
        "params": params.to_dict(),
        "files": {},
        "edge_homophily_degree": {},
    }
    out = _out_dir(options)
    for split, graph in splits.items():
        path = out / f"{split}.json"
        save_graph(graph, path)
        manifest["files"][split] = path.name
        manifest["edge_homophily_degree"][split] = edge_homophily_or_none(graph, graph.labels)
    _write_report(options, "generate-manifest", manifest)
    print(f"generated train/val/test under {out} (seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(options: dict) -> int:
    train_graph = _graph(options, "train_graph", labeled=True)
    val_graph = _graph(options, "val_graph", labeled=True)
    if val_graph.feature_dim != train_graph.feature_dim:
        raise CliError(f"--val-graph {options['val_graph']} has feature dim "
                       f"{val_graph.feature_dim}, but --train-graph "
                       f"{options['train_graph']} has {train_graph.feature_dim}")
    if options["target"] != "predictor" and val_graph.num_classes != train_graph.num_classes:
        # the classifier predicts the training graph's classes only
        raise CliError(f"--val-graph {options['val_graph']} has {val_graph.num_classes} "
                       f"classes, but --train-graph {options['train_graph']} has "
                       f"{train_graph.num_classes}")
    seed = _single_seed(options)
    optimizer = OptimizerConfig(learning_rate=options["lr"], max_epochs=options["epochs"],
                                patience=options["patience"])
    hidden, layers, dim = options["hidden"], options["layers"], train_graph.feature_dim

    def train(network: str) -> Checkpoint:
        if network == "classifier":
            spec = ArchitectureSpec.default(options["kind"], dim, train_graph.num_classes,
                                            hidden, layers)
            return train_classifier(train_graph, val_graph, spec, optimizer, seed)
        spec = ArchitectureSpec.default(options["predictor_kind"], dim, hidden, hidden, layers)
        return train_homophily_predictor(train_graph, val_graph, spec, optimizer, seed,
                                         loss=options["loss"])

    # With --target both the two trainings are independent: they may run side by side.
    networks = ("classifier", "predictor") if options["target"] == "both" else (options["target"],)
    checkpoints = dict(zip(networks, map_in_order(train, networks)))
    out = _out_dir(options)
    logline: dict = {"seed": seed, "optimizer": optimizer.to_dict()}
    for name, ckpt in checkpoints.items():
        save_checkpoint(ckpt, out / f"{name}.json")
        logline[name] = ckpt.metadata
    _write_report(options, "train-log", logline)
    written = ", ".join(f"{name}.json" for name in checkpoints)
    print(f"trained {options['target']} -> {written} under {out}")
    return 0


# ---------------------------------------------------------------------------
# transform / evaluate
# ---------------------------------------------------------------------------

def _transform_config(options: dict, predictor: Checkpoint) -> TransformConfig:
    """The options' config, with --mode auto resolved on the predictor."""
    mode = options["mode"]
    if mode == "auto":
        try:
            mode = resolve_mode(predictor)
        except ValueError as exc:
            raise CliError(f"--mode auto: --predictor {options['predictor']}: {exc}") from exc
    return TransformConfig(
        mode=mode,
        delta=options["delta"],
        enable_weighting=not options["no_weight"],
        enable_filtering=not options["no_filter"],
    )


def cmd_transform(options: dict) -> int:
    test_graph = _graph(options, "test_graph")
    predictor = _checkpoint(options, "predictor", test_graph)
    config = _transform_config(options, predictor)
    transformed = graphost_transform(test_graph, predictor, config)
    report: dict = {
        "config": asdict(config),
        "edges_before": test_graph.num_edges,
        "edges_after": transformed.num_edges,
    }
    summary = f"transformed graph: {test_graph.num_edges} -> {transformed.num_edges} edges"
    if test_graph.labels is not None:
        # HD after the fact, with the test graph's own labels; None where undefined
        before, after, delta = hd_delta_report(test_graph, transformed, test_graph.labels)
        report["hd"] = {"before": before, "after": after, "delta": delta}
        summary += f", HD {_format_hd(before)} -> {_format_hd(after)}"
    save_graph(transformed, _out_dir(options) / "transformed.json")
    _write_report(options, "transform-report", report)
    print(summary)
    return 0


def _format_hd(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def _evaluation_inputs(options: dict):
    """What evaluate and the harness runs share: the labeled test graph,
    classifier and predictor checkpoints, transform config and seeds."""
    test_graph = _graph(options, "test_graph", labeled=True)
    classifier = _checkpoint(options, "classifier", test_graph)
    predictor = _checkpoint(options, "predictor", test_graph)
    config = _transform_config(options, predictor)
    return test_graph, classifier, predictor, config, _parse_seeds(options["seed"])


def cmd_evaluate(options: dict) -> int:
    """Evaluate base and transformed test graph once.

    Nothing here draws at random, so repeating it per seed would report a
    spread of 0 as if it were variance across seeds. The seed list only
    names the report, and each arm holds one value.
    """
    test_graph, classifier, predictor, config, seeds = _evaluation_inputs(options)
    metric = options["metric"]
    base = evaluate_graph(classifier, test_graph, metric)
    transformed = graphost_transform(test_graph, predictor, config)
    after = evaluate_graph(classifier, transformed, metric)
    _write_report(options, "evaluate", {
        "experiment": "evaluate",
        "seeds": list(seeds),
        "config": asdict(config) | {"metric": metric},
        "arms": {"base": {"value": base}, "graphost": {"value": after}},
    }, seeds)
    print(f"{metric}: base {base:.4f} -> graphost {after:.4f}")
    return 0


# ---------------------------------------------------------------------------
# experiment harness subcommands
# ---------------------------------------------------------------------------

def cmd_harness(runner: Callable, grid_key: str | None, options: dict) -> int:
    """One harness run: `runner` over the evaluation inputs, and over the
    grid option `grid_key` where the runner takes a grid."""
    test_graph, classifier, predictor, config, seeds = _evaluation_inputs(options)
    grid = () if grid_key is None else (options[grid_key],)
    try:
        report = runner(classifier, predictor, test_graph, config, seeds, *grid,
                        options["metric"])
    except RepeatedArmError as exc:
        raise CliError(f"{_flag(grid_key)}: {exc}") from exc
    _write_report(options, report.experiment, report.to_dict(), report.seeds,
                  report.to_csv_rows())
    for arm in report.arm_values:
        print(f"{report.experiment} {arm}: {report.mean(arm):.4f} +- {report.std(arm):.4f}")
    return 0


# ---------------------------------------------------------------------------
# theory-validate
# ---------------------------------------------------------------------------

def _axis_params(mean_distance: float, dim: int, n1: int, n2: int, p: float, q: float) -> CsbmParams:
    mu = np.zeros(dim)
    mu[0] = mean_distance / 2.0
    return CsbmParams(
        class_means=(tuple(mu), tuple(-mu)),
        class_sizes=(n1, n2),
        intra_prob=p,
        inter_prob=q,
    )


def _lemma_report(options: dict, seed: int, found: dict) -> dict:
    """lemma_check's report on the lemma graph (lemma_nodes nodes per class),
    drawn once per run: the lemma and separation suites both read it from
    found["lemma"]."""
    if "lemma" not in found:
        nodes = options["lemma_nodes"]
        params = _axis_params(options["mean_distance"], options["dim"], nodes, nodes,
                              options["p"], options["q"])
        found["lemma"] = lemma_check(params, seed)
    return found["lemma"]


def _lemma_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    lc = _lemma_report(options, seed, found)
    midpoint, cosine = lc["midpoint_error"], abs(lc["direction_cosine"])
    midpoint_tol, cosine_tol = options["midpoint_tol"], options["cosine_tol"]
    return [
        ("lemma-midpoint", midpoint <= midpoint_tol,
         f"midpoint error {midpoint:.5f} (tol {midpoint_tol})"),
        ("lemma-direction", cosine >= cosine_tol,
         f"|cosine| {cosine:.6f} (tol {cosine_tol})"),
    ]


def _separation_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    sc = _lemma_report(options, seed, found)
    detail = (f"empirical {sc['empirical_distance']:.5f} vs closed form "
              f"{sc['closed_form_distance']:.5f} (rel err {sc['relative_error']:.5f})")
    return [("separation-closed-form", sc["relative_error"] <= options["separation_tol"], detail)]


def _phi_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    r = phi_vs_simulation(options["p"], options["q"], options["n1"], options["n2"],
                          options["mean_distance"], options["samples"], seed)
    detail = (f"closed form {r['closed_form']:.6f} vs simulated {r['simulated']:.6f} "
              f"(3se {3 * r['std_error']:.6f})")
    return [("phi-vs-simulation", r["within_3_std_errors"], detail)]


def _theorem_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    """Also leaves the Monte Carlo report in found["theorem"]."""
    a, dim, n1, n2 = options["mean_distance"], options["dim"], options["n1"], options["n2"]
    params = _axis_params(a, dim, n1, n2, options["p"], options["q"])
    params2 = _axis_params(a, dim, n1, n2, options["p2"], options["q2"])
    report = found["theorem"] = monte_carlo_theorem_check(
        params, params2, trials=options["trials"], seed=seed
    )
    need = int(np.ceil(0.9 * options["trials"]))
    detail = (f"{report.improved_trials}/{options['trials']} trials improved, mean "
              f"difference {report.mean_difference:+.5f} "
              f"(constraint {'holds' if report.constraint_satisfied else 'violated'})")
    passed = report.improved_trials >= need and report.mean_difference > 0
    return [("theorem-improvement", passed, detail)]


def _constraint_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    p, q, p2, q2 = options["p"], options["q"], options["p2"], options["q2"]
    n1, n2, a = options["n1"], options["n2"], options["mean_distance"]
    regime = "homophilic" if p > q else "heterophilic"
    holds = degree_relaxation_constraint(p, q, p2, q2, n1, n2, regime)
    diff = misclassification_prob(p, q, n1, n2, a) - misclassification_prob(p2, q2, n1, n2, a)
    detail = f"constraint {holds}, closed-form error change {diff:+.6f}"
    return [("constraint-vs-phi", holds == (diff > 0), detail)]


def _multiclass_checks(options: dict, seed: int, found: dict) -> list[tuple[str, bool, str]]:
    p, q, a = options["p"], options["q"], options["mean_distance"]
    grid_ok = True
    worst = 0.0
    rng = np.random.default_rng(seed)
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


# suite -> its checks as (name, passed, detail) rows, in report order;
# "all" runs every suite in this order.
_THEORY_SUITES: dict[str, Callable[[dict, int, dict], list[tuple[str, bool, str]]]] = {
    "lemmas": _lemma_checks,
    "separation": _separation_checks,
    "phi": _phi_checks,
    "theorem": _theorem_checks,
    "constraint": _constraint_checks,
    "multiclass": _multiclass_checks,
}
_NEEDS_TRANSFORM = ("theorem", "constraint")
_OPTIONS["suite"] = _Option("all", choices=("all", *_THEORY_SUITES))


def cmd_theory_validate(options: dict) -> int:
    suites = list(_THEORY_SUITES) if options["suite"] == "all" else [options["suite"]]
    seed = _single_seed(options)
    skipped: list[str] = []
    if options["p2"] is None or options["q2"] is None:
        if options["suite"] in _NEEDS_TRANSFORM:
            raise CliError("--p2 and --q2 are required for the theorem/constraint suites")
        skipped = [s for s in suites if s in _NEEDS_TRANSFORM]
        suites = [s for s in suites if s not in skipped]

    checks: list[dict] = []
    found: dict = {}
    for suite in suites:
        for name, passed, detail in _THEORY_SUITES[suite](options, seed, found):
            checks.append({"name": name, "passed": bool(passed), "detail": detail})
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    doc = {
        "seed": seed,
        "options": {k: options[k] for k in sorted(options) if k not in ("out",)},
        "checks": checks,
    }
    if skipped:
        doc["skipped"] = skipped
        print(f"SKIP {', '.join(skipped)}: need --p2 and --q2")
    if "theorem" in found:
        doc["theorem_report"] = found["theorem"].to_dict()
    stamp = _write_report(options, "theory-report", doc, (seed,))
    if "theorem" in found:
        write_csv(Path(options["out"]) / f"theory-theorem-{stamp}-{seed}.csv",
                  found["theorem"].to_csv_rows())
    failed = [c for c in checks if not c["passed"]]
    print(f"{len(checks) - len(failed)}/{len(checks)} theory checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Subcommand:
    """A subcommand's handler, which takes the merged options and returns
    the exit code, its flags in help order, and the config keys it accepts
    without a flag. Every subcommand also takes --config and the _COMMON
    options."""

    run: Callable[[dict], int]
    help: str
    flags: tuple[str, ...]
    config_only: tuple[str, ...] = ()
    default_overrides: dict = field(default_factory=dict)

    def defaults(self) -> dict:
        names = self.flags + self.config_only + _COMMON
        return {k: self.default_overrides.get(k, _OPTIONS[k].default) for k in names}


_COMMON = ("out", "pin_timestamp")
_TRANSFORM_FLAGS = ("predictor", "mode", "delta", "no_weight", "no_filter")
_EVALUATE_FLAGS = ("test_graph", "classifier", "metric", *_TRANSFORM_FLAGS, "seed")
_GRIDS = ("delta_grid", "noise_levels")


def _harness(help_text: str, runner: Callable, grid: str | None = None) -> _Subcommand:
    return _Subcommand(
        functools.partial(cmd_harness, runner, grid),
        help_text,
        _EVALUATE_FLAGS + ((grid,) if grid else ()),
        config_only=tuple(k for k in _GRIDS if k != grid),
        default_overrides={"seed": "0,1"},
    )


_SUBCOMMANDS: dict[str, _Subcommand] = {
    "generate": _Subcommand(
        cmd_generate,
        "sample CSBM train/val/test graphs",
        ("params", "p", "q", "sizes", "dim", "means", "mean_distance", "seed"),
    ),
    "train": _Subcommand(
        cmd_train,
        "train the classifier and/or predictor",
        ("train_graph", "val_graph", "target", "kind", "predictor_kind", "hidden",
         "layers", "lr", "epochs", "patience", "loss", "seed"),
    ),
    "transform": _Subcommand(
        cmd_transform,
        "apply the structural transformation",
        ("test_graph",) + _TRANSFORM_FLAGS,
    ),
    "evaluate": _Subcommand(
        cmd_evaluate,
        "base vs transformed metric report",
        _EVALUATE_FLAGS,
    ),
    "ablate": _harness("base / w-o weight / w-o filter / full arms", run_ablation),
    "sweep-delta": _harness("metric across the filtering-ratio grid", run_delta_sweep,
                            "delta_grid"),
    "noise-robustness": _harness("pipeline under injected structural noise",
                                 run_noise_robustness, "noise_levels"),
    "random-drop": _harness("pipeline vs count-matched random edge dropping",
                            run_random_drop_comparison),
    "theory-validate": _Subcommand(
        cmd_theory_validate,
        "closed-form and Monte Carlo checks",
        ("p", "q", "p2", "q2", "n1", "n2", "mean_distance", "dim", "trials", "samples",
         "lemma_nodes", "suite", "seed"),
        config_only=("midpoint_tol", "cosine_tol", "separation_tol"),
        default_overrides={"p": 0.02, "q": 0.01, "dim": 2},
    ),
}


def _add_flag(parser: argparse.ArgumentParser, name: str) -> None:
    # No type=: flag text goes through opt.parse in _merge_options, as config values do.
    opt = _OPTIONS[name]
    kind = (dict(action="store_const", const=True) if opt.parse is _switch
            else dict(choices=opt.choices))
    parser.add_argument(_flag(name), dest=name, help=opt.help, **kind)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use: parse_args reads it
    and keeps nothing between calls, and building it takes milliseconds."""
    parser = argparse.ArgumentParser(
        prog="graphost",
        description="Homophily-guided test-time graph transformation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag in spec.flags:
            _add_flag(p, flag)
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        for flag in _COMMON:
            _add_flag(p, flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GRAPHOST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command].run(_merge_options(args))
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
