"""Command-line entry point.

Subcommands: generate | train | transform | evaluate | ablate | sweep-delta
| noise-robustness | random-drop | theory-validate. Flag values override the
--config JSON file, which overrides built-in defaults; each option's parser
reads all three alike, main merges them once, and every subcommand runs on
the merged options; experiments.write_report writes every report.
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
    derive_seed,
    generate_csbm,
    symmetric_binary_params,
)
from .experiments import (
    DELTA_GRID,
    METRICS,
    NOISE_LEVELS,
    RepeatedArmError,
    evaluate_graph,
    parse_seeds,
    run_study,
    write_report,
)
from .fixtures import train_networks
from .graphs import LabeledGraph, edge_homophily_or_none, load_graph, save_graph
from .jsonfile import FileFormatError, read_json
from .metrics import hd_delta_report
from .models import (
    KINDS,
    LOSSES,
    ArchitectureSpec,
    Checkpoint,
    NonFiniteError,
    OptimizerConfig,
    load_checkpoint,
    save_checkpoint,
)
from .theory import SUITES as THEORY_SUITES, validate
# unused: kept bound for perfbench's trace of the theory lab
from .theory import lemma_check, monte_carlo_theorem_check, phi_vs_simulation, separation_check
from .transform import MODES, TransformConfig, graphost_transform, resolve_mode

PINNED_TIMESTAMP = "pinned"


class CliError(Exception):
    """Input/config problem; reported as a usage error before any output."""


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _int(value) -> int:
    """Integer text, or a JSON integer (not a bool), within int64."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError("expected an integer")
    number = int(value)
    if not -2**63 <= number < 2**63:
        raise ValueError("lies outside int64")
    return number


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


def _joined(numbers: tuple[float, ...]) -> str:
    """The comma-separated text `_split` reads back as `numbers`."""
    return ",".join(f"{x:g}" for x in numbers)


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


_COUNT = _ranged(lambda v: v >= 1, "[1, inf)", _int)
_PROBABILITY = _ranged(lambda v: 0 <= v <= 1, "[0, 1]")
_RATIO = _ranged(lambda v: 0 <= v < 1, "[0, 1)")

_OPTIONS: dict[str, _Option] = {
    # all but transform; a seed list is checked but kept as given: reports echo it
    "seed": _Option("0", lambda v: parse_seeds(v) and v,
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
    "mean_distance": _Option(2.0, _ranged(lambda v: v > 0, "(0, inf)"),
                             help="||mu1 - mu2|| > 0 for symmetric binary means"),
    # training
    "train_graph": _Option(help="labeled training graph"),
    "val_graph": _Option(),
    "target": _Option("both", choices=("classifier", "predictor", "both")),
    "kind": _Option("gcn", choices=KINDS, help="classifier backbone"),
    "predictor_kind": _Option("gcn", choices=KINDS),
    "hidden": _Option(32, _COUNT),
    "layers": _Option(2, _ranged(lambda v: v >= 2, "[2, inf)", _int)),
    "lr": _Option(OptimizerConfig.learning_rate, _ranged(lambda v: v >= 0, "[0, inf)")),
    "epochs": _Option(OptimizerConfig.max_epochs, _COUNT),
    "patience": _Option(OptimizerConfig.patience, _COUNT),
    "loss": _Option("wbce", choices=LOSSES, help="predictor loss"),
    # transformation and evaluation
    "test_graph": _Option(),
    "classifier": _Option(),
    "predictor": _Option(help="predictor checkpoint path"),
    "mode": _Option(
        "auto", choices=(*MODES, "auto"), help="edge regime; auto reads it from --predictor"
    ),
    "delta": _Option(TransformConfig.delta, _RATIO, help="filtering ratio in [0, 1)"),
    "no_weight": _Option(False, _switch, help="disable confidence weighting"),
    "no_filter": _Option(False, _switch, help="disable edge filtering"),
    "metric": _Option("accuracy", choices=METRICS),
    "delta_grid": _Option(_joined(DELTA_GRID), _split(_RATIO),
                          help="comma-separated filtering ratios"),
    "noise_levels": _Option(_joined(NOISE_LEVELS), _split(_PROBABILITY),
                            help="comma-separated noise ratios"),
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
    "suite": _Option("all", choices=("all", *THEORY_SUITES)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _single_seed(options: dict) -> int:
    """The one seed of a subcommand that makes a single run."""
    seeds = parse_seeds(options["seed"])
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
            raise CliError(f"unknown config key {key!r} in config file {args.config}")
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


def _stamp(options: dict) -> str:
    """A report's timestamp: "pinned" under --pin-timestamp, else the UTC
    time to the microsecond, so two runs in one second keep both reports."""
    return (PINNED_TIMESTAMP if options["pin_timestamp"]
            else datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ"))


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
        try:
            return CsbmParams(class_means=options["means"], class_sizes=sizes,
                              intra_prob=p, inter_prob=q)
        except ValueError as exc:
            raise CliError(f"--means with --sizes makes no CSBM params: {exc}") from exc
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
    write_report(out, "generate-manifest", manifest, _stamp(options))
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
    heads = {"classifier": (options["kind"], train_graph.num_classes),  # (kind, output width)
             "predictor": (options["predictor_kind"], hidden)}
    specs = {name: ArchitectureSpec.default(kind, dim, width, hidden, layers)
             for name, (kind, width) in heads.items() if options["target"] in (name, "both")}
    checkpoints = train_networks(train_graph, val_graph, specs, optimizer,
                                 dict.fromkeys(specs, seed), options["loss"])
    out = _out_dir(options)
    logline: dict = {"seed": seed, "optimizer": asdict(optimizer)}
    for name, ckpt in checkpoints.items():
        save_checkpoint(ckpt, out / f"{name}.json")
        logline[name] = ckpt.metadata
    write_report(out, "train-log", logline, _stamp(options))
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
    write_report(_out_dir(options), "transform-report", report, _stamp(options))
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
    return test_graph, classifier, predictor, config, parse_seeds(options["seed"])


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
    write_report(_out_dir(options), "evaluate", {
        "experiment": "evaluate",
        "seeds": list(seeds),
        "config": asdict(config) | {"metric": metric},
        "arms": {"base": {"value": base}, "graphost": {"value": after}},
    }, _stamp(options), seeds)
    print(f"{metric}: base {base:.4f} -> graphost {after:.4f}")
    return 0


# ---------------------------------------------------------------------------
# experiment harness subcommands
# ---------------------------------------------------------------------------

def cmd_harness(experiment: str, grid_key: str | None, options: dict) -> int:
    """One harness run: run_study's `experiment` over the evaluation inputs;
    only that experiment's grid option, `grid_key`, is read."""
    test_graph, classifier, predictor, config, seeds = _evaluation_inputs(options)
    try:
        report = run_study(classifier, predictor, test_graph, config, seeds, (experiment,),
                           options["metric"], options["noise_levels"],
                           options["delta_grid"])[experiment]
    except RepeatedArmError as exc:
        raise CliError(f"{_flag(grid_key)}: {exc}") from exc
    write_report(_out_dir(options), report.experiment, report.to_dict(), _stamp(options),
                 report.seeds, report.to_csv_rows())
    for arm in report.arm_values:
        print(f"{report.experiment} {arm}: {report.mean(arm):.4f} +- {report.std(arm):.4f}")
    return 0


# ---------------------------------------------------------------------------
# theory-validate
# ---------------------------------------------------------------------------

def cmd_theory_validate(options: dict) -> int:
    suites = list(THEORY_SUITES) if options["suite"] == "all" else [options["suite"]]
    seed = _single_seed(options)
    skipped: list[str] = []
    if options["p2"] is None or options["q2"] is None:
        skipped = [s for s in suites if THEORY_SUITES[s].needs_transform]
        if options["suite"] in skipped:
            raise CliError("--p2 and --q2 are required for the theorem/constraint suites")
        suites = [s for s in suites if s not in skipped]

    rows, theorem = validate(options, suites, seed)
    checks = [{"name": name, "passed": passed, "detail": detail} for name, passed, detail in rows]
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    doc = {
        "seed": seed,
        "options": {k: options[k] for k in sorted(options) if k not in ("out",)},
        "checks": checks,
    }
    if skipped:
        doc["skipped"] = skipped
        print(f"SKIP {', '.join(skipped)}: need --p2 and --q2")
    if theorem is not None:
        doc["theorem_report"] = theorem.to_dict()
    write_report(_out_dir(options), "theory-report", doc, _stamp(options), (seed,),
                 None if theorem is None else theorem.to_csv_rows(), "theory-theorem")
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


def _harness(help_text: str, experiment: str, grid: str | None = None) -> _Subcommand:
    return _Subcommand(
        functools.partial(cmd_harness, experiment, grid),
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
    "ablate": _harness("base / w-o weight / w-o filter / full arms", "ablation"),
    "sweep-delta": _harness("metric across the filtering-ratio grid", "delta-sweep",
                            "delta_grid"),
    "noise-robustness": _harness("pipeline under injected structural noise",
                                 "noise-robustness", "noise_levels"),
    "random-drop": _harness("pipeline vs count-matched random edge dropping",
                            "random-drop"),
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
        options = _merge_options(args)
        return _SUBCOMMANDS[args.command].run(options)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        # A NonFiniteError names the input it came from: a checkpoint, a
        # training or validation graph, or the theory lab's mean distance.
        if isinstance(exc, NonFiniteError) and options.get(exc.source):
            exc = f"{_flag(exc.source)} {options[exc.source]}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count that fits int64 but not in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
