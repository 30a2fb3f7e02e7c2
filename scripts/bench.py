#!/usr/bin/env python3
"""End-to-end rows of the BENCH file for the checkout this script sits in.

Rows (times in seconds, each with its raw samples):
  run_benchmark_wall_s  scripts/run_benchmark.py, homophilic, median of 3
  tier1_s               the tier-1 pytest command, one run, with its summary
  import_s              `import graphost` in a fresh interpreter, median of 5
                        (timed inside the child, so interpreter start-up is out)
  src_lines             lines of src/**/*.py
  src_code_lines        lines of src/**/*.py that are not blank, not
                        comment-only and not inside a module, class or
                        function docstring (found with ast); the total, and
                        each file's count by its path under src/
  theory_validate_s     per feature width (--dim 2 and 16): `theory-validate
                        --suite theorem` at the homophilic point of
                        scripts/run_theory_suite.py (seed 1), one call of
                        cli.main per fresh child, median of 5 (timed inside the
                        child, so interpreter start-up and import are out)
  pipeline_peak_mb      per rung (n = 20k and 200k), one fresh child each: the
                        run_benchmark.py fixture's predictor and classifier on a
                        2 x n/2-node CSBM of mean degree ~21, p/q = 2.5, 16-dim
                        features, drawn as the fixture's test graph of seed 0
                        with those CSBM params; the process high-water mark
                        (VmHWM, read from /proc/self/status), the seconds and
                        the minor page faults (the ru_minflt delta) of each
                        stage:
                        setup (fixture training), generate + perturb, transform
                        (delta = 0.3) and classify (base and transformed graph)
  train_epoch           per rung (n = 20k and 200k), one fresh child each: a
                        hidden-64, 2-layer GCN predictor fit (WBCE, patience
                        50) on a CSBM training graph of the pipeline rung's
                        params (seed 0) with a validation graph (seed 1),
                        once for 1 epoch and once for 3; each fit's seconds,
                        minor page faults and the VmHWM after it, the seconds
                        per epoch (the difference over 2) and the fit setup
                        seconds (the 1-epoch fit less one epoch: operator
                        builds, edge matrix and the first validation)
  desk_pass             one fresh child pinned to one core: the
                        run_benchmark.py fixture (make_fixture) and the four
                        experiment views (run_ablation, run_delta_sweep,
                        run_noise_robustness, run_random_drop_comparison) over
                        seeds 0-9; the seconds and minor page faults from the
                        fixture's start to the last view's end (timed inside
                        the child, so interpreter start-up and import are
                        out). One core means no worker threads, so the fault
                        count repeats exactly from run to run of one checkout;
                        with two seed workers it spread by about 2x
  cli_start_s           per command (transform and evaluate): spawn to exit
                        of a fresh `python -m graphost` child on a generated
                        600-node workspace (CLI_WORKSPACE: the run_benchmark.py
                        fixture's graph sizes, a classifier and predictor
                        trained by the CLI), median of 5; plus one more child
                        under `-X importtime` that records whether the
                        command imported scipy.sparse
  pinned_outputs        one fresh child: PINNED_SEQUENCE (generate, train --target
                        both, transform, evaluate, study (all four experiments)
                        and theory-validate in both regimes, each
                        --pin-timestamp)
                        through cli.main in an empty directory, then
                        RUN_BENCHMARK_SEQUENCE (scripts/run_benchmark.py at
                        seeds 0,1 in both regimes, one child each) in the same
                        directory; each command's exit code and stdout, and
                        the sha256 of every file written, by relative path.
                        Two labels' rows are equal exactly when the two
                        checkouts write the same bytes.
  unreached_statements  one child: scripts/reach.py (the tier-1 suite under a
                        line tracer); the count of statements it lists, the
                        count ALLOWED does not name, its exit code and seconds
  mutants               one child: scripts/mutate.py --json (each fixed mutant
                        under tier-1 with -x); the mutants, the killed count,
                        each mutant's result, the exit code and seconds

The rows are stored under LABEL (default: `git describe --always --dirty`)
in the JSON object at OUT, which is created or updated in place, so one file
can hold a parent's rows beside a change's. Every child runs with BLAS
pinned to one thread. Beside the rows, `machine.workers` records what a
child sees: its usable cores, its BLAS threads per call and the worker
threads graphost.workers gives a run_benchmark.py experiment (10 seeds).

Usage: python3 scripts/bench.py OUT [--label LABEL]
       python3 scripts/bench.py --pipeline-rung NODES_PER_CLASS
           (one pipeline_peak_mb child: prints its rung as JSON)
       python3 scripts/bench.py --train-epoch NODES_PER_CLASS
           (one train_epoch child: prints its rung as JSON)
       python3 scripts/bench.py --pinned-outputs
           (one pinned_outputs child, at the caller's BLAS threads: prints
           the row as JSON)
"""

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import graphost; "
                "print(time.perf_counter() - t)")
THEORY_PROBE = """
import contextlib, io, sys, tempfile, time
from graphost.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = main(sys.argv[1:] + ["--out", out])
    wall = time.perf_counter() - start
if code not in (0, 1):  # 1: a sampled check failed by chance; the time still counts
    sys.exit(code)
print(wall)
"""
THEORY_FLAGS = ["theory-validate", "--suite", "theorem", "--p", "0.02", "--q", "0.01",
                "--p2", "0.03", "--q2", "0.005", "--n1", "500", "--n2", "500",
                "--mean-distance", "2", "--trials", "20", "--seed", "1"]
DESK_PROBE = """
import json, os, resource, time
os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])  # one core: no seed workers
from graphost import experiments
from graphost.fixtures import make_fixture
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
fx = make_fixture(intra_prob=0.05, inter_prob=0.02, seed=0, num_layers=4, predictor_hidden=64)
for view in (experiments.run_ablation, experiments.run_delta_sweep,
             experiments.run_noise_robustness, experiments.run_random_drop_comparison):
    view(fx.classifier, fx.predictor, fx.test_graph, fx.config, tuple(range(10)))
print(json.dumps({"seconds": time.perf_counter() - start,
                  "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}))
"""
EVALUATION_INPUTS = ["--test-graph", "data/test.json", "--classifier", "ckpt/classifier.json",
                     "--predictor", "ckpt/predictor.json"]
PINNED_SEQUENCE = [
    ["generate", "--p", "0.06", "--q", "0.02", "--sizes", "120,120", "--dim", "8",
     "--mean-distance", "2.5", "--seed", "3", "--out", "data"],
    ["train", "--train-graph", "data/train.json", "--val-graph", "data/val.json",
     "--target", "both", "--epochs", "80", "--patience", "20", "--seed", "3", "--out", "ckpt"],
    ["transform", "--test-graph", "data/test.json", "--predictor", "ckpt/predictor.json",
     "--out", "out"],
    *[[name, *EVALUATION_INPUTS, "--out", "out"] for name in ("evaluate", "study")],
    *[["theory-validate", "--p", p, "--q", q, "--p2", p2, "--q2", q2, "--n1", "500",
       "--n2", "500", "--mean-distance", "2", "--trials", "20", "--seed", "1",
       "--out", f"theory-{regime}"]
      for regime, (p, q, p2, q2) in (("homophilic", ("0.02", "0.01", "0.03", "0.005")),
                                     ("heterophilic", ("0.01", "0.02", "0.005", "0.03")))],
]
RUN_BENCHMARK_SEQUENCE = [
    ["--seeds", "0,1", "--out", "run-benchmark-homophilic"],
    ["--seeds", "0,1", "--heterophilic", "--out", "run-benchmark-heterophilic"],
]
CLI_WORKSPACE = [
    ["generate", "--p", "0.05", "--q", "0.02", "--sizes", "300,300", "--seed", "0",
     "--out", "data"],
    ["train", "--train-graph", "data/train.json", "--val-graph", "data/val.json",
     "--target", "both", "--epochs", "80", "--patience", "20", "--seed", "0", "--out", "ckpt"],
]
CLI_START_COMMANDS = {
    "transform": ["transform", "--test-graph", "data/test.json",
                  "--predictor", "ckpt/predictor.json", "--out", "out"],
    "evaluate": ["evaluate", *EVALUATION_INPUTS, "--out", "out"],
}
WORKERS_PROBE = ("import json, graphost.workers as w; print(json.dumps({"
                 "'usable_cores': w._usable_cores(), 'blas_threads': w._blas_threads(), "
                 "'workers': w.worker_count(10)}))")


def _run(argv: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one child run from the checkout root; a
    failing child stops the script."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return wall, done.stdout


def _median_row(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": samples, "unit": "s"}


PIPELINE_RUNGS = (10_000, 100_000)  # nodes per class


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cli_start() -> dict:
    """The cli_start_s rows: each command in fresh children, in a workspace
    that CLI_WORKSPACE builds in a temporary directory."""
    with tempfile.TemporaryDirectory() as work:
        def child(flags: list[str], argv: list[str]) -> tuple[float, str]:
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *flags, "-m", "graphost", *argv], cwd=work,
                                  env=ENV, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                sys.exit(f"graphost {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
            return wall, done.stderr

        for argv in CLI_WORKSPACE:
            child([], argv)
        rows = {}
        for name, argv in CLI_START_COMMANDS.items():
            samples = [child([], argv)[0] for _ in range(5)]
            imports = child(["-X", "importtime"], argv)[1]
            loaded = any(line.rsplit("|", 1)[-1].strip() == "scipy.sparse"
                         for line in imports.splitlines() if line.startswith("import time:"))
            rows[name] = _median_row(samples) | {"scipy_sparse_loaded": loaded}
    return rows


def pipeline_rung(nodes_per_class: int) -> dict:
    """One pipeline_peak_mb rung in this process. Every graph and result
    it is handed stays alive to the end, as in a caller that holds its
    inputs and outputs."""
    from graphost import fixtures, models, transform

    stages: dict = {}
    start, faults = time.perf_counter(), _minor_faults()

    def stage(name: str) -> None:
        nonlocal start, faults
        stages[name] = {"seconds": time.perf_counter() - start, "vmhwm_mb": _vmhwm_mb(),
                        "minor_faults": _minor_faults() - faults}
        start, faults = time.perf_counter(), _minor_faults()

    fx = fixtures.make_fixture(intra_prob=0.05, inter_prob=0.02, seed=0, num_layers=4,
                               predictor_hidden=64)
    stage("setup")
    noisy = dataclasses.replace(fx, params=rung_params(nodes_per_class)).test_graph(0)
    stage("generate_perturb")
    out = transform.graphost_transform(noisy, fx.predictor, fx.config)
    stage("transform")
    base = models.predict_labels(fx.classifier, noisy)
    full = models.predict_labels(fx.classifier, out.base, out.edge_weights)
    stage("classify")
    return {"nodes": 2 * nodes_per_class, "edges": noisy.num_edges, "stages": stages}


def rung_params(nodes_per_class: int):
    """The pipeline rungs' CSBM: 2 x m nodes at the fixture's mean degree
    (~21), p/q = 2.5, 16-dim features."""
    from graphost import csbm

    m = nodes_per_class
    q = (0.05 * 299 + 0.02 * 300) / (2.5 * (m - 1) + m)  # the fixture's mean degree
    return csbm.symmetric_binary_params(2.0, 16, (m, m), 2.5 * q, q)


def train_epoch(nodes_per_class: int) -> dict:
    """One train_epoch rung in this process: the 1-epoch fit, then the
    3-epoch fit, on the same two graphs."""
    from graphost import csbm, models

    params = rung_params(nodes_per_class)
    train, val = csbm.generate_csbm(params, seed=0), csbm.generate_csbm(params, seed=1)
    spec = models.ArchitectureSpec.default("gcn", 16, 64, hidden=64, num_layers=2)
    fits = {}
    for epochs in (1, 3):
        start, faults = time.perf_counter(), _minor_faults()
        models.train_homophily_predictor(train, val, spec,
                                         models.OptimizerConfig(max_epochs=epochs), seed=0)
        fits[str(epochs)] = {"seconds": time.perf_counter() - start, "vmhwm_mb": _vmhwm_mb(),
                             "minor_faults": _minor_faults() - faults}
    epoch_s = (fits["3"]["seconds"] - fits["1"]["seconds"]) / 2
    return {"nodes": train.num_nodes, "edges": train.num_edges, "fits": fits,
            "epoch_s": epoch_s, "setup_s": fits["1"]["seconds"] - epoch_s}


def code_lines(path: Path) -> int:
    """Lines of `path` that are not blank, not comment-only and not inside a
    module, class or function docstring."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)


def pinned_outputs() -> dict:
    """The pinned_outputs row, run in this process."""
    from graphost.cli import main

    commands = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative --out paths keep the temporary name out of stdout
        try:
            for argv in PINNED_SEQUENCE:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main([*argv, "--pin-timestamp"])
                commands.append({"argv": argv, "exit": code, "stdout": stdout.getvalue()})
            for argv in RUN_BENCHMARK_SEQUENCE:
                done = subprocess.run(
                    [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), *argv],
                    env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                    capture_output=True, text=True)
                commands.append({"argv": ["run_benchmark.py", *argv], "exit": done.returncode,
                                 "stdout": done.stdout})
        finally:
            os.chdir(ROOT)
        files = {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(work).rglob("*")) if path.is_file()}
    return {"commands": commands, "files": files}


def unreached_statements() -> dict:
    """The unreached_statements row, from one scripts/reach.py child."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "scripts/reach.py"], cwd=ROOT, env=ENV,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    found = re.search(r"^(\d+) function-body statements never ran, (\d+) of them not allowed$",
                      done.stdout, re.MULTILINE)
    return {"value": int(found[1]) if found else None,
            "not_allowed": int(found[2]) if found else None,
            "exit": done.returncode, "seconds": seconds, "unit": "statements"}


def mutants() -> dict:
    """The mutants row, from one scripts/mutate.py --json child."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mutants.json"
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "scripts/mutate.py", "--json", str(out)],
                              cwd=ROOT, env=ENV, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        doc = json.loads(out.read_text()) if out.exists() else {}  # none if a mutant is stale
    return {"mutants": doc.get("mutants"), "killed": doc.get("killed"),
            "results": doc.get("results"), "exit": done.returncode, "seconds": seconds}


def measure() -> dict:
    with tempfile.TemporaryDirectory() as out:
        walls = [_run([sys.executable, "scripts/run_benchmark.py", "--out", out])[0]
                 for _ in range(3)]
    tier1, log = _run([sys.executable, "-m", "pytest", "-q",
                       "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    imports = [float(_run([sys.executable, "-c", IMPORT_PROBE])[1]) for _ in range(5)]
    sources = sorted((ROOT / "src").rglob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in sources)
    per_file = {p.relative_to(ROOT / "src").as_posix(): code_lines(p) for p in sources}
    theory = {f"dim={dim}": _median_row([
        float(_run([sys.executable, "-c", THEORY_PROBE, *THEORY_FLAGS, "--dim", dim])[1])
        for _ in range(5)]) for dim in ("2", "16")}
    rungs = {f"n={2 * m}": json.loads(_run([sys.executable, "scripts/bench.py",
                                            "--pipeline-rung", str(m)])[1])
             for m in PIPELINE_RUNGS}
    return {
        "run_benchmark_wall_s": _median_row(walls),
        "tier1_s": {"seconds": tier1, "summary": log.strip().splitlines()[-1], "unit": "s"},
        "import_s": _median_row(imports),
        "src_lines": {"value": lines, "unit": "lines"},
        "src_code_lines": {"value": sum(per_file.values()), "unit": "lines",
                           "files": per_file},
        "theory_validate_s": theory,
        "pipeline_peak_mb": {"rungs": rungs, "unit": "MB"},
        "train_epoch": {"rungs": {
            f"n={2 * m}": json.loads(_run([sys.executable, "scripts/bench.py",
                                           "--train-epoch", str(m)])[1])
            for m in PIPELINE_RUNGS}, "unit": "s, MB"},
        "desk_pass": json.loads(_run([sys.executable, "-c", DESK_PROBE])[1]),
        "cli_start_s": cli_start(),
        "pinned_outputs": json.loads(_run([sys.executable, "scripts/bench.py",
                                           "--pinned-outputs"])[1]),
        "unreached_statements": unreached_statements(),
        "mutants": mutants(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--label", default=None)
    parser.add_argument("--pipeline-rung", type=int, default=None, metavar="NODES_PER_CLASS")
    parser.add_argument("--train-epoch", type=int, default=None, metavar="NODES_PER_CLASS")
    parser.add_argument("--pinned-outputs", action="store_true")
    args = parser.parse_args()
    if args.pipeline_rung is not None:
        print(json.dumps(pipeline_rung(args.pipeline_rung)))
        return 0
    if args.train_epoch is not None:
        print(json.dumps(train_epoch(args.train_epoch)))
        return 0
    if args.pinned_outputs:
        print(json.dumps(pinned_outputs()))
        return 0
    if args.out is None:
        parser.error("OUT is required")
    label = args.label or subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True).stdout.strip() or "unknown"
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[label] = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "workers": json.loads(_run([sys.executable, "-c", WORKERS_PROBE])[1])},
        "rows": measure(),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc[label]["rows"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
