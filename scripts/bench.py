#!/usr/bin/env python3
"""End-to-end rows of the BENCH file for the checkout this script sits in.

Rows (times in seconds, each with its raw samples):
  run_benchmark_wall_s  scripts/run_benchmark.py, homophilic, median of 3
  tier1_s               the tier-1 pytest command, one run, with its summary
  import_s              `import graphost` in a fresh interpreter, median of 5
                        (timed inside the child, so interpreter start-up is out)
  src_lines             lines of src/**/*.py
  theory_validate_s     per feature width (--dim 2 and 16): `theory-validate
                        --suite theorem` at the homophilic point of
                        scripts/run_theory_suite.py (seed 1), one call of
                        cli.main per fresh child, median of 5 (timed inside the
                        child, so interpreter start-up and import are out)
  pipeline_peak_mb      per rung (n = 20k and 200k), one fresh child each: the
                        run_benchmark.py fixture's predictor and classifier on a
                        2 x n/2-node CSBM of mean degree ~21, p/q = 2.5, 16-dim
                        features; the process high-water mark (VmHWM, read from
                        /proc/self/status) and the seconds of each stage:
                        setup (fixture training), generate + perturb, transform
                        (delta = 0.3) and classify (base and transformed graph)
  pinned_outputs        one fresh child: PINNED_SEQUENCE (generate, train --target
                        both, transform, evaluate, the four harness runs and
                        theory-validate in both regimes, each --pin-timestamp)
                        through cli.main in an empty directory; each command's
                        exit code and stdout, and the sha256 of every file
                        written, by relative path. Two labels' rows are equal
                        exactly when the two checkouts write the same bytes.

The rows are stored under LABEL (default: `git describe --always --dirty`)
in the JSON object at OUT, which is created or updated in place, so one file
can hold a parent's rows beside a change's. Every child runs with BLAS
pinned to one thread. Beside the rows, `machine.workers` records what a
child sees: its usable cores, its BLAS threads per call and the worker
threads graphost.workers gives a run_benchmark.py experiment (10 seeds).

Usage: python3 scripts/bench.py OUT [--label LABEL]
       python3 scripts/bench.py --pipeline-rung NODES_PER_CLASS
           (one pipeline_peak_mb child: prints its rung as JSON)
       python3 scripts/bench.py --pinned-outputs
           (one pinned_outputs child, at the caller's BLAS threads: prints
           the row as JSON)
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
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
EVALUATION_INPUTS = ["--test-graph", "data/test.json", "--classifier", "ckpt/classifier.json",
                     "--predictor", "ckpt/predictor.json"]
PINNED_SEQUENCE = [
    ["generate", "--p", "0.06", "--q", "0.02", "--sizes", "120,120", "--dim", "8",
     "--mean-distance", "2.5", "--seed", "3", "--out", "data"],
    ["train", "--train-graph", "data/train.json", "--val-graph", "data/val.json",
     "--target", "both", "--epochs", "80", "--patience", "20", "--seed", "3", "--out", "ckpt"],
    ["transform", "--test-graph", "data/test.json", "--predictor", "ckpt/predictor.json",
     "--out", "out"],
    *[[name, *EVALUATION_INPUTS, "--out", "out"]
      for name in ("evaluate", "ablate", "sweep-delta", "noise-robustness", "random-drop")],
    *[["theory-validate", "--p", p, "--q", q, "--p2", p2, "--q2", q2, "--n1", "500",
       "--n2", "500", "--mean-distance", "2", "--trials", "20", "--seed", "1",
       "--out", f"theory-{regime}"]
      for regime, (p, q, p2, q2) in (("homophilic", ("0.02", "0.01", "0.03", "0.005")),
                                     ("heterophilic", ("0.01", "0.02", "0.005", "0.03")))],
]
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


def pipeline_rung(nodes_per_class: int) -> dict:
    """One pipeline_peak_mb rung in this process. Every graph and result
    stays alive to the end, as in a caller that holds its inputs and
    outputs."""
    from graphost import csbm, experiments, fixtures, models, transform

    stages: dict = {}
    start = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal start
        stages[name] = {"seconds": time.perf_counter() - start, "vmhwm_mb": _vmhwm_mb()}
        start = time.perf_counter()

    fx = fixtures.make_fixture(intra_prob=0.05, inter_prob=0.02, seed=0, num_layers=4,
                               predictor_hidden=64)
    stage("setup")
    m = nodes_per_class
    q = (0.05 * 299 + 0.02 * 300) / (2.5 * (m - 1) + m)  # the fixture's mean degree
    params = csbm.symmetric_binary_params(2.0, 16, (m, m), 2.5 * q, q)
    clean = csbm.generate_csbm(params, experiments.derive_seed(0, 100))
    noisy = csbm.perturb_features(clean, math.sqrt(0.5), experiments.derive_seed(0, 7_000_000))
    stage("generate_perturb")
    out = transform.graphost_transform(noisy, fx.predictor, fx.config)
    stage("transform")
    base = models.predict_labels(fx.classifier, noisy)
    full = models.predict_labels(fx.classifier, out.base, out.edge_weights)
    stage("classify")
    return {"nodes": 2 * m, "edges": noisy.num_edges, "stages": stages}


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
        finally:
            os.chdir(ROOT)
        files = {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(work).rglob("*")) if path.is_file()}
    return {"commands": commands, "files": files}


def measure() -> dict:
    with tempfile.TemporaryDirectory() as out:
        walls = [_run([sys.executable, "scripts/run_benchmark.py", "--out", out])[0]
                 for _ in range(3)]
    tier1, log = _run([sys.executable, "-m", "pytest", "-q",
                       "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    imports = [float(_run([sys.executable, "-c", IMPORT_PROBE])[1]) for _ in range(5)]
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
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
        "theory_validate_s": theory,
        "pipeline_peak_mb": {"rungs": rungs, "unit": "MB"},
        "pinned_outputs": json.loads(_run([sys.executable, "scripts/bench.py",
                                           "--pinned-outputs"])[1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--label", default=None)
    parser.add_argument("--pipeline-rung", type=int, default=None, metavar="NODES_PER_CLASS")
    parser.add_argument("--pinned-outputs", action="store_true")
    args = parser.parse_args()
    if args.pipeline_rung is not None:
        print(json.dumps(pipeline_rung(args.pipeline_rung)))
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
