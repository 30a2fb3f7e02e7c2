#!/usr/bin/env python3
"""End-to-end rows of the BENCH file for the checkout this script sits in.

Rows (times in seconds, each with its raw samples):
  run_benchmark_wall_s  scripts/run_benchmark.py, homophilic, median of 3
  tier1_s               the tier-1 pytest command, one run, with its summary
  import_s              `import graphost` in a fresh interpreter, median of 5
                        (timed inside the child, so interpreter start-up is out)
  src_lines             lines of src/**/*.py

The rows are stored under LABEL (default: `git describe --always --dirty`)
in the JSON object at OUT, which is created or updated in place, so one file
can hold a parent's rows beside a change's. Every child runs with BLAS
pinned to one thread. Beside the rows, `machine.workers` records what a
child sees: its usable cores, its BLAS threads per call and the worker
threads graphost.workers gives a run_benchmark.py experiment (10 seeds).

Usage: python3 scripts/bench.py OUT [--label LABEL]
"""

import argparse
import json
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


def measure() -> dict:
    with tempfile.TemporaryDirectory() as out:
        walls = [_run([sys.executable, "scripts/run_benchmark.py", "--out", out])[0]
                 for _ in range(3)]
    tier1, log = _run([sys.executable, "-m", "pytest", "-q",
                       "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    imports = [float(_run([sys.executable, "-c", IMPORT_PROBE])[1]) for _ in range(5)]
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "run_benchmark_wall_s": _median_row(walls),
        "tier1_s": {"seconds": tier1, "summary": log.strip().splitlines()[-1], "unit": "s"},
        "import_s": _median_row(imports),
        "src_lines": {"value": lines, "unit": "lines"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    parser.add_argument("--label", default=None)
    args = parser.parse_args()
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
