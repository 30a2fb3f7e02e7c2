#!/usr/bin/env python3
"""graphost benchmark: one workload per run, driven from a single thread.

    python3 perfbench/run.py --workload desk-study|scale-20k|theory-suite|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each run starts SETUPS fresh interpreters one
after another (BLAS pinned to one thread). Each imports graphost, sets up its
inputs and prints READY; ``setup_s`` is the median time from spawn to READY.
The last of them then runs passes of the workload for the rest of --seconds,
checking every pass's outputs; ``wall_s`` is the median pass time and ``peak_rss_mb``
that process's peak resident memory. Both times are scaled to the reference
machine speed by the calibration kernel run beside them (see calib.py); the
raw times are printed below them and kept in the result file.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from
spans recorded around the calls into each graphost layer (see spans.py) on
traced passes, each paired with an untraced pass for the tracing overhead.
Spans and a full result with provenance are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
WORKLOADS = ("desk-study", "scale-20k", "theory-suite")
SETUPS = 3
BLAS_THREADS = "1"  # CPU time ~ wall time; nproc is 2 on the reference box
RUN_DEADLINE_S = 170.0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphost").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        # The ceiling stops git from reporting an enclosing repository's commit.
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(cmd: list[str], env: dict, timeout: float, kernels: list[float]
                ) -> tuple[float | None, dict | None]:
    """Start one worker; returns (seconds from spawn to READY, its result),
    or (None, None) when it fails.

    Each time the worker prints CALIBRATE it waits; the calibration kernel
    runs here, its time is appended to ``kernels``, and the worker is let go.
    The kernel runs in this process so that its memory never counts towards
    the worker's peak resident memory.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        last = ""
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.strip() == "CALIBRATE":
                kernels.append(calib.measure())
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        code = proc.wait()
    except BrokenPipeError:
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stdin.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        print(f"worker exited with code {code}", file=sys.stderr)
        return None, None
    return setup_s, json.loads(last)


def orchestrate(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = _worker_env()
    workdir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    # Untimed warm-up interpreter: fills the page cache and graphost's
    # bytecode cache, so the first timed set-up is not a cold start.
    subprocess.run([sys.executable, "-c", "import graphost"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    # SETUPS - 1 set-up-only interpreters, then the one that runs the passes
    # for what is left of --seconds.
    start = time.perf_counter()
    setups, results = [], []
    # Each set-up is bracketed by calibration kernels: one before the spawn
    # and one after it, which for the measuring worker is the first it asks
    # for, right after its READY.
    setup_kernel_s, kernels = [], []
    for i in range(SETUPS):
        measuring = i == SETUPS - 1
        budget = max(seconds - (time.perf_counter() - start), 1.0) if measuring else 0.0
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--budget", str(budget), "--trace", str(trace),
               "--workdir", str(workdir)]
        before = calib.measure()
        setup_s, result = _run_worker(cmd, env, deadline - time.perf_counter(), kernels)
        after = kernels[0] if measuring and kernels else calib.measure()
        setups.append(setup_s)
        setup_kernel_s.append((before + after) / 2)
        results.append(result)
    measured = results[-1]
    if measured is None or not measured["wall_s"] or (trace and not measured["layers"]):
        raise RuntimeError(f"{workload}: the measuring worker did not finish a pass")
    done = [r for r in results if r is not None]
    lost = len(results) - len(done)
    attempted = sum(r["attempted"] for r in done) + lost
    failed = sum(r["failed"] for r in done) + lost
    walls = measured["wall_s"]
    pass_kernel_s = [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
    timed_setups = [(s, k) for s, k in zip(setups, setup_kernel_s) if s is not None]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "samples": {"setups": len(setups), "passes": len(walls)},
        "setup_samples_s": setups,
        "setup_kernel_s": setup_kernel_s,
        "wall_samples_s": walls,
        "wall_kernel_s": pass_kernel_s,
    }
    if trace:
        traced = measured["traced_wall_s"]
        layers = measured["layers"]
        metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        metrics["csbm.generate_peak_mb"] = measured["generate_peak_mb"]
        metrics["graphost.import_s"] = statistics.median(r["import_s"] for r in done)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        summary["traced_wall_samples_s"] = traced
    else:
        metrics = {
            "setup_s": statistics.median(calib.scaled(s, k) for s, k in timed_setups),
            "wall_s": statistics.median(map(calib.scaled, walls, pass_kernel_s)),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        summary["raw"] = {
            "setup_s": statistics.median(s for s, _ in timed_setups),
            "wall_s": statistics.median(walls),
        }
        # A quality guard, printed and kept in the result file but not a
        # BENCHMARK.json metric: it is deterministic per seed, and on
        # desk-study its seed-to-seed spread is wider than any bound.
        summary["acc_gain"] = measured.get("acc_gain", float("nan"))
        summary["chance_fails"] = measured.get("chance_fails", [])
    summary["metrics"] = metrics
    summary["ops_failed_ratio"] = failed / attempted
    summary["provenance"] = {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        **done[0]["versions"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "graphost" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: needs src/graphost and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [orchestrate(n, args.seed, seconds, args.trace) for n in names]
    print(json.dumps(summaries[0]["provenance"], sort_keys=True))
    for s in summaries:
        print(f"== {s['workload']} seed={s['seed']} trace={s['trace']} "
              f"setups={s['samples']['setups']} passes={s['samples']['passes']}")
        for m in wanted:
            print(f"  {m['name']:36s} {s['metrics'][m['name']]:.6g} {m['unit']}")
        if not args.trace:
            for name, value in s["raw"].items():
                print(f"  {name + ' (raw, unscaled)':36s} {value:.6g} s")
            print(f"  {'acc_gain':36s} {s['acc_gain']:.6g} accuracy")
            if s["chance_fails"]:
                print(f"  {'chance_fails':36s} {', '.join(sorted(set(s['chance_fails'])))}")
        print(f"  {'ops_failed_ratio':36s} {s['ops_failed_ratio']:.6g} "
              f"({s['failed']}/{s['attempted']} ops)")
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}/{m['name']}" if prefix else m["name"]):
                {"value": s["metrics"][m["name"]], "unit": m["unit"]}
            for s in summaries for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
