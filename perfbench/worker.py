"""One workload process: import graphost, set up, run passes, check them.

Started by run.py, which times it from spawn until the ``READY`` line (that is
``setup_s``). Each ``CALIBRATE`` line asks run.py to time its calibration
kernel; the worker waits for a reply line on standard input before going on.
The last line of standard output is this worker's JSON result.
Standard error carries failed-check messages.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import graphost  # timed: graphost.import_s
    import_s = time.perf_counter() - start

    import numpy
    import scipy

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    recorder = spans.Recorder()
    if args.trace and args.budget > 0:
        # The set-up is traced too: on scale-20k it holds the fixture
        # training that setup_s pays for.
        recorder.run_id = f"{args.workload}/seed{args.seed}/setup"
        undo = recorder.install()
        try:
            workload.setup()
        finally:
            recorder.uninstall(undo)
    else:
        workload.setup()
    setup_spans = list(recorder.spans)
    print("READY", flush=True)

    result = {"import_s": import_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
              "wall_s": [], "traced_wall_s": [], "layers": [],
              "attempted": 0, "failed": 0}

    def calibrate():
        print("CALIBRATE", flush=True)
        if not sys.stdin.readline():
            raise RuntimeError("run.py closed the calibration handshake")

    def run_checked(index):
        began = time.perf_counter()
        outcome = workload.run_pass(index)
        seconds = time.perf_counter() - began
        attempted, failed = workload.check(outcome)
        result["attempted"] += attempted
        result["failed"] += failed
        return seconds

    # Passes start while the run is short of its budget by more than half the
    # last pass, so a run ends near the budget; a budget of 0 means set-up
    # only. A traced run pairs each untraced pass with a traced one on the
    # same input, so the tracing overhead is measured in the same process.
    # run.py runs the calibration kernel right after READY and after every
    # untraced pass, while this process waits: kernels i and i + 1 bracket
    # wall_s[i], and kernel 0 also closes the bracket around the set-up.
    start = time.perf_counter()
    index = 0
    try:
        last = 0.0
        if args.budget > 0:
            calibrate()
        while time.perf_counter() - start + last / 2 < args.budget:
            began = time.perf_counter()
            result["wall_s"].append(run_checked(index))
            calibrate()
            if args.trace:
                recorder.run_id = f"{args.workload}/seed{args.seed}/pass{index}"
                first_span = len(recorder.spans)
                undo = recorder.install()
                try:
                    result["traced_wall_s"].append(run_checked(index))
                finally:
                    recorder.uninstall(undo)
                result["layers"].append(
                    spans.layer_metrics(setup_spans + recorder.spans[first_span:])
                )
            index += 1
            last = time.perf_counter() - began
        if index:
            attempted, failed = workload.finish()
            result["attempted"] += attempted
            result["failed"] += failed
            result["acc_gain"] = workload.acc_gain()
            result["chance_fails"] = getattr(workload, "chance_fails", [])
    except Exception:
        traceback.print_exc()
        result["attempted"] += 1
        result["failed"] += 1

    if args.trace and index:
        # Peak traced allocation of one draw of the workload's largest graph,
        # outside the timed passes so tracemalloc does not slow their spans.
        tracemalloc.start()
        graphost.csbm.generate_csbm(workload.probe_params(), args.seed)
        result["generate_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        recorder.write(args.workdir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
