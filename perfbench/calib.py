"""Machine-speed calibration for a shared host.

The host this benchmark was built on moves between throughput phases lasting
from seconds to minutes (up to x1.7 on the same pass). Runs of one set
landing in a slow phase then read slower than the same code in another set,
though nothing in graphost changed. ``measure()`` times a fixed kernel with
the same mix of work as the workloads: per-node Philox streams, random draws
streamed through cache-sized and through memory-sized (32 MB) arrays,
sorting, dense products on large and on cache-sized arrays, a
sparse-times-dense product and plain Python dictionary updates. The
benchmark runs it before and after every timed set-up and pass, and scales
each time by ``REFERENCE_S / (mean kernel time beside it)``: the reported
times are seconds at the reference speed, so a phase that slows the kernel
and the workload alike cancels out. The raw times are kept in the result
file.

Why this mix: in an 8-minute probe alternating desk-study and theory-suite
passes with each part timed on its own, no single part tracked both
workloads, but their sum did (correlation of log times 0.67 on desk-study,
0.82 on theory-suite; the spread of log pass times fell from 0.10 to 0.08
and from 0.12 to 0.07). A 6-minute probe on scale-20k passes, whose
sampler streams far more memory, added the memory-sized draws: with them
the correlation rose from 0.69 to 0.77 and the spread fell from 0.12 to
0.08.

The kernel runs in the orchestrating process (run.py), so its memory never
counts towards a worker's peak resident memory.

The kernel uses numpy and scipy only, never graphost, so no change to the
program can move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Median kernel time on the reference box (2 vCPUs, one BLAS thread).
REFERENCE_S = 0.35


def _kernel() -> float:
    total = 0.0
    for node in range(2000):
        stream = np.random.Generator(np.random.Philox(key=np.array([7, node], dtype=np.uint64)))
        total += float(stream.standard_normal(16).sum())
    rng = np.random.default_rng(1)
    for _ in range(6):
        total += float(np.flatnonzero(rng.random(250_000) < 0.02).size)
    for _ in range(3):
        total += float(np.flatnonzero(rng.random(4_000_000) < 0.01).size)
    for _ in range(4):
        keys = rng.integers(0, 1 << 20, 200_000)
        keys.sort()
        total += float(keys[-1])
    w = rng.standard_normal((64, 64)) * 0.1
    big = rng.standard_normal((4_000, 64))
    for _ in range(25):
        total += float(np.maximum(big @ w, 0.0)[0, 0])
    x = rng.standard_normal((600, 64))
    for _ in range(150):
        x = np.maximum(x @ w, 0.0) + 0.01
    adjacency = sp.random(600, 600, density=0.03, format="csr", random_state=5)
    for _ in range(150):
        total += float((adjacency @ x)[0, 0])
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return total + float(x.sum()) + len(counts)


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the reference speed, given the kernel time beside it."""
    return seconds * REFERENCE_S / kernel_s
