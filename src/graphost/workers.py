"""Independent calls on the cores BLAS leaves idle.

``map_in_order(fn, items)`` returns ``[fn(item) for item in items]``, run on

    workers = min(len(items), usable cores // threads per BLAS call)

Python threads. numpy, scipy.sparse and BLAS release the GIL in their heavy
loops, so with BLAS at one thread per call (``OPENBLAS_NUM_THREADS=1``) two
calls run side by side on two cores. Each call keeps its BLAS thread count,
so every result is bit for bit the one-worker result.

Usable cores are the process's CPU affinity (``taskset`` narrows them); the
BLAS thread count is read from numpy's bundled OpenBLAS. Where it cannot be
read, where the rule gives one worker, or where the caller is itself a
worker (pools never nest), the calls run in turn in the caller's thread.
"""

from __future__ import annotations

import functools
import glob
import os
import threading
from typing import Callable, Iterable

__all__ = ["map_in_order", "worker_count"]

_worker = threading.local()


@functools.cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """The thread-count getter of numpy's bundled OpenBLAS
    (numpy.libs/libscipy_openblas64_-*.so), or None. Opening the loaded
    library again gives the same instance, so it reads the count numpy uses."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get
    return None


def _blas_threads() -> int | None:
    """Threads per BLAS call, read on each call: the count can change at run time."""
    get = _blas_thread_getter()
    return None if get is None else get()


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def worker_count(num_items: int) -> int:
    """The threads map_in_order would use for num_items calls from here."""
    blas = _blas_threads()
    if getattr(_worker, "active", False) or blas is None or blas < 1:
        return 1
    return max(1, min(num_items, _usable_cores() // blas))


def _mark_worker() -> None:
    _worker.active = True


def map_in_order(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], on worker_count(len(items)) threads.

    A failing call raises the exception of the earliest failing item;
    calls not yet started are cancelled, and the ones running finish first.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    # Imported here, so `import graphost` does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, thread_name_prefix="graphost",
                            initializer=_mark_worker) as pool:
        return list(pool.map(fn, items))
