import _ctypes
import glob
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphost
import graphost.experiments as experiments
import graphost.workers as workers
from graphost.experiments import (
    run_ablation,
    run_delta_sweep,
    run_noise_robustness,
    run_random_drop_comparison,
)
from graphost.fixtures import make_fixture
from graphost.workers import map_in_order, worker_count


def substitute(monkeypatch, cores, blas):
    """Replace the helper's core and BLAS-thread readings."""
    monkeypatch.setattr(workers, "_usable_cores", lambda: cores)
    monkeypatch.setattr(workers, "_blas_threads", lambda: blas)


@pytest.fixture
def two_workers(monkeypatch):
    substitute(monkeypatch, cores=2, blas=1)


class TestWorkerRule:
    @pytest.mark.parametrize("cores, blas, items, want", [
        (2, 1, 10, 2),
        (2, 2, 10, 1),  # BLAS already uses every core
        (4, 1, 3, 3),  # no more workers than calls
        (4, 2, 10, 2),
        (3, 2, 10, 1),
        (1, 1, 10, 1),
        (8, 1, 0, 1),
        (8, None, 10, 1),  # BLAS thread count unreadable: the caller's thread
    ])
    def test_workers_from_cores_and_blas_threads(self, monkeypatch, cores, blas, items, want):
        substitute(monkeypatch, cores, blas)
        assert worker_count(items) == want

    def test_one_worker_runs_in_the_callers_thread(self, monkeypatch):
        substitute(monkeypatch, cores=2, blas=2)
        caller = threading.get_ident()
        assert map_in_order(lambda _: threading.get_ident(), range(3)) == [caller] * 3

    def test_blas_reading_follows_environment(self):
        if workers._blas_threads() is None:
            pytest.skip("numpy ships no OpenBLAS with a readable thread count")
        src = str(Path(graphost.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c",
                 "import graphost.workers as w; print(w._blas_threads())"],
                env=env, capture_output=True, text=True, check=True)
            assert done.stdout.strip() == threads


class TestBlasThreadGetter:
    """The getter's fallbacks, reached through a substituted list of
    numpy.libs' OpenBLAS libraries: a library that cannot be loaded and one
    without the thread-count symbol are passed over, and with none left the
    count is unreadable and every call runs in the caller's thread."""

    @pytest.fixture
    def libraries(self, monkeypatch):
        def substitute(paths):
            monkeypatch.setattr(workers, "glob", SimpleNamespace(glob=lambda pattern: paths))
            workers._blas_thread_getter.cache_clear()

        monkeypatch.setattr(workers, "_usable_cores", lambda: 4)
        yield substitute
        workers._blas_thread_getter.cache_clear()  # read the real libraries again

    def test_no_usable_library_means_one_worker(self, libraries, tmp_path):
        unloadable = str(tmp_path / "libscipy_openblas64_-missing.so")
        without_symbol = _ctypes.__file__  # loads, and links no OpenBLAS
        libraries([unloadable, without_symbol])
        assert workers._blas_thread_getter() is None
        assert workers._blas_threads() is None
        assert worker_count(10) == 1

    def test_a_later_library_is_still_found(self, libraries, tmp_path):
        real = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                      "numpy.libs", "libscipy_openblas*"))
        if not real:
            pytest.skip("numpy ships no OpenBLAS")
        libraries([str(tmp_path / "libscipy_openblas64_-missing.so"), *real])
        assert workers._blas_threads() >= 1


class TestMapInOrder:
    def test_results_in_input_order_from_concurrent_threads(self, two_workers):
        barrier = threading.Barrier(2, timeout=10)

        def call(item):
            if item < 2:
                barrier.wait()  # only returns once both calls are running
            time.sleep(0.01 * (5 - item))
            return item * item, threading.current_thread().name

        results = map_in_order(call, range(5))
        assert [value for value, _ in results] == [0, 1, 4, 9, 16]
        assert all(name.startswith("graphost") for _, name in results)

    def test_pools_never_nest(self, two_workers):
        def outer(item):
            inner = map_in_order(lambda _: threading.get_ident(), range(3))
            return threading.get_ident(), inner

        for ident, inner in map_in_order(outer, range(2)):
            assert inner == [ident] * 3

    def test_import_leaves_concurrent_futures_unloaded(self):
        src = str(Path(graphost.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c",
             "import graphost, sys; print('concurrent.futures' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_earliest_failure_raised(self, two_workers):
        def call(item):
            if item == 1:
                time.sleep(0.2)  # item 3 fails first in time
            if item in (1, 3):
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match="item 1"):
            map_in_order(call, range(5))


@pytest.fixture(scope="module")
def fixture():
    return make_fixture(nodes_per_class=80, max_epochs=40, patience=10, seed=1)


SEEDS = (0, 1, 2, 3)
RUNNERS = [
    (run_ablation, ()),
    (run_delta_sweep, ((0.0, 0.3, 0.6),)),
    (run_noise_robustness, ((0.0, 0.3),)),
    (run_random_drop_comparison, ()),
]


class TestConcurrentSeeds:
    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    @pytest.mark.parametrize("runner, grid", RUNNERS)
    def test_report_is_concatenation_of_single_seed_runs(self, fixture, monkeypatch,
                                                         two_workers, mode, runner, grid):
        threads = set()
        evaluate = experiments.evaluate_graph
        # Each thread's first evaluation waits for the other thread's, so the
        # two seed workers overlap however the pool hands out the seeds; a
        # run on one thread breaks the barrier at its timeout.
        overlap = threading.Barrier(2, timeout=10)

        def recorded(*args):
            name = threading.current_thread().name
            if name not in threads:
                threads.add(name)
                overlap.wait()
            return evaluate(*args)

        monkeypatch.setattr(experiments, "evaluate_graph", recorded)
        config = replace(fixture.config, mode=mode)
        args = (fixture.classifier, fixture.predictor, fixture.test_graph, config)
        report = runner(*args, SEEDS, *grid)
        assert len(threads) == 2 and all(t.startswith("graphost") for t in threads)

        monkeypatch.setattr(experiments, "evaluate_graph", evaluate)  # one seed: this thread
        singles = [runner(*args, (seed,), *grid) for seed in SEEDS]
        assert report.seeds == SEEDS
        assert report.arm_values == {
            arm: sum((single.arm_values[arm] for single in singles), ())
            for arm in singles[0].arm_values
        }
        assert list(report.arm_values) == list(singles[0].arm_values)
        assert report.extras == {
            key: sum((single.extras[key] for single in singles), [])
            for key in singles[0].extras
        }
        assert report.config == singles[0].config

    def test_more_workers_than_cores_with_fast_switching(self, fixture, monkeypatch):
        # Six workers on a 2-core box, switching threads every microsecond:
        # a lost update to shared state would show as a differing report.
        args = (fixture.classifier, fixture.predictor, fixture.test_graph, fixture.config,
                tuple(range(6)))
        substitute(monkeypatch, cores=1, blas=1)
        want = run_random_drop_comparison(*args)
        substitute(monkeypatch, cores=6, blas=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_random_drop_comparison(*args)
        finally:
            sys.setswitchinterval(interval)
        assert got.to_dict() == want.to_dict()

    def test_earliest_failing_seed_raised(self, fixture, two_workers):
        def test_graphs(seed):
            if seed == 1:
                time.sleep(0.2)  # seed 2 fails first in time
            if seed in (1, 2):
                raise ValueError(f"no graph for seed {seed}")
            return fixture.test_graph(seed)

        with pytest.raises(ValueError, match="seed 1"):
            run_ablation(fixture.classifier, fixture.predictor, test_graphs,
                         fixture.config, SEEDS)


# Trains in a fresh process at the BLAS thread count it is started with.
# Pooled runs see twice the BLAS thread count in cores, so the rule gives
# two workers; the networks trained alone run in the caller's thread.
CHECKPOINT_SCRIPT = r"""
import hashlib, json, sys
from pathlib import Path

import graphost.workers as workers
from graphost.cli import main
from graphost.fixtures import make_fixture
from graphost.models import save_checkpoint

tmp, blas = Path(sys.argv[1]), workers._blas_threads()
digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
result = {"blas": blas, "fixture": {}, "cli": {}}
for name, cores in (("pooled", 2 * blas), ("alone", blas)):
    workers._usable_cores = lambda: cores
    result[name + "_workers"] = workers.worker_count(2)
    fx = make_fixture(nodes_per_class=60, max_epochs=15, patience=5, seed=2)
    for role in ("classifier", "predictor"):
        path = tmp / f"fixture-{name}-{role}.json"
        save_checkpoint(getattr(fx, role), path)
        result["fixture"].setdefault(role, {})[name] = digest(path)

data = tmp / "data"
assert main(["generate", "--p", "0.06", "--q", "0.02", "--sizes", "60,60", "--dim", "6",
             "--out", str(data), "--seed", "4"]) == 0
train = ["train", "--train-graph", str(data / "train.json"), "--val-graph",
         str(data / "val.json"), "--epochs", "15", "--patience", "5", "--seed", "4"]
workers._usable_cores = lambda: 2 * blas
assert main(train + ["--target", "both", "--out", str(tmp / "both")]) == 0
for role in ("classifier", "predictor"):
    assert main(train + ["--target", role, "--out", str(tmp / role)]) == 0
    result["cli"][role] = {"pooled": digest(tmp / "both" / f"{role}.json"),
                           "alone": digest(tmp / role / f"{role}.json")}
print(json.dumps(result))
"""


class TestConcurrentTrainings:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_checkpoints_equal_training_each_alone(self, tmp_path, threads):
        if workers._blas_threads() is None:
            pytest.skip("numpy ships no OpenBLAS with a readable thread count")
        src = str(Path(graphost.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", CHECKPOINT_SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["blas"] == int(threads)
        assert (result["pooled_workers"], result["alone_workers"]) == (2, 1)
        for source in ("fixture", "cli"):
            for role, digests in result[source].items():
                assert digests["pooled"] == digests["alone"], (source, role)
