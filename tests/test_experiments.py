import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graphost.experiments as experiments
import graphost.transform as transform
import graphost.workers as workers
from graphost.csbm import generate_csbm, symmetric_binary_params
from graphost.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    RepeatedArmError,
    derive_seed,
    evaluate_graph,
    parse_seeds,
    run_ablation,
    run_delta_sweep,
    run_noise_robustness,
    run_random_drop_comparison,
    run_study,
    write_report,
)
from graphost.fixtures import make_fixture
from graphost.graphs import LabeledGraph, WeightedGraph, inject_structural_noise, random_edge_drop
from graphost.metrics import accuracy, f1_macro, hd_delta_report
from graphost.models import ArchitectureSpec, OptimizerConfig, predict_labels, train_classifier
from graphost.transform import TransformConfig, graphost_transform


@pytest.fixture(scope="module")
def fixture():
    # small and quick: enough structure for the harness contracts
    return make_fixture(
        nodes_per_class=120,
        max_epochs=60,
        patience=20,
        seed=0,
    )


SEEDS = (0, 1, 2)


class TestExperimentReport:
    def test_mean_std_and_serialization(self, tmp_path):
        report = ExperimentReport(
            experiment="demo",
            seeds=(0, 1),
            arm_values={"base": (0.5, 0.7)},
            config={"metric": "accuracy"},
        )
        assert report.mean("base") == pytest.approx(0.6)
        assert report.std("base") == pytest.approx(np.std([0.5, 0.7], ddof=1))
        write_report(tmp_path, "r", report.to_dict(), "", csv_rows=report.to_csv_rows())
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["arms"]["base"]["values"] == [0.5, 0.7]
        assert doc["timestamp"] == ""
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("experiment,arm,seed,value")
        assert len(lines) == 3

    def test_writer_names_files_by_stamp_and_seeds(self, tmp_path):
        write_report(tmp_path, "r", {"a": 1}, "pinned", (3, 4), [["x", 0.5], [1, None]], "c")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c-pinned-3-4.csv",
                                                             "r-pinned-3-4.json"]
        doc = (tmp_path / "r-pinned-3-4.json").read_text()
        assert doc == '{"a": 1, "timestamp": "pinned"}'
        assert (tmp_path / "c-pinned-3-4.csv").read_text() == "x,0.5\n1,None\n"

    def test_single_seed_std_zero(self):
        report = ExperimentReport(
            experiment="demo", seeds=(0,), arm_values={"a": (0.5,)}, config={}
        )
        assert report.std("a") == 0.0

    def test_value_count_validated(self):
        with pytest.raises(ValueError, match="values"):
            ExperimentReport(
                experiment="demo", seeds=(0, 1), arm_values={"a": (0.5,)}, config={}
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ExperimentReport(
                experiment="demo", seeds=(0,), arm_values={"a": (float("nan"),)}, config={}
            )


class TestEvaluateGraph:
    def test_f1_macro_is_the_macro_f1_of_the_predictions(self):
        # 150 against 50 nodes with overlapping classes: the classifier errs,
        # and macro-F1 weighs the small class's errors more than accuracy does
        params = symmetric_binary_params(1.0, 4, (150, 50), 0.05, 0.03)
        train, val, test = (generate_csbm(params, seed) for seed in (0, 1, 2))
        classifier = train_classifier(train, val, ArchitectureSpec.default("gcn", 4, 2),
                                      OptimizerConfig(max_epochs=30, patience=10))
        predicted, _ = predict_labels(classifier, test)
        want = f1_macro(predicted, test.labels, 2)
        assert evaluate_graph(classifier, test, "f1_macro") == want
        assert evaluate_graph(classifier, test, "accuracy") == accuracy(predicted, test.labels)
        assert abs(want - accuracy(predicted, test.labels)) > 0.01


class TestAblation:
    def test_arms_present_and_consistent(self, fixture):
        report = run_ablation(
            fixture.classifier, fixture.predictor, fixture.test_graph,
            fixture.config, SEEDS,
        )
        assert set(report.arm_values) == {"base", "wo_weight", "wo_filter", "full"}
        assert all(len(v) == len(SEEDS) for v in report.arm_values.values())
        assert len(report.extras["hd_before"]) == len(SEEDS)

    def test_deterministic_reruns(self, fixture):
        a = run_ablation(fixture.classifier, fixture.predictor, fixture.test_graph,
                         fixture.config, SEEDS)
        b = run_ablation(fixture.classifier, fixture.predictor, fixture.test_graph,
                         fixture.config, SEEDS)
        assert a.to_dict() == b.to_dict()

    def test_auto_mode_rejected(self, fixture):
        with pytest.raises(ValueError, match="auto"):
            run_ablation(fixture.classifier, fixture.predictor, fixture.test_graph,
                         TransformConfig(mode="auto"), SEEDS)

    @pytest.mark.parametrize("edges, hd_before", [
        (np.empty((0, 2), dtype=np.int64), None),  # HD undefined before and after
        (np.array([[0, 1]]), 1.0),  # ceil(0.3 * 1) = 1: the full arm removes it
    ])
    def test_edgeless_side_reports_null_hd(self, fixture, edges, hd_before):
        graph = fixture.test_graph(0)
        graph = replace(graph, edges=edges, labels=np.zeros(graph.num_nodes, dtype=np.int64))
        report = run_ablation(fixture.classifier, fixture.predictor, graph,
                              fixture.config, (0, 1))
        assert report.extras == {"hd_before": [hd_before] * 2, "hd_after_full": [None] * 2}
        assert all(len(v) == 2 for v in report.arm_values.values())

    def test_constant_graph_gives_constant_arms(self, fixture):
        graph = fixture.test_graph(0)
        report = run_ablation(fixture.classifier, fixture.predictor, graph,
                              fixture.config, SEEDS)
        for values in report.arm_values.values():
            assert len(set(values)) == 1


class TestNoiseRobustness:
    def test_arm_names_and_zero_level(self, fixture):
        report = run_noise_robustness(
            fixture.classifier, fixture.predictor, fixture.test_graph,
            fixture.config, SEEDS, noise_levels=(0.0, 0.3),
        )
        assert set(report.arm_values) == {"base", "graphost_noise0", "graphost_noise0.3"}
        full = run_ablation(fixture.classifier, fixture.predictor, fixture.test_graph,
                            fixture.config, SEEDS).arm_values["full"]
        # noise level 0 arm is exactly the full pipeline
        assert report.arm_values["graphost_noise0"] == full


class TestDeltaSweep:
    def test_grid_arms(self, fixture):
        grid = tuple(i / 10.0 for i in range(10))
        report = run_delta_sweep(
            fixture.classifier, fixture.predictor, fixture.test_graph,
            fixture.config, SEEDS[:2], delta_grid=grid,
        )
        assert len(report.arm_values) == 10
        wo_filter = run_ablation(
            fixture.classifier, fixture.predictor, fixture.test_graph,
            fixture.config, SEEDS[:2],
        ).arm_values["wo_filter"]
        # delta = 0 removes nothing: identical to the no-filter arm
        assert report.arm_values["delta=0"] == wo_filter


class TestRandomDropComparison:
    def test_matched_counts_and_arms(self, fixture):
        report = run_random_drop_comparison(
            fixture.classifier, fixture.predictor, fixture.test_graph,
            fixture.config, SEEDS,
        )
        assert set(report.arm_values) == {"base", "random_drop", "graphost"}
        expected_k = int(np.ceil(0.3 * fixture.test_graph(0).num_edges))
        assert report.extras["dropped_edges"][0] == expected_k


NOISE_LEVELS = (0.0, 0.3)
DELTA_GRID = (0.0, 0.3, 0.6)


def reference_reports(fx, config, seeds):
    """The runners' arms with every transform scored straight from the
    predictor: experiment -> (arm values, extras)."""

    def score(graph):
        return evaluate_graph(fx.classifier, graph)

    def transformed(graph, **changes):
        return graphost_transform(graph, fx.predictor, replace(config, **changes))

    ablation = {"base": [], "wo_weight": [], "wo_filter": [], "full": []}
    hd_before, hd_after = [], []
    sweep = {f"delta={d:g}": [] for d in DELTA_GRID}
    noise = {"base": []} | {f"graphost_noise{lv:g}": [] for lv in NOISE_LEVELS}
    drop = {"base": [], "random_drop": [], "graphost": []}
    dropped = []
    for seed in seeds:
        graph = fx.test_graph(seed)
        ablation["base"].append(score(graph))
        ablation["wo_weight"].append(score(transformed(graph, enable_weighting=False)))
        ablation["wo_filter"].append(score(transformed(graph, enable_filtering=False)))
        full = transformed(graph)
        ablation["full"].append(score(full))
        before, after, _ = hd_delta_report(graph, full, graph.labels)
        hd_before.append(before)
        hd_after.append(after)
        for d in DELTA_GRID:
            sweep[f"delta={d:g}"].append(score(transformed(graph, delta=d)))
        noise["base"].append(score(graph))
        for idx, level in enumerate(NOISE_LEVELS):
            noisy = inject_structural_noise(graph, level, derive_seed(seed, idx))
            noise[f"graphost_noise{level:g}"].append(score(transformed(noisy)))
        k = graph.num_edges - full.num_edges
        drop["base"].append(score(graph))
        drop["random_drop"].append(score(random_edge_drop(graph, k, derive_seed(seed, 7))))
        drop["graphost"].append(score(full))
        dropped.append(k)

    def arms(values):
        return {arm: tuple(v) for arm, v in values.items()}

    return {
        "ablation": (arms(ablation), {"hd_before": hd_before, "hd_after_full": hd_after}),
        "delta-sweep": (arms(sweep), {}),
        "noise-robustness": (arms(noise), {}),
        "random-drop": (arms(drop), {"dropped_edges": dropped}),
    }


@pytest.fixture
def score_calls(monkeypatch):
    """Counts edge scorings made through the runners' and the transform's
    bindings."""
    calls = []
    original = transform.edge_homophily_scores

    def counted(predictor, graph):
        calls.append(graph)
        return original(predictor, graph)

    monkeypatch.setattr(experiments, "edge_homophily_scores", counted)
    monkeypatch.setattr(transform, "edge_homophily_scores", counted)
    return calls


class TestSharedScoreTable:
    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    def test_runners_match_per_arm_scoring(self, fixture, mode):
        config = replace(fixture.config, mode=mode)
        args = (fixture.classifier, fixture.predictor, fixture.test_graph, config, SEEDS)
        reports = {
            "ablation": run_ablation(*args),
            "delta-sweep": run_delta_sweep(*args, delta_grid=DELTA_GRID),
            "noise-robustness": run_noise_robustness(*args, noise_levels=NOISE_LEVELS),
            "random-drop": run_random_drop_comparison(*args),
        }
        for name, (arm_values, extras) in reference_reports(fixture, config, SEEDS).items():
            assert reports[name].arm_values == arm_values, name
            assert reports[name].extras == extras, name

    def test_one_scoring_per_seed(self, fixture, score_calls):
        args = (fixture.classifier, fixture.predictor, fixture.test_graph,
                fixture.config, SEEDS)
        run_ablation(*args)
        assert len(score_calls) == len(SEEDS)
        score_calls.clear()
        run_delta_sweep(*args, delta_grid=DELTA_GRID)
        assert len(score_calls) == len(SEEDS)

    @pytest.mark.parametrize("runner, grid, arm", [
        (run_delta_sweep, (0.1, 0.1), "delta=0.1"),
        (run_delta_sweep, (0.1, 0.10000001), "delta=0.1"),
        (run_noise_robustness, (0.0, 0.1, 0.1), "graphost_noise0.1"),
        (run_noise_robustness, (0.1, 0.10000001), "graphost_noise0.1"),
    ])
    def test_repeated_arm_rejected_before_scoring(self, fixture, score_calls,
                                                  runner, grid, arm):
        with pytest.raises(RepeatedArmError, match=re.escape(repr(arm))):
            runner(fixture.classifier, fixture.predictor, fixture.test_graph,
                   fixture.config, SEEDS, grid)
        assert score_calls == []

    @pytest.mark.parametrize("runner, grid, per_seed", [
        (run_ablation, None, 3),
        (run_delta_sweep, DELTA_GRID, len(DELTA_GRID)),
        (run_noise_robustness, NOISE_LEVELS, len(NOISE_LEVELS)),
        (run_random_drop_comparison, None, 1),
    ])
    def test_transform_calls_through_runner_binding(self, fixture, monkeypatch,
                                                    runner, grid, per_seed):
        # The benchmark's removal-count check wraps this binding, so every
        # transformed arm must pass through it, positionally.
        calls = []

        def counted(*args, **kwargs):
            assert not kwargs
            calls.append(args)
            return graphost_transform(*args)

        monkeypatch.setattr(experiments, "graphost_transform", counted)
        grids = () if grid is None else (grid,)
        runner(fixture.classifier, fixture.predictor, fixture.test_graph,
               fixture.config, SEEDS, *grids)
        assert len(calls) == per_seed * len(SEEDS)


class TestRunnersLabelFree:
    """Every transformed arm of every runner is label-free: each
    graphost_transform call gives the same edges and weights on the test
    graphs and on the same graphs with permuted labels."""

    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    def test_transformed_arms_ignore_test_labels(self, fixture, monkeypatch, mode):
        # Seeds may run concurrently, so calls are paired by their input
        # (edges, config), not by position. One key's calls come from one
        # seed of one runner, which makes them in arm order.
        outputs: dict = {}

        def recorded(*args):
            out = graphost_transform(*args)
            graph, _, config = args
            outputs.setdefault((graph.edges.tobytes(), config), []).append(out)
            return out

        def permuted(seed):
            graph = fixture.test_graph(seed)
            labels = np.random.default_rng(seed).permutation(graph.labels)
            assert not np.array_equal(labels, graph.labels)
            return replace(graph, labels=labels)

        monkeypatch.setattr(experiments, "graphost_transform", recorded)
        config = replace(fixture.config, mode=mode)
        runs = []
        for test_graphs in (fixture.test_graph, permuted):
            outputs.clear()
            args = (fixture.classifier, fixture.predictor, test_graphs, config, SEEDS)
            run_ablation(*args)
            run_delta_sweep(*args, delta_grid=DELTA_GRID)
            run_noise_robustness(*args, noise_levels=NOISE_LEVELS)
            run_random_drop_comparison(*args)
            runs.append(dict(outputs))
        labeled, relabeled = runs
        assert labeled.keys() == relabeled.keys()
        calls = [sum(len(outs) for outs in run.values()) for run in runs]
        assert calls == [len(SEEDS) * (3 + len(DELTA_GRID) + len(NOISE_LEVELS) + 1)] * 2
        for key, wants in labeled.items():
            assert len(relabeled[key]) == len(wants)
            for want, got in zip(wants, relabeled[key]):
                assert got.base.edges.tobytes() == want.base.edges.tobytes()
                assert got.edge_weights.tobytes() == want.edge_weights.tobytes()


class TestRunStudy:
    """run_study builds each distinct arm once per seed; the four runners are
    its views and give the same reports."""

    # delta = 0.3 is the full arm's recipe and noise level 0 stays its own arm
    GRIDS = dict(noise_levels=(0.0, 0.3), delta_grid=(0.0, 0.3, 0.6))

    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    def test_reports_equal_the_runners(self, fixture, mode):
        config = replace(fixture.config, mode=mode)
        args = (fixture.classifier, fixture.predictor, fixture.test_graph, config, SEEDS)
        study = run_study(*args, **self.GRIDS)
        assert list(study) == list(EXPERIMENTS)
        runners = {
            "ablation": run_ablation(*args),
            "delta-sweep": run_delta_sweep(*args, delta_grid=self.GRIDS["delta_grid"]),
            "noise-robustness": run_noise_robustness(*args,
                                                     noise_levels=self.GRIDS["noise_levels"]),
            "random-drop": run_random_drop_comparison(*args),
        }
        for name, report in runners.items():
            assert study[name].to_dict() == report.to_dict(), name
            assert study[name].to_csv_rows() == report.to_csv_rows(), name

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts per kind of work done through the study's bindings."""
        counts = dict.fromkeys(("draws", "scorings", "transforms", "evaluations", "hd_reports"),
                               0)
        for kind, module, name in [("scorings", experiments, "edge_homophily_scores"),
                                   ("scorings", transform, "edge_homophily_scores"),
                                   ("transforms", experiments, "graphost_transform"),
                                   ("evaluations", experiments, "evaluate_graph"),
                                   ("hd_reports", experiments, "hd_delta_report")]:
            def counted(*args, _kind=kind, _fn=getattr(module, name)):
                counts[_kind] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        return counts

    def test_per_seed_work_at_default_grids(self, fixture, work):
        def draw(seed):
            work["draws"] += 1
            return fixture.test_graph(seed)

        args = (fixture.classifier, fixture.predictor, draw, fixture.config, SEEDS[:2])
        run_study(*args)
        # HD is taken only for ablation's full arm, the one arm an extra reads it of.
        per_seed = dict(draws=1, scorings=5, transforms=16, evaluations=18, hd_reports=1)
        assert work == {kind: 2 * count for kind, count in per_seed.items()}
        work.update(dict.fromkeys(work, 0))
        for runner in RUNNERS:
            runner(*args)
        per_seed = dict(draws=4, scorings=7, transforms=18, evaluations=22, hd_reports=1)
        assert work == {kind: 2 * count for kind, count in per_seed.items()}

    def test_no_earlier_arm_graph_alive_at_a_transform(self, fixture, monkeypatch):
        monkeypatch.setattr(workers, "_usable_cores", lambda: 1)
        made = []  # weak references to every arm graph built so far
        transforms = []

        def tracked(fn):
            def call(*args):
                out = fn(*args)
                # Noise level 0 returns its input, and an unfiltered transform
                # keeps it as its base: the input is no arm graph of its own.
                for graph in (out, out.base if isinstance(out, WeightedGraph) else None):
                    if graph is not None and graph is not args[0]:
                        made.append(weakref.ref(graph))
                return out
            return call

        transform_tracked = tracked(graphost_transform)

        def checked(*args):
            source = args[0]
            alive = [ref for ref in made if ref() is not None and ref() is not source]
            assert alive == [], f"transform {len(transforms)}: earlier arm graphs alive"
            transforms.append(args[2])
            return transform_tracked(*args)

        monkeypatch.setattr(experiments, "graphost_transform", checked)
        monkeypatch.setattr(experiments, "inject_structural_noise",
                            tracked(inject_structural_noise))
        monkeypatch.setattr(experiments, "random_edge_drop", tracked(random_edge_drop))
        run_study(fixture.classifier, fixture.predictor, fixture.test_graph,
                  fixture.config, SEEDS[:2])
        assert len(transforms) == 2 * 16

    def test_grid_read_only_for_asked_experiments(self, fixture):
        args = (fixture.classifier, fixture.predictor, fixture.test_graph, fixture.config, (0,))
        repeated = dict(noise_levels=(0.1, 0.1), delta_grid=(0.2, 0.2))
        reports = run_study(*args, ("ablation", "random-drop"), **repeated)
        assert list(reports) == ["ablation", "random-drop"]
        assert reports["ablation"].to_dict() == run_ablation(*args).to_dict()
        for name, arm in [("delta-sweep", "delta=0.2"), ("noise-robustness",
                                                          "graphost_noise0.1")]:
            with pytest.raises(RepeatedArmError, match=re.escape(repr(arm))):
                run_study(*args, ("ablation", name), **repeated)

    @pytest.mark.parametrize("experiments_, seeds, problem", [
        (("ablation", "sweep"), (0,), "unknown experiment 'sweep'"),
        (EXPERIMENTS, (2, 2), "seed list repeats 2"),
        (EXPERIMENTS, (), "an experiment needs at least one seed"),
        (("delta-sweep",), (0,), "both give arm 'delta=0.1'"),
    ])
    def test_refused_before_any_draw(self, experiments_, seeds, problem):
        drawn = []
        with pytest.raises(ValueError, match=re.escape(problem)):
            run_study(None, None, drawn.append, TransformConfig(mode="homophilic"), seeds,
                      experiments_, delta_grid=(0.1, 0.1))
        assert drawn == []


RUNNERS = [run_ablation, run_delta_sweep, run_noise_robustness, run_random_drop_comparison]


class TestRepeatedSeeds:
    """A repeated seed would report copies of one run as spread across
    seeds: the runners and scripts/run_benchmark.py refuse it, as the CLI's
    --seed does, before any seed runs."""

    @pytest.mark.parametrize("runner", RUNNERS, ids=lambda r: r.__name__)
    def test_runner_refuses_before_any_seed_runs(self, runner):
        drawn = []
        with pytest.raises(ValueError, match="seed list repeats 3"):
            runner(None, None, drawn.append, TransformConfig(mode="homophilic"), (3, 3))
        assert drawn == []

    @pytest.mark.parametrize("runner", RUNNERS + [run_study], ids=lambda r: r.__name__)
    def test_runner_refuses_a_negative_seed_before_any_draw(self, runner):
        drawn = []
        with pytest.raises(ValueError, match="^seeds must be non-negative, got -2$"):
            runner(None, None, drawn.append, TransformConfig(mode="homophilic"), (0, -1, -2))
        assert drawn == []

    @pytest.mark.parametrize("text, lowest", [("-1", -1), ("3,-7,-2", -7)])
    def test_parse_seeds_refuses_a_negative_seed(self, text, lowest):
        with pytest.raises(ValueError, match=f"^seeds must be non-negative, got {lowest}$"):
            parse_seeds(text)

    @pytest.mark.parametrize("runner", RUNNERS, ids=lambda r: r.__name__)
    def test_runner_refuses_no_seeds_before_any_draw(self, runner):
        drawn = []
        with pytest.raises(ValueError, match="an experiment needs at least one seed"):
            runner(None, None, drawn.append, TransformConfig(mode="homophilic"), ())
        assert drawn == []

    @pytest.mark.parametrize("text, seeds", [("0", (0,)), ("2,0,1", (2, 0, 1)), (7, (7,))])
    def test_parse_seeds(self, text, seeds):
        assert parse_seeds(text) == seeds

    @pytest.mark.parametrize("text, problem", [
        ("3,3", "repeats 3"), ("1,2,1,2", "repeats 1, 2"), ("3,,4", "empty item"),
        ("", "empty item"), ("x", "invalid literal"),
    ])
    def test_parse_seeds_refuses(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            parse_seeds(text)

    def test_run_benchmark_script_exits_2(self, tmp_path):
        # refused while reading its arguments, so before any training
        result = _run_benchmark_script("--seeds", "3,3,3", "--out", str(tmp_path / "never"))
        assert result.returncode == 2
        assert "--seeds: seed list repeats 3" in result.stderr
        assert result.stdout == "" and not (tmp_path / "never").exists()

    def test_run_benchmark_script_refuses_a_negative_base_seed(self, tmp_path):
        # refused while reading its arguments, so before --out is made
        result = _run_benchmark_script("--seeds", "0", "--base-seed", "-1",
                                       "--out", str(tmp_path / "never"))
        assert result.returncode == 2
        assert "--base-seed: seed must be non-negative, got -1" in result.stderr
        assert result.stdout == "" and not (tmp_path / "never").exists()


def _run_benchmark_script(*argv: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / "run_benchmark.py"), *argv],
                          env=env, capture_output=True, text=True, timeout=60)


class TestPublicRefusals:
    """Each refusal below is reached through its public input, with its
    message pinned."""

    def test_report_without_seeds(self):
        with pytest.raises(ValueError, match="^an experiment needs at least one seed$"):
            ExperimentReport(experiment="demo", seeds=(), arm_values={}, config={})

    def test_unknown_metric(self, fixture):
        with pytest.raises(ValueError, match=r"^metric must be one of \['accuracy', 'f1_macro'\], "
                                             r"got 'auc'$"):
            evaluate_graph(fixture.classifier, fixture.test_graph(0), "auc")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_unlabeled_graph(self, fixture, weighted):
        test = fixture.test_graph(0)
        unlabeled = LabeledGraph(test.num_nodes, test.edges, test.features)
        graph = WeightedGraph(unlabeled, np.ones(unlabeled.num_edges)) if weighted else unlabeled
        with pytest.raises(ValueError, match="^evaluation needs a labeled graph$"):
            evaluate_graph(fixture.classifier, graph)
