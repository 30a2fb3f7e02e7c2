import base64
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphost
import graphost.cli as cli
import graphost.experiments as experiments
import graphost.fixtures as fixtures
import graphost.models as models
import graphost.theory as theory
import graphost.transform as transform
from graphost.cli import main
from graphost.csbm import SAMPLER_VERSION, generate_csbm, symmetric_binary_params
from graphost.graphs import load_graph, load_weighted_graph, save_graph
from graphost.metrics import accuracy, f1_macro


def run(args):
    return main(args)


# `study` asking for all four experiments and for each one alone, as the
# one-experiment subcommands it replaced ran them; a test takes one of these
# strings as the subcommand and the flags given before its own
STUDIES = ["study", *(f"study --experiments {name}" for name in experiments.EXPERIMENTS)]
# the subcommands that take the transform flags (--predictor, --mode, --delta, ...)
TRANSFORM_SUBCOMMANDS = ["transform", "evaluate", *STUDIES]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data and trained checkpoints shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "ckpt"
    assert run([
        "generate", "--p", "0.06", "--q", "0.02", "--sizes", "120,120",
        "--dim", "8", "--mean-distance", "2.5", "--out", str(data), "--seed", "3",
    ]) == 0
    assert run([
        "train", "--train-graph", str(data / "train.json"),
        "--val-graph", str(data / "val.json"), "--target", "both",
        "--epochs", "80", "--patience", "20", "--out", str(ckpt), "--seed", "3",
    ]) == 0
    return root


def predictor_with_alpha(workspace, tmp_path, alpha):
    """A copy of the workspace predictor whose metadata alpha is `alpha`
    (None: no alpha at all)."""
    doc = json.loads((workspace / "ckpt" / "predictor.json").read_text())
    del doc["metadata"]["alpha"]
    if alpha is not None:
        doc["metadata"]["alpha"] = alpha
    path = tmp_path / "predictor-alpha.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenerate:
    def test_emits_three_splits_and_manifest(self, workspace):
        data = workspace / "data"
        for name in ("train.json", "val.json", "test.json", "generate-manifest.json"):
            assert (data / name).exists()
        manifest = json.loads((data / "generate-manifest.json").read_text())
        assert set(manifest["files"]) == {"train", "val", "test"}
        assert manifest["edge_homophily_degree"]["train"] > 0.5

    def test_same_seed_identical_files(self, workspace, tmp_path):
        args = [
            "generate", "--p", "0.06", "--q", "0.02", "--sizes", "120,120",
            "--dim", "8", "--mean-distance", "2.5", "--seed", "3", "--pin-timestamp",
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train.json", "generate-manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_params_file_round_trip(self, tmp_path):
        params = {
            "class_means": [[1.0, 0.0], [-1.0, 0.0]],
            "class_sizes": [30, 30],
            "intra_prob": 0.2,
            "inter_prob": 0.05,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert run(["generate", "--params", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_manifest_records_sampler_version(self, workspace):
        manifest = json.loads((workspace / "data" / "generate-manifest.json").read_text())
        assert manifest["sampler_version"] == SAMPLER_VERSION

    def test_seed_of_2_to_the_64_is_refused_by_its_value(self, tmp_path, capsys):
        # its uint64 key used to wrap onto seed 0's draw
        out = tmp_path / "never"
        assert run(["generate", "--p", "0.3", "--q", "0.1", "--sizes", "20,20", "--dim", "4",
                    "--seed", str(2**64), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be below 2**64, got {2**64}\n"
        assert not out.exists()

    def test_bad_params_is_usage_error(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"class_means": [[1.0]]}')
        out = tmp_path / "never"
        assert run(["generate", "--params", str(path), "--out", str(out)]) == 2
        assert not out.exists()  # no partial output


class TestTrain:
    def test_checkpoints_written(self, workspace):
        ckpt = workspace / "ckpt"
        assert (ckpt / "classifier.json").exists()
        assert (ckpt / "predictor.json").exists()
        log = json.loads((ckpt / "train-log.json").read_text())
        assert log["classifier"]["trained_as"] == "classifier"
        assert 0.0 < log["predictor"]["alpha"] < 1.0

    def test_target_classifier_only(self, workspace, tmp_path):
        data = workspace / "data"
        assert run([
            "train", "--train-graph", str(data / "train.json"),
            "--val-graph", str(data / "val.json"), "--target", "classifier",
            "--epochs", "5", "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "classifier.json").exists()
        assert not (tmp_path / "predictor.json").exists()

    def test_missing_graph_is_usage_error(self, tmp_path):
        assert run([
            "train", "--train-graph", str(tmp_path / "nope.json"),
            "--val-graph", str(tmp_path / "nope.json"), "--out", str(tmp_path),
        ]) == 2


class TestTransform:
    def test_writes_graph_and_report(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "auto", "--out", str(tmp_path), "--pin-timestamp",
        ]) == 0
        report = json.loads((tmp_path / "transform-report.json").read_text())
        assert report["config"]["mode"] == "homophilic"
        assert report["edges_after"] < report["edges_before"]
        assert "hd" in report  # labeled test graph -> HD section
        assert (tmp_path / "transformed.json").exists()

    def test_label_free_run_has_no_hd_section(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        doc.pop("labels")
        doc.pop("num_classes")
        unlabeled = tmp_path / "unlabeled.json"
        unlabeled.write_text(json.dumps(doc))
        assert run([
            "transform", "--test-graph", str(unlabeled),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--out", str(tmp_path / "o"),
        ]) == 0
        report = json.loads((tmp_path / "o" / "transform-report.json").read_text())
        assert "hd" not in report

    def test_no_ops_identity(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--no-weight", "--no-filter",
            "--out", str(tmp_path),
        ]) == 0
        original = json.loads((data / "test.json").read_text())
        transformed = json.loads((tmp_path / "transformed.json").read_text())
        assert transformed["edges"] == original["edges"]
        assert all(w == 1.0 for w in transformed["edge_weights"])

    def test_zero_edge_test_graph_reports_null_hd(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        doc["edges"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run([
            "transform", "--test-graph", str(empty),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--out", str(out),
        ]) == 0
        report = json.loads((out / "transform-report.json").read_text())
        assert report["hd"] == {"before": None, "after": None, "delta": None}
        assert json.loads((out / "transformed.json").read_text())["edges"] == []

    def test_every_edge_filtered_reports_null_hd_after(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--delta", "0.9999",
            "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "transform-report.json").read_text())
        assert 0 < report["edges_before"] < 10_000  # so ceil(0.9999 E) = E
        assert report["edges_after"] == 0
        assert 0.0 < report["hd"]["before"] < 1.0
        assert report["hd"]["after"] is None and report["hd"]["delta"] is None
        assert json.loads((tmp_path / "transformed.json").read_text())["edges"] == []

    def test_checkpoint_missing_key_exits_1_naming_path(self, workspace, tmp_path, capsys):
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((ckpt / "predictor.json").read_text())
        del doc["params"]["W0"]["data_b64"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(broken), "--mode", "homophilic",
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert str(broken) in capsys.readouterr().err

    def test_non_finite_features_exit_1_naming_path(self, workspace, tmp_path, capsys):
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        doc["features"][3][0] = float("nan")
        broken = tmp_path / "nan.json"
        broken.write_text(json.dumps(doc))  # writes the NaN literal
        assert run([
            "transform", "--test-graph", str(broken),
            "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert f"{broken}: features of node 3 are not finite" in capsys.readouterr().err

    def test_null_num_nodes_exits_1_naming_path(self, workspace, tmp_path, capsys):
        ckpt = workspace / "ckpt"
        broken = tmp_path / "null.json"
        broken.write_text('{"num_nodes": null, "edges": []}')
        assert run([
            "transform", "--test-graph", str(broken),
            "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert f'{broken}: "num_nodes" must be an integer' in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, missing", [
        (None, "missing required key 'alpha' in metadata"),
        ("0.3", '"alpha" in metadata must be a finite number'),
        (1.5, "alpha 1.5 lies outside [0, 1]"),
    ])
    def test_auto_mode_on_unusable_alpha_is_usage_error(self, workspace, tmp_path, capsys,
                                                        alpha, missing):
        data = workspace / "data"
        predictor = predictor_with_alpha(workspace, tmp_path, alpha)
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(predictor), "--mode", "auto", "--out", str(tmp_path / "x"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and missing in err
        assert f"--mode auto: --predictor {predictor}: " in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", ["homophilic", "heterophilic"])
    def test_explicit_mode_never_reads_alpha(self, workspace, tmp_path, mode):
        data = workspace / "data"
        predictor = predictor_with_alpha(workspace, tmp_path, "not a number")
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(predictor), "--mode", mode, "--out", str(tmp_path / "x"),
        ]) == 0
        report = json.loads((tmp_path / "x" / "transform-report.json").read_text())
        assert report["config"]["mode"] == mode

    # --threshold-semantics was the score-threshold filter switch; --train-graph
    # resolved --mode auto before the predictor's alpha did; transform draws
    # nothing, so it takes no --seed
    @pytest.mark.parametrize("name, removed", [
        *[(name, flag) for name in TRANSFORM_SUBCOMMANDS
          for flag in (["--threshold-semantics"], ["--train-graph", "train.json"])],
        ("transform", ["--seed", "5"]),
    ])
    def test_removed_flag_exits_2(self, workspace, tmp_path, capsys, name, removed):
        data, ckpt = workspace / "data", workspace / "ckpt"
        classifier = [] if name == "transform" else ["--classifier", str(ckpt / "classifier.json")]
        with pytest.raises(SystemExit) as exit_info:
            run([
                *name.split(), "--test-graph", str(data / "test.json"), *classifier,
                "--predictor", str(ckpt / "predictor.json"), "--mode", "auto",
                *removed, "--out", str(tmp_path / "x"),
            ])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_bad_delta_reported_before_unresolved_auto(self, workspace, tmp_path, capsys,
                                                       via_config):
        data = workspace / "data"
        predictor = predictor_with_alpha(workspace, tmp_path, None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"delta": 1.5}')
        delta = ["--config", str(cfg)] if via_config else ["--delta", "1.5"]
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(predictor),
            "--mode", "auto", *delta, "--out", str(tmp_path / "x"),
        ]) == 2
        given = f"1.5 in config file {cfg}" if via_config else "'1.5'"
        err = capsys.readouterr().err
        assert f"bad --delta value {given}: 1.5 lies outside [0, 1)" in err
        assert "alpha" not in err
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_report_written_and_pinned_reruns_byte_identical(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        args = [
            "evaluate", "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--seed", "0,1", "--pin-timestamp",
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        name = "evaluate-pinned-0-1.json"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / name).read_text())
        assert set(doc["arms"]) == {"base", "graphost"}

    def test_f1_macro_report_holds_the_macro_f1_of_each_arm(self, tmp_path):
        # imbalanced, overlapping classes, where macro-F1 and accuracy differ
        data, ckpt, out = tmp_path / "data", tmp_path / "ckpt", tmp_path / "out"
        assert run(["generate", "--p", "0.05", "--q", "0.03", "--sizes", "150,50", "--dim", "4",
                    "--mean-distance", "1", "--out", str(data)]) == 0
        assert run(["train", "--train-graph", str(data / "train.json"), "--val-graph",
                    str(data / "val.json"), "--epochs", "30", "--patience", "10",
                    "--out", str(ckpt)]) == 0
        assert run(["evaluate", "--test-graph", str(data / "test.json"), "--classifier",
                    str(ckpt / "classifier.json"), "--predictor", str(ckpt / "predictor.json"),
                    "--mode", "homophilic", "--metric", "f1_macro", "--pin-timestamp",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "evaluate-pinned-0.json").read_text())
        test = load_graph(data / "test.json")
        classifier = models.load_checkpoint(ckpt / "classifier.json")
        transformed = transform.graphost_transform(
            test, models.load_checkpoint(ckpt / "predictor.json"),
            transform.TransformConfig(mode="homophilic"))
        for arm, graph, weights in (("base", test, None),
                                    ("graphost", transformed.base, transformed.edge_weights)):
            predicted, _ = models.predict_labels(classifier, graph, weights)
            want = f1_macro(predicted, test.labels, 2)
            assert doc["arms"][arm] == {"value": want}
            assert abs(want - accuracy(predicted, test.labels)) > 0.01

    def test_weighted_test_graph_exits_1_naming_path(self, workspace, tmp_path, capsys):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            "transform", "--test-graph", str(data / "test.json"),
            "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
            "--out", str(tmp_path / "t"),
        ]) == 0
        transformed = tmp_path / "t" / "transformed.json"
        capsys.readouterr()
        assert run([
            "evaluate", "--test-graph", str(transformed),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
            "--out", str(tmp_path / "e"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count(str(transformed)) == 1 and "load_weighted_graph" in err
        assert not (tmp_path / "e").exists()

    def test_seed_list_evaluates_once_without_spread(self, workspace, tmp_path, monkeypatch):
        # evaluate draws nothing: more seeds must not repeat it or report std 0
        import graphost.cli as cli_module

        calls = []
        real = cli_module.evaluate_graph
        monkeypatch.setattr(
            cli_module, "evaluate_graph", lambda *a: calls.append(1) or real(*a)
        )
        data, ckpt = workspace / "data", workspace / "ckpt"
        args = [
            "evaluate", "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--pin-timestamp",
        ]
        assert run(args + ["--seed", "0,1,2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 2  # base and transformed, once each
        assert run(args + ["--seed", "0", "--out", str(tmp_path)]) == 0
        many = json.loads((tmp_path / "evaluate-pinned-0-1-2.json").read_text())
        one = json.loads((tmp_path / "evaluate-pinned-0.json").read_text())
        assert many["seeds"] == [0, 1, 2]
        assert many["arms"] == one["arms"]
        assert set(many["arms"]["base"]) == {"value"}

    def test_config_file_merging(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        config = {
            "test_graph": str(data / "test.json"),
            "classifier": str(ckpt / "classifier.json"),
            "predictor": str(ckpt / "predictor.json"),
            "mode": "homophilic",
            "delta": 0.2,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run([
            "evaluate", "--config", str(cfg_path), "--delta", "0.4",
            "--out", str(tmp_path), "--pin-timestamp",
        ]) == 0
        doc = json.loads((tmp_path / "evaluate-pinned-0.json").read_text())
        assert doc["config"]["delta"] == 0.4  # flag beats config file

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"bogus_key": 1}')
        assert run(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def study_argv(workspace, out, *extra):
    """`study` on the workspace in homophilic mode over seeds 0 and 1, with
    small grids, pinned timestamps and `extra` flags."""
    data, ckpt = workspace / "data", workspace / "ckpt"
    return ["study", "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
            "--delta-grid", "0,0.3,0.6", "--noise-levels", "0.3,0.5",
            "--out", str(out), "--pin-timestamp", *extra]


class TestStudy:
    def test_one_study_writes_what_one_run_per_experiment_writes(self, workspace, tmp_path,
                                                                capsys, monkeypatch):
        calls = []
        original = experiments.edge_homophily_scores

        def counted(predictor, graph):
            calls.append(graph)
            return original(predictor, graph)

        monkeypatch.setattr(experiments, "edge_homophily_scores", counted)
        assert run(study_argv(workspace, tmp_path / "all")) == 0
        together, scored_together = capsys.readouterr().out, calls[:]
        alone = ""
        for name in experiments.EXPERIMENTS:
            assert run(study_argv(workspace, tmp_path / name, "--experiments", name)) == 0
            alone += capsys.readouterr().out
        assert together == alone
        written = {}
        for name in experiments.EXPERIMENTS:
            written |= {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        assert len(written) == 8  # a JSON and a CSV report per experiment
        assert {path.name: path.read_bytes() for path in (tmp_path / "all").iterdir()} == written
        # each source graph is scored once per seed: the clean graph, which three
        # experiments transform, and each of the two noisy graphs
        clean = load_graph(workspace / "data" / "test.json").edges
        is_clean = [np.array_equal(graph.edges, clean) for graph in scored_together]
        assert (is_clean.count(True), is_clean.count(False)) == (2, 4)
        assert sum(np.array_equal(graph.edges, clean)
                   for graph in calls[len(scored_together):]) == 6

    def test_runs_the_experiments_asked_in_the_order_asked(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(study_argv(workspace, out, "--experiments", "random-drop,ablation")) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            f"{name}-pinned-0-1.{suffix}" for name in ("ablation", "random-drop")
            for suffix in ("csv", "json")]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["random-drop"] * 3 + ["ablation"] * 4

    @pytest.mark.parametrize("edges, hd_before", [([], None), ([[0, 1]], 1.0)])
    def test_ablation_with_edgeless_side_reports_null_hd(self, workspace, tmp_path, edges,
                                                         hd_before):
        # one edge: the full arm's ceil(0.3 * 1) = 1 removal leaves none
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        doc["edges"], doc["labels"] = edges, [0] * doc["num_nodes"]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run([
            "study", "--experiments", "ablation", "--test-graph", str(graph),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--seed", "0", "--out", str(out), "--pin-timestamp",
        ]) == 0
        [report] = out.glob("*.json")
        extras = json.loads(report.read_text())["extras"]
        assert extras == {"hd_before": [hd_before], "hd_after_full": [None]}


def checkpoint_argv(command, graph, checkpoints, out):
    """`command` on `graph` in homophilic mode, given the checkpoints (role
    -> path) it reads: transform takes only the predictor."""
    argv = [*command.split(), "--test-graph", str(graph), "--mode", "homophilic",
            "--out", str(out)]
    for role, path in checkpoints.items():
        if command != "transform" or role == "predictor":
            argv += [f"--{role}", str(path)]
    return argv


def scaled_checkpoint(workspace, role, path, name, index, power):
    """A copy of the workspace checkpoint `role`, which the CLI wrote, with one
    weight of tensor `name` times 10**power (inf where that overflows)."""
    doc = json.loads((workspace / "ckpt" / f"{role}.json").read_text())
    tensor = doc["params"][name]
    values = np.frombuffer(base64.b64decode(tensor["data_b64"]), "<f8").copy()
    with np.errstate(over="ignore"):
        values[index % len(values)] *= 10.0 ** power
    tensor["data_b64"] = base64.b64encode(values.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    return path


def overflowing_checkpoint(workspace, role, path):
    """The workspace checkpoint `role` with both weight matrices times 1e308:
    every tensor finite, and the forward pass overflows."""
    doc = json.loads((workspace / "ckpt" / f"{role}.json").read_text())
    for name in ("W0", "W1"):
        tensor = doc["params"][name]
        values = np.frombuffer(base64.b64decode(tensor["data_b64"]), "<f8") * 1e308
        assert np.isfinite(values).all()
        tensor["data_b64"] = base64.b64encode(values.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    return path


class TestOverflowingPredictor:
    """A finite predictor checkpoint whose embeddings overflow is a run error
    (exit 1) naming --predictor and its file, with no numpy warning and no
    traceback; it used to filter edges on NaN scores and exit 0."""

    def test_transform_probe_exits_1_without_traceback(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads((workspace / "ckpt" / "predictor.json").read_text())
        w0 = np.frombuffer(base64.b64decode(doc["params"]["W0"]["data_b64"]), "<f8").copy()
        w0[0] = 1e300
        doc["params"]["W0"]["data_b64"] = base64.b64encode(w0.tobytes()).decode("ascii")
        bad.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(Path(graphost.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "graphost", "transform",
             "--test-graph", str(workspace / "data" / "test.json"), "--predictor", str(bad),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 1 and done.stdout == ""
        assert re.fullmatch(rf"error: --predictor {re.escape(str(bad))}: the embedding norm "
                            r"of node \d+ is inf, not finite\n", done.stderr), done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS[1:])
    def test_every_scoring_command_exits_1_naming_the_file(self, workspace, tmp_path, capsys,
                                                            command):
        bad = scaled_checkpoint(workspace, "predictor", tmp_path / "bad.json", "W0", 0, 300)
        checkpoints = {"classifier": workspace / "ckpt" / "classifier.json", "predictor": bad}
        assert run(checkpoint_argv(command, workspace / "data" / "test.json", checkpoints,
                                   tmp_path / "o")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --predictor {bad}: the embedding norm of node ")
        assert captured.err.endswith(", not finite\n") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_overflowing_forward_pass_is_refused_quietly(self, workspace, tmp_path, capsys):
        # the encoder's matmul overflows before the head: numpy's warning is
        # off for the pass, whose inf norms the head refuses
        bad = overflowing_checkpoint(workspace, "predictor", tmp_path / "bad.json")
        assert run(["transform", "--test-graph", str(workspace / "data" / "test.json"),
                    "--predictor", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --predictor {bad}: the embedding norm of node ")
        assert err.count("\n") == 1

    @given(st.sampled_from(["W0", "b0", "W1", "b1"]), st.integers(0, 2**16),
           st.integers(0, 308))
    @example("W0", 0, 0)
    @example("W0", 0, 300)
    @example("b1", 3, 308)
    @settings(max_examples=40, deadline=None)
    def test_scaled_weight_scores_or_is_refused(self, workspace, name, index, power):
        # tier-1 turns any numpy RuntimeWarning into a failure
        with tempfile.TemporaryDirectory() as work:
            bad = scaled_checkpoint(workspace, "predictor", Path(work) / "scaled.json", name,
                                    index, power)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(["transform", "--test-graph", str(workspace / "data" / "test.json"),
                            "--predictor", str(bad), "--out", str(Path(work) / "o")])
            if code == 0:
                load_weighted_graph(Path(work) / "o" / "transformed.json")  # finite weights
            else:
                assert code == 1
                text = err.getvalue()
                refused = (f"error: --predictor {bad}: the embedding norm of node ",
                           f"error: {bad}: tensor {name!r} contains NaN or Inf")
                assert text.startswith(refused) and text.count("\n") == 1, text


def graphost_process(*argv, cwd=None):
    """`python -m graphost ARGV` in a fresh process, so numpy's warnings print
    as they would for a user."""
    env = dict(os.environ, PYTHONPATH=str(Path(graphost.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "graphost", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


class TestOverflowingClassifier:
    """A finite classifier checkpoint whose logits overflow is a run error
    (exit 1) naming --classifier and its file, with no numpy warning and no
    traceback; it used to print numpy's overflow warning and then
    `error: softmax input contains NaN or Inf`, naming no flag."""

    def test_evaluate_probe_exits_1_without_traceback(self, workspace, tmp_path):
        bad = overflowing_checkpoint(workspace, "classifier", tmp_path / "bad.json")
        done = graphost_process(
            "evaluate", "--test-graph", str(workspace / "data" / "test.json"),
            "--classifier", str(bad), "--predictor", str(workspace / "ckpt" / "predictor.json"),
            "--out", str(tmp_path / "o"))
        assert done.returncode == 1 and done.stdout == ""
        assert re.fullmatch(rf"error: --classifier {re.escape(str(bad))}: logit \d of node "
                            r"\d+ is (-?inf|nan), not finite\n", done.stderr), done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS[1:])
    def test_every_evaluating_command_exits_1_naming_the_file(self, workspace, tmp_path,
                                                              capsys, command):
        bad = overflowing_checkpoint(workspace, "classifier", tmp_path / "bad.json")
        checkpoints = {"classifier": bad, "predictor": workspace / "ckpt" / "predictor.json"}
        assert run(checkpoint_argv(command, workspace / "data" / "test.json", checkpoints,
                                   tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: --classifier {re.escape(str(bad))}: logit \d of node "
                            r"\d+ is (-?inf|nan), not finite\n", err), err
        assert not (tmp_path / "o").exists()

    @given(st.sampled_from(["W0", "b0", "W1", "b1"]), st.integers(0, 2**16),
           st.integers(0, 308))
    @example("W0", 0, 0)
    @example("W0", 0, 308)
    @example("W1", 0, 308)
    @example("b1", 1, 308)
    @settings(max_examples=40, deadline=None)
    def test_scaled_weight_evaluates_or_is_refused(self, workspace, name, index, power):
        # tier-1 turns any numpy RuntimeWarning into a failure
        with tempfile.TemporaryDirectory() as work:
            bad = scaled_checkpoint(workspace, "classifier", Path(work) / "scaled.json", name,
                                    index, power)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = run(checkpoint_argv(
                    "evaluate", workspace / "data" / "test.json",
                    {"classifier": bad, "predictor": workspace / "ckpt" / "predictor.json"},
                    Path(work) / "o"))
        if code == 0:
            assert err.getvalue() == "" and out.getvalue().startswith("accuracy: base ")
        else:
            assert code == 1 and out.getvalue() == ""
            refused = (f"error: --classifier {bad}: logit ",
                       f"error: {bad}: tensor {name!r} contains NaN or Inf")
            assert err.getvalue().startswith(refused) and err.getvalue().count("\n") == 1, \
                err.getvalue()


@pytest.fixture(scope="module")
def overflowing_graphs(tmp_path_factory):
    """Graphs whose features overflow training (`big`, mean distance 1e300)
    and graphs of the same family that do not (`small`), in one directory."""
    root = tmp_path_factory.mktemp("overflow")
    for name, distance in (("big", "1e300"), ("small", "2")):
        assert run(["generate", "--p", "0.05", "--q", "0.02", "--sizes", "100,100",
                    "--mean-distance", distance, "--seed", "0", "--out",
                    str(root / name)]) == 0
    return root


class TestOverflowingTraining:
    """A training or validation pass that overflows is a run error (exit 1)
    naming the graph flag and file of that pass, with no numpy warning, no
    traceback and no checkpoint. The classifier used to print numpy's
    overflow warning from Adam's g * g and write a checkpoint whose
    overflowed parameters never moved; the predictor's error named no flag."""

    # Both graphs are big in the probes: the classifier first overflows in
    # the training pass's Adam step, the predictor in the validation pass
    # that scores its initial parameters.
    @pytest.mark.parametrize("target, flag, message", [
        ("classifier", "train", r"Adam's second moment of W0 is inf, not finite"),
        ("predictor", "val", r"the embedding norm of node \d+ is inf, not finite"),
        ("both", "train", r"Adam's second moment of W0 is inf, not finite"),
    ])
    def test_probe_exits_1_naming_the_graph(self, overflowing_graphs, tmp_path, target, flag,
                                            message):
        done = graphost_process("train", "--train-graph", "big/train.json", "--val-graph",
                                "big/val.json", "--target", target, "--out", str(tmp_path / "o"),
                                cwd=overflowing_graphs)
        assert done.returncode == 1 and done.stdout == ""
        assert re.fullmatch(rf"error: --{flag}-graph big/{flag}.json: {message}\n",
                            done.stderr), done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target", ["classifier", "predictor"])
    def test_big_training_graph_is_named(self, overflowing_graphs, tmp_path, capsys, target):
        train = overflowing_graphs / "big" / "train.json"
        assert run(["train", "--train-graph", str(train), "--val-graph",
                    str(overflowing_graphs / "small" / "val.json"), "--target", target,
                    "--epochs", "5", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --train-graph {train}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_overflowing_classifier_loss_names_the_training_graph(self, tmp_path):
        # a 120-node training graph whose one feature is 1.6e308 everywhere:
        # the logits stay finite and the loss's mean overflows
        params = symmetric_binary_params(2.0, 1, (60, 60), 0.1, 0.02)
        train = generate_csbm(params, 1)
        save_graph(train.with_features(np.full_like(train.features, 1.6e308)),
                   tmp_path / "bigtrain.json")
        save_graph(generate_csbm(params, 2), tmp_path / "val.json")
        done = graphost_process("train", "--train-graph", "bigtrain.json", "--val-graph",
                                "val.json", "--target", "classifier", "--out", "o", cwd=tmp_path)
        assert done.returncode == 1 and done.stdout == ""
        assert re.fullmatch(r"error: --train-graph bigtrain.json: the cross-entropy loss "
                            r"overflows \(overflow encountered in \w+\)\n",
                            done.stderr), done.stderr
        assert not (tmp_path / "o").exists()

    def test_big_validation_graph_is_named(self, overflowing_graphs, tmp_path, capsys):
        val = overflowing_graphs / "big" / "val.json"
        assert run(["train", "--train-graph", str(overflowing_graphs / "small" / "train.json"),
                    "--val-graph", str(val), "--target", "predictor", "--epochs", "5",
                    "--out", str(tmp_path / "o")]) == 1
        assert re.fullmatch(rf"error: --val-graph {re.escape(str(val))}: the embedding norm "
                            r"of node \d+ is inf, not finite\n", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


THEORY_SMALL = ["--p", "0.06", "--q", "0.02", "--p2", "0.08", "--q2", "0.01", "--n1", "60",
                "--n2", "60", "--lemma-nodes", "100", "--samples", "2000", "--trials", "2"]


class TestOverflowingMeanDistance:
    """A --mean-distance whose class-mean difference overflows its norm is a
    run error (exit 1) naming the option, with no numpy warning and no
    theory FAIL; it used to print numpy's overflow warning and then a check
    FAIL or an error naming no option."""

    @pytest.mark.parametrize("suite", ["phi", "separation"])
    def test_probe_exits_1_naming_the_option(self, tmp_path, suite):
        env = dict(os.environ, PYTHONPATH=str(Path(graphost.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "graphost", "theory-validate", "--suite", suite,
             "--mean-distance", "1e300", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == ("error: --mean-distance 1e+300: the norm of the class-mean "
                               "difference is inf, not finite\n"), done.stderr
        assert not (tmp_path / "o").exists()

    @given(st.sampled_from(["all", *theory.SUITES]), st.integers(0, 308))
    @example("all", 0)
    @example("all", 154)
    @example("all", 155)
    @example("all", 23)
    @example("all", 210)
    @example("constraint", 308)
    @example("multiclass", 308)
    @settings(max_examples=40, deadline=None)
    def test_scaled_mean_distance_is_finite_or_refused(self, suite, power):
        # tier-1 turns any numpy RuntimeWarning into a failure
        with tempfile.TemporaryDirectory() as work:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = run(["theory-validate", "--suite", suite, *THEORY_SMALL,
                            "--mean-distance", f"1e{power}", "--out", work])
        if code == 1 and err.getvalue():
            echoed = float(f"1e{power}")  # the parsed flag: 1e+210, not 10.0 ** 210
            assert err.getvalue().startswith(f"error: --mean-distance {echoed!r}: the "
                                             "norm of ") and err.getvalue().count("\n") == 1
            assert out.getvalue() == ""
        else:
            # checks may fail, at scales their absolute tolerances do not fit,
            # but every number they print is finite
            assert code in (0, 1) and err.getvalue() == ""
            assert not re.search(r"\b(inf|nan)\b", out.getvalue()), out.getvalue()


class TestCheckpointRoles:
    """A checkpoint given in the other network's role is a usage error
    naming the flag and the file; one that does not say loads as given."""

    @pytest.mark.parametrize("command, role", [
        ("transform", "predictor"), ("evaluate", "predictor"),
        ("evaluate", "classifier"), *((name, "classifier") for name in STUDIES),
    ])
    def test_other_role_exits_2(self, workspace, tmp_path, capsys, command, role):
        other = "classifier" if role == "predictor" else "predictor"
        checkpoints = {r: workspace / "ckpt" / f"{r}.json" for r in ("classifier", "predictor")}
        checkpoints[role] = wrong = workspace / "ckpt" / f"{other}.json"
        assert run(checkpoint_argv(command, workspace / "data" / "test.json", checkpoints,
                                   tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"--{role} {wrong}: checkpoint was trained as '{other}'" in err
        assert not (tmp_path / "o").exists()

    def test_checkpoints_without_role_load(self, workspace, tmp_path):
        checkpoints = {}
        for role in ("classifier", "predictor"):
            doc = json.loads((workspace / "ckpt" / f"{role}.json").read_text())
            del doc["metadata"]["trained_as"]
            checkpoints[role] = tmp_path / f"{role}-plain.json"
            checkpoints[role].write_text(json.dumps(doc))
        assert run(checkpoint_argv("evaluate", workspace / "data" / "test.json", checkpoints,
                                   tmp_path / "o")) == 0


class TestMismatchedInputs:
    """A test graph whose feature width is not a checkpoint's input width,
    or whose class count is not the classifier's output width, is a usage
    error naming both flags and both paths, before any output."""

    @staticmethod
    def edited_graph(workspace, tmp_path, edit):
        doc = json.loads((workspace / "data" / "test.json").read_text())
        edit(doc)
        path = tmp_path / "test.json"
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def checkpoints(workspace):
        return {role: workspace / "ckpt" / f"{role}.json" for role in ("classifier", "predictor")}

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS)
    def test_feature_width_exits_2(self, workspace, tmp_path, capsys, command):
        def narrow(doc):
            doc["features"] = [row[:4] for row in doc["features"]]

        graph = self.edited_graph(workspace, tmp_path, narrow)
        checkpoints = self.checkpoints(workspace)
        role = "predictor" if command == "transform" else "classifier"  # checked first
        out = tmp_path / "o"
        assert run(checkpoint_argv(command, graph, checkpoints, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert (f"--test-graph {graph} has feature dim 4, but "
                f"--{role} {checkpoints[role]} takes 8") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS[1:])
    def test_predictor_width_exits_2(self, workspace, tmp_path, capsys, command):
        spec = models.ArchitectureSpec.default("gcn", 4, 8, 8, 2)
        predictor = tmp_path / "narrow-predictor.json"
        models.save_checkpoint(models.Checkpoint(
            spec, models.init_params(spec, 0), {"trained_as": "predictor", "alpha": 0.3}
        ), predictor)
        checkpoints = self.checkpoints(workspace) | {"predictor": predictor}
        out = tmp_path / "o"
        graph = workspace / "data" / "test.json"
        assert run(checkpoint_argv(command, graph, checkpoints, out)) == 2
        err = capsys.readouterr().err
        assert f"--test-graph {graph} has feature dim 8, but --predictor {predictor} takes 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS)
    def test_class_count_exits_2_where_classifier_runs(self, workspace, tmp_path, capsys,
                                                       command):
        def third_class(doc):
            doc["labels"][0], doc["num_classes"] = 2, 3

        graph = self.edited_graph(workspace, tmp_path, third_class)
        checkpoints = self.checkpoints(workspace)
        out = tmp_path / "o"
        code = run(checkpoint_argv(command, graph, checkpoints, out))
        if command == "transform":  # no classifier: the predictor reads no labels
            assert code == 0
            return
        assert code == 2
        assert (f"--test-graph {graph} has 3 classes, but "
                f"--classifier {checkpoints['classifier']} predicts 2") in capsys.readouterr().err
        assert not out.exists()


class TestGraphInputs:
    """A graph file a subcommand cannot use is a usage error naming the flag
    and the file, raised before any training or scoring."""

    @staticmethod
    def edited(workspace, tmp_path, split, edit):
        doc = json.loads((workspace / "data" / f"{split}.json").read_text())
        edit(doc)
        path = tmp_path / f"{split}-edited.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trained on an unusable graph")

        monkeypatch.setattr(models, "train_classifier", refuse)
        monkeypatch.setattr(models, "train_homophily_predictor", refuse)
        monkeypatch.setattr(fixtures, "train_classifier", refuse)
        monkeypatch.setattr(fixtures, "train_homophily_predictor", refuse)

    @pytest.mark.parametrize("split, part", [
        ("val", "features"), ("val", "labels"), ("train", "features"),
    ])
    def test_train_graph_without_part_exits_2(self, workspace, tmp_path, capsys, no_training,
                                              split, part):
        data = workspace / "data"
        graphs = {"--train-graph": data / "train.json", "--val-graph": data / "val.json"}
        flag = f"--{split}-graph"
        graphs[flag] = self.edited(workspace, tmp_path, split, lambda doc: doc.pop(part))
        out = tmp_path / "o"
        argv = ["train", "--out", str(out)] + [str(a) for kv in graphs.items() for a in kv]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"{flag} {graphs[flag]} has no {part}" in err
        assert not out.exists()

    def test_narrower_val_features_exit_2(self, workspace, tmp_path, capsys, no_training):
        def narrow(doc):
            doc["features"] = [row[:4] for row in doc["features"]]

        val = self.edited(workspace, tmp_path, "val", narrow)
        train = workspace / "data" / "train.json"
        out = tmp_path / "o"
        assert run(["train", "--train-graph", str(train), "--val-graph", str(val),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"--val-graph {val} has feature dim 4, but --train-graph {train} has 8" in err
        assert not out.exists()

    @staticmethod
    def third_class(doc):
        doc["labels"][0], doc["num_classes"] = 2, 3

    @pytest.mark.parametrize("target", ["classifier", "both"])
    def test_val_graph_with_more_classes_exits_2(self, workspace, tmp_path, capsys,
                                                 no_training, target):
        val = self.edited(workspace, tmp_path, "val", self.third_class)
        train = workspace / "data" / "train.json"
        out = tmp_path / "o"
        assert run(["train", "--train-graph", str(train), "--val-graph", str(val),
                    "--target", target, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"--val-graph {val} has 3 classes, but --train-graph {train} has 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["classifier", "both"])
    def test_train_graph_with_more_classes_exits_2(self, workspace, tmp_path, capsys,
                                                   no_training, target):
        train = self.edited(workspace, tmp_path, "train", self.third_class)
        val = workspace / "data" / "val.json"
        out = tmp_path / "o"
        assert run(["train", "--train-graph", str(train), "--val-graph", str(val),
                    "--target", target, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"--val-graph {val} has 2 classes, but --train-graph {train} has 3" in err
        assert not out.exists()

    def test_predictor_alone_reads_no_class_count(self, workspace, tmp_path):
        # the predictor learns same-class edges, whatever the number of classes
        val = self.edited(workspace, tmp_path, "val", self.third_class)
        out = tmp_path / "o"
        assert run(["train", "--train-graph", str(workspace / "data" / "train.json"),
                    "--val-graph", str(val), "--target", "predictor", "--epochs", "2",
                    "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["predictor.json", "train-log.json"]

    @pytest.mark.parametrize("command", TRANSFORM_SUBCOMMANDS)
    def test_test_graph_without_features_exits_2(self, workspace, tmp_path, capsys,
                                                 monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("scored an unusable graph")

        monkeypatch.setattr(models, "network_forward", refuse)
        graph = self.edited(workspace, tmp_path, "test", lambda doc: doc.pop("features"))
        checkpoints = {role: workspace / "ckpt" / f"{role}.json"
                       for role in ("classifier", "predictor")}
        out = tmp_path / "o"
        assert run(checkpoint_argv(command, graph, checkpoints, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"--test-graph {graph} has no features" in err
        assert not out.exists()


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_calls_do_not_share_values(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run([
            "theory-validate", "--suite", "multiclass", "--p", "0.1", "--q", "0.02",
            "--dim", "3", "--samples", "10", "--seed", "4",
            "--out", str(first), "--pin-timestamp",
        ]) == 0
        assert run([
            "theory-validate", "--suite", "multiclass", "--p", "0.2", "--q", "0.05",
            "--out", str(second),
        ]) == 0
        options = [json.loads(next(out.glob("theory-report-*.json")).read_text())["options"]
                   for out in (first, second)]
        picked = ("p", "q", "dim", "samples", "seed", "pin_timestamp")
        assert [{k: o[k] for k in picked} for o in options] == [
            {"p": 0.1, "q": 0.02, "dim": 3, "samples": 10, "seed": "4", "pin_timestamp": True},
            {"p": 0.2, "q": 0.05, "dim": 2, "samples": 100000, "seed": "0",
             "pin_timestamp": False},
        ]


class TestReportStamps:
    def test_unpinned_runs_in_one_second_keep_both_reports(self, tmp_path, monkeypatch):
        instants = iter(datetime(2026, 1, 2, 3, 4, 5, micro, tzinfo=timezone.utc)
                        for micro in (100, 200))

        class Clock(datetime):
            @classmethod
            def now(cls, tz=None):
                return next(instants)

        monkeypatch.setattr(cli, "datetime", Clock)
        for p in ("0.1", "0.3"):
            assert run(["theory-validate", "--suite", "multiclass", "--p", p, "--q", "0.02",
                        "--out", str(tmp_path)]) == 0
        reports = sorted(tmp_path.glob("theory-report-*.json"))
        assert [r.name for r in reports] == ["theory-report-20260102T030405000100Z-0.json",
                                             "theory-report-20260102T030405000200Z-0.json"]
        docs = [json.loads(r.read_text()) for r in reports]
        assert [d["options"]["p"] for d in docs] == [0.1, 0.3]
        assert [d["timestamp"] for d in docs] == ["20260102T030405000100Z",
                                                  "20260102T030405000200Z"]


class TestTheoryValidate:
    def test_full_suite_passes(self, tmp_path):
        assert run([
            "theory-validate", "--p", "0.02", "--q", "0.01",
            "--p2", "0.03", "--q2", "0.005", "--n1", "400", "--n2", "400",
            "--mean-distance", "2", "--trials", "8", "--samples", "20000",
            "--seed", "1",
            "--out", str(tmp_path), "--pin-timestamp",
        ]) == 0
        doc = json.loads((tmp_path / "theory-report-pinned-1.json").read_text())
        assert all(check["passed"] for check in doc["checks"])
        assert (tmp_path / "theory-theorem-pinned-1.csv").exists()

    def test_regime_inconsistent_params_rejected(self, tmp_path):
        code = run([
            "theory-validate", "--suite", "theorem", "--p", "0.02", "--q", "0.01",
            "--p2", "0.005", "--q2", "0.03", "--trials", "2",
            "--out", str(tmp_path),
        ])
        assert code == 1

    def test_theorem_suite_needs_transformed_params(self, tmp_path):
        assert run([
            "theory-validate", "--suite", "theorem", "--p", "0.02", "--q", "0.01",
            "--out", str(tmp_path),
        ]) == 2

    @pytest.mark.parametrize("transformed", [False, True])
    def test_skipped_suites_are_reported(self, tmp_path, capsys, transformed):
        args = ["theory-validate", "--seed", "0", "--out", str(tmp_path), "--pin-timestamp"]
        if transformed:
            args += ["--p2", "0.03", "--q2", "0.005", "--trials", "4"]
        code = run(args)
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "theory-report-pinned-0.json").read_text())
        assert code == (0 if all(check["passed"] for check in doc["checks"]) else 1)
        if transformed:
            assert "skipped" not in doc and "SKIP" not in out
            assert len(doc["checks"]) == 8
        else:
            assert doc["skipped"] == ["theorem", "constraint"]
            assert "SKIP theorem, constraint: need --p2 and --q2\n" in out
            assert len(doc["checks"]) == 6 and "6/6 theory checks passed" in out

    def test_single_suite_runs(self, tmp_path, capsys):
        assert run([
            "theory-validate", "--suite", "multiclass",
            "--p", "0.1", "--q", "0.02", "--out", str(tmp_path), "--pin-timestamp",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS multiclass-reduction" in out
        assert "PASS multiclass-monotone" in out


    SUITE_CHECKS = {
        "lemmas": ["lemma-midpoint", "lemma-direction"],
        "separation": ["separation-closed-form"],
        "phi": ["phi-vs-simulation"],
        "theorem": ["theorem-improvement"],
        "constraint": ["constraint-vs-phi"],
        "multiclass": ["multiclass-reduction", "multiclass-monotone"],
    }
    ALL_CHECKS = ["lemma-midpoint", "lemma-direction", "separation-closed-form",
                  "phi-vs-simulation", "theorem-improvement", "constraint-vs-phi",
                  "multiclass-reduction", "multiclass-monotone"]

    @pytest.mark.parametrize("suite, transformed, names", [
        ("all", True, ALL_CHECKS),
        ("all", False, [c for c in ALL_CHECKS
                        if c not in ("theorem-improvement", "constraint-vs-phi")]),
        *[(suite, True, names) for suite, names in SUITE_CHECKS.items()],
    ])
    def test_suite_reports_its_checks_in_order(self, tmp_path, suite, transformed, names):
        args = ["theory-validate", "--suite", suite, "--p", "0.02", "--q", "0.01",
                "--n1", "100", "--n2", "100", "--lemma-nodes", "200", "--trials", "2",
                "--samples", "2000", "--out", str(tmp_path), "--pin-timestamp"]
        if transformed:
            args += ["--p2", "0.03", "--q2", "0.005"]
        assert run(args) in (0, 1)
        doc = json.loads((tmp_path / "theory-report-pinned-0.json").read_text())
        assert [check["name"] for check in doc["checks"]] == names
        assert (tmp_path / "theory-theorem-pinned-0.csv").exists() == (
            "theorem-improvement" in names
        )

    @pytest.mark.parametrize("suites, draws", [
        (["all"], 1), (["separation"], 1), (["lemmas"], 1), (["all", "all"], 2),
    ])
    def test_lemma_graph_drawn_once_per_run(self, tmp_path, monkeypatch, suites, draws):
        """The lemma and separation suites share one draw of the lemma graph,
        and nothing is kept from one cli.main call to the next."""
        lemma_draws = []
        generate = theory._generate

        def counted(params, seed):
            if params.class_sizes == (150, 150):
                lemma_draws.append(seed)
            return generate(params, seed)

        monkeypatch.setattr(theory, "_generate", counted)
        for suite in suites:
            assert run(["theory-validate", "--suite", suite, "--p", "0.02", "--q", "0.01",
                        "--n1", "100", "--n2", "100", "--lemma-nodes", "150",
                        "--p2", "0.03", "--q2", "0.005", "--trials", "2",
                        "--samples", "2000", "--out", str(tmp_path)]) in (0, 1)
        assert len(lemma_draws) == draws


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_missing_required_inputs(self, tmp_path):
        assert run(["evaluate", "--out", str(tmp_path / "y")]) == 2
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("name, flag", [
        ("theory-validate", "--config"), ("generate", "--params"), ("transform", "--test-graph"),
    ])
    def test_unreadable_file_is_usage_error_naming_flag_and_file(self, tmp_path, capsys,
                                                                 name, flag):
        folder = tmp_path / "dirx"
        folder.mkdir()
        out = tmp_path / "never"
        assert run([name, flag, str(folder), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"{flag} file {folder}" in err
        assert not out.exists()

    def test_bad_seed_list(self, workspace, tmp_path):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            "evaluate", "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--seed", "zero",
            "--out", str(tmp_path),
        ]) == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("seeds, problem", [
        ("3,3,,3", "empty item"), ("3,4,3", "repeats 3"), ("5,", "empty item"),
    ], ids=["empty-item", "repeat", "trailing-comma"])
    def test_seed_list_with_repeat_or_empty_item_is_usage_error(self, workspace, tmp_path,
                                                                capsys, via, seeds, problem):
        # a repeat would report copies of one run as spread across seeds
        data, ckpt = workspace / "data", workspace / "ckpt"
        out = tmp_path / "never"
        args = ["study", "--test-graph", str(data / "test.json"),
                "--classifier", str(ckpt / "classifier.json"),
                "--predictor", str(ckpt / "predictor.json"), "--mode", "homophilic",
                "--out", str(out)]
        if via == "flag":
            args += ["--seed", seeds]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seeds}))
            args += ["--config", str(cfg)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"bad --seed value {seeds!r}" in err and problem in err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("name, seeds", [
        ("generate", "-1"), ("train", "-1"), ("evaluate", "0,-1"), ("study", "-3"),
        *((name, "0,-1") for name in STUDIES), ("theory-validate", "-2"),
    ])
    def test_negative_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, via, name,
                                                          seeds):
        # numpy refuses a negative seed only at the first draw, naming no flag
        out = tmp_path / "never"
        args = [*name.split(), "--out", str(out)]
        if via == "flag":
            args += ["--seed=" + seeds]
            source = ""
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seeds}))
            args += ["--config", str(cfg)]
            source = f" in config file {cfg}"
        assert run(args) == 2
        lowest = min(int(s) for s in seeds.split(","))
        assert capsys.readouterr().err == (f"usage error: bad --seed value {seeds!r}{source}: "
                                           f"seeds must be non-negative, got {lowest}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, args", [
        ("generate", ["--p", "0.06", "--q", "0.02", "--sizes", "20,20"]),
        ("train", ["--train-graph", "{data}/train.json", "--val-graph", "{data}/val.json",
                   "--epochs", "2"]),
        ("theory-validate", ["--suite", "multiclass", "--p", "0.1", "--q", "0.02"]),
    ])
    def test_seed_list_rejected_by_single_run_subcommands(self, workspace, tmp_path, capsys,
                                                          name, args):
        args = [a.format(data=workspace / "data") for a in args]
        out = tmp_path / "never"
        assert run([name, *args, "--seed", "3,4", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    # both grid experiments run by default; the flag named is the grid that repeats
    @pytest.mark.parametrize("experiments_, flag, grid, arm", [
        (None, "--delta-grid", "0.1,0.1", "delta=0.1"),
        (None, "--noise-levels", "0.1,0.10000001", "graphost_noise0.1"),
        ("delta-sweep", "--delta-grid", "0.1,0.1", "delta=0.1"),
        ("noise-robustness,delta-sweep", "--delta-grid", "0.1,0.1", "delta=0.1"),
        ("noise-robustness", "--noise-levels", "0.1,0.10000001", "graphost_noise0.1"),
    ])
    def test_repeated_grid_arm_is_usage_error(self, workspace, tmp_path, capsys,
                                              experiments_, flag, grid, arm):
        data, ckpt = workspace / "data", workspace / "ckpt"
        asked = [] if experiments_ is None else ["--experiments", experiments_]
        assert run([
            "study", "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"), *asked,
            "--mode", "homophilic", flag, grid, "--out", str(tmp_path / "rep"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag}: ") and repr(arm) in err
        assert not (tmp_path / "rep").exists()


    @pytest.mark.parametrize("misspelled", ["label", "feature", "edge_weight"])
    def test_misspelled_graph_key_is_refused(self, workspace, tmp_path, capsys, misspelled):
        # transform once loaded a graph whose "labels" were misspelled as
        # unlabeled, exited 0 and wrote no HD block
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        key = misspelled + "s"
        doc[misspelled] = doc.pop(key) if key in doc else [0.5] * len(doc["edges"])
        path = tmp_path / "test.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "never"
        assert run(["transform", "--test-graph", str(path),
                    "--predictor", str(ckpt / "predictor.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"unknown key {misspelled!r}" in err and err.count(str(path)) == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("experiments_, key", [
        ("ablation", "delta_grid"), ("ablation", "noise_levels"),
        ("delta-sweep", "noise_levels"), ("noise-robustness", "delta_grid"),
        ("random-drop", "delta_grid"),
    ])
    def test_other_experiments_grid_is_not_read(self, workspace, tmp_path, experiments_, key):
        # a study reads only the grids of the experiments it runs
        data, ckpt = workspace / "data", workspace / "ckpt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "0.1,0.1"}))
        assert run([
            "study", "--experiments", experiments_, "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"), "--seed", "0",
            "--config", str(cfg), "--out", str(tmp_path / "out"),
        ]) == 0

    # every grid is read, so a bad one is refused whichever experiments run
    @pytest.mark.parametrize("name", STUDIES)
    @pytest.mark.parametrize("key, value", [
        ("delta_grid", "0.1,abc"),
        ("delta_grid", "0.1,1.5"),
        ("delta_grid", "0.1,1"),
        ("delta_grid", "-0.1"),
        ("delta_grid", [0.1, 0.2]),
        ("noise_levels", "0.1,abc"),
        ("noise_levels", "0.1,1.5"),
        ("noise_levels", "nan"),
    ])
    def test_bad_grid_is_usage_error_before_scoring(self, workspace, tmp_path, capsys,
                                                    monkeypatch, name, key, value):
        calls = []
        original = transform.edge_homophily_scores

        def counted(predictor, graph):
            calls.append(graph)
            return original(predictor, graph)

        monkeypatch.setattr(experiments, "edge_homophily_scores", counted)
        monkeypatch.setattr(transform, "edge_homophily_scores", counted)
        data, ckpt = workspace / "data", workspace / "ckpt"
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):  # a JSON list in a config file is not a grid
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            grid_args = ["--config", str(cfg)]
        else:
            grid_args = [flag, value]
        out = tmp_path / "never"
        assert run([
            *name.split(), "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", *grid_args, "--out", str(out),
        ]) == 2
        assert flag in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


    def test_bad_params_field_is_usage_error_naming_it(self, tmp_path, capsys):
        good = {"class_means": [[1.0, 0.0], [-1.0, 0.0]], "class_sizes": [30, 30],
                "intra_prob": 0.2, "inter_prob": 0.05}
        for field, value in [("class_means", 5), ("class_sizes", [3.7, 3]),
                             ("intra_prob", "0.1")]:
            path = tmp_path / "params.json"
            path.write_text(json.dumps(good | {field: value}))
            out = tmp_path / "never"
            assert run(["generate", "--params", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"bad params file {path}" in err and field in err
            assert not out.exists()

    @pytest.mark.parametrize("name, args, shown", [
        ("generate", ["--mean-distance", "-2"], "--mean-distance"),
        ("generate", ["--mean-distance", "0"], "--mean-distance"),
        ("generate", ["--means", "1,0;1,0"], "--means"),
        ("generate", ["--means", "1,0;0"], "--means"),
        ("generate", ["--sizes", "300,300,300", "--means", "1,0;0,1"], "--means"),
        ("generate", ["--sizes", "300,300,300"], "--mean-distance"),
        ("theory-validate", ["--mean-distance", "-1", "--suite", "multiclass"],
         "--mean-distance"),
    ])
    def test_inline_csbm_flags_that_make_no_params_are_usage_errors(self, tmp_path, capsys,
                                                                    name, args, shown):
        # a negative distance used to write graphs with the class means swapped
        out = tmp_path / "never"
        assert run([name, "--p", "0.1", "--q", "0.05", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and shown in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--patience", "0"), ("--lr", "-1"), ("--lr", "inf"),
    ])
    def test_bad_optimizer_value_is_usage_error(self, workspace, tmp_path, capsys,
                                                flag, value):
        data = workspace / "data"
        out = tmp_path / "never"
        assert run([
            "train", "--train-graph", str(data / "train.json"),
            "--val-graph", str(data / "val.json"), f"{flag}={value}", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
        assert not out.exists()


INT_OPTIONS = {"dim", "hidden", "layers", "epochs", "patience", "n1", "n2", "trials",
               "samples", "lemma_nodes"}
FLOAT_OPTIONS = {"p", "q", "p2", "q2", "mean_distance", "lr", "delta", "midpoint_tol",
                 "cosine_tol", "separation_tol"}
SWITCH_OPTIONS = {"pin_timestamp", "no_weight", "no_filter"}
PATH_OPTIONS = {"out", "params", "train_graph", "val_graph", "test_graph", "classifier",
                "predictor"}
# option -> (flag text or None for a switch, config JSON value, merged value)
OPTION_SAMPLES = {
    **{k: ("7", 7, 7) for k in INT_OPTIONS},
    **{k: ("0.25", 0.25, 0.25) for k in FLOAT_OPTIONS},
    **{k: (None, True, True) for k in SWITCH_OPTIONS},
    **{k: ("x.json", "x.json", "x.json") for k in PATH_OPTIONS},
    "seed": ("2,3", "2,3", "2,3"),
    "target": ("classifier", "classifier", "classifier"),
    "kind": ("mlp", "mlp", "mlp"),
    "predictor_kind": ("mlp", "mlp", "mlp"),
    "loss": ("bce", "bce", "bce"),
    "mode": ("heterophilic", "heterophilic", "heterophilic"),
    "metric": ("f1_macro", "f1_macro", "f1_macro"),
    "suite": ("phi", "phi", "phi"),
    "sizes": ("20,30", "20,30", (20, 30)),
    "means": ("1,0;0,1", "1,0;0,1", ((1.0, 0.0), (0.0, 1.0))),
    "delta_grid": ("0.1,0.5", "0.1,0.5", (0.1, 0.5)),
    "noise_levels": ("0.5,1", "0.5,1", (0.5, 1.0)),
    "experiments": ("random-drop,ablation", "random-drop,ablation", ("random-drop", "ablation")),
}
# option kinds and config values their parser must reject
COUNT_OPTIONS = {"dim", "n1", "n2", "trials", "samples", "lemma_nodes", "hidden", "epochs",
                 "patience"}  # each >= 1
PROBABILITY_OPTIONS = {"p", "q", "p2", "q2"}  # each in [0, 1]
BAD_CONFIG_VALUES = [
    (INT_OPTIONS, [3.9, True, "ten", None]),
    (COUNT_OPTIONS, [0, -5, 2**63]),
    ({"layers"}, [1, 0, -2]),  # at least two layers
    ({"lr"}, [-1e-3]),  # at least 0
    (PROBABILITY_OPTIONS, [1.5, -0.1]),
    ({"delta"}, [1.0, -0.1]),  # in [0, 1)
    ({"mean_distance"}, [0, -2]),  # in (0, inf): 0 makes the means coincide, < 0 swaps them
    (FLOAT_OPTIONS, ["abc", float("nan"), float("inf"), True]),
    (SWITCH_OPTIONS, [1, "true"]),
    (PATH_OPTIONS, [5, ["a"]]),
    ({"experiments"}, ["sweep", "", "ablation,,random-drop", "ablation,ablation", ["ablation"]]),
]



def merged(argv):
    return cli._merge_options(cli.build_parser().parse_args(argv))


class TestOptionParsing:
    """Every option goes through its parser once: flag text and config JSON
    values merge alike, and a mistyped config value is a usage error naming
    the flag (or config-only key) and the config file, before any output."""

    SAMPLES = OPTION_SAMPLES

    def test_samples_cover_every_option(self):
        assert set(self.SAMPLES) == set(cli._OPTIONS)

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, spec in cli._SUBCOMMANDS.items()
        for key in spec.flags + cli._COMMON
    ])
    def test_flag_and_config_value_merge_alike(self, tmp_path, name, key):
        text, value, expected = self.SAMPLES[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        flag = ["--" + key.replace("_", "-")] + ([] if text is None else [text])
        by_flag = merged([name, *flag])
        assert by_flag == merged([name, "--config", str(cfg)])
        assert by_flag[key] == expected and type(by_flag[key]) is type(expected)

    def test_json_integer_seed_kept_as_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3}')
        assert merged(["theory-validate", "--config", str(cfg)])["seed"] == 3

    # a study that names its experiments on the command line never reads the
    # config file's experiments key, and reads every other key
    @pytest.mark.parametrize("name, key, value", [
        *[(name, key, value) for name, spec in cli._SUBCOMMANDS.items()
          for key in spec.defaults() for keys, values in BAD_CONFIG_VALUES if key in keys
          for value in values],
        *[(name, key, value) for name in STUDIES[1:]
          for key in cli._SUBCOMMANDS["study"].defaults() if key != "experiments"
          for keys, values in BAD_CONFIG_VALUES if key in keys for value in values],
    ])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                  name, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        out = [] if key == "out" else ["--out", "never"]
        assert run([*name.split(), "--config", str(cfg), *out]) == 2
        err = capsys.readouterr().err
        spec = cli._SUBCOMMANDS[name.split()[0]]
        shown = ("--" + key.replace("_", "-") if key in spec.flags + cli._COMMON
                 else repr(key))
        assert shown in err and str(cfg) in err and "Traceback" not in err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("name, key, value, choices", [
        ("transform", "mode", "bogus", "('homophilic', 'heterophilic', 'auto')"),
        ("train", "loss", "hinge", "('wbce', 'bce')"),
        ("train", "kind", "rnn", "('gcn', 'mlp')"),
    ])
    def test_config_value_outside_choices_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                         name, key, value, choices):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({key: value}))
        assert run([name, "--config", "cfg.json", "--out", "never"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"usage error: bad --{key} value {value!r} in config file cfg.json: "
            f"must be one of {choices}\n")
        assert not Path("never").exists()

    @pytest.mark.parametrize("name, flag, text", [
        ("train", "--epochs", "abc"), ("train", "--epochs", "3.9"),
        ("theory-validate", "--trials", "ten"), ("theory-validate", "--p", "nan"),
        ("evaluate", "--delta", "inf"), ("transform", "--delta", "1"),
        ("study", "--delta", "-0.1"), ("generate", "--sizes", "20,x"),
        ("generate", "--means", "1,0;0,y"), ("generate", "--seed", "zero"),
        ("theory-validate", "--samples", "0"), ("theory-validate", "--trials", "0"),
        ("theory-validate", "--dim", "0"), ("theory-validate", "--n1", "-5"),
        ("theory-validate", "--lemma-nodes", "0"), ("generate", "--dim", "0"),
        ("generate", "--sizes", "0,5"), ("theory-validate", "--p", "1.5"),
        ("theory-validate", "--q", "-0.1"), ("theory-validate", "--p2", "2"),
        ("theory-validate", "--q2", "1.01"), ("generate", "--p", "1.5"),
        ("train", "--hidden", "0"), ("train", "--layers", "1"),
        # beyond int64: refused while reading, before numpy sees the count
        ("generate --p 0.1 --q 0.05", "--dim", "99999999999999999999999"),
        ("generate --p 0.1 --q 0.05 --means 1,0;0,1", "--sizes", "99999999999999999999999,3"),
        ("theory-validate --suite lemmas", "--lemma-nodes", "99999999999999999999999"),
        # not one of experiments.EXPERIMENTS, an empty item, a repeat
        ("study", "--experiments", "sweep"), ("study", "--experiments", "ablation,"),
        ("study", "--experiments", "ablation,random-drop,ablation"),
    ])
    def test_bad_flag_text_is_usage_error(self, tmp_path, capsys, name, flag, text):
        # `name` is the subcommand and any flags given before `flag`
        out = tmp_path / "never"
        assert run([*name.split(), flag, text, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"bad {flag} value {text!r}" in captured.err and captured.out == ""
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_out_of_memory_is_error_without_traceback(self, tmp_path, capsys, monkeypatch):
        # a count within int64 that cannot be allocated; nothing is allocated here
        def no_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli, "symmetric_binary_params", no_memory)
        out = tmp_path / "never"
        code = run(["generate", "--p", "0.1", "--q", "0.05", "--dim", "10000000000000",
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
        assert not out.exists()


class TestCliSurface:
    """Pins the flags, config keys, defaults and value types of every
    subcommand, so the option table cannot drift."""

    COMMON = {"--help", "--config", "--out", "--pin-timestamp"}
    SEEDED = COMMON | {"--seed"}  # every subcommand but transform, which draws nothing
    TRANSFORM = {"--predictor", "--mode", "--delta", "--no-weight", "--no-filter"}
    EVALUATE = SEEDED | TRANSFORM | {"--test-graph", "--classifier", "--metric"}
    FLAGS = {
        "generate": SEEDED | {"--params", "--p", "--q", "--sizes", "--dim", "--means",
                              "--mean-distance"},
        "train": SEEDED | {"--train-graph", "--val-graph", "--target", "--kind",
                           "--predictor-kind", "--hidden", "--layers", "--lr", "--epochs",
                           "--patience", "--loss"},
        "transform": COMMON | TRANSFORM | {"--test-graph"},
        "evaluate": EVALUATE,
        "study": EVALUATE | {"--experiments", "--delta-grid", "--noise-levels"},
        "theory-validate": SEEDED | {"--p", "--q", "--p2", "--q2", "--n1", "--n2",
                                     "--mean-distance", "--dim", "--trials", "--samples",
                                     "--lemma-nodes", "--suite"},
    }

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["--help"])
        assert exit_info.value.code == 0
        listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == ["generate", "train", "transform", "evaluate", "study",
                                     "theory-validate"]

    # one study subcommand runs any of the experiments these four ran one each
    @pytest.mark.parametrize("name", ["ablate", "sweep-delta", "noise-robustness",
                                      "random-drop"])
    def test_removed_subcommand_exits_2(self, capsys, name):
        with pytest.raises(SystemExit) as exit_info:
            run([name, "--out", "never"])
        assert exit_info.value.code == 2
        assert f"invalid choice: {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_help_lists_flags(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run([name, "--help"])
        assert exit_info.value.code == 0
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert shown == self.FLAGS[name]

    def test_theory_options_block(self, tmp_path):
        assert run([
            "theory-validate", "--suite", "multiclass", "--p", "0.1", "--q", "0.02",
            "--out", str(tmp_path), "--pin-timestamp",
        ]) == 0
        options = json.loads((tmp_path / "theory-report-pinned-0.json").read_text())["options"]
        expected = {
            "cosine_tol": 0.999, "dim": 2, "lemma_nodes": 2000, "mean_distance": 2.0,
            "midpoint_tol": 0.05, "n1": 500, "n2": 500, "p": 0.1, "p2": None,
            "pin_timestamp": True, "q": 0.02, "q2": None, "samples": 100000, "seed": "0",
            "separation_tol": 0.05, "suite": "multiclass", "trials": 20,
        }
        assert options == expected
        assert {k: type(v) for k, v in options.items()} == {
            k: type(v) for k, v in expected.items()
        }

    @pytest.mark.parametrize("name, key", [("evaluate", "lr"), ("transform", "delta_grid")])
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys, name, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert run([name, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # threshold_semantics was the score-threshold filter switch, train_graph
    # resolved --mode auto, and transform takes no seed: a config file that
    # still sets one is refused before its value is read
    @pytest.mark.parametrize("name, key, value", [
        *[(name, key, value) for name in TRANSFORM_SUBCOMMANDS
          for key, value in [("threshold_semantics", False), ("threshold_semantics", True),
                             ("train_graph", "train.json")]],
        ("transform", "seed", "5"),
    ])
    def test_removed_key_rejected(self, tmp_path, capsys, name, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run([*name.split(), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
