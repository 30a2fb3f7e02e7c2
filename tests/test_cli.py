import json
import re
from datetime import datetime, timezone

import pytest

import graphost.cli as cli
import graphost.experiments as experiments
import graphost.models as models
import graphost.theory as theory
import graphost.transform as transform
from graphost.cli import main
from graphost.csbm import SAMPLER_VERSION


def run(args):
    return main(args)


# the subcommands that take the transform flags (--predictor, --mode, --delta, ...)
TRANSFORM_SUBCOMMANDS = ["transform", "evaluate", "ablate", "sweep-delta",
                         "noise-robustness", "random-drop"]


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
                name, "--test-graph", str(data / "test.json"), *classifier,
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


class TestHarnessSubcommands:
    @pytest.mark.parametrize("name", ["ablate", "sweep-delta", "noise-robustness", "random-drop"])
    def test_runs_and_writes_report(self, workspace, tmp_path, name):
        data, ckpt = workspace / "data", workspace / "ckpt"
        args = [
            name, "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", "--seed", "0,1",
            "--out", str(tmp_path / name), "--pin-timestamp",
        ]
        if name == "sweep-delta":
            args += ["--delta-grid", "0,0.3,0.6"]
        if name == "noise-robustness":
            args += ["--noise-levels", "0,0.5"]
        assert run(args) == 0
        json_files = list((tmp_path / name).glob("*.json"))
        csv_files = list((tmp_path / name).glob("*.csv"))
        assert len(json_files) == 1 and len(csv_files) == 1


    @pytest.mark.parametrize("edges, hd_before", [([], None), ([[0, 1]], 1.0)])
    def test_ablate_with_edgeless_side_reports_null_hd(self, workspace, tmp_path, edges,
                                                       hd_before):
        # one edge: the full arm's ceil(0.3 * 1) = 1 removal leaves none
        data, ckpt = workspace / "data", workspace / "ckpt"
        doc = json.loads((data / "test.json").read_text())
        doc["edges"], doc["labels"] = edges, [0] * doc["num_nodes"]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run([
            "ablate", "--test-graph", str(graph),
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
    argv = [command, "--test-graph", str(graph), "--mode", "homophilic", "--out", str(out)]
    for role, path in checkpoints.items():
        if command != "transform" or role == "predictor":
            argv += [f"--{role}", str(path)]
    return argv


class TestCheckpointRoles:
    """A checkpoint given in the other network's role is a usage error
    naming the flag and the file; one that does not say loads as given."""

    @pytest.mark.parametrize("command, role", [
        ("transform", "predictor"), ("evaluate", "predictor"),
        ("evaluate", "classifier"), ("ablate", "classifier"),
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

    @pytest.mark.parametrize("command", ["evaluate", "ablate"])
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
        monkeypatch.setattr(cli, "train_classifier", refuse)
        monkeypatch.setattr(cli, "train_homophily_predictor", refuse)

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

    @pytest.mark.parametrize("command", ["transform", "evaluate", "ablate"])
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

    @pytest.mark.parametrize("name, flag, grid, arm", [
        ("sweep-delta", "--delta-grid", "0.1,0.1", "delta=0.1"),
        ("noise-robustness", "--noise-levels", "0.1,0.10000001", "graphost_noise0.1"),
    ])
    def test_repeated_grid_arm_is_usage_error(self, workspace, tmp_path, capsys,
                                              name, flag, grid, arm):
        data, ckpt = workspace / "data", workspace / "ckpt"
        assert run([
            name, "--test-graph", str(data / "test.json"),
            "--classifier", str(ckpt / "classifier.json"),
            "--predictor", str(ckpt / "predictor.json"),
            "--mode", "homophilic", flag, grid, "--out", str(tmp_path / "rep"),
        ]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(arm) in err
        assert not (tmp_path / "rep").exists()


    @pytest.mark.parametrize("name, key, value", [
        ("sweep-delta", "delta_grid", "0.1,abc"),
        ("sweep-delta", "delta_grid", "0.1,1.5"),
        ("sweep-delta", "delta_grid", "0.1,1"),
        ("sweep-delta", "delta_grid", "-0.1"),
        ("sweep-delta", "delta_grid", [0.1, 0.2]),
        ("noise-robustness", "noise_levels", "0.1,abc"),
        ("noise-robustness", "noise_levels", "0.1,1.5"),
        ("noise-robustness", "noise_levels", "nan"),
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
            name, "--test-graph", str(data / "test.json"),
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
}
# option kinds and config values their parser must reject
COUNT_OPTIONS = {"dim", "n1", "n2", "trials", "samples", "lemma_nodes", "hidden", "epochs",
                 "patience"}  # each >= 1
PROBABILITY_OPTIONS = {"p", "q", "p2", "q2"}  # each in [0, 1]
BAD_CONFIG_VALUES = [
    (INT_OPTIONS, [3.9, True, "ten", None]),
    (COUNT_OPTIONS, [0, -5]),
    ({"layers"}, [1, 0, -2]),  # at least two layers
    ({"lr"}, [-1e-3]),  # at least 0
    (PROBABILITY_OPTIONS, [1.5, -0.1]),
    ({"delta"}, [1.0, -0.1]),  # in [0, 1)
    (FLOAT_OPTIONS, ["abc", float("nan"), float("inf"), True]),
    (SWITCH_OPTIONS, [1, "true"]),
    (PATH_OPTIONS, [5, ["a"]]),
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

    @pytest.mark.parametrize("name, key, value", [
        (name, key, value) for name, spec in cli._SUBCOMMANDS.items()
        for key in spec.defaults() for keys, values in BAD_CONFIG_VALUES if key in keys
        for value in values
    ])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                  name, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        out = [] if key == "out" else ["--out", "never"]
        assert run([name, "--config", str(cfg), *out]) == 2
        err = capsys.readouterr().err
        spec = cli._SUBCOMMANDS[name]
        shown = ("--" + key.replace("_", "-") if key in spec.flags + cli._COMMON
                 else repr(key))
        assert shown in err and str(cfg) in err and "Traceback" not in err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("name, flag, text", [
        ("train", "--epochs", "abc"), ("train", "--epochs", "3.9"),
        ("theory-validate", "--trials", "ten"), ("theory-validate", "--p", "nan"),
        ("evaluate", "--delta", "inf"), ("transform", "--delta", "1"),
        ("ablate", "--delta", "-0.1"), ("generate", "--sizes", "20,x"),
        ("generate", "--means", "1,0;0,y"), ("generate", "--seed", "zero"),
        ("theory-validate", "--samples", "0"), ("theory-validate", "--trials", "0"),
        ("theory-validate", "--dim", "0"), ("theory-validate", "--n1", "-5"),
        ("theory-validate", "--lemma-nodes", "0"), ("generate", "--dim", "0"),
        ("generate", "--sizes", "0,5"), ("theory-validate", "--p", "1.5"),
        ("theory-validate", "--q", "-0.1"), ("theory-validate", "--p2", "2"),
        ("theory-validate", "--q2", "1.01"), ("generate", "--p", "1.5"),
        ("train", "--hidden", "0"), ("train", "--layers", "1"),
    ])
    def test_bad_flag_text_is_usage_error(self, tmp_path, capsys, name, flag, text):
        out = tmp_path / "never"
        assert run([name, flag, text, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"bad {flag} value {text!r}" in captured.err and captured.out == ""
        assert not out.exists()


class TestCliSurface:
    """Pins the flags, config keys, defaults and value types of every
    subcommand, so the option table cannot drift."""

    COMMON = {"--help", "--config", "--out", "--pin-timestamp"}
    SEEDED = COMMON | {"--seed"}  # every subcommand but transform, which draws nothing
    TRANSFORM = {"--predictor", "--mode", "--delta", "--no-weight", "--no-filter"}
    HARNESS = SEEDED | TRANSFORM | {"--test-graph", "--classifier", "--metric"}
    FLAGS = {
        "generate": SEEDED | {"--params", "--p", "--q", "--sizes", "--dim", "--means",
                              "--mean-distance"},
        "train": SEEDED | {"--train-graph", "--val-graph", "--target", "--kind",
                           "--predictor-kind", "--hidden", "--layers", "--lr", "--epochs",
                           "--patience", "--loss"},
        "transform": COMMON | TRANSFORM | {"--test-graph"},
        "evaluate": HARNESS,
        "ablate": HARNESS,
        "sweep-delta": HARNESS | {"--delta-grid"},
        "noise-robustness": HARNESS | {"--noise-levels"},
        "random-drop": HARNESS,
        "theory-validate": SEEDED | {"--p", "--q", "--p2", "--q2", "--n1", "--n2",
                                     "--mean-distance", "--dim", "--trials", "--samples",
                                     "--lemma-nodes", "--suite"},
    }

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
        assert run([name, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
