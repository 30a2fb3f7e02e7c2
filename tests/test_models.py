import logging
import tracemalloc

import numpy as np
import pytest

from graphost.csbm import generate_csbm, symmetric_binary_params
from graphost.graphs import LabeledGraph
from graphost.metrics import accuracy, roc_auc
from graphost.models import (
    ArchitectureSpec,
    Checkpoint,
    CheckpointError,
    EdgeScoreTable,
    OptimizerConfig,
    build_edge_training_set,
    classifier_logits,
    edge_homophily_scores,
    init_params,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train_classifier,
    train_homophily_predictor,
)
from graphost.models import _EDGE_BLOCK, _edge_scores_backward, _edge_scores_with_cache

SIGMOID_1 = 0.7310585786300049
SIGMOID_M1 = 0.2689414213699951


@pytest.fixture(scope="module")
def small_csbm():
    params = symmetric_binary_params(4.0, 8, (100, 100), 0.1, 0.01)
    train = generate_csbm(params, seed=0)
    val = generate_csbm(params, seed=1)
    return train, val


@pytest.fixture(scope="module")
def trained_classifier(small_csbm):
    train, val = small_csbm
    spec = ArchitectureSpec.default("gcn", 8, 2)
    opt = OptimizerConfig(max_epochs=150, patience=30)
    return train_classifier(train, val, spec, opt, seed=5)


class TestArchitectureSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ArchitectureSpec(kind="gat", layer_dims=(4, 4, 2))
        with pytest.raises(ValueError, match="two layers"):
            ArchitectureSpec(kind="gcn", layer_dims=(4, 2))
        with pytest.raises(ValueError, match="positive"):
            ArchitectureSpec(kind="gcn", layer_dims=(4, 0, 2))

    def test_default_builder(self):
        spec = ArchitectureSpec.default("gcn", 16, 3, hidden=32, num_layers=4)
        assert spec.layer_dims == (16, 32, 32, 32, 3)
        assert spec.num_layers == 4

    def test_init_bounds(self):
        spec = ArchitectureSpec(kind="mlp", layer_dims=(4, 8, 2))
        params = init_params(spec, seed=0)
        assert np.abs(params["W0"]).max() <= 0.5  # 1/sqrt(4)
        assert params["W1"].shape == (8, 2)


class TestOptimizerConfig:
    @pytest.mark.parametrize("fields, name", [
        ({"max_epochs": 0}, "max_epochs"),
        ({"patience": 0}, "patience"),
        ({"learning_rate": -1.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
    ])
    def test_out_of_range_field_raises(self, fields, name):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**fields)

    def test_zero_learning_rate_is_legal(self):
        assert OptimizerConfig(learning_rate=0.0, max_epochs=1, patience=1).learning_rate == 0.0


class TestClassifierTraining:
    def test_separable_csbm_high_accuracy(self, small_csbm, trained_classifier):
        train, _ = small_csbm
        predicted, _ = predict_labels(trained_classifier, train)
        assert accuracy(predicted, train.labels) >= 0.95

    def test_zero_learning_rate_keeps_initialization(self, small_csbm):
        train, val = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 2)
        ckpt = train_classifier(
            train, val, spec, OptimizerConfig(learning_rate=0.0, max_epochs=1), seed=3
        )
        init = init_params(spec, seed=3)
        for name in init:
            assert np.array_equal(ckpt.params[name], init[name])

    def test_same_seed_identical_checkpoints(self, small_csbm):
        train, val = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 2)
        opt = OptimizerConfig(max_epochs=40, patience=10)
        a = train_classifier(train, val, spec, opt, seed=9)
        b = train_classifier(train, val, spec, opt, seed=9)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert a.metadata["best_epoch"] == b.metadata["best_epoch"]

    def test_requires_labels(self, small_csbm):
        train, val = small_csbm
        unlabeled = LabeledGraph(
            num_nodes=train.num_nodes, edges=train.edges, features=train.features
        )
        with pytest.raises(ValueError, match="labeled"):
            train_classifier(unlabeled, val, ArchitectureSpec.default("gcn", 8, 2))


class TestClassifierInference:
    def test_uniform_weights_equal_unweighted(self, small_csbm, trained_classifier):
        train, _ = small_csbm
        plain = classifier_logits(trained_classifier, train)
        weighted = classifier_logits(
            trained_classifier, train, np.ones(train.num_edges)
        )
        assert np.array_equal(plain, weighted)

    def test_zero_weight_equals_deleted_edge(self, rng, trained_classifier):
        feats = rng.normal(size=(10, 8))
        edges = np.array([[0, 1], [1, 2], [2, 3], [4, 5], [6, 7], [8, 9], [0, 9]])
        g = LabeledGraph(num_nodes=10, edges=edges, features=feats)
        idx = 3  # index into the canonical edge order
        weights = np.ones(g.num_edges)
        weights[idx] = 0.0
        zeroed = classifier_logits(trained_classifier, g, weights)
        dropped_graph = LabeledGraph(
            num_nodes=10, edges=np.delete(g.edges, idx, axis=0), features=feats
        )
        dropped = classifier_logits(
            trained_classifier, dropped_graph, np.delete(weights, idx)
        )
        assert np.array_equal(zeroed, dropped)

    def test_empty_edge_list_uses_self_only(self, rng, trained_classifier):
        feats = rng.normal(size=(4, 8))
        g = LabeledGraph(num_nodes=4, edges=np.empty((0, 2)), features=feats)
        logits = classifier_logits(trained_classifier, g)
        p = trained_classifier.params
        manual = np.maximum(feats @ p["W0"] + p["b0"], 0.0) @ p["W1"] + p["b1"]
        assert np.allclose(logits, manual)

    def test_predict_tie_breaks_to_lowest_class(self):
        spec = ArchitectureSpec(kind="mlp", layer_dims=(1, 1, 2))
        params = {
            "W0": np.array([[1.0]]),
            "b0": np.array([0.0]),
            "W1": np.array([[0.0, 0.0]]),
            "b1": np.array([0.0, 0.0]),
        }
        ckpt = Checkpoint(spec=spec, params=params)
        g = LabeledGraph(num_nodes=2, edges=np.empty((0, 2)), features=np.ones((2, 1)))
        labels, probs = predict_labels(ckpt, g)
        assert labels.tolist() == [0, 0]
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestEdgeTrainingSet:
    def test_alpha_ratio(self):
        g = LabeledGraph(
            num_nodes=5,
            edges=np.array(
                [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3], [3, 4], [0, 4], [1, 4], [2, 4]]
            ),
            labels=np.array([0, 0, 0, 0, 1]),
        )
        edges, labels, alpha = build_edge_training_set(g)
        # 4 edges touch node 4 (the lone class-1 node): 4 heterophilic of 10
        assert alpha == pytest.approx(0.4)
        assert labels.sum() == 6

    def test_all_homophilic_alpha_zero(self):
        g = LabeledGraph(
            num_nodes=3, edges=np.array([[0, 1], [1, 2]]), labels=np.array([0, 0, 0])
        )
        _, labels, alpha = build_edge_training_set(g)
        assert alpha == 0.0
        assert labels.tolist() == [1.0, 1.0]

    def test_photo_like_alpha(self):
        intra = [(i, j) for i in range(150) for j in range(i + 1, 150)][:9546]
        cross = [(i, 150 + j) for i in range(150) for j in range(150)][:454]
        g = LabeledGraph(
            num_nodes=300,
            edges=np.array(intra + cross),
            labels=np.array([0] * 150 + [1] * 150),
        )
        _, _, alpha = build_edge_training_set(g)
        assert alpha == pytest.approx(0.0454)

    def test_requires_labels(self):
        g = LabeledGraph(num_nodes=2, edges=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="labels"):
            build_edge_training_set(g)


class TestPredictorTraining:
    def test_degenerate_edge_classes_abort(self, small_csbm):
        _, val = small_csbm
        g = LabeledGraph(
            num_nodes=4,
            edges=np.array([[0, 1], [1, 2], [2, 3]]),
            features=np.eye(4),
            labels=np.array([0, 0, 0, 0]),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="degenerate edge classes"):
            train_homophily_predictor(g, None, ArchitectureSpec.default("gcn", 4, 8))

    def test_heldout_auc_on_separable_fixture(self):
        params = symmetric_binary_params(2.0, 16, (300, 300), 0.05, 0.02)
        train = generate_csbm(params, seed=10)
        spec = ArchitectureSpec.default("gcn", 16, 32)
        opt = OptimizerConfig(max_epochs=200, patience=40)
        ckpt = train_homophily_predictor(train, None, spec, opt, seed=2)
        assert ckpt.metadata["val_roc_auc"] >= 0.85
        assert 0.0 < ckpt.metadata["alpha"] < 1.0

    def test_same_seed_identical(self, small_csbm):
        train, val = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 16)
        opt = OptimizerConfig(max_epochs=30, patience=10)
        a = train_homophily_predictor(train, val, spec, opt, seed=4)
        b = train_homophily_predictor(train, val, spec, opt, seed=4)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_training_auc_on_orthogonal_means(self):
        means = ((3.0, 0.0, 0.0, 0.0), (0.0, 3.0, 0.0, 0.0))
        from graphost.csbm import CsbmParams

        params = CsbmParams(means, (200, 200), 0.06, 0.02)
        train = generate_csbm(params, seed=3)
        spec = ArchitectureSpec.default("gcn", 4, 16)
        opt = OptimizerConfig(max_epochs=200, patience=40)
        ckpt = train_homophily_predictor(train, None, spec, opt, seed=0)
        edges, labels, _ = build_edge_training_set(train)
        scores = edge_homophily_scores(ckpt, train)
        assert roc_auc(scores.scores, labels.astype(int)) > 0.95


class TestTrainingLog:
    @pytest.mark.parametrize("trained_as, metric", [
        ("classifier", "val_accuracy"), ("predictor", "val_roc_auc"),
    ])
    @pytest.mark.parametrize("optimizer, stop", [
        (OptimizerConfig(max_epochs=5, patience=50), "max_epochs"),
        (OptimizerConfig(learning_rate=0.0, max_epochs=50, patience=3), "patience"),
    ])
    def test_epochs_at_debug_one_summary_at_info(self, small_csbm, caplog, trained_as,
                                                 metric, optimizer, stop):
        train, val = small_csbm
        with caplog.at_level(logging.DEBUG, logger="graphost"):
            if trained_as == "classifier":
                spec = ArchitectureSpec.default("gcn", 8, 2)
                ckpt = train_classifier(train, val, spec, optimizer, seed=5)
            else:
                spec = ArchitectureSpec.default("gcn", 8, 16, 16)
                ckpt = train_homophily_predictor(train, val, spec, optimizer, seed=5)
        meta = ckpt.metadata
        records = [r for r in caplog.records if r.name == "graphost.models"]
        epochs = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
        summary = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(epochs) == meta["epochs_run"]
        assert all(f"epoch {i}: loss " in line and metric in line
                   for i, line in enumerate(epochs, start=1))
        assert summary == [
            f"trained {trained_as}: {meta['epochs_run']} epochs, best epoch "
            f"{meta['best_epoch']}, {metric} {meta[metric]:.6g}, stopped by {stop}"
        ]
        assert meta["epochs_run"] == (5 if stop == "max_epochs" else 3)
        assert "stop" not in meta


class TestEdgeScores:
    def test_score_range_and_alignment(self, small_csbm, trained_classifier):
        train, _ = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 16)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=0))
        table = edge_homophily_scores(ckpt, train)
        assert len(table) == train.num_edges
        assert table.scores.min() >= 0.0 and table.scores.max() <= 1.0

    def test_identical_embedding_score(self):
        # all nodes share one feature -> cosine 1 -> sigmoid(1)
        spec = ArchitectureSpec(kind="mlp", layer_dims=(2, 2, 2))
        params = {
            "W0": np.eye(2),
            "b0": np.zeros(2),
            "W1": np.eye(2),
            "b1": np.zeros(2),
        }
        ckpt = Checkpoint(spec=spec, params=params)
        g = LabeledGraph(
            num_nodes=2, edges=np.array([[0, 1]]), features=np.array([[1.0, 1.0], [1.0, 1.0]])
        )
        assert edge_homophily_scores(ckpt, g).scores[0] == pytest.approx(SIGMOID_1)

    def test_opposite_embedding_score(self):
        # identity activation: relu would zero the negative feature
        spec = ArchitectureSpec(kind="mlp", layer_dims=(2, 2, 2), activation="identity")
        params = {"W0": np.eye(2), "b0": np.zeros(2), "W1": np.eye(2), "b1": np.zeros(2)}
        ckpt = Checkpoint(spec=spec, params=params)
        g = LabeledGraph(
            num_nodes=2, edges=np.array([[0, 1]]), features=np.array([[1.0, 0.0], [-1.0, 0.0]])
        )
        assert edge_homophily_scores(ckpt, g).scores[0] == pytest.approx(SIGMOID_M1)

    def test_zero_embedding_scores_half(self):
        spec = ArchitectureSpec(kind="mlp", layer_dims=(2, 2, 2))
        params = {"W0": np.eye(2), "b0": np.zeros(2), "W1": np.eye(2), "b1": np.zeros(2)}
        ckpt = Checkpoint(spec=spec, params=params)
        g = LabeledGraph(
            num_nodes=2, edges=np.array([[0, 1]]), features=np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        assert edge_homophily_scores(ckpt, g).scores[0] == pytest.approx(0.5)

    def test_invariant_to_edge_permutation(self, small_csbm):
        train, _ = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 16)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=1))
        shuffled = LabeledGraph(
            num_nodes=train.num_nodes,
            edges=train.edges[::-1].copy(),
            features=train.features,
            labels=train.labels,
        )
        assert np.array_equal(
            edge_homophily_scores(ckpt, train).scores,
            edge_homophily_scores(ckpt, shuffled).scores,
        )

    def test_table_validates_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EdgeScoreTable(scores=np.array([0.5, 1.5]))


def edge_cosines_unblocked(z, edges):
    """The whole-array cosine the row-blocked head replaced, kept as oracle."""
    norms = np.linalg.norm(z, axis=1)
    unit = z / np.where(norms > 0.0, norms, 1.0)[:, None]
    return np.clip(np.sum(unit[edges[:, 0]] * unit[edges[:, 1]], axis=1), -1.0, 1.0)


class TestBlockedEdgeCosine:
    @pytest.mark.parametrize("num_edges", [
        0, 1, _EDGE_BLOCK - 1, _EDGE_BLOCK, _EDGE_BLOCK + 1, 3 * _EDGE_BLOCK + 7,
    ])
    @pytest.mark.parametrize("dim", [3, 64])
    def test_bit_identical_to_unblocked(self, num_edges, dim):
        rng = np.random.default_rng(num_edges)
        n = 500
        edges = rng.integers(0, n, size=(num_edges, 2))
        z = rng.standard_normal((n, dim))
        z[::7] = 0.0  # zero-norm rows score cos 0
        _, ctx = _edge_scores_with_cache(z, edges)
        assert ctx["cos"].shape == (num_edges,)
        assert np.array_equal(ctx["cos"], edge_cosines_unblocked(z, edges))

    def test_scoring_memory_bounded(self):
        # 10k nodes, ~105k edges, hidden 64: whole-array (E, d) gathers
        # peaked at ~170 MB here; the row-blocked head stays near 30 MB.
        params = symmetric_binary_params(2.0, 16, (5000, 5000), 0.003, 0.0012)
        graph = generate_csbm(params, seed=0)
        spec = ArchitectureSpec.default("gcn", 16, 64, hidden=64)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=0))
        tracemalloc.start()
        try:
            edge_homophily_scores(ckpt, graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def edge_scores_backward_add_at(grad_scores, edges, scores, ctx, n, dim):
    """Per-edge gradients scattered with np.add.at, kept as oracle."""
    grad_cos = grad_scores * scores * (1.0 - scores)
    unit, cos = ctx["unit"], ctx["cos"]
    src, dst = edges[:, 0], edges[:, 1]
    cu, cv = unit[src], unit[dst]
    gu = (cv - cos[:, None] * cu) / ctx["safe"][src][:, None]
    gv = (cu - cos[:, None] * cv) / ctx["safe"][dst][:, None]
    zero = (ctx["norms"][src] == 0.0) | (ctx["norms"][dst] == 0.0)
    gu[zero] = 0.0
    gv[zero] = 0.0
    grad_z = np.zeros((n, dim), dtype=np.float64)
    np.add.at(grad_z, src, grad_cos[:, None] * gu)
    np.add.at(grad_z, dst, grad_cos[:, None] * gv)
    return grad_z


class TestEdgeScoreBackward:
    @pytest.mark.parametrize("n, num_edges, dim", [(2, 1, 1), (40, 300, 16), (300, 4000, 64)])
    def test_matches_add_at_oracle(self, n, num_edges, dim):
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, n, size=(num_edges, 2))
        g = LabeledGraph(num_nodes=n, edges=pairs[pairs[:, 0] != pairs[:, 1]])
        z = rng.standard_normal((n, dim))
        z[0] = 0.0  # the zero-norm convention
        scores, ctx = _edge_scores_with_cache(z, g.edges)
        grad = rng.standard_normal(g.num_edges)
        got = _edge_scores_backward(grad, g.edges, scores, ctx, n, dim)
        want = edge_scores_backward_add_at(grad, g.edges, scores, ctx, n, dim)
        assert isinstance(got, np.ndarray) and got.shape == (n, dim)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
        assert np.all(got[0] == 0.0)


class TestCheckpointIO:
    def test_round_trip_preserves_logits(self, tmp_path, small_csbm, trained_classifier):
        train, _ = small_csbm
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_classifier, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(
            classifier_logits(trained_classifier, train), classifier_logits(loaded, train)
        )
        assert loaded.metadata["trained_as"] == "classifier"

    def test_truncated_file_reports_offset(self, tmp_path, trained_classifier):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_classifier, path)
        path.write_text(path.read_text()[:50])
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, trained_classifier):
        import json

        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_classifier, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_shape_corruption_detected(self, tmp_path, trained_classifier):
        import json

        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_classifier, path)
        doc = json.loads(path.read_text())
        doc["params"]["W0"]["shape"] = [2, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", [
        ("spec",), ("params",), ("spec", "kind"), ("params", "W0", "shape"),
        ("params", "b1", "data_b64"),
    ])
    def test_missing_key_names_path(self, tmp_path, trained_classifier, drop):
        import json

        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_classifier, path)
        doc = json.loads(path.read_text())
        parent = doc
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=repr(drop[-1])) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
