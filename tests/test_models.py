import logging
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse

import graphost.models as models
import graphost.nn as nn
from graphost.csbm import generate_csbm, symmetric_binary_params
from graphost.graphs import LabeledGraph
from graphost.metrics import accuracy, roc_auc
from graphost.models import (
    ArchitectureSpec,
    Checkpoint,
    CheckpointError,
    EdgeScoreTable,
    NonFiniteError,
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
from graphost.models import (
    _EDGE_BLOCK,
    _edge_scores_backward,
    _edge_scores_with_cache,
    _holdout_split,
    network_backward,
    network_forward,
)
from graphost.nn import (
    _ACTIVATIONS,
    AdamState,
    EdgeMatrix,
    MeanAggregator,
    adam_step,
    bce_loss,
    cross_entropy_loss,
    wbce_loss,
)

from conftest import assert_same_csr, csbm_20k, csr_bytes, traced_peak

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

    @pytest.mark.parametrize("dims, shown", [
        ((16, 2.5, 2), r"layer_dims\[1\]"), ((16, True, 2), r"layer_dims\[1\]"),
        (("16", 8, 2), r"layer_dims\[0\]"), ((16, 8, 2.0), r"layer_dims\[2\]"),
    ])
    def test_layer_dims_are_not_cast(self, dims, shown):
        with pytest.raises(ValueError, match=shown + " must be an integer"):
            ArchitectureSpec("gcn", dims)

    def test_numpy_integer_dims_are_ints(self):
        spec = ArchitectureSpec("gcn", (np.int64(16), np.int32(8), 2))
        assert spec.layer_dims == (16, 8, 2) and type(spec.layer_dims[0]) is int

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
        # mistyped: no field is silently reinterpreted or fails later in training
        ({"max_epochs": 2.5}, "max_epochs"),
        ({"max_epochs": True}, "max_epochs"),
        ({"max_epochs": "10"}, "max_epochs"),
        ({"patience": 1.5}, "patience"),
        ({"patience": True}, "patience"),
        ({"learning_rate": True}, "learning_rate"),
        ({"learning_rate": "0.01"}, "learning_rate"),
    ])
    def test_out_of_range_field_raises(self, fields, name):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**fields)

    def test_numpy_counts_are_ints(self):
        config = OptimizerConfig(learning_rate=np.float64(0.1), max_epochs=np.int64(3),
                                 patience=np.int32(2))
        assert asdict(config) == {"learning_rate": 0.1, "max_epochs": 3, "patience": 2}
        assert type(config.max_epochs) is int and type(config.patience) is int

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


def network_forward_unfused(spec, params, features, aggregator):
    """Inference as network_forward computed it before the in-place bias and
    activation, kept as oracle."""
    h = features
    for layer in range(spec.num_layers):
        act_name = spec.activation if layer < spec.num_layers - 1 else "identity"
        agg_in = aggregator.apply(h) if spec.kind == "gcn" else h
        h = _ACTIVATIONS[act_name][0](agg_in @ params[f"W{layer}"] + params[f"b{layer}"])
    return h


class TestInferenceForward:
    @staticmethod
    def graph(n, rng):
        pairs = rng.integers(0, n, size=(5 * n, 2))
        features = rng.standard_normal((n, 16))
        features[::5] = -0.0
        return LabeledGraph(num_nodes=n, edges=pairs[pairs[:, 0] != pairs[:, 1]],
                            features=features)

    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_bit_identical_to_unfused(self, rng, kind, activation):
        g = self.graph(300, rng)
        spec = ArchitectureSpec(kind=kind, layer_dims=(16, 32, 32, 3), activation=activation)
        params = init_params(spec, seed=4)
        agg = MeanAggregator(g, rng.random(g.num_edges), self_loops=True)
        got = network_forward(spec, params, g.features, agg)
        want = network_forward_unfused(spec, params, g.features, agg)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # the cached (training) pass gives the same output
        cached, _ = network_forward(spec, params, g.features, agg, with_cache=True)
        assert np.array_equal(cached, got)

    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_peak_below_four_hidden_arrays(self, rng, num_layers):
        # The unfused pass held five n x hidden arrays at its peak (the
        # layer's input and its pre-activation from the layer before, the
        # aggregate, the product and the biased sum); in-place bias and
        # activation hold three.
        n, hidden = 4000, 256
        g = self.graph(n, rng)
        spec = ArchitectureSpec.default("gcn", 16, hidden, hidden=hidden, num_layers=num_layers)
        params = init_params(spec, seed=0)
        agg = MeanAggregator(g, self_loops=True)
        tracemalloc.start()
        try:
            network_forward(spec, params, g.features, agg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * hidden * 8


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
    def test_unknown_loss_is_refused_before_training(self, small_csbm, monkeypatch):
        monkeypatch.setattr(models, "_fit", None)  # never reached
        with pytest.raises(ValueError, match=r"^loss must be 'wbce' or 'bce', got 'hinge'$"):
            train_homophily_predictor(*small_csbm, ArchitectureSpec.default("gcn", 8, 8),
                                      loss="hinge")

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

    @pytest.mark.parametrize("labels, edges", [
        ([0, 0, 1, 1], [[0, 1], [2, 3]]),
        ([0, 1, 0, 1], [[0, 1], [1, 2], [2, 3]]),
    ], ids=["all-homophilic", "all-heterophilic"])
    def test_single_edge_class_validation_graph_aborts(self, small_csbm, labels, edges):
        # two node classes, but every validation edge has the same edge label
        train, _ = small_csbm
        val = LabeledGraph(num_nodes=4, edges=np.array(edges), features=np.eye(4, 8),
                           labels=np.array(labels), num_classes=2)
        _, val_labels, _ = build_edge_training_set(val)
        assert val_labels.min() == val_labels.max()
        with pytest.raises(ValueError, match="validation graph has a single edge class"):
            train_homophily_predictor(train, val, ArchitectureSpec.default("gcn", 8, 8))

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
        assert all(line.startswith(f"{trained_as} epoch {i}: loss ") and metric in line
                   for i, line in enumerate(epochs, start=1))
        assert summary == [
            f"trained {trained_as}: {meta['epochs_run']} epochs, best epoch "
            f"{meta['best_epoch']}, {metric} {meta[metric]:.6g}, stopped by {stop}"
        ]
        assert meta["epochs_run"] == (5 if stop == "max_epochs" else 3)
        assert "stop" not in meta


def reference_fit(spec, optimizer, seed, graph, loss_and_grad, val_metric, metric_name,
                  metadata):
    """Training as a plain loop over the public pieces, kept as oracle:
    forward, loss and its output gradient, backward, one Adam step, then the
    validation metric, the best parameters kept, patience and max-epochs
    stopping."""
    agg = MeanAggregator(graph, self_loops=True) if spec.kind == "gcn" else None
    params = init_params(spec, seed)
    adam = AdamState.for_params(params, optimizer.learning_rate)
    best_params, best_metric, best_epoch = dict(params), val_metric(params), 0
    losses, bad_epochs = [], 0
    for epoch in range(1, optimizer.max_epochs + 1):
        out, cache = network_forward(spec, params, graph.features, agg, with_cache=True)
        loss, grad_out = loss_and_grad(out)
        params = adam_step(params, network_backward(spec, params, cache, grad_out, agg), adam)
        losses.append(loss)
        metric = val_metric(params)
        if metric > best_metric:
            best_params, best_metric, best_epoch, bad_epochs = dict(params), metric, epoch, 0
        else:
            bad_epochs += 1
            if bad_epochs >= optimizer.patience:
                break
    return Checkpoint(spec=spec, params=best_params, metadata=metadata | {
        "seed": seed, "epochs_run": epoch, "best_epoch": best_epoch, metric_name: best_metric,
        "loss_tail": losses[-10:], "optimizer": asdict(optimizer)})


def reference_classifier(train, val, spec, optimizer, seed):
    val_agg = MeanAggregator(val, self_loops=True) if spec.kind == "gcn" else None

    def val_accuracy(params):
        logits = network_forward(spec, params, val.features, val_agg)
        return accuracy(np.argmax(logits, axis=1), val.labels)

    return reference_fit(spec, optimizer, seed, train,
                         lambda logits: cross_entropy_loss(logits, train.labels),
                         val_accuracy, "val_accuracy", {"trained_as": "classifier"})


def reference_predictor(train, val, spec, optimizer, seed, loss):
    edges, labels, alpha = build_edge_training_set(train)
    if val is None:
        fit_idx, held_idx = _holdout_split(labels, 0.1, seed)
        fit_edges, fit_labels = edges[fit_idx], labels[fit_idx]
        val, (val_edges, val_labels) = train, (edges[held_idx], labels[held_idx])
    else:
        fit_edges, fit_labels = edges, labels
        val_edges, val_labels, _ = build_edge_training_set(val)
    val_agg = MeanAggregator(val, self_loops=True) if spec.kind == "gcn" else None

    def loss_and_grad(z):
        scores, ctx = _edge_scores_with_cache(z, fit_edges)
        value, grad_scores = (wbce_loss(scores, fit_labels, alpha) if loss == "wbce"
                              else bce_loss(scores, fit_labels))
        return value, _edge_scores_backward(grad_scores, fit_edges, scores, ctx,
                                            train.num_nodes, spec.output_dim)

    def val_auc(params):
        z = network_forward(spec, params, val.features, val_agg)
        return roc_auc(_edge_scores_with_cache(z, val_edges)[0], val_labels.astype(np.int64))

    return reference_fit(spec, optimizer, seed, train, loss_and_grad, val_auc, "val_roc_auc",
                         {"trained_as": "predictor", "alpha": alpha, "loss": loss})


def assert_same_checkpoint(got, want):
    assert got.spec == want.spec
    assert got.params.keys() == want.params.keys()
    for name in want.params:
        assert got.params[name].tobytes() == want.params[name].tobytes(), name
    assert got.metadata == want.metadata
    assert repr(got.metadata) == repr(want.metadata)  # floats bit for bit, types alike


# (optimizer, how it stops): the loop must end both ways
OPTIMIZERS = [(OptimizerConfig(max_epochs=12, patience=50), "max_epochs"),
              (OptimizerConfig(learning_rate=0.05, max_epochs=300, patience=4), "patience")]


class TestTrainingLoopOracle:
    """The trainers equal the plain reference loop checkpoint for checkpoint,
    bit for bit, metadata included."""

    @pytest.mark.parametrize("optimizer, stop", OPTIMIZERS, ids=["max-epochs", "patience"])
    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    def test_classifier(self, small_csbm, kind, optimizer, stop):
        train, val = small_csbm
        spec = ArchitectureSpec.default(kind, 8, 2, hidden=16)
        got = train_classifier(train, val, spec, optimizer, seed=3)
        assert_same_checkpoint(got, reference_classifier(train, val, spec, optimizer, 3))
        assert (got.metadata["epochs_run"] < optimizer.max_epochs) == (stop == "patience")

    @pytest.mark.parametrize("optimizer, stop", OPTIMIZERS, ids=["max-epochs", "patience"])
    @pytest.mark.parametrize("validation", ["graph", "holdout"])
    @pytest.mark.parametrize("loss", ["wbce", "bce"])
    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    def test_predictor(self, small_csbm, kind, loss, validation, optimizer, stop):
        train, val = small_csbm
        val = val if validation == "graph" else None
        spec = ArchitectureSpec.default(kind, 8, 16, hidden=16)
        got = train_homophily_predictor(train, val, spec, optimizer, seed=3, loss=loss)
        want = reference_predictor(train, val, spec, optimizer, 3, loss)
        assert_same_checkpoint(got, want)
        assert (got.metadata["epochs_run"] < optimizer.max_epochs) == (stop == "patience")

    @pytest.mark.parametrize("loss", [None, "wbce", "bce"], ids=["classifier", "wbce", "bce"])
    def test_non_finite_loss_raises_before_backward(self, small_csbm, monkeypatch, loss):
        train, val = small_csbm
        calls = []

        def record(name, poison_at=None):
            fn = getattr(models, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                result = fn(*args, **kwargs)
                return (float("nan"), result[1]) if calls.count(name) == poison_at else result

            monkeypatch.setattr(models, name, wrapper)

        loss_name = "cross_entropy_loss" if loss is None else f"{loss}_loss"
        record(loss_name, poison_at=3)
        record("network_backward")
        record("_edge_scores_backward")
        optimizer = OptimizerConfig(max_epochs=10, patience=50)
        with pytest.raises(RuntimeError,
                           match=r"^training diverged: loss is not finite at epoch 3$"):
            if loss is None:
                train_classifier(train, val, ArchitectureSpec.default("gcn", 8, 2), optimizer)
            else:
                train_homophily_predictor(train, val, ArchitectureSpec.default("gcn", 8, 8),
                                          optimizer, loss=loss)
        # epochs 1 and 2 ran their backward passes; epoch 3 stopped at its loss
        assert calls[-1] == loss_name and calls.count(loss_name) == 3
        assert calls.count("network_backward") == 2
        assert calls.count("_edge_scores_backward") == (0 if loss is None else 2)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_table_rejects_non_finite_naming_the_first(self, bad):
        with pytest.raises(ValueError, match=rf"scores\[1\] = {bad} is not finite"):
            EdgeScoreTable(scores=np.array([0.5, bad, np.nan]))


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
    @pytest.mark.parametrize("n", [500, 3000])  # blocks of n and of _EDGE_BLOCK edges
    def test_bit_identical_to_unblocked(self, num_edges, dim, n):
        rng = np.random.default_rng(num_edges)
        edges = rng.integers(0, n, size=(num_edges, 2))
        z = rng.standard_normal((n, dim))
        z[::7] = 0.0  # zero-norm rows score cos 0
        want = edge_cosines_unblocked(z, edges)  # before the head normalizes z in place
        _, ctx = _edge_scores_with_cache(z, edges)
        assert ctx["cos"].shape == (num_edges,)
        assert np.array_equal(ctx["cos"], want)

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

    def test_scoring_peak_two_hidden_arrays_over_the_operator(self):
        # 2 x 10k nodes, hidden 64: the hidden layer's product goes into its
        # dead input, and the head normalizes the embeddings in place once
        # the operator is gone (36.1 MB here with three hidden arrays and a
        # second unit copy).
        graph = csbm_20k()
        spec = ArchitectureSpec.default("gcn", 16, 64, hidden=64)
        ckpt = Checkpoint(spec=spec, params=init_params(spec, seed=0))
        operator = csr_bytes(MeanAggregator(graph, self_loops=True)._mat)
        table, peak = traced_peak(lambda: edge_homophily_scores(ckpt, graph))
        assert len(table) == graph.num_edges
        assert peak <= operator + 2 * graph.num_nodes * 64 * 8 + 2**20


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

    @pytest.mark.parametrize("held_out", [False, True], ids=["all-edges", "holdout"])
    def test_shared_pattern_gives_the_old_adjacency_bits(self, rng, held_out):
        # the backward's A as nn.EdgeAdjacency built it, kept as oracle:
        # scipy's CSR over the fit edges alone, with no self loops. The
        # aggregator's pattern adds zeros there and at held-out edges, which
        # change no bit of the gradient.
        n = 200
        pairs = rng.integers(0, n, size=(1500, 2))
        g = LabeledGraph(num_nodes=n, edges=pairs[pairs[:, 0] != pairs[:, 1]])
        fit_idx = (np.sort(rng.choice(g.num_edges, g.num_edges * 9 // 10, replace=False))
                   if held_out else slice(None))
        fit_edges = g.edges[fit_idx]
        adjacency = EdgeMatrix(g.edges, n, fit_idx, MeanAggregator(g, self_loops=True))
        z = rng.standard_normal((n, 8))
        z[5] = 0.0  # the zero-norm convention
        scores, ctx = _edge_scores_with_cache(z, fit_edges)
        for _ in range(2):  # a second fill leaves nothing of the first
            grad = rng.standard_normal(len(fit_edges))
            grad[::3] = -0.0
            got = _edge_scores_backward(grad, fit_edges, scores, ctx, n, 8, adjacency)
            grad_cos = grad * scores * (1.0 - scores)
            src, dst = fit_edges[:, 0], fit_edges[:, 1]
            oracle = scipy.sparse.csr_matrix(
                (np.concatenate([grad_cos, grad_cos]),
                 (np.concatenate([src, dst]), np.concatenate([dst, src]))),
                shape=(n, n),
            )
            oracle.sort_indices()
            filled = adjacency.matrix
            dense = scipy.sparse.csr_matrix((filled.data, filled.indices, filled.indptr),
                                            shape=(n, n)).toarray()
            assert np.array_equal(dense, oracle.toarray())
            want = oracle @ ctx["unit"]
            want -= np.einsum("ij,ij->i", want, ctx["unit"])[:, None] * ctx["unit"]
            want /= ctx["safe"][:, None]
            want[ctx["norms"] == 0.0] = 0.0
            assert got.tobytes() == want.tobytes()


class TestOnePatternPerGraph:
    """A predictor fit runs the COO -> CSR build once per graph it needs a
    pattern of: a GCN's aggregators serve the forward product, the adjoint
    and the edge matrix; an MLP builds its training graph's pattern for the
    edge matrix alone, and aggregates nothing on its validation graph."""

    @pytest.mark.parametrize("validation, builds", [
        ("graph", {"gcn": 2, "mlp": 1}),
        ("holdout", {"gcn": 1, "mlp": 1}),
    ])
    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    def test_coo_tocsr_calls_per_fit(self, small_csbm, monkeypatch, kind, validation, builds):
        kernels, calls = nn._sparsetools(), []

        class Counting:
            def __getattr__(self, name):
                if name == "coo_tocsr":
                    calls.append(name)
                return getattr(kernels, name)

        monkeypatch.setattr(nn, "_kernels", Counting())
        train, val = small_csbm
        spec = ArchitectureSpec.default(kind, 8, 16, hidden=16)
        train_homophily_predictor(train, val if validation == "graph" else None, spec,
                                  OptimizerConfig(max_epochs=3))
        assert len(calls) == builds[kind]


class TestNonFiniteEmbeddings:
    """An overflowing embedding is refused by the edge head with one typed
    error naming the quantity, and no numpy warning (tier-1 turns warnings
    into errors)."""

    @pytest.mark.parametrize("row", [[1e300, 1.0], [np.inf, 0.0], [np.nan, 1.0]],
                             ids=["overflowing-norm", "inf", "nan"])
    def test_head_refuses_naming_the_node(self, row):
        z = np.ones((4, 2))
        z[2] = row
        with pytest.raises(NonFiniteError, match=r"^the embedding norm of node 2 is \S+, "
                                                 r"not finite$"):
            _edge_scores_with_cache(z, np.array([[0, 1], [1, 2]]))
        assert issubclass(NonFiniteError, ValueError)

    def test_overflowing_checkpoint_refused_by_scoring(self, small_csbm):
        train, _ = small_csbm
        spec = ArchitectureSpec.default("gcn", 8, 16)
        params = init_params(spec, seed=0)
        params["W0"][0, 0] = 1e300
        with pytest.raises(NonFiniteError, match="embedding norm"):
            edge_homophily_scores(Checkpoint(spec=spec, params=params), train)


class TestNonFiniteLogits:
    """Logits that are not finite are refused with one typed error naming the
    logit and the input they came from, and no numpy warning."""

    @pytest.mark.parametrize("scale", [1e308, 1e200])
    def test_classifier_logits_refused(self, small_csbm, trained_classifier, scale):
        train, _ = small_csbm
        params = {name: value * (scale if name.startswith("W") else 1.0)
                  for name, value in trained_classifier.params.items()}
        with pytest.raises(NonFiniteError, match=r"^logit \d of node \d+ is (-?inf|nan), "
                                                 r"not finite$") as caught:
            classifier_logits(Checkpoint(trained_classifier.spec, params), train)
        assert caught.value.source == "classifier"

    def test_finite_logits_unchanged(self, small_csbm, trained_classifier):
        train, _ = small_csbm
        spec, params = trained_classifier.spec, trained_classifier.params
        want = network_forward(spec, params, train.features,
                               MeanAggregator(train, self_loops=True))
        assert np.array_equal(classifier_logits(trained_classifier, train), want)


def _scaled(graph, factor):
    return graph.with_features(graph.features * factor)


class TestNonFiniteTraining:
    """A pass that overflows in training names the graph it ran on."""

    def test_classifier_adam_overflow_names_the_training_graph(self, small_csbm):
        train, val = small_csbm
        with pytest.raises(NonFiniteError, match="^Adam's second moment of W0 ") as caught:
            train_classifier(_scaled(train, 1e300), val, ArchitectureSpec.default("gcn", 8, 2),
                             OptimizerConfig(max_epochs=3))
        assert caught.value.source == "train_graph"

    def test_classifier_loss_overflow_names_the_training_graph(self):
        # one feature at 1.6e308 everywhere: the logits stay finite, and the
        # loss's mean overflows
        params = symmetric_binary_params(2.0, 1, (60, 60), 0.1, 0.02)
        train, val = generate_csbm(params, 1), generate_csbm(params, 2)
        with pytest.raises(NonFiniteError, match=r"^the cross-entropy loss overflows \(") as caught:
            train_classifier(train.with_features(np.full_like(train.features, 1.6e308)), val,
                             ArchitectureSpec.default("gcn", 1, 2), OptimizerConfig(max_epochs=3))
        assert caught.value.source == "train_graph"

    def test_classifier_training_logits_overflow_names_the_training_graph(self, small_csbm):
        train, val = small_csbm
        with pytest.raises(NonFiniteError, match="^logit ") as caught:
            # every feature at max float: the training pass's first sums overflow
            train_classifier(train.with_features(np.full_like(train.features, 1.7e308)), val,
                             ArchitectureSpec.default("gcn", 8, 2), OptimizerConfig(max_epochs=3))
        assert caught.value.source == "train_graph"

    def test_classifier_validation_overflow_names_the_validation_graph(self, small_csbm):
        train, val = small_csbm
        with pytest.raises(NonFiniteError, match="^logit ") as caught:
            # every feature at max float: the first layer's sums overflow
            train_classifier(train, val.with_features(np.full_like(val.features, 1.7e308)),
                             ArchitectureSpec.default("gcn", 8, 2), OptimizerConfig(max_epochs=3))
        assert caught.value.source == "val_graph"

    @pytest.mark.parametrize("big, source", [("train", "train_graph"), ("val", "val_graph"),
                                             ("holdout", "train_graph")])
    def test_predictor_overflow_names_the_graph(self, small_csbm, big, source):
        train, val = small_csbm
        graphs = {"train": (_scaled(train, 1e300), val), "val": (train, _scaled(val, 1e300)),
                  "holdout": (_scaled(train, 1e300), None)}[big]
        with pytest.raises(NonFiniteError, match="^the embedding norm of node ") as caught:
            train_homophily_predictor(*graphs, ArchitectureSpec.default("gcn", 8, 8),
                                      OptimizerConfig(max_epochs=3))
        assert caught.value.source == source


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


class TestEdgeHeadBuffers:
    """The head gathers each block into two buffers made once per call: edge
    ids outside [0, len(z)) are refused before anything is read, and the
    cosines keep the bits of the whole-array product."""

    @pytest.mark.parametrize("bad_edge", [[0, 5], [5, 0], [1, 9], [-1, 2], [2, -5]])
    def test_edge_id_outside_the_nodes_is_refused_before_any_gather(self, bad_edge):
        z = np.arange(10.0).reshape(5, 2)
        kept = z.copy()
        edges = np.array([[0, 1], bad_edge, [2, 3]])
        want = rf"^edge \({bad_edge[0]}, {bad_edge[1]}\) references a node outside \[0, 5\)$"
        with pytest.raises(IndexError, match=want):
            _edge_scores_with_cache(z, edges)
        assert np.array_equal(z, kept)  # not normalized: nothing was read or written

    def test_refusal_names_the_first_bad_edge(self):
        edges = np.array([[0, 1], [0, 7], [-2, 1]])
        with pytest.raises(IndexError, match=r"^edge \(0, 7\)"):
            _edge_scores_with_cache(np.ones((3, 2)), edges)

    def test_edges_on_an_empty_embedding_are_refused(self):
        with pytest.raises(IndexError, match=r"outside \[0, 0\)$"):
            _edge_scores_with_cache(np.empty((0, 4)), np.array([[0, 0]]))

    @pytest.mark.parametrize("extra", [-1, 0, 1])  # edge counts around the node cap
    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("n", [7, 500, 2 * _EDGE_BLOCK + 5])
    def test_overwriting_head_is_bit_identical_to_unblocked(self, extra, dim, n):
        rng = np.random.default_rng(n + extra)
        edges = rng.integers(0, n, size=(n + extra, 2))
        edges[0] = (0, n - 1)  # both ends of the id range
        z = rng.standard_normal((n, dim))
        z[::5] = 0.0  # zero-norm rows score cos 0
        want = edge_cosines_unblocked(z, edges)
        norms = np.linalg.norm(z, axis=1)
        scores, ctx = _edge_scores_with_cache(z, edges)
        assert ctx["unit"] is z
        assert ctx["norms"].tobytes() == norms.tobytes()
        assert ctx["cos"].tobytes() == want.tobytes()
        assert scores.tobytes() == nn.sigmoid(want).tobytes()


class TestPublicRefusals:
    """Each refusal below is reached through its public input, with its
    message pinned."""

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="^unknown activation 'tanh'$"):
            ArchitectureSpec(kind="gcn", layer_dims=(2, 4, 2), activation="tanh")

    def test_gcn_forward_needs_an_aggregator(self):
        spec = ArchitectureSpec.default("gcn", 2, 2)
        with pytest.raises(ValueError, match="^gcn forward pass needs an aggregator$"):
            network_forward(spec, init_params(spec, seed=0), np.ones((3, 2)), None)

    def test_edge_training_set_of_an_edgeless_graph(self):
        graph = LabeledGraph(num_nodes=2, edges=np.empty((0, 2), dtype=np.int64),
                             features=np.ones((2, 2)), labels=np.array([0, 1]))
        with pytest.raises(ValueError, match="^edge training set needs at least one edge$"):
            build_edge_training_set(graph)

    def test_holdout_needs_two_edges_of_each_class(self):
        # two homophilic edges and one heterophilic: alpha = 1/3, but no
        # heterophilic edge is left to train on once one is held out
        graph = LabeledGraph(num_nodes=4, edges=np.array([[0, 1], [1, 2], [2, 3]]),
                             features=np.eye(4)[:, :2], labels=np.array([0, 0, 1, 1]))
        spec = ArchitectureSpec.default("gcn", 2, 2)
        with pytest.raises(ValueError, match="^too few edges of one class to hold out "
                                             "predictor validation$"):
            train_homophily_predictor(graph, None, spec, OptimizerConfig(max_epochs=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_checkpoint_tensor_that_is_not_finite(self, tmp_path, bad):
        spec = ArchitectureSpec.default("gcn", 2, 2)
        params = init_params(spec, seed=0)
        params["b1"][1] = bad
        path = tmp_path / "ckpt.json"
        save_checkpoint(Checkpoint(spec=spec, params=params), path)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: tensor 'b1' contains NaN or Inf"
