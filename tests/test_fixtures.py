"""The one training path: `make_fixture` and `graphost train` fit their
networks through `fixtures.train_networks`, and so through this module's
`train_classifier` / `train_homophily_predictor` bindings."""

import numpy as np
import pytest

import graphost.fixtures as fixtures
from graphost.cli import main
from graphost.experiments import derive_seed
from graphost.graphs import load_graph
from graphost.models import ArchitectureSpec, OptimizerConfig


@pytest.fixture
def trainings(monkeypatch):
    """Each training made through graphost.fixtures' bindings, as
    (network, spec, seed), in call order; the trainings themselves run."""
    calls = []

    def recorded(network, train):
        def call(train_graph, val_graph, spec, optimizer, seed, **kwargs):
            calls.append((network, spec, seed))
            return train(train_graph, val_graph, spec, optimizer, seed, **kwargs)
        return call

    monkeypatch.setattr(fixtures, "train_classifier",
                        recorded("classifier", fixtures.train_classifier))
    monkeypatch.setattr(fixtures, "train_homophily_predictor",
                        recorded("predictor", fixtures.train_homophily_predictor))
    return calls


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--p", "0.06", "--q", "0.02", "--sizes", "40,40", "--dim", "4",
                 "--seed", "5", "--out", str(out)]) == 0
    return out


def test_make_fixture_trains_through_the_bindings(trainings):
    fx = fixtures.make_fixture(nodes_per_class=40, max_epochs=3, patience=2, seed=4,
                               predictor_hidden=8)
    assert sorted(trainings, key=lambda call: call[0]) == [
        ("classifier", ArchitectureSpec.default("gcn", 16, 2, fixtures.HIDDEN, 2),
         derive_seed(4, 2)),
        ("predictor", ArchitectureSpec.default(fixtures.PREDICTOR_KIND, 16, 8, 8,
                                               fixtures.PREDICTOR_LAYERS), derive_seed(4, 3)),
    ]
    assert fx.classifier.metadata["trained_as"] == "classifier"
    assert fx.predictor.metadata["loss"] == fixtures.PREDICTOR_LOSS


@pytest.mark.parametrize("target, networks", [
    ("classifier", ["classifier"]),
    ("predictor", ["predictor"]),
    ("both", ["classifier", "predictor"]),
])
def test_cli_train_trains_only_the_target(data, tmp_path, trainings, target, networks):
    assert main(["train", "--train-graph", str(data / "train.json"), "--val-graph",
                 str(data / "val.json"), "--target", target, "--epochs", "3",
                 "--hidden", "6", "--seed", "9", "--out", str(tmp_path)]) == 0
    assert sorted(network for network, _, _ in trainings) == networks
    assert all(seed == 9 for _, _, seed in trainings)
    written = [name for name in ("classifier", "predictor")
               if (tmp_path / f"{name}.json").exists()]
    assert written == networks


def test_train_networks_returns_the_networks_in_the_order_given(data):
    train, val = load_graph(data / "train.json"), load_graph(data / "val.json")
    specs = {"predictor": ArchitectureSpec.default("mlp", 4, 5, 5, 2),
             "classifier": ArchitectureSpec.default("gcn", 4, 2, 5, 2)}
    optimizer = OptimizerConfig(max_epochs=2, patience=1)
    networks = fixtures.train_networks(train, val, specs, optimizer,
                                       {"predictor": 1, "classifier": 2}, "bce")
    assert list(networks) == ["predictor", "classifier"]
    assert networks["predictor"].metadata["loss"] == "bce"
    assert networks["predictor"].metadata["seed"] == 1
    assert networks["classifier"].metadata["seed"] == 2
    alone = fixtures.train_networks(train, val, {"classifier": specs["classifier"]}, optimizer,
                                    {"classifier": 2}, "wbce")
    assert list(alone) == ["classifier"]
    for name, tensor in alone["classifier"].params.items():
        assert np.array_equal(tensor, networks["classifier"].params[name])
