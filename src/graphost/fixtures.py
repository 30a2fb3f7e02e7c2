"""Standard desk-scale benchmark fixtures: a CSBM family, trained classifier
and homophily predictor, and per-seed noisy test samples.

Feature noise models test-time attribute shift: N(0, 0.5 I) on top of the
unit-variance class Gaussians. The noise, the hidden width and the
predictor loss are the constants below; the learning rate, the filtering
ratio and the predictor's depth are the library defaults of
``OptimizerConfig``, ``TransformConfig`` and ``ArchitectureSpec.default``.
``make_fixture`` takes the CSBM family, the seed, the classifier depth, the
predictor width and the training length.

``train_networks`` is the one training step of ``make_fixture`` and of
``graphost train``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .csbm import (CsbmParams, derive_seed, generate_csbm, perturb_features,
                   symmetric_binary_params)
from .graphs import LabeledGraph
from .models import (
    ArchitectureSpec,
    Checkpoint,
    OptimizerConfig,
    train_classifier,
    train_homophily_predictor,
)
from .transform import TransformConfig, resolve_mode
from .workers import map_in_order

__all__ = ["TrainedFixture", "make_fixture", "train_networks"]

NOISE_STD = math.sqrt(0.5)
HIDDEN = 32
PREDICTOR_LOSS = "wbce"


@dataclass(frozen=True)
class TrainedFixture:
    params: CsbmParams
    base_seed: int
    train_graph: LabeledGraph
    val_graph: LabeledGraph
    classifier: Checkpoint
    predictor: Checkpoint
    mode: str
    config: TransformConfig

    def test_graph(self, seed: int) -> LabeledGraph:
        """Fresh test sample for one experiment seed: a new CSBM draw plus
        feature noise, independent of the training graphs."""
        clean = generate_csbm(self.params, derive_seed(self.base_seed, 100 + seed))
        return perturb_features(
            clean, NOISE_STD, derive_seed(self.base_seed, 7_000_000 + seed)
        )


def train_networks(train_graph: LabeledGraph, val_graph: LabeledGraph,
                   specs: dict[str, ArchitectureSpec], optimizer: OptimizerConfig,
                   seeds: dict[str, int], loss: str) -> dict[str, Checkpoint]:
    """{name: Checkpoint} for each network `specs` names ("classifier",
    "predictor"), in the order given: each trained on train_graph from its
    spec and its seed in `seeds`, early-stopped on val_graph; `loss` is the
    predictor's. The trainings are independent, so they may run side by
    side. Every training goes through this module's `train_classifier` and
    `train_homophily_predictor`, looked up at call time."""
    trainers = {"classifier": train_classifier,
                "predictor": functools.partial(train_homophily_predictor, loss=loss)}
    return dict(zip(specs, map_in_order(
        lambda name: trainers[name](train_graph, val_graph, specs[name], optimizer, seeds[name]),
        specs)))


def make_fixture(
    intra_prob: float = 0.05,
    inter_prob: float = 0.02,
    nodes_per_class: int = 300,
    mean_distance: float = 2.0,
    feature_dim: int = 16,
    seed: int = 0,
    num_layers: int = 2,
    predictor_hidden: int | None = None,
    max_epochs: int = 400,
    patience: int = 50,
) -> TrainedFixture:
    params = symmetric_binary_params(
        mean_distance=mean_distance,
        feature_dim=feature_dim,
        class_sizes=(nodes_per_class, nodes_per_class),
        intra_prob=intra_prob,
        inter_prob=inter_prob,
    )
    train_graph = generate_csbm(params, derive_seed(seed, 0))
    val_graph = generate_csbm(params, derive_seed(seed, 1))
    optimizer = OptimizerConfig(max_epochs=max_epochs, patience=patience)
    p_hidden = HIDDEN if predictor_hidden is None else predictor_hidden
    specs = {"classifier": ArchitectureSpec.default("gcn", feature_dim, 2, HIDDEN, num_layers),
             "predictor": ArchitectureSpec.default("gcn", feature_dim, p_hidden, p_hidden)}
    seeds = {"classifier": derive_seed(seed, 2), "predictor": derive_seed(seed, 3)}
    classifier, predictor = train_networks(train_graph, val_graph, specs, optimizer, seeds,
                                           PREDICTOR_LOSS).values()
    mode = resolve_mode(predictor)
    return TrainedFixture(
        params=params,
        base_seed=seed,
        train_graph=train_graph,
        val_graph=val_graph,
        classifier=classifier,
        predictor=predictor,
        mode=mode,
        config=TransformConfig(mode=mode),
    )
