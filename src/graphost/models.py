"""The two networks: a fixed GNN classifier and the homophily predictor.

Both are stacks of dense layers; the "gcn" kind aggregates node features
over neighbours (weighted mean with a unit self-loop) before each affine
map, the "mlp" kind skips aggregation. Backpropagation is hand-derived.
The predictor's output head is fixed: sigmoid(cosine(z_i, z_j)) on the
encoder embeddings of an edge's endpoints -- its only learned parameters
are the encoder's.

The head never builds an (E, d) array. Its forward pass takes the cosines
as row dots of unit embeddings over fixed blocks of edges, so memory stays
O(n d + E) and every cosine equals the one-shot row sum bit for bit. Its
backward pass sums each node's cosine gradients in closed form: with G =
A @ unit, A the symmetric n x n matrix of per-edge gradients, a node's
gradient is the part of G_u tangent to its unit vector, divided by |z_u|
-- one sparse product plus O(n d) work.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator

import numpy as np
import scipy.sparse as sp

from .graphs import LabeledGraph
from .metrics import accuracy, roc_auc
from .nn import (
    AdamState,
    MeanAggregator,
    _ACTIVATIONS,
    adam_step,
    bce_loss,
    cross_entropy_loss,
    sigmoid,
    softmax,
    wbce_loss,
)

__all__ = [
    "ArchitectureSpec",
    "OptimizerConfig",
    "Checkpoint",
    "CheckpointError",
    "EdgeScoreTable",
    "init_params",
    "network_forward",
    "train_classifier",
    "classifier_logits",
    "predict_labels",
    "build_edge_training_set",
    "train_homophily_predictor",
    "edge_homophily_scores",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1

log = logging.getLogger(__name__)

# Edges per row block of the cosine head; bounds its temporaries to
# _EDGE_BLOCK x d floats whatever the edge count.
_EDGE_BLOCK = 1024


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer plan: layer_dims runs input -> hidden... -> output; relu on
    hidden layers, identity on the last."""

    kind: str
    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in ("gcn", "mlp"):
            raise ValueError(f"kind must be 'gcn' or 'mlp', got {self.kind!r}")
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 3:
            raise ValueError("need at least two layers (three dimension entries)")
        if any(d < 1 for d in dims):
            raise ValueError("layer dimensions must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layer_dims": list(self.layer_dims),
            "activation": self.activation,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchitectureSpec":
        return cls(
            kind=doc["kind"],
            layer_dims=tuple(doc["layer_dims"]),
            activation=doc.get("activation", "relu"),
        )

    @classmethod
    def default(cls, kind: str, input_dim: int, output_dim: int,
                hidden: int = 32, num_layers: int = 2) -> "ArchitectureSpec":
        dims = (input_dim,) + (hidden,) * (num_layers - 1) + (output_dim,)
        return cls(kind=kind, layer_dims=dims)


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-2
    max_epochs: int = 1000
    patience: int = 50

    def __post_init__(self):
        # A learning rate of 0 is legal: it keeps the initial parameters.
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
        }


@dataclass(frozen=True)
class EdgeScoreTable:
    """Per-edge homophily confidence, aligned with the canonical edge list."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.scores)


@dataclass
class Checkpoint:
    spec: ArchitectureSpec
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def init_params(spec: ArchitectureSpec, seed: int) -> dict[str, np.ndarray]:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights and biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for layer in range(spec.num_layers):
        fan_in, fan_out = spec.layer_dims[layer], spec.layer_dims[layer + 1]
        bound = 1.0 / np.sqrt(fan_in)
        params[f"W{layer}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{layer}"] = rng.uniform(-bound, bound, size=fan_out)
    return params


def _layer_activations(spec: ArchitectureSpec) -> list[str]:
    return [spec.activation] * (spec.num_layers - 1) + ["identity"]


def network_forward(
    spec: ArchitectureSpec,
    params: dict[str, np.ndarray],
    features: np.ndarray,
    aggregator: MeanAggregator | None,
    with_cache: bool = False,
):
    """Forward pass; returns output or (output, cache) for backprop.

    aggregator is required for kind="gcn" and ignored for "mlp".
    """
    if spec.kind == "gcn" and aggregator is None:
        raise ValueError("gcn forward pass needs an aggregator")
    h = np.asarray(features, dtype=np.float64)
    if h.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dim {h.shape[1]} does not match spec input {spec.input_dim}"
        )
    cache: list[dict] = []
    for layer, act_name in enumerate(_layer_activations(spec)):
        act, _ = _ACTIVATIONS[act_name]
        agg_in = aggregator.apply(h) if spec.kind == "gcn" else h
        pre = agg_in @ params[f"W{layer}"] + params[f"b{layer}"]
        if with_cache:
            cache.append({"agg_in": agg_in, "pre": pre, "act": act_name})
        h = act(pre)
    return (h, cache) if with_cache else h


def network_backward(
    spec: ArchitectureSpec,
    params: dict[str, np.ndarray],
    cache: list[dict],
    grad_out: np.ndarray,
    aggregator: MeanAggregator | None,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all parameters, given d(loss)/d(output)."""
    grads: dict[str, np.ndarray] = {}
    g = grad_out
    for layer in reversed(range(spec.num_layers)):
        entry = cache[layer]
        _, act_grad = _ACTIVATIONS[entry["act"]]
        g_pre = g * act_grad(entry["pre"])
        grads[f"W{layer}"] = entry["agg_in"].T @ g_pre
        grads[f"b{layer}"] = g_pre.sum(axis=0)
        g = g_pre @ params[f"W{layer}"].T
        if spec.kind == "gcn":
            g = aggregator.adjoint(g)
    return grads


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _fit(
    spec: ArchitectureSpec, optimizer: OptimizerConfig, seed: int, passes: Generator,
    val_metric: Callable[[dict], float], metric_name: str, metadata: dict,
) -> Checkpoint:
    """Adam from init_params(spec, seed), early-stopped when val_metric has
    not improved for `patience` epochs; keeps the best parameters.

    `passes` is the trainer's generator of training passes. Each epoch it
    is sent the parameters and yields the forward pass's loss, then on
    next() that pass's gradients, so a non-finite loss stops before backprop.
    Its locals live until the next epoch overwrites them, as a plain loop's
    would: freeing each pass's arrays sooner tripled the page faults of
    predictor training.
    """
    params = init_params(spec, seed)
    adam = AdamState.for_params(params, optimizer.learning_rate)
    best_params = _copy_params(params)
    best_metric = val_metric(params)
    best_epoch = 0
    bad_epochs = 0
    loss_tail: list[float] = []
    stop = "max_epochs"
    next(passes)
    for epoch in range(1, optimizer.max_epochs + 1):
        loss = passes.send(params)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: loss is not finite at epoch {epoch}")
        grads = next(passes)
        params = adam_step(params, grads, adam)
        loss_tail = (loss_tail + [loss])[-10:]
        metric = val_metric(params)
        log.debug("epoch %d: loss %.6g, %s %.6g", epoch, loss, metric_name, metric)
        if metric > best_metric:
            best_metric, best_params, best_epoch = metric, _copy_params(params), epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= optimizer.patience:
                stop = "patience"
                break
    log.info("trained %s: %d epochs, best epoch %d, %s %.6g, stopped by %s",
             metadata["trained_as"], epoch, best_epoch, metric_name, best_metric, stop)
    return Checkpoint(
        spec=spec,
        params=best_params,
        metadata=metadata | {
            "seed": seed,
            "epochs_run": epoch,
            "best_epoch": best_epoch,
            metric_name: best_metric,
            "loss_tail": loss_tail,
            "optimizer": optimizer.to_dict(),
        },
    )


def train_classifier(
    train_graph: LabeledGraph,
    val_graph: LabeledGraph,
    spec: ArchitectureSpec,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
) -> Checkpoint:
    """Cross-entropy training with Adam, early-stopped on validation accuracy.

    Returns the parameters that scored best on the validation graph.
    """
    if train_graph.labels is None or val_graph.labels is None:
        raise ValueError("classifier training needs labeled train and val graphs")
    train_agg = MeanAggregator(train_graph, self_loops=True) if spec.kind == "gcn" else None
    val_agg = MeanAggregator(val_graph, self_loops=True) if spec.kind == "gcn" else None

    def training_passes():
        p = yield
        while True:
            logits, cache = network_forward(
                spec, p, train_graph.features, train_agg, with_cache=True
            )
            loss, grad_logits = cross_entropy_loss(logits, train_graph.labels)
            yield loss
            grads = network_backward(spec, p, cache, grad_logits, train_agg)
            p = yield grads

    def val_accuracy(p):
        logits = network_forward(spec, p, val_graph.features, val_agg)
        return accuracy(np.argmax(logits, axis=1), val_graph.labels)

    return _fit(spec, optimizer, seed, training_passes(), val_accuracy, "val_accuracy",
                {"trained_as": "classifier"})


def classifier_logits(
    checkpoint: Checkpoint,
    graph: LabeledGraph,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Pure forward pass -> (n, c) logits; weights of 1 equal no weights."""
    spec = checkpoint.spec
    agg = (
        MeanAggregator(graph, edge_weights, self_loops=True)
        if spec.kind == "gcn"
        else None
    )
    return network_forward(spec, checkpoint.params, graph.features, agg)


def predict_labels(
    checkpoint: Checkpoint,
    graph: LabeledGraph,
    edge_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Argmax over softmax rows; ties resolve to the lowest class index."""
    logits = classifier_logits(checkpoint, graph, edge_weights)
    probs = softmax(logits)
    return np.argmax(probs, axis=1), probs


def build_edge_training_set(
    train_graph: LabeledGraph,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Edge labels for predictor training: 1 when endpoints share a class.

    alpha is the heterophilic (minority-in-homophilic-graphs) edge fraction
    |E_het| / |E|, the weight put on the homophilic term of the WBCE loss.
    """
    if train_graph.labels is None:
        raise ValueError("edge training set needs node labels")
    if train_graph.num_edges == 0:
        raise ValueError("edge training set needs at least one edge")
    y = train_graph.labels
    edge_labels = (
        y[train_graph.edges[:, 0]] == y[train_graph.edges[:, 1]]
    ).astype(np.float64)
    num_het = float(np.count_nonzero(edge_labels == 0.0))
    alpha = num_het / len(edge_labels)
    return train_graph.edges, edge_labels, alpha


def _edge_scores_with_cache(z: np.ndarray, edges: np.ndarray):
    """sigmoid(cosine) per edge plus everything needed for the backward pass.

    Cosines are taken _EDGE_BLOCK edges at a time; each row's sum is the
    same as in one whole-array product.
    """
    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = z / safe[:, None]
    cos = np.empty(len(edges), dtype=np.float64)
    for start in range(0, len(edges), _EDGE_BLOCK):
        b = edges[start:start + _EDGE_BLOCK]
        cos[start:start + len(b)] = np.sum(unit[b[:, 0]] * unit[b[:, 1]], axis=1)
    np.clip(cos, -1.0, 1.0, out=cos)
    scores = sigmoid(cos)
    return scores, {"norms": norms, "safe": safe, "unit": unit, "cos": cos}


def _edge_scores_backward(
    grad_scores: np.ndarray, edges: np.ndarray, scores: np.ndarray, ctx: dict, n: int, dim: int
) -> np.ndarray:
    """Accumulate d(loss)/dZ from per-edge score gradients.

    With g_e = d(loss)/d(cos_e), the sum over a node's edges is the tangent
    projection (G_u - (G_u . u_u) u_u) / |z_u| of G = A @ unit, where A is
    the symmetric n x n matrix holding g_e at (src, dst) and (dst, src): one
    sparse product instead of per-edge (E, d) gradients. Zero-norm
    embeddings use the documented cosine := 0 convention: their unit row is
    0, so they add nothing to their neighbours, and their own row is zeroed.
    """
    grad_cos = grad_scores * scores * (1.0 - scores)
    src, dst = edges[:, 0], edges[:, 1]
    adjacency = sp.csr_matrix(
        (np.concatenate([grad_cos, grad_cos]),
         (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(n, n),
    )
    unit = ctx["unit"]
    grad_z = adjacency @ unit
    grad_z -= np.einsum("ij,ij->i", grad_z, unit)[:, None] * unit
    grad_z /= ctx["safe"][:, None]
    grad_z[ctx["norms"] == 0.0] = 0.0
    return grad_z


def _holdout_split(
    edge_labels: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/validation split over edge indices."""
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for cls in (0.0, 1.0):
        idx = np.flatnonzero(edge_labels == cls)
        if len(idx) < 2:
            raise ValueError(
                "too few edges of one class to hold out predictor validation"
            )
        perm = rng.permutation(idx)
        k = max(1, int(np.floor(fraction * len(idx))))
        val_idx.append(perm[:k])
        train_idx.append(perm[k:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def train_homophily_predictor(
    train_graph: LabeledGraph,
    val_graph: LabeledGraph | None,
    spec: ArchitectureSpec,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    loss: str = "wbce",
) -> Checkpoint:
    """Fit the node encoder so sigmoid(cos(z_i, z_j)) matches edge labels.

    Trains inductively on the training graph only, early-stopped on edge
    ROC-AUC over the validation graph's edges, or over a held-out 10% of
    training edges when no validation graph is given.
    """
    if loss not in ("wbce", "bce"):
        raise ValueError(f"loss must be 'wbce' or 'bce', got {loss!r}")
    edges, edge_labels, alpha = build_edge_training_set(train_graph)
    if alpha in (0.0, 1.0):
        raise ValueError(
            "degenerate edge classes: training graph has a single edge class"
        )

    train_agg = MeanAggregator(train_graph, self_loops=True) if spec.kind == "gcn" else None
    if val_graph is not None:
        val_edges, val_labels, _ = build_edge_training_set(val_graph)
        if len(np.unique(val_labels)) < 2:
            raise ValueError("validation graph has a single edge class")
        fit_edges, fit_labels = edges, edge_labels
        val_agg = MeanAggregator(val_graph, self_loops=True) if spec.kind == "gcn" else None
        val_feats = val_graph.features
    else:
        fit_idx, held_idx = _holdout_split(edge_labels, 0.1, seed)
        fit_edges, fit_labels = edges[fit_idx], edge_labels[fit_idx]
        val_edges, val_labels = edges[held_idx], edge_labels[held_idx]
        val_agg, val_feats = train_agg, train_graph.features
    n, out_dim = train_graph.num_nodes, spec.output_dim

    def training_passes():
        p = yield
        while True:
            z, cache = network_forward(
                spec, p, train_graph.features, train_agg, with_cache=True
            )
            scores, ctx = _edge_scores_with_cache(z, fit_edges)
            if loss == "wbce":
                loss_value, grad_scores = wbce_loss(scores, fit_labels, alpha)
            else:
                loss_value, grad_scores = bce_loss(scores, fit_labels)
            yield loss_value
            grad_z = _edge_scores_backward(grad_scores, fit_edges, scores, ctx, n, out_dim)
            grads = network_backward(spec, p, cache, grad_z, train_agg)
            p = yield grads

    def val_auc(p):
        z = network_forward(spec, p, val_feats, val_agg)
        scores, _ = _edge_scores_with_cache(z, val_edges)
        return roc_auc(scores, val_labels.astype(np.int64))

    return _fit(spec, optimizer, seed, training_passes(), val_auc, "val_roc_auc",
                {"trained_as": "predictor", "alpha": alpha, "loss": loss})


def edge_homophily_scores(
    predictor: Checkpoint, graph: LabeledGraph
) -> EdgeScoreTable:
    """One sigmoid(cosine) confidence per canonical edge; label-free."""
    spec = predictor.spec
    agg = MeanAggregator(graph, self_loops=True) if spec.kind == "gcn" else None
    z = network_forward(spec, predictor.params, graph.features, agg)
    scores, _ = _edge_scores_with_cache(z, graph.edges)
    return EdgeScoreTable(scores=scores)


# --------------------------------------------------------------------------
# Checkpoint files: JSON with base64-encoded little-endian float64 tensors.
# --------------------------------------------------------------------------


def _encode_tensor(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data_b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_tensor(doc: dict, name: str) -> np.ndarray:
    raw = base64.b64decode(doc["data_b64"])
    shape = tuple(doc["shape"])
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise CheckpointError(
            f"tensor {name!r}: {len(raw)} bytes for shape {shape} (expected {expected})"
        )
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise CheckpointError(f"tensor {name!r} contains NaN or Inf")
    return a


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "spec": checkpoint.spec.to_dict(),
        "params": {k: _encode_tensor(v) for k, v in checkpoint.params.items()},
        "metadata": checkpoint.metadata,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: invalid checkpoint JSON: {exc.msg} at offset {exc.pos}"
        ) from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        spec = ArchitectureSpec.from_dict(doc["spec"])
        params = {k: _decode_tensor(v, k) for k, v in doc["params"].items()}
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    for layer in range(spec.num_layers):
        w_name, b_name = f"W{layer}", f"b{layer}"
        if w_name not in params or b_name not in params:
            raise CheckpointError(f"{path}: missing tensors for layer {layer}")
        want_w = (spec.layer_dims[layer], spec.layer_dims[layer + 1])
        if params[w_name].shape != want_w:
            raise CheckpointError(
                f"{path}: {w_name} has shape {params[w_name].shape}, spec wants {want_w}"
            )
        if params[b_name].shape != (spec.layer_dims[layer + 1],):
            raise CheckpointError(
                f"{path}: {b_name} has shape {params[b_name].shape}, spec wants "
                f"({spec.layer_dims[layer + 1]},)"
            )
    return Checkpoint(spec=spec, params=params, metadata=doc.get("metadata", {}))
