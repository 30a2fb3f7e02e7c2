"""The two networks: a fixed GNN classifier and the homophily predictor.

Both are stacks of dense layers; the "gcn" kind aggregates node features
over neighbours (weighted mean with a unit self-loop) before each affine
map, the "mlp" kind skips aggregation. Backpropagation is hand-derived.
The predictor's output head is fixed: sigmoid(cosine(z_i, z_j)) on the
encoder embeddings of an edge's endpoints -- its only learned parameters
are the encoder's.

The head never builds an (E, d) array, and no (n, d) one but the unit
embeddings. Its forward pass takes the norms over fixed blocks of nodes and
the cosines as row dots of unit embeddings over fixed blocks of edges, each
block squared or gathered, multiplied and summed inside two (block, d)
buffers made once per call. So memory stays O(n d + E), no block
allocates, and every norm and cosine equals the one-shot row sum bit for
bit. It refuses an edge id outside [0, n) with `IndexError` and embeddings
whose norms are not finite with `NonFiniteError`. Its backward pass sums
each node's cosine gradients in closed form: with G = A @ unit, A the
symmetric n x n matrix of per-edge gradients, a node's gradient is the part
of G_u tangent to its unit vector, divided by |z_u| -- one sparse product
plus O(n d) work. A is the training graph's `nn.EdgeMatrix`: a GCN's on its
aggregator's pattern, so a fit builds one pattern per graph. The layers'
backward passes hold no float mask: ReLU's gradient multiplies by the sign
test of its input, and the identity passes the gradient through.

Inference holds no copy it does not need, with the same bits as the
straightforward pass: bias and activation work in place, a square GCN
layer writes its product into its dead input, and edge scoring drops the
aggregator before the head, which normalizes the embeddings in place.
Training keeps every array its backward pass reads; its per-epoch validation
scores through the inference pass and head.

A value that is not finite from finite inputs (an overflowing checkpoint or
graph) raises `NonFiniteError` naming the input it came from: logits and
embedding norms are checked once per pass, with numpy's overflow warnings
off for it, the classifier's training loss wherever it overflows, and Adam's
second moments once per step. A loss that is not finite without an overflow
stops training as divergence (`RuntimeError`).
"""

from __future__ import annotations

import base64
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .graphs import LabeledGraph
from .jsonfile import FileFormatError, JsonObject, read_json, typed, write_json
from .metrics import accuracy, roc_auc
from .nn import (
    AdamState,
    EdgeMatrix,
    MeanAggregator,
    NonFiniteError,
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
    "NonFiniteError",
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
KINDS = ("gcn", "mlp")  # ArchitectureSpec.kind
LOSSES = ("wbce", "bce")  # train_homophily_predictor's loss

log = logging.getLogger(__name__)

# Rows (edges, or nodes for the norms) per block of the cosine head, at
# most; bounds each of its two buffers to _EDGE_BLOCK x d floats whatever
# the edge count.
_EDGE_BLOCK = 1024


class CheckpointError(FileFormatError):
    """Malformed checkpoint file; carries the offending path."""


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer plan: layer_dims runs input -> hidden... -> output; relu on
    hidden layers, identity on the last."""

    kind: str
    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}, got {self.kind!r}")
        dims = tuple(typed(f"layer_dims[{i}]", d, "an integer")
                     for i, d in enumerate(self.layer_dims))
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
        rate = typed("learning_rate", self.learning_rate, "a number")
        if not (np.isfinite(rate) and rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {rate}")
        for name in ("max_epochs", "patience"):
            object.__setattr__(self, name, typed(name, getattr(self, name), "an integer"))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class EdgeScoreTable:
    """Per-edge homophily confidence, aligned with the canonical edge list."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValueError(f"scores[{bad[0]}] = {scores[bad[0]]} is not finite")
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


def _aggregator(
    spec: ArchitectureSpec, graph: LabeledGraph, edge_weights: np.ndarray | None = None
) -> MeanAggregator | None:
    """The layers' aggregation operator on graph: a GCN's, none for an MLP."""
    return MeanAggregator(graph, edge_weights, self_loops=True) if spec.kind == "gcn" else None


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
    for layer in range(spec.num_layers):
        act_name = spec.activation if layer < spec.num_layers - 1 else "identity"
        act, _ = _ACTIVATIONS[act_name]
        weight = params[f"W{layer}"]
        agg_in = aggregator.apply(h) if spec.kind == "gcn" else h
        # In inference a GCN layer's input h is dead once aggregated, and past
        # layer 0 (the caller's features) it is our own buffer: a square
        # layer writes its product into it.
        reuse = (not with_cache and layer > 0 and agg_in is not h
                 and weight.shape[0] == weight.shape[1])
        pre = np.matmul(agg_in, weight, out=h if reuse else None)
        pre += params[f"b{layer}"]
        if with_cache:
            cache.append({"agg_in": agg_in, "pre": pre, "act": act_name})
            h = act(pre)
        else:
            # inference frees the aggregate before an in-place activation:
            # at most two n x d arrays alive at once in a square GCN layer,
            # three otherwise, not five
            del agg_in
            h = act(pre, out=pre)
    return (h, cache) if with_cache else h


def network_backward(
    spec: ArchitectureSpec,
    params: dict[str, np.ndarray],
    cache: list[dict],
    grad_out: np.ndarray,
    aggregator: MeanAggregator | None,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all parameters, given d(loss)/d(output).
    Layer 0 passes nothing back: no input gradient is needed."""
    grads: dict[str, np.ndarray] = {}
    g = grad_out
    for layer in reversed(range(spec.num_layers)):
        entry = cache[layer]
        _, act_backward = _ACTIVATIONS[entry["act"]]
        g_pre = act_backward(g, entry["pre"])
        grads[f"W{layer}"] = entry["agg_in"].T @ g_pre
        grads[f"b{layer}"] = g_pre.sum(axis=0)
        if layer == 0:
            break
        g = g_pre @ params[f"W{layer}"].T
        if spec.kind == "gcn":
            g = aggregator.adjoint(g)
    return grads


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _fit(
    spec: ArchitectureSpec, optimizer: OptimizerConfig, seed: int, features: np.ndarray,
    aggregator: MeanAggregator | None, head: Callable[[np.ndarray], tuple[float, Callable]],
    val_metric: Callable[[dict], float], metric_name: str, metadata: dict,
) -> Checkpoint:
    """Adam from init_params(spec, seed), early-stopped when val_metric has
    not improved for `patience` epochs; keeps the best parameters. `head`
    maps the output on `features` to the loss and a backward() giving
    d(loss)/d(output), which runs only if the loss is finite."""
    params = init_params(spec, seed)
    adam = AdamState.for_params(params, optimizer.learning_rate)
    best_params = _copy_params(params)
    best_metric = val_metric(params)
    best_epoch = 0
    bad_epochs = 0
    loss_tail: list[float] = []
    stop = "max_epochs"
    # Each epoch's arrays live until the next epoch overwrites them: freeing
    # them sooner tripled the page faults of predictor training.
    for epoch in range(1, optimizer.max_epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # the head refuses an overflow
            out, cache = network_forward(spec, params, features, aggregator, with_cache=True)
        loss, backward = head(out)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: loss is not finite at epoch {epoch}")
        grad_out = backward()
        grads = network_backward(spec, params, cache, grad_out, aggregator)
        try:
            params = adam_step(params, grads, adam)
        except NonFiniteError as exc:  # the moments hold the training pass's gradients
            exc.source = "train_graph"
            raise
        loss_tail = (loss_tail + [loss])[-10:]
        metric = val_metric(params)
        log.debug("%s epoch %d: loss %.6g, %s %.6g",
                  metadata["trained_as"], epoch, loss, metric_name, metric)
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
            "optimizer": asdict(optimizer),
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
    train_agg = _aggregator(spec, train_graph)
    val_agg = _aggregator(spec, val_graph)

    def cross_entropy(logits):
        _refuse_non_finite(logits, "train_graph")
        try:
            with np.errstate(over="raise"):  # a NaN without overflow is _fit's divergence
                loss, grad_logits = cross_entropy_loss(logits, train_graph.labels)
        except FloatingPointError as exc:
            raise NonFiniteError(f"the cross-entropy loss overflows ({exc})",
                                 "train_graph") from None
        return loss, lambda: grad_logits

    def val_accuracy(p):
        logits = _finite_logits(spec, p, val_graph.features, val_agg, "val_graph")
        return accuracy(np.argmax(logits, axis=1), val_graph.labels)

    return _fit(spec, optimizer, seed, train_graph.features, train_agg, cross_entropy,
                val_accuracy, "val_accuracy", {"trained_as": "classifier"})


def _finite_logits(spec: ArchitectureSpec, params: dict[str, np.ndarray], features: np.ndarray,
                   aggregator: MeanAggregator | None, source: str) -> np.ndarray:
    """The inference pass's logits, computed with numpy's overflow warnings
    off and refused with NonFiniteError naming `source` where one is not
    finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        logits = network_forward(spec, params, features, aggregator)
    _refuse_non_finite(logits, source)
    return logits


def _refuse_non_finite(logits: np.ndarray, source: str) -> None:
    """NonFiniteError naming `source` and the first logit that is not finite."""
    bad = np.argwhere(~np.isfinite(logits))
    if len(bad):
        node, unit = bad[0]
        raise NonFiniteError(f"logit {unit} of node {node} is {logits[node, unit]}, not finite",
                             source)


def classifier_logits(
    checkpoint: Checkpoint,
    graph: LabeledGraph,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Pure forward pass -> (n, c) logits; weights of 1 equal no weights.
    Logits that are not finite are refused with NonFiniteError."""
    spec = checkpoint.spec
    agg = _aggregator(spec, graph, edge_weights)
    return _finite_logits(spec, checkpoint.params, graph.features, agg, "classifier")


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


def _edge_scores_with_cache(z: np.ndarray, edges: np.ndarray, source: str | None = None):
    """sigmoid(cosine) per edge plus everything needed for the backward pass.
    The unit rows are written over z, which the caller gives up: in a fit z
    is the last layer's output, which the identity activation's backward
    never reads. An edge id outside [0, len(z)) is refused with IndexError
    before anything is read, and a norm that is not finite with
    NonFiniteError naming `source`, the input z came from.

    Norms are taken a block of nodes, and cosines a block of edges, at a
    time; each row's sum is the same as in one whole-array product. A block
    has at most _EDGE_BLOCK rows and at most len(z), so its two (block, d)
    buffers fit in the space the encoder pass's (n, d) arrays have just
    freed. Larger blocks on a 600-node graph grew the heap top on every
    call, glibc handed that memory back at once, and a predictor fit took
    about 4x the page faults. So the buffers are made once per call, and
    every block squares, gathers, multiplies and sums inside them. With the
    ids checked up front the gathers' clip mode never clips; the default
    raise mode buffers each gather again.
    """
    if len(edges) and (edges.min() < 0 or edges.max() >= len(z)):
        bad = edges[((edges < 0) | (edges >= len(z))).any(axis=1)][0]
        raise IndexError(f"edge ({bad[0]}, {bad[1]}) references a node outside [0, {len(z)})")
    block = max(1, min(_EDGE_BLOCK, len(z)))
    left, right = np.empty((block, z.shape[1])), np.empty((block, z.shape[1]))
    norms = np.empty(len(z))
    with np.errstate(over="ignore"):  # an overflowing norm is refused just below
        for start in range(0, len(z), block):
            rows = z[start:start + block]
            squares = np.multiply(rows, rows, out=left[:len(rows)])
            np.add.reduce(squares, axis=1, out=norms[start:start + len(rows)])
    np.sqrt(norms, out=norms)  # the bits of np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:  # finite norms keep the unit rows, and so the cosines, finite
        raise NonFiniteError(f"the embedding norm of node {bad[0]} is {norms[bad[0]]}, not finite",
                             source)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = np.divide(z, safe[:, None], out=z)
    cos = np.empty(len(edges), dtype=np.float64)
    for start in range(0, len(edges), block):
        b = edges[start:start + block]
        lhs, rhs = left[:len(b)], right[:len(b)]
        np.take(unit, b[:, 0], axis=0, out=lhs, mode="clip")
        np.take(unit, b[:, 1], axis=0, out=rhs, mode="clip")
        np.multiply(lhs, rhs, out=lhs)
        np.sum(lhs, axis=1, out=cos[start:start + len(b)])
    np.clip(cos, -1.0, 1.0, out=cos)
    scores = sigmoid(cos)
    return scores, {"norms": norms, "safe": safe, "unit": unit, "cos": cos}


def _edge_scores_backward(
    grad_scores: np.ndarray, edges: np.ndarray, scores: np.ndarray, ctx: dict, n: int,
    dim: int, adjacency: EdgeMatrix | None = None,
) -> np.ndarray:
    """Accumulate d(loss)/dZ from per-edge score gradients.

    With g_e = d(loss)/d(cos_e), the sum over a node's edges is the tangent
    projection (G_u - (G_u . u_u) u_u) / |z_u| of G = A @ unit, where A is
    the symmetric n x n matrix holding g_e at (src, dst) and (dst, src): one
    sparse product instead of per-edge (E, d) gradients. A training loop
    passes `adjacency`, A for `edges` built once per fit, and only its
    values are written here. Zero-norm embeddings use the documented
    cosine := 0 convention: their unit row is 0, so they add nothing to
    their neighbours, and their own row is zeroed.
    """
    grad_cos = grad_scores * scores * (1.0 - scores)
    unit = ctx["unit"]
    if adjacency is None:
        adjacency = EdgeMatrix(edges, n)
    grad_z = adjacency.fill(grad_cos) @ unit
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
    if loss not in LOSSES:
        raise ValueError(f"loss must be {' or '.join(map(repr, LOSSES))}, got {loss!r}")
    edges, edge_labels, alpha = build_edge_training_set(train_graph)
    if alpha in (0.0, 1.0):
        raise ValueError(
            "degenerate edge classes: training graph has a single edge class"
        )

    train_agg = _aggregator(spec, train_graph)
    if val_graph is not None:
        val_edges, val_labels, _ = build_edge_training_set(val_graph)
        if val_labels.min() == val_labels.max():
            raise ValueError("validation graph has a single edge class")
        fit_idx = slice(None)
        val_agg = _aggregator(spec, val_graph)
        val_feats, val_source = val_graph.features, "val_graph"
    else:
        fit_idx, held_idx = _holdout_split(edge_labels, 0.1, seed)
        val_edges, val_labels = edges[held_idx], edge_labels[held_idx]
        val_agg, val_feats, val_source = train_agg, train_graph.features, "train_graph"
    fit_edges, fit_labels = edges[fit_idx], edge_labels[fit_idx]
    n, out_dim = train_graph.num_nodes, spec.output_dim
    adjacency = EdgeMatrix(edges, n, fit_idx, train_agg)

    def edge_bce(z):
        scores, ctx = _edge_scores_with_cache(z, fit_edges, source="train_graph")
        if loss == "wbce":
            loss_value, grad_scores = wbce_loss(scores, fit_labels, alpha)
        else:
            loss_value, grad_scores = bce_loss(scores, fit_labels)
        return loss_value, lambda: _edge_scores_backward(grad_scores, fit_edges, scores, ctx,
                                                         n, out_dim, adjacency)

    def val_auc(p):
        # the inference pass and head, as edge_homophily_scores runs them; no
        # name holds the embeddings, so they are freed before the ranking
        with np.errstate(over="ignore", invalid="ignore"):  # the head refuses an overflow
            scores = _edge_scores_with_cache(network_forward(spec, p, val_feats, val_agg),
                                             val_edges, val_source)[0]
        return roc_auc(scores, val_labels.astype(np.int64))

    return _fit(spec, optimizer, seed, train_graph.features, train_agg, edge_bce, val_auc,
                "val_roc_auc", {"trained_as": "predictor", "alpha": alpha, "loss": loss})


def edge_homophily_scores(
    predictor: Checkpoint, graph: LabeledGraph
) -> EdgeScoreTable:
    """One sigmoid(cosine) confidence per canonical edge; label-free. The
    aggregator is dropped before the head, which normalizes the embeddings
    in place."""
    spec = predictor.spec
    with np.errstate(over="ignore", invalid="ignore"):  # the head refuses an overflow
        z = network_forward(spec, predictor.params, graph.features, _aggregator(spec, graph))
    return EdgeScoreTable(scores=_edge_scores_with_cache(z, graph.edges, "predictor")[0])


# --------------------------------------------------------------------------
# Checkpoint files: JSON with base64-encoded little-endian float64 tensors.
# --------------------------------------------------------------------------


def _encode_tensor(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data_b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_tensor(tensors: JsonObject, name: str, shape: tuple[int, ...]) -> np.ndarray:
    tensor = tensors.object(name)
    declared = tuple(tensor.array("shape", (None,), "integer", "a list of integers").tolist())
    if declared != shape:
        tensors.fail(f"{name} has shape {declared}, spec wants {shape}")
    text = tensor.text("data_b64")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        tensors.fail(f"tensor {name!r}: data_b64 is not base64 ({exc})")
    if len(raw) != 8 * int(np.prod(shape)):
        tensors.fail(f"tensor {name!r}: {len(raw)} bytes for shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        tensors.fail(f"tensor {name!r} contains NaN or Inf")
    return a


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    write_json(path, {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "spec": asdict(checkpoint.spec),
        "params": {k: _encode_tensor(v) for k, v in checkpoint.params.items()},
        "metadata": checkpoint.metadata,
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    doc = read_json(path, CheckpointError)
    version = doc.integer("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        doc.fail(f"unsupported checkpoint version {version} "
                 f"(expected {CHECKPOINT_FORMAT_VERSION})")
    spec_doc = doc.object("spec")
    spec = doc.build(
        ArchitectureSpec,
        kind=spec_doc.text("kind"),
        layer_dims=tuple(spec_doc.array("layer_dims", (None,), "integer",
                                        "a list of integers").tolist()),
        activation=spec_doc.text("activation"),
    )
    tensors = doc.object("params")
    dims = spec.layer_dims
    shapes = {f"W{i}": (dims[i], dims[i + 1]) for i in range(spec.num_layers)}
    shapes |= {f"b{i}": (dims[i + 1],) for i in range(spec.num_layers)}
    if tensors.keys() != set(shapes):
        doc.fail(f"tensors {sorted(tensors.keys())} do not match the spec's {sorted(shapes)}")
    params = {name: _decode_tensor(tensors, name, shape) for name, shape in shapes.items()}
    return Checkpoint(spec=spec, params=params, metadata=doc.object("metadata", {}).raw)
