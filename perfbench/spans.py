"""Spans around the calls into each graphost layer, recorded from outside.

Nothing in ``src/`` is edited. Each layer's function is wrapped at the name
its caller binds (``edge_homophily_scores`` as bound inside
``graphost.transform``, ``predict_labels`` as bound inside
``graphost.experiments``, ...), so every call made through that binding opens
a span. Spans live in memory and are written out when the worker ends.

Probes that need to look at arguments or results (content hashes, edge
counts, epochs) run outside the span's timed interval.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def content_key(graph) -> str:
    """Hash of a graph's edges and features: two calls on equal content get
    the same key even when the graph objects differ."""
    h = hashlib.blake2b(digest_size=16)
    h.update(graph.edges.tobytes())
    if graph.features is not None:
        h.update(graph.features.tobytes())
    return h.hexdigest()


def _graph_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_score(args, kwargs, out):
    return {"key": content_key(_graph_arg(args, kwargs, 1, "graph"))}


def _probe_test_graph(args, kwargs, out):
    return {"key": content_key(out)}


def _probe_transform(args, kwargs, out):
    graph = _graph_arg(args, kwargs, 0, "test_graph")
    return {"removed": graph.num_edges - out.num_edges}


def _probe_epochs(args, kwargs, out):
    return {"epochs": out.metadata["epochs_run"]}


def _probe_trials(args, kwargs, out):
    return {"trials": out.trials}


def _probe_file(args, kwargs, out):
    return {"bytes": Path(_graph_arg(args, kwargs, 1, "path")).stat().st_size}


# (module, attribute, span name, probe). A module entry patches the name in
# that module's globals; the runners, fixtures and theory code look those
# names up at call time. The defining-module entries (graphost.csbm,
# graphost.models, ...) catch the benchmark's own direct calls.
TARGETS = [
    ("graphost.fixtures", "make_fixture", "fixtures.make_fixture", None),
    ("graphost.fixtures", "generate_csbm", "csbm.generate", None),
    ("graphost.fixtures", "perturb_features", "csbm.perturb", None),
    ("graphost.fixtures", "train_classifier", "models.train_classifier", _probe_epochs),
    ("graphost.fixtures", "train_homophily_predictor", "models.train_predictor", _probe_epochs),
    ("graphost.fixtures.TrainedFixture", "test_graph", "fixtures.test_graph", _probe_test_graph),
    ("graphost.csbm", "generate_csbm", "csbm.generate", None),
    ("graphost.csbm", "perturb_features", "csbm.perturb", None),
    ("graphost.theory", "_generate", "csbm.generate", None),
    ("graphost.theory", "_sample_edges", "csbm.generate", None),
    ("graphost.theory", "mean_aggregate", "nn.aggregator_build", None),
    ("graphost.models", "MeanAggregator", "nn.aggregator_build", None),
    ("graphost.models", "roc_auc", "metrics.roc_auc", None),
    ("graphost.models", "predict_labels", "models.predict", None),
    ("graphost.transform", "edge_homophily_scores", "models.score", _probe_score),
    ("graphost.transform", "graphost_transform", "transform.transform", _probe_transform),
    ("graphost.experiments", "graphost_transform", "transform.transform", _probe_transform),
    ("graphost.experiments", "predict_labels", "models.predict", None),
    ("graphost.experiments", "inject_structural_noise", "graphs.noise", None),
    ("graphost.experiments", "random_edge_drop", "graphs.drop", None),
    ("graphost.experiments", "evaluate_graph", "experiments.evaluate", None),
    ("graphost.experiments", "run_ablation", "experiments.ablation", None),
    ("graphost.experiments", "run_delta_sweep", "experiments.delta_sweep", None),
    ("graphost.experiments", "run_noise_robustness", "experiments.noise_robustness", None),
    ("graphost.experiments", "run_random_drop_comparison", "experiments.random_drop", None),
    ("graphost.graphs", "save_graph", "graphs.save", _probe_file),
    ("graphost.graphs", "load_weighted_graph", "graphs.load", None),
    ("graphost.cli", "main", "cli.main", None),
    ("graphost.cli", "lemma_check", "theory.lemma", None),
    ("graphost.cli", "separation_check", "theory.separation", None),
    ("graphost.cli", "phi_vs_simulation", "theory.phi", None),
    ("graphost.cli", "monte_carlo_theorem_check", "theory.theorem_mc", _probe_trials),
]


def _owner(path: str):
    """A module, or a class inside one (``graphost.fixtures.TrainedFixture``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Recorder:
    """Spans of one worker process: name, start, end, parent and run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    def wrap(self, fn, name, probe):
        recorder = self

        def traced(*args, **kwargs):
            span = {
                "id": len(recorder.spans),
                "name": name,
                "run": recorder.run_id,
                "parent": recorder._stack[-1] if recorder._stack else None,
            }
            recorder.spans.append(span)
            recorder._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                recorder._stack.pop()
            if probe is not None:
                span.update(probe(args, kwargs, out))
            return out

        return traced

    def install(self) -> list:
        """Patch every target; returns what ``uninstall`` needs to undo it."""
        undo = []
        for path, attr, name, probe in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, probe))
            undo.append((owner, attr, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures over a set of spans (one pass, plus set-up)."""
    children: dict[int, list[dict]] = defaultdict(list)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
        by_name[span["name"]].append(span)

    def total(name):
        return sum(_duration(span) for span in by_name[name])

    def count(name):
        return len(by_name[name])

    def field_sum(name, key):
        return sum(span[key] for span in by_name[name])

    def self_total(name):
        # A span's self time is its duration minus its direct children's.
        return sum(
            _duration(span) - sum(_duration(c) for c in children[span["id"]])
            for span in by_name[name]
        )

    def distinct_ratio(name):
        keys = [span["key"] for span in by_name[name]]
        return len(set(keys)) / len(keys) if keys else 0.0

    predictor_epochs = field_sum("models.train_predictor", "epochs")
    return {
        "csbm.generate_s": total("csbm.generate"),
        "csbm.generate_calls": count("csbm.generate"),
        "csbm.perturb_s": total("csbm.perturb"),
        "graphs.save_s": total("graphs.save"),
        "graphs.load_s": total("graphs.load"),
        "graphs.file_mb": field_sum("graphs.save", "bytes") / 2**20,
        "graphs.noise_s": total("graphs.noise"),
        "graphs.drop_s": total("graphs.drop"),
        "nn.aggregator_builds": count("nn.aggregator_build"),
        "nn.aggregator_build_s": total("nn.aggregator_build"),
        "models.train_classifier_s": total("models.train_classifier"),
        "models.train_predictor_s": total("models.train_predictor"),
        "models.epochs": field_sum("models.train_classifier", "epochs") + predictor_epochs,
        "models.predictor_epoch_ms": (
            1000.0 * total("models.train_predictor") / predictor_epochs
            if predictor_epochs else 0.0
        ),
        "models.score_s": total("models.score"),
        "models.score_calls": count("models.score"),
        "models.score_distinct_ratio": distinct_ratio("models.score"),
        "models.predict_s": total("models.predict"),
        "models.predict_calls": count("models.predict"),
        "metrics.roc_auc_s": total("metrics.roc_auc"),
        "metrics.roc_auc_calls": count("metrics.roc_auc"),
        "transform.transform_s": total("transform.transform"),
        "transform.self_s": self_total("transform.transform"),
        "transform.calls": count("transform.transform"),
        "transform.edges_removed": field_sum("transform.transform", "removed"),
        "experiments.ablation_s": total("experiments.ablation"),
        "experiments.delta_sweep_s": total("experiments.delta_sweep"),
        "experiments.noise_robustness_s": total("experiments.noise_robustness"),
        "experiments.random_drop_s": total("experiments.random_drop"),
        "experiments.evaluate_calls": count("experiments.evaluate"),
        "fixtures.test_graph_s": total("fixtures.test_graph"),
        "fixtures.test_graph_calls": count("fixtures.test_graph"),
        "fixtures.test_graph_distinct_ratio": distinct_ratio("fixtures.test_graph"),
        "theory.lemma_s": total("theory.lemma"),
        "theory.separation_s": total("theory.separation"),
        "theory.phi_s": total("theory.phi"),
        "theory.theorem_mc_s": total("theory.theorem_mc"),
        "theory.mc_trials": field_sum("theory.theorem_mc", "trials"),
        "cli.self_s": self_total("cli.main"),
    }
