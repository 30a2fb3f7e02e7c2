"""One mutation table for every graphost file kind.

Each kind starts from a file the program writes. Every mutation of its JSON
must raise the kind's typed error with `.path` set and the path named once,
and the CLI must turn it into exit 1 (graph, checkpoint) or 2 (params,
config) with the path on stderr and no traceback.
"""

import contextlib
import io
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphost
import graphost.cli as cli
from graphost.cli import main
from graphost.csbm import CsbmParams, generate_csbm, symmetric_binary_params
from graphost.graphs import (
    GraphFormatError,
    WeightedGraph,
    load_graph,
    load_weighted_graph,
    save_graph,
)
from graphost.jsonfile import FileFormatError, read_json
from graphost.models import (
    ArchitectureSpec,
    Checkpoint,
    CheckpointError,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

PARAMS = symmetric_binary_params(2.0, 4, (6, 6), 0.5, 0.2)
GRAPH = generate_csbm(PARAMS, seed=0)
WEIGHTED = WeightedGraph(base=GRAPH, edge_weights=np.linspace(0.0, 1.0, GRAPH.num_edges))
SPEC = ArchitectureSpec.default("gcn", GRAPH.feature_dim, 3, hidden=5)  # dims (4, 5, 3)
CHECKPOINT = Checkpoint(spec=SPEC, params=init_params(SPEC, 0), metadata={"seed": 0})
CONFIG = {"p": 0.2, "q": 0.05, "sizes": "6,6", "dim": 4}


# kind -> (writer, library loader, typed error, CLI exit code, field each
# mutation targets: a numeric list entry, an integer, a number, a required
# field). A config file's values are typed by the CLI option parsers, which
# read flag text too, so only the CLI rejects them; its library loader is
# the bare JSON reader.
KINDS = {
    "graph": (lambda p: save_graph(GRAPH, p), load_graph, GraphFormatError, 1, {
        "list": ("edges", 0, 1), "int": ("num_nodes",),
        "number": ("features", 0, 0), "required": ("edges",)}),
    "weighted graph": (lambda p: save_graph(WEIGHTED, p), load_weighted_graph,
                       GraphFormatError, 1, {
        "list": ("edge_weights", 0), "int": ("labels", 0),
        "number": ("edge_weights", 1), "required": ("num_nodes",)}),
    "checkpoint": (lambda p: save_checkpoint(CHECKPOINT, p), load_checkpoint,
                   CheckpointError, 1, {
        "list": ("spec", "layer_dims", 1), "int": ("format_version",),
        "number": ("params", "W0", "shape", 0), "required": ("spec", "kind")}),
    "params": (PARAMS.save, CsbmParams.load, FileFormatError, 2, {
        "list": ("class_means", 0, 0), "int": ("class_sizes", 0),
        "number": ("intra_prob",), "required": ("inter_prob",)}),
    "config": (lambda p: p.write_text(json.dumps(CONFIG)), read_json, FileFormatError, 2, {
        "list": ("sizes",), "int": ("dim",), "number": ("p",), "required": ("dim",)}),
}

_DELETE = object()


def _set(doc, keys, value):
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


# mutation -> (target field or None, its new value from the old); None
# targets rewrite the file's bytes.
MUTATIONS = {
    "true in a numeric list": ("list", lambda old: True),
    "float for an integer": ("int", float),
    "numeric string": ("number", str),
    "required field null": ("required", lambda old: None),
    "required field missing": ("required", lambda old: _DELETE),
    "non-object top level": (None, lambda data: b"[" + data + b"]"),
    "truncated JSON": (None, lambda data: data[:40]),
    "not UTF-8": (None, lambda data: b"\xff" + data),
    "nested too deep": (None, lambda data: b"[" * 100_000 + data),
    "repeated key": (None, lambda data: data[:-1] + b", " + data[1:]),  # {a, b, a, b}
}
# mutations the config file reader leaves to the option parsers
CONFIG_VALUE_MUTATIONS = [m for m, (target, _) in MUTATIONS.items() if target]
# the option parsers read "0.2" like flag text, and no config key is required
CLI_ACCEPTS = {("config", "numeric string"), ("config", "required field missing")}


def _mutated_file(tmp_path, kind, mutation):
    write, _, _, _, targets = KINDS[kind]
    path = tmp_path / f"{kind.replace(' ', '-')}.json"
    write(path)
    target, change = MUTATIONS[mutation]
    if target is None:
        path.write_bytes(change(path.read_bytes()))
    else:
        doc = json.loads(path.read_text())
        keys = targets[target]
        _set(doc, keys, change(_get(doc, keys)))
        path.write_text(json.dumps(doc))
    return path


TABLE = [(kind, mutation) for kind in KINDS for mutation in MUTATIONS]


@pytest.mark.parametrize("kind, mutation", TABLE)
def test_library_raises_typed_error_naming_path_once(tmp_path, kind, mutation):
    path = _mutated_file(tmp_path, kind, mutation)
    _, load, error, _, _ = KINDS[kind]
    if kind == "config" and mutation in CONFIG_VALUE_MUTATIONS:
        load(path)
        return
    with pytest.raises(error) as err:
        load(path)
    assert err.value.path == str(path)
    assert str(err.value).count(str(path)) == 1


@pytest.mark.parametrize("kind, mutation", TABLE)
def test_cli_exit_code_names_path_without_traceback(tmp_path, capsys, kind, mutation):
    path = _mutated_file(tmp_path, kind, mutation)
    graph, predictor = tmp_path / "good-graph.json", tmp_path / "good-ckpt.json"
    save_graph(GRAPH, graph)
    save_checkpoint(CHECKPOINT, predictor)
    if kind in ("graph", "weighted graph"):
        graph = path
    elif kind == "checkpoint":
        predictor = path
    argv = {
        "params": ["generate", "--params", str(path)],
        "config": ["generate", "--config", str(path)],
    }.get(kind, ["transform", "--test-graph", str(graph), "--predictor", str(predictor),
                 "--mode", "homophilic"])
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if (kind, mutation) in CLI_ACCEPTS:
        assert code == 0
        return
    assert code == KINDS[kind][3]
    assert err.count(str(path)) == 1 and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"num_nodes": 2, "edges": [[0, True]]},
    {"num_nodes": 2, "edges": [[0, 1]], "labels": [0, True]},
    {"num_nodes": 2, "edges": [[0, 1]], "features": [[1.0], [True]]},
    {"num_nodes": 2, "edges": [[0, 1]], "edge_weights": [True]},
    {"num_nodes": 2, "edges": [[0, 1]], "num_classes": None},
    {"num_nodes": 2, "edges": [[0, 1]], "directed": 0},
])
def test_graph_fields_are_not_cast(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError) as err:
        load_weighted_graph(path)
    assert err.value.path == str(path)


@pytest.mark.parametrize("keys, value, message", [
    (("spec", "layer_dims"), "453", '"layer_dims" in spec must be a list of integers'),
    (("spec", "layer_dims"), [4, 5.9, 3], '"layer_dims" in spec must be a list of integers'),
    (("spec", "layer_dims"), [4, "5", 3], '"layer_dims" in spec must be a list of integers'),
    (("spec", "activation"), 1, '"activation" in spec must be a string'),
    (("format_version",), True, '"format_version" must be an integer'),
    (("format_version",), 1.0, '"format_version" must be an integer'),
    (("metadata",), [1, 2], '"metadata" must be an object'),
    (("params", "W0"), [], '"params.W0" must be an object'),
    (("params", "W0", "data_b64"), lambda old: "!!" + old, "not base64"),
    (("params", "W0", "data_b64"), lambda old: old[:-4], "bytes for shape"),
    (("params", "W0", "shape"), [5, 4], "W0 has shape (5, 4), spec wants (4, 5)"),
    (("params",), lambda old: old | {"W9": old["W0"]}, "do not match the spec's"),
    (("params", "b1"), _DELETE, "do not match the spec's"),
    (("spec", "kind"), "rnn", "kind must be 'gcn' or 'mlp'"),
])
def test_checkpoint_fields_are_typed(tmp_path, keys, value, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(CHECKPOINT, path)
    doc = json.loads(path.read_text())
    _set(doc, keys, value(_get(doc, keys)) if callable(value) else value)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(message)) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert str(err.value).count(str(path)) == 1


def _arrays(value):
    if isinstance(value, WeightedGraph):
        return [*_arrays(value.base), value.edge_weights]
    if isinstance(value, Checkpoint):
        return [value.params[k] for k in sorted(value.params)]
    if isinstance(value, CsbmParams):
        return [np.asarray(value.class_means), np.asarray(value.class_sizes)]
    return [value.edges, value.features, value.labels]


@pytest.mark.parametrize("value, save, load", [
    (GRAPH, save_graph, load_graph),
    (WEIGHTED, save_graph, load_weighted_graph),
    (CHECKPOINT, save_checkpoint, load_checkpoint),
    (PARAMS, CsbmParams.save, CsbmParams.load),
])
def test_written_files_load_back_exactly(tmp_path, value, save, load):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(value, first)
    loaded = load(first)
    for want, got in zip(_arrays(value), _arrays(loaded), strict=True):
        assert np.array_equal(want, got) and want.dtype == got.dtype
    save(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_json_is_decoded_and_encoded_in_one_module():
    source = Path(graphost.__file__).parent
    users = {path.name for path in source.glob("*.py")
             if re.search(r"json\.loads|json\.dumps|JSONDecodeError", path.read_text())}
    assert users == {"jsonfile.py"}


# Fuzzed files: random edits of a checkpoint, a graph, a --params file and
# a --config file, at any depth of the JSON document or in its bytes.
# Integers stay small: a count that asks for more memory than the box has
# is ROADMAP item 8's, not a format question.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)


def _fuzzed(data, path: Path, write) -> None:
    """Writes a program-written file to `path`, then one random edit of it:
    a value replaced, a key deleted or added at any depth, or the bytes cut,
    overwritten or extended at a random offset."""
    write(path)
    if data.draw(st.booleans()):
        raw = path.read_bytes()
        i = data.draw(st.integers(0, len(raw) - 1))
        edit = data.draw(st.sampled_from(["cut", "overwrite", "insert"]))
        if edit == "cut":
            raw = raw[:i]
        else:
            new = data.draw(st.binary(min_size=1, max_size=3))
            raw = raw[:i] + new + raw[i + len(new) * (edit == "overwrite"):]
        path.write_bytes(raw)
        return
    doc = json.loads(path.read_text())
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    edit = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if edit == "replace":
        node[key] = data.draw(JSON_VALUES)
    elif edit == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=4))] = data.draw(JSON_VALUES)
    else:
        node.insert(key, data.draw(JSON_VALUES))
    path.write_text(json.dumps(doc))


def _cli(argv: list[str]) -> tuple[int, str]:
    """main's exit code and stderr; any exception escaping main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    save_graph(GRAPH, folder / "graph.json")
    save_checkpoint(CHECKPOINT, folder / "predictor.json")
    return folder


# kind -> the CLI command that reads the fuzzed file at `path`, beside the
# good graph and predictor in `folder`
FUZZ_COMMANDS = {
    "checkpoint": lambda path, folder: [
        "transform", "--test-graph", str(folder / "graph.json"), "--predictor", str(path),
        "--mode", "homophilic"],
    "graph": lambda path, folder: [
        "transform", "--test-graph", str(path), "--predictor", str(folder / "predictor.json"),
        "--mode", "homophilic"],
    "params": lambda path, folder: ["generate", "--params", str(path)],
    "config": lambda path, folder: ["generate", "--config", str(path)],
}


@pytest.mark.parametrize("kind", FUZZ_COMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_file_loads_or_is_refused_by_name(fuzz_dir, kind, data):
    write, load, error, _, _ = KINDS[kind]
    path = fuzz_dir / f"fuzzed-{kind}.json"
    _fuzzed(data, path, write)
    argv = FUZZ_COMMANDS[kind](path, fuzz_dir) + ["--out", str(fuzz_dir / "out")]
    try:
        if kind == "config":  # the CLI's option merge types a config file's values
            cli._merge_options(cli.build_parser().parse_args(argv))
        else:
            load(path)
        refused = False
    except (cli.CliError, error) as exc:
        assert str(exc).count(str(path)) == 1
        assert kind == "config" or exc.path == str(path)
        refused = True
    _assert_cli_runs_or_refuses_by_name(kind, path, argv, refused)


def _assert_cli_runs_or_refuses_by_name(kind, path, argv, refused) -> int:
    """The CLI on `argv`, which reads the `kind` file at `path`, exits with the
    kind's code naming the path once if its loader refused the file, and
    otherwise runs, or names the path in a usage error or a run error.
    Returns the exit code."""
    # the sampler is not under test: any params the options make draw GRAPH
    with mock.patch.object(cli, "generate_csbm", lambda params, seed: GRAPH):
        code, err = _cli(argv)
    assert "Traceback" not in err
    if refused:
        assert code == KINDS[kind][3] and err.count(str(path)) == 1
    elif code == 1:
        # a finite checkpoint whose embeddings overflow is a run error
        assert kind == "checkpoint" and re.fullmatch(
            rf"error: --predictor {re.escape(str(path))}: the embedding norm of node \d+ "
            r"is (inf|nan), not finite\n", err), err
    else:
        # a config that merges may still lack --p and --q, which no file names
        assert code in (0, 2) and (code == 0 or kind == "config" or str(path) in err)
    return code


def test_overflowing_checkpoint_loads_and_is_refused_by_name(fuzz_dir):
    path = fuzz_dir / "overflowing-checkpoint.json"
    w0 = CHECKPOINT.params["W0"].copy()
    w0[0, 0] *= 1e300
    save_checkpoint(Checkpoint(SPEC, {**CHECKPOINT.params, "W0": w0}, {"seed": 0}), path)
    load_checkpoint(path)
    argv = FUZZ_COMMANDS["checkpoint"](path, fuzz_dir) + ["--out", str(fuzz_dir / "out")]
    assert _assert_cli_runs_or_refuses_by_name("checkpoint", path, argv, refused=False) == 1
