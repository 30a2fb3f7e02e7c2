"""The block writer and the chunked reader of `graphost.jsonfile`.

`write_json` must give the bytes of one `json.dumps(doc, sort_keys=True)`
on the arrays' lists, and `read_json` what one `json.loads` plus the array
typing rules give: equal arrays, or the same message and line. The
reference reader below is that one-call reader, kept here as the oracle.
"""

import json
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphost import jsonfile
from graphost.csbm import generate_csbm, symmetric_binary_params
from graphost.graphs import LabeledGraph, WeightedGraph, load_weighted_graph, save_graph
from graphost.jsonfile import FileFormatError, read_json, write_json

BLOCK = jsonfile._BLOCK_ROWS


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonfile")


# ---------------------------------------------------------------------------
# Writer: the bytes of one json.dumps
# ---------------------------------------------------------------------------

SPECIAL_FEATURES = [-0.0, 5e-324, 1e16, 1e-5, -1e300]
SPECIAL_WEIGHTS = [-0.0, 5e-324, 1e-5, 0.0, 1.0]


@st.composite
def graphs(draw):
    num_edges = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 30))
    fewest = 0 if num_edges == 0 else int(np.ceil(np.sqrt(2 * num_edges))) + 1
    n = draw(st.integers(fewest, fewest + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, vs = np.triu_indices(n, 1)
    pick = rng.choice(len(us), size=num_edges, replace=False)
    features = None
    if draw(st.booleans()):
        features = rng.standard_normal((n, draw(st.integers(0, 3))))
        for value in draw(st.lists(st.sampled_from(SPECIAL_FEATURES), max_size=4)):
            if features.size:
                features.flat[rng.integers(features.size)] = value
    labels = rng.integers(0, 3, n) if draw(st.booleans()) else None
    graph = LabeledGraph(num_nodes=n, edges=np.stack([us[pick], vs[pick]], 1),
                         features=features, labels=labels)
    if not draw(st.booleans()):
        return graph
    weights = rng.random(num_edges)
    for value in draw(st.lists(st.sampled_from(SPECIAL_WEIGHTS), max_size=4)):
        if num_edges:
            weights[rng.integers(num_edges)] = value
    return WeightedGraph(base=graph, edge_weights=weights)


def _listed(graph) -> dict:
    """The document save_graph wrote when it passed whole .tolist() copies."""
    base = graph.base if isinstance(graph, WeightedGraph) else graph
    doc = {"num_nodes": base.num_nodes, "edges": base.edges.tolist()}
    if base.features is not None:
        doc["features"] = base.features.tolist()
    if base.labels is not None:
        doc["labels"] = base.labels.tolist()
        doc["num_classes"] = base.num_classes
    if isinstance(graph, WeightedGraph):
        doc["edge_weights"] = graph.edge_weights.tolist()
    return doc


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(graph=graphs())
def test_save_graph_writes_the_bytes_of_one_json_dumps(scratch, graph):
    path = scratch / "graph.json"
    save_graph(graph, path)
    assert path.read_bytes() == json.dumps(_listed(graph), sort_keys=True).encode()
    loaded = load_weighted_graph(path)
    base = graph.base if isinstance(graph, WeightedGraph) else graph
    features = base.features
    if features is not None and not len(features):
        features = features.reshape(0, 0)  # [] carries no width
    for want, got in [(base.edges, loaded.base.edges), (features, loaded.base.features),
                      (base.labels, loaded.base.labels)]:
        assert (want is None and got is None) or _same_bits(want, got)
    if isinstance(graph, WeightedGraph):
        assert _same_bits(graph.edge_weights, loaded.edge_weights)


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_no_partial_file(tmp_path, existing):
    path = tmp_path / "doc.json"
    if existing:
        path.write_text('{"old": 1}')
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(path, {"a": np.arange(3 * BLOCK), "z": object()})
    assert [p.name for p in tmp_path.iterdir()] == (["doc.json"] if existing else [])
    if existing:
        assert path.read_text() == '{"old": 1}'


def test_writer_keeps_json_dumps_errors_and_key_order(tmp_path):
    doc = {"b": np.zeros((2, 0)), "a": {"y": 1, "x": [1.5]}, "c": np.array([-0.0, 1e16])}
    write_json(tmp_path / "d.json", doc)
    listed = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in doc.items()}
    assert (tmp_path / "d.json").read_text() == json.dumps(listed, sort_keys=True)
    with pytest.raises(TypeError):
        write_json(tmp_path / "e.json", {"a": np.array(1.0)})


# ---------------------------------------------------------------------------
# Reader: what one json.loads and the array typing rules give
# ---------------------------------------------------------------------------

FIELDS = {
    "edges": ((None, 2), "integer"),
    "features": ((None, None), "number"),
    "labels": ((None,), "integer"),
    "weights": ((None,), "number"),
}


def _reference_read(path):
    """The whole text through one json.loads, as read_json did it."""
    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise FileFormatError(f"repeated key {repeated!r}", path)
        return doc

    try:
        doc = json.loads(path.read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc.msg} at offset {exc.pos}",
                              path, exc.lineno) from exc
    if type(doc) is not dict:
        raise FileFormatError("top-level JSON value must be an object", path)
    return doc


def _reference_array(doc, key, shape, kind):
    """JsonObject.array's rules on the list json.loads gave."""
    if key not in doc:
        return "absent"
    value = doc[key]
    if type(value) is not list:
        return "mistyped"
    kinds, dtype = {"integer": ("i", np.int64), "number": ("if", np.float64)}[kind]
    if not value:
        return np.empty((0,) + tuple(d or 0 for d in shape[1:]), dtype)
    try:
        arr = np.asarray(value)
    except ValueError:
        return "mistyped"
    if (arr.ndim != len(shape) or arr.dtype.kind not in kinds
            or any(d not in (None, n) for d, n in zip(shape, arr.shape))
            or bool in map(type, value if arr.ndim == 1 else chain.from_iterable(value))):
        return "mistyped"
    return arr.astype(dtype, copy=False)


def _array(doc, key, shape, kind):
    try:
        arr = doc.array(key, shape, kind, "typed", None)
    except FileFormatError:
        return "mistyped"
    return "absent" if arr is None else arr


def _outcome(path, read, array, raw):
    try:
        doc = read(path)
    except FileFormatError as exc:
        return str(exc), exc.line
    fields = {key: array(doc, key, *spec) for key, spec in FIELDS.items()}
    return {"raw": json.dumps(raw(doc)), **fields}


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, dict) and got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], str):
            assert got[key] == want[key], key
        else:
            assert not isinstance(got[key], str) and _same_bits(got[key], want[key]), key


ints = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 99)
int_rows = st.lists(st.lists(ints, min_size=2, max_size=2), max_size=25)
float_rows = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width), max_size=20))
SEPARATOR_TEXT = st.sampled_from([", ", "], ", "], [", "a], [1, 2", "[1, 2], ["])
# values that send an array down the whole-text path
ITEMS = [True, False, None, "s", ", ", "], [", {"k": [1, 2]}, [], [1], 2**63,
         -(2**63) - 1, 2**70, 1.5, 7]


@st.composite
def documents(draw):
    doc = draw(st.fixed_dictionaries({}, optional={
        "edges": int_rows,
        "features": float_rows,
        "labels": st.lists(ints, max_size=40),
        "weights": st.lists(st.floats(), max_size=40),
        "num_nodes": ints,
        "note": SEPARATOR_TEXT,
        "meta": st.fixed_dictionaries({"edges": int_rows, "a], [b, c": st.just(1)}),
    }))
    arrays = [key for key in FIELDS if doc.get(key)]
    mutation = draw(st.sampled_from(["none", "item", "ragged", "mixed", "separator key"]))
    if mutation == "item" and arrays:
        values = doc[draw(st.sampled_from(arrays))]
        i = draw(st.integers(0, len(values) - 1))
        if isinstance(values[i], list) and values[i]:
            values, i = values[i], draw(st.integers(0, len(values[i]) - 1))
        values[i] = draw(st.sampled_from(ITEMS))
    elif mutation == "ragged" and doc.get("edges"):
        row = doc["edges"][draw(st.integers(0, len(doc["edges"]) - 1))]
        row.append(1) if draw(st.booleans()) else row.pop()
    elif mutation == "mixed":  # a chunk of ints next to a chunk of floats
        doc["weights"] = (draw(st.lists(st.integers(0, 9), min_size=1, max_size=30))
                          + draw(st.lists(st.floats(0, 1), min_size=1, max_size=30)))
    elif mutation == "separator key":
        doc[draw(SEPARATOR_TEXT)] = draw(st.lists(ints, max_size=5))
    order = draw(st.permutations(list(doc)))
    indent = draw(st.sampled_from([None, None, 0, 2]))
    separators = draw(st.sampled_from([None, (",", ":"), (" ,", " : ")])) if indent is None else None
    text = json.dumps({key: doc[key] for key in order}, indent=indent, separators=separators)
    damage = draw(st.sampled_from(["none", "none", "truncate", "repeat key", "wrap"]))
    if damage == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif damage == "repeat key" and doc:
        text = text[:-1] + ", " + text[1:]
    elif damage == "wrap":
        text = "[" + text + "]"
    return text


@settings(max_examples=300, deadline=None)
@given(text=documents(), chunk=st.sampled_from([4, 9, 16, 50, 1 << 16]),
       block=st.sampled_from([1, 2, 3, BLOCK]))
def test_chunked_reader_matches_one_json_loads(scratch, text, chunk, block):
    path = scratch / "doc.json"
    path.write_text(text)
    want = _outcome(path, _reference_read, _reference_array, lambda doc: doc)
    with mock.patch.object(jsonfile, "_CHUNK_CHARS", chunk), \
            mock.patch.object(jsonfile, "_BLOCK_ROWS", block):
        got = _outcome(path, read_json, _array, lambda doc: doc.raw)
    _assert_same(got, want)


@pytest.mark.parametrize("text, line", [
    ('{"edges": [[0, 1], [1, 2]],\n "labels": [0, 1 2]}', 2),
    ('{"edges": [[0, 1]],\n "edges": [[1, 2]]}', None),
    ('{"labels": [0, 1, 2],\n\n "weights": [0.5, 0.5,', 3),
    ('{"weights": [0.5, 0.25,  , 1.0, 0.5]}', 1),
    ('{"weights": [0.5, 0.25, 1.0, 0.5, ]}', 1),
    ('{"edges": [[0, 1], [1, 2], , [2, 3]]}', 1),
    ('{"labels": [0, 1]} {"x": 1}', 1),
    ('{"labels": [0, 1]}]', 1),
])
def test_chunked_reader_reports_json_loads_errors(tmp_path, text, line):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FileFormatError) as want:
        _reference_read(path)
    for chunk in range(4, len(text)):
        with mock.patch.object(jsonfile, "_CHUNK_CHARS", chunk):
            with pytest.raises(FileFormatError) as got:
                read_json(path)
        assert str(got.value) == str(want.value) and got.value.line == want.value.line == line


def test_written_graph_is_read_without_the_whole_text_path(tmp_path):
    rng = np.random.default_rng(0)
    us, vs = np.triu_indices(50, 1)
    graph = LabeledGraph(num_nodes=50, edges=np.stack([us, vs], 1)[::4],
                         features=rng.standard_normal((50, 3)), labels=rng.integers(0, 2, 50))
    save_graph(graph, tmp_path / "g.json")
    with mock.patch.object(jsonfile, "_CHUNK_CHARS", 64), \
            mock.patch.object(jsonfile.json, "loads", side_effect=AssertionError("whole text")):
        doc = read_json(tmp_path / "g.json")
    edges = doc.array("edges", (None, 2), "integer", "pairs")
    assert np.array_equal(edges, graph.edges)
    assert doc.raw["features"] == graph.features.tolist()


# ---------------------------------------------------------------------------
# Memory: no whole-array Python lists at 2 x 10k nodes
# ---------------------------------------------------------------------------

def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_file_io_memory_is_bounded(tmp_path):
    m = 10_000
    q = (0.05 * 299 + 0.02 * 300) / (2.5 * (m - 1) + m)  # mean degree ~21
    graph = generate_csbm(symmetric_binary_params(2.0, 16, (m, m), 2.5 * q, q), seed=0)
    weighted = WeightedGraph(base=graph, edge_weights=np.random.default_rng(0).random(graph.num_edges))
    path = tmp_path / "big.json"
    save_peak = _traced_peak(lambda: save_graph(weighted, path))
    size = path.stat().st_size
    load_peak = _traced_peak(lambda: load_weighted_graph(path))
    assert save_peak < 8e6, f"save_graph peaked at {save_peak / 1e6:.1f} MB"
    assert load_peak < 2.5 * size, f"load peaked at {load_peak / size:.2f}x the file's {size} bytes"
