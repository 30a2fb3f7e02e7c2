"""How graphost reads and writes its JSON files.

Graphs, CSBM params, checkpoints, CLI config files and reports are each one
JSON object, written by `write_json` and read by `read_json`, whose
`JsonObject` reads each field by its JSON type. One typing rule holds for
every field of every file:

- true/false is never a number, a float is never an integer and a string is
  never a number (a CLI config file's values are typed by the CLI's option
  parsers instead, which read flag text too: `7` or `"7"` for an integer);
- a scalar number is finite (an array's values are checked by the type
  built from it, which can name the offending row);
- a missing required field is named, and no object repeats a key.

Any breach raises the file's `FileFormatError` subclass, whose message
names the path once, as its prefix. `typed` holds the config types built in
code (params, specs, optimizer and transform configs) to the same rule.

Graph files hold arrays of millions of numbers, which neither direction
builds as one nested Python list. `write_json` writes a top-level numpy
array `_BLOCK_ROWS` rows at a time, one `json.dumps` per block, into a
sibling temp file moved into place: the bytes are those of
`json.dumps(doc, sort_keys=True)` on the array's `.tolist()`, and a failed
write leaves the path as it was. `read_json` decodes each top-level array
with json's own scanner, `_CHUNK_CHARS` of text at a time cut at an item
separator (`, `, or `], ` between rows; item by item where no cut parses),
and packs each chunk into an int64 or float64 array. Anything else (ints
beside floats, bools, strings, nulls, objects, ragged rows, ints beyond
int64, a repeated key, invalid JSON, a top level that is not an object)
sends the whole text through one `json.loads`, so values, messages and
line numbers are those of `json.loads` either way.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

__all__ = ["FileFormatError", "JsonObject", "read_json", "typed", "write_json"]

log = logging.getLogger(__name__)

_REQUIRED = object()
# JSON kind -> (numpy dtype kinds np.asarray gives it, dtype returned)
_ARRAY_KINDS = {"integer": ("i", np.int64), "number": ("if", np.float64)}
_BLOCK_ROWS = 2048  # array rows per json.dumps, and per packed scanner run
_CHUNK_CHARS = 1 << 16  # array text per scanner call
_WHITESPACE = re.compile(r"[ \t\n\r]*")


class FileFormatError(ValueError):
    """Malformed graphost file; carries the offending path and 1-based line."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


def write_json(path: str | Path, doc: dict) -> None:
    """The one JSON writer: the bytes of json.dumps(doc, sort_keys=True),
    a top-level numpy array written as its .tolist() would be, a block of
    rows at a time; the file appears whole or not at all."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as out:
            out.write("{")
            for i, (key, value) in enumerate(sorted(doc.items())):
                out.write(", " if i else "")
                if isinstance(value, np.ndarray) and value.ndim:
                    out.write(json.dumps(key) + ": [")
                    for start in range(0, len(value), _BLOCK_ROWS):
                        out.write(", " if start else "")
                        out.write(json.dumps(value[start:start + _BLOCK_ROWS].tolist())[1:-1])
                    out.write("]")
                else:
                    out.write(json.dumps({key: value}, sort_keys=True)[1:-1])
            out.write("}")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    log.info("wrote %s", path)


def read_json(path: str | Path, error: type[FileFormatError] = FileFormatError) -> "JsonObject":
    """The file's top-level object, its top-level arrays of numbers packed;
    invalid JSON names its line, and a key repeated within one object is an
    error rather than last-one-wins."""

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise error(f"repeated key {repeated!r}", path)
        return doc

    try:
        text = Path(path).read_text()
        doc = _packed_object(text, json.JSONDecoder(object_pairs_hook=unique_keys).scan_once)
        if doc is None:
            doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg} at offset {exc.pos}", path, exc.lineno) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise error(f"unreadable JSON: {exc}", path) from exc
    return JsonObject(doc, path, error)


def _skip(text: str, i: int) -> int:
    return _WHITESPACE.match(text, i).end()


def _packed_object(text: str, scan) -> dict | None:
    """The top-level object of `text`, each top-level array of numbers an
    int64 or float64 array, or None where only json.loads can say what the
    text holds. `scan` is a JSONDecoder's scanner: scan(text, i) is the
    value starting at i and the index after it."""
    doc: dict = {}
    try:
        i = _skip(text, 0)
        if text[i] != "{":
            return None
        i = _skip(text, i + 1)
        while text[i] != "}":
            if doc:  # a comma before each later key
                if text[i] != ",":
                    return None
                i = _skip(text, i + 1)
            if text[i] != '"':
                return None
            key, i = scan(text, i)
            i = _skip(text, i)
            if text[i] != ":" or key in doc:
                return None
            i = _skip(text, i + 1)
            doc[key], i = _array(text, i + 1, scan) if text[i] == "[" else scan(text, i)
            i = _skip(text, i)
        if _skip(text, i + 1) != len(text):
            return None
    except (ValueError, StopIteration, IndexError, OverflowError, RecursionError):
        return None
    return doc


def _array(text: str, i: int, scan) -> tuple:
    """The array whose items start at i (after its "["), packed, and the
    index after its "]"; [] stays a list. ValueError where it is not one
    array of numbers."""
    i = _skip(text, i)
    if text[i] == "]":
        return [], i + 1
    rows = text[i] == "["
    separator = "], " if rows else ", "
    chunks = []
    while (cut := text.rfind(separator, i, i + _CHUNK_CHARS)) > i:
        end = cut + 1 if rows else cut  # a chunk of rows keeps its last "]"
        chunk = "[" + text[i:end] + "]"
        try:
            items, stop = scan(chunk, 0)
        except (ValueError, StopIteration):  # not plain items: one at a time below
            break
        chunks.append(_pack(items, rows))
        if stop < len(chunk):  # the array's own "]" closed the chunk
            return _joined(chunks), i + stop - 1
        i = end + 2
    items = []
    while True:
        item, i = scan(text, i)
        items.append(item)
        i = _skip(text, i)
        if text[i] == "]":
            break
        if text[i] != ",":
            raise ValueError("not an array")
        i = _skip(text, i + 1)
        if len(items) == _BLOCK_ROWS:
            chunks.append(_pack(items, rows))
            items = []
    chunks.append(_pack(items, rows))
    return _joined(chunks), i + 1


def _joined(chunks: list) -> np.ndarray:
    if len({(chunk.dtype, chunk.shape[1:]) for chunk in chunks}) > 1:
        raise ValueError("ints beside floats, or rows of two widths")
    return np.concatenate(chunks)


def _pack(items: list, rows: bool) -> np.ndarray:
    """Items (rows, if `rows`) that are all ints (int64) or all floats
    (float64; also rows of width 0, as np.asarray reads them). np.array
    raises ValueError for ragged rows and OverflowError beyond int64."""
    if not items or rows and set(map(type, items)) != {list}:
        raise ValueError("not a run of items or rows")
    types = set(map(type, chain.from_iterable(items) if rows else items))
    if types == {int}:
        return np.array(items, np.int64)
    if types <= {float}:
        return np.array(items, np.float64)
    raise ValueError("not all ints or all floats")


def _is_number(value) -> bool:
    # abs() <= max also rejects NaN, and integers no float can hold
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def typed(name: str, value, shown: str):
    """`value` if it is `shown` ("an integer", "a number" or "true or
    false"), numpy scalars included and an integer returned as an int;
    else a ValueError naming the field `name`. Only a switch is a bool."""
    kind = {"an integer": Integral, "a number": Real, "true or false": bool}[shown]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {shown}, got {value!r}")
    return int(value) if kind is Integral else value


class JsonObject:
    """A decoded JSON object whose fields are read by type. `where` names a
    nested object ("spec", "params.W0") in messages; `path` is None for a
    dict that came from no file."""

    def __init__(self, doc, path: str | Path | None = None,
                 error: type[FileFormatError] = FileFormatError, where: str = ""):
        self._doc, self.path, self.error, self.where = doc, path, error, where
        self._in = f" in {where}" if where else ""
        if type(doc) is not dict:
            self.fail(f'"{where}" must be an object' if where
                      else "top-level JSON value must be an object")

    @property
    def raw(self) -> dict:
        """The object as json.loads gives it: packed arrays are lists again,
        exactly, since read_json packs only all-int or all-float arrays."""
        return {key: value.tolist() if type(value) is np.ndarray else value
                for key, value in self._doc.items()}

    def __contains__(self, key: str) -> bool:
        return key in self._doc

    def keys(self) -> set[str]:
        return set(self._doc)

    def fail(self, message: str):
        raise self.error(message, self.path)

    def build(self, make: type, **fields):
        """make(**fields), a ValueError from it raised as this file's error."""
        try:
            return make(**fields)
        except ValueError as exc:
            raise self.error(str(exc), self.path) from exc

    def _field(self, key: str, default, is_type, shown: str):
        """doc[key] if `is_type` holds for it; `default` if it is absent."""
        if key not in self._doc:
            if default is _REQUIRED:
                self.fail(f"missing required key {key!r}{self._in}")
            return default
        if not is_type(self._doc[key]):
            self.fail(f'"{key}"{self._in} must be {shown}')
        return self._doc[key]

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self._field(key, default, lambda v: type(v) is int, "an integer")

    def boolean(self, key: str, default=_REQUIRED) -> bool:
        return self._field(key, default, lambda v: type(v) is bool, "true or false")

    def number(self, key: str) -> float:
        return float(self._field(key, _REQUIRED, _is_number, "a finite number"))

    def text(self, key: str) -> str:
        return self._field(key, _REQUIRED, lambda v: type(v) is str, "a string")

    def object(self, key: str, default=_REQUIRED) -> "JsonObject":
        value = self._field(key, default, lambda v: True, "")
        where = f"{self.where}.{key}" if self.where else key
        return JsonObject(value, self.path, self.error, where)

    def array(self, key: str, shape: tuple, kind: str, shown: str, default=_REQUIRED):
        """doc[key] as an int64 ("integer") or float64 ("number") array of a
        1-d or 2-d `shape`, where None is any length; [] is an empty array.
        A packed array is read as the list it was packed from would be."""
        if key not in self._doc and default is not _REQUIRED:
            return default
        value = self._field(key, default, lambda v: type(v) in (list, np.ndarray), shown)
        kinds, dtype = _ARRAY_KINDS[kind]
        if len(value) == 0:
            return np.empty((0,) + tuple(d or 0 for d in shape[1:]), dtype)
        arr = value if type(value) is np.ndarray else _list_array(value)
        if (arr is None or arr.ndim != len(shape) or arr.dtype.kind not in kinds
                or any(d not in (None, n) for d, n in zip(shape, arr.shape))):
            self.fail(f'"{key}"{self._in} must be {shown}')
        return arr.astype(dtype, copy=False)


def _list_array(value: list) -> np.ndarray | None:
    """np.asarray(value), or None for ragged rows or a bool among 1-d or 2-d
    items (np.asarray reads [1, True] as integers)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows
        return None
    if bool in map(type, value if arr.ndim == 1 else chain.from_iterable(value)):
        return None
    return arr
