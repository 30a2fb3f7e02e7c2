"""How graphost reads and writes its JSON files.

Graphs, CSBM params, checkpoints, CLI config files and reports are each one
JSON object, written by `write_json` and read by `read_json`, whose
`JsonObject` reads each field by its JSON type. One typing rule holds for
every field of every file:

- true/false is never a number, a float is never an integer and a string is
  never a number;
- a scalar number is finite (an array's values are checked by the type
  built from it, which can name the offending row);
- a missing required field is named, and no object repeats a key.

Any breach raises the file's `FileFormatError` subclass, whose message
names the path once, as its prefix.
"""

from __future__ import annotations

import json
import logging
import sys
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["FileFormatError", "JsonObject", "read_json", "write_json"]

log = logging.getLogger(__name__)

_REQUIRED = object()
# JSON kind -> (numpy dtype kinds np.asarray gives it, dtype returned)
_ARRAY_KINDS = {"integer": ("i", np.int64), "number": ("if", np.float64)}


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
    """The one JSON writer: sorted keys, json's default separators."""
    Path(path).write_text(json.dumps(doc, sort_keys=True))
    log.info("wrote %s", path)


def read_json(path: str | Path, error: type[FileFormatError] = FileFormatError) -> "JsonObject":
    """The file's top-level object; invalid JSON names its line, and a key
    repeated within one object is an error rather than last-one-wins."""

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise error(f"repeated key {repeated!r}", path)
        return doc

    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg} at offset {exc.pos}", path, exc.lineno) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise error(f"unreadable JSON: {exc}", path) from exc
    return JsonObject(doc, path, error)


def _is_number(value) -> bool:
    # abs() <= max also rejects NaN, and integers no float can hold
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class JsonObject:
    """A decoded JSON object whose fields are read by type. `where` names a
    nested object ("spec", "params.W0") in messages; `path` is None for a
    dict that came from no file."""

    def __init__(self, doc, path: str | Path | None = None,
                 error: type[FileFormatError] = FileFormatError, where: str = ""):
        self.raw, self.path, self.error, self.where = doc, path, error, where
        self._in = f" in {where}" if where else ""
        if type(doc) is not dict:
            self.fail(f'"{where}" must be an object' if where
                      else "top-level JSON value must be an object")

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
        if key not in self.raw:
            if default is _REQUIRED:
                self.fail(f"missing required key {key!r}{self._in}")
            return default
        if not is_type(self.raw[key]):
            self.fail(f'"{key}"{self._in} must be {shown}')
        return self.raw[key]

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self._field(key, default, lambda v: type(v) is int, "an integer")

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
        1-d or 2-d `shape`, where None is any length; [] is an empty array."""
        if key not in self.raw and default is not _REQUIRED:
            return default
        value = self._field(key, default, lambda v: type(v) is list, shown)
        kinds, dtype = _ARRAY_KINDS[kind]
        if not value:
            return np.empty((0,) + tuple(d or 0 for d in shape[1:]), dtype)
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged rows
            arr = None
        if (arr is None or arr.ndim != len(shape) or arr.dtype.kind not in kinds
                or any(d not in (None, n) for d, n in zip(shape, arr.shape))
                or bool in map(type, value if arr.ndim == 1 else chain.from_iterable(value))):
            self.fail(f'"{key}"{self._in} must be {shown}')
        return arr.astype(dtype, copy=False)
