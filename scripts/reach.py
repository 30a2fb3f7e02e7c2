#!/usr/bin/env python3
"""The statements of src/graphost that the tier-1 suite never runs.

Runs pytest in this process under a line tracer (`sys.settrace`, and
`threading.settrace` for the worker threads graphost starts), then prints
each function-body statement of src/graphost that no test executed, as
`path:line: its first line`, and a count. Docstrings and `global` /
`nonlocal` lines are left out. A statement counts as run when any of its
lines ran. Code in a child process (the CLI tests that spawn
`python -m graphost`, scripts/run_benchmark.py) is not traced.

The tracer is installed again before each test. Some tests replace or clear
the process's trace function, and a tracer installed once stops recording
partway through the run.

Each file's text is read before pytest starts, and the statements are
listed against that text. If a file reads otherwise after the run, the
script names it and exits 2: the traced line numbers belong to the text
before the edit.

A statement may stay unreached only if ALLOWED names it, with a reason,
which is printed beside it. The script exits 1 if it lists a statement
ALLOWED does not name, and with pytest's code otherwise.

Not part of tier-1: the traced run takes several minutes.

Usage: python3 scripts/reach.py [PYTEST_ARGS ...]
       (default: -q -p no:cacheprovider tests)
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "graphost"

# Statements allowed to stay unreached, by (path under the repo, the
# statement's first line, stripped), each with its reason. Empty: every
# function-body statement of src/graphost has a test that runs it.
ALLOWED: dict[tuple[str, str], str] = {}

_hits: dict[str, set[int]] = {str(path): set() for path in sorted(SRC.glob("*.py"))}
_keys: dict[str, str | None] = {}  # a code object's filename -> its _hits key, or None


def _local(frame, event, arg):
    if event == "line":
        _hits[_keys[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _keys:
        real = os.path.realpath(name)
        _keys[name] = real if real in _hits else None
    return _local if _keys[name] else None


def _install() -> None:
    sys.settrace(_global)
    threading.settrace(_global)


class _Reinstall:
    """Puts the tracer back before each test's setup."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        _install()


def _body(statements: list[ast.stmt]):
    """Every statement in `statements`, with those nested in compound
    statements; nested function and class bodies are walked on their own."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _body(getattr(stmt, name, []))
        for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _body(part.body)


def unreached(source: str, ran: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each function-body statement of the module `source`
    none of whose lines is in `ran`."""
    lines = source.splitlines()
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if ast.get_docstring(fn, clean=False) is not None:
            body = body[1:]
        for stmt in _body(body):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            if ran.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
                found.append((stmt.lineno, lines[stmt.lineno - 1].strip()))
    # a statement inside an unreached compound statement is listed too
    return sorted(set(found))


def report(sources: dict[str, str], hits: dict[str, set[int]], code: int) -> int:
    """Prints the unreached statements of `sources` ({path: its text before
    the run}) given the lines in `hits`, and returns the exit code for
    pytest's `code`. A file that no longer reads as its snapshot is named,
    and the code is 2: the traced lines belong to the text before."""
    total = unlisted = 0
    for name, source in sources.items():
        path = Path(name).relative_to(ROOT)
        for line, text in unreached(source, hits[name]):
            reason = ALLOWED.get((str(path), text))
            print(f"{path}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
            total += 1
            unlisted += reason is None
    print(f"{total} function-body statements never ran, {unlisted} of them not allowed")
    changed = [name for name, source in sources.items() if Path(name).read_text() != source]
    for name in changed:
        print(f"{Path(name).relative_to(ROOT)} changed during the run; "
              "its statements are listed as it read before", file=sys.stderr)
    return 2 if changed else 1 if unlisted else int(code)


def main(argv: list[str]) -> int:
    sources = {name: Path(name).read_text() for name in _hits}
    _install()
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                           plugins=[_Reinstall()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return report(sources, _hits, code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
