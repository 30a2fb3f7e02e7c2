"""perfbench's `--trace 1` wraps graphost functions at the names listed in
perfbench/spans.py's TARGETS; a binding renamed or moved in src/ would
crash that run. These tests load the module by its path and resolve every
entry, so such a rename fails tier-1 instead."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()


@pytest.mark.parametrize("path, attr", [(path, attr) for path, attr, _, _ in
                                        SPANS_MODULE.TARGETS])
def test_target_resolves(path, attr):
    owner = SPANS_MODULE._owner(path)
    assert callable(getattr(owner, attr)), f"{path}.{attr}"


def test_install_and_uninstall_restore_every_binding():
    recorder = SPANS_MODULE.Recorder()
    before = [getattr(SPANS_MODULE._owner(path), attr)
              for path, attr, _, _ in SPANS_MODULE.TARGETS]
    undo = recorder.install()
    try:
        assert len(undo) == len(SPANS_MODULE.TARGETS)
    finally:
        recorder.uninstall(undo)
    after = [getattr(SPANS_MODULE._owner(path), attr)
             for path, attr, _, _ in SPANS_MODULE.TARGETS]
    assert all(a is b for a, b in zip(after, before))
