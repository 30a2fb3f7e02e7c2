"""scripts/reach.py lists the unreached statements of each src/graphost file
against its text as it read before the traced run, and exits 2 naming a
file that reads otherwise after it. These tests load the script by its
path."""

import importlib.util
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach_script", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REACH_MODULE = load_reach()

SOURCE = '''def f(x):
    """Doc."""
    if x:
        return 1
    return 2
'''


def test_unreached_reads_the_source_text_it_is_given():
    assert REACH_MODULE.unreached(SOURCE, {3, 4}) == [(5, "return 2")]
    # the same hits against the text one line longer: two phantom statements
    assert REACH_MODULE.unreached("\n" + SOURCE, {3, 4}) == [(5, "return 1"),
                                                             (6, "return 2")]


@pytest.fixture
def module_file(tmp_path, monkeypatch):
    monkeypatch.setattr(REACH_MODULE, "ROOT", tmp_path)
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    return path


@pytest.mark.parametrize("ran, pytest_code, code, listed", [
    ({3, 4, 5}, 0, 0, []),
    ({3, 4, 5}, 1, 1, []),
    ({3, 4}, 0, 1, ["mod.py:5: return 2"]),
])
def test_report_lists_unreached_statements_and_exits_with_their_code(
        module_file, capsys, ran, pytest_code, code, listed):
    assert REACH_MODULE.report({str(module_file): SOURCE}, {str(module_file): ran},
                               pytest_code) == code
    out = capsys.readouterr()
    assert out.out.splitlines() == listed + [
        f"{len(listed)} function-body statements never ran, {len(listed)} of them not allowed"]
    assert out.err == ""


def test_report_lists_against_the_snapshot_and_exits_2_naming_an_edited_file(
        module_file, capsys):
    module_file.write_text("\n" + SOURCE)  # edited while the suite ran
    assert REACH_MODULE.report({str(module_file): SOURCE}, {str(module_file): {3, 4, 5}},
                               0) == 2
    out = capsys.readouterr()
    assert out.out == "0 function-body statements never ran, 0 of them not allowed\n"
    assert out.err == ("mod.py changed during the run; its statements are listed as it "
                       "read before\n")
