"""The checkout's own tools: the line counter and the raise-statement mutator.
No mutant suite runs here, and nothing is written in the checkout."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sloc():
    return _tool("sloc")


@pytest.fixture(scope="module")
def raise_audit():
    return _tool("raise_audit")


class TestSloc:
    def test_counts_code_and_docstrings_not_blanks_or_comments(self, sloc, tmp_path):
        path = tmp_path / "module.py"
        path.write_text('"""A docstring\n\nof three lines."""\n\n# a comment\n'
                        "    # an indented comment\nx = 1  # trailing\n   \n")
        assert sloc.count_lines(path) == 3

    def test_prints_each_module_and_the_total(self, sloc, tmp_path, capsys):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\nz = 3\n")
        assert sloc.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"     1  {tmp_path / 'a.py'}", f"     2  {tmp_path / 'sub' / 'b.py'}",
            "     3  total"]

    def test_a_directory_without_modules_returns_1(self, sloc, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("x = 1\n")
        assert sloc.main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"no Python modules under {tmp_path}\n"


_SOURCE = '''def check(value):
    if value < 0:
        raise ValueError(
            f"negative: {value}",
        )
    if value > 9:
        raise OverflowError("too big")
    return value
'''


class TestRaiseAudit:
    def test_finds_each_raise_with_all_its_lines(self, raise_audit):
        assert raise_audit.raise_spans(_SOURCE) == [(3, 5), (7, 7)]

    def test_mutant_has_one_pass_and_moves_no_line(self, raise_audit):
        mutant = raise_audit.mutate(_SOURCE, 3, 5)
        lines, original = mutant.splitlines(), _SOURCE.splitlines()
        assert len(lines) == len(original)
        assert lines[2:5] == ["        pass", "", ""]
        assert lines[:2] == original[:2] and lines[5:] == original[5:]
        assert raise_audit.raise_spans(mutant) == [(7, 7)]
        assert raise_audit.mutate(_SOURCE, 7, 7).splitlines()[6] == "        pass"
