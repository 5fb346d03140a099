"""The counting rules and the report of ``tools/code_lines.py``."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # counted; the comment adds nothing


class Shape:
    """Class docstring."""

    # a comment line

    def area(self):
        """Function docstring,
        over two lines."""
        total = (1 +
                 2)
        "a string that is not a docstring"
        return total


async def main():
    """Async function docstring."""
    return """a string
over two lines"""
'''

# import, class, def, the two lines of ``total``, the bare string, return,
# async def, and the two lines of the returned string
SOURCE_LINES = 10


@pytest.fixture
def code_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("code_lines")


def test_rules_on_a_small_source(code_lines):
    assert code_lines.code_lines(SOURCE) == SOURCE_LINES


def test_one_count_per_module_then_the_total(code_lines, tmp_path):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert code_lines.report(tmp_path) == ["a.py: 1", f"b.py: {SOURCE_LINES}", str(SOURCE_LINES + 1)]


def test_script_prints_the_total_last(code_lines):
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == code_lines.report(code_lines.SRC)
    assert int(out[-1]) == sum(int(line.rsplit(": ", 1)[1]) for line in out[:-1])
