"""The README's Python examples run as written, and its command lines and
exit-code paragraph are current."""

from __future__ import annotations

import builtins
import re
from pathlib import Path

import pytest

import kgraphs
import kgraphs.cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def _command_lines() -> list[list[str]]:
    """The argv of each ``kgraphs`` line in the sh block under "## Command line"."""
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [re.sub(r"[][]", "", line.split("#", 1)[0]).split()[1:]
            for line in lines if line.startswith("kgraphs ")]


COMMANDS = _command_lines()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def _subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_exit_code_paragraph_names_every_error_class():
    # the paragraph documents the KGraphError hierarchy: it names exactly the
    # subclasses the package defines, so neither can drift from the other
    paragraph = next(p for p in README.read_text(encoding="utf-8").split("\n\n")
                     if p.startswith("Exit codes:"))
    named = {n for n in re.findall(r"`([A-Z]\w*)`", paragraph) if not hasattr(builtins, n)}
    defined = {c.__name__ for c in _subclasses(kgraphs.KGraphError)
               if c.__module__.startswith("kgraphs.")}
    assert "`kgraphs.KGraphError`" in paragraph
    assert named == defined


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_parses(argv, capsys):
    # a removed subcommand or option would stay documented otherwise
    try:
        kgraphs.cli._make_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(capsys.readouterr().err)
