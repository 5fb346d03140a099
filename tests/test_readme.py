"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
