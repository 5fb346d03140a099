"""Print the code lines of ``src/kgraphs``: lines that hold a token, leaving
out docstrings, comments and blank lines.  One ``<module>: <count>`` line per
module comes first, and the last line is the total alone.  Standard library
only; run it as ``python3 tools/code_lines.py`` from any directory."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kgraphs"
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {line for t in tokens if t.type not in NO_CODE for line in range(t.start[0], t.end[0] + 1)}
    return len(lines - docstrings)


def report(src: Path) -> list[str]:
    """The printed lines for the modules of ``src``, in file-name order."""
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    return [f"{name}: {count}" for name, count in counts.items()] + [str(sum(counts.values()))]


if __name__ == "__main__":
    print("\n".join(report(SRC)))
