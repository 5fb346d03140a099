"""Line-oriented text format for colored graphs with squares.

One declaration per line, ``#`` starts a comment::

    kgraph 1 k=2 colors=blue,red
    vertex v
    edge b : red v -> x
    square e h = k b

A square line ``square a b = c d`` declares the identification of the
2-paths "b then a" and "d then c" (juxtaposition composes right to left).
Its edges are declared above it.  :func:`parse` checks each declaration,
squares included, at its line, so the first failing line of a file wins.
A split request lives in its own partition file, read only by
:func:`parse_partition_file`::

    split color=blue base=v
    partition v : {alpha} {h} {i}

Partition blocks list edge ids inside braces without spaces; block order
is meaningful.  Serialization is canonical:
declarations are sorted, so ``parse(serialize(x)) == x`` and equal
documents serialize byte-for-byte equally.  Two line generators are the
one writer of the syntax: :func:`document_lines` for a ``.kg`` document
and :func:`sidecar_lines` for a ``.parents`` sidecar.  :func:`serialize`
and :func:`sidecar_text` join their lines, ``kgraphs split`` writes them
as they come, so neither file is held whole, and :func:`check_split`
accepts a split's files only when their lines are :func:`split_lines`,
what ``kgraphs split`` writes.  No other module writes the syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .skeleton import (Edge, KGraph, Side, Skeleton, SquareSet, StructureError, UsageError, build_kgraph,
                       checked_square, declare_edge, declare_vertex)
from .splitting import SplitError, SplitResult, SplitSpec, block_problem

_ID = re.compile(r"^[^\s{}#,=:]+$")
_TOKEN = re.compile(r"\S+")
_BLOCK = re.compile(r"^\{([^\s{}#]*)\}$")
_EDGE_TOKEN = {"name": 1, "color": 3, "source": 4, "range": 6}  # each Edge field's token in an edge line


class ParseError(UsageError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class GraphDocument:
    """A parsed ``.kg`` file: its header, skeleton and squares.  A split
    request is not part of it; see :func:`parse_partition_file`."""

    version: str
    colors: tuple[str, ...]
    skeleton: Skeleton
    squares: SquareSet

    @property
    def k(self) -> int:
        return self.skeleton.k

    def color_index(self, name: str) -> int:
        try:
            return self.colors.index(name) + 1
        except ValueError:
            raise StructureError(f"unknown color {name!r}; have {', '.join(self.colors)}") from None

    def color_name(self, index: int) -> str:
        return self.colors[index - 1]

    def build(self) -> KGraph:
        """Validate the axioms; raises ``KGraphInvalid`` with the report."""
        return build_kgraph(self.skeleton, self.squares)


def _declarations(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, raw line, tokens)`` per declaration line; lines end only at LF, CRLF or CR."""
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if tokens:
            yield lineno, raw, tokens


def _column(raw: str, index: int) -> int:
    """1-based start column of token ``index`` of a declaration line (found only for errors)."""
    return list(_TOKEN.finditer(raw))[index].start() + 1


def _check_id(token: str, what: str, line: int, raw: str, index: int, skip: int = 0) -> str:
    """``token`` if it is a valid id; it starts ``skip`` characters into token ``index``."""
    if not _ID.match(token) or token in ("->", "-"):
        raise ParseError(line, _column(raw, index) + skip, f"invalid {what} identifier {token!r}")
    return token


def parse(text: str) -> GraphDocument:
    """Parse a document, checking each declaration at its line, so the first
    failing line wins.

    Id syntax is checked here.  A vertex, edge or square line is checked by
    ``declare_vertex``, ``declare_edge`` or ``checked_square``, the checks of
    ``Skeleton.create`` and ``SquareSet.create``; this adds the line, the
    column of the failing token, and the file's name for a color.

    Every id is stored as one string: an edge's endpoints are the strings of
    their ``vertex`` lines, and a square side holds its edges' ``Edge.name``.
    """
    k, version, colors = 0, "", ()  # the header's fields; k is 0 until it is read
    color_index: dict[str, int] = {}
    vertices: dict[str, str] = {}  # each vertex id mapped to itself, the one string kept
    edges: dict[str, Edge] = {}
    squares: dict[tuple[Side, Side], None] = {}  # checked pairs in first-seen order

    for lineno, raw, tokens in _declarations(text):
        keyword = tokens[0]
        if keyword == "square":
            if len(tokens) != 6 or tokens[3] != "=":
                raise ParseError(lineno, 1, "expected: square <a> <b> = <c> <d>")
            try:
                quad = edges[tokens[1]], edges[tokens[2]], edges[tokens[4]], edges[tokens[5]]
            except KeyError:
                i = next(i for i in (1, 2, 4, 5) if tokens[i] not in edges)
                raise ParseError(lineno, _column(raw, i), f"unknown edge {tokens[i]!r}") from None
            try:
                squares[checked_square(*quad)] = None
            except StructureError as exc:
                raise ParseError(lineno, 1, str(exc)) from None
        elif keyword == "edge":
            if len(tokens) != 7 or tokens[2] != ":" or tokens[5] != "->":
                raise ParseError(lineno, 1, "expected: edge <id> : <color> <source> -> <range>")
            name = _check_id(tokens[1], "edge", lineno, raw, 1)
            if failed := declare_edge(edges, vertices, k, name, color_index.get(tokens[3], 0),
                                      tokens[4], tokens[6]):
                field, problem = failed
                if field == "color":  # the library numbers colors, a file names them
                    if not k:
                        raise ParseError(lineno, 1, "edge before header line")
                    problem = f"unknown color {tokens[3]!r}"
                raise ParseError(lineno, _column(raw, _EDGE_TOKEN[field]), problem)
        elif keyword == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "expected: vertex <id>")
            name = _check_id(tokens[1], "vertex", lineno, raw, 1)
            if problem := declare_vertex(vertices, edges, name):
                raise ParseError(lineno, _column(raw, 1), problem)
        elif keyword == "kgraph":
            if k:
                raise ParseError(lineno, 1, "duplicate header line")
            if len(tokens) != 4 or not tokens[2].startswith("k=") or not tokens[3].startswith("colors="):
                raise ParseError(lineno, 1, "expected: kgraph <version> k=<int> colors=<name,...>")
            rank = tokens[2][2:]
            if not (rank.isascii() and rank.isdigit()) or int(rank) < 1:
                raise ParseError(lineno, _column(raw, 2), f"bad rank {rank!r}")
            k, version = int(rank), tokens[1]
            colors = tuple(tokens[3][len("colors="):].split(","))
            skip = len("colors=")
            for c in colors:
                _check_id(c, "color", lineno, raw, 3, skip)
                skip += len(c) + 1
            if len(colors) != k or len(set(colors)) != k:
                raise ParseError(lineno, 1, f"need {k} distinct color names, got {', '.join(colors)}")
            color_index = {c: i for i, c in enumerate(colors, start=1)}
        else:
            raise ParseError(lineno, _column(raw, 0), f"unknown declaration {keyword!r}")

    if not k:
        raise ParseError(1, 1, "missing header line: kgraph <version> k=<int> colors=<name,...>")
    return GraphDocument(version, colors, Skeleton.declared(k, vertices, edges),
                         SquareSet(tuple(sorted(squares))))


def _split_fields(tokens: list[str], lineno: int) -> tuple[str, str]:
    """Color and base named by a ``split color=<color> base=<vertex>`` line."""
    if len(tokens) != 3 or not tokens[1].startswith("color=") or not tokens[2].startswith("base="):
        raise ParseError(lineno, 1, "expected: split color=<color> base=<vertex>")
    return tokens[1][len("color="):], tokens[2][len("base="):]


def parse_partition_file(text: str, doc: GraphDocument) -> SplitSpec:
    """The split request of a partition file, checked against a parsed document.

    The file holds one ``split color=<color> base=<vertex>`` line and any
    number of ``partition <vertex> : {<e>,...} ...`` lines; no other reader
    accepts either keyword.  A block lists edge ids, none empty: ``{a,}`` is
    refused at its empty id, and ``{}`` or ``{,}`` as an empty block.  Each
    partition must cover its vertex's outgoing split-color edges, so
    ``block_problem`` is reported at its line.
    """
    skeleton = doc.skeleton
    vertices = frozenset(skeleton.vertices)
    edges = skeleton.edge_map
    split: tuple[int, str] | None = None
    partitions: dict[str, tuple[tuple[tuple[str, ...], ...], int]] = {}  # vertex -> (blocks, line)
    for lineno, raw, tokens in _declarations(text):
        if tokens[0] == "split":
            if split is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            color, base = _split_fields(tokens, lineno)
            if color not in doc.colors:
                raise ParseError(lineno, _column(raw, 1) + len("color="), f"unknown color {color!r}")
            if base not in vertices:
                raise ParseError(lineno, _column(raw, 2) + len("base="), f"unknown vertex {base!r}")
            split = doc.colors.index(color) + 1, base
        elif tokens[0] == "partition":
            if len(tokens) < 4 or tokens[2] != ":":
                raise ParseError(lineno, 1, "expected: partition <vertex> : {<e>,...} ...")
            v = tokens[1]
            if v not in vertices:
                raise ParseError(lineno, _column(raw, 1), f"unknown vertex {v!r}")
            if v in partitions:
                raise ParseError(lineno, _column(raw, 1), f"duplicate partition for {v!r}")
            blocks = []
            for i, tok in enumerate(tokens[3:], start=3):
                m = _BLOCK.match(tok)
                if not m:
                    raise ParseError(lineno, _column(raw, i), f"malformed block {tok!r}")
                names = m.group(1).split(",")
                if not any(names):
                    raise ParseError(lineno, _column(raw, i), "empty partition block")
                skip = 1
                for n in names:
                    if n not in edges:
                        problem = f"unknown edge {n!r}" if n else "empty edge id"
                        raise ParseError(lineno, _column(raw, i) + skip, problem)
                    skip += len(n) + 1
                blocks.append(tuple(sorted(names)))
            partitions[v] = (tuple(blocks), lineno)
        else:
            raise ParseError(lineno, _column(raw, 0), f"unknown declaration {tokens[0]!r}")
    if split is None:
        raise ParseError(1, 1, "missing split line")
    color, base = split
    for v, (blocks, lineno) in partitions.items():
        out = {e.name for e in skeleton.edges_from(v, color)}
        if problem := block_problem(v, blocks, out):
            raise ParseError(lineno, 1, problem)
    return SplitSpec(color, base, {v: blocks for v, (blocks, _) in sorted(partitions.items())})


def document_lines(doc: GraphDocument) -> Iterator[str]:
    """The canonical ``.kg`` text of ``doc``, one line at a time, each with its newline."""
    yield f"kgraph {doc.version} k={doc.k} colors={','.join(doc.colors)}\n"
    for v in doc.skeleton.vertices:
        yield f"vertex {v}\n"
    for e in doc.skeleton.edges:
        yield f"edge {e.name} : {doc.color_name(e.color)} {e.source} -> {e.range}\n"
    for (a, b), (c, d) in doc.squares.pairs:
        yield f"square {a} {b} = {c} {d}\n"


def serialize(doc: GraphDocument) -> str:
    return "".join(document_lines(doc))


def document_for_graph(graph: KGraph, colors: Iterable[str], version: str = "1") -> GraphDocument:
    colors = tuple(colors)
    if len(colors) != graph.k:
        raise UsageError(f"need {graph.k} color names, got {len(colors)}")
    return GraphDocument(version, colors, graph.skeleton, graph.squares)


def sidecar_lines(color: str, base: str, parent: Mapping[str, str]) -> Iterator[str]:
    """Parent-map sidecar: split header plus one ``parent`` line per item, in id order."""
    yield f"split color={color} base={base}\n"
    for child in sorted(parent):
        yield f"parent {child} = {parent[child]}\n"


def sidecar_text(color: str, base: str, parent: Mapping[str, str]) -> str:
    return "".join(sidecar_lines(color, base, parent))


def split_lines(doc: GraphDocument, result: SplitResult) -> tuple[Iterator[str], Iterator[str]]:
    """The lines of the ``.kg`` and ``.parents`` files ``kgraphs split`` writes for a split of ``doc``."""
    return (document_lines(document_for_graph(result.graph, doc.colors, doc.version)),
            sidecar_lines(doc.color_name(result.color), result.base, result.parent))


def check_split(doc: GraphDocument, result: SplitResult, split: GraphDocument,
                sidecar: tuple[str, str, Mapping[str, str]]) -> None:
    """Refuse parsed split files, ``sidecar`` as :func:`parse_sidecar` returns it, unless
    their canonical lines are :func:`split_lines` of the replay ``result``.

    :class:`SplitError` names the first replay line the files lack, else
    the first files line the replay lacks.  No line repeats on either side
    (``parse`` refuses repeated vertex and edge lines and dedupes squares,
    ``parse_sidecar`` refuses repeated split and parent
    lines, and the two files share no keyword), so equal line sets mean
    equal canonical texts.  An accepted ``.kg`` file is the replay's, which
    passed ``build_kgraph``, so it needs no validation.
    """
    replay = [line for lines in split_lines(doc, result) for line in lines]
    files = [*document_lines(split), *sidecar_lines(*sidecar)]
    present, expected = set(files), set(replay)
    for line in replay:
        if line not in present:
            raise SplitError(f"{line[:-1]} is in the split of the input but not in the files")
    for line in files:
        if line not in expected:
            raise SplitError(f"{line[:-1]} is in the files but not in the split of the input")


def parse_sidecar(text: str) -> tuple[str, str, dict[str, str]]:
    """Returns (color name, base vertex, child-to-parent map)."""
    color = base = None
    parents: dict[str, str] = {}
    for lineno, raw, tokens in _declarations(text):
        if tokens[0] == "split":
            if color is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            color, base = _split_fields(tokens, lineno)
        elif tokens[0] == "parent":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError(lineno, 1, "expected: parent <item> = <item>")
            if tokens[1] in parents:
                raise ParseError(lineno, _column(raw, 1),
                                 f"duplicate parent line for {tokens[1]!r}")
            parents[tokens[1]] = tokens[3]
        else:
            raise ParseError(lineno, _column(raw, 0), f"unknown declaration {tokens[0]!r}")
    if color is None:
        raise ParseError(1, 1, "missing split line in parent sidecar")
    return color, base, parents


_DOT_STYLES = ("solid", "dashed", "dotted")


def _dot_quoted(name: str) -> str:
    """``name`` as a DOT double-quoted string (ids may contain ``"`` and ``\\``)."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_export(doc: GraphDocument) -> str:
    """Graphviz rendering; squares travel as a comment block."""
    lines = ["digraph kgraph {"]
    legend = " ".join(
        f"{name}={_DOT_STYLES[(i - 1) % len(_DOT_STYLES)]}"
        for i, name in enumerate(doc.colors, start=1)
    )
    lines.append(f"  // colors: {legend}")
    if doc.squares.pairs:
        lines.append("  // squares:")
        for s1, s2 in doc.squares.pairs:
            lines.append(f"  //   {s1[0]} {s1[1]} = {s2[0]} {s2[1]}")
    for v in doc.skeleton.vertices:
        lines.append(f"  {_dot_quoted(v)};")
    for e in doc.skeleton.edges:
        style = _DOT_STYLES[(e.color - 1) % len(_DOT_STYLES)]
        lines.append(f"  {_dot_quoted(e.source)} -> {_dot_quoted(e.range)} "
                     f"[label={_dot_quoted(e.name)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
