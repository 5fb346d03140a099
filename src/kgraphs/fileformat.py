"""Line-oriented text format for colored graphs with squares.

One declaration per line, ``#`` starts a comment::

    kgraph 1 k=2 colors=blue,red
    vertex v
    edge b : red v -> x
    square e h = k b
    split color=blue base=v
    partition v : {alpha} {h} {i}

A square line ``square a b = c d`` declares the identification of the
2-paths "b then a" and "d then c" (juxtaposition composes right to left).
Partition blocks list edge ids inside braces without spaces; block order
is meaningful.  A split block, like a standalone partition file (see
:func:`parse_partition_file`), parses into a ``splitting.SplitSpec`` with
the color index resolved against the header.  Serialization is canonical:
declarations are sorted, so ``parse(serialize(x)) == x`` and equal
documents serialize byte-for-byte equally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

from .skeleton import Edge, KGraph, Side, Skeleton, SquareSet, StructureError, UsageError, build_kgraph
from .splitting import SplitResult, SplitSpec, block_problem

_ID = re.compile(r"^[^\s{}#,=:]+$")
_TOKEN = re.compile(r"\S+")
_BLOCK = re.compile(r"^\{([^\s{}#]*)\}$")

# vertex -> (ordered blocks, line number of its partition line)
Partitions = dict[str, tuple[tuple[tuple[str, ...], ...], int]]


class ParseError(UsageError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class GraphDocument:
    version: str
    colors: tuple[str, ...]
    skeleton: Skeleton
    squares: SquareSet
    split: SplitSpec | None = None

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
    """``(line number, raw line, tokens)`` for each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
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
    """Parse a document, validating names, square well-formedness and, per
    declaration, the rules of ``Skeleton.create``, so the skeleton is built
    directly from the checked data: the two rule sets must stay in step.
    """
    header: tuple[str, int, tuple[str, ...]] | None = None
    vertices: set[str] = set()
    edges: dict[str, Edge] = {}
    squares: list[tuple[Side, Side, int]] = []
    split_header: tuple[int, str] | None = None
    partitions: Partitions = {}

    for lineno, raw, tokens in _declarations(text):
        keyword = tokens[0]
        if keyword == "kgraph":
            if header is not None:
                raise ParseError(lineno, 1, "duplicate header line")
            if len(tokens) != 4 or not tokens[2].startswith("k=") or not tokens[3].startswith("colors="):
                raise ParseError(lineno, 1, "expected: kgraph <version> k=<int> colors=<name,...>")
            try:
                k = int(tokens[2][2:])
            except ValueError:
                raise ParseError(lineno, _column(raw, 2), f"bad rank {tokens[2][2:]!r}") from None
            colors = tuple(tokens[3][len("colors="):].split(","))
            if k < 1 or len(colors) != k or len(set(colors)) != k or any(not c for c in colors):
                raise ParseError(lineno, 1, f"need {k} distinct color names, got {colors}")
            skip = len("colors=")
            for c in colors:
                _check_id(c, "color", lineno, raw, 3, skip)
                skip += len(c) + 1
            header = (tokens[1], k, colors)
        elif keyword == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "expected: vertex <id>")
            name = _check_id(tokens[1], "vertex", lineno, raw, 1)
            if name in vertices:
                raise ParseError(lineno, _column(raw, 1), f"duplicate vertex id {name!r}")
            if name in edges:
                raise ParseError(lineno, _column(raw, 1), f"duplicate id {name!r}")
            vertices.add(name)
        elif keyword == "edge":
            if len(tokens) != 7 or tokens[2] != ":" or tokens[5] != "->":
                raise ParseError(lineno, 1, "expected: edge <id> : <color> <source> -> <range>")
            name = _check_id(tokens[1], "edge", lineno, raw, 1)
            if name in edges or name in vertices:
                raise ParseError(lineno, _column(raw, 1), f"duplicate id {name!r}")
            if header is None:
                raise ParseError(lineno, 1, "edge before header line")
            try:
                color = header[2].index(tokens[3]) + 1
            except ValueError:
                raise ParseError(lineno, _column(raw, 3), f"unknown color {tokens[3]!r}") from None
            for i in (4, 6):
                if tokens[i] not in vertices:
                    raise ParseError(lineno, _column(raw, i), f"unknown vertex {tokens[i]!r}")
            edges[name] = Edge(name, color, tokens[4], tokens[6])
        elif keyword == "square":
            if len(tokens) != 6 or tokens[3] != "=":
                raise ParseError(lineno, 1, "expected: square <a> <b> = <c> <d>")
            for i in (1, 2, 4, 5):
                if tokens[i] not in edges:
                    raise ParseError(lineno, _column(raw, i), f"unknown edge {tokens[i]!r}")
            squares.append(((tokens[1], tokens[2]), (tokens[4], tokens[5]), lineno))
        elif keyword == "split":
            if split_header is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            split_header = _split_line(tokens, lineno, raw, header[2] if header else (), vertices)
        elif keyword == "partition":
            _partition_line(tokens, lineno, raw, vertices, edges, partitions)
        else:
            raise ParseError(lineno, _column(raw, 0), f"unknown declaration {keyword!r}")

    if header is None:
        raise ParseError(1, 1, "missing header line: kgraph <version> k=<int> colors=<name,...>")
    version, k, colors = header
    skeleton = Skeleton(k, tuple(sorted(vertices)), tuple(edges[name] for name in sorted(edges)))
    line = [1]  # the line of the pair being checked; pairs are checked in order
    try:
        square_set = SquareSet.create(skeleton, ((s1, s2) for s1, s2, line[0] in squares))
    except StructureError as exc:
        raise ParseError(line[0], 1, str(exc)) from None

    spec = None
    if split_header is not None:
        spec = _split_spec(skeleton, split_header, partitions)
    elif partitions:
        lineno = min(line for _, line in partitions.values())
        raise ParseError(lineno, 1, "partition lines require a split line")

    return GraphDocument(version, colors, skeleton, square_set, spec)


def _split_fields(tokens: list[str], lineno: int) -> tuple[str, str]:
    """Color and base named by a ``split color=<color> base=<vertex>`` line."""
    if len(tokens) != 3 or not tokens[1].startswith("color=") or not tokens[2].startswith("base="):
        raise ParseError(lineno, 1, "expected: split color=<color> base=<vertex>")
    return tokens[1][len("color="):], tokens[2][len("base="):]


def _split_line(
    tokens: list[str], lineno: int, raw: str, colors: Sequence[str], vertices: Container[str]
) -> tuple[int, str]:
    """Color index and base vertex of a ``split`` line; both must be known names."""
    color, base = _split_fields(tokens, lineno)
    if color not in colors:
        raise ParseError(lineno, _column(raw, 1) + len("color="), f"unknown color {color!r}")
    if base not in vertices:
        raise ParseError(lineno, _column(raw, 2) + len("base="), f"unknown vertex {base!r}")
    return colors.index(color) + 1, base


def _partition_line(
    tokens: list[str],
    lineno: int,
    raw: str,
    vertices: Container[str],
    edges: Container[str],
    partitions: Partitions,
) -> None:
    """Add one ``partition <vertex> : {<e>,...} ...`` line to ``partitions``."""
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
        names = tuple(n for n in m.group(1).split(",") if n)
        if not names:
            raise ParseError(lineno, _column(raw, i), "empty partition block")
        skip = 1
        for n in m.group(1).split(","):
            if n and n not in edges:
                raise ParseError(lineno, _column(raw, i) + skip, f"unknown edge {n!r}")
            skip += len(n) + 1
        blocks.append(tuple(sorted(names)))
    partitions[v] = (tuple(blocks), lineno)


def _split_spec(skeleton: Skeleton, split_header: tuple[int, str], partitions: Partitions) -> SplitSpec:
    """The spec, once each partition covers its vertex's outgoing split-color edges."""
    color, base = split_header
    for v, (blocks, lineno) in partitions.items():
        out = {e.name for e in skeleton.edges_from(v, color)}
        if problem := block_problem(v, blocks, out):
            raise ParseError(lineno, 1, problem)
    return SplitSpec(color, base, {v: blocks for v, (blocks, _) in sorted(partitions.items())})


def parse_partition_file(text: str, doc: GraphDocument) -> SplitSpec:
    """Parse a standalone split/partition fragment against a parsed document."""
    skeleton = doc.skeleton
    vertices = frozenset(skeleton.vertices)
    split_header: tuple[int, str] | None = None
    partitions: Partitions = {}
    for lineno, raw, tokens in _declarations(text):
        if tokens[0] == "split":
            if split_header is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            split_header = _split_line(tokens, lineno, raw, doc.colors, vertices)
        elif tokens[0] == "partition":
            _partition_line(tokens, lineno, raw, vertices, skeleton.edge_map, partitions)
        else:
            raise ParseError(lineno, _column(raw, 0), f"unknown declaration {tokens[0]!r}")
    if split_header is None:
        raise ParseError(1, 1, "missing split line")
    return _split_spec(skeleton, split_header, partitions)


def serialize(doc: GraphDocument) -> str:
    lines = [f"kgraph {doc.version} k={doc.k} colors={','.join(doc.colors)}"]
    lines.extend(f"vertex {v}" for v in doc.skeleton.vertices)
    lines.extend(
        f"edge {e.name} : {doc.color_name(e.color)} {e.source} -> {e.range}"
        for e in doc.skeleton.edges
    )
    lines.extend(
        f"square {s1[0]} {s1[1]} = {s2[0]} {s2[1]}" for s1, s2 in doc.squares.pairs
    )
    if doc.split is not None:
        lines.append(f"split color={doc.color_name(doc.split.color)} base={doc.split.base}")
        for v, blocks in sorted(doc.split.partitions.items()):
            rendered = " ".join("{" + ",".join(sorted(block)) + "}" for block in blocks)
            lines.append(f"partition {v} : {rendered}")
    return "\n".join(lines) + "\n"


def document_for_graph(graph: KGraph, colors: Iterable[str], version: str = "1") -> GraphDocument:
    colors = tuple(colors)
    if len(colors) != graph.k:
        raise ValueError(f"need {graph.k} color names, got {len(colors)}")
    return GraphDocument(version, colors, graph.skeleton, graph.squares)


def sidecar_text(result: SplitResult, colors: Iterable[str]) -> str:
    """Parent-map sidecar: split header plus one ``parent`` line per item."""
    colors = tuple(colors)
    base = result.base if result.base is not None else "-"
    lines = [f"split color={colors[result.color - 1]} base={base}"]
    lines.extend(f"parent {child} = {parent}" for child, parent in sorted(result.parent.items()))
    return "\n".join(lines) + "\n"


def parse_sidecar(text: str) -> tuple[str, str | None, dict[str, str]]:
    """Returns (color name, base vertex or ``None`` for ``base=-``, child-to-parent map)."""
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
    if color is None or base is None:
        raise ParseError(1, 1, "missing split line in parent sidecar")
    return color, None if base == "-" else base, parents


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
