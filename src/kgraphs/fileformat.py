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
is meaningful.  Serialization is canonical: declarations are sorted, so
``parse(serialize(x)) == x`` and equal documents serialize byte-for-byte
equally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from .skeleton import Edge, KGraph, Side, Skeleton, SquareSet, StructureError, build_kgraph
from .splitting import SplitResult, SplitSpec

_ID = re.compile(r"^[^\s{}#,=:]+$")
_BLOCK = re.compile(r"^\{([^\s{}#]*)\}$")

# vertex -> (ordered blocks, line number of its partition line)
Partitions = dict[str, tuple[tuple[tuple[str, ...], ...], int]]


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class SplitDirective:
    """Requested split: color name, base vertex, ordered partition blocks."""

    color: str
    base: str
    partitions: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]


@dataclass(frozen=True)
class GraphDocument:
    version: str
    colors: tuple[str, ...]
    skeleton: Skeleton
    squares: SquareSet
    split: SplitDirective | None = None

    @property
    def k(self) -> int:
        return self.skeleton.k

    def color_index(self, name: str) -> int:
        try:
            return self.colors.index(name) + 1
        except ValueError:
            raise KeyError(f"unknown color {name!r}; have {', '.join(self.colors)}") from None

    def color_name(self, index: int) -> str:
        return self.colors[index - 1]

    def build(self) -> KGraph:
        """Validate the axioms; raises ``KGraphInvalid`` with the report."""
        return build_kgraph(self.skeleton, self.squares)

    def split_spec(self) -> SplitSpec:
        if self.split is None:
            raise ValueError("document has no split block")
        return SplitSpec(
            self.color_index(self.split.color),
            self.split.base,
            {v: blocks for v, blocks in self.split.partitions},
        )


def _declarations(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, raw line, tokens)`` for each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, raw, content.split()


def _check_id(token: str, line: int, text: str, what: str) -> str:
    if not _ID.match(token) or token == "->":
        raise ParseError(line, text.find(token) + 1 if token in text else 1,
                         f"invalid {what} identifier {token!r}")
    return token


def parse(text: str) -> GraphDocument:
    """Parse a document, validating names and square well-formedness."""
    header: tuple[str, int, tuple[str, ...]] | None = None
    vertices: dict[str, int] = {}
    edges: dict[str, tuple[Edge, int]] = {}
    squares: list[tuple[Side, Side, int]] = []
    split_header: tuple[str, str] | None = None
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
                raise ParseError(lineno, raw.find("k=") + 1, f"bad rank {tokens[2][2:]!r}") from None
            colors = tuple(tokens[3][len("colors="):].split(","))
            if k < 1 or len(colors) != k or len(set(colors)) != k or any(not c for c in colors):
                raise ParseError(lineno, 1, f"need {k} distinct color names, got {colors}")
            for c in colors:
                _check_id(c, lineno, raw, "color")
            header = (tokens[1], k, colors)
        elif keyword == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "expected: vertex <id>")
            name = _check_id(tokens[1], lineno, raw, "vertex")
            if name in vertices:
                raise ParseError(lineno, raw.find(name) + 1, f"duplicate vertex id {name!r}")
            vertices[name] = lineno
        elif keyword == "edge":
            if len(tokens) != 7 or tokens[2] != ":" or tokens[5] != "->":
                raise ParseError(lineno, 1, "expected: edge <id> : <color> <source> -> <range>")
            name = _check_id(tokens[1], lineno, raw, "edge")
            if name in edges or name in vertices:
                raise ParseError(lineno, raw.find(name) + 1, f"duplicate id {name!r}")
            if header is None:
                raise ParseError(lineno, 1, "edge before header line")
            try:
                color = header[2].index(tokens[3]) + 1
            except ValueError:
                raise ParseError(lineno, raw.find(tokens[3]) + 1,
                                 f"unknown color {tokens[3]!r}") from None
            for v in (tokens[4], tokens[6]):
                if v not in vertices:
                    raise ParseError(lineno, raw.find(v) + 1, f"unknown vertex {v!r}")
            edges[name] = (Edge(name, color, tokens[4], tokens[6]), lineno)
        elif keyword == "square":
            if len(tokens) != 6 or tokens[3] != "=":
                raise ParseError(lineno, 1, "expected: square <a> <b> = <c> <d>")
            for e in (tokens[1], tokens[2], tokens[4], tokens[5]):
                if e not in edges:
                    raise ParseError(lineno, raw.find(e) + 1, f"unknown edge {e!r}")
            squares.append(((tokens[1], tokens[2]), (tokens[4], tokens[5]), lineno))
        elif keyword == "split":
            if split_header is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            split_header = _split_line(tokens, lineno, raw, header[2] if header else (), vertices)
        elif keyword == "partition":
            _partition_line(tokens, lineno, raw, vertices, edges, partitions)
        else:
            raise ParseError(lineno, 1, f"unknown declaration {keyword!r}")

    if header is None:
        raise ParseError(1, 1, "missing header line: kgraph <version> k=<int> colors=<name,...>")
    version, k, colors = header
    skeleton = Skeleton.create(k, vertices, (e for e, _ in edges.values()))
    try:
        square_set = SquareSet.create(skeleton, [(s1, s2) for s1, s2, _ in squares])
    except StructureError as exc:
        # find the offending line by re-checking pair by pair
        for s1, s2, lineno in squares:
            try:
                SquareSet._check_pair(skeleton, s1, s2)
            except StructureError as inner:
                raise ParseError(lineno, 1, str(inner)) from None
        raise ParseError(1, 1, str(exc)) from None

    directive = None
    if split_header is not None:
        directive = _split_directive(skeleton, colors, split_header, partitions)
    elif partitions:
        lineno = min(line for _, line in partitions.values())
        raise ParseError(lineno, 1, "partition lines require a split line")

    return GraphDocument(version, colors, skeleton, square_set, directive)


def _split_fields(tokens: list[str], lineno: int) -> tuple[str, str]:
    """Color and base named by a ``split color=<color> base=<vertex>`` line."""
    if len(tokens) != 3 or not tokens[1].startswith("color=") or not tokens[2].startswith("base="):
        raise ParseError(lineno, 1, "expected: split color=<color> base=<vertex>")
    return tokens[1][len("color="):], tokens[2][len("base="):]


def _split_line(
    tokens: list[str], lineno: int, raw: str, colors: Container[str], vertices: Container[str]
) -> tuple[str, str]:
    """A ``split`` line whose color and base vertex must be known names."""
    color, base = _split_fields(tokens, lineno)
    if color not in colors:
        raise ParseError(lineno, raw.find(color) + 1, f"unknown color {color!r}")
    if base not in vertices:
        raise ParseError(lineno, raw.find(base) + 1, f"unknown vertex {base!r}")
    return color, base


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
        raise ParseError(lineno, raw.find(v) + 1, f"unknown vertex {v!r}")
    if v in partitions:
        raise ParseError(lineno, raw.find(v) + 1, f"duplicate partition for {v!r}")
    blocks = []
    for tok in tokens[3:]:
        m = _BLOCK.match(tok)
        if not m:
            raise ParseError(lineno, raw.find(tok) + 1, f"malformed block {tok!r}")
        names = tuple(n for n in m.group(1).split(",") if n)
        if not names:
            raise ParseError(lineno, raw.find(tok) + 1, "empty partition block")
        for n in names:
            if n not in edges:
                raise ParseError(lineno, raw.find(tok) + 1, f"unknown edge {n!r}")
        blocks.append(tuple(sorted(names)))
    partitions[v] = (tuple(blocks), lineno)


def _split_directive(
    skeleton: Skeleton, colors: tuple[str, ...], split_header: tuple[str, str], partitions: Partitions
) -> SplitDirective:
    """The directive, once each partition covers its vertex's outgoing split-color edges."""
    color, base = split_header
    index = colors.index(color) + 1
    for v, (blocks, lineno) in partitions.items():
        out = {e.name for e in skeleton.edges_from(v, index)}
        listed: set[str] = set()
        for block in blocks:
            for name in block:
                if name in listed:
                    raise ParseError(lineno, 1, f"edge {name!r} appears in two blocks at {v!r}")
                listed.add(name)
        if listed != out:
            missing = sorted(out - listed)
            extra = sorted(listed - out)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"not outgoing in the split color: {extra}")
            raise ParseError(
                lineno, 1,
                f"partition at {v!r} does not cover its outgoing split-color edges ({'; '.join(detail)})",
            )
    return SplitDirective(color, base, tuple(
        (v, blocks) for v, (blocks, _) in sorted(partitions.items())
    ))


def parse_partition_file(text: str, doc: GraphDocument) -> SplitDirective:
    """Parse a standalone split/partition fragment against a parsed document."""
    skeleton = doc.skeleton
    vertices = frozenset(skeleton.vertices)
    split_header: tuple[str, str] | None = None
    partitions: Partitions = {}
    for lineno, raw, tokens in _declarations(text):
        if tokens[0] == "split":
            if split_header is not None:
                raise ParseError(lineno, 1, "duplicate split line")
            split_header = _split_line(tokens, lineno, raw, doc.colors, vertices)
        elif tokens[0] == "partition":
            _partition_line(tokens, lineno, raw, vertices, skeleton.edge_map, partitions)
        else:
            raise ParseError(lineno, 1, f"unknown declaration {tokens[0]!r}")
    if split_header is None:
        raise ParseError(1, 1, "missing split line")
    return _split_directive(skeleton, doc.colors, split_header, partitions)


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
        lines.append(f"split color={doc.split.color} base={doc.split.base}")
        for v, blocks in doc.split.partitions:
            rendered = " ".join("{" + ",".join(block) + "}" for block in blocks)
            lines.append(f"partition {v} : {rendered}")
    return "\n".join(lines) + "\n"


def document_for_graph(
    graph: KGraph, colors: Iterable[str], version: str = "1", split: SplitDirective | None = None
) -> GraphDocument:
    colors = tuple(colors)
    if len(colors) != graph.k:
        raise ValueError(f"need {graph.k} color names, got {len(colors)}")
    return GraphDocument(version, colors, graph.skeleton, graph.squares, split)


def directive_for_spec(doc: GraphDocument, spec: SplitSpec) -> SplitDirective:
    return SplitDirective(
        doc.color_name(spec.color),
        spec.base,
        tuple((v, tuple(tuple(sorted(b)) for b in blocks))
              for v, blocks in sorted(spec.partitions.items())),
    )


def sidecar_text(result: SplitResult, colors: Iterable[str]) -> str:
    """Parent-map sidecar: split header plus one ``parent`` line per item."""
    colors = tuple(colors)
    base = result.base if result.base is not None else "-"
    lines = [f"split color={colors[result.color - 1]} base={base}"]
    items = list(result.parent_vertex.items()) + list(result.parent_edge.items())
    lines.extend(f"parent {child} = {parent}" for child, parent in sorted(items))
    return "\n".join(lines) + "\n"


def parse_sidecar(text: str) -> tuple[str, str, dict[str, str]]:
    """Returns (color name, base vertex, child-to-parent map)."""
    color = base = None
    parents: dict[str, str] = {}
    for lineno, _, tokens in _declarations(text):
        if tokens[0] == "split":
            color, base = _split_fields(tokens, lineno)
        elif tokens[0] == "parent":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError(lineno, 1, "expected: parent <item> = <item>")
            if tokens[1] in parents:
                raise ParseError(lineno, 1, f"duplicate parent line for {tokens[1]!r}")
            parents[tokens[1]] = tokens[3]
        else:
            raise ParseError(lineno, 1, f"unknown declaration {tokens[0]!r}")
    if color is None or base is None:
        raise ParseError(1, 1, "missing split line in parent sidecar")
    return color, base, parents


_DOT_STYLES = ("solid", "dashed", "dotted")


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
        lines.append(f'  "{v}";')
    for e in doc.skeleton.edges:
        style = _DOT_STYLES[(e.color - 1) % len(_DOT_STYLES)]
        lines.append(f'  "{e.source}" -> "{e.range}" [label="{e.name}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
