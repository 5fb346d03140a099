"""Outsplitting a finite k-graph in one chosen color.

The move copies every vertex ``v`` of a *split region* once per outgoing
edge of the split color ``B``, and copies every edge once per copy of its
range.  The split region is the smallest vertex set containing the chosen
base vertex and closed under following non-``B`` edges forward into
vertices with at least two outgoing ``B``-edges.  Copies are wired up so
that the quotient by the lifted squares is again a k-graph:

* ``range(e^i) = range(e)^i`` for every edge copy;
* a ``B``-edge copy starts at the copy of its source named by the
  partition block containing the edge;
* a non-``B`` edge copy ``e^i`` starts where the square against the i-th
  block's ``B``-edge at ``range(e)`` says it must (this is independent of
  the block representative, which :func:`outsplit` re-checks defensively);
* a non-``B`` edge whose range has no outgoing ``B``-edge keeps a single
  source, the first copy.

Every Λ-square lifts to one square per copy of its range, which realizes
the equivalence "parents commute and endpoints agree".  The output is
re-validated and re-checked for source-freeness before it is returned.

A graph is *paired* in color ``B`` when no edge has two distinct sibling
``B``-edges (see :func:`sibling_set`); splits of paired graphs give all
copies of an edge a common source, which is what makes the path-copy
operation and the algebra embedding in :mod:`kgraphs.kp` well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple

from .skeleton import (
    Edge,
    KGraph,
    KGraphError,
    KGraphInvalid,
    Path,
    Skeleton,
    SquareSet,
    StructureError,
    build_kgraph,
)


class SplitError(KGraphError):
    """A split precondition or specification is violated."""


class UnpairedError(SplitError):
    """An operation that requires a paired input got an unpaired one."""


def split_region(graph: KGraph, color: int, base: str) -> frozenset[str]:
    """Least vertex set containing ``base`` closed under the split rule.

    Requires at least two outgoing ``color``-edges at ``base``; a vertex
    ``r(e)`` joins whenever some non-``color`` edge ``e`` leaves the set
    and ``r(e)`` itself has at least two outgoing ``color``-edges.
    """
    if not 1 <= color <= graph.k:
        raise SplitError(f"color {color} out of range 1..{graph.k}")
    if not graph.skeleton.has_vertex(base):
        raise StructureError(f"unknown base vertex {base!r}")
    if len(graph.skeleton.edges_from(base, color)) < 2:
        raise SplitError(
            f"vertex {base!r} has fewer than two outgoing edges of color {color}"
        )
    region = {base}
    frontier = [base]
    while frontier:
        x = frontier.pop()
        for e in graph.skeleton.edges_from(x):
            if e.color == color:
                continue
            v = e.range
            if v not in region and len(graph.skeleton.edges_from(v, color)) >= 2:
                region.add(v)
                frontier.append(v)
    return frozenset(region)


def copy_counts(graph: KGraph, region: frozenset[str], color: int) -> dict[str, int]:
    """Number of copies of each vertex: the color out-degree on the region, 1 off it."""
    return {
        v: len(graph.skeleton.edges_from(v, color)) if v in region else 1
        for v in graph.vertices
    }


@dataclass(frozen=True)
class SplitSpec:
    """Where and how to split: color, base vertex, and ordered edge blocks.

    ``partitions`` maps every vertex with outgoing ``color``-edges to an
    ordered tuple of disjoint nonempty blocks covering those edges.  On the
    split region the block count equals the out-degree, so blocks are
    singletons and the only freedom is their order; elsewhere there is a
    single block.
    """

    color: int
    base: str
    partitions: Mapping[str, tuple[tuple[str, ...], ...]]


def default_spec(graph: KGraph, color: int, base: str) -> SplitSpec:
    """Singleton blocks in edge-id order on the region, one block elsewhere."""
    region = split_region(graph, color, base)
    partitions: dict[str, tuple[tuple[str, ...], ...]] = {}
    for v in graph.vertices:
        out = sorted(e.name for e in graph.skeleton.edges_from(v, color))
        if not out:
            continue
        if v in region:
            partitions[v] = tuple((name,) for name in out)
        else:
            partitions[v] = (tuple(out),)
    return SplitSpec(color, base, partitions)


def block_problem(vertex: str, blocks: tuple[tuple[str, ...], ...], out: set[str]) -> str | None:
    """Why ``blocks`` do not partition ``out``, the split-color edges leaving ``vertex``."""
    listed: set[str] = set()
    for block in blocks:
        if not block:
            return f"empty block at vertex {vertex!r}"
        for name in block:
            if name in listed:
                return f"edge {name!r} appears in two blocks at {vertex!r}"
            listed.add(name)
    if listed == out:
        return None
    detail = []
    if out - listed:
        detail.append(f"missing {sorted(out - listed)}")
    if listed - out:
        detail.append(f"not outgoing in the split color: {sorted(listed - out)}")
    return (f"partition at {vertex!r} does not cover its outgoing split-color edges "
            f"({'; '.join(detail)})")


def validate_spec(graph: KGraph, spec: SplitSpec) -> dict[str, int]:
    """Check the spec against the graph; return the copy counts it was checked against."""
    region = split_region(graph, spec.color, spec.base)
    counts = copy_counts(graph, region, spec.color)
    expected_keys = {
        v for v in graph.vertices if graph.skeleton.edges_from(v, spec.color)
    }
    if set(spec.partitions) != expected_keys:
        extra = sorted(set(spec.partitions) - expected_keys)
        missing = sorted(expected_keys - set(spec.partitions))
        parts = []
        if extra:
            parts.append(f"partitions given for vertices without outgoing edges: {extra}")
        if missing:
            parts.append(f"partitions missing for: {missing}")
        raise SplitError("; ".join(parts))
    for v, blocks in spec.partitions.items():
        if len(blocks) != counts[v]:
            raise SplitError(
                f"vertex {v!r} needs {counts[v]} block(s), got {len(blocks)}"
            )
        out = {e.name for e in graph.skeleton.edges_from(v, spec.color)}
        if problem := block_problem(v, blocks, out):
            raise SplitError(problem)
    return counts


def _copy_name(item: str, index: int) -> str:
    return f"{item}.{index}"


@dataclass(frozen=True)
class SplitResult:
    """A split graph together with its bookkeeping back to the original.

    The stored fields are what ``split`` writes to its two files; ``base`` is
    ``None`` when none was recorded, and ``parent`` maps every copy, vertex
    or edge, to its original (their ids never clash).  ``copy_index``,
    ``counts`` and ``paired`` are derived on first use.  The i-th copy of an
    item is named ``item.i``, and an edge's copy ``e.i`` has range
    ``r(e).i``: :func:`outsplit` builds names this way,
    :func:`reconstruct_split` rejects a split that breaks the rule, and
    :meth:`copy_of` relies on it.
    """

    original: KGraph
    graph: KGraph
    color: int
    base: str | None
    parent: Mapping[str, str] = field(repr=False)

    @cached_property
    def copy_index(self) -> dict[str, int]:
        return {name: _parse_copy_index(name) for name in self.parent}

    @cached_property
    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.original.vertices, 0)
        for origin in self.parent.values():
            if origin in counts:
                counts[origin] += 1
        return counts

    @cached_property
    def paired(self) -> bool:
        return pairing_report(self.original, self.color).ok

    def copy_of(self, item: str, index: int) -> str:
        """The ``index``-th copy of a vertex or edge of the original graph."""
        name = _copy_name(item, index)
        if self.parent.get(name) != item:
            raise SplitError(f"no copy {index} of {item!r}")
        return name


def outsplit(graph: KGraph, spec: SplitSpec) -> SplitResult:
    """Perform the split move and return the validated result.

    Preconditions: the graph is source-free, the spec is valid, and for
    rank at least 3 no vertex may lack an outgoing edge of the split color.
    """
    free = graph.is_source_free()
    if not free.ok:
        raise SplitError(f"graph is not source-free, e.g. {free.witnesses[0]}")
    if not 1 <= spec.color <= graph.k:
        raise SplitError(f"color {spec.color} out of range 1..{graph.k}")
    if graph.k >= 3:
        sinks = graph.degree_sinks(spec.color)
        if sinks:
            raise SplitError(
                f"rank {graph.k} split needs no sinks in color {spec.color}; found {list(sinks)}"
            )
    counts = validate_spec(graph, spec)
    color = spec.color
    swap = graph.squares.swap_map
    edge_map = graph.skeleton.edge_map
    # 1-based index of the block holding each split-color edge at its source
    block = {(v, name): j for v, blocks in spec.partitions.items()
             for j, names in enumerate(blocks, start=1) for name in names}

    parent = {_copy_name(v, i): v for v in graph.vertices for i in range(1, counts[v] + 1)}
    vertex_copies = list(parent)

    def source_block(e: Edge, i: int) -> int:
        """Block index j with source(e^i) = source(e)^j."""
        if e.color == color:
            return block[e.source, e.name]
        blocks = spec.partitions.get(e.range)
        if blocks is None:  # no outgoing split-color edge at the range
            return 1
        # the partner side of f·e starts with a split-color edge at source(e)
        answers = {block[e.source, swap[f, e.name][1]] for f in blocks[i - 1]}
        if len(answers) != 1:
            raise SplitError(
                f"source of copy {i} of {e.name!r} depends on the block representative "
                f"({sorted(answers)}); the input does not satisfy the factorization axioms"
            )
        return answers.pop()

    edges = []
    source_index: dict[str, int] = {}  # copy index of each edge copy's source
    for e in graph.edges:
        for i in range(1, counts[e.range] + 1):
            name = _copy_name(e.name, i)
            j = source_index[name] = source_block(e, i)
            edges.append(Edge(name, e.color, _copy_name(e.source, j), _copy_name(e.range, i)))
            parent[name] = e.name

    skeleton = Skeleton.create(graph.k, vertex_copies, edges)

    pairs = []
    for (a, b), (g, h) in graph.squares.pairs:
        for p in range(1, counts[edge_map[a].range] + 1):
            # each inner edge lifts to its copy whose range is the outer copy's source
            a_p, g_p = _copy_name(a, p), _copy_name(g, p)
            pairs.append(((a_p, _copy_name(b, source_index[a_p])),
                          (g_p, _copy_name(h, source_index[g_p]))))

    try:
        split_graph = build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
    except (KGraphInvalid, StructureError) as exc:  # pragma: no cover - defensive
        raise SplitError(f"internal error: split output failed validation: {exc}") from exc
    free = split_graph.is_source_free()
    if not free.ok:  # pragma: no cover - defensive
        raise SplitError(f"internal error: split output is not source-free: {free.witnesses}")

    return SplitResult(graph, split_graph, color, spec.base, parent)


def reconstruct_split(
    original: KGraph,
    graph: KGraph,
    color: int,
    base: str | None,
    parent: Mapping[str, str],
) -> SplitResult:
    """Rebuild the record :func:`outsplit` returned from a split's two files.

    ``base``, unless ``None``, must be a vertex of ``original``.  ``parent``
    is the sidecar's map from every vertex and edge of ``graph`` to its
    original, and each of its keys must name such an item.  The copies of a
    vertex must be named ``v.1 .. v.n``, an edge copy ``e.i`` must have
    range ``r(e).i``, and the map is re-checked against colors, sources, the
    original graph and the split color: a vertex with several copies has one
    per outgoing split-color edge.  These are the naming rules
    :class:`SplitResult` states.
    """
    if base is not None and not original.skeleton.has_vertex(base):
        raise SplitError(f"unknown base vertex {base!r}")
    unknown = [c for c in parent
               if not graph.skeleton.has_vertex(c) and c not in graph.skeleton.edge_map]
    if unknown:
        raise SplitError(f"parent line for unknown item {min(unknown)!r}")
    counts: dict[str, int] = {v: 0 for v in original.vertices}
    for v in graph.vertices:
        origin = parent.get(v)
        if origin is None or origin not in counts:
            raise SplitError(f"vertex {v!r} has no valid parent")
        _parse_copy_index(v)
        counts[origin] += 1
    for v, n in counts.items():
        if n == 0:
            raise SplitError(f"original vertex {v!r} has no copies")
        for i in range(1, n + 1):
            if parent.get(_copy_name(v, i)) != v:
                raise SplitError(f"copies of {v!r} are not named {v}.1 .. {v}.{n}")
        out = len(original.skeleton.edges_from(v, color))
        if n > 1 and n != out:
            raise SplitError(f"vertex {v!r} has {n} copies but {out} outgoing edge(s) "
                             f"in the split color")
    for e in graph.edges:
        origin = parent.get(e.name)
        if origin is None:
            raise SplitError(f"edge {e.name!r} has no parent")
        pe = original.skeleton.edge_map.get(origin)
        if pe is None:
            raise SplitError(f"edge {e.name!r} has no valid parent")
        idx = _parse_copy_index(e.name)
        if e.name != _copy_name(origin, idx):
            raise SplitError(f"edge {e.name!r} is not named {origin}.<copy index>")
        if pe.color != e.color:
            raise SplitError(f"edge {e.name!r} changed color relative to {origin!r}")
        if e.range != _copy_name(pe.range, idx):
            raise SplitError(f"edge {e.name!r} should have range {pe.range}.{idx}")
        if parent[e.source] != pe.source:
            raise SplitError(f"edge {e.name!r} has a source that is not a copy of {pe.source!r}")
    for e in original.edges:
        for i in range(1, counts[e.range] + 1):
            if parent.get(_copy_name(e.name, i)) != e.name:
                raise SplitError(f"missing copy {e.name}.{i}")
    return SplitResult(original, graph, color, base, dict(parent))


def _parse_copy_index(name: str) -> int:
    stem, dot, suffix = name.rpartition(".")
    if not dot or not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
        raise SplitError(f"name {name!r} does not end in a copy index")
    return int(suffix)


def sibling_set(graph: KGraph, edge: str, color: int) -> tuple[str, ...]:
    """All ``color``-edges appearing opposite ``edge`` in some square.

    A sibling of ``e`` is the first-traversed edge ``c`` of the partner
    side of any square whose own side has ``e`` traversed first.  Only
    defined for edges not of the sibling color.
    """
    e = graph.edge(edge)
    if e.color == color:
        raise SplitError(f"edge {edge!r} already has color {color}")
    swap = graph.squares.swap_map
    return tuple(sorted({swap[x.name, edge][1] for x in graph.skeleton.edges_from(e.range, color)}))


class PairingReport(NamedTuple):
    ok: bool
    color: int
    witness: tuple[str, tuple[str, ...]] | None  # first edge with two or more siblings

    def describe(self) -> str:
        if self.ok:
            return "paired"
        edge, sibs = self.witness  # type: ignore[misc]
        return f"{edge} : {{{', '.join(sibs)}}}"


def pairing_report(graph: KGraph, color: int) -> PairingReport:
    """Whether every non-``color`` edge has at most one sibling.

    Edges whose range has no outgoing ``color``-edge have an empty sibling
    set and never obstruct pairing; what matters downstream is that all
    copies of an edge share a source, which holds in both cases.
    """
    if not 1 <= color <= graph.k:
        raise SplitError(f"color {color} out of range 1..{graph.k}")
    for e in graph.edges:
        if e.color == color:
            continue
        sibs = sibling_set(graph, e.name, color)
        if len(sibs) > 1:
            return PairingReport(False, color, (e.name, sibs))
    return PairingReport(True, color, None)


def copy_path(result: SplitResult, path: Path, index: int) -> Path:
    """The copy of a path whose range is the ``index``-th copy of its range.

    Built edgewise from the range end: each edge lifts to its copy whose
    range is the current vertex, so the lifted edges compose and keep their
    parents' colors.  Requires a paired input so that the copies of a path
    differ only in the last-composed edge.
    """
    if not result.paired:
        raise UnpairedError(
            f"path copies need an input paired in color {result.color}"
        )
    n = result.counts[path.range]
    if not 1 <= index <= n:
        raise SplitError(f"copy index {index} out of range 1..{n} for range {path.range!r}")
    top = target = result.copy_of(path.range, index)
    edge_map = result.graph.skeleton.edge_map
    lifted: list[str] = []
    for name in reversed(path.edges):
        edge = edge_map[result.copy_of(name, result.copy_index[target])]
        lifted.append(edge.name)  # the graph's own string, shared by every cached path
        target = edge.source
    return Path(tuple(reversed(lifted)), target, top, path.degree)


def parent_path(result: SplitResult, path: Path) -> Path:
    """Edgewise image of a split-graph path in the original graph."""
    parent = result.parent
    return Path(tuple(parent[e] for e in path.edges), parent[path.source],
                parent[path.range], path.degree)
