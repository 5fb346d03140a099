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

    ``copy_index`` and the parent maps cover both vertices and edges; the
    naming convention is ``item.i`` for the i-th copy.  ``base`` is absent
    when the result was reconstructed from serialized files.
    """

    original: KGraph
    graph: KGraph
    color: int
    base: str | None
    parent_vertex: Mapping[str, str] = field(repr=False)
    parent_edge: Mapping[str, str] = field(repr=False)
    copy_index: Mapping[str, int] = field(repr=False)
    counts: Mapping[str, int] = field(repr=False)
    paired: bool

    @cached_property
    def _vertex_copies(self) -> Mapping[tuple[str, int], str]:
        return {
            (self.parent_vertex[v], self.copy_index[v]): v for v in self.graph.vertices
        }

    @cached_property
    def _edge_by_range(self) -> Mapping[tuple[str, str], str]:
        # a parent edge has exactly one copy per range copy
        return {
            (self.parent_edge[e.name], e.range): e.name for e in self.graph.edges
        }

    def vertex_copy(self, vertex: str, index: int) -> str:
        try:
            return self._vertex_copies[(vertex, index)]
        except KeyError:
            raise SplitError(f"no copy {index} of vertex {vertex!r}") from None

    def edge_copy_with_range(self, edge: str, range_vertex: str) -> str:
        try:
            return self._edge_by_range[(edge, range_vertex)]
        except KeyError:
            raise SplitError(f"no copy of edge {edge!r} with range {range_vertex!r}") from None


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

    parent_vertex: dict[str, str] = {}
    copy_index: dict[str, int] = {}
    for v in graph.vertices:
        for i in range(1, counts[v] + 1):
            name = _copy_name(v, i)
            parent_vertex[name] = v
            copy_index[name] = i

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
    parent_edge: dict[str, str] = {}
    source_of: dict[str, str] = {}
    for e in graph.edges:
        for i in range(1, counts[e.range] + 1):
            name = _copy_name(e.name, i)
            source = source_of[name] = _copy_name(e.source, source_block(e, i))
            edges.append(Edge(name, e.color, source, _copy_name(e.range, i)))
            parent_edge[name] = e.name
            copy_index[name] = i

    skeleton = Skeleton.create(graph.k, parent_vertex, edges)

    pairs = []
    for (a, b), (g, h) in graph.squares.pairs:
        for p in range(1, counts[edge_map[a].range] + 1):
            # each inner edge lifts to its copy whose range is the outer copy's source
            a_p, g_p = _copy_name(a, p), _copy_name(g, p)
            b_q = _copy_name(b, copy_index[source_of[a_p]])
            h_q = _copy_name(h, copy_index[source_of[g_p]])
            if source_of[b_q] != source_of[h_q]:
                raise SplitError(
                    f"lift of square {a} {b} = {g} {h} at copy {p} has mismatched "
                    f"sources {source_of[b_q]} and {source_of[h_q]}"
                )
            pairs.append(((a_p, b_q), (g_p, h_q)))

    try:
        split_graph = build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
    except (KGraphInvalid, StructureError) as exc:  # pragma: no cover - defensive
        raise SplitError(f"internal error: split output failed validation: {exc}") from exc
    free = split_graph.is_source_free()
    if not free.ok:  # pragma: no cover - defensive
        raise SplitError(f"internal error: split output is not source-free: {free.witnesses}")

    return SplitResult(
        original=graph,
        graph=split_graph,
        color=color,
        base=spec.base,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
        copy_index=copy_index,
        counts=counts,
        paired=pairing_report(graph, color).ok,
    )


def reconstruct_split(
    original: KGraph,
    graph: KGraph,
    color: int,
    parent_vertex: Mapping[str, str],
    parent_edge: Mapping[str, str],
) -> SplitResult:
    """Rebuild the bookkeeping for a split loaded from serialized files.

    Every key of the parent maps must name an item of ``graph``; copy indices
    come from the ``item.i`` names, an edge must be named after its parent, and
    the maps are re-checked against ranges, degrees, the original graph and the
    split color: a vertex with several copies has one per outgoing split-color edge.
    """
    unknown = [c for c in parent_vertex if not graph.skeleton.has_vertex(c)]
    unknown += [c for c in parent_edge if c not in graph.skeleton.edge_map]
    if unknown:
        raise SplitError(f"parent line for unknown item {min(unknown)!r}")
    copy_index: dict[str, int] = {}
    counts: dict[str, int] = {v: 0 for v in original.vertices}
    for v in graph.vertices:
        parent = parent_vertex.get(v)
        if parent is None or parent not in counts:
            raise SplitError(f"vertex {v!r} has no valid parent")
        copy_index[v] = _parse_copy_index(v)
        counts[parent] += 1
    for v, n in counts.items():
        if n == 0:
            raise SplitError(f"original vertex {v!r} has no copies")
        for i in range(1, n + 1):
            if parent_vertex.get(_copy_name(v, i)) != v:
                raise SplitError(f"copies of {v!r} are not named {v}.1 .. {v}.{n}")
        out = len(original.skeleton.edges_from(v, color))
        if n > 1 and n != out:
            raise SplitError(f"vertex {v!r} has {n} copies but {out} outgoing edge(s) "
                             f"in the split color")
    for e in graph.edges:
        parent = parent_edge.get(e.name)
        if parent is None:
            raise SplitError(f"edge {e.name!r} has no parent")
        pe = original.skeleton.edge_map.get(parent)
        if pe is None:
            raise SplitError(f"edge {e.name!r} has no valid parent")
        idx = _parse_copy_index(e.name)
        if e.name != _copy_name(parent, idx):
            raise SplitError(f"edge {e.name!r} is not named {parent}.<copy index>")
        copy_index[e.name] = idx
        if pe.color != e.color:
            raise SplitError(f"edge {e.name!r} changed color relative to {parent!r}")
        if e.range != _copy_name(pe.range, idx):
            raise SplitError(f"edge {e.name!r} should have range {pe.range}.{idx}")
        if parent_vertex[e.source] != pe.source:
            raise SplitError(f"edge {e.name!r} has a source that is not a copy of {pe.source!r}")
    for e in original.edges:
        for i in range(1, counts[e.range] + 1):
            if parent_edge.get(_copy_name(e.name, i)) != e.name:
                raise SplitError(f"missing copy {e.name}.{i}")
    return SplitResult(
        original=original,
        graph=graph,
        color=color,
        base=None,
        parent_vertex=dict(parent_vertex),
        parent_edge=dict(parent_edge),
        copy_index=copy_index,
        counts=counts,
        paired=pairing_report(original, color).ok,
    )


def _parse_copy_index(name: str) -> int:
    stem, dot, suffix = name.rpartition(".")
    if not dot or not suffix.isdigit() or int(suffix) < 1:
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

    Built edgewise from the range end: each edge lifts to its unique copy
    at the current range vertex.  Requires a paired input so that the
    copies of a path differ only in the last-composed edge.
    """
    if not result.paired:
        raise UnpairedError(
            f"path copies need an input paired in color {result.color}"
        )
    n = result.counts[path.range]
    if not 1 <= index <= n:
        raise SplitError(f"copy index {index} out of range 1..{n} for range {path.range!r}")
    target = result.vertex_copy(path.range, index)
    if path.is_vertex:
        return result.graph.vertex_path(target)
    lifted: list[str] = []
    for name in reversed(path.edges):
        ge = result.edge_copy_with_range(name, target)
        lifted.append(ge)
        target = result.graph.edge(ge).source
    return result.graph.make_path(tuple(reversed(lifted)))


def parent_path(result: SplitResult, path: Path) -> Path:
    """Edgewise image of a split-graph path in the original graph."""
    if path.is_vertex:
        return result.original.vertex_path(result.parent_vertex[path.source])
    return result.original.make_path(tuple(result.parent_edge[e] for e in path.edges))
