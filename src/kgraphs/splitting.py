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
  block's ``B``-edge at ``range(e)`` says it must (every edge of the block
  gives the same answer, as :func:`outsplit` proves);
* a non-``B`` edge whose range has no outgoing ``B``-edge keeps a single
  source, the first copy.

Every Λ-square lifts to one square per copy of its range, which realizes
the equivalence "parents commute and endpoints agree".
:func:`validate_spec` checks every precondition of the move, in one order,
before anything is built, and the output is re-validated before it is
returned; it is source-free by construction.  :func:`reconstruct_split`
replays :func:`outsplit` on the partition a split file encodes, so the move
and its one gate serve ``kgraphs split`` and ``kgraphs kp-verify`` alike;
:mod:`kgraphs.fileformat`, not this module, compares the files with it.

A graph is *paired* in color ``B`` when no edge has two distinct sibling
``B``-edges (see :func:`sibling_set`); splits of paired graphs give all
copies of an edge a common source.  Path copies and the induced family in
:mod:`kgraphs.kp` are defined for every split; only the swap identities
need pairing, so ``kgraphs kp-verify`` refuses unpaired input.
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
        for i, name in enumerate(block):
            if name in block[:i]:
                return f"edge {name!r} appears twice in one block at {vertex!r}"
            if name in listed:
                return f"edge {name!r} appears in two blocks at {vertex!r}"
        listed.update(block)
    if listed == out:
        return None
    detail = []
    if out - listed:
        detail.append(f"missing {', '.join(sorted(out - listed))}")
    if listed - out:
        detail.append(f"not outgoing in the split color: {', '.join(sorted(listed - out))}")
    return (f"partition at {vertex!r} does not cover its outgoing split-color edges "
            f"({'; '.join(detail)})")


def validate_spec(graph: KGraph, spec: SplitSpec) -> dict[str, int]:
    """Check every precondition of splitting ``graph`` by ``spec``; return the copy counts.

    The first failing check raises, in this order: the graph is source-free;
    :func:`split_region`'s color, base and out-degree checks; at rank at
    least 3, every vertex has an outgoing split-color edge; partitions are
    given for exactly the vertices with one; each has one block per copy;
    and its blocks pass :func:`block_problem`.
    """
    free = graph.is_source_free()
    if not free.ok:
        v, c = free.witnesses[0]
        raise SplitError(f"graph is not source-free: vertex {v!r} receives no edge of color {c}")
    region = split_region(graph, spec.color, spec.base)
    if graph.k >= 3 and (sinks := graph.degree_sinks(spec.color)):
        raise SplitError(
            f"rank {graph.k} split needs no sinks in color {spec.color}; found {', '.join(sinks)}"
        )
    counts = copy_counts(graph, region, spec.color)
    expected_keys = {
        v for v in graph.vertices if graph.skeleton.edges_from(v, spec.color)
    }
    if set(spec.partitions) != expected_keys:
        extra = sorted(set(spec.partitions) - expected_keys)
        missing = sorted(expected_keys - set(spec.partitions))
        parts = []
        if extra:
            parts.append(f"partitions given for vertices without outgoing edges: {', '.join(extra)}")
        if missing:
            parts.append(f"partitions missing for: {', '.join(missing)}")
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

    The stored fields are what ``split`` writes to its two files, and
    ``parent`` maps every copy, vertex or edge, to its original (their ids
    never clash).  ``copy_index`` and ``counts`` are derived on first use.
    The i-th copy of an item is named ``item.i``, and an edge's copy ``e.i``
    has range ``r(e).i``: :func:`outsplit` builds names this way, a split
    file is accepted only if it holds the names a replay builds, and
    :meth:`copy_of` relies on it.
    """

    original: KGraph
    graph: KGraph
    color: int
    base: str
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

    def copy_of(self, item: str, index: int) -> str:
        """The ``index``-th copy of a vertex or edge of the original graph."""
        name = _copy_name(item, index)
        if self.parent.get(name) != item:
            raise SplitError(f"no copy {index} of {item!r}")
        return name


def outsplit(graph: KGraph, spec: SplitSpec) -> SplitResult:
    """Perform the split move and return the validated result.

    :func:`validate_spec` checks every precondition first, in its order.
    """
    counts = validate_spec(graph, spec)
    color = spec.color
    swap = graph.squares.swap_map
    # 1-based index of the block holding each split-color edge (edge ids are unique)
    block = {name: j for blocks in spec.partitions.values()
             for j, names in enumerate(blocks, start=1) for name in names}
    # the copy names of every vertex and edge, formatted once: the split's
    # edges, ``parent`` and the lifted squares all hold these strings
    copies = {v: tuple(_copy_name(v, i) for i in range(1, counts[v] + 1)) for v in graph.vertices}
    parent = {name: v for v, names in copies.items() for name in names}
    vertex_copies = list(parent)

    # every copy name is new and every endpoint a vertex copy, so no declaration check can fail
    edges: dict[str, Edge] = {}
    source_index: dict[str, tuple[int, ...]] = {}  # per edge, its copies' source copies, 0-based
    for e in graph.edges:
        name, ranges = e.name, copies[e.range]
        names = copies[name] = tuple(_copy_name(name, i) for i in range(1, len(ranges) + 1))
        # js[i - 1] = j - 1 where source(e^i) = source(e)^j
        if e.color == color:
            js = (block[name] - 1,) * len(ranges)
        elif (blocks := spec.partitions.get(e.range)) is None:
            js = (0,) * len(ranges)  # no outgoing split-color edge at the range
        else:
            # The partner side of f·e starts with a split-color edge at
            # source(e); every f in the block names the same block there.  On
            # the region the blocks are singletons.  Off it, a block of two
            # or more edges means r(e) has that many split-color edges, so
            # r(e) would have joined the region if source(e) lay on it;
            # source(e) therefore lies off it too, with a single block, and
            # every f names block 1.
            js = tuple(block[swap[members[0], name][1]] - 1 for members in blocks)
        source_index[name] = js
        sources = copies[e.source]
        for copy, j, r in zip(names, js, ranges):
            edges[copy] = Edge(copy, e.color, sources[j], r)
            parent[copy] = name

    skeleton = Skeleton.declared(graph.k, vertex_copies, edges)

    pairs = []
    for (a, b), (g, h) in graph.squares.pairs:
        # each inner edge lifts to its copy whose range is the outer copy's source
        bs, hs = copies[b], copies[h]
        for a_p, j, g_p, l in zip(copies[a], source_index[a], copies[g], source_index[g]):
            pairs.append(((a_p, bs[j]), (g_p, hs[l])))

    try:
        split_graph = build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
    except (KGraphInvalid, StructureError) as exc:  # pragma: no cover - defensive
        raise SplitError(f"internal error: split output failed validation: {exc}") from exc
    # source-free because the input is: each copy v.i receives the copy e.i
    # of every edge e into v
    return SplitResult(graph, split_graph, color, spec.base, parent)


def reconstruct_split(original: KGraph, skeleton: Skeleton, color: int, base: str) -> SplitResult:
    """:func:`outsplit` replayed on the partition that a split file with ``skeleton``
    encodes: a ``color``-edge ``e`` out of ``v`` is in block ``j`` when its copy
    ``e.1`` starts at ``v.j``.  :func:`kgraphs.fileformat.check_split` compares the files.
    """
    edges = skeleton.edge_map
    blocks: dict[str, dict[int, list[str]]] = {}  # vertex -> block index -> its edges
    for e in original.edges:
        if e.color == color:
            name = _copy_name(e.name, 1)
            if name not in edges:
                raise SplitError(f"missing copy {name}")
            j = _parse_copy_index(edges[name].source)
            blocks.setdefault(e.source, {}).setdefault(j, []).append(e.name)
    partitions = {v: tuple(tuple(by_index[j]) for j in sorted(by_index))
                  for v, by_index in blocks.items()}
    return outsplit(original, SplitSpec(color, base, partitions))


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
    witness: tuple[str, tuple[str, ...]] | None  # first edge with two or more siblings

    def describe(self) -> str:
        if self.ok:
            return "paired"
        edge, sibs = self.witness  # type: ignore[misc]
        return f"{edge} : {{{', '.join(sibs)}}}"


def pairing_report(graph: KGraph, color: int) -> PairingReport:
    """Whether every non-``color`` edge has at most one sibling.

    One pass over the squares finds them: a side whose outer edge has
    ``color`` names a sibling of its inner edge, its partner's inner edge,
    and an edge is crowded once two of its sides name different siblings.
    The witness is the first crowded edge in edge order, with its sorted
    :func:`sibling_set`.  Edges whose range has no outgoing ``color``-edge
    have an empty sibling set and never obstruct pairing.
    """
    if not 1 <= color <= graph.k:
        raise SplitError(f"color {color} out of range 1..{graph.k}")
    ours = {e.name for e in graph.edges if e.color == color}
    first: dict[str, str] = {}  # each edge's first sibling found
    crowded: set[str] = set()
    for (a, b), (g, h) in graph.squares.pairs:
        # the sides swap colors, so at most one outer edge has ``color``
        if a in ours:
            if first.setdefault(b, h) != h:
                crowded.add(b)
        elif g in ours:
            if first.setdefault(h, b) != b:
                crowded.add(h)
    for e in graph.edges:
        if e.name in crowded:
            return PairingReport(False, (e.name, sibling_set(graph, e.name, color)))
    return PairingReport(True, None)


def copy_path(result: SplitResult, path: Path, index: int) -> Path:
    """The copy of a path whose range is the ``index``-th copy of its range.

    Built edgewise from the range end: each edge lifts to its copy whose
    range is the current vertex, so the lifted edges compose and keep their
    parents' colors.

    The lift is defined for every split, paired or not: each edge ``e`` has
    a copy ``e.i`` with range ``r(e).i`` for every ``i ≤ counts[r(e)]``.  It
    commutes with normal forms: :func:`outsplit` lifts each square
    ``fe ~ gh`` once per copy of its range, to the edgewise lifts of ``fe``
    and ``gh`` there, so lifting commutes with a swap (the edges above the
    pair lift alike, and below it too, as the lifted sides share a source).
    Normal forms are reached by swaps and the lift keeps colors, so the
    split graph's normal form of a lift is the lift of the normal form.
    """
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
