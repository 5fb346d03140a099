"""Finite k-colored directed multigraphs with factorization squares.

A higher-rank graph (k-graph) of finite type is presented here by its
1-skeleton, a finite directed multigraph whose every edge carries one of k
colors, together with a set of *factorization squares*: identifications
``fe ~ gh`` of bicolored length-2 paths with swapped colors and equal
endpoints.  The squares generate an equivalence on all paths, and the
quotient is a k-graph exactly when two conditions hold:

* completeness and uniqueness: every bicolored 2-path belongs to exactly
  one square (the color swap is a well-defined involution), and
* the hexagon condition: for every 3-path in three distinct colors, the
  two ways of fully reversing its color order by successive swaps agree.
  Where the swap is an involution, the routes agree at a 3-path iff they
  agree at its swap neighbours, and swaps reach every color order; so
  ``validate`` checks the 3-paths whose colors ascend in traversal order,
  and re-checks only 3-paths a few swaps from a failure or a bad side.

``build_kgraph`` checks both and returns a validated :class:`KGraph`;
``validate`` returns the full diagnostic report instead of raising.  In a
validated graph every path splits uniquely at any degree it dominates
(:func:`factor`), which is what the algebra's product is built on.

Conventions used throughout the package:

* Composition is written right-to-left: in the juxtaposition ``fe`` the
  edge ``e`` is traversed first, so ``source(fe) = source(e)`` and
  ``range(fe) = range(f)``.  :class:`Path` stores its edges in traversal
  order (first-traversed edge at index 0) and displays them reversed to
  match the juxtaposition.
* Colors are 1-based indices.  The canonical (normal) form of a path has
  color indices non-decreasing in traversal order, so the first-traversed
  edge carries the smallest color.  Two paths are equivalent iff their
  normal forms coincide as edge lists.
* A degree is a plain tuple of k non-negative counts, indexed by color
  minus one; :class:`Path` is a named tuple.  Both hash and compare as
  tuples, and degrees are checked only where they enter from outside
  (:meth:`KGraph.paths_with_range`).
* :meth:`KGraph.normal_form` caches the normal form of each edge tuple as
  a :class:`Path`: a repeated call allocates nothing, and a path that is
  already normal comes back as the same object.  :meth:`KGraph.extend` is
  the normal form of a composite, and :func:`factor` at a zero tail degree
  is the normal form of the whole path.
* All enumerations are deterministic: vertices and edges sort by
  identifier, path sets sort by their edge-id sequence.
* Each id is one shared string.  ``fileformat.parse`` stores an edge's
  endpoints as the strings of their ``vertex`` lines, :meth:`SquareSet.create`
  rebuilds every side from the skeleton's ``Edge.name`` strings, and
  ``splitting.outsplit`` formats each copy name once; so the tuple-keyed
  lookups on sides and endpoints compare strings by identity.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class KGraphError(ValueError):
    """Root of the errors bad input can raise; ``exit_code`` is the CLI's status for it.

    Raised directly (exit code 1), it means the input is well formed but
    fails a check.  Every subclass is also a ``ValueError``.
    """

    exit_code = 1


class UsageError(KGraphError):
    """Malformed input or an unknown name (exit code 2)."""

    exit_code = 2


class StructureError(UsageError):
    """A skeleton or square set is malformed (bad ids, endpoints, colors)."""


class KGraphInvalid(KGraphError):
    """Square data fails the k-graph axioms; carries the full report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.summary())
        self.report = report


# An element of the monoid N^k: one non-negative count per color.
Degree = tuple[int, ...]


def join(a: Degree, b: Degree) -> Degree:
    """Componentwise maximum (least upper bound in N^k)."""
    return tuple(map(max, a, b))


def difference(a: Degree, b: Degree) -> tuple[int, ...]:
    """``a - b`` as a Z^k vector; in N^k when ``a`` dominates ``b``."""
    return tuple(map(operator.sub, a, b))


def dominates(big: Degree, small: Degree) -> bool:
    """Whether ``big >= small`` componentwise in N^k."""
    return all(a >= b for a, b in zip(big, small, strict=True))


def format_degree(d: Degree) -> str:
    """``(1,0)`` style: the components without spaces."""
    return "(" + ",".join(map(str, d)) + ")"


def degrees_with_total(k: int, total: int) -> Iterator[Degree]:
    """All degrees in N^k with the given total, in lexicographic order."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in degrees_with_total(k - 1, total - first):
            yield (first,) + rest


class Edge(NamedTuple):
    name: str
    color: int
    source: str
    range: str


@dataclass(frozen=True)
class Skeleton:
    """Finite k-colored directed multigraph.

    Construct through :meth:`create`, which sorts the data and checks the
    structural invariants (unique ids, declared endpoints, valid colors).
    ``fileformat.parse`` checks the same rules per declaration and builds the
    sorted skeleton directly, so the two rule sets must stay in step.
    """

    k: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def create(k: int, vertices: Iterable[str], edges: Iterable[Edge]) -> "Skeleton":
        if k < 1:
            raise StructureError(f"k must be at least 1, got {k}")
        vs = tuple(sorted(vertices))
        es = tuple(sorted(edges, key=lambda e: e.name))
        seen_v: set[str] = set()
        for v in vs:
            if v in seen_v:
                raise StructureError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e: set[str] = set()
        for e in es:
            if e.name in seen_e:
                raise StructureError(f"duplicate edge id {e.name!r}")
            seen_e.add(e.name)
            if e.name in seen_v:
                raise StructureError(f"id {e.name!r} used for both a vertex and an edge")
            if not 1 <= e.color <= k:
                raise StructureError(f"edge {e.name!r} has color {e.color}, valid range is 1..{k}")
            if e.source not in seen_v or e.range not in seen_v:
                raise StructureError(f"edge {e.name!r} references undeclared vertex")
        return Skeleton(k, vs, es)

    @cached_property
    def edge_map(self) -> Mapping[str, Edge]:
        return {e.name: e for e in self.edges}

    @cached_property
    def _out(self) -> Mapping[tuple[str, int], tuple[Edge, ...]]:
        table: dict[tuple[str, int], list[Edge]] = {}
        for e in self.edges:
            table.setdefault((e.source, e.color), []).append(e)
        return {key: tuple(v) for key, v in table.items()}

    @cached_property
    def _into(self) -> Mapping[tuple[str, int], tuple[Edge, ...]]:
        table: dict[tuple[str, int], list[Edge]] = {}
        for e in self.edges:
            table.setdefault((e.range, e.color), []).append(e)
        return {key: tuple(v) for key, v in table.items()}

    def edges_from(self, vertex: str, color: int | None = None) -> tuple[Edge, ...]:
        if color is not None:
            return self._out.get((vertex, color), ())
        return tuple(e for c in range(1, self.k + 1) for e in self._out.get((vertex, c), ()))

    def edges_into(self, vertex: str, color: int | None = None) -> tuple[Edge, ...]:
        if color is not None:
            return self._into.get((vertex, color), ())
        return tuple(e for c in range(1, self.k + 1) for e in self._into.get((vertex, c), ()))

    def edge(self, name: str) -> Edge:
        try:
            return self.edge_map[name]
        except KeyError:
            raise StructureError(f"unknown edge {name!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    @cached_property
    def _vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)


class Path(NamedTuple):
    """A finite path: edge ids in traversal order, with cached endpoints.

    An empty edge tuple denotes a vertex (degree zero); then
    ``source == range`` names that vertex.  The edges and the source
    determine the rest, so tuple order is edge-id order.
    """

    edges: tuple[str, ...]
    source: str
    range: str
    degree: Degree

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def __str__(self) -> str:
        if self.is_vertex:
            return self.source
        return "·".join(reversed(self.edges))


# One side of a factorization square: (outer, inner) edge ids, inner first.
Side = tuple[str, str]


@dataclass(frozen=True)
class SquareSet:
    """Factorization squares: unordered pairs of bicolored 2-path sides.

    A pair ``((f, e), (g, h))`` declares ``fe ~ gh`` where ``e`` and ``h``
    are traversed first.  :meth:`create` checks each pair structurally
    (composability, swapped colors, equal endpoints and degree), orders and
    dedupes it in the same loop, and stores the skeleton's own ``Edge.name``
    strings in every side; completeness and uniqueness across pairs are the
    job of ``validate``.  The swap map is built in one pass over the pairs,
    and the partner table only when asked for, which ``validate`` does only
    when a side lacks a unique partner.
    """

    pairs: tuple[tuple[Side, Side], ...]

    @staticmethod
    def create(skeleton: Skeleton, pairs: Iterable[tuple[Side, Side]]) -> "SquareSet":
        """Check each pair, put its smaller side first and drop repeats."""
        edges = skeleton.edge_map
        # a dict keeps the first-seen order, so canonical input sorts in linear time
        unique: dict[tuple[Side, Side], None] = {}
        for (f, e), (g, h) in pairs:
            try:
                ef, ee, eg, eh = edges[f], edges[e], edges[g], edges[h]
            except KeyError:
                ef, ee, eg, eh = map(skeleton.edge, (f, e, g, h))  # raises "unknown edge"
            if f == g and e == h:
                problem = "a side cannot pair with itself"
            elif ee.color == ef.color or eh.color == eg.color:
                problem = "sides must be bicolored"
            elif ef.color != eh.color or ee.color != eg.color:
                problem = "degree not preserved (colors must swap)"
            elif ef.source != ee.range:
                problem = f"{f} after {e} is not composable"
            elif eg.source != eh.range:
                problem = f"{g} after {h} is not composable"
            elif ee.source != eh.source or ef.range != eg.range:
                problem = "the two sides have different endpoints"
            else:
                side1, side2 = (ef.name, ee.name), (eg.name, eh.name)
                unique[(side1, side2) if side1 <= side2 else (side2, side1)] = None
                continue
            raise StructureError(f"square {f} {e} = {g} {h}: {problem}")
        return SquareSet(tuple(sorted(unique)))

    @cached_property
    def _partners(self) -> tuple[dict[Side, Side], dict[Side, list[Side]]]:
        """Each side's first partner, and every partner of a side with several."""
        first: dict[Side, Side] = {}
        several: dict[Side, list[Side]] = {}
        for side1, side2 in self.pairs:
            for side, partner in ((side1, side2), (side2, side1)):
                seen = first.setdefault(side, partner)
                if seen != partner:
                    several.setdefault(side, [seen]).append(partner)
        return first, several

    @cached_property
    def swap_map(self) -> Mapping[Side, Side]:
        """Every side with exactly one partner mapped to that partner."""
        first, several = self._partners
        return {s: p for s, p in first.items() if s not in several} if several else first

    @cached_property
    def partner_table(self) -> Mapping[Side, tuple[Side, ...]]:
        """Every side mapped to all partner sides declared for it, sorted."""
        first, several = self._partners
        return {s: tuple(sorted(set(several[s]))) if s in several else (p,)
                for s, p in first.items()}


class HexagonFailure(NamedTuple):
    """A 3-path whose routes disagree, with each route's six swap results.

    Route 1 swaps ``a b ~ d e``, ``e c ~ f g``, ``d f ~ h j`` and route 2
    ``b c ~ k m``, ``a k ~ n p``, ``p m ~ r q``, so ``h j g != n r q``.
    """

    triple: tuple[str, str, str]  # (a, b, c): c traversed first
    route1: tuple[str, ...]  # (d, e, f, g, h, j)
    route2: tuple[str, ...]  # (k, m, n, p, r, q)


@dataclass
class ValidationReport:
    """Outcome of checking the square axioms on a colored skeleton."""

    unmatched: list[Side] = field(default_factory=list)
    ambiguous: list[tuple[Side, tuple[Side, ...]]] = field(default_factory=list)
    hexagon_failures: list[HexagonFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.unmatched or self.ambiguous or self.hexagon_failures)

    def summary(self) -> str:
        if self.ok:
            return "valid k-graph"
        return "; ".join(self.lines())

    def lines(self) -> list[str]:
        out = []
        for f, e in self.unmatched:
            out.append(f"completeness: 2-path {f} {e} has no square partner")
        for (f, e), partners in self.ambiguous:
            alts = ", ".join(f"{g} {h}" for g, h in partners)
            out.append(f"uniqueness: 2-path {f} {e} has {len(partners)} partners: {alts}")
        for (a, b, c), (d, e, f, g, h, j), (k, m, n, p, r, q) in self.hexagon_failures:
            out.append(
                f"hexagon: 3-path {a} {b} {c} disagrees: "
                f"route 1 [{a} {b} ~ {d} {e}; {e} {c} ~ {f} {g}; {d} {f} ~ {h} {j}] gives {h} {j} {g}, "
                f"route 2 [{b} {c} ~ {k} {m}; {a} {k} ~ {n} {p}; {p} {m} ~ {r} {q}] gives {n} {r} {q}"
            )
        return out


def validate(skeleton: Skeleton, squares: SquareSet) -> ValidationReport:
    """Check completeness/uniqueness of swaps and the hexagon condition.

    One pass over the bicolored 2-paths ``(b, c)`` does both jobs: a side
    missing from the swap map is reported (only then is the partner table
    read), and a matched side whose colors ascend in traversal order starts
    the hexagon checks on the ascending 3-paths ``(a, b, c)``.  A 3-path
    that needs a missing or ambiguous swap gets no hexagon check; the
    completeness report already names that swap.

    If the pass finds anything, only 3-paths near it are re-checked, with
    the full route comparison; this is exact.  Let ``A`` swap the outer pair
    of edges and ``B`` the inner pair, and number the alternating orbit of a
    3-path ``x`` as ``x_t``: ``x_1 = Ax``, ``x_2 = BAx``, ``x_-1 = Bx``, and so
    on.  Route 1 is ``ABA`` and route 2 is ``BAB``, so ``x`` fails iff
    ``x_3 != x_-3``.  Suppose ``x_-5 .. x_5`` are good: both moves are defined
    and involutive there.  Applying one move to both sides shows that
    ``x_t+3 = x_t-3`` holds for one ``t`` in ``[-3, 3]`` iff it holds for all,
    and 6 consecutive positions hold exactly one ascending 3-path; so ``x``
    fails iff the ascending one among ``x_-2 .. x_3`` fails.  Otherwise a
    bad point, a 3-path in three colors with a bad side in either position,
    lies within 5 moves of ``x``.  The bad sides are the unmatched and
    ambiguous ones, and each partner ``p`` of an ambiguous side ``s`` with
    ``swap(p) = s``.  So the candidates are the 3-paths reached by at most 3
    alternating moves from a failing ascending 3-path, or at most 5 from a
    bad point, either move first.

    Precondition: every pair passes :meth:`SquareSet.create`'s structural
    checks for this skeleton, so each move maps 3-paths to 3-paths.
    """
    report = ValidationReport()
    swap = squares.swap_map
    out, rank = skeleton._out, skeleton.k
    failing = []  # ascending 3-paths whose routes disagree
    for inner in skeleton.edges:
        c, c1 = inner.name, inner.color
        for c2 in range(1, rank + 1):
            if c2 == c1:
                continue
            for mid in out.get((inner.range, c2), ()):
                b = mid.name
                try:
                    k, m = swap[b, c]
                except KeyError:
                    partners = squares.partner_table.get((b, c), ())
                    if partners:
                        report.ambiguous.append(((b, c), partners))
                    else:
                        report.unmatched.append((b, c))
                    continue
                if c2 < c1:
                    continue
                for c3 in range(c2 + 1, rank + 1):
                    for outer in out.get((mid.range, c3), ()):
                        a = outer.name
                        try:
                            d, e = swap[a, b]
                            f, g = swap[e, c]
                            h, j = swap[d, f]
                            n, p = swap[a, k]
                            r, q = swap[p, m]
                        except KeyError:
                            continue
                        if h != n or j != r or g != q:
                            failing.append((a, b, c))
    bad = set(report.unmatched)
    for side, partners in report.ambiguous:
        bad.add(side)
        bad.update(p for p in partners if swap.get(p) == side)
    if rank < 3 or not (bad or failing):
        return report
    candidates = {y for x in failing for y in _walks(swap, x, 3)}
    edge = skeleton.edge_map
    for b, c in bad:
        eb, ec = edge[b], edge[c]
        for color in range(1, rank + 1):
            if color != eb.color and color != ec.color:
                for x in skeleton._into.get((ec.source, color), ()):
                    candidates.update(_walks(swap, (b, c, x.name), 5))
                for x in out.get((eb.range, color), ()):
                    candidates.update(_walks(swap, (x.name, b, c), 5))
    found = filter(None, (_hexagon_failure(swap, *x) for x in candidates))
    report.hexagon_failures.extend(sorted(found, key=lambda fail: (
        fail.triple[2], edge[fail.triple[1]].color, fail.triple[1],
        edge[fail.triple[0]].color, fail.triple[0])))
    return report


def _walks(swap: Mapping[Side, Side], x: tuple[str, str, str],
           radius: int) -> Iterator[tuple[str, str, str]]:
    """3-paths reached from ``x`` by at most ``radius`` alternating moves, either move first."""
    yield x
    for first in (0, 1):
        a, b, c = x
        for step in range(first, first + radius):
            try:
                if step % 2:
                    b, c = swap[b, c]
                else:
                    a, b = swap[a, b]
            except KeyError:
                break
            yield a, b, c


def _hexagon_failure(swap: Mapping[Side, Side], a: str, b: str, c: str) -> HexagonFailure | None:
    """The witness when both routes around the 3-path ``(a, b, c)`` exist and disagree."""
    try:
        d, e = swap[a, b]
        f, g = swap[e, c]
        h, j = swap[d, f]
        k, m = swap[b, c]
        n, p = swap[a, k]
        r, q = swap[p, m]
    except KeyError:
        return None
    if (h, j, g) == (n, r, q):
        return None
    return HexagonFailure((a, b, c), (d, e, f, g, h, j), (k, m, n, p, r, q))


class SourceFreeness(NamedTuple):
    ok: bool
    witnesses: tuple[tuple[str, int], ...]  # (vertex, color) lacking an incoming edge


@dataclass(frozen=True)
class KGraph:
    """A validated k-graph presentation.  Build through :func:`build_kgraph`."""

    skeleton: Skeleton
    squares: SquareSet

    # -- basic accessors ---------------------------------------------------

    @property
    def k(self) -> int:
        return self.skeleton.k

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.skeleton.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.skeleton.edges

    def edge(self, name: str) -> Edge:
        return self.skeleton.edge(name)

    # -- paths ---------------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        if not self.skeleton.has_vertex(v):
            raise StructureError(f"unknown vertex {v!r}")
        return Path((), v, v, (0,) * self.k)

    def make_path(self, edge_names: Sequence[str]) -> Path:
        """Path from edge ids in traversal order (first-traversed first)."""
        if not edge_names:
            raise ValueError("a path needs at least one edge; use vertex_path for vertices")
        edges = [self.skeleton.edge(name) for name in edge_names]
        for earlier, later in itertools.pairwise(edges):
            if later.source != earlier.range:
                raise StructureError(
                    f"edges {earlier.name} and {later.name} do not compose: "
                    f"range {earlier.range} != source {later.source}"
                )
        degree = [0] * self.k
        for e in edges:
            degree[e.color - 1] += 1
        return Path(tuple(edge_names), edges[0].source, edges[-1].range, tuple(degree))

    def compose(self, left: Path, right: Path) -> Path:
        """The composite left∘right; ``right`` is traversed first."""
        if left.source != right.range:
            raise StructureError(
                f"paths do not compose: source {left.source} != range {right.range}"
            )
        if right.is_vertex:
            return left
        if left.is_vertex:
            return right
        degree = tuple(map(operator.add, right.degree, left.degree))
        return Path(right.edges + left.edges, right.source, left.range, degree)

    def extend(self, path: Path, alpha: Path) -> Path:
        """``normal_form(compose(path, alpha))``: the normal form of ``path`` extended by ``alpha``."""
        return self.normal_form(self.compose(path, alpha))

    # -- squares and normal forms ---------------------------------------------

    def swap(self, outer: str, inner: str) -> Side:
        """The unique square partner of the 2-path ``outer∘inner``."""
        eo, ei = self.skeleton.edge(outer), self.skeleton.edge(inner)
        if eo.color == ei.color:
            raise StructureError(f"swap needs a bicolored 2-path, both edges have color {eo.color}")
        if eo.source != ei.range:
            raise StructureError(f"{outer} after {inner} is not a path")
        return self.squares.swap_map[(outer, inner)]

    @cached_property
    def _nf_cache(self) -> dict[tuple[str, ...], Path]:
        return {}

    def normal_form(self, path: Path) -> Path:
        """The equivalent path whose color word ascends in traversal order.

        The edges determine a path, so the cache maps them to the normal
        form itself: a hit allocates nothing, and a path that is already
        normal comes back as the same object.
        """
        if len(path.edges) < 2:
            return path
        key = path.edges
        normal = self._nf_cache.get(key)
        if normal is None:
            word = tuple(sorted(self.skeleton.edge(n).color for n in key))
            edges = self._rearrange_edges(key, word)
            normal = self._nf_cache[key] = path if edges == key else path._replace(edges=edges)
        return normal

    def _rearrange_edges(self, edges: tuple[str, ...], word: tuple[int, ...]) -> tuple[str, ...]:
        out = list(edges)
        color = self.skeleton.edge_map
        swap = self.squares.swap_map
        for pos, target in enumerate(word):
            at = pos
            while color[out[at]].color != target:
                at += 1
            # bubble the edge left; every neighbor passed has a different color
            while at > pos:
                first, second = out[at - 1], out[at]
                swapped_outer, swapped_inner = swap[(second, first)]
                out[at - 1], out[at] = swapped_inner, swapped_outer
                at -= 1
        return tuple(out)

    # -- enumeration -----------------------------------------------------------

    @cached_property
    def _range_cache(self) -> dict[tuple[str, Degree], tuple[Path, ...]]:
        return {}

    def paths_with_range(self, v: str, degree: Degree) -> tuple[Path, ...]:
        """All normal-form paths of the degree with range ``v``, sorted."""
        if not self.skeleton.has_vertex(v):
            raise StructureError(f"unknown vertex {v!r}")
        if len(degree) != self.k:
            raise ValueError(f"degree {format_degree(degree)} has wrong rank for a {self.k}-graph")
        if min(degree) < 0:
            raise ValueError(f"negative degree component in {format_degree(degree)}")
        return self._paths_with_range(v, degree)

    def _paths_with_range(self, v: str, degree: Degree) -> tuple[Path, ...]:
        key = (v, degree)
        hit = self._range_cache.get(key)
        if hit is not None:
            return hit
        if not any(degree):
            result: tuple[Path, ...] = (self.vertex_path(v),)
        else:
            # normal forms place the largest color last, i.e. at the range end
            color = max(c for c in range(1, self.k + 1) if degree[c - 1] > 0)
            rest = degree[:color - 1] + (degree[color - 1] - 1,) + degree[color:]
            found = []
            for e in self.skeleton.edges_into(v, color):
                for stem in self._paths_with_range(e.source, rest):
                    found.append(
                        Path(stem.edges + (e.name,), stem.source, v, degree)
                    )
            result = tuple(sorted(found))
        self._range_cache[key] = result
        return result

    def rainbow_paths_into(self, v: str) -> tuple[Path, ...]:
        return self.paths_with_range(v, (1,) * self.k)

    # -- vertex properties -------------------------------------------------------

    def is_source_free(self) -> SourceFreeness:
        """True when every vertex receives at least one edge of every color."""
        witnesses = tuple(
            (v, c)
            for v in self.vertices
            for c in range(1, self.k + 1)
            if not self.skeleton.edges_into(v, c)
        )
        return SourceFreeness(not witnesses, witnesses)

    def degree_sinks(self, color: int) -> tuple[str, ...]:
        """Vertices with no outgoing edge of the color."""
        if not 1 <= color <= self.k:
            raise ValueError(f"color {color} out of range 1..{self.k}")
        return tuple(v for v in self.vertices if not self.skeleton.edges_from(v, color))


def factor(graph: KGraph, path: Path, source_degree: Degree) -> tuple[Path, Path]:
    """Split as ``head∘tail`` with ``tail`` traversed first at the given degree.

    Both parts come back in normal form; uniqueness is the factorization
    property of a validated graph.  At a zero tail degree the head is the
    cached normal form of ``path`` and the tail the vertex ``s(path)``.
    """
    if not dominates(path.degree, source_degree):
        raise ValueError(f"cannot factor degree {format_degree(path.degree)} "
                         f"with first part {format_degree(source_degree)}")
    if not any(source_degree):
        return graph.normal_form(path), Path((), path.source, path.source, source_degree)
    head_degree = difference(path.degree, source_degree)
    word = tuple(c for d in (source_degree, head_degree)
                 for c, n in enumerate(d, start=1) for _ in range(n))
    arranged = graph._rearrange_edges(path.edges, word)
    cut = sum(source_degree)
    tail_edges, head_edges = arranged[:cut], arranged[cut:]
    mid = path.source if not tail_edges else graph.edge(tail_edges[-1]).range
    tail = Path(tail_edges, path.source, mid, source_degree)
    head = Path(head_edges, mid, path.range, head_degree)
    # both parts ascend already; interning makes equal normal forms one object
    intern = graph._nf_cache.setdefault
    return (intern(head_edges, head) if len(head_edges) > 1 else head,
            intern(tail_edges, tail) if len(tail_edges) > 1 else tail)


def build_kgraph(skeleton: Skeleton, squares: SquareSet) -> KGraph:
    """Validate the axioms and return the k-graph, or raise :class:`KGraphInvalid`."""
    report = validate(skeleton, squares)
    if not report.ok:
        raise KGraphInvalid(report)
    return KGraph(skeleton, squares)


def product_graph(factors: Sequence[Skeleton]) -> KGraph:
    """Cartesian product of single-color graphs, with its unique square structure.

    Factor i contributes the color-i edges, which move the i-th coordinate.
    Every pair of edges in distinct factors commutes in exactly one way, so
    the result always validates; it is source-free when every factor vertex
    has an incoming edge.
    """
    if not factors:
        raise ValueError("need at least one factor")
    for i, f in enumerate(factors, start=1):
        if f.k != 1:
            raise StructureError(f"factor {i} must be 1-colored, has k={f.k}")
        if not f.vertices:
            raise StructureError(f"factor {i} is empty")
        for v in f.vertices:
            if not f.edges_into(v, 1):
                raise StructureError(f"factor {i} is not source-free: vertex {v!r}")
    k = len(factors)
    if k == 1:
        return build_kgraph(factors[0], SquareSet(()))

    def vname(point: tuple[str, ...]) -> str:
        return "|".join(point)

    def ename(i: int, edge: Edge, point: tuple[str, ...]) -> str:
        return f"{edge.name}~{i + 1}|{'|'.join(point[:i] + point[i + 1 :])}"

    def step(point: tuple[str, ...], i: int, edge: Edge) -> tuple[str, ...]:
        return point[:i] + (edge.range,) + point[i + 1 :]

    points = list(itertools.product(*[f.vertices for f in factors]))
    vertices = [vname(p) for p in points]
    edges = []
    pairs = []
    for p in points:
        out = [(i, e) for i, f in enumerate(factors) for e in f.edges_from(p[i], 1)]
        edges.extend(Edge(ename(i, e, p), i + 1, vname(p), vname(step(p, i, e))) for i, e in out)
        for (i, ei), (j, ej) in itertools.combinations(out, 2):
            if i != j:  # side 1 moves factor j first, side 2 factor i first
                pairs.append(((ename(i, ei, step(p, j, ej)), ename(j, ej, p)),
                              (ename(j, ej, step(p, i, ei)), ename(i, ei, p))))
    skeleton = Skeleton.create(k, vertices, edges)
    return build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
