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
  already normal comes back as the same object.  :meth:`KGraph.extend`
  looks the composite's edge tuple up in the same cache before it builds
  anything, and on a miss both make the one construction: the edges
  bubble through the graph's ``{edge id: color}`` table and the swap map
  straight into a new :class:`Path`.  :func:`factor` reads the same table,
  and at a zero tail degree it is the normal form of the whole path.
* All enumerations are deterministic: vertices and edges sort by
  identifier, path sets sort by their edge-id sequence.
* Each id is one shared string.  :func:`declare_edge` stores an edge's
  endpoints as the strings its vertex declarations stored, :func:`checked_square`
  builds every side from its ``Edge`` objects' ``name`` strings, and
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
    """Malformed input, an unknown name or a bad argument to a library call (exit code 2)."""

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


def declare_vertex(vertices: dict[str, str], edges: Mapping[str, Edge], name: str) -> str | None:
    """Store vertex ``name`` in ``vertices``, which maps each id to itself, or
    return why it cannot be declared."""
    if name in vertices:
        return f"duplicate vertex id {name!r}"
    if name in edges:
        return f"duplicate id {name!r}"
    vertices[name] = name
    return None


def declare_edge(edges: dict[str, Edge], vertices: Mapping[str, str], k: int, name: str,
                 color: int, source: str, range_: str) -> tuple[str, str] | None:
    """Store the edge in ``edges``, its endpoints the strings of ``vertices``, or
    return the ``Edge`` field that fails and why.  The rules run in one order:
    a new id, a color in ``1..k``, a declared source, a declared range."""
    if name in edges or name in vertices:
        return "name", f"duplicate id {name!r}"
    if not 1 <= color <= k:
        return "color", f"edge {name!r} has color {color}, valid range is 1..{k}"
    try:
        edges[name] = Edge(name, color, vertices[source], vertices[range_])
    except KeyError as exc:  # names the first endpoint not declared
        return "source" if source not in vertices else "range", f"unknown vertex {exc.args[0]!r}"
    return None


@dataclass(frozen=True)
class Skeleton:
    """Finite k-colored directed multigraph.

    Construct through :meth:`create`, which checks each declaration with
    :func:`declare_vertex` or :func:`declare_edge`, as ``fileformat.parse``
    does at each line, and sorts the data by id.
    """

    k: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def create(k: int, vertices: Iterable[str], edges: Iterable[Edge]) -> "Skeleton":
        """Declare the vertices, then the edges, in the order given; the first refused raises."""
        if k < 1:
            raise StructureError(f"k must be at least 1, got {k}")
        vs: dict[str, str] = {}
        es: dict[str, Edge] = {}
        for v in vertices:
            if problem := declare_vertex(vs, es, v):
                raise StructureError(problem)
        for e in edges:
            if failed := declare_edge(es, vs, k, *e):
                raise StructureError(failed[1])
        return Skeleton.declared(k, vs, es)

    @staticmethod
    def declared(k: int, vertices: Iterable[str], edges: Mapping[str, Edge]) -> "Skeleton":
        """The skeleton of vertices and edges, keyed by id, that pass the declaration
        checks, sorted by id: what the checkers stored, or ``outsplit``'s copies."""
        return Skeleton(k, tuple(sorted(vertices)), tuple(map(edges.__getitem__, sorted(edges))))

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
    are traversed first.  :meth:`create`, like ``fileformat.parse``, checks
    and orders each pair with :func:`checked_square`, whose sides hold the
    skeleton's own ``Edge.name`` strings, and dedupes in the same loop;
    completeness and uniqueness across pairs are the job of ``validate``.
    One pass over the pairs gives the swap map and, only for a side with
    several partners, the list of them that ``validate`` reports.
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
                quad = edges[f], edges[e], edges[g], edges[h]
            except KeyError:
                quad = map(skeleton.edge, (f, e, g, h))  # raises "unknown edge"
            unique[checked_square(*quad)] = None
        return SquareSet(tuple(sorted(unique)))

    @cached_property
    def _partners(self) -> tuple[dict[Side, Side], dict[Side, list[Side]]]:
        """Each side's first partner, and every partner of a side with several."""
        first: dict[Side, Side] = {}
        several: dict[Side, list[Side]] = {}
        for side1, side2 in self.pairs:
            seen = first.setdefault(side1, side2)
            if seen != side2:
                several.setdefault(side1, [seen]).append(side2)
            seen = first.setdefault(side2, side1)
            if seen != side1:
                several.setdefault(side2, [seen]).append(side1)
        return first, several

    @cached_property
    def swap_map(self) -> Mapping[Side, Side]:
        """Every side with exactly one partner mapped to that partner."""
        first, several = self._partners
        return {s: p for s, p in first.items() if s not in several} if several else first


def checked_square(f: Edge, e: Edge, g: Edge, h: Edge) -> tuple[Side, Side]:
    """The pair ``fe ~ gh``, smaller side first; ``StructureError`` unless both sides
    are composable bicolored 2-paths with swapped colors and equal endpoints.
    ``fileformat.parse`` and :meth:`SquareSet.create` both check squares here."""
    if f == g and e == h:
        problem = "a side cannot pair with itself"
    elif e.color == f.color or h.color == g.color:
        problem = "sides must be bicolored"
    elif f.color != h.color or e.color != g.color:
        problem = "degree not preserved (colors must swap)"
    elif f.source != e.range:
        problem = f"{f.name} after {e.name} is not composable"
    elif g.source != h.range:
        problem = f"{g.name} after {h.name} is not composable"
    elif e.source != h.source or f.range != g.range:
        problem = "the two sides have different endpoints"
    else:
        side1, side2 = (f.name, e.name), (g.name, h.name)
        return (side1, side2) if side1 <= side2 else (side2, side1)
    raise StructureError(f"square {f.name} {e.name} = {g.name} {h.name}: {problem}")


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
    missing from the swap map is reported, as ambiguous with its sorted
    partners if it has several and otherwise as unmatched, and a matched side
    whose colors ascend in traversal order starts the hexagon checks on the
    ascending 3-paths ``(a, b, c)``.  A 3-path that needs a missing or
    ambiguous swap gets no hexagon check; the completeness report already
    names that swap.

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
    swap, several = squares.swap_map, squares._partners[1]
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
                    if partners := several.get((b, c)):
                        report.ambiguous.append(((b, c), tuple(sorted(set(partners)))))
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
            raise UsageError("a path needs at least one edge; use vertex_path for vertices")
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
        """``normal_form(compose(path, alpha))``, built only when the composite's edges miss the cache."""
        if path.source != alpha.range or not (path.edges and alpha.edges):
            return self.normal_form(self.compose(path, alpha))
        edges = alpha.edges + path.edges
        return self._nf_cache.get(edges) or self._normal(
            edges, alpha.source, path.range, tuple(map(operator.add, alpha.degree, path.degree)))

    # -- squares and normal forms ---------------------------------------------

    @cached_property
    def _color(self) -> dict[str, int]:
        return {e.name: e.color for e in self.skeleton.edges}

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
        return self._nf_cache.get(path.edges) or self._normal(
            path.edges, path.source, path.range, path.degree, path)

    def _normal(self, edges: tuple[str, ...], source: str, range_: str, degree: Degree,
                path: Path | None = None) -> Path:
        """Cache the normal form of the path with these edges, two or more; keep ``path`` if normal."""
        arranged = self._rearrange_edges(edges, list(map(self._color.__getitem__, edges)))
        if path is None or arranged != edges:
            path = Path(arranged, source, range_, degree)
        self._nf_cache[edges] = path
        return path

    def _rearrange_edges(self, edges: tuple[str, ...], ranks: list[int]) -> tuple[str, ...]:
        """The equivalent edges in ``ranks`` order, one rank per edge; one color's ranks must not descend."""
        out, swap = list(edges), self.squares.swap_map
        for at in range(1, len(out)):
            # bubble the edge left past every neighbor of a larger rank
            while at and ranks[at - 1] > ranks[at]:
                out[at], out[at - 1] = swap[out[at], out[at - 1]]
                ranks[at - 1], ranks[at] = ranks[at], ranks[at - 1]
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
            raise UsageError(f"degree {format_degree(degree)} has wrong rank for a {self.k}-graph")
        if min(degree) < 0:
            raise UsageError(f"negative degree component in {format_degree(degree)}")
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
            raise UsageError(f"color {color} out of range 1..{self.k}")
        return tuple(v for v in self.vertices if not self.skeleton.edges_from(v, color))


def factor(graph: KGraph, path: Path, source_degree: Degree) -> tuple[Path, Path]:
    """Split as ``head∘tail`` with ``tail`` traversed first at the given degree.

    Both parts come back in normal form; uniqueness is the factorization
    property of a validated graph.  At a zero tail degree the head is the
    cached normal form of ``path`` and the tail the vertex ``s(path)``.
    """
    if not dominates(path.degree, source_degree):
        raise UsageError(f"cannot factor degree {format_degree(path.degree)} "
                         f"with first part {format_degree(source_degree)}")
    if not any(source_degree):
        return graph.normal_form(path), Path((), path.source, path.source, source_degree)
    head_degree = difference(path.degree, source_degree)
    # the first source_degree[c - 1] edges of color c rank c, the rest c + k: tail first
    left, color, k = list(source_degree), graph._color, graph.k
    ranks = []
    for c in map(color.__getitem__, path.edges):
        left[c - 1] -= 1
        ranks.append(c if left[c - 1] >= 0 else c + k)
    arranged = graph._rearrange_edges(path.edges, ranks)
    cut = sum(source_degree)
    tail_edges, head_edges = arranged[:cut], arranged[cut:]
    mid = graph.skeleton.edge_map[tail_edges[-1]].range
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

