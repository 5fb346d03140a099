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

``build_kgraph`` checks both and returns a validated :class:`KGraph`;
``validate`` returns the full diagnostic report instead of raising.

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
* All enumerations are deterministic: vertices and edges sort by
  identifier, path sets sort by their edge-id sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class StructureError(ValueError):
    """A skeleton or square set is malformed (bad ids, endpoints, colors)."""


class KGraphInvalid(ValueError):
    """Square data fails the k-graph axioms; carries the full report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True, order=True)
class Degree:
    """Element of the monoid N^k: one non-negative count per color."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.components):
            raise ValueError(f"negative degree component in {self.components}")

    @staticmethod
    def zero(k: int) -> "Degree":
        return Degree((0,) * k)

    @staticmethod
    def basis(k: int, color: int) -> "Degree":
        if not 1 <= color <= k:
            raise ValueError(f"color {color} out of range 1..{k}")
        return Degree(tuple(1 if i == color else 0 for i in range(1, k + 1)))

    @staticmethod
    def ones(k: int) -> "Degree":
        return Degree((1,) * k)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def total(self) -> int:
        return sum(self.components)

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(tuple(a + b for a, b in zip(self.components, other.components, strict=True)))

    def __sub__(self, other: "Degree") -> "Degree":
        return Degree(tuple(a - b for a, b in zip(self.components, other.components, strict=True)))

    def join(self, other: "Degree") -> "Degree":
        """Componentwise maximum (least upper bound in N^k)."""
        return Degree(tuple(max(a, b) for a, b in zip(self.components, other.components, strict=True)))

    def dominates(self, other: "Degree") -> bool:
        return all(a >= b for a, b in zip(self.components, other.components, strict=True))

    def signed_difference(self, other: "Degree") -> tuple[int, ...]:
        """self - other as a Z^k vector (components may be negative)."""
        return tuple(a - b for a, b in zip(self.components, other.components, strict=True))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"


def degrees_with_total(k: int, total: int) -> Iterator[Degree]:
    """All degrees in N^k with the given total, in lexicographic order."""
    if k == 1:
        yield Degree((total,))
        return
    for first in range(total + 1):
        for rest in degrees_with_total(k - 1, total - first):
            yield Degree((first,) + rest.components)


@dataclass(frozen=True, order=True)
class Edge:
    name: str
    color: int
    source: str
    range: str


@dataclass(frozen=True)
class Skeleton:
    """Finite k-colored directed multigraph.

    Construct through :meth:`create`, which sorts the data and checks the
    structural invariants (unique ids, declared endpoints, valid colors).
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


@dataclass(frozen=True)
class Path:
    """A finite path: edge ids in traversal order, with cached endpoints.

    An empty edge tuple denotes a vertex (degree zero); then
    ``source == range`` names that vertex.
    """

    edges: tuple[str, ...]
    source: str
    range: str
    degree: Degree

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)

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
    (composability, swapped colors, equal endpoints and degree);
    completeness and uniqueness across pairs are the job of ``validate``.
    """

    pairs: tuple[tuple[Side, Side], ...]

    @staticmethod
    def create(skeleton: Skeleton, pairs: Iterable[tuple[Side, Side]]) -> "SquareSet":
        normalized: set[tuple[Side, Side]] = set()
        for side1, side2 in pairs:
            SquareSet._check_pair(skeleton, side1, side2)
            s1 = (side1[0], side1[1])
            s2 = (side2[0], side2[1])
            normalized.add((s1, s2) if s1 <= s2 else (s2, s1))
        return SquareSet(tuple(sorted(normalized)))

    @staticmethod
    def _check_pair(skeleton: Skeleton, side1: Side, side2: Side) -> None:
        label = f"square {side1[0]} {side1[1]} = {side2[0]} {side2[1]}"
        (f, e), (g, h) = side1, side2
        ef, ee = skeleton.edge(f), skeleton.edge(e)
        eg, eh = skeleton.edge(g), skeleton.edge(h)
        if ee.color == ef.color or eh.color == eg.color:
            raise StructureError(f"{label}: sides must be bicolored")
        if ef.color != eh.color or ee.color != eg.color:
            raise StructureError(f"{label}: degree not preserved (colors must swap)")
        if ef.source != ee.range:
            raise StructureError(f"{label}: {f} after {e} is not composable")
        if eg.source != eh.range:
            raise StructureError(f"{label}: {g} after {h} is not composable")
        if ee.source != eh.source or ef.range != eg.range:
            raise StructureError(f"{label}: the two sides have different endpoints")
        if side1 == side2:
            raise StructureError(f"{label}: a side cannot pair with itself")

    @cached_property
    def partner_table(self) -> Mapping[Side, tuple[Side, ...]]:
        """Every side mapped to all partner sides declared for it."""
        table: dict[Side, list[Side]] = {}
        for side1, side2 in self.pairs:
            table.setdefault(side1, []).append(side2)
            table.setdefault(side2, []).append(side1)
        return {s: tuple(sorted(set(ps))) for s, ps in table.items()}


class HexagonFailure(NamedTuple):
    triple: tuple[str, str, str]  # (a, b, c): c traversed first
    route1: tuple[str, str, str]
    route2: tuple[str, str, str]
    route1_steps: tuple[str, ...]
    route2_steps: tuple[str, ...]


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
        for fail in self.hexagon_failures:
            a, b, c = fail.triple
            out.append(
                f"hexagon: 3-path {a} {b} {c} disagrees: "
                f"route 1 [{'; '.join(fail.route1_steps)}] gives {' '.join(fail.route1)}, "
                f"route 2 [{'; '.join(fail.route2_steps)}] gives {' '.join(fail.route2)}"
            )
        return out


def _bicolored_two_paths(skeleton: Skeleton) -> Iterator[Side]:
    for inner in skeleton.edges:
        for outer in skeleton.edges_from(inner.range):
            if outer.color != inner.color:
                yield (outer.name, inner.name)


def validate(skeleton: Skeleton, squares: SquareSet) -> ValidationReport:
    """Check completeness/uniqueness of swaps and the hexagon condition."""
    report = ValidationReport()
    table = squares.partner_table
    for side in _bicolored_two_paths(skeleton):
        partners = table.get(side, ())
        if not partners:
            report.unmatched.append(side)
        elif len(partners) > 1:
            report.ambiguous.append((side, partners))
    if skeleton.k >= 3:
        _check_hexagons(skeleton, table, report)
    return report


class _SwapUnavailable(Exception):
    """A needed swap is missing or ambiguous; the completeness report covers it."""


def _check_hexagons(
    skeleton: Skeleton, table: Mapping[Side, tuple[Side, ...]], report: ValidationReport
) -> None:
    def swap1(outer: str, inner: str) -> Side:
        partners = table.get((outer, inner), ())
        if len(partners) != 1:
            raise _SwapUnavailable
        return partners[0]

    for c in skeleton.edges:
        for b in skeleton.edges_from(c.range):
            if b.color == c.color:
                continue
            for a in skeleton.edges_from(b.range):
                if a.color in (b.color, c.color):
                    continue
                try:
                    steps1: list[str] = []
                    d_, e_ = swap1(a.name, b.name)
                    steps1.append(f"{a.name} {b.name} ~ {d_} {e_}")
                    f_, g_ = swap1(e_, c.name)
                    steps1.append(f"{e_} {c.name} ~ {f_} {g_}")
                    h_, j_ = swap1(d_, f_)
                    steps1.append(f"{d_} {f_} ~ {h_} {j_}")
                    steps2: list[str] = []
                    k_, m_ = swap1(b.name, c.name)
                    steps2.append(f"{b.name} {c.name} ~ {k_} {m_}")
                    n_, p_ = swap1(a.name, k_)
                    steps2.append(f"{a.name} {k_} ~ {n_} {p_}")
                    r_, q_ = swap1(p_, m_)
                    steps2.append(f"{p_} {m_} ~ {r_} {q_}")
                except _SwapUnavailable:
                    continue
                if (h_, j_, g_) != (n_, r_, q_):
                    report.hexagon_failures.append(
                        HexagonFailure(
                            (a.name, b.name, c.name),
                            (h_, j_, g_),
                            (n_, r_, q_),
                            tuple(steps1),
                            tuple(steps2),
                        )
                    )


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

    @cached_property
    def _swap_map(self) -> Mapping[Side, Side]:
        return {side: partners[0] for side, partners in self.squares.partner_table.items()}

    # -- paths ---------------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        if not self.skeleton.has_vertex(v):
            raise StructureError(f"unknown vertex {v!r}")
        return Path((), v, v, Degree.zero(self.k))

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
        degree = Degree.zero(self.k)
        for e in edges:
            degree = degree + Degree.basis(self.k, e.color)
        return Path(tuple(edge_names), edges[0].source, edges[-1].range, degree)

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
        return Path(right.edges + left.edges, right.source, left.range, right.degree + left.degree)

    # -- squares and normal forms ---------------------------------------------

    def swap(self, outer: str, inner: str) -> Side:
        """The unique square partner of the 2-path ``outer∘inner``."""
        eo, ei = self.skeleton.edge(outer), self.skeleton.edge(inner)
        if eo.color == ei.color:
            raise StructureError(f"swap needs a bicolored 2-path, both edges have color {eo.color}")
        if eo.source != ei.range:
            raise StructureError(f"{outer} after {inner} is not a path")
        return self._swap_map[(outer, inner)]

    @cached_property
    def _nf_cache(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return {}

    def normal_form(self, path: Path) -> Path:
        """The equivalent path whose color word ascends in traversal order."""
        if path.is_vertex or len(path.edges) == 1:
            return path
        cached = self._nf_cache.get(path.edges)
        if cached is not None:
            return Path(cached, path.source, path.range, path.degree)
        word = tuple(sorted(self.skeleton.edge(n).color for n in path.edges))
        edges = self._rearrange_edges(path.edges, word)
        self._nf_cache[path.edges] = edges
        return Path(edges, path.source, path.range, path.degree)

    def rearrange(self, path: Path, colors: Sequence[int]) -> Path:
        """The equivalent path realizing the given traversal color word."""
        have = sorted(self.skeleton.edge(n).color for n in path.edges)
        if sorted(colors) != have:
            raise ValueError(f"color word {tuple(colors)} does not match degree {path.degree}")
        edges = self._rearrange_edges(path.edges, tuple(colors))
        return Path(edges, path.source, path.range, path.degree)

    def _rearrange_edges(self, edges: tuple[str, ...], word: tuple[int, ...]) -> tuple[str, ...]:
        out = list(edges)
        color = self.skeleton.edge_map
        for pos, target in enumerate(word):
            at = pos
            while color[out[at]].color != target:
                at += 1
            # bubble the edge left; every neighbor passed has a different color
            while at > pos:
                first, second = out[at - 1], out[at]
                swapped_outer, swapped_inner = self._swap_map[(second, first)]
                out[at - 1], out[at] = swapped_inner, swapped_outer
                at -= 1
        return tuple(out)

    def factor(self, path: Path, source_degree: Degree) -> tuple[Path, Path]:
        """Split as ``head∘tail`` with ``tail`` traversed first at the given degree.

        Both parts come back in normal form; uniqueness is the factorization
        property of a validated graph.
        """
        if not path.degree.dominates(source_degree):
            raise ValueError(f"cannot factor degree {path.degree} with first part {source_degree}")
        head_degree = path.degree - source_degree
        word = tuple(sorted(
            c for c in range(1, self.k + 1) for _ in range(source_degree.components[c - 1])
        )) + tuple(sorted(
            c for c in range(1, self.k + 1) for _ in range(head_degree.components[c - 1])
        ))
        arranged = self._rearrange_edges(path.edges, word)
        cut = source_degree.total
        tail_edges, head_edges = arranged[:cut], arranged[cut:]
        mid = path.source if not tail_edges else self.skeleton.edge(tail_edges[-1]).range
        tail = self.normal_form(Path(tail_edges, path.source, mid, source_degree))
        head = self.normal_form(Path(head_edges, mid, path.range, head_degree))
        return head, tail

    # -- enumeration -----------------------------------------------------------

    @cached_property
    def _range_cache(self) -> dict[tuple[str, Degree], tuple[Path, ...]]:
        return {}

    def paths_with_range(self, v: str, degree: Degree) -> tuple[Path, ...]:
        """All normal-form paths of the degree with range ``v``, sorted."""
        if not self.skeleton.has_vertex(v):
            raise StructureError(f"unknown vertex {v!r}")
        if degree.k != self.k:
            raise ValueError(f"degree {degree} has wrong rank for a {self.k}-graph")
        return self._paths_with_range(v, degree)

    def _paths_with_range(self, v: str, degree: Degree) -> tuple[Path, ...]:
        key = (v, degree)
        hit = self._range_cache.get(key)
        if hit is not None:
            return hit
        if degree.total == 0:
            result: tuple[Path, ...] = (self.vertex_path(v),)
        else:
            # normal forms place the largest color last, i.e. at the range end
            color = max(c for c in range(1, self.k + 1) if degree.components[c - 1] > 0)
            rest = degree - Degree.basis(self.k, color)
            found = []
            for e in self.skeleton.edges_into(v, color):
                for stem in self._paths_with_range(e.source, rest):
                    found.append(
                        Path(stem.edges + (e.name,), stem.source, v, degree)
                    )
            result = tuple(sorted(found, key=lambda p: p.edges))
        self._range_cache[key] = result
        return result

    def rainbow_paths_into(self, v: str) -> tuple[Path, ...]:
        return self.paths_with_range(v, Degree.ones(self.k))

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
        graph = build_kgraph(factors[0], SquareSet(()))
        return graph

    def vname(coords: tuple[str, ...]) -> str:
        return "|".join(coords)

    def ename(i: int, edge: Edge, coords: tuple[str, ...]) -> str:
        others = coords[:i] + coords[i + 1 :]
        return f"{edge.name}~{i + 1}|{'|'.join(others)}"

    coords_iter = list(itertools.product(*[f.vertices for f in factors]))
    vertices = [vname(c) for c in coords_iter]
    edges = []
    for i, factor in enumerate(factors):
        for edge in factor.edges:
            for coords in coords_iter:
                if coords[i] != edge.source:
                    continue
                target = coords[:i] + (edge.range,) + coords[i + 1 :]
                edges.append(
                    Edge(ename(i, edge, coords), i + 1, vname(coords), vname(target))
                )
    pairs = []
    for i, j in itertools.combinations(range(k), 2):
        for ei in factors[i].edges:
            for ej in factors[j].edges:
                other_axes = [x for x in range(k) if x not in (i, j)]
                for rest in itertools.product(*[factors[x].vertices for x in other_axes]):
                    coords = [""] * k
                    for axis, val in zip(other_axes, rest):
                        coords[axis] = val
                    def at(ci: str, cj: str) -> tuple[str, ...]:
                        c = list(coords)
                        c[i], c[j] = ci, cj
                        return tuple(c)
                    # side 1: move factor j first, then factor i
                    side1 = (
                        ename(i, ei, at(ei.source, ej.range)),
                        ename(j, ej, at(ei.source, ej.source)),
                    )
                    # side 2: move factor i first, then factor j
                    side2 = (
                        ename(j, ej, at(ei.range, ej.source)),
                        ename(i, ei, at(ei.source, ej.source)),
                    )
                    pairs.append((side1, side2))
    skeleton = Skeleton.create(k, vertices, edges)
    return build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
