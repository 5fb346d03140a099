"""Exact symbolic Kumjian-Pask algebra over a finite source-free k-graph.

Elements are finite linear combinations of spanning terms ``t_λ t_μ*`` with
``s(λ) = s(μ)`` and integer coefficients.  The ``KPElement`` constructor
owns the fresh dict each caller builds for it and is the one place that
drops zero coefficients, copying the dict only when one is 0.  The algebra
is defined over any commutative ring, and every identity checked here has
integer coefficients, so the integers serve.  The algebra context numbers
each normal-form path once (``paths``, ``intern``) and a term is a pair of
those ids, local to the context, so the engine hashes small ints;
``terms()`` decodes them to ``BasisTerm`` named tuples for output.
Multiplication expands the middle product by one rule for every pair of
degrees: ``t_μ* t_ν = Σ t_α t_β*`` over the minimal common extensions of
``μ`` and ``ν`` (the pairs ``(α, β)`` with ``μα = νβ`` at degree
``d(μ) ∨ d(ν)``), which is the defining relation calculus for row-finite
source-free graphs.
By unique factorization each such ``(α, β)`` is found by extending ``μ``
by every ``α`` of degree ``(d(μ) ∨ d(ν)) − d(μ)`` and factoring ``μα`` at
``d(ν)`` into ``head·β``: it is an extension exactly when ``head = ν``.
The context caches those rows per ``(μ, d(ν))``, so a product is a hash join
of the rows' heads against the right operand's left paths; the id of an
extension ``λα`` is ``intern`` of ``KGraph.extend``, whose normal forms the
graph caches by edge tuple.  ``KumjianPask.products`` joins a group of left
elements against a group of right ones: it indexes the rights once, and each
left term reads its rows and extends each ``α`` once for the whole group;
``a.products(bs)`` and ``*`` are its one-row cases.  ``KumjianPask.sum``
accumulates every sum, ``+`` included, in one term map.  When
``d(ν) ≤ d(μ)`` the only ``α`` is the vertex ``s(μ)``, and when
``d(ν) ≥ d(μ)`` every ``β`` is the vertex ``s(ν)``.  The context interns
the vertex paths first, as ids ``0..|V|−1``, so extending a path by a
vertex, or a vertex by a path, is an id comparison and stores nothing.  Two kinds of row are read off without factoring: at
``d(ν) = 0`` the one row of ``μ`` is ``(s(μ), r(μ), μ)``, and at a vertex
``μ`` the rows are ``(α, α, s(α))``.

The spanning terms are not linearly independent: summing ``t_λ t_λ*`` over
all ``λ`` of one degree at a vertex collapses to the vertex idempotent.
Equality therefore refines both sides to a common degree per graded
component before comparing coefficients: ``t_λ t_μ*`` equals the sum of
``t_λα t_(μα)*`` over all ``α`` of any fixed degree out of ``s(λ)``, and at
a uniform degree distinct refined terms really are independent (they are
indicator functions of disjoint nonempty cylinders of the path groupoid).
Refining ``λ`` by every ``α`` of degree ``g`` is the head column of
``extensions(λ, d(λ) + g)``, since at a degree that dominates ``d(λ)`` every
``β`` is the vertex ``s(α)``; ``KumjianPask.refine`` is that one loop, so
products, the zero test and ``==`` share one table.  ``==`` takes three
steps: equal term maps are equal; else the side whose first term has the
lower left degree is refined to the class ``(d(left), d(right))`` of the
other side's first term, and equal maps then are equal, because refinement
is an identity in the algebra; else (a term that class does not dominate,
another graded component, or maps that still differ) the zero test decides
the difference, so every ``False`` is its answer.  The zero test sorts terms
into classes by ``(d(left), d(right))`` and computes the common degree once
per graded component.  A term already at the common degree is its own
refinement and enumerates nothing.
Source-freeness keeps those cylinders nonempty, so the algebra context
refuses graphs with sources.

The second half of the module verifies the algebraic consequences of an
outsplit: the induced family over the split graph (vertex generators map
to first-copy idempotents, path generators to sums over rainbow
extensions), its defining relations, the swap identities that move between
copies, preservation of the diagonal, the corner determined by first
copies, and the grading.  No ``kp-verify`` sweep calls :func:`saturation`:
that the first-copy vertex set saturates to the whole split is checked by
``kgraphs saturate`` and the tests, and ROADMAP item 1 would add it to a
certificate.  The family is built for any split; only the swap identities
need pairing.  One :class:`SplitEmbedding` serves all sweeps of a
verification run: its algebra context, path images and rainbow lifts (id
pairs ``(f^j, f¹)`` per vertex and copy ``j``, lifted once) depend only on
the immutable split, so sharing them changes no answer and builds each
table once per run.  A sweep runs thousands of checks, and each names
itself by a template and its parts, which are formatted only when the check
fails: a passing sweep writes out no path and no degree.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .skeleton import (Degree, KGraph, KGraphError, Path, StructureError, UsageError,
                       degrees_with_total, difference, factor, format_degree, join)
from .splitting import SplitResult, copy_path, parent_path


class BasisTerm(NamedTuple):
    """Spanning term ``t_left · t_right*``; both paths share their source."""

    left: Path
    right: Path

    def __str__(self) -> str:
        if self.left.is_vertex and self.right.is_vertex:
            return f"p[{self.left.source}]"
        if self.right.is_vertex:
            return f"t[{self.left}]"
        if self.left.is_vertex:
            return f"t*[{self.right}]"
        return f"t[{self.left}]t*[{self.right}]"


def _exact(coeff: int) -> int:
    if not isinstance(coeff, int):
        raise TypeError(f"coefficients are exact integers, not {type(coeff).__name__}")
    return coeff


def _check_context(algebra: "KumjianPask", element: "KPElement") -> None:
    if element.algebra is not algebra:
        raise UsageError("operands belong to different algebra contexts")


class KumjianPask:
    """Algebra context: path table (``paths``, ``intern``), ``extensions`` rows, term constructors."""

    def __init__(self, graph: KGraph):
        free = graph.is_source_free()
        if not free.ok:
            v, c = free.witnesses[0]
            raise KGraphError(f"the Kumjian-Pask calculus needs a source-free graph; "
                              f"vertex {v!r} receives no edge of color {c}")
        self.graph = graph
        self.paths: list[Path] = []
        self._ids: dict[Path, int] = {}
        self._vertex = {v: self.intern(graph.vertex_path(v)) for v in graph.vertices}
        self._vertex_ids = len(self.paths)
        self._extensions: dict[tuple[int, Degree], tuple[tuple[int, int, int], ...]] = {}

    def intern(self, path: Path) -> int:
        """The id of ``path``, which must be a normal form."""
        i = self._ids.get(path)
        if i is None:
            i = self._ids[path] = len(self.paths)
            self.paths.append(path)
        return i

    def extend(self, i: int, alpha: int) -> int:
        """The id of the normal form of ``paths[i]·paths[alpha]``.

        ``paths[alpha]`` must end at the source of ``paths[i]``, which every
        caller guarantees; then a vertex ``alpha`` (an id below ``|V|``) gives
        ``i`` itself and a vertex ``i`` gives ``alpha``, and otherwise the
        graph's normal-form cache and ``intern`` answer.
        """
        if alpha < self._vertex_ids:
            return i
        if i < self._vertex_ids:
            return alpha
        return self.intern(self.graph.extend(self.paths[i], self.paths[alpha]))

    def zero(self) -> "KPElement":
        return KPElement(self, {})

    def sum(self, elements: Iterable["KPElement"]) -> "KPElement":
        """The sum of ``elements``, accumulated in one term map."""
        out: dict[tuple[int, int], int] = {}
        for element in elements:
            _check_context(self, element)
            for t, c in element._terms.items():
                out[t] = out.get(t, 0) + c
        return KPElement(self, out)

    def products(self, lefts: Iterable["KPElement"],
                 rights: Iterable["KPElement"]) -> Iterator[list["KPElement"]]:
        """The rows ``[a * b for b in rights]`` for ``a`` in ``lefts``, joined against one index.

        The index maps each degree and left path id of a right term to the
        rows ``(column, right path id, coefficient)``; it is built once per
        call, so each left term reads its ``extensions`` rows and extends
        each ``α`` once for the whole right group.  A row is computed when
        it is read, so a caller that reads them one at a time holds one; the
        rights' contexts are checked at the call, a left's when its row is
        read.
        """
        paths, extend, extensions = self.paths, self.extend, self.extensions
        index: dict[Degree, dict[int, list[tuple[int, int, int]]]] = {}
        rights = list(rights)
        for column, other in enumerate(rights):
            _check_context(self, other)
            for (left, right), c in other._terms.items():
                d = paths[left].degree
                by_path = index.get(d)
                if by_path is None:
                    by_path = index[d] = {}
                rows = by_path.get(left)
                if rows is None:
                    by_path[left] = [(column, right, c)]
                else:
                    rows.append((column, right, c))

        def row(element: KPElement) -> list[KPElement]:
            _check_context(self, element)
            outs: list[dict[tuple[int, int], int]] = [{} for _ in rights]
            for (left1, right1), c1 in element._terms.items():
                for d, by_path in index.items():
                    # t_μ* t_ν = Σ t_α t_β* over the rows of extensions(μ, d(ν)) headed by ν
                    for alpha, head, beta in extensions(right1, d):
                        rows = by_path.get(head)
                        if rows is None:
                            continue
                        left = extend(left1, alpha)
                        for column, right, c2 in rows:
                            out = outs[column]
                            key = (left, extend(right, beta))
                            out[key] = out.get(key, 0) + c1 * c2
            return [KPElement(self, out) for out in outs]

        return map(row, lefts)

    def term(self, left: Path, right: Path, coeff: int = 1) -> "KPElement":
        left = self.graph.normal_form(left)
        right = self.graph.normal_form(right)
        if left.source != right.source:
            raise UsageError(
                f"term has mismatched sources: {left} ends at {left.source}, "
                f"{right} at {right.source}"
            )
        return KPElement(self, {(self.intern(left), self.intern(right)): _exact(coeff)})

    def vertex(self, v: str) -> "KPElement":
        p = self.graph.vertex_path(v)
        return self.term(p, p)

    def path(self, p: Path) -> "KPElement":
        return self.term(p, self.graph.vertex_path(p.source))

    def ghost(self, p: Path) -> "KPElement":
        return self.term(self.graph.vertex_path(p.source), p)

    def refine(self, terms: Iterable[tuple[tuple[int, int], int]], left_degree: Degree,
               right_degree: Degree, out: dict[tuple[int, int], int]) -> None:
        """Add each term ``((λ, μ), c)``, refined to ``(left_degree, right_degree)``, into ``out``.

        The degrees must exceed ``(d(λ), d(μ))`` by one ``g``: then both
        ``extensions`` rows run over the ``α`` of degree ``g`` in one order.
        """
        extensions = self.extensions
        for (left, right), c in terms:
            for row, other in zip(extensions(left, left_degree), extensions(right, right_degree)):
                key = (row[1], other[1])
                out[key] = out.get(key, 0) + c

    def extensions(self, mu: int, d: Degree) -> tuple[tuple[int, int, int], ...]:
        """The id rows ``(α, head, β)`` with ``μα = head·β`` and ``d(head) = d``, cached.

        ``α`` runs over the paths of degree ``(d(μ) ∨ d) − d(μ)`` into
        ``s(μ)``, in sorted order, and ``head`` and ``β`` are normal forms.
        By unique factorization ``t_μ* t_ν`` is the sum of ``t_α t_β*`` over
        the rows whose head is ``ν``.  At ``d = 0`` and at a vertex ``μ`` the
        rows are written from ids, without factoring.
        """
        key = (mu, d)
        rows = self._extensions.get(key)
        if rows is None:
            graph, intern, path, vertex = self.graph, self.intern, self.paths[mu], self._vertex
            if not any(d):
                rows = ((vertex[path.source], vertex[path.range], mu),)
            elif mu < self._vertex_ids:
                rows = tuple((a, a, vertex[self.paths[a].source])
                             for a in map(intern, graph._paths_with_range(path.source, d)))
            else:
                top = join(path.degree, d)
                tail_degree = difference(top, d)
                rows = tuple(
                    (intern(alpha), *map(intern, factor(graph, graph.compose(path, alpha), tail_degree)))
                    for alpha in graph._paths_with_range(path.source, difference(top, path.degree)))
            self._extensions[key] = rows
        return rows

    def minimal_common_extensions(self, mu: Path, nu: Path) -> tuple[tuple[Path, Path], ...]:
        """All ``(α, β)`` with ``μα = νβ`` of degree ``d(μ) ∨ d(ν)``, sorted.

        These are the rows of ``extensions(μ, d(ν))`` headed by ``ν``; each
        ``α`` gives at most one row, so the rows' order sorts the pairs.
        """
        if mu.range != nu.range:
            return ()
        mu, nu = self.intern(self.graph.normal_form(mu)), self.graph.normal_form(nu)
        head, paths = self.intern(nu), self.paths
        return tuple((paths[alpha], paths[beta]) for alpha, h, beta in self.extensions(mu, nu.degree)
                     if h == head)


class KPElement:
    """Immutable finite linear combination of spanning terms.

    A term is a pair of ids in the context's path table, so both paths are
    normal forms: ``KumjianPask.term`` interns normal forms, and ``*`` and
    ``adjoint`` only build terms from ids.  The constructor owns ``terms``,
    a fresh dict no one else holds, and is the only place that drops zero
    coefficients; it copies the dict only when a coefficient is 0.  ``*``
    multiplies two elements of one context and :meth:`products` one element
    by each of a group, both through :meth:`KumjianPask.products`;
    :meth:`scale` multiplies by an integer.  ``==`` is equality in the
    algebra: equal term maps; else, if refining the coarser side to the
    class of the other's first term (an identity) gives the other's map;
    else :meth:`is_zero` of the difference, which gives every ``False``.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: KumjianPask, terms: dict[tuple[int, int], int]):
        self.algebra = algebra
        self._terms = {t: c for t, c in terms.items() if c} if 0 in terms.values() else terms

    def terms(self) -> tuple[tuple[BasisTerm, int], ...]:
        paths = self.algebra.paths
        return tuple(sorted((BasisTerm(paths[left], paths[right]), c)
                            for (left, right), c in self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "KPElement") -> "KPElement":
        return self.algebra.sum((self, other))

    def __neg__(self) -> "KPElement":
        return self.scale(-1)

    def __sub__(self, other: "KPElement") -> "KPElement":
        return self + (-other)

    def scale(self, factor: int) -> "KPElement":
        _exact(factor)
        return KPElement(self.algebra, {t: x * factor for t, x in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, KPElement):
            return NotImplemented
        return next(self.algebra.products((self,), (other,)))[0]

    def products(self, others: Iterable["KPElement"]) -> list["KPElement"]:
        """``[self * o for o in others]``, the one-row case of :meth:`KumjianPask.products`."""
        return next(self.algebra.products((self,), others))

    def adjoint(self) -> "KPElement":
        return KPElement(self.algebra, {(right, left): c for (left, right), c in self._terms.items()})

    def graded_components(self) -> dict[tuple[int, ...], "KPElement"]:
        """Split by ``d(left) - d(right)``; the parts sum back to the element."""
        paths = self.algebra.paths
        parts: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for t, c in self._terms.items():
            parts.setdefault(difference(paths[t[0]].degree, paths[t[1]].degree), {})[t] = c
        return {n: KPElement(self.algebra, terms) for n, terms in sorted(parts.items())}

    def is_zero(self) -> bool:
        """Exact zero test by refinement to a common degree per component."""
        refine, paths = self.algebra.refine, self.algebra.paths
        by_class: dict[tuple[Degree, Degree], list[tuple[tuple[int, int], int]]] = {}
        for t, c in self._terms.items():
            by_class.setdefault((paths[t[0]].degree, paths[t[1]].degree), []).append((t, c))
        components: dict[tuple[int, ...], list[tuple[Degree, Degree]]] = {}
        for degrees in by_class:
            components.setdefault(difference(*degrees), []).append(degrees)
        for n, classes in components.items():
            target = classes[0][0]
            for left_degree, _ in classes[1:]:
                target = join(target, left_degree)
            right_target = difference(target, n)
            refined: dict[tuple[int, int], int] = {}
            for degrees in classes:
                if degrees[0] == target:
                    # a term already at the target degree is its own refinement
                    for t, c in by_class[degrees]:
                        refined[t] = refined.get(t, 0) + c
                else:
                    refine(by_class[degrees], target, right_target, refined)
            if any(refined.values()):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPElement):
            return NotImplemented
        _check_context(self.algebra, other)
        if self._terms == other._terms:
            return True
        coarse, fine = self._terms, other._terms
        if coarse and fine:
            paths, first = self.algebra.paths, next(iter(fine))
            if sum(paths[next(iter(coarse))[0]].degree) > sum(paths[first[0]].degree):
                coarse, fine, first = fine, coarse, next(iter(coarse))
            target, right_target = paths[first[0]].degree, paths[first[1]].degree
            n = difference(target, right_target)
            if all(join(paths[left].degree, target) == target
                   and difference(paths[left].degree, paths[right].degree) == n
                   for left, right in coarse):
                refined: dict[tuple[int, int], int] = {}
                self.algebra.refine(coarse.items(), target, right_target, refined)
                if refined == fine:
                    return True
        diff = dict(self._terms)
        for t, c in other._terms.items():
            diff[t] = diff.get(t, 0) - c
        return KPElement(self.algebra, diff).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for t, c in self.terms():
            if c == 1:
                pieces.append(str(t))
            else:
                pieces.append(f"({c})·{t}")
        return " + ".join(pieces)


def saturation(graph: KGraph, seeds: Iterable[str]) -> frozenset[str]:
    """Smallest vertex set containing the seeds that is hereditary and saturated.

    Heredity walks to sources of edges whose range is in the set; the
    saturation rule adds a vertex once, for some degree, it receives at
    least one path of that degree and all of them start in the set.  Basis
    degrees drive the closure to its fixed point; the all-ones degree is
    re-checked as a guard.
    """
    seen = set()
    for v in seeds:
        if not graph.skeleton.has_vertex(v):
            raise StructureError(f"unknown vertex {v!r}")
        seen.add(v)
    degrees = _kp4_degrees(graph.k, 0)
    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            if e.range in seen and e.source not in seen:
                seen.add(e.source)
                changed = True
        for v in graph.vertices:
            if v in seen:
                continue
            for n in degrees:
                paths = graph.paths_with_range(v, n)
                if paths and all(p.source in seen for p in paths):
                    seen.add(v)
                    changed = True
                    break
    return frozenset(seen)


def label_text(label: tuple) -> str:
    """The text of a check's label: its template formatted with its parts, a
    degree, the one plain tuple among them (a ``Path`` is a named tuple), as
    :func:`format_degree` writes it."""
    template, *parts = label
    return template.format(*(format_degree(p) if type(p) is tuple else p for p in parts))


@dataclass
class VerificationReport:
    """Outcome of one identity sweep: how many checks ran, which failed.

    A check's label is a ``str.format`` template followed by its parts,
    such as ``("diag {}", path)``; :func:`label_text` formats it only when
    the check fails, so a passing check formats no path and no degree.
    """

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect_equal(self, label: tuple, lhs: KPElement, rhs: KPElement) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append(f"{label_text(label)}: {lhs}  !=  {rhs}")

    def expect(self, label: tuple, condition: bool) -> None:
        self.checked += 1
        if not condition:
            self.failures.append(label_text(label))

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({len(self.failures)} failures)"
        return f"{self.name}: {state}, {self.checked} checks"


class SplitEmbedding:
    """Images of the original graph's generators inside the split algebra.

    A vertex generator maps to the idempotent of its first copy.  A path
    generator ``λ`` maps to the sum over rainbow paths ``f`` into ``s(λ)``
    of ``t_{λ¹ f^j} t_{f¹}*`` where ``j`` names the copy of ``s(λ)`` at the
    source of ``λ¹``; ghost generators map to the adjoints.  Built for every
    split, paired or not, since path copies are (:func:`copy_path`); only
    :func:`verify_swap_identities` needs a paired input.  Every
    ``SplitResult`` passed ``outsplit``'s ``validate_spec``, so it checks no
    precondition.  It keeps two tables: the path images, by path, and the
    rainbow lifts, per ``(s(λ), copy j)`` as the id pairs ``(f^j, f¹)``,
    which the swap carriers sum too.  A ghost image is the adjoint of the
    cached path image; a sweep that reuses one keeps it in a local.
    """

    def __init__(self, result: SplitResult):
        self.result = result
        self.algebra = KumjianPask(result.graph)
        self._path_cache: dict[Path, KPElement] = {}
        term, original = self.algebra.term, result.original
        self._rainbows = {
            (v, j): [next(iter(term(copy_path(result, f, j), copy_path(result, f, 1))._terms))
                     for f in original.rainbow_paths_into(v)]
            for v in original.vertices for j in range(1, result.counts[v] + 1)}

    def vertex_image(self, v: str) -> KPElement:
        return self.algebra.vertex(self.result.copy_of(v, 1))

    def path_image(self, path: Path) -> KPElement:
        if path.is_vertex:
            return self.vertex_image(path.source)
        hit = self._path_cache.get(path)
        if hit is not None:
            return hit
        alg, first = self.algebra, copy_path(self.result, path, 1)
        extend, intern, paths = alg.graph.extend, alg.intern, alg.paths
        hit = self._path_cache[path] = KPElement(alg, {
            (intern(extend(first, paths[fj])), f1): 1
            for fj, f1 in self._rainbows[path.source, self.result.copy_index[first.source]]})
        return hit

    def ghost_image(self, path: Path) -> KPElement:
        return self.path_image(path).adjoint()

    def corner_projection(self) -> KPElement:
        return self.algebra.sum(self.vertex_image(v) for v in self.result.original.vertices)


def _paths_up_to(graph: KGraph, max_total: int, include_vertices: bool = False) -> list[Path]:
    return [p for total in range(0 if include_vertices else 1, max_total + 1)
            for degree in degrees_with_total(graph.k, total)
            for v in graph.vertices for p in graph.paths_with_range(v, degree)]


def _grouped(items: Iterable, key) -> dict:
    """``items`` in lists by ``key``, each list and the keys in first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _column(rows: Iterable[list[KPElement]], i: int = 0) -> list[KPElement]:
    return [row[i] for row in rows]


def _kp4_degrees(k: int, max_total: int) -> list[Degree]:
    degrees = [tuple(int(i == c) for i in range(1, k + 1)) for c in range(1, k + 1)]
    if k > 1:
        degrees.append((1,) * k)
    for total in range(1, max_total + 1):
        for d in degrees_with_total(k, total):
            if d not in degrees:
                degrees.append(d)
    return degrees


def verify_universal_family(alg: KumjianPask) -> VerificationReport:
    """Defining relations for the universal generators of the algebra itself.

    Covers vertex orthogonality, composition with range/source idempotents,
    edge products against path generators, the ghost pairing on edges, and
    the fullness relation at every basis degree (and the all-ones degree).
    """
    graph = alg.graph
    rep = VerificationReport("universal-family")
    vertices = [alg.vertex(v) for v in graph.vertices]
    for v, p_v, row in zip(graph.vertices, vertices, alg.products(vertices, vertices)):
        for w, product in zip(graph.vertices, row):
            rep.expect_equal(("p[{}]p[{}]", v, w), product, p_v if v == w else alg.zero())
    edge_paths = {e.name: graph.make_path((e.name,)) for e in graph.edges}
    for name, p in edge_paths.items():
        t = alg.path(p)
        rep.expect_equal(("t[{}]p[s]", name), t * alg.vertex(p.source), t)
        rep.expect_equal(("p[r]t[{}]", name), alg.vertex(p.range) * t, t)
        rep.expect_equal(("t*[{0}]t[{0}]", name), alg.ghost(p) * t, alg.vertex(p.source))
    # the partners of each edge, in edge order: same degree (color) and range, or range at its source
    by_color_range = _grouped(graph.edges, lambda e: (e.color, e.range))
    by_range = _grouped(graph.edges, lambda e: e.range)
    for e in graph.edges:
        name, p = e.name, edge_paths[e.name]
        others = [f.name for f in by_color_range[e.color, e.range] if f is not e]
        products = alg.ghost(p).products([alg.path(edge_paths[other]) for other in others])
        for other, product in zip(others, products):
            rep.expect_equal(("t*[{}]t[{}]", name, other), product, alg.zero())
        others = [f.name for f in by_range.get(e.source, [])]
        products = alg.path(p).products([alg.path(edge_paths[other]) for other in others])
        for other, product in zip(others, products):
            composite = graph.compose(p, edge_paths[other])
            rep.expect_equal(("t[{}]t[{}]", name, other), product, alg.path(composite))
    for v, n in itertools.product(graph.vertices, _kp4_degrees(graph.k, 0)):
        total = alg.sum(alg.path(lam) * alg.ghost(lam) for lam in graph.paths_with_range(v, n))
        rep.expect_equal(("sum tt* over {}@{}", v, n), total, alg.vertex(v))
    return rep


def verify_family(emb: SplitEmbedding, max_len: int = 3) -> VerificationReport:
    """The induced family satisfies the defining relations over the split.

    Products and pairings run over all paths with total length up to
    ``max_len``; the fullness relation runs over basis degrees, the
    all-ones degree, and every degree within the bound.  Each kind of check
    joins a group of left operands against a group of right operands
    (:meth:`KumjianPask.products`), and the checks run in the order of a
    scan over ``paths``.
    """
    lam, alg = emb.result.original, emb.algebra
    rep = VerificationReport("kp-family")
    images_q = {v: emb.vertex_image(v) for v in lam.vertices}
    paths = _paths_up_to(lam, max_len)
    images_s = {p: emb.path_image(p) for p in paths}
    images_g = {p: emb.ghost_image(p) for p in paths}
    zero = alg.zero()

    qs = list(images_q.values())
    for v, row in zip(lam.vertices, alg.products(qs, qs)):
        for w, product in zip(lam.vertices, row):
            expected = images_q[v] if v == w else zero
            rep.expect_equal(("orthogonality q[{}]q[{}]", v, w), product, expected)

    # ``paths`` runs by length, then degree, so each degree's paths are one block
    by_degree = _grouped(paths, lambda p: p.degree)
    for group in by_degree.values():
        # q[v] joins the paths of the degree with range v, then those with source v
        q_s, g_q, s_q, q_g = {}, {}, {}, {}
        for v, ps in _grouped(group, lambda p: p.range).items():
            q_s.update(zip(ps, images_q[v].products([images_s[p] for p in ps])))
            g_q.update(zip(ps, _column(alg.products([images_g[p] for p in ps], [images_q[v]]))))
        for v, ps in _grouped(group, lambda p: p.source).items():
            s_q.update(zip(ps, _column(alg.products([images_s[p] for p in ps], [images_q[v]]))))
            q_g.update(zip(ps, images_q[v].products([images_g[p] for p in ps])))
        for p in group:
            rep.expect_equal(("unit q[r]s[{}]", p), q_s[p], images_s[p])
            rep.expect_equal(("unit s[{}]q[s]", p), s_q[p], images_s[p])
            rep.expect_equal(("unit q[s]s*[{}]", p), q_g[p], images_g[p])
            rep.expect_equal(("unit s*[{}]q[r]", p), g_q[p], images_g[p])

    # by_range follows ``paths``, so it is sorted by length and the μ short
    # enough to compose with λ are a prefix of it, one for each source and length of λ
    by_range = _grouped(paths, lambda p: p.range)
    for length, block in _grouped(paths, lambda p: len(p.edges)).items():
        partners = {}
        for v, lams in _grouped(block, lambda p: p.source).items():
            mus = by_range.get(v, [])
            mus = mus[:bisect_right(mus, max_len - length, key=lambda mu: len(mu.edges))]
            forward = alg.products([images_s[p] for p in lams], [images_s[mu] for mu in mus])
            backward = list(alg.products([images_g[mu] for mu in mus], [images_g[p] for p in lams]))
            for i, (lam_path, row) in enumerate(zip(lams, forward)):
                partners[lam_path] = zip(mus, row, _column(backward, i))
        for lam_path in block:
            for mu, product, adjoint_product in partners[lam_path]:
                # the composite is at most max_len long, so one of ``paths``
                composite = lam.normal_form(lam.compose(lam_path, mu))
                rep.expect_equal(("composition s[{}]s[{}]", lam_path, mu), product, images_s[composite])
                rep.expect_equal(("composition s*[{}]s*[{}]", mu, lam_path), adjoint_product,
                                 images_g[composite])

    for group in by_degree.values():
        rows = alg.products([images_g[a] for a in group], [images_s[b] for b in group])
        for a, row in zip(group, rows):
            for b, product in zip(group, row):
                expected = images_q[a.source] if a == b else zero
                rep.expect_equal(("ghost pairing s*[{}]s[{}]", a, b), product, expected)

    for v, n in itertools.product(lam.vertices, _kp4_degrees(lam.k, max_len)):
        # the sweep's own images within the bound; ``emb`` only for degrees beyond it
        s, g = ((images_s.__getitem__, images_g.__getitem__) if sum(n) <= max_len
                else (emb.path_image, emb.ghost_image))
        total = alg.sum(s(p) * g(p) for p in lam.paths_with_range(v, n))
        rep.expect_equal(("fullness {}@{}", v, n), total, images_q[v])
    return rep


def verify_swap_identities(emb: SplitEmbedding) -> VerificationReport:
    """Moving between copies: rainbow sums carry first copies to j-th copies.

    For every edge ``x`` and copy index ``j``, the sum over rainbow paths
    ``f`` into ``r(x)`` of ``t_{f^j} t_{f¹}*`` times ``t_{x¹}`` equals
    ``t_{x^j}``, and the adjoint identity carries the ghosts.  Only these
    identities need a paired input; on an unpaired split they can fail.
    """
    result = emb.result
    alg = emb.algebra
    lam = result.original
    rep = VerificationReport("swap-identities")
    for e in lam.edges:
        x = lam.make_path((e.name,))
        for j in range(1, result.counts[e.range] + 1):
            carrier = KPElement(alg, dict.fromkeys(emb._rainbows[e.range, j], 1))
            x_1 = alg.path(copy_path(result, x, 1))
            x_j = alg.path(copy_path(result, x, j))
            rep.expect_equal(("carry t[{}] to copy {}", e.name, j), carrier * x_1, x_j)
            rep.expect_equal(
                ("carry t*[{}] to copy {}", e.name, j),
                x_1.adjoint() * carrier.adjoint(),
                x_j.adjoint(),
            )
    return rep


def verify_diagonal(emb: SplitEmbedding, max_len: int = 3) -> VerificationReport:
    """Diagonal terms map to single diagonal terms of the first copy."""
    result = emb.result
    rep = VerificationReport("diagonal")
    for p in _paths_up_to(result.original, max_len, include_vertices=True):
        image = emb.path_image(p) * emb.ghost_image(p)
        first = copy_path(result, p, 1)
        rep.expect_equal(("diag {}", p), image, emb.algebra.term(first, first))
    return rep


def verify_corner(emb: SplitEmbedding, max_len: int = 2) -> VerificationReport:
    """The first-copy corner absorbs the image and is exactly reached.

    Checks that the corner projection is a self-adjoint idempotent fixing
    every generator image, and that every corner term ``t_γ t_δ*`` with
    ranges at first copies and a common source is the image of the parents'
    generator product.
    """
    result = emb.result
    alg = emb.algebra
    rep = VerificationReport("corner")
    box = emb.corner_projection()
    checks = [(("P q[{}] P", v), emb.vertex_image(v)) for v in result.original.vertices]
    for e in result.original.edges:
        s = emb.path_image(result.original.make_path((e.name,)))
        checks += [(("P s[{}] P", e.name), s), (("P s*[{}] P", e.name), s.adjoint())]
    # P × [P, x…], then [P·x…] × P
    box_box, *box_xs = box.products([box, *(x for _, x in checks)])
    rep.expect_equal(("P·P",), box_box, box)
    rep.expect_equal(("P*",), box.adjoint(), box)
    for (label, x), product in zip(checks, _column(alg.products(box_xs, [box]))):
        rep.expect_equal(label, product, x)

    corner_paths: list[Path] = []
    gamma = result.graph
    for v in result.original.vertices:
        top = result.copy_of(v, 1)
        corner_paths.append(gamma.vertex_path(top))
        for total in range(1, max_len + 1):
            for degree in degrees_with_total(gamma.k, total):
                corner_paths.extend(gamma.paths_with_range(top, degree))
    for group in _grouped(corner_paths, lambda p: p.source).values():
        images = [emb.path_image(parent_path(result, p)) for p in group]
        rows = alg.products(images, [image.adjoint() for image in images])
        # the group's paths are normal forms with one source, so each term is a pair of ids
        ids = [alg.intern(p) for p in group]
        for a, i, row in zip(group, ids, rows):
            for b, j, product in zip(group, ids, row):
                rep.expect_equal(("corner t[{}]t*[{}]", a, b), KPElement(alg, {(i, j): 1}), product)
    return rep


def verify_grading(emb: SplitEmbedding, max_len: int = 3) -> VerificationReport:
    """Generator images are homogeneous of their parent's degree and nonzero."""
    lam = emb.result.original
    rep = VerificationReport("grading")
    zero_diff = (0,) * lam.k
    for v in lam.vertices:
        q = emb.vertex_image(v)
        rep.expect(("q[{}] nonzero", v), not q.is_zero())
        rep.expect(("q[{}] homogeneous", v), set(q.graded_components()) == {zero_diff})
    for p in _paths_up_to(lam, max_len):
        image = emb.path_image(p)
        rep.expect(("s[{}] homogeneous of {}", p, p.degree), set(image.graded_components()) == {p.degree})
        ghost = emb.ghost_image(p)
        neg = tuple(-x for x in p.degree)
        rep.expect(("s*[{}] homogeneous of -{}", p, p.degree), set(ghost.graded_components()) == {neg})
    return rep
