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
graph caches by edge tuple.  A fixed left element joins a whole group of
right operands at once (``products``), reading each row and extending each
``α`` once for the group, and ``KumjianPask.sum`` accumulates every sum,
``+`` included, in one term map.  When ``d(ν) ≤ d(μ)`` the only ``α`` is the
vertex ``s(μ)``, and when ``d(ν) ≥ d(μ)`` every ``β`` is the vertex
``s(ν)``.  The context interns the vertex paths first, as ids ``0..|V|−1``,
so extending a path by a vertex, or a vertex by a path, is an id comparison
and stores nothing.  Two kinds of row are read off without factoring: at
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
``β`` is the vertex ``s(α)``; so products and the zero test share one table.
The zero test sorts terms into classes by ``(d(left), d(right))`` and
computes the common degree once per graded component.  A term already at
the common degree is its own refinement and enumerates nothing.
Source-freeness keeps those cylinders nonempty, so the algebra context
refuses graphs with sources.

The second half of the module verifies the algebraic consequences of an
outsplit: the induced family over the split graph (vertex generators map
to first-copy idempotents, path generators to sums over rainbow
extensions), its defining relations, the swap identities that move between
copies, preservation of the diagonal, the corner determined by first
copies, the grading, and the saturation of the first-copy vertex set.  The
family is built for any split; only the swap identities need pairing.  One
:class:`SplitEmbedding` serves all sweeps of a verification run: its
algebra context, path images and rainbow lifts (id pairs ``(f^j, f¹)``
per vertex and copy ``j``, lifted once) depend only on the immutable split,
so sharing them changes no answer and builds each table once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .skeleton import (Degree, KGraph, KGraphError, Path, StructureError, degrees_with_total,
                       difference, factor, format_degree, join)
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
        raise ValueError("operands belong to different algebra contexts")


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

    def term(self, left: Path, right: Path, coeff: int = 1) -> "KPElement":
        left = self.graph.normal_form(left)
        right = self.graph.normal_form(right)
        if left.source != right.source:
            raise ValueError(
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
    multiplies two elements of one context, :meth:`products` one element by
    each of a group, :meth:`scale` by an integer.  ``==`` is equality in the
    algebra: a fast term-map comparison first, then a refinement of the
    difference to a common degree.
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
        return self.products((other,))[0]

    def products(self, others: Iterable["KPElement"]) -> list["KPElement"]:
        """``[self * o for o in others]`` from one hash join over all the operands."""
        alg = self.algebra
        paths, extend = alg.paths, alg.extend
        # every operand's terms by degree and path on the left, each row naming its output
        groups: dict[Degree, dict[int, list[tuple[dict[tuple[int, int], int], int, int]]]] = {}
        outs: list[dict[tuple[int, int], int]] = []
        for other in others:
            _check_context(alg, other)
            out: dict[tuple[int, int], int] = {}
            outs.append(out)
            for (left, right), c in other._terms.items():
                groups.setdefault(paths[left].degree, {}).setdefault(left, []).append((out, right, c))
        for (left1, right1), c1 in self._terms.items():
            for d, by_path in groups.items():
                # t_μ* t_ν = Σ t_α t_β* over the rows of extensions(μ, d(ν)) headed by ν
                for alpha, head, beta in alg.extensions(right1, d):
                    rows = by_path.get(head)
                    if rows is None:
                        continue
                    left = extend(left1, alpha)
                    for out, right, c2 in rows:
                        key = (left, extend(right, beta))
                        out[key] = out.get(key, 0) + c1 * c2
        return [KPElement(alg, out) for out in outs]

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
        extensions, paths = self.algebra.extensions, self.algebra.paths
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
                    continue
                for (left, right), c in by_class[degrees]:
                    # both rows run over the same α into s(left) = s(right)
                    for row, other in zip(extensions(left, target), extensions(right, right_target)):
                        key = (row[1], other[1])
                        refined[key] = refined.get(key, 0) + c
            if any(refined.values()):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPElement):
            return NotImplemented
        _check_context(self.algebra, other)
        if self._terms == other._terms:
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


@dataclass
class VerificationReport:
    """Outcome of one identity sweep: how many checks ran, which failed."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect_equal(self, label: str, lhs: KPElement, rhs: KPElement) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append(f"{label}: {lhs}  !=  {rhs}")

    def expect(self, label: str, condition: bool) -> None:
        self.checked += 1
        if not condition:
            self.failures.append(label)

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
    for v in graph.vertices:
        for w in graph.vertices:
            expected = alg.vertex(v) if v == w else alg.zero()
            rep.expect_equal(f"p[{v}]p[{w}]", alg.vertex(v) * alg.vertex(w), expected)
    edge_paths = {e.name: graph.make_path((e.name,)) for e in graph.edges}
    for name, p in edge_paths.items():
        t = alg.path(p)
        rep.expect_equal(f"t[{name}]p[s]", t * alg.vertex(p.source), t)
        rep.expect_equal(f"p[r]t[{name}]", alg.vertex(p.range) * t, t)
        rep.expect_equal(f"t*[{name}]t[{name}]", alg.ghost(p) * t, alg.vertex(p.source))
    for name, p in edge_paths.items():
        for other, q in edge_paths.items():
            if name == other or p.degree != q.degree or p.range != q.range:
                continue
            rep.expect_equal(f"t*[{name}]t[{other}]", alg.ghost(p) * alg.path(q), alg.zero())
        for other, q in edge_paths.items():
            if q.range == p.source:
                composite = graph.compose(p, q)
                rep.expect_equal(
                    f"t[{name}]t[{other}]", alg.path(p) * alg.path(q), alg.path(composite)
                )
    for v in graph.vertices:
        for n in _kp4_degrees(graph.k, 0):
            total = alg.sum(alg.path(lam) * alg.ghost(lam) for lam in graph.paths_with_range(v, n))
            rep.expect_equal(f"sum tt* over {v}@{format_degree(n)}", total, alg.vertex(v))
    return rep


def verify_family(emb: SplitEmbedding, max_paths: int = 3) -> VerificationReport:
    """The induced family satisfies the defining relations over the split.

    Products and pairings run over all paths with total length up to
    ``max_paths``; the fullness relation runs over basis degrees, the
    all-ones degree, and every degree within the bound.
    """
    lam = emb.result.original
    rep = VerificationReport("kp-family")
    images_q = {v: emb.vertex_image(v) for v in lam.vertices}
    paths = _paths_up_to(lam, max_paths)
    images_s = {p: emb.path_image(p) for p in paths}
    images_g = {p: emb.ghost_image(p) for p in paths}
    zero = emb.algebra.zero()

    for v in lam.vertices:
        for w in lam.vertices:
            expected = images_q[v] if v == w else zero
            rep.expect_equal(f"orthogonality q[{v}]q[{w}]", images_q[v] * images_q[w], expected)

    for p in paths:
        rep.expect_equal(f"unit q[r]s[{p}]", images_q[p.range] * images_s[p], images_s[p])
        rep.expect_equal(f"unit s[{p}]q[s]", images_s[p] * images_q[p.source], images_s[p])
        rep.expect_equal(f"unit q[s]s*[{p}]", images_q[p.source] * images_g[p], images_g[p])
        rep.expect_equal(f"unit s*[{p}]q[r]", images_g[p] * images_q[p.range], images_g[p])

    by_range: dict[str, list[Path]] = {}
    by_degree: dict[Degree, list[Path]] = {}
    for p in paths:
        by_range.setdefault(p.range, []).append(p)
        by_degree.setdefault(p.degree, []).append(p)
    for lam_path in paths:
        mus = [mu for mu in by_range.get(lam_path.source, ())
               if len(lam_path.edges) + len(mu.edges) <= max_paths]
        products = images_s[lam_path].products([images_s[mu] for mu in mus])
        for mu, product in zip(mus, products):
            # the composite is at most max_paths long, so one of ``paths``
            composite = lam.normal_form(lam.compose(lam_path, mu))
            rep.expect_equal(f"composition s[{lam_path}]s[{mu}]", product, images_s[composite])
            rep.expect_equal(
                f"composition s*[{mu}]s*[{lam_path}]",
                images_g[mu] * images_g[lam_path],
                images_g[composite],
            )

    for group in by_degree.values():
        group_s = [images_s[b] for b in group]
        for a in group:
            for b, product in zip(group, images_g[a].products(group_s)):
                expected = images_q[a.source] if a == b else zero
                rep.expect_equal(f"ghost pairing s*[{a}]s[{b}]", product, expected)

    for v in lam.vertices:
        for n in _kp4_degrees(lam.k, max_paths):
            total = emb.algebra.sum(emb.path_image(p) * emb.ghost_image(p)
                                    for p in lam.paths_with_range(v, n))
            rep.expect_equal(f"fullness {v}@{format_degree(n)}", total, images_q[v])
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
            rep.expect_equal(f"carry t[{e.name}] to copy {j}", carrier * x_1, x_j)
            rep.expect_equal(
                f"carry t*[{e.name}] to copy {j}",
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
        rep.expect_equal(f"diag {p}", image, emb.algebra.term(first, first))
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
    rep.expect_equal("P·P", box * box, box)
    rep.expect_equal("P*", box.adjoint(), box)
    for v in result.original.vertices:
        q = emb.vertex_image(v)
        rep.expect_equal(f"P q[{v}] P", box * q * box, q)
    for e in result.original.edges:
        s = emb.path_image(result.original.make_path((e.name,)))
        rep.expect_equal(f"P s[{e.name}] P", box * s * box, s)
        rep.expect_equal(f"P s*[{e.name}] P", box * s.adjoint() * box, s.adjoint())

    corner_paths: list[Path] = []
    gamma = result.graph
    for v in result.original.vertices:
        top = result.copy_of(v, 1)
        corner_paths.append(gamma.vertex_path(top))
        for total in range(1, max_len + 1):
            for degree in degrees_with_total(gamma.k, total):
                corner_paths.extend(gamma.paths_with_range(top, degree))
    by_source: dict[str, list[Path]] = {}
    for p in corner_paths:
        by_source.setdefault(p.source, []).append(p)
    for group in by_source.values():
        parents = [parent_path(result, p) for p in group]
        images = [emb.path_image(p) for p in parents]
        ghosts = [image.adjoint() for image in images]
        for a, image in zip(group, images):
            for b, product in zip(group, image.products(ghosts)):
                rep.expect_equal(f"corner t[{a}]t*[{b}]", alg.term(a, b), product)
    return rep


def verify_grading(emb: SplitEmbedding, max_len: int = 3) -> VerificationReport:
    """Generator images are homogeneous of their parent's degree and nonzero."""
    lam = emb.result.original
    rep = VerificationReport("grading")
    zero_diff = (0,) * lam.k
    for v in lam.vertices:
        q = emb.vertex_image(v)
        rep.expect(f"q[{v}] nonzero", not q.is_zero())
        rep.expect(f"q[{v}] homogeneous", set(q.graded_components()) == {zero_diff})
    for p in _paths_up_to(lam, max_len):
        image = emb.path_image(p)
        label = format_degree(p.degree)
        rep.expect(f"s[{p}] homogeneous of {label}", set(image.graded_components()) == {p.degree})
        ghost = emb.ghost_image(p)
        neg = tuple(-x for x in p.degree)
        rep.expect(f"s*[{p}] homogeneous of -{label}", set(ghost.graded_components()) == {neg})
    return rep
