"""Exact symbolic Kumjian-Pask algebra over a finite source-free k-graph.

Elements are finite linear combinations of spanning terms ``t_λ t_μ*`` with
``s(λ) = s(μ)``, over the Gaussian rationals.  Multiplication expands the
middle product ``t_μ* t_ν`` over the minimal common extensions of ``μ`` and
``ν`` (the pairs ``(α, β)`` with ``μα = νβ`` at degree ``d(μ) ∨ d(ν)``),
which is the defining relation calculus for row-finite source-free graphs.

The spanning terms are not linearly independent: summing ``t_λ t_λ*`` over
all ``λ`` of one degree at a vertex collapses to the vertex idempotent.
Equality therefore refines both sides to a common degree per graded
component before comparing coefficients: ``t_λ t_μ*`` equals the sum of
``t_λα t_(μα)*`` over all ``α`` of any fixed degree out of ``s(λ)``, and at
a uniform degree distinct refined terms really are independent (they are
indicator functions of disjoint nonempty cylinders of the path groupoid).
Source-freeness keeps those cylinders nonempty, so the algebra context
refuses graphs with sources.

The second half of the module verifies the algebraic consequences of an
outsplit of a paired graph: the induced family over the split graph
(vertex generators map to first-copy idempotents, path generators to sums
over rainbow extensions), its defining relations, the swap identities that
move between copies, preservation of the diagonal, the corner determined
by first copies, the grading, and the saturation of the first-copy vertex
set.  One :class:`SplitEmbedding` serves all sweeps of a verification run:
its algebra context and image cache depend only on the immutable split, so
sharing them changes no answer and builds each common-extension table once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .skeleton import Degree, KGraph, Path, degrees_with_total
from .splitting import SplitResult, UnpairedError, copy_path, parent_path


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value: "GaussianRational | Fraction | int") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, float):
            raise TypeError("coefficients are exact; pass Fraction or int, not float")
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class BasisTerm:
    """Spanning term ``t_left · t_right*``; both paths share their source."""

    left: Path
    right: Path

    @property
    def degree_difference(self) -> tuple[int, ...]:
        return self.left.degree.signed_difference(self.right.degree)

    def sort_key(self):
        return (self.left.edges, self.left.source, self.right.edges, self.right.source)

    def __str__(self) -> str:
        if self.left.is_vertex and self.right.is_vertex:
            return f"p[{self.left.source}]"
        if self.right.is_vertex:
            return f"t[{self.left}]"
        if self.left.is_vertex:
            return f"t*[{self.right}]"
        return f"t[{self.left}]t*[{self.right}]"


ScalarLike = "GaussianRational | Fraction | int"


class KumjianPask:
    """Algebra context: term constructors and common-extension tables."""

    def __init__(self, graph: KGraph):
        free = graph.is_source_free()
        if not free.ok:
            raise ValueError(
                f"the Kumjian-Pask calculus needs a source-free graph; missing {free.witnesses[0]}"
            )
        self.graph = graph
        self._mce_cache: dict[tuple[Path, Path], tuple[tuple[Path, Path], ...]] = {}

    def zero(self) -> "KPElement":
        return KPElement(self, {})

    def term(self, left: Path, right: Path, coeff: ScalarLike = 1) -> "KPElement":
        left = self.graph.normal_form(left)
        right = self.graph.normal_form(right)
        if left.source != right.source:
            raise ValueError(
                f"term has mismatched sources: {left} ends at {left.source}, "
                f"{right} at {right.source}"
            )
        c = GaussianRational.of(coeff)
        if not c:
            return self.zero()
        return KPElement(self, {BasisTerm(left, right): c})

    def vertex(self, v: str) -> "KPElement":
        p = self.graph.vertex_path(v)
        return self.term(p, p)

    def path(self, p: Path) -> "KPElement":
        return self.term(p, self.graph.vertex_path(p.source))

    def ghost(self, p: Path) -> "KPElement":
        return self.term(self.graph.vertex_path(p.source), p)

    def minimal_common_extensions(self, mu: Path, nu: Path) -> tuple[tuple[Path, Path], ...]:
        """All ``(α, β)`` with ``μα = νβ`` of degree ``d(μ) ∨ d(ν)``."""
        key = (mu, nu)
        hit = self._mce_cache.get(key)
        if hit is not None:
            return hit
        result: tuple[tuple[Path, Path], ...]
        if mu.range != nu.range:
            result = ()
        else:
            join = mu.degree.join(nu.degree)
            extended: dict[tuple[tuple[str, ...], str], Path] = {}
            for alpha in self.graph.paths_with_range(mu.source, join - mu.degree):
                ext = self.graph.normal_form(self.graph.compose(mu, alpha))
                extended[(ext.edges, ext.source)] = alpha
            found = []
            for beta in self.graph.paths_with_range(nu.source, join - nu.degree):
                ext = self.graph.normal_form(self.graph.compose(nu, beta))
                alpha = extended.get((ext.edges, ext.source))
                if alpha is not None:
                    found.append((alpha, beta))
            result = tuple(sorted(found, key=lambda ab: (ab[0].edges, ab[1].edges)))
        self._mce_cache[key] = result
        return result

    def mce_bruteforce(self, mu: Path, nu: Path) -> tuple[tuple[Path, Path], ...]:
        """Independent oracle: factor every common extension both ways."""
        mu = self.graph.normal_form(mu)
        nu = self.graph.normal_form(nu)
        if mu.range != nu.range:
            return ()
        join = mu.degree.join(nu.degree)
        found = []
        for tau in self.graph.paths_with_range(mu.range, join):
            head_mu, tail_mu = self.graph.factor(tau, join - mu.degree)
            if head_mu != mu:
                continue
            head_nu, tail_nu = self.graph.factor(tau, join - nu.degree)
            if head_nu != nu:
                continue
            found.append((tail_mu, tail_nu))
        return tuple(sorted(found, key=lambda ab: (ab[0].edges, ab[1].edges)))


class KPElement:
    """Immutable finite linear combination of spanning terms.

    ``==`` is equality in the algebra: a fast term-map comparison first,
    then a refinement of the difference to a common degree.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: KumjianPask, terms: dict[BasisTerm, GaussianRational]):
        self.algebra = algebra
        self._terms = {t: c for t, c in terms.items() if c}

    def terms(self) -> tuple[tuple[BasisTerm, GaussianRational], ...]:
        return tuple(sorted(self._terms.items(), key=lambda tc: tc[0].sort_key()))

    def __len__(self) -> int:
        return len(self._terms)

    def _check_compatible(self, other: "KPElement") -> None:
        if self.algebra is not other.algebra and self.algebra.graph != other.algebra.graph:
            raise ValueError("operands live over different graphs")

    def __add__(self, other: "KPElement") -> "KPElement":
        self._check_compatible(other)
        out = dict(self._terms)
        for t, c in other._terms.items():
            acc = out.get(t, ZERO) + c
            if acc:
                out[t] = acc
            else:
                out.pop(t, None)
        return KPElement(self.algebra, out)

    def __neg__(self) -> "KPElement":
        return KPElement(self.algebra, {t: -c for t, c in self._terms.items()})

    def __sub__(self, other: "KPElement") -> "KPElement":
        return self + (-other)

    def scale(self, factor: ScalarLike) -> "KPElement":
        c = GaussianRational.of(factor)
        if not c:
            return self.algebra.zero()
        return KPElement(self.algebra, {t: x * c for t, x in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, KPElement):
            self._check_compatible(other)
            graph = self.algebra.graph
            out: dict[BasisTerm, GaussianRational] = {}
            for t1, c1 in self._terms.items():
                for t2, c2 in other._terms.items():
                    for alpha, beta in self.algebra.minimal_common_extensions(t1.right, t2.left):
                        left = graph.normal_form(graph.compose(t1.left, alpha))
                        right = graph.normal_form(graph.compose(t2.right, beta))
                        key = BasisTerm(left, right)
                        acc = out.get(key, ZERO) + c1 * c2
                        if acc:
                            out[key] = acc
                        else:
                            out.pop(key, None)
            return KPElement(self.algebra, out)
        return self.scale(other)

    def __rmul__(self, factor: ScalarLike) -> "KPElement":
        return self.scale(factor)

    def adjoint(self) -> "KPElement":
        return KPElement(
            self.algebra,
            {BasisTerm(t.right, t.left): c.conjugate() for t, c in self._terms.items()},
        )

    def graded_components(self) -> dict[tuple[int, ...], "KPElement"]:
        """Split by ``d(left) - d(right)``; the parts sum back to the element."""
        parts: dict[tuple[int, ...], dict[BasisTerm, GaussianRational]] = {}
        for t, c in self._terms.items():
            parts.setdefault(t.degree_difference, {})[t] = c
        return {n: KPElement(self.algebra, terms) for n, terms in sorted(parts.items())}

    def is_zero(self) -> bool:
        """Exact zero test by refinement to a common degree per component."""
        if not self._terms:
            return True
        graph = self.algebra.graph
        for component in self.graded_components().values():
            terms = component._terms
            target = Degree.zero(graph.k)
            for t in terms:
                target = target.join(t.left.degree)
            refined: dict[tuple, GaussianRational] = {}
            for t, c in terms.items():
                gap = target - t.left.degree
                for alpha in graph.paths_with_range(t.left.source, gap):
                    left = graph.normal_form(graph.compose(t.left, alpha))
                    right = graph.normal_form(graph.compose(t.right, alpha))
                    key = (left.edges, left.source, right.edges, right.source)
                    acc = refined.get(key, ZERO) + c
                    if acc:
                        refined[key] = acc
                    else:
                        refined.pop(key, None)
            if refined:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPElement):
            return NotImplemented
        self._check_compatible(other)
        if self._terms == other._terms:
            return True
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for t, c in self.terms():
            if c == ONE:
                pieces.append(str(t))
            else:
                pieces.append(f"({c})·{t}")
        return " + ".join(pieces)


def saturation(graph: KGraph, seeds: Iterable[str]) -> frozenset[str]:
    """Smallest vertex set containing the seeds that is hereditary and saturated.

    Heredity walks to sources of edges whose range is in the set; the
    saturation rule adds a vertex once the sources of all its incoming
    paths of some degree lie in the set.  Basis degrees drive the closure
    to its fixed point; the all-ones degree is re-checked as a guard.
    """
    seen = set()
    for v in seeds:
        if not graph.skeleton.has_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
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
                if all(p.source in seen for p in graph.paths_with_range(v, n)):
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
    source of ``λ¹``; ghost generators map to the adjoints.  Requires a
    paired input so that path copies are well defined.
    """

    def __init__(self, result: SplitResult):
        if not result.paired:
            raise UnpairedError(
                f"the induced family needs an input paired in color {result.color}"
            )
        if result.original.k >= 3 and result.original.degree_sinks(result.color):
            raise UnpairedError(
                f"rank {result.original.k} inputs must have no sinks in color {result.color}"
            )
        self.result = result
        self.algebra = KumjianPask(result.graph)
        self._path_cache: dict[Path, KPElement] = {}

    def vertex_image(self, v: str) -> KPElement:
        return self.algebra.vertex(self.result.vertex_copy(v, 1))

    def path_image(self, path: Path) -> KPElement:
        if path.is_vertex:
            return self.vertex_image(path.source)
        hit = self._path_cache.get(path)
        if hit is not None:
            return hit
        result = self.result
        graph = result.graph
        first = copy_path(result, path, 1)
        j = result.copy_index[first.source]
        total = self.algebra.zero()
        for f in result.original.rainbow_paths_into(path.source):
            f_j = copy_path(result, f, j)
            f_1 = copy_path(result, f, 1)
            total = total + self.algebra.term(graph.compose(first, f_j), f_1)
        self._path_cache[path] = total
        return total

    def ghost_image(self, path: Path) -> KPElement:
        return self.path_image(path).adjoint()

    def corner_projection(self) -> KPElement:
        total = self.algebra.zero()
        for v in self.result.original.vertices:
            total = total + self.vertex_image(v)
        return total


def _paths_up_to(graph: KGraph, max_total: int, include_vertices: bool = False) -> list[Path]:
    out: list[Path] = []
    if include_vertices:
        out.extend(graph.vertex_path(v) for v in graph.vertices)
    for total in range(1, max_total + 1):
        for degree in degrees_with_total(graph.k, total):
            for v in graph.vertices:
                out.extend(graph.paths_with_range(v, degree))
    return out


def _kp4_degrees(k: int, max_total: int) -> list[Degree]:
    degrees = [Degree.basis(k, c) for c in range(1, k + 1)]
    if k > 1:
        degrees.append(Degree.ones(k))
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
            total = alg.zero()
            for lam in graph.paths_with_range(v, n):
                total = total + alg.path(lam) * alg.ghost(lam)
            rep.expect_equal(f"sum tt* over {v}@{n}", total, alg.vertex(v))
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
    images_g = {p: images_s[p].adjoint() for p in paths}
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

    for lam_path in paths:
        for mu in paths:
            if lam_path.source != mu.range or len(lam_path) + len(mu) > max_paths:
                continue
            composite = lam.normal_form(lam.compose(lam_path, mu))
            rep.expect_equal(
                f"composition s[{lam_path}]s[{mu}]",
                images_s[lam_path] * images_s[mu],
                emb.path_image(composite),
            )
            rep.expect_equal(
                f"composition s*[{mu}]s*[{lam_path}]",
                images_g[mu] * images_g[lam_path],
                emb.ghost_image(composite),
            )

    by_degree: dict[Degree, list[Path]] = {}
    for p in paths:
        by_degree.setdefault(p.degree, []).append(p)
    for group in by_degree.values():
        for a in group:
            for b in group:
                expected = images_q[a.source] if a == b else zero
                rep.expect_equal(f"ghost pairing s*[{a}]s[{b}]", images_g[a] * images_s[b], expected)

    for v in lam.vertices:
        for n in _kp4_degrees(lam.k, max_paths):
            total = zero
            for p in lam.paths_with_range(v, n):
                total = total + emb.path_image(p) * emb.ghost_image(p)
            rep.expect_equal(f"fullness {v}@{n}", total, images_q[v])
    return rep


def verify_swap_identities(emb: SplitEmbedding) -> VerificationReport:
    """Moving between copies: rainbow sums carry first copies to j-th copies.

    For every edge ``x`` and copy index ``j``, the sum over rainbow paths
    ``f`` into ``r(x)`` of ``t_{f^j} t_{f¹}*`` times ``t_{x¹}`` equals
    ``t_{x^j}``, and the adjoint identity carries the ghosts.
    """
    result = emb.result
    alg = emb.algebra
    lam = result.original
    rep = VerificationReport("swap-identities")
    for e in lam.edges:
        x = lam.make_path((e.name,))
        rainbows = lam.rainbow_paths_into(e.range)
        for j in range(1, result.counts[e.range] + 1):
            carrier = alg.zero()
            for f in rainbows:
                carrier = carrier + alg.term(copy_path(result, f, j), copy_path(result, f, 1))
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
        top = result.vertex_copy(v, 1)
        corner_paths.append(gamma.vertex_path(top))
        for total in range(1, max_len + 1):
            for degree in degrees_with_total(gamma.k, total):
                corner_paths.extend(gamma.paths_with_range(top, degree))
    by_source: dict[str, list[Path]] = {}
    for p in corner_paths:
        by_source.setdefault(p.source, []).append(p)
    for group in by_source.values():
        for a in group:
            for b in group:
                expected = emb.path_image(parent_path(result, a)) * emb.ghost_image(
                    parent_path(result, b)
                )
                rep.expect_equal(f"corner t[{a}]t*[{b}]", alg.term(a, b), expected)
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
        want = p.degree.signed_difference(Degree.zero(lam.k))
        rep.expect(f"s[{p}] homogeneous of {p.degree}", set(image.graded_components()) == {want})
        ghost = emb.ghost_image(p)
        neg = tuple(-x for x in want)
        rep.expect(f"s*[{p}] homogeneous of -{p.degree}", set(ghost.graded_components()) == {neg})
    return rep
