"""Reference answers that the tests check the library's fast paths against."""

from __future__ import annotations

from collections import deque

from kgraphs.kp import KPElement, KumjianPask, SplitEmbedding
from kgraphs.skeleton import Degree, KGraph, Path, difference, dominates, factor, join
from kgraphs.splitting import copy_path


def swap_class(graph: KGraph, edges: tuple[str, ...]) -> set[tuple[str, ...]]:
    """Every edge tuple reached from ``edges`` by swapping adjacent bicolored pairs, breadth first."""
    color = {e.name: e.color for e in graph.edges}
    swap = graph.squares.swap_map
    seen, queue = {edges}, deque([edges])
    while queue:
        current = queue.popleft()
        for i in range(len(current) - 1):
            inner, outer = current[i], current[i + 1]
            if color[inner] == color[outer]:
                continue
            new_outer, new_inner = swap[outer, inner]
            other = current[:i] + (new_inner, new_outer) + current[i + 2:]
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


def ascends(graph: KGraph, edges: tuple[str, ...]) -> bool:
    """Whether the colors of ``edges`` ascend in traversal order."""
    colors = [graph.skeleton.edge_map[name].color for name in edges]
    return colors == sorted(colors)


def ascending_member(graph: KGraph, path: Path) -> Path:
    """The normal form of ``path`` found by search: the one member of its swap class whose colors ascend."""
    found = [edges for edges in swap_class(graph, path.edges) if ascends(graph, edges)]
    assert len(found) == 1, (path, found)
    return Path(found[0], path.source, path.range, path.degree)


def mce_bruteforce(graph: KGraph, mu: Path, nu: Path) -> tuple[tuple[Path, Path], ...]:
    """``KumjianPask.minimal_common_extensions`` by factoring every common extension both ways."""
    mu = graph.normal_form(mu)
    nu = graph.normal_form(nu)
    if mu.range != nu.range:
        return ()
    top = join(mu.degree, nu.degree)
    found = []
    for tau in graph.paths_with_range(mu.range, top):
        head_mu, tail_mu = factor(graph, tau, difference(top, mu.degree))
        if head_mu != mu:
            continue
        head_nu, tail_nu = factor(graph, tau, difference(top, nu.degree))
        if head_nu != nu:
            continue
        found.append((tail_mu, tail_nu))
    return tuple(sorted(found))


Factored = dict[tuple[Path, Degree], tuple[Path, Path]]


def act(element: KPElement, vector: dict[Path, int], factored: Factored | None = None) -> dict[Path, int]:
    """``element`` applied to a combination of paths: ``t_λ t_μ* e_x = e_{λx'}`` if ``x = μx'``.

    Every path in ``vector`` must dominate the degree of every right path in
    ``element``, so that the finite-path action respects the fullness
    relation; it then matches the refinement of ``element`` to that degree.
    Each ``x`` is factored once per right degree ``d``, as ``head·tail`` with
    ``d(head) = d``; ``factored`` keeps those factorizations by ``(x, d)``
    for later calls on the same graph.
    """
    graph, by_right, out = element.algebra.graph, _by_right(element), {}
    factored = {} if factored is None else factored
    for x, a in vector.items():
        _apply(graph, by_right, x, a, factored, out)
    return {y: c for y, c in out.items() if c}


def action(element: KPElement, degree: Degree,
           factored: Factored | None = None) -> dict[Path, dict[Path, int]]:
    """The image of ``e_x`` under ``element`` for every path ``x`` of the degree."""
    graph, by_right = element.algebra.graph, _by_right(element)
    factored = {} if factored is None else factored
    images = {}
    for v in graph.vertices:
        for x in graph.paths_with_range(v, degree):
            out: dict[Path, int] = {}
            _apply(graph, by_right, x, 1, factored, out)
            images[x] = {y: c for y, c in out.items() if c}
    return images


def _by_right(element: KPElement) -> dict[Degree, dict[Path, list[tuple[Path, int]]]]:
    """The terms of ``element`` as ``(λ, c)`` lists by the degree and path of ``μ``."""
    by_right: dict[Degree, dict[Path, list[tuple[Path, int]]]] = {}
    for term, c in element.terms():
        by_right.setdefault(term.right.degree, {}).setdefault(term.right, []).append((term.left, c))
    return by_right


def _apply(graph: KGraph, by_right, x: Path, a: int, factored: Factored, out: dict[Path, int]) -> None:
    for d, terms in by_right.items():
        key = (x, d)
        if key not in factored:
            if not dominates(x.degree, d):
                raise ValueError(f"path {x} is shorter than the right path {next(iter(terms))}")
            factored[key] = factor(graph, x, difference(x.degree, d))
        head, tail = factored[key]
        for left, c in terms.get(head, ()):
            y = graph.normal_form(graph.compose(left, tail))
            out[y] = out.get(y, 0) + c * a


def extension_rows(alg: KumjianPask, reference: KGraph, mu: int,
                   d: Degree) -> tuple[tuple[int, int, int], ...]:
    """``alg.extensions(mu, d)`` with every row factored as ``μα = head·β`` in ``reference``.

    ``reference`` is a second graph over the same skeleton and squares, so
    its normal forms come from its own cache.
    """
    path = alg.paths[mu]
    top = join(path.degree, d)
    rows = []
    for alpha in reference.paths_with_range(path.source, difference(top, path.degree)):
        head, beta = factor(reference, reference.compose(path, alpha), difference(top, d))
        rows.append((alg.intern(alpha), alg.intern(head), alg.intern(beta)))
    return tuple(rows)


def path_image(emb: SplitEmbedding, path: Path) -> KPElement:
    """``emb.path_image(path)`` as the sum of ``term(λ¹ f^j, f¹)`` over rainbow paths ``f``."""
    result, alg = emb.result, emb.algebra
    if path.is_vertex:
        return alg.vertex(result.copy_of(path.source, 1))
    first = copy_path(result, path, 1)
    j = result.copy_index[first.source]
    return alg.sum(alg.term(result.graph.compose(first, copy_path(result, f, j)),
                            copy_path(result, f, 1))
                   for f in result.original.rainbow_paths_into(path.source))


def swap_carrier(emb: SplitEmbedding, v: str, j: int) -> KPElement:
    """The swap identities' carrier: the sum of ``term(f^j, f¹)`` over rainbow paths ``f`` into ``v``."""
    result, alg = emb.result, emb.algebra
    return alg.sum(alg.term(copy_path(result, f, j), copy_path(result, f, 1))
                   for f in result.original.rainbow_paths_into(v))
