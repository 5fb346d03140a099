"""Reference answers that the tests check the library's fast paths against."""

from __future__ import annotations

from kgraphs.kp import KPElement
from kgraphs.skeleton import Degree, KGraph, Path, difference, dominates, factor, join


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


def act(element: KPElement, vector: dict[Path, int]) -> dict[Path, int]:
    """``element`` applied to a combination of paths: ``t_λ t_μ* e_x = e_{λx'}`` if ``x = μx'``.

    Every path in ``vector`` must dominate the degree of every right path in
    ``element``, so that the finite-path action respects the fullness
    relation; it then matches the refinement of ``element`` to that degree.
    """
    graph = element.algebra.graph
    out: dict[Path, int] = {}
    for x, a in vector.items():
        for term, c in element.terms():
            if not dominates(x.degree, term.right.degree):
                raise ValueError(f"path {x} is shorter than the right path {term.right}")
            head, tail = factor(graph, x, difference(x.degree, term.right.degree))
            if head == term.right:
                y = graph.normal_form(graph.compose(term.left, tail))
                out[y] = out.get(y, 0) + c * a
    return {y: c for y, c in out.items() if c}


def action(element: KPElement, degree: Degree) -> dict[Path, dict[Path, int]]:
    """The image of ``e_x`` under ``element`` for every path ``x`` of the degree."""
    graph = element.algebra.graph
    return {x: act(element, {x: 1})
            for v in graph.vertices for x in graph.paths_with_range(v, degree)}
