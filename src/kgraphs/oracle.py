"""Reference answers that the tests check the fast paths against; the library never calls them."""

from __future__ import annotations

from .skeleton import Degree, KGraph, Path


def dominates(big: Degree, small: Degree) -> bool:
    """Whether ``big >= small`` componentwise in N^k."""
    return all(a >= b for a, b in zip(big.components, small.components, strict=True))


def factor(graph: KGraph, path: Path, source_degree: Degree) -> tuple[Path, Path]:
    """Split as ``head∘tail`` with ``tail`` traversed first at the given degree.

    Both parts come back in normal form; uniqueness is the factorization
    property of a validated graph.
    """
    if not dominates(path.degree, source_degree):
        raise ValueError(f"cannot factor degree {path.degree} with first part {source_degree}")
    head_degree = path.degree - source_degree
    word = tuple(c for d in (source_degree, head_degree)
                 for c, n in enumerate(d.components, start=1) for _ in range(n))
    arranged = graph._rearrange_edges(path.edges, word)
    cut = source_degree.total
    tail_edges, head_edges = arranged[:cut], arranged[cut:]
    mid = path.source if not tail_edges else graph.edge(tail_edges[-1]).range
    tail = graph.normal_form(Path(tail_edges, path.source, mid, source_degree))
    head = graph.normal_form(Path(head_edges, mid, path.range, head_degree))
    return head, tail


def mce_bruteforce(graph: KGraph, mu: Path, nu: Path) -> tuple[tuple[Path, Path], ...]:
    """``KumjianPask.minimal_common_extensions`` by factoring every common extension both ways."""
    mu = graph.normal_form(mu)
    nu = graph.normal_form(nu)
    if mu.range != nu.range:
        return ()
    join = mu.degree.join(nu.degree)
    found = []
    for tau in graph.paths_with_range(mu.range, join):
        head_mu, tail_mu = factor(graph, tau, join - mu.degree)
        if head_mu != mu:
            continue
        head_nu, tail_nu = factor(graph, tau, join - nu.degree)
        if head_nu != nu:
            continue
        found.append((tail_mu, tail_nu))
    return tuple(sorted(found, key=lambda ab: (ab[0].edges, ab[1].edges)))
