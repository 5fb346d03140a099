"""Every single-vertex 2-graph with at most 6 squares, split at its vertex.

A single-vertex 2-graph with ``m`` blue loops ``e0..`` and ``n`` red loops
``f0..`` is fixed by one bijection ``θ`` of the cells ``[m]×[n]``: the
square ``fj·ei = ei'·fj'`` (``ei`` and ``fj'`` traversed first) for each
cell, where ``θ(i, j) = (i', j')``.  Rank 2 has no hexagon condition, so
every ``θ`` gives a 2-graph, and enumerating them gives every such graph.
"""

from __future__ import annotations

import itertools
import math

import pytest

from kgraphs import (
    Edge,
    Skeleton,
    SplitEmbedding,
    SquareSet,
    build_kgraph,
    default_spec,
    outsplit,
    pairing_report,
    validate,
    verify_corner,
    verify_diagonal,
    verify_family,
    verify_grading,
    verify_swap_identities,
    verify_universal_family,
)

from conftest import BLUE, RED


def single_vertex_graphs(m: int, n: int):
    """The 2-graph of every bijection θ of ``[m]×[n]``, in lexicographic order of θ."""
    edges = [Edge(f"e{i}", BLUE, "v", "v") for i in range(m)]
    edges += [Edge(f"f{j}", RED, "v", "v") for j in range(n)]
    skeleton = Skeleton.create(2, ["v"], edges)
    cells = list(itertools.product(range(m), range(n)))
    for theta in itertools.permutations(cells):
        pairs = [((f"f{j}", f"e{i}"), (f"e{i2}", f"f{j2}"))
                 for (i, j), (i2, j2) in zip(cells, theta)]
        squares = SquareSet.create(skeleton, pairs)
        yield skeleton, squares


@pytest.mark.parametrize("m, n, paired", [(2, 2, 8), (2, 3, 0), (3, 2, 0)])
def test_census_splits_and_pairing(m, n, paired):
    """Each graph splits at ``v`` in blue; pairing in blue needs ``m | n``.

    The sibling set of ``fj`` holds the first edge ``ei`` of the partner of
    ``ex·fj`` for every blue ``ex``: the rows of the ``m`` cells that ``θ``
    maps onto column ``j``.  Paired means each red edge has at most one
    sibling, so those ``m`` cells lie in a single row ``r(j)``.  As ``θ`` is
    a bijection, every cell lies in exactly one column's preimage, so each
    row's ``n`` cells fall into whole preimages of ``m`` cells each, and
    ``m`` divides ``n``.  For ``m = n = 2`` each row is one preimage: ``r``
    is one of 2 bijections, and each row maps onto its column in one of 2
    ways, so 2·2·2 = 8 graphs are paired.
    """
    graphs = paired_graphs = 0
    for skeleton, squares in single_vertex_graphs(m, n):
        assert validate(skeleton, squares).ok
        graph = build_kgraph(skeleton, squares)
        result = outsplit(graph, default_spec(graph, BLUE, "v"))
        assert validate(result.graph.skeleton, result.graph.squares).ok
        graphs += 1
        paired_graphs += pairing_report(graph, BLUE).ok
    assert (graphs, paired_graphs) == (math.factorial(m * n), paired)


def test_paired_census_graphs_verify():
    """All six sweeps at ``--max-len 2`` on each of the 8 paired ``(2, 2)`` splits."""
    splits = []
    for skeleton, squares in single_vertex_graphs(2, 2):
        graph = build_kgraph(skeleton, squares)
        if pairing_report(graph, BLUE).ok:
            splits.append(outsplit(graph, default_spec(graph, BLUE, "v")))
    assert len(splits) == 8
    for result in splits:
        emb = SplitEmbedding(result)
        reports = [
            verify_universal_family(emb.algebra),
            verify_family(emb, max_paths=2),
            verify_swap_identities(emb),
            verify_diagonal(emb, max_len=2),
            verify_corner(emb, max_len=2),
            verify_grading(emb, max_len=2),
        ]
        for report in reports:
            assert report.ok, (result.graph.squares.pairs, report.summary(), report.failures)
