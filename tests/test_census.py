"""Every single-vertex 2-graph with at most 6 squares, and every single-vertex
3-graph candidate with two loops per color, split at the vertex.

A single-vertex 2-graph with ``m`` blue loops ``e0..`` and ``n`` red loops
``f0..`` is fixed by one bijection ``θ`` of the cells ``[m]×[n]``: the
square ``fj·ei = ei'·fj'`` (``ei`` and ``fj'`` traversed first) for each
cell, where ``θ(i, j) = (i', j')``.  Rank 2 has no hexagon condition, so
every ``θ`` gives a 2-graph, and enumerating them gives every such graph.
At rank 3 each pair of colors has its own bijection, every candidate has
complete and unique squares, and the hexagon condition decides which of
them are 3-graphs.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from kgraphs import (
    Edge,
    KGraph,
    Skeleton,
    SplitEmbedding,
    SquareSet,
    build_kgraph,
    default_spec,
    outsplit,
    pairing_report,
    reconstruct_split,
    sibling_set,
    validate,
    verify_corner,
    verify_diagonal,
    verify_family,
    verify_grading,
    verify_swap_identities,
    verify_universal_family,
)
from kgraphs.fileformat import (check_split, document_for_graph, parse, parse_sidecar, serialize,
                                split_texts)

from conftest import BLUE, RED, product_graph, random_one_skeleton
from test_skeleton import _reference_report


def _cell_squares(x: str, y: str, cells, theta) -> list:
    """The square ``y{j}·x{i} = x{i'}·y{j'}`` for each cell ``(i, j)``, where ``θ(i, j) = (i', j')``."""
    return [((f"{y}{j}", f"{x}{i}"), (f"{x}{i2}", f"{y}{j2}"))
            for (i, j), (i2, j2) in zip(cells, theta)]


def single_vertex_graphs(m: int, n: int):
    """The 2-graph of every bijection θ of ``[m]×[n]``, in lexicographic order of θ."""
    edges = [Edge(f"e{i}", BLUE, "v", "v") for i in range(m)]
    edges += [Edge(f"f{j}", RED, "v", "v") for j in range(n)]
    skeleton = Skeleton.create(2, ["v"], edges)
    cells = list(itertools.product(range(m), range(n)))
    for theta in itertools.permutations(cells):
        yield skeleton, SquareSet.create(skeleton, _cell_squares("e", "f", cells, theta))


def rank_three_census():
    """The skeleton with loops ``e0, e1``, ``f0, f1``, ``g0, g1`` in colors 1, 2, 3 at ``v``,
    and for each pair of colors the squares of all 24 bijections of ``[2]×[2]``."""
    edges = [Edge(f"{x}{i}", color, "v", "v") for color, x in enumerate("efg", start=1)
             for i in range(2)]
    skeleton = Skeleton.create(3, ["v"], edges)
    cells = list(itertools.product(range(2), repeat=2))
    options = [[_cell_squares(x, y, cells, theta) for theta in itertools.permutations(cells)]
               for x, y in itertools.combinations("efg", 2)]
    return skeleton, options


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


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2)])
def test_census_splits_round_trip_through_their_files(m, n):
    """Each split, written and read back as ``kp-verify`` reads it, rebuilds to itself."""
    for skeleton, squares in single_vertex_graphs(m, n):
        graph = build_kgraph(skeleton, squares)
        result = outsplit(graph, default_spec(graph, BLUE, "v"))
        doc = parse(serialize(document_for_graph(graph, ("blue", "red"))))
        split_text, parents_text = split_texts(doc, result)
        split, sidecar = parse(split_text), parse_sidecar(parents_text)
        rebuilt = reconstruct_split(doc.build(), split.skeleton, doc.color_index(sidecar[0]),
                                    sidecar[1])
        check_split(doc, rebuilt, split, sidecar)
        assert rebuilt == result


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


def _reference_pairing(graph, color: int):
    """``pairing_report``'s flag and witness, from ``sibling_set`` edge by edge."""
    for e in graph.edges:
        if e.color != color and len(sibs := sibling_set(graph, e.name, color)) > 1:
            return False, (e.name, sibs)
    return True, None


def test_pairing_report_matches_sibling_sets(lambda_one, lambda_two):
    """The one-pass ``pairing_report`` agrees with the per-edge reference in every color."""
    rng = random.Random(21)
    product = product_graph([random_one_skeleton(rng, tag) for tag in "fgh"])
    graphs = [lambda_one, lambda_two, product]
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        graphs.extend(build_kgraph(*census) for census in single_vertex_graphs(m, n))
    outcomes = set()
    for graph in graphs:
        for color in range(1, graph.k + 1):
            report = pairing_report(graph, color)
            assert (report.ok, report.witness) == _reference_pairing(graph, color)
            outcomes.add(report.ok)
    assert outcomes == {True, False}


def test_rank_three_census():
    """Of the 24³ candidates, 752 are 3-graphs; each split at ``v`` in color 1 validates.

    The 13,072 others have complete and unique squares and fail only the
    hexagon condition, at 540,672 3-paths in all.  40 of the 3-graphs are
    paired in color 1.
    """
    skeleton, options = rank_three_census()
    candidates = graphs = hexagon_failures = paired = 0
    for choice in itertools.product(*options):
        squares = SquareSet.create(skeleton, [pair for chosen in choice for pair in chosen])
        report = validate(skeleton, squares)
        assert not (report.unmatched or report.ambiguous)
        candidates += 1
        hexagon_failures += len(report.hexagon_failures)
        if report.ok:
            graph = KGraph(skeleton, squares)
            result = outsplit(graph, default_spec(graph, 1, "v"))
            assert validate(result.graph.skeleton, result.graph.squares).ok
            graphs += 1
            paired += pairing_report(graph, 1).ok
    assert (candidates, graphs, hexagon_failures, paired) == (13_824, 752, 540_672, 40)


def test_rank_three_reports_match_the_reference():
    """``validate``'s report equals the every-3-path reference on a seeded sample."""
    skeleton, options = rank_three_census()
    rng = random.Random(3)
    outcomes = set()
    for _ in range(200):
        chosen = [pair for per_pair in options for pair in rng.choice(per_pair)]
        squares = SquareSet.create(skeleton, chosen)
        report = validate(skeleton, squares)
        assert report.lines() == _reference_report(skeleton, squares).lines()
        outcomes.add(report.ok)
    assert outcomes == {True, False}
