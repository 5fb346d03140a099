"""The outsplit move: region, partitions, golden outputs, path copies."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from kgraphs import (
    Edge,
    KGraph,
    Skeleton,
    SplitError,
    SplitSpec,
    SquareSet,
    StructureError,
    build_kgraph,
    copy_counts,
    copy_path,
    default_spec,
    outsplit,
    pairing_report,
    parent_path,
    reconstruct_split,
    sibling_set,
    split_region,
    validate,
    validate_spec,
)
from kgraphs.fileformat import check_split, document_for_graph

from conftest import (
    BLUE,
    RED,
    diagonal_double,
    paper_spec,
    product_graph,
    random_double,
    shuffled_spec,
)
from test_census import single_vertex_graphs

# the split of the first worked example, straight from its figure
GAMMA_ONE_VERTICES = ("v.1", "v.2", "v.3", "x.1", "x.2", "y.1", "z.1")
GAMMA_ONE_EDGES = {
    ("α.1", BLUE, "v.1", "v.1"),
    ("α.2", BLUE, "v.1", "v.2"),
    ("α.3", BLUE, "v.1", "v.3"),
    ("β.1", RED, "v.1", "v.1"),
    ("β.2", RED, "v.1", "v.2"),
    ("β.3", RED, "v.1", "v.3"),
    ("h.1", BLUE, "v.2", "x.1"),
    ("h.2", BLUE, "v.2", "x.2"),
    ("b.1", RED, "v.2", "x.1"),
    ("b.2", RED, "v.2", "x.2"),
    ("i.1", BLUE, "v.3", "z.1"),
    ("c.1", RED, "v.3", "z.1"),
    ("k.1", BLUE, "x.1", "y.1"),
    ("e.1", RED, "x.1", "y.1"),
    ("ℓ.1", BLUE, "x.2", "z.1"),
    ("f.1", RED, "x.2", "z.1"),
    ("n.1", BLUE, "z.1", "z.1"),
    ("m.1", RED, "z.1", "z.1"),
}
GAMMA_ONE_SQUARES = {
    frozenset({("β.1", "α.1"), ("α.1", "β.1")}),
    frozenset({("β.2", "α.1"), ("α.2", "β.1")}),
    frozenset({("β.3", "α.1"), ("α.3", "β.1")}),
    frozenset({("b.1", "α.2"), ("h.1", "β.2")}),
    frozenset({("b.2", "α.2"), ("h.2", "β.2")}),
    frozenset({("c.1", "α.3"), ("i.1", "β.3")}),
    frozenset({("e.1", "h.1"), ("k.1", "b.1")}),
    frozenset({("f.1", "h.2"), ("ℓ.1", "b.2")}),
    frozenset({("m.1", "ℓ.1"), ("n.1", "f.1")}),
    frozenset({("m.1", "n.1"), ("n.1", "m.1")}),
    frozenset({("m.1", "i.1"), ("n.1", "c.1")}),
}
# the second example differs in two edge sources and three squares
GAMMA_TWO_EDGES = (GAMMA_ONE_EDGES - {("b.2", RED, "v.2", "x.2"), ("c.1", RED, "v.3", "z.1")}) | {
    ("b.2", RED, "v.3", "x.2"),
    ("c.1", RED, "v.2", "z.1"),
}
GAMMA_TWO_SQUARES = (
    GAMMA_ONE_SQUARES
    - {
        frozenset({("b.2", "α.2"), ("h.2", "β.2")}),
        frozenset({("c.1", "α.3"), ("i.1", "β.3")}),
        frozenset({("f.1", "h.2"), ("ℓ.1", "b.2")}),
        frozenset({("m.1", "i.1"), ("n.1", "c.1")}),
    }
) | {
    frozenset({("b.2", "α.3"), ("h.2", "β.2")}),
    frozenset({("c.1", "α.2"), ("i.1", "β.3")}),
    frozenset({("f.1", "h.2"), ("n.1", "c.1")}),
    frozenset({("m.1", "i.1"), ("ℓ.1", "b.2")}),
}


def edge_table(graph):
    return {(e.name, e.color, e.source, e.range) for e in graph.edges}


def square_table(graph):
    return {frozenset({s1, s2}) for s1, s2 in graph.squares.pairs}


class TestSplitRegion:
    def test_worked_example(self, lambda_one):
        assert split_region(lambda_one, BLUE, "v") == {"v", "x"}
        assert split_region(lambda_one, BLUE, "x") == {"x"}

    def test_needs_two_outgoing_edges(self):
        loops = product_graph(
            [
                Skeleton.create(1, ["p"], [Edge("a", 1, "p", "p")]),
                Skeleton.create(1, ["q"], [Edge("b", 1, "q", "q")]),
            ]
        )
        with pytest.raises(SplitError, match="fewer than two"):
            split_region(loops, 1, "p|q")

    def test_bad_arguments(self, lambda_one):
        with pytest.raises(StructureError, match="unknown base"):
            split_region(lambda_one, BLUE, "nope")
        with pytest.raises(SplitError, match="color"):
            split_region(lambda_one, 5, "v")


class TestCopyCounts:
    def test_worked_example(self, lambda_one):
        region = split_region(lambda_one, BLUE, "v")
        assert copy_counts(lambda_one, region, BLUE) == {"v": 3, "x": 2, "y": 1, "z": 1}

    def test_outside_region_counts_one(self, lambda_one):
        # v has three outgoing blue edges but sits outside the region of x
        region = split_region(lambda_one, BLUE, "x")
        counts = copy_counts(lambda_one, region, BLUE)
        assert counts == {"v": 1, "x": 2, "y": 1, "z": 1}


class TestSplitSpec:
    def test_default_partition_shape(self, lambda_one):
        spec = default_spec(lambda_one, BLUE, "v")
        assert spec.partitions["v"] == (("h",), ("i",), ("α",))
        assert spec.partitions["x"] == (("k",), ("ℓ",))
        assert spec.partitions["z"] == (("n",),)
        assert "y" not in spec.partitions
        validate_spec(lambda_one, spec)

    def test_paper_partition_is_valid(self, lambda_one):
        validate_spec(lambda_one, paper_spec())

    @pytest.mark.parametrize(
        "partitions,message",
        [
            ({"v": (("α", "h"), ("i",)), "x": (("k",), ("ℓ",)), "z": (("n",),)}, "needs 3ium"),
            ({"v": (("α",), ("h",), ("i",)), "x": (("k", "ℓ"),), "z": (("n",),)}, "needs 2"),
            ({"v": (("α",), ("h",), ("i",)), "x": (("k",), ("ℓ",))}, "missing"),
            (
                {"v": (("α",), ("h",), ("i",)), "x": (("k",), ("ℓ",)), "z": (("n",),),
                 "y": (("k",),)},
                "without outgoing",
            ),
            (
                {"v": (("α",), ("h",), ("α",)), "x": (("k",), ("ℓ",)), "z": (("n",),)},
                "two blocks|do not cover",
            ),
            (
                {"v": (("α",), ("h", "i"), ()), "x": (("k",), ("ℓ",)), "z": (("n",),)},
                "empty block at vertex 'v'",
            ),
            (
                {"v": (("α", "α"), ("h",), ("i",)), "x": (("k",), ("ℓ",)), "z": (("n",),)},
                "edge 'α' appears twice in one block at 'v'",
            ),
            (
                {"v": (("α",), ("h",), ("i",)), "y": (("k",),)},
                "^partitions given for vertices without outgoing edges: y; partitions missing for: x, z$",
            ),
        ],
    )
    def test_invalid_partitions(self, lambda_one, partitions, message):
        spec = SplitSpec(BLUE, "v", partitions)
        with pytest.raises(SplitError, match=message.split("ium")[0]):
            validate_spec(lambda_one, spec)


class TestGoldenSplits:
    def test_first_example_matches_figure(self, split_one):
        assert split_one.graph.vertices == GAMMA_ONE_VERTICES
        assert edge_table(split_one.graph) == GAMMA_ONE_EDGES
        assert square_table(split_one.graph) == GAMMA_ONE_SQUARES

    def test_second_example_matches_figure(self, split_two):
        assert split_two.graph.vertices == GAMMA_ONE_VERTICES
        assert edge_table(split_two.graph) == GAMMA_TWO_EDGES
        assert square_table(split_two.graph) == GAMMA_TWO_SQUARES
        assert split_two.graph.edge("b.1").source == "v.2"
        assert split_two.graph.edge("b.2").source == "v.3"

    def test_bookkeeping(self, split_one):
        assert split_one.parent["b.2"] == "b"
        assert split_one.parent["v.3"] == "v"
        assert split_one.copy_index["α.3"] == 3
        assert split_one.counts == {"v": 3, "x": 2, "y": 1, "z": 1}

    def test_size_formulas(self, lambda_one, split_one):
        counts = split_one.counts
        assert len(split_one.graph.vertices) == sum(counts.values())
        assert len(split_one.graph.edges) == sum(
            counts[e.range] for e in lambda_one.edges
        )


class TestSplitPreconditions:
    def test_not_source_free(self):
        sk = Skeleton.create(
            2,
            ["p", "q"],  # q is isolated, so the graph has a source at q
            [
                Edge("a1", 1, "p", "p"),
                Edge("a2", 1, "p", "p"),
                Edge("r1", 2, "p", "p"),
            ],
        )
        pairs = [
            (("r1", "a1"), ("a1", "r1")),
            (("r1", "a2"), ("a2", "r1")),
        ]
        graph = build_kgraph(sk, SquareSet.create(sk, pairs))
        spec = SplitSpec(1, "p", {"p": (("a1",), ("a2",))})
        with pytest.raises(SplitError, match="source-free"):
            outsplit(graph, spec)

    def test_rank_three_needs_sink_free(self):
        # a double of a digraph with a sink at u1 (no outgoing arrows)
        vertices = ["u0", "u1"]
        arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1")]
        graph = diagonal_double(vertices, arrows, 3)
        spec = default_spec(graph, 1, "u0")
        with pytest.raises(SplitError, match="no sinks"):
            outsplit(graph, spec)
        # rank two tolerates the sink (the worked examples have one)
        two = diagonal_double(vertices, arrows, 2)
        outsplit(two, default_spec(two, 1, "u0"))

    def test_checks_run_in_one_order(self):
        # a rank-3 double with a sink at u1: each spec below breaks the sink
        # check and one other check, and the one validate_spec runs first reports
        vertices = ["u0", "u1"]
        arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1")]
        graph = diagonal_double(vertices, arrows, 3)
        partitions = default_spec(graph, 1, "u0").partitions
        for spec, error, message in [
            (SplitSpec(1, "nosuch", partitions), StructureError, "unknown base vertex 'nosuch'"),
            (SplitSpec(1, "u1", partitions), SplitError,
             "vertex 'u1' has fewer than two outgoing edges of color 1"),
            (SplitSpec(1, "u0", {}), SplitError,
             "rank 3 split needs no sinks in color 1; found u1"),
        ]:
            for check in (validate_spec, outsplit):
                with pytest.raises(error) as exc:
                    check(graph, spec)
                assert str(exc.value) == message

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("color", [0, 4])
    def test_color_out_of_range(self, k, color):
        # at rank 3 the color is checked before the sink check, so the error
        # is validate_spec's SplitError, not degree_sinks's UsageError
        graph = diagonal_double(["u0", "u1"], [("a", "u0", "u0"), ("b", "u0", "u0"),
                                               ("c", "u0", "u1"), ("d", "u1", "u0")], k)
        spec = default_spec(graph, 1, "u0")
        with pytest.raises(SplitError, match=rf"color {color} out of range 1\.\.{k}"):
            outsplit(graph, SplitSpec(color, spec.base, spec.partitions))


class TestSiblingsAndPairing:
    def test_worked_sibling_sets(self, lambda_one, lambda_two):
        assert sibling_set(lambda_one, "b", BLUE) == ("h",)
        assert sibling_set(lambda_two, "b", BLUE) == ("h", "i")
        assert sibling_set(lambda_one, "e", BLUE) == ()

    def test_product_of_two_loops(self):
        loops = product_graph(
            [
                Skeleton.create(1, ["p"], [Edge("a", 1, "p", "p")]),
                Skeleton.create(1, ["q"], [Edge("b", 1, "q", "q")]),
            ]
        )
        red_loop = next(e.name for e in loops.edges if e.color == 2)
        blue_loop = next(e.name for e in loops.edges if e.color == 1)
        assert sibling_set(loops, red_loop, 1) == (blue_loop,)
        assert pairing_report(loops, 1).ok

    def test_sibling_set_needs_other_color(self, lambda_one):
        with pytest.raises(SplitError, match="already has color"):
            sibling_set(lambda_one, "n", BLUE)

    def test_pairing_reports(self, lambda_one, lambda_two):
        assert pairing_report(lambda_one, BLUE).ok
        assert pairing_report(lambda_one, RED).ok
        report = pairing_report(lambda_two, BLUE)
        assert not report.ok
        assert report.witness == ("b", ("h", "i"))
        assert report.describe() == "b : {h, i}"
        for color in (0, 3):
            with pytest.raises(SplitError, match=rf"^color {color} out of range 1\.\.2$"):
                pairing_report(lambda_one, color)

    def test_products_can_fail_pairing(self):
        # a factor vertex with out-degree two makes the product unpaired
        double_loop = Skeleton.create(
            1, ["p"], [Edge("a1", 1, "p", "p"), Edge("a2", 1, "p", "p")]
        )
        single = Skeleton.create(1, ["q"], [Edge("b", 1, "q", "q")])
        graph = product_graph([double_loop, single])
        report = pairing_report(graph, 1)
        assert not report.ok
        assert len(report.witness[1]) == 2

    def test_doubles_are_always_paired(self):
        rng = random.Random(5)
        for _ in range(20):
            graph, _ = random_double(rng, k=2)
            assert pairing_report(graph, 1).ok
            assert pairing_report(graph, 2).ok


class TestCopyPath:
    def test_single_edge_copies(self, split_one):
        b = split_one.original.make_path(("b",))
        first = copy_path(split_one, b, 1)
        second = copy_path(split_one, b, 2)
        assert first.edges == ("b.1",) and first.source == "v.2"
        assert second.edges == ("b.2",) and second.source == "v.2"

    def test_unique_copy_when_count_is_one(self, split_one):
        m = split_one.original.make_path(("m",))
        assert copy_path(split_one, m, 1).edges == ("m.1",)
        with pytest.raises(SplitError, match="out of range"):
            copy_path(split_one, m, 2)

    def test_two_edge_lift(self, split_one):
        eh = split_one.original.make_path(("h", "e"))
        lifted = copy_path(split_one, eh, 1)
        assert lifted.edges == ("h.1", "e.1")
        assert lifted.source == "v.2" and lifted.range == "y.1"

    def test_vertex_path_copies(self, split_one):
        v = split_one.original.vertex_path("v")
        assert copy_path(split_one, v, 3).source == "v.3"

    def test_unpaired_lift_commutes_with_normal_forms(self, split_two):
        # every path of length 1-3, normal or not, lifts at every copy of its
        # range, and lifting commutes with taking normal forms
        lam, gamma = split_two.original, split_two.graph
        assert not pairing_report(lam, BLUE).ok
        level = [(e.name,) for e in lam.edges]
        cases = 0
        for _ in range(3):
            for names in level:
                path = lam.make_path(names)
                normal = lam.normal_form(path)
                for i in range(1, split_two.counts[path.range] + 1):
                    lifted = copy_path(split_two, path, i)
                    assert gamma.normal_form(lifted) == copy_path(split_two, normal, i), (names, i)
                    cases += 1
            level = [names + (e.name,) for names in level
                     for e in lam.skeleton.edges_from(lam.edge(names[-1]).range)]
        assert cases == 166

    def test_copies_agree_except_last_edge(self, split_one):
        rng = random.Random(3)
        lam = split_one.original
        for _ in range(100):
            v = rng.choice(lam.vertices)
            degree = (rng.randint(0, 2), rng.randint(0, 2))
            options = lam.paths_with_range(v, degree)
            if not options or degree == (0, 0):
                continue
            f = rng.choice(options)
            copies = [
                copy_path(split_one, f, j) for j in range(1, split_one.counts[v] + 1)
            ]
            for one, other in zip(copies, copies[1:]):
                assert one.edges[:-1] == other.edges[:-1]
                assert one.edges[-1] != other.edges[-1]


class TestParentPath:
    def test_two_edge_parent(self, split_one):
        lifted = split_one.graph.make_path(("α.2", "b.1"))
        back = parent_path(split_one, lifted)
        assert back.edges == ("α", "b")
        assert back.degree == (1, 1)

    def test_vertex_parent(self, split_one):
        assert parent_path(split_one, split_one.graph.vertex_path("v.3")).source == "v"

    def test_square_parents_commute(self, split_one):
        lam = split_one.original
        for s1, s2 in split_one.graph.squares.pairs:
            p1 = parent_path(split_one, split_one.graph.make_path((s1[1], s1[0])))
            p2 = parent_path(split_one, split_one.graph.make_path((s2[1], s2[0])))
            assert lam.normal_form(p1) == lam.normal_form(p2)

    def test_parent_commutes_with_endpoints_and_degree(self, split_one):
        lam = split_one.original
        for e in split_one.graph.edges:
            parent = lam.edge(split_one.parent[e.name])
            assert parent.color == e.color
            assert split_one.parent[e.source] == parent.source
            assert split_one.parent[e.range] == parent.range


class TestStructuralInvariants:
    def test_fan_in_preserved(self, split_one):
        lam, gamma = split_one.original, split_one.graph
        for gv in gamma.vertices:
            v = split_one.parent[gv]
            for c in (BLUE, RED):
                assert len(gamma.skeleton.edges_into(gv, c)) == len(
                    lam.skeleton.edges_into(v, c)
                )

    def test_copies_have_distinct_ranges(self, split_one, split_two):
        for result in (split_one, split_two):
            by_parent: dict[str, list[str]] = {}
            for e in result.graph.edges:
                by_parent.setdefault(result.parent[e.name], []).append(e.range)
            for ranges in by_parent.values():
                assert len(set(ranges)) == len(ranges)

    def test_paired_split_copies_share_source(self, split_one):
        by_parent: dict[str, set[str]] = {}
        for e in split_one.graph.edges:
            by_parent.setdefault(split_one.parent[e.name], set()).add(e.source)
        assert all(len(sources) == 1 for sources in by_parent.values())

    def test_unpaired_split_can_separate_sources(self, split_two):
        sources = {e.source for e in split_two.graph.edges if e.name.startswith("b.")}
        assert sources == {"v.2", "v.3"}

    def test_random_paired_splits_validate(self):
        rng = random.Random(17)
        for _ in range(15):
            k = rng.choice([2, 3])
            graph, base = random_double(rng, k=k)
            spec = shuffled_spec(graph, 1, base, rng)
            result = outsplit(graph, spec)
            assert validate(result.graph.skeleton, result.graph.squares).ok
            assert result.graph.is_source_free().ok
            for gv in result.graph.vertices:
                v = result.parent[gv]
                for c in range(1, k + 1):
                    assert len(result.graph.skeleton.edges_into(gv, c)) == len(
                        graph.skeleton.edges_into(v, c)
                    )

    def test_split_pairedness_observed_not_asserted(self, split_one):
        # whether the move preserves pairing is open; record the observation
        preserved = pairing_report(split_one.graph, BLUE).ok
        print(f"pairedness preserved on the worked example: {preserved}")


class TestOutsplitProofs:
    """The two facts ``outsplit`` proves in comments instead of checking."""

    def test_blocks_name_one_source_and_splits_are_source_free(self, lambda_one, lambda_two):
        rank_three = diagonal_double(
            ["u0", "u1"], [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"),
                           ("d", "u1", "u0")], 3)
        specs = [(lambda_one, paper_spec()), (lambda_one, default_spec(lambda_one, BLUE, "v")),
                 (lambda_one, default_spec(lambda_one, BLUE, "x")), (lambda_two, paper_spec()),
                 (rank_three, default_spec(rank_three, 1, "u0"))]
        rng = random.Random(29)
        for _ in range(200):
            graph, _ = random_double(rng, k=rng.choice([2, 3]))
            specs.extend((graph, shuffled_spec(graph, 1, v, rng)) for v in graph.vertices
                         if len(graph.skeleton.edges_from(v, 1)) >= 2)
        multi_edge_blocks = 0
        for graph, spec in specs:
            result = outsplit(graph, spec)
            block = {name: j for blocks in spec.partitions.values()
                     for j, names in enumerate(blocks, start=1) for name in names}
            swap = graph.squares.swap_map
            for e in graph.edges:
                blocks = spec.partitions.get(e.range)
                if e.color == spec.color or blocks is None:
                    continue
                for i in range(1, result.counts[e.range] + 1):
                    # every edge f of block i at r(e) names one block at s(e)
                    named = {block[swap[f, e.name][1]] for f in blocks[i - 1]}
                    assert len(named) == 1, (spec, e.name, i, named)
                    multi_edge_blocks += len(blocks[i - 1]) > 1
                    assert result.graph.edge(f"{e.name}.{i}").source == f"{e.source}.{named.pop()}"
            assert result.graph.is_source_free().ok
        # at base x, v lies off the region with its three blue edges in one block
        assert multi_edge_blocks > 0


# Λ for the rejection table: blue loops a and c and a red loop b at u, and a
# red loop d and a blue loop g at w; loops of different colors at one vertex
# commute, so Λ is a source-free 2-graph
LOOPS = {"a": (BLUE, "u", "u"), "b": (RED, "u", "u"), "c": (BLUE, "u", "u"),
         "d": (RED, "w", "w"), "g": (BLUE, "w", "w")}
# its split at u in blue, named as outsplit names copies
LOOPS_SPLIT = {
    "a.1": (BLUE, "u.1", "u.1"),
    "a.2": (BLUE, "u.1", "u.2"),
    "b.1": (RED, "u.1", "u.1"),
    "b.2": (RED, "u.2", "u.2"),
    "c.1": (BLUE, "u.2", "u.1"),
    "c.2": (BLUE, "u.2", "u.2"),
    "d.1": (RED, "w.1", "w.1"),
    "g.1": (BLUE, "w.1", "w.1"),
}


def _loops_graph(edges):
    """The 2-graph of blue and red loops in which the loops at each vertex commute."""
    skeleton = Skeleton.create(2, {source for _, source, _ in edges.values()},
                               [Edge(name, *rest) for name, rest in edges.items()])
    squares = [((red, blue), (blue, red))
               for blue, (c, v, _) in edges.items() if c == BLUE
               for red, (d, w, _) in edges.items() if d == RED and w == v]
    return build_kgraph(skeleton, SquareSet.create(skeleton, squares))


def _split_file(original, edges):
    """The graph of a split file with these edges, the squares lifted edgewise.

    Each square ``f e = g h`` of ``original`` lifts at every copy ``f.i``
    whose partner ``g.i`` exists, to ``f.i e.j = g.i h.l`` where ``f.i``
    starts at a vertex ``*.j`` and ``g.i`` at ``*.l``; the lifts are not
    checked, as a split file's squares need not be consistent.
    """
    skeleton = Skeleton.create(original.k, {v for _, s, r in edges.values() for v in (s, r)},
                               [Edge(name, *rest) for name, rest in edges.items()])
    def lift(outer, inner, i):
        top = f"{outer}.{i}"
        return top, f"{inner}.{edges[top][1].rpartition('.')[2]}"
    pairs = set()
    for (f, e), (g, h) in original.squares.pairs:
        for name in edges:
            stem, _, i = name.rpartition(".")
            if stem == f and f"{g}.{i}" in edges:
                pairs.add(tuple(sorted((lift(f, e, i), lift(g, h, i)))))
    return KGraph(skeleton, SquareSet(tuple(sorted(pairs))))


def _accepted(original, split, color, base, parents):
    """The replay of a split file holding ``split`` and a sidecar holding ``parents``,
    once :func:`check_split` accepts the two files."""
    colors = ("blue", "red", "green")[:original.k]
    result = reconstruct_split(original, split.skeleton, color, base)
    check_split(document_for_graph(original, colors), result, document_for_graph(split, colors),
                (colors[color - 1], base, parents))
    return result


def _named_parents(graph):
    """Each item's parent is its name without the copy index."""
    items = [*graph.vertices, *(e.name for e in graph.edges)]
    return {item: item.rpartition(".")[0] for item in items}


class TestReconstruction:
    def test_loops_split_is_consistent(self):
        # the unchanged table passes, so each case below fails on its one change
        original = _loops_graph(LOOPS)
        graph = _split_file(original, LOOPS_SPLIT)
        result = _accepted(original, graph, BLUE, "u", _named_parents(graph))
        assert result.counts == {"u": 2, "w": 1}
        assert result.copy_of("a", 2) == "a.2"
        assert result == outsplit(original, default_spec(original, BLUE, "u"))

    @pytest.mark.parametrize("original_extra, split_changes, parent_changes, message", [
        ({"o": (BLUE, "y", "y"), "e": (RED, "y", "y")}, {}, {}, "missing copy o.1"),
        ({}, {}, {"u.2": "w"}, "parent u.2 = u is in the split of the input but not in the files"),
        ({}, {"g.2": (BLUE, "w.1", "w.2")}, {},
         "vertex w.2 is in the files but not in the split of the input"),
        ({}, {}, {"w.1": "d"}, "parent w.1 = w is in the split of the input but not in the files"),
        ({}, {}, {"d.1": "w"}, "parent d.1 = d is in the split of the input but not in the files"),
        ({}, {"d.1": (BLUE, "w.1", "w.1")}, {},
         "edge d.1 : red w.1 -> w.1 is in the split of the input but not in the files"),
        ({}, {"a.2": (BLUE, "u.1", "u.1")}, {},
         "edge a.2 : blue u.1 -> u.2 is in the split of the input but not in the files"),
        ({}, {"c.2": (BLUE, "u.1", "u.2")}, {},
         "edge c.2 : blue u.2 -> u.2 is in the split of the input but not in the files"),
        ({}, {"c.2": None}, {},
         "edge c.2 : blue u.2 -> u.2 is in the split of the input but not in the files"),
        ({}, {"g.1": (BLUE, "w.one", "w.1")}, {}, "name 'w.one' does not end in a copy index"),
        ({}, {"g.1": (BLUE, "w.²", "w.1")}, {}, "name 'w.²' does not end in a copy index"),
    ], ids=["no-copies", "copy-names", "copy-count", "vertex-parent", "edge-parent", "color",
            "range", "source", "missing-copy", "copy-index", "non-ascii-copy-index"])
    def test_each_rejection(self, original_extra, split_changes, parent_changes, message):
        original = _loops_graph({**LOOPS, **original_extra})
        split_edges = {**LOOPS_SPLIT, **split_changes}
        graph = _split_file(original, {name: rest for name, rest in split_edges.items()
                                       if rest is not None})
        with pytest.raises(SplitError) as exc:
            _accepted(original, graph, BLUE, "u", _named_parents(graph) | parent_changes)
        assert str(exc.value) == message

    def test_copy_of(self, split_one):
        assert split_one.copy_of("v", 3) == "v.3"
        assert split_one.copy_of("b", 2) == "b.2"
        for item, index in [("v", 4), ("y", 2), ("b", 0), ("nosuch", 1)]:
            with pytest.raises(SplitError) as exc:
                split_one.copy_of(item, index)
            assert str(exc.value) == f"no copy {index} of {item!r}"

    def test_round_trip(self, split_one):
        rebuilt = _accepted(split_one.original, split_one.graph, split_one.color,
                            split_one.base, dict(split_one.parent))
        assert rebuilt == split_one

    def test_every_split_round_trips(self, split_one, split_two):
        rank_three = diagonal_double(
            ["u0", "u1"], [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"),
                           ("d", "u1", "u0")], 3)
        results = [split_one, split_two, outsplit(rank_three, default_spec(rank_three, 1, "u0"))]
        rng = random.Random(17)
        for _ in range(15):
            graph, base = random_double(rng, k=rng.choice([2, 3]))
            results.append(outsplit(graph, shuffled_spec(graph, 1, base, rng)))
        for r in results:
            assert _accepted(r.original, r.graph, r.color, r.base, dict(r.parent)) == r

    def test_squares_must_be_the_lifts(self):
        # two census graphs whose splits share every vertex and edge: each
        # split under the other's original differs first in a square, the
        # first line of the replay that the files lack
        first, second = (build_kgraph(*census)
                         for census in itertools.islice(single_vertex_graphs(2, 2), 2, 4))
        splits = [outsplit(g, default_spec(g, BLUE, "v")) for g in (first, second)]
        assert splits[0].graph.edges == splits[1].graph.edges
        cases = [(first, splits[1], "square e0.1 f1.1 = f0.1 e1.1"),
                 (second, splits[0], "square e0.1 f1.1 = f1.1 e1.2")]
        for original, split, square in cases:
            with pytest.raises(SplitError) as exc:
                _accepted(original, split.graph, BLUE, "v", dict(split.parent))
            assert str(exc.value) == f"{square} is in the split of the input but not in the files"

    def test_only_outsplits_are_accepted(self):
        # every way to reassign the sources of a (2, 2) census split's eight
        # edge copies, squares lifted edgewise, for an unpaired and a paired
        # graph: only the two block orders of outsplit pass
        graphs = [build_kgraph(*census) for census in itertools.islice(single_vertex_graphs(2, 2), 3)]
        for graph in (graphs[0], graphs[2]):
            splits = [outsplit(graph, SplitSpec(BLUE, "v", {"v": blocks}))
                      for blocks in ((("e0",), ("e1",)), (("e1",), ("e0",)))]
            edges, parents = splits[0].graph.edges, dict(splits[0].parent)
            accepted = []
            for sources in itertools.product(("v.1", "v.2"), repeat=len(edges)):
                split = _split_file(graph, {e.name: (e.color, source, e.range)
                                            for e, source in zip(edges, sources)})
                try:
                    accepted.append(_accepted(graph, split, BLUE, "v", parents))
                except SplitError:
                    pass
            assert sorted(splits.index(result) for result in accepted) == [0, 1]
        assert [pairing_report(g, BLUE).ok for g in (graphs[0], graphs[2])] == [False, True]

    def test_stored_and_derived_fields(self, split_one):
        assert [f.name for f in dataclasses.fields(split_one)] == [
            "original", "graph", "color", "base", "parent"]
        rebuilt = _accepted(split_one.original, split_one.graph, BLUE, "v", dict(split_one.parent))
        assert (rebuilt.copy_index, rebuilt.counts) == (split_one.copy_index, split_one.counts)

    def test_unknown_base_rejected(self, split_one):
        with pytest.raises(StructureError) as exc:
            _accepted(split_one.original, split_one.graph, BLUE, "nosuch", dict(split_one.parent))
        assert str(exc.value) == "unknown base vertex 'nosuch'"

    def test_inconsistencies_rejected(self, split_one):
        broken = dict(split_one.parent)
        broken["b.2"] = "c"
        with pytest.raises(SplitError):
            _accepted(split_one.original, split_one.graph, BLUE, "v", broken)
        missing = dict(split_one.parent)
        del missing["b.2"]
        with pytest.raises(SplitError) as exc:
            _accepted(split_one.original, split_one.graph, BLUE, "v", missing)
        assert str(exc.value) == "parent b.2 = b is in the split of the input but not in the files"

    @pytest.mark.parametrize("extra, unknown", [
        ({"nosuch.1": "e"}, "nosuch.1"),
        ({"nosuch.1": "v"}, "nosuch.1"),
    ])
    def test_parent_for_unknown_item_rejected(self, split_one, extra, unknown):
        with pytest.raises(SplitError) as exc:
            _accepted(split_one.original, split_one.graph, BLUE, "v", {**split_one.parent, **extra})
        assert str(exc.value) == (f"parent {unknown} = {extra[unknown]} "
                                  f"is in the files but not in the split of the input")

    def test_edge_named_off_its_parent_rejected(self):
        skeleton = Skeleton.create(1, ["v"], [Edge("a", BLUE, "v", "v"), Edge("b", BLUE, "v", "v")])
        original = build_kgraph(skeleton, SquareSet(()))
        split = outsplit(original, default_spec(original, BLUE, "v"))
        # copy 1 of a a second time, under a name that only parses as one
        extra = Edge("a.01", BLUE, "v.1", "v.1")
        graph = build_kgraph(Skeleton.create(1, split.graph.vertices, split.graph.edges + (extra,)),
                             SquareSet(()))
        parents = {**split.parent, "a.01": "a"}
        with pytest.raises(SplitError) as exc:
            _accepted(original, graph, BLUE, "v", parents)
        assert str(exc.value) == ("edge a.01 : blue v.1 -> v.1 "
                                  "is in the files but not in the split of the input")
