"""The outsplit move: region, partitions, golden outputs, path copies."""

from __future__ import annotations

import random

import pytest

from kgraphs import (
    Edge,
    Skeleton,
    SplitError,
    SplitSpec,
    SquareSet,
    StructureError,
    UnpairedError,
    build_kgraph,
    copy_counts,
    copy_path,
    default_spec,
    outsplit,
    pairing_report,
    parent_path,
    product_graph,
    reconstruct_split,
    sibling_set,
    split_region,
    validate,
    validate_spec,
)

from conftest import (
    BLUE,
    RED,
    diagonal_double,
    paper_spec,
    random_double,
    shuffled_spec,
)

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
        assert split_one.parent_edge["b.2"] == "b"
        assert split_one.parent_vertex["v.3"] == "v"
        assert split_one.copy_index["α.3"] == 3
        assert split_one.counts == {"v": 3, "x": 2, "y": 1, "z": 1}
        assert split_one.paired

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

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("color", [0, 4])
    def test_color_out_of_range(self, k, color):
        # at rank 3 the sink check would otherwise meet the color first, in
        # degree_sinks, and raise a bare ValueError
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

    def test_vertex_copies(self, split_one):
        v = split_one.original.vertex_path("v")
        assert copy_path(split_one, v, 3).source == "v.3"

    def test_unpaired_input_rejected(self, split_two):
        path = split_two.original.make_path(("b",))
        with pytest.raises(UnpairedError):
            copy_path(split_two, path, 1)

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
            parent = lam.edge(split_one.parent_edge[e.name])
            assert parent.color == e.color
            assert split_one.parent_vertex[e.source] == parent.source
            assert split_one.parent_vertex[e.range] == parent.range


class TestStructuralInvariants:
    def test_fan_in_preserved(self, split_one):
        lam, gamma = split_one.original, split_one.graph
        for gv in gamma.vertices:
            v = split_one.parent_vertex[gv]
            for c in (BLUE, RED):
                assert len(gamma.skeleton.edges_into(gv, c)) == len(
                    lam.skeleton.edges_into(v, c)
                )

    def test_copies_have_distinct_ranges(self, split_one, split_two):
        for result in (split_one, split_two):
            by_parent: dict[str, list[str]] = {}
            for e in result.graph.edges:
                by_parent.setdefault(result.parent_edge[e.name], []).append(e.range)
            for ranges in by_parent.values():
                assert len(set(ranges)) == len(ranges)

    def test_paired_split_copies_share_source(self, split_one):
        by_parent: dict[str, set[str]] = {}
        for e in split_one.graph.edges:
            by_parent.setdefault(split_one.parent_edge[e.name], set()).add(e.source)
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
                v = result.parent_vertex[gv]
                for c in range(1, k + 1):
                    assert len(result.graph.skeleton.edges_into(gv, c)) == len(
                        graph.skeleton.edges_into(v, c)
                    )

    def test_split_pairedness_observed_not_asserted(self, split_one):
        # whether the move preserves pairing is open; record the observation
        preserved = pairing_report(split_one.graph, BLUE).ok
        print(f"pairedness preserved on the worked example: {preserved}")


class TestReconstruction:
    def test_round_trip(self, split_one):
        rebuilt = reconstruct_split(
            split_one.original,
            split_one.graph,
            split_one.color,
            dict(split_one.parent_vertex),
            dict(split_one.parent_edge),
        )
        assert rebuilt.copy_index == split_one.copy_index
        assert rebuilt.counts == split_one.counts
        assert rebuilt.paired == split_one.paired

    def test_inconsistencies_rejected(self, split_one):
        parents_v = dict(split_one.parent_vertex)
        parents_e = dict(split_one.parent_edge)
        broken = dict(parents_e)
        broken["b.2"] = "c"
        with pytest.raises(SplitError):
            reconstruct_split(
                split_one.original, split_one.graph, BLUE, parents_v, broken
            )
        missing = dict(parents_e)
        del missing["b.2"]
        with pytest.raises(SplitError, match="no parent"):
            reconstruct_split(
                split_one.original, split_one.graph, BLUE, parents_v, missing
            )

    @pytest.mark.parametrize("vertex_extra, edge_extra, unknown", [
        ({}, {"nosuch.1": "e"}, "nosuch.1"),
        ({"nosuch.1": "v"}, {}, "nosuch.1"),
        # a key names an item of the other kind
        ({"b.1": "b"}, {}, "b.1"),
        ({}, {"v.1": "v"}, "v.1"),
    ])
    def test_parent_for_unknown_item_rejected(self, split_one, vertex_extra, edge_extra, unknown):
        with pytest.raises(SplitError) as exc:
            reconstruct_split(split_one.original, split_one.graph, BLUE,
                              {**split_one.parent_vertex, **vertex_extra},
                              {**split_one.parent_edge, **edge_extra})
        assert str(exc.value) == f"parent line for unknown item {unknown!r}"

    def test_edge_named_off_its_parent_rejected(self):
        skeleton = Skeleton.create(1, ["v"], [Edge("a", BLUE, "v", "v"), Edge("b", BLUE, "v", "v")])
        original = build_kgraph(skeleton, SquareSet(()))
        split = outsplit(original, default_spec(original, BLUE, "v"))
        # copy 1 of a a second time, under a name that only parses as one
        extra = Edge("a.01", BLUE, "v.1", "v.1")
        graph = build_kgraph(Skeleton.create(1, split.graph.vertices, split.graph.edges + (extra,)),
                             SquareSet(()))
        parents_e = {**split.parent_edge, "a.01": "a"}
        with pytest.raises(SplitError, match=r"edge 'a\.01' is not named a\.<copy index>"):
            reconstruct_split(original, graph, BLUE, dict(split.parent_vertex), parents_e)
