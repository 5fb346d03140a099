"""Skeleton data model, axiom validation, normal forms, enumeration."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import (
    Degree,
    Edge,
    KGraphInvalid,
    Skeleton,
    SquareSet,
    StructureError,
    build_kgraph,
    degrees_with_total,
    product_graph,
    validate,
)

from conftest import BLUE, RED, SQUARES_ONE, lambda_skeleton


class TestDegree:
    def test_monoid_operations(self):
        a, b = Degree((1, 2)), Degree((3, 0))
        assert a + b == Degree((4, 2))
        assert (a + b).total == 6
        assert a.join(b) == Degree((3, 2))
        assert (a.join(b) - a) == Degree((2, 0))
        assert a.signed_difference(b) == (-2, 2)
        assert Degree.basis(3, 2) == Degree((0, 1, 0))
        assert Degree.ones(2) == Degree((1, 1))

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Degree((1, -1))
        with pytest.raises(ValueError):
            Degree((0, 1)) - Degree((1, 0))

    @pytest.mark.parametrize("k,total", [(1, 5), (2, 3), (3, 4)])
    def test_enumeration_count(self, k, total):
        found = list(degrees_with_total(k, total))
        import math

        assert len(found) == math.comb(total + k - 1, k - 1)
        assert all(d.total == total for d in found)
        assert len(set(found)) == len(found)


class TestSkeletonStructure:
    def test_duplicate_vertex(self):
        with pytest.raises(StructureError, match="duplicate vertex"):
            Skeleton.create(1, ["v", "v"], [])

    def test_duplicate_edge(self):
        edges = [Edge("a", 1, "v", "v"), Edge("a", 1, "v", "v")]
        with pytest.raises(StructureError, match="duplicate edge"):
            Skeleton.create(1, ["v"], edges)

    def test_undeclared_endpoint(self):
        with pytest.raises(StructureError, match="undeclared vertex"):
            Skeleton.create(1, ["v"], [Edge("a", 1, "v", "w")])

    def test_bad_color(self):
        with pytest.raises(StructureError, match="color"):
            Skeleton.create(2, ["v"], [Edge("a", 3, "v", "v")])

    def test_bad_rank(self):
        with pytest.raises(StructureError, match="k must be"):
            Skeleton.create(0, [], [])


class TestSquareStructure:
    def test_monochrome_side_rejected(self):
        sk = lambda_skeleton()
        with pytest.raises(StructureError, match="bicolored"):
            SquareSet.create(sk, [(("β", "β"), ("α", "α"))])

    def test_degree_violation_rejected(self):
        sk = lambda_skeleton()
        with pytest.raises(StructureError, match="square e h = k k"):
            SquareSet.create(sk, [(("e", "h"), ("k", "k"))])

    def test_unswapped_colors_rejected(self):
        # bicolored on both sides but the colors do not swap across them
        sk = Skeleton.create(3, ["p"], [Edge(f"a{c}", c, "p", "p") for c in (1, 2, 3)])
        with pytest.raises(StructureError, match="colors must swap"):
            SquareSet.create(sk, [(("a2", "a1"), ("a3", "a1"))])

    def test_non_composable_side_rejected(self):
        sk = lambda_skeleton()
        with pytest.raises(StructureError, match="not composable"):
            SquareSet.create(sk, [(("e", "α"), ("k", "b"))])

    def test_endpoint_mismatch_rejected(self):
        sk = lambda_skeleton()
        # βα runs v -> v, kb runs v -> y
        with pytest.raises(StructureError, match="different endpoints"):
            SquareSet.create(sk, [(("β", "α"), ("k", "b"))])


class TestValidation:
    def test_lambda_one_is_valid(self, lambda_one):
        assert len(lambda_one.vertices) == 4
        assert len(lambda_one.edges) == 12
        assert len(lambda_one.squares.pairs) == 8

    def test_one_color_no_squares_is_valid(self):
        sk = Skeleton.create(1, ["v"], [Edge("a", 1, "v", "v")])
        graph = build_kgraph(sk, SquareSet(()))
        assert graph.is_source_free().ok

    def test_deleted_square_reports_both_orphans(self):
        sk = lambda_skeleton()
        kept = [pair for pair in SQUARES_ONE if pair != (("f", "h"), ("ℓ", "b"))]
        report = validate(sk, SquareSet.create(sk, kept))
        assert not report.ok
        assert ("f", "h") in report.unmatched
        assert ("ℓ", "b") in report.unmatched
        assert len(report.unmatched) == 2
        with pytest.raises(KGraphInvalid):
            build_kgraph(sk, SquareSet.create(sk, kept))

    def test_conflicting_square_reports_ambiguity(self):
        sk = lambda_skeleton()
        extra = SQUARES_ONE + [(("f", "h"), ("n", "c"))]
        report = validate(sk, SquareSet.create(sk, extra))
        assert not report.ok
        assert any(side == ("f", "h") for side, _ in report.ambiguous)

    def test_kg3_failure_is_reported(self):
        # three loops at one vertex, with one hexagon deliberately broken by
        # pairing the 1-2 swap of (a1, a2) against the wrong partner
        vertices = ["p"]
        edges = [Edge(f"a{c}", c, "p", "p") for c in (1, 2, 3)]
        edges.append(Edge("b1", 1, "p", "p"))
        edges.append(Edge("b2", 2, "p", "p"))
        edges.append(Edge("b3", 3, "p", "p"))
        sk = Skeleton.create(3, vertices, edges)
        pairs = []
        for i, j in itertools.combinations((1, 2, 3), 2):
            for inner in (f"a{j}", f"b{j}"):
                for outer in (f"a{i}", f"b{i}"):
                    partner_outer = outer.replace(str(i), str(j))
                    partner_inner = inner.replace(str(j), str(i))
                    pairs.append(((outer, inner), (partner_outer, partner_inner)))
        good = validate(sk, SquareSet.create(sk, pairs))
        assert good.ok
        twisted = []
        for (s1, s2) in pairs:
            if {s1, s2} == {("a1", "a2"), ("a2", "a1")}:
                continue
            if {s1, s2} == {("b1", "a2"), ("b2", "a1")}:
                continue
            twisted.append((s1, s2))
        twisted.append((("a1", "a2"), ("b2", "a1")))
        twisted.append((("b1", "a2"), ("a2", "a1")))
        report = validate(sk, SquareSet.create(sk, twisted))
        assert not report.unmatched and not report.ambiguous
        assert report.hexagon_failures
        failure = report.hexagon_failures[0]
        assert len(failure.route1_steps) == 3 and len(failure.route2_steps) == 3


class TestSwap:
    def test_worked_examples(self, lambda_one):
        assert lambda_one.swap("e", "h") == ("k", "b")
        assert lambda_one.swap("k", "b") == ("e", "h")
        assert lambda_one.swap("m", "ℓ") == ("n", "f")

    def test_same_color_rejected(self, lambda_one):
        with pytest.raises(StructureError, match="bicolored"):
            lambda_one.swap("n", "ℓ")
        with pytest.raises(StructureError, match="not a path"):
            lambda_one.swap("e", "α")

    def test_swap_is_an_involution_on_all_two_paths(self, lambda_one):
        count = 0
        for inner in lambda_one.edges:
            for outer in lambda_one.skeleton.edges_from(inner.range):
                if outer.color == inner.color:
                    continue
                partner = lambda_one.swap(outer.name, inner.name)
                assert lambda_one.swap(*partner) == (outer.name, inner.name)
                count += 1
        assert count == 16

    def test_swap_bijection_on_random_graphs(self):
        from conftest import random_double

        rng = random.Random(29)
        for _ in range(10):
            graph, _ = random_double(rng, k=rng.choice([2, 3]), max_vertices=4)
            for inner in graph.edges:
                for outer in graph.skeleton.edges_from(inner.range):
                    if outer.color == inner.color:
                        continue
                    po, pi = graph.swap(outer.name, inner.name)
                    assert graph.swap(po, pi) == (outer.name, inner.name)
                    eo, ei = graph.edge(po), graph.edge(pi)
                    assert (eo.color, ei.color) == (inner.color, outer.color)
                    assert ei.source == graph.edge(inner.name).source
                    assert eo.range == graph.edge(outer.name).range


class TestNormalForm:
    def test_worked_rewrites(self, lambda_one):
        kb = lambda_one.make_path(("b", "k"))
        assert lambda_one.normal_form(kb).edges == ("h", "e")
        nc = lambda_one.make_path(("c", "n"))
        assert lambda_one.normal_form(nc).edges == ("i", "m")
        single = lambda_one.make_path(("f",))
        assert lambda_one.normal_form(single) == single

    def test_display_orientation(self, lambda_one):
        # juxtaposition is right-to-left: first-traversed edge prints last
        assert str(lambda_one.make_path(("h", "e"))) == "e·h"
        assert str(lambda_one.vertex_path("v")) == "v"

    def test_idempotent_and_invariant_preserving(self, lambda_one):
        rng = random.Random(7)
        for _ in range(200):
            path = _random_path(lambda_one, rng, max_len=5)
            nf = lambda_one.normal_form(path)
            assert lambda_one.normal_form(nf) == nf
            assert (nf.source, nf.range, nf.degree) == (path.source, path.range, path.degree)
            colors = [lambda_one.edge(e).color for e in nf.edges]
            assert colors == sorted(colors)

    def test_concatenation_depends_only_on_classes(self, lambda_one):
        rng = random.Random(11)
        for _ in range(200):
            left = _random_path(lambda_one, rng, max_len=3)
            right = _random_path_into(lambda_one, left.source, rng, max_len=3)
            direct = lambda_one.normal_form(lambda_one.compose(left, right))
            via_nf = lambda_one.normal_form(
                lambda_one.compose(lambda_one.normal_form(left), lambda_one.normal_form(right))
            )
            assert direct == via_nf

    def test_rearrange_to_arbitrary_word(self, lambda_one):
        path = lambda_one.make_path(("α", "h", "e"))  # blue blue red
        arranged = lambda_one.rearrange(path, (1, 2, 1))
        assert [lambda_one.edge(e).color for e in arranged.edges] == [1, 2, 1]
        assert lambda_one.normal_form(arranged).edges == ("α", "h", "e")
        with pytest.raises(ValueError, match="color word"):
            lambda_one.rearrange(path, (2, 2, 1))

    def test_factor_recovers_prefixes(self, lambda_one):
        rng = random.Random(13)
        for _ in range(100):
            path = lambda_one.normal_form(_random_path(lambda_one, rng, max_len=4))
            split = Degree(tuple(rng.randint(0, c) for c in path.degree.components))
            head, tail = lambda_one.factor(path, split)
            assert tail.degree == split
            assert (tail.source, head.range) == (path.source, path.range)
            recombined = lambda_one.normal_form(lambda_one.compose(head, tail))
            assert recombined == path


def _random_path(graph, rng, max_len):
    v = rng.choice(graph.vertices)
    return _random_path_into(graph, v, rng, max_len)


def _random_path_into(graph, v, rng, max_len):
    length = rng.randint(0, max_len)
    names = []
    current = v
    for _ in range(length):
        options = graph.skeleton.edges_into(current)
        if not options:
            break
        e = rng.choice(options)
        names.append(e.name)
        current = e.source
    if not names:
        return graph.vertex_path(v)
    return graph.make_path(tuple(reversed(names)))


def brute_force_classes(graph, v, degree):
    """Independent oracle: raw edge paths into v grouped by square rewriting."""

    def walk(vertex, remaining):
        if remaining == 0:
            yield ()
            return
        for e in graph.skeleton.edges_into(vertex):
            for rest in walk(e.source, remaining - 1):
                yield rest + (e.name,)

    wanted = degree.components
    raw = []
    for edges in walk(v, degree.total):
        counts = [0] * graph.k
        for name in edges:
            counts[graph.edge(name).color - 1] += 1
        if tuple(counts) == wanted:
            raw.append(edges)
    classes = []
    seen = set()
    for start in raw:
        if start in seen:
            continue
        cls = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for idx in range(len(cur) - 1):
                first, second = cur[idx], cur[idx + 1]
                if graph.edge(first).color == graph.edge(second).color:
                    continue
                outer, inner = graph.swap(second, first)
                alt = cur[:idx] + (inner, outer) + cur[idx + 2 :]
                if alt not in cls:
                    cls.add(alt)
                    queue.append(alt)
        seen |= cls
        classes.append(cls)
    return classes


class TestPathEnumeration:
    @pytest.mark.parametrize("degree", [(1, 1), (2, 1), (0, 2), (2, 2)])
    def test_against_rewriting_oracle(self, lambda_one, degree):
        deg = Degree(degree)
        for v in lambda_one.vertices:
            classes = brute_force_classes(lambda_one, v, deg)
            enumerated = lambda_one.paths_with_range(v, deg)
            assert len(enumerated) == len(classes)
            for cls in classes:
                normals = {
                    lambda_one.normal_form(lambda_one.make_path(edges)).edges for edges in cls
                }
                assert len(normals) == 1
                assert normals.pop() in {p.edges for p in enumerated}

    def test_oracle_on_split_graph(self, split_one):
        gamma = split_one.graph
        deg = Degree((1, 1))
        for v in gamma.vertices:
            classes = brute_force_classes(gamma, v, deg)
            assert len(gamma.paths_with_range(v, deg)) == len(classes)

    def test_frozen_values(self, lambda_one):
        # the only rainbow class into v is "β after α"
        assert [p.edges for p in lambda_one.rainbow_paths_into("v")] == [("α", "β")]
        assert len(lambda_one.rainbow_paths_into("z")) == 5
        assert lambda_one.paths_with_range("v", Degree((0, 0))) == (lambda_one.vertex_path("v"),)

    def test_unknown_vertex(self, lambda_one):
        with pytest.raises(StructureError, match="unknown vertex"):
            lambda_one.paths_with_range("q", Degree((1, 0)))

    def test_sorted_deterministically(self, lambda_one):
        paths = lambda_one.paths_with_range("z", Degree((1, 1)))
        assert [p.edges for p in paths] == sorted(p.edges for p in paths)


class TestVertexProperties:
    def test_source_free_examples(self, lambda_one, lambda_two):
        assert lambda_one.is_source_free().ok
        assert lambda_two.is_source_free().ok
        lonely = build_kgraph(Skeleton.create(1, ["v"], []), SquareSet(()))
        free = lonely.is_source_free()
        assert not free.ok and free.witnesses == (("v", 1),)

    def test_degree_sinks(self, lambda_one):
        assert lambda_one.degree_sinks(BLUE) == ("y",)
        assert lambda_one.degree_sinks(RED) == ("y",)
        cycle = build_kgraph(
            Skeleton.create(1, ["p", "q"], [Edge("a", 1, "p", "q"), Edge("b", 1, "q", "p")]),
            SquareSet(()),
        )
        assert cycle.degree_sinks(1) == ()
        with pytest.raises(ValueError, match="color"):
            lambda_one.degree_sinks(3)


def _loop(tag: str) -> Skeleton:
    return Skeleton.create(1, [f"{tag}"], [Edge(f"{tag}loop", 1, tag, tag)])


class TestProductGraph:
    def test_two_loops(self):
        graph = product_graph([_loop("p"), _loop("q")])
        assert len(graph.vertices) == 1
        assert len(graph.edges) == 2
        assert len(graph.squares.pairs) == 1
        assert graph.is_source_free().ok

    def test_loop_times_two_cycle(self):
        cycle = Skeleton.create(
            1, ["q1", "q2"], [Edge("c1", 1, "q1", "q2"), Edge("c2", 1, "q2", "q1")]
        )
        graph = product_graph([_loop("p"), cycle])
        assert len(graph.vertices) == 2
        assert len(graph.squares.pairs) == 2
        # the color swap pairs exactly one square through each vertex
        ranges = sorted(
            graph.edge(s1[0]).range for s1, _ in graph.squares.pairs
        )
        assert ranges == sorted(graph.vertices)

    def test_three_loops_satisfies_hexagon(self):
        graph = product_graph([_loop("p"), _loop("q"), _loop("r")])
        assert graph.k == 3
        assert len(graph.edges) == 3
        assert graph.is_source_free().ok

    def test_errors(self):
        with pytest.raises(StructureError, match="empty"):
            product_graph([_loop("p"), Skeleton.create(1, [], [])])
        with pytest.raises(StructureError, match="source-free"):
            product_graph([_loop("p"), Skeleton.create(1, ["q"], [])])
        with pytest.raises(StructureError, match="1-colored"):
            product_graph([lambda_skeleton()])
        with pytest.raises(ValueError, match="at least one"):
            product_graph([])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3]))
    def test_random_products_always_validate(self, seed, k):
        rng = random.Random(seed)
        from conftest import random_one_skeleton

        factors = [random_one_skeleton(rng, f"f{i}_") for i in range(k)]
        graph = product_graph(factors)
        assert graph.is_source_free().ok
        assert validate(graph.skeleton, graph.squares).ok
