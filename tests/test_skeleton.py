"""Skeleton data model, axiom validation, normal forms, enumeration."""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import (
    Edge,
    KGraph,
    KGraphInvalid,
    Skeleton,
    SquareSet,
    StructureError,
    build_kgraph,
    degrees_with_total,
    product_graph,
    validate,
)
from kgraphs.fileformat import parse
from kgraphs.skeleton import (
    HexagonFailure,
    ValidationReport,
    difference,
    factor,
    format_degree,
    join,
)

from conftest import BLUE, DATA, RED, SQUARES_ONE, lambda_skeleton, random_double


class TestDegree:
    def test_monoid_operations(self):
        a, b = (1, 2), (3, 0)
        assert join(a, b) == (3, 2)
        assert difference(join(a, b), a) == (2, 0)
        assert difference(a, b) == (-2, 2)
        assert format_degree((1, 0)) == "(1,0)"

    def test_negative_components_rejected(self, lambda_one):
        with pytest.raises(ValueError, match="negative"):
            lambda_one.paths_with_range("v", (1, -1))
        with pytest.raises(ValueError, match="wrong rank"):
            lambda_one.paths_with_range("v", (1, 0, 0))

    @pytest.mark.parametrize("k,total", [(1, 5), (2, 3), (3, 4)])
    def test_enumeration_count(self, k, total):
        found = list(degrees_with_total(k, total))
        import math

        assert len(found) == math.comb(total + k - 1, k - 1)
        assert all(sum(d) == total for d in found)
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

    def test_id_shared_by_a_vertex_and_an_edge(self):
        with pytest.raises(StructureError) as exc:
            Skeleton.create(1, ["v"], [Edge("v", 1, "v", "v")])
        assert str(exc.value) == "id 'v' used for both a vertex and an edge"


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

    def test_second_side_not_composable_rejected(self):
        # b after a composes at p, but c (at q) cannot follow d (into p)
        sk = Skeleton.create(2, ["p", "q"], [Edge("a", 1, "p", "p"), Edge("b", 2, "p", "p"),
                                             Edge("c", 1, "q", "q"), Edge("d", 2, "p", "p")])
        with pytest.raises(StructureError) as exc:
            SquareSet.create(sk, [(("b", "a"), ("c", "d"))])
        assert str(exc.value) == "square b a = c d: c after d is not composable"

    def test_endpoint_mismatch_rejected(self):
        sk = lambda_skeleton()
        # βα runs v -> v, kb runs v -> y
        with pytest.raises(StructureError, match="different endpoints"):
            SquareSet.create(sk, [(("β", "α"), ("k", "b"))])

    @pytest.mark.parametrize("pair", [(("e", "zz"), ("qq", "b")), (("e", "h"), ("zz", "qq"))])
    def test_unknown_edge_rejected(self, pair):
        # the first unknown id in the order f, e, g, h is named
        with pytest.raises(StructureError, match="unknown edge 'zz'"):
            SquareSet.create(lambda_skeleton(), [pair])

    def test_partner_tables_of_raw_pairs(self):
        # built directly, so nothing is deduplicated or put in canonical order
        a, b, c, d, x = ("a1", "b1"), ("a2", "b2"), ("a3", "b3"), ("a4", "b4"), ("x", "y")
        pairs = ((a, b), (a, b), (b, a), (c, a), (d, x), (c, a))
        squares = SquareSet(pairs)
        expected = {a: (b, c), b: (a,), c: (a,), d: (x,), x: (d,)}
        assert squares.partner_table == expected == _partners_from_pairs(pairs)
        assert squares.swap_map == {b: a, c: a, d: x, x: d}
        assert SquareSet(pairs[3:5]).swap_map == {c: a, a: c, d: x, x: d}


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

    @pytest.mark.parametrize(
        "dropped, unmatched, failures, first",
        [
            (
                None,
                0,
                36,
                "hexagon: 3-path a3 a2 a1 disagrees: "
                "route 1 [a3 a2 ~ a2 a3; a3 a1 ~ a1 a3; a2 a1 ~ b1 a2] gives b1 a2 a3, "
                "route 2 [a2 a1 ~ b1 a2; a3 b1 ~ a1 b3; b3 a2 ~ b2 a3] gives a1 b2 a3",
            ),
            (
                (("a1", "a3"), ("a3", "a1")),
                2,
                15,
                "hexagon: 3-path b3 b2 a1 disagrees: "
                "route 1 [b3 b2 ~ b2 b3; b3 a1 ~ b1 a3; b2 b1 ~ b1 b2] gives b1 b2 a3, "
                "route 2 [b2 a1 ~ a1 a2; b3 a1 ~ b1 a3; a3 a2 ~ a2 a3] gives b1 a2 a3",
            ),
        ],
        ids=["twisted", "twisted-without-a1a3"],
    )
    def test_kg3_failure_is_reported(self, dropped, unmatched, failures, first):
        # three loops at one vertex, with one hexagon deliberately broken by
        # pairing the 1-2 swap of (a1, a2) against the wrong partner; with a
        # square dropped too, the 3-paths needing its swaps are left to the
        # completeness report and the others are still checked
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
            if (s1, s2) == dropped:
                continue
            twisted.append((s1, s2))
        twisted.append((("a1", "a2"), ("b2", "a1")))
        twisted.append((("b1", "a2"), ("a2", "a1")))
        report = validate(sk, SquareSet.create(sk, twisted))
        assert len(report.unmatched) == unmatched and not report.ambiguous
        assert len(report.hexagon_failures) == failures
        assert [line for line in report.lines() if line.startswith("hexagon:")][0] == first

    @pytest.mark.parametrize("k, cases", [(3, 150), (4, 200)])
    def test_report_matches_a_sweep_of_every_three_path(self, k, cases):
        # validate re-checks only 3-paths near a bad side or a failing
        # ascending 3-path; the reference checks all of them every time
        complete_with_failures = failures_without_color_one = 0
        for seed in range(cases):
            graph, squares, reference = _oracle_case(seed, k, max_vertices=3)
            assert validate(graph.skeleton, squares).lines() == reference.lines(), seed
            if reference.hexagon_failures and not (reference.unmatched or reference.ambiguous):
                complete_with_failures += 1
                failures_without_color_one += all(
                    graph.edge(name).color != 1
                    for failure in reference.hexagon_failures for name in failure.triple
                )
        assert complete_with_failures >= 10
        if k == 4:  # only colors 2-4 fail: an ascending sweep must not skip that triple
            assert failures_without_color_one

    @pytest.mark.parametrize("seeds", [range(300, 400), range(900, 1000)],
                             ids=["seeds-300-399", "seeds-900-999"])
    def test_failures_five_moves_from_a_bad_point(self, seeds):
        # seeds 339 and 957 each leave a failing 3-path that no walk of four
        # moves from a bad point reaches, and no walk of three moves from a
        # failing ascending 3-path
        for seed in seeds:
            graph, squares, reference = _oracle_case(seed, 4, max_vertices=4)
            assert validate(graph.skeleton, squares).lines() == reference.lines(), seed

    def test_product_scale_report_matches_the_reference(self):
        # four 3-cycles; the first has an edge x parallel to s0, so each
        # square through s0 has a twin through x
        graph = product_graph([_cycle(f"f{i}_", 3, parallel=(i == 0)) for i in range(4)])
        assert validate(graph.skeleton, graph.squares).summary() == "valid k-graph"

        def twin(side):
            return tuple(name.replace("f0_s0~", "f0_x~") for name in side)

        pairs = list(graph.squares.pairs)
        rng = random.Random(5)
        for _ in range(len(pairs) // 50 + 1):  # drop over 2% of the squares
            del pairs[rng.randrange(len(pairs))]
        kept = set(pairs)
        with_twin = [(s, t) for s, t in pairs if s != twin(s) and (twin(s), twin(t)) in kept]
        s, t = with_twin[0]  # one conflicting pair
        pairs.append((s, twin(t)))
        s, t = with_twin[-1]  # one square and its twin exchange partners
        pairs.remove((s, t))
        pairs.remove((twin(s), twin(t)))
        pairs += [(s, twin(t)), (twin(s), t)]
        squares = SquareSet.create(graph.skeleton, pairs)
        reference = _reference_report(graph.skeleton, squares)
        assert reference.unmatched and reference.ambiguous and reference.hexagon_failures
        assert validate(graph.skeleton, squares).lines() == reference.lines()


def _partners_from_pairs(pairs) -> dict:
    """Every side of the pairs mapped to its distinct partners, sorted."""
    found = defaultdict(set)
    for s1, s2 in pairs:
        found[s1].add(s2)
        found[s2].add(s1)
    return {side: tuple(sorted(partners)) for side, partners in found.items()}


def _reference_report(skeleton: Skeleton, squares: SquareSet) -> ValidationReport:
    """``validate``'s report from the raw pairs, with a hexagon check on every 3-path."""
    table = _partners_from_pairs(squares.pairs)
    report = ValidationReport()
    for inner in skeleton.edges:
        for outer in skeleton.edges_from(inner.range):
            side = (outer.name, inner.name)
            partners = table.get(side, ())
            if outer.color == inner.color or len(partners) == 1:
                continue
            if partners:
                report.ambiguous.append((side, partners))
            else:
                report.unmatched.append(side)
    if skeleton.k < 3:
        return report
    swap = {side: partners[0] for side, partners in table.items() if len(partners) == 1}
    for inner in skeleton.edges:
        for mid in skeleton.edges_from(inner.range):
            for outer in skeleton.edges_from(mid.range):
                if len({inner.color, mid.color, outer.color}) < 3:
                    continue
                a, b, c = outer.name, mid.name, inner.name
                try:
                    d, e = swap[a, b]
                    f, g = swap[e, c]
                    h, j = swap[d, f]
                    k, m = swap[b, c]
                    n, p = swap[a, k]
                    r, q = swap[p, m]
                except KeyError:
                    continue
                if (h, j, g) != (n, r, q):
                    report.hexagon_failures.append(
                        HexagonFailure((a, b, c), (d, e, f, g, h, j), (k, m, n, p, r, q)))
    return report


def _oracle_case(seed: int, k: int, max_vertices: int):
    """A seeded double with mutated squares: the graph, the squares and the reference report."""
    rng = random.Random(seed)
    graph, _ = random_double(rng, k=k, max_vertices=max_vertices)
    # in a double, a twist in colors i and j breaks every triple with
    # both; without one color, some failures avoid that color
    gone = rng.choice((None, 1, 2, 3, 4)) if k == 4 else None
    if gone:
        graph = _without_color(graph, gone)
    squares = _mutated_squares(rng, graph)
    return graph, squares, _reference_report(graph.skeleton, squares)


def _cycle(tag: str, n: int, parallel: bool = False) -> Skeleton:
    """A 1-colored n-cycle of edges ``s0, s1, ...``; with ``parallel``, an edge ``x`` beside ``s0``."""
    edges = [Edge(f"{tag}s{i}", 1, f"{tag}{i}", f"{tag}{(i + 1) % n}") for i in range(n)]
    if parallel:
        edges.append(Edge(f"{tag}x", 1, f"{tag}0", f"{tag}1"))
    return Skeleton.create(1, [f"{tag}{i}" for i in range(n)], edges)


def _without_color(graph: KGraph, color: int) -> KGraph:
    """The same graph with every edge of one color, and every square using one, removed."""
    edges = [e for e in graph.edges if e.color != color]
    kept = {e.name for e in edges}
    skeleton = Skeleton.create(graph.k, graph.vertices, edges)
    pairs = [pair for pair in graph.squares.pairs if kept.issuperset(pair[0] + pair[1])]
    return KGraph(skeleton, SquareSet.create(skeleton, pairs))


def _mutated_squares(rng: random.Random, graph: KGraph) -> SquareSet:
    """The graph's squares after 1-4 twists, drops or conflicting additions."""
    skeleton = graph.skeleton

    def kind(side):
        outer, inner = skeleton.edge(side[0]), skeleton.edge(side[1])
        return outer.color, inner.color, inner.source, outer.range

    sides = defaultdict(list)
    for inner in skeleton.edges:
        for outer in skeleton.edges_from(inner.range):
            if outer.color != inner.color:
                sides[kind((outer.name, inner.name))].append((outer.name, inner.name))
    pairs = list(graph.squares.pairs)
    for _ in range(rng.randint(1, 4)):
        how = rng.choice(("twist", "drop", "conflict"))
        i = rng.randrange(len(pairs))
        s, t = pairs[i]
        if how == "drop":
            del pairs[i]
        elif how == "conflict":
            others = [u for u in sides[kind(t)] if u != t]
            if others:
                pairs.append((s, rng.choice(others)))
        else:  # swap the partners of two squares of one (colors, endpoints) class
            mates = [(s2, t2) if kind(s2) == kind(s) else (t2, s2)
                     for j, (s2, t2) in enumerate(pairs)
                     if j != i and kind(s) in (kind(s2), kind(t2))]
            mates = [(s2, t2) for s2, t2 in mates if s2 != s and t2 != t]
            if mates:
                s2, t2 = rng.choice(mates)
                pairs.remove((s2, t2) if (s2, t2) in pairs else (t2, s2))
                pairs[pairs.index((s, t))] = (s, t2)
                pairs.append((s2, t))
    return SquareSet.create(skeleton, pairs)


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

    def test_a_normal_path_comes_back_itself(self, lambda_one):
        graph = KGraph(lambda_one.skeleton, lambda_one.squares)  # empty caches
        normal = [p for v in graph.vertices for d in [(1, 1), (2, 1), (0, 2)]
                  for p in graph.paths_with_range(v, d)]
        assert normal
        for p in normal:
            assert graph.normal_form(p) is p  # a miss
            assert graph.normal_form(p) is p  # a hit

    def test_a_cache_hit_allocates_nothing(self, lambda_one):
        kb = lambda_one.make_path(("b", "k"))
        first = lambda_one.normal_form(kb)
        assert first.edges == ("h", "e")
        assert lambda_one.normal_form(kb) is first
        assert lambda_one.normal_form(lambda_one.make_path(("b", "k"))) is first

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_extend_is_the_normal_form_of_the_composite(self, source):
        if source == "random_double":
            graph, _ = random_double(random.Random(5), k=3, max_vertices=3)
        else:
            graph = parse((DATA / source).read_text(encoding="utf-8")).build()
        # a second graph keeps its own normal-form cache, shared with no call of extend
        reference = KGraph(graph.skeleton, graph.squares)
        normal = [p for total in range(4) for d in degrees_with_total(graph.k, total)
                  for v in graph.vertices for p in graph.paths_with_range(v, d)]
        pairs = 0
        for p in normal:
            for alpha in normal:
                if alpha.range == p.source and len(p.edges) + len(alpha.edges) <= 3:
                    expected = reference.normal_form(reference.compose(p, alpha))
                    assert graph.extend(p, alpha) == expected
                    pairs += 1
        assert pairs > len(graph.vertices)
        edge = graph.make_path((graph.edges[0].name,))
        for v in graph.vertices:
            if v != edge.source:
                with pytest.raises(StructureError, match="do not compose"):
                    graph.extend(edge, graph.vertex_path(v))

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_factor_at_a_zero_tail_degree(self, source):
        if source == "random_double":
            graph, _ = random_double(random.Random(5), k=3, max_vertices=3)
        else:
            graph = parse((DATA / source).read_text(encoding="utf-8")).build()
        reference = KGraph(graph.skeleton, graph.squares)
        zero = (0,) * graph.k
        # every path of total length at most 3, normal or not
        layers = [[graph.vertex_path(v) for v in graph.vertices]]
        for _ in range(3):
            layers.append([graph.compose(graph.make_path((e.name,)), p)
                           for p in layers[-1] for e in graph.skeleton.edges_from(p.range)])
        paths = [p for layer in layers for p in layer]
        assert len(layers[3]) > len(graph.edges)
        assert any(reference.normal_form(p) != p for p in paths)
        for p in paths:
            assert factor(graph, p, zero) == (reference.normal_form(p), graph.vertex_path(p.source))

    def test_factor_needs_a_dominated_degree(self, lambda_one):
        with pytest.raises(ValueError) as exc:
            factor(lambda_one, lambda_one.make_path(("h",)), (0, 1))
        assert str(exc.value) == "cannot factor degree (1,0) with first part (0,1)"

    def test_factor_recovers_prefixes(self, lambda_one):
        rng = random.Random(13)
        for _ in range(100):
            path = lambda_one.normal_form(_random_path(lambda_one, rng, max_len=4))
            split = tuple(rng.randint(0, c) for c in path.degree)
            head, tail = factor(lambda_one, path, split)
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

    raw = []
    for edges in walk(v, sum(degree)):
        counts = [0] * graph.k
        for name in edges:
            counts[graph.edge(name).color - 1] += 1
        if tuple(counts) == degree:
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
        for v in lambda_one.vertices:
            classes = brute_force_classes(lambda_one, v, degree)
            enumerated = lambda_one.paths_with_range(v, degree)
            assert len(enumerated) == len(classes)
            for cls in classes:
                normals = {
                    lambda_one.normal_form(lambda_one.make_path(edges)).edges for edges in cls
                }
                assert len(normals) == 1
                assert normals.pop() in {p.edges for p in enumerated}

    def test_oracle_on_split_graph(self, split_one):
        gamma = split_one.graph
        deg = (1, 1)
        for v in gamma.vertices:
            classes = brute_force_classes(gamma, v, deg)
            assert len(gamma.paths_with_range(v, deg)) == len(classes)

    def test_frozen_values(self, lambda_one):
        # the only rainbow class into v is "β after α"
        assert [p.edges for p in lambda_one.rainbow_paths_into("v")] == [("α", "β")]
        assert len(lambda_one.rainbow_paths_into("z")) == 5
        assert lambda_one.paths_with_range("v", (0, 0)) == (lambda_one.vertex_path("v"),)

    def test_unknown_vertex(self, lambda_one):
        with pytest.raises(StructureError, match="unknown vertex"):
            lambda_one.paths_with_range("q", (1, 0))

    @pytest.mark.parametrize("build, error, message", [
        (lambda g: g.vertex_path("q"), StructureError, "unknown vertex 'q'"),
        (lambda g: g.make_path(()), ValueError,
         "a path needs at least one edge; use vertex_path for vertices"),
        (lambda g: g.make_path(("n", "h")), StructureError,
         "edges n and h do not compose: range z != source v"),
    ], ids=["unknown-vertex", "empty", "not-composable"])
    def test_path_construction_errors(self, lambda_one, build, error, message):
        with pytest.raises(error) as exc:
            build(lambda_one)
        assert str(exc.value) == message

    def test_sorted_deterministically(self, lambda_one):
        paths = lambda_one.paths_with_range("z", (1, 1))
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

    def test_single_factor_is_itself(self):
        graph = product_graph([_loop("p")])
        assert (graph.k, graph.vertices, graph.squares.pairs) == (1, ("p",), ())
        assert graph.edges == (Edge("ploop", 1, "p", "p"),)

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

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3]))
    def test_random_products_always_validate(self, seed, k):
        rng = random.Random(seed)
        from conftest import random_one_skeleton

        factors = [random_one_skeleton(rng, f"f{i}_") for i in range(k)]
        graph = product_graph(factors)
        assert graph.is_source_free().ok
        assert validate(graph.skeleton, graph.squares).ok
