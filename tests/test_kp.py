"""Exact algebra engine: products, equality, the induced family, saturation."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from kgraphs import (
    Degree,
    Edge,
    GaussianRational,
    KumjianPask,
    Skeleton,
    SplitEmbedding,
    SquareSet,
    UnpairedError,
    build_kgraph,
    copy_path,
    saturation,
    verify_corner,
    verify_diagonal,
    verify_family,
    verify_grading,
    verify_swap_identities,
    verify_universal_family,
)
from kgraphs.kp import I, ONE, ZERO

from conftest import random_double


class TestScalars:
    def test_field_operations(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(2), Fraction(-1))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(2))
        assert a * b == GaussianRational(Fraction(4), Fraction(11, 2))
        assert (a * b).conjugate() == GaussianRational(Fraction(4), Fraction(-11, 2))
        assert a - a == ZERO and not (a - a)
        assert GaussianRational.of(3) * GaussianRational.of(Fraction(1, 3)) == ONE
        assert I * I == GaussianRational.of(-1)

    def test_rendering(self):
        assert str(GaussianRational.of(Fraction(-2, 3))) == "-2/3"
        assert str(I) == "1i"
        assert str(GaussianRational(Fraction(1), Fraction(-1))) == "1-1i"

    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            GaussianRational.of(0.5)


@pytest.fixture(scope="module")
def alg(lambda_one):
    return KumjianPask(lambda_one)


def path(graph, *names):
    return graph.make_path(tuple(names))


class TestTermConstruction:
    def test_source_mismatch_rejected(self, lambda_one, alg):
        with pytest.raises(ValueError, match="sources"):
            alg.term(path(lambda_one, "b"), path(lambda_one, "f"))

    def test_zero_coefficient_collapses(self, lambda_one, alg):
        assert alg.term(path(lambda_one, "b"), path(lambda_one, "h"), 0).is_zero()

    def test_source_free_graph_required(self):
        sk = Skeleton.create(1, ["v", "w"], [Edge("a", 1, "w", "v")])
        graph = build_kgraph(sk, SquareSet(()))
        with pytest.raises(ValueError, match="source-free"):
            KumjianPask(graph)

    def test_terms_are_normalized(self, lambda_one, alg):
        kb = path(lambda_one, "b", "k")
        element = alg.path(kb)
        ((term, coeff),) = element.terms()
        assert term.left.edges == ("h", "e")
        assert coeff == ONE


class TestProducts:
    def test_ghost_path_pairing(self, lambda_one, alg):
        for names in [("b",), ("h", "e"), ("α", "β")]:
            mu = path(lambda_one, *names)
            assert alg.ghost(mu) * alg.path(mu) == alg.vertex(mu.source)

    def test_distinct_equal_degree_paths_annihilate(self, lambda_one, alg):
        assert (alg.ghost(path(lambda_one, "α")) * alg.path(path(lambda_one, "h"))).is_zero()
        # same range, same degree, different edges
        assert (alg.ghost(path(lambda_one, "i")) * alg.path(path(lambda_one, "ℓ"))).is_zero()

    def test_minimal_common_extension_product(self, lambda_one, alg):
        got = alg.ghost(path(lambda_one, "b")) * alg.path(path(lambda_one, "h"))
        expected = alg.term(path(lambda_one, "α"), path(lambda_one, "β"))
        assert got == expected

    def test_mixed_graph_operands_rejected(self, lambda_one, lambda_two):
        one = KumjianPask(lambda_one).vertex("v")
        two = KumjianPask(lambda_two).vertex("v")
        with pytest.raises(ValueError, match="different graphs"):
            one * two

    def test_vertex_idempotents(self, lambda_one, alg):
        assert alg.vertex("v") * alg.vertex("v") == alg.vertex("v")
        assert (alg.vertex("v") * alg.vertex("x")).is_zero()


class TestAdjoint:
    def test_involutive_and_conjugate_linear(self, lambda_one, alg):
        el = alg.term(path(lambda_one, "b"), path(lambda_one, "h"), I) + alg.vertex("v")
        assert el.adjoint().adjoint() == el
        assert el.scale(I).adjoint() == el.adjoint().scale(-I)

    def test_anti_multiplicative(self, lambda_one, alg):
        rng = random.Random(23)
        terms = _basis_terms(lambda_one, alg, max_total=2)
        for _ in range(100):
            a, b = rng.choice(terms), rng.choice(terms)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()


class TestGrading:
    def test_vertex_sits_at_zero(self, alg):
        assert set(alg.vertex("v").graded_components()) == {(0, 0)}

    def test_mixed_term_degree(self, lambda_one, alg):
        # red over blue: degree difference is -1 blue, +1 red
        el = alg.term(path(lambda_one, "b"), path(lambda_one, "h"))
        assert set(el.graded_components()) == {(-1, 1)}

    def test_components_sum_back(self, lambda_one, alg):
        el = (
            alg.term(path(lambda_one, "b"), path(lambda_one, "h"))
            + alg.vertex("v")
            + alg.path(path(lambda_one, "α"))
        )
        total = alg.zero()
        for part in el.graded_components().values():
            total = total + part
        assert total == el

    def test_adjoint_reflects_components(self, lambda_one, alg):
        el = alg.term(path(lambda_one, "b"), path(lambda_one, "h"), I) + alg.path(
            path(lambda_one, "α")
        )
        flipped = el.adjoint().graded_components()
        for n, part in el.graded_components().items():
            neg = tuple(-x for x in n)
            assert flipped[neg] == part.adjoint()


class TestEquality:
    def test_fullness_relation(self, lambda_one, alg):
        # the vertex idempotent equals the sum over any one degree's paths
        for v in lambda_one.vertices:
            for degree in [Degree((1, 0)), Degree((0, 1)), Degree((1, 1))]:
                total = alg.zero()
                for lam in lambda_one.paths_with_range(v, degree):
                    total = total + alg.path(lam) * alg.ghost(lam)
                assert total == alg.vertex(v)
                assert not total.terms() == alg.vertex(v).terms() or degree.total == 0

    def test_unequal_elements_detected(self, lambda_one, alg):
        assert not alg.vertex("v") == alg.vertex("x")
        assert not alg.path(path(lambda_one, "α")) == alg.path(path(lambda_one, "β"))

    def test_partial_sums_differ(self, lambda_one, alg):
        paths = lambda_one.paths_with_range("z", Degree((1, 1)))
        total = alg.zero()
        for lam in paths[:-1]:
            total = total + alg.path(lam) * alg.ghost(lam)
        assert not total == alg.vertex("z")


def _basis_terms(graph, alg, max_total=2, coeffs=(1,)):
    by_source: dict[str, list] = {}
    paths = [graph.vertex_path(v) for v in graph.vertices]
    for total in range(1, max_total + 1):
        from kgraphs import degrees_with_total

        for degree in degrees_with_total(graph.k, total):
            for v in graph.vertices:
                paths.extend(graph.paths_with_range(v, degree))
    for p in paths:
        by_source.setdefault(p.source, []).append(p)
    terms = []
    for group in by_source.values():
        for left in group:
            for right in group:
                for c in coeffs:
                    terms.append(alg.term(left, right, c))
    return terms


class TestAssociativityAndOracle:
    def test_associativity_random_triples(self, lambda_one, alg):
        rng = random.Random(41)
        terms = _basis_terms(lambda_one, alg, max_total=2)
        for _ in range(300):
            a, b, c = (rng.choice(terms) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_mce_matches_bruteforce(self, lambda_one, alg):
        rng = random.Random(43)
        pool = []
        for v in lambda_one.vertices:
            for degree in [Degree((1, 0)), Degree((0, 1)), Degree((1, 1)), Degree((2, 1))]:
                pool.extend(lambda_one.paths_with_range(v, degree))
        for _ in range(150):
            mu, nu = rng.choice(pool), rng.choice(pool)
            assert alg.minimal_common_extensions(mu, nu) == alg.mce_bruteforce(mu, nu)


class TestUniversalFamily:
    def test_worked_examples(self, lambda_one, lambda_two, split_one):
        for graph in (lambda_one, lambda_two, split_one.graph):
            report = verify_universal_family(KumjianPask(graph))
            assert report.ok, report.failures[:3]

    def test_random_double(self):
        rng = random.Random(47)
        graph, _ = random_double(rng, k=2, max_vertices=4)
        assert verify_universal_family(KumjianPask(graph)).ok


class TestSaturation:
    def test_everything_is_closed(self, lambda_one):
        assert saturation(lambda_one, lambda_one.vertices) == set(lambda_one.vertices)

    def test_first_copies_saturate_the_split(self, split_one, split_two):
        for result in (split_one, split_two):
            seeds = [result.vertex_copy(v, 1) for v in result.original.vertices]
            assert saturation(result.graph, seeds) == set(result.graph.vertices)

    def test_empty_seed_stays_empty_on_a_loop(self):
        sk = Skeleton.create(1, ["v"], [Edge("a", 1, "v", "v")])
        graph = build_kgraph(sk, SquareSet(()))
        assert saturation(graph, []) == frozenset()

    def test_unknown_vertex(self, lambda_one):
        with pytest.raises(ValueError, match="unknown vertex"):
            saturation(lambda_one, ["nope"])

    def test_output_is_hereditary_and_saturated(self, split_one):
        graph = split_one.graph
        closed = saturation(graph, ["z.1"])
        for e in graph.edges:
            if e.range in closed:
                assert e.source in closed
        assert saturation(graph, closed) == closed


class TestInducedFamily:
    def test_vertex_images(self, split_one):
        emb = SplitEmbedding(split_one)
        assert emb.vertex_image("v") == emb.algebra.vertex("v.1")

    def test_unpaired_input_rejected(self, split_two):
        with pytest.raises(UnpairedError):
            SplitEmbedding(split_two)

    def test_path_image_shape(self, split_one):
        # one summand per rainbow path into the source vertex
        emb = SplitEmbedding(split_one)
        lam = split_one.original
        image = emb.path_image(lam.make_path(("n",)))
        assert len(image) == len(lam.rainbow_paths_into("z")) == 5
        for term, coeff in image.terms():
            assert coeff == ONE
            assert term.left.degree == Degree((2, 1))
            assert term.right.degree == Degree((1, 1))

    def test_image_product_collapses_to_diagonal(self, split_one):
        emb = SplitEmbedding(split_one)
        lam = split_one.original
        for names in [("h",), ("h", "e"), ("α", "β")]:
            p = lam.make_path(names)
            first = copy_path(split_one, p, 1)
            got = emb.path_image(p) * emb.ghost_image(p)
            assert got == emb.algebra.term(first, first)

    def test_ghost_image_is_adjoint(self, split_one):
        emb = SplitEmbedding(split_one)
        p = split_one.original.make_path(("b",))
        assert emb.ghost_image(p) == emb.path_image(p).adjoint()


class TestVerifiers:
    def test_family_passes(self, split_one):
        report = verify_family(SplitEmbedding(split_one), max_paths=3)
        assert report.ok, report.failures[:3]

    def test_swap_identities_pass_with_specific_instances(self, split_one):
        emb = SplitEmbedding(split_one)
        report = verify_swap_identities(emb)
        assert report.ok, report.failures[:3]
        alg = emb.algebra
        lam = split_one.original
        # moving the loop at the base vertex to its second copy
        alpha = lam.make_path(("α",))
        carrier = alg.zero()
        for f in lam.rainbow_paths_into("v"):
            carrier = carrier + alg.term(
                copy_path(split_one, f, 2), copy_path(split_one, f, 1)
            )
        assert carrier * alg.path(copy_path(split_one, alpha, 1)) == alg.path(
            copy_path(split_one, alpha, 2)
        )
        b = lam.make_path(("b",))
        for j in (1, 2):
            carrier = alg.zero()
            for f in lam.rainbow_paths_into("x"):
                carrier = carrier + alg.term(
                    copy_path(split_one, f, j), copy_path(split_one, f, 1)
                )
            assert carrier * alg.path(copy_path(split_one, b, 1)) == alg.path(
                copy_path(split_one, b, j)
            )

    def test_diagonal_passes(self, split_one):
        report = verify_diagonal(SplitEmbedding(split_one), max_len=3)
        assert report.ok, report.failures[:3]

    def test_corner_passes_with_specific_instance(self, split_one):
        emb = SplitEmbedding(split_one)
        report = verify_corner(emb, max_len=2)
        assert report.ok, report.failures[:3]
        lam = split_one.original
        got = emb.algebra.term(
            split_one.graph.make_path(("b.1",)), split_one.graph.make_path(("h.1",))
        )
        expected = emb.path_image(lam.make_path(("b",))) * emb.ghost_image(
            lam.make_path(("h",))
        )
        assert got == expected

    def test_grading_passes(self, split_one):
        report = verify_grading(SplitEmbedding(split_one), max_len=3)
        assert report.ok, report.failures[:3]

    def test_images_nonzero(self, split_one):
        emb = SplitEmbedding(split_one)
        for v in split_one.original.vertices:
            assert not emb.vertex_image(v).is_zero()

    def test_rank_three_split_verifies(self):
        # a sink-free rank-3 input exercises length-3 rainbows end to end
        from conftest import diagonal_double
        from kgraphs import default_spec, outsplit, saturation

        vertices = ["u0", "u1"]
        arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"), ("d", "u1", "u0")]
        graph = diagonal_double(vertices, arrows, 3)
        result = outsplit(graph, default_spec(graph, 1, "u0"))
        assert result.paired
        emb = SplitEmbedding(result)
        assert verify_swap_identities(emb).ok
        assert verify_diagonal(emb, max_len=2).ok
        assert verify_family(emb, max_paths=2).ok
        assert verify_grading(emb, max_len=2).ok
        seeds = [result.vertex_copy(v, 1) for v in graph.vertices]
        assert saturation(result.graph, seeds) == set(result.graph.vertices)

    def test_random_double_split_verifies(self):
        from kgraphs import outsplit
        from conftest import shuffled_spec

        rng = random.Random(97)
        graph, base = random_double(rng, k=2, max_vertices=4)
        result = outsplit(graph, shuffled_spec(graph, 1, base, rng))
        assert verify_swap_identities(SplitEmbedding(result)).ok
        assert verify_diagonal(SplitEmbedding(result), max_len=2).ok
        assert verify_family(SplitEmbedding(result), max_paths=2).ok

    def test_corrupted_split_fails(self, split_one, split_two):
        # graft the second example's split graph onto the first example's
        # bookkeeping: the identities must break, with a visible witness
        corrupted = dataclasses.replace(split_one, graph=split_two.graph)
        report = verify_family(SplitEmbedding(corrupted), max_paths=2)
        assert not report.ok
        assert report.failures
        assert "!=" in report.failures[0]

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_shared_embedding_changes_no_answer(self, split_one, split_two, corrupt):
        # kp-verify runs all six sweeps on one embedding; its algebra and
        # image caches must give the reports of a fresh embedding per sweep
        result = dataclasses.replace(split_one, graph=split_two.graph) if corrupt else split_one
        shared = SplitEmbedding(result)
        with_shared = _all_sweeps(lambda: shared)
        with_fresh = _all_sweeps(lambda: SplitEmbedding(result))
        assert [r.summary() for r in with_shared] == [r.summary() for r in with_fresh]
        assert [r.failures for r in with_shared] == [r.failures for r in with_fresh]
        assert all(r.ok for r in with_shared) != corrupt

    def test_verifier_summaries(self, split_one):
        report = verify_diagonal(SplitEmbedding(split_one), max_len=1)
        assert "pass" in report.summary()


def _all_sweeps(embedding) -> list:
    """The six sweeps in ``kp-verify`` order, each on ``embedding()``."""
    return [
        verify_universal_family(embedding().algebra),
        verify_family(embedding(), max_paths=3),
        verify_swap_identities(embedding()),
        verify_diagonal(embedding(), max_len=3),
        verify_corner(embedding(), max_len=2),
        verify_grading(embedding(), max_len=3),
    ]
