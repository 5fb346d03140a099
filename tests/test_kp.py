"""Exact algebra engine: products, equality, the induced family, saturation."""

from __future__ import annotations

import collections
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import (
    BasisTerm,
    Edge,
    KGraph,
    KPElement,
    KumjianPask,
    Path,
    Skeleton,
    SplitEmbedding,
    SquareSet,
    UsageError,
    VerificationReport,
    build_kgraph,
    copy_path,
    degrees_with_total,
    saturation,
    verify_corner,
    verify_diagonal,
    verify_family,
    verify_grading,
    verify_swap_identities,
    verify_universal_family,
)
from kgraphs import kp
from kgraphs.fileformat import parse
from kgraphs.kp import label_text
from kgraphs.skeleton import dominates, join

from conftest import DATA, random_double
from oracle import act, action, extension_rows, mce_bruteforce, path_image, swap_carrier


@pytest.fixture(scope="module")
def alg(lambda_one):
    return KumjianPask(lambda_one)


def path(graph, *names):
    return graph.make_path(tuple(names))


class TestScalars:
    def test_floats_rejected(self, lambda_one, alg):
        b = path(lambda_one, "b")
        for inexact in (0.5, 1.0, Fraction(1, 2)):
            with pytest.raises(TypeError, match="exact"):
                alg.term(b, b, inexact)
            with pytest.raises(TypeError, match="exact"):
                alg.vertex("v").scale(inexact)


class TestTermConstruction:
    def test_source_mismatch_rejected(self, lambda_one, alg):
        with pytest.raises(ValueError, match="sources"):
            alg.term(path(lambda_one, "b"), path(lambda_one, "f"))

    def test_zero_coefficient_collapses(self, lambda_one, alg):
        assert alg.term(path(lambda_one, "b"), path(lambda_one, "h"), 0).is_zero()

    def test_source_free_graph_required(self):
        sk = Skeleton.create(1, ["v", "w"], [Edge("a", 1, "w", "v")])
        graph = build_kgraph(sk, SquareSet(()))
        with pytest.raises(ValueError) as exc:
            KumjianPask(graph)
        assert str(exc.value) == ("the Kumjian-Pask calculus needs a source-free graph; "
                                  "vertex 'w' receives no edge of color 1")

    def test_terms_are_normalized(self, lambda_one, alg):
        kb = path(lambda_one, "b", "k")
        element = alg.path(kb)
        ((term, coeff),) = element.terms()
        assert term.left.edges == ("h", "e")
        assert coeff == 1


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
        with pytest.raises(ValueError, match="different algebra contexts"):
            one * two

    def test_contexts_over_one_graph_do_not_mix(self, lambda_one):
        # ids are local to a context, so equal graphs do not make operands compatible
        b = path(lambda_one, "b")
        one, other = KumjianPask(lambda_one).path(b), KumjianPask(lambda_one).ghost(b)
        for combine in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x == y):
            with pytest.raises(ValueError, match="different algebra contexts"):
                combine(one, other)

    def test_vertex_idempotents(self, lambda_one, alg):
        assert alg.vertex("v") * alg.vertex("v") == alg.vertex("v")
        assert (alg.vertex("v") * alg.vertex("x")).is_zero()

    @pytest.mark.parametrize("source", ["worked example", "rank-3 split"])
    def test_products_equal_one_product_each(self, lambda_one, source):
        graph = lambda_one if source == "worked example" else _rank_three_split().graph
        alg = KumjianPask(graph)
        terms = _basis_terms(graph, alg, max_total=2 if source == "worked example" else 1,
                             coeffs=(1, -2))
        rng = random.Random(71)
        for _ in range(20):
            a = alg.sum(rng.sample(terms, 4))
            bs = [alg.sum(rng.sample(terms, rng.randrange(1, 5))) for _ in range(6)]
            bs.append(bs[0])
            bs.append(next(b for b in terms if len(a * b) == 0))
            left_degrees = [{term.left.degree for term, _ in b.terms()} for b in bs]
            assert any(len(degrees) > 1 for degrees in left_degrees)
            assert len(set().union(*left_degrees)) > 1
            got = a.products(bs)
            assert [dict(p.terms()) for p in got] == [dict((a * b).terms()) for b in bs]
            assert got[-1].terms() == ()
        assert a.products([]) == []

    @pytest.mark.parametrize("source", ["worked example", "rank-3 split"])
    def test_join_equals_every_product(self, lambda_one, source):
        # KumjianPask.products indexes the rights once for all the lefts
        graph = lambda_one if source == "worked example" else _rank_three_split().graph
        alg = KumjianPask(graph)
        terms = _basis_terms(graph, alg, max_total=2 if source == "worked example" else 1,
                             coeffs=(1, -2))
        rng = random.Random(83)
        sampled = []
        for _ in range(8):
            lefts = [alg.sum(rng.sample(terms, rng.randrange(1, 5))) for _ in range(4)]
            rights = [alg.sum(rng.sample(terms, rng.randrange(1, 5))) for _ in range(5)]
            lefts.append(lefts[0])
            rights.append(rights[1])
            rights.append(next(b for b in terms if len(lefts[0] * b) == 0))
            assert any(len({term.left.degree for term, _ in b.terms()}) > 1 for b in rights)
            got = list(alg.products(lefts, rights))
            assert [[dict(p.terms()) for p in row] for row in got] == \
                [[dict((a * b).terms()) for b in rights] for a in lefts]
            assert got[0][-1].terms() == ()
            sampled += rng.sample([(a, b, p) for a, row in zip(lefts, got)
                                   for b, p in zip(rights, row)], 2)
        assert list(alg.products([], rights)) == []
        assert list(alg.products(lefts, [])) == [[] for _ in lefts]
        # the path action shares no table with the engine
        for a, b, product in sampled:
            n = tuple(x + y for x, y in zip(_right_join(a), _right_join(b)))
            assert action(product, n) == {x: act(a, y) for x, y in action(b, n).items()}
        # the rights are checked at the call, a left when its row is read
        other = KumjianPask(graph).vertex(graph.vertices[0])
        with pytest.raises(UsageError, match="operands belong to different algebra contexts"):
            alg.products(lefts, [*rights, other])
        rows = alg.products([lefts[0], other], rights)
        assert [dict(p.terms()) for p in next(rows)] == [dict(p.terms()) for p in got[0]]
        with pytest.raises(UsageError, match="operands belong to different algebra contexts"):
            next(rows)

    def test_products_reject_another_context(self, lambda_one, alg):
        b = path(lambda_one, "b")
        other = KumjianPask(lambda_one).path(b)
        with pytest.raises(ValueError, match="operands belong to different algebra contexts"):
            alg.ghost(b).products([alg.path(b), other])

    def test_sum_equals_the_left_fold(self, lambda_one, alg):
        terms = _basis_terms(lambda_one, alg, max_total=2, coeffs=(1, -1, 2))
        rng = random.Random(73)
        for _ in range(50):
            xs = rng.sample(terms, rng.randrange(1, 8))
            # negated copies cancel some terms to zero coefficients
            xs += [x.scale(-1) for x in xs[:rng.randrange(len(xs) + 1)]]
            rng.shuffle(xs)
            fold = alg.zero()
            for x in xs:
                fold = fold + x
            assert dict(alg.sum(xs).terms()) == dict(fold.terms())
            assert dict(alg.sum(iter(xs)).terms()) == dict(fold.terms())
        x = rng.choice(terms)
        assert alg.sum([x, x.scale(-1)]).terms() == ()
        assert alg.sum([]).terms() == alg.zero().terms() == ()
        with pytest.raises(ValueError, match="different algebra contexts"):
            alg.sum([alg.vertex("v"), KumjianPask(lambda_one).vertex("v")])


class TestAdjoint:
    def test_involutive_and_linear(self, lambda_one, alg):
        el = alg.term(path(lambda_one, "b"), path(lambda_one, "h"), 2) + alg.vertex("v")
        assert el.adjoint().adjoint() == el
        assert el.scale(-3).adjoint() == el.adjoint().scale(-3)

    def test_anti_multiplicative(self, lambda_one, alg):
        rng = random.Random(23)
        terms = _basis_terms(lambda_one, alg, max_total=2)
        for _ in range(100):
            a, b = rng.choice(terms), rng.choice(terms)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()


class TestZeroFreeTerms:
    def test_sums_and_products_store_no_zero(self, lambda_one, alg):
        rng = random.Random(29)
        terms = _basis_terms(lambda_one, alg, max_total=2, coeffs=(1, -1, 2))
        for _ in range(200):
            x = sum((rng.choice(terms) for _ in range(4)), alg.zero())
            y = sum((rng.choice(terms) for _ in range(4)), alg.zero())
            for z in (x, x + y, x - y, x * y, x * y - y * x):
                assert all(c for _, c in z.terms())
            assert len(x - x) == 0

    def test_scalars_multiply_only_through_scale(self, lambda_one, alg):
        x = alg.term(path(lambda_one, "b"), path(lambda_one, "h"), -1) + alg.vertex("v")
        with pytest.raises(TypeError):
            x * 2
        with pytest.raises(TypeError):
            2 * x
        assert x.scale(2) == x + x
        assert len(x.scale(0)) == 0


class TestTermOwnership:
    """The constructor owns the dict it is given; no operation may share or change an operand's."""

    @staticmethod
    def _operations(alg, x, y, ys):
        yield "+", x + y
        yield "-", x - y
        yield "a - a", x - x
        yield "scale", x.scale(-3)
        yield "scale(0)", x.scale(0)
        yield "adjoint", x.adjoint()
        yield "*", x * y
        yield from (("products", p) for p in x.products(ys))
        yield "sum", alg.sum([x, y, *ys])
        yield from (("graded_components", c) for c in x.graded_components().values())
        yield "==", x == y
        yield "== itself", x == x

    def test_operations_keep_their_operands_and_store_no_zero(self, lambda_one, alg):
        terms = _basis_terms(lambda_one, alg, max_total=2, coeffs=(1, -1, 2))
        rng = random.Random(31)
        for _ in range(60):
            x, y = (alg.sum(rng.sample(terms, rng.randrange(1, 6))) for _ in range(2))
            ys = [alg.sum(rng.sample(terms, rng.randrange(1, 4))) for _ in range(3)] + [x]
            operands = [x, y, *ys]
            snapshot = [dict(e._terms) for e in operands]
            for name, result in self._operations(alg, x, y, ys):
                assert [e._terms for e in operands] == snapshot, name
                if isinstance(result, KPElement):
                    assert 0 not in result._terms.values(), name
                    assert all(result._terms is not e._terms for e in operands), name
            assert len(x - x) == len(x.scale(0)) == 0

    def test_a_product_whose_terms_cancel_stores_nothing(self, lambda_one, alg):
        terms = _basis_terms(lambda_one, alg, max_total=1)
        # t1 * y and t2 * y land on the same nonzero terms, so (t1 - t2) * y cancels
        t1, t2, y = next((t1, t2, y) for t1 in terms for t2 in terms for y in terms
                         if t1.terms() != t2.terms() and len(t1 * y) > 0
                         and (t1 * y).terms() == (t2 * y).terms())
        x = t1 - t2
        snapshot = dict(x._terms), dict(y._terms)
        product = x * y
        assert product._terms == {} and product.is_zero()
        assert x.products([y, y])[1]._terms == {}
        assert (dict(x._terms), dict(y._terms)) == snapshot


class TestRendering:
    def test_coefficients_other_than_one(self, lambda_one, alg):
        el = (
            alg.term(path(lambda_one, "b"), path(lambda_one, "h"), 2)
            + alg.term(path(lambda_one, "α"), path(lambda_one, "β"), -1)
            + alg.vertex("v")
        )
        assert str(el) == "p[v] + (2)·t[b]t*[h] + (-1)·t[α]t*[β]"

    def test_zero(self, alg):
        assert str(alg.zero()) == "0"

    def test_degree_labels(self, split_one, monkeypatch):
        # these labels reach the output only when a check fails
        labels = []
        monkeypatch.setattr(VerificationReport, "expect",
                            lambda _, label, *__: labels.append(label_text(label)))
        monkeypatch.setattr(VerificationReport, "expect_equal",
                            lambda _, label, *__: labels.append(label_text(label)))
        emb = SplitEmbedding(split_one)
        verify_universal_family(emb.algebra)
        verify_family(emb, max_paths=1)
        verify_grading(emb, max_len=1)
        assert {
            "sum tt* over v.1@(1,0)",
            "fullness v@(1,0)",
            "fullness z@(1,1)",
            "s[α] homogeneous of (1,0)",
            "s*[β] homogeneous of -(0,1)",
        } <= set(labels)


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
        el = alg.term(path(lambda_one, "b"), path(lambda_one, "h"), -2) + alg.path(
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
            for degree in [(1, 0), (0, 1), (1, 1)]:
                total = alg.zero()
                for lam in lambda_one.paths_with_range(v, degree):
                    total = total + alg.path(lam) * alg.ghost(lam)
                assert total == alg.vertex(v)
                assert not total.terms() == alg.vertex(v).terms()

    def test_non_elements_are_not_compared(self, alg):
        assert alg.vertex("v").__eq__(1) is NotImplemented
        assert alg.vertex("v") != 1

    def test_unequal_elements_detected(self, lambda_one, alg):
        assert not alg.vertex("v") == alg.vertex("x")
        assert not alg.path(path(lambda_one, "α")) == alg.path(path(lambda_one, "β"))

    def test_partial_sums_differ(self, lambda_one, alg):
        paths = lambda_one.paths_with_range("z", (1, 1))
        total = alg.zero()
        for lam in paths[:-1]:
            total = total + alg.path(lam) * alg.ghost(lam)
        assert not total == alg.vertex("z")

    def test_the_refinement_shortcut_agrees_with_the_path_action(self, lambda_one, alg, monkeypatch):
        # == refines the side whose first term has the lower left degree to the
        # class of the other side's first term; where that is no refinement it
        # leaves the answer to the zero test, and it never answers otherwise
        # than the path action, in either order
        zero_tests = []
        is_zero = KPElement.is_zero
        monkeypatch.setattr(KPElement, "is_zero", lambda x: zero_tests.append(x) or is_zero(x))

        def t(*names):
            return alg.path(path(lambda_one, *names))

        def unit(v, degree):
            return alg.sum(alg.path(a) * alg.ghost(a) for a in lambda_one.paths_with_range(v, degree))

        def diagonal(lam, degree=None):
            inner = alg.vertex(lam.source) if degree is None else unit(lam.source, degree)
            return alg.path(lam) * inner * alg.ghost(lam)

        at_z = lambda_one.paths_with_range("z", (1, 0))
        h_up, b_up = t("h") * unit("v", (0, 1)), t("b") * unit("v", (1, 0))
        # (lhs, rhs, equal, whether == runs the zero test: always, never, or either)
        cases = [
            # t[h] is not under the class (0,1): extensions(h, (0,1)) are MCE
            # rows, which would "refine" t[h] to t[b], and t[m]t*[m] to 3·t[n]t*[n]
            (t("h"), t("b"), False, True),
            (diagonal(path(lambda_one, "m")), diagonal(path(lambda_one, "n")).scale(3), False, True),
            (t("h"), alg.sum([t("b"), h_up, b_up.scale(-1)]), True, True),
            # the finer side spreads over two degree classes
            (alg.vertex("z"), alg.sum([*map(diagonal, at_z[1:]), diagonal(at_z[0], (0, 1))]), True, True),
            # both coarse terms refine onto a common term, which cancels to 0
            (alg.vertex("z") - diagonal(at_z[0]),
             unit("z", (1, 1)) - diagonal(at_z[0], (0, 1)), True, None),
            # a coarse term in another graded component; zipping rows over
            # different α would "refine" p[v] to t*[β]
            (t("h"), alg.ghost(path(lambda_one, "h")), False, True),
            (alg.vertex("v"), alg.ghost(path(lambda_one, "β")), False, True),
            (t("h") + alg.ghost(path(lambda_one, "h")), h_up + alg.ghost(path(lambda_one, "h")), True, True),
            # an empty side, against an element that is zero in the algebra and one that is not
            (alg.zero(), unit("z", (1, 0)) - alg.vertex("z"), True, True),
            (alg.zero(), t("h"), False, True),
            # equal term counts, the coarse side second
            (h_up + t("i") * unit("v", (0, 1)), t("h") + t("i"), True, False),
            (h_up + t("i") * unit("v", (0, 1)), t("h") - t("i"), False, True),
            (alg.vertex("z"), unit("z", (1, 0)), True, False),
        ]
        assert len({(x.left.degree, x.right.degree) for x, _ in cases[3][1].terms()}) == 2
        for lhs, rhs, equal, zero_test in cases:
            assert lhs.terms() != rhs.terms()
            n = _right_join(lhs, rhs)
            assert (action(lhs, n) == action(rhs, n)) == equal
            for a, b in ((lhs, rhs), (rhs, lhs)):
                zero_tests.clear()
                assert (a == b) == equal, (str(a), str(b))
                if zero_test is not None:
                    assert bool(zero_tests) == zero_test, (str(a), str(b))


class TestRefinementTable:
    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "rank3_split"])
    def test_table_matches_direct_extension(self, source):
        # refining p by every α of degree d is the head column of
        # extensions(p, d(p) + d), and every tail there is the vertex s(α)
        graph = _refinement_graph(source)
        # a second graph keeps its own normal-form cache, shared with no table
        reference = KGraph(graph.skeleton, graph.squares)
        alg = KumjianPask(graph)
        paths = [graph.vertex_path(v) for v in graph.vertices]
        paths += [graph.make_path((e.name,)) for e in graph.edges]
        degrees = [d for total in range(3) for d in degrees_with_total(graph.k, total)]
        for p in paths:
            i = alg.intern(p)
            for d in degrees:
                alphas = graph.paths_with_range(p.source, d)
                target = tuple(a + b for a, b in zip(p.degree, d))
                rows = alg.extensions(i, target)
                assert alg.extensions(i, target) is rows  # cached
                assert [alg.paths[alpha] for alpha, _, _ in rows] == list(alphas)
                assert [alg.paths[head] for _, head, _ in rows] == [
                    reference.normal_form(reference.compose(p, alpha)) for alpha in alphas]
                assert [alg.paths[beta] for _, _, beta in rows] == [
                    graph.vertex_path(alpha.source) for alpha in alphas]

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "rank3_split"])
    def test_vertex_paths_are_the_first_ids(self, source):
        graph = _refinement_graph(source)
        alg = KumjianPask(graph)
        vertices = [graph.vertex_path(v) for v in graph.vertices]
        assert alg.paths == vertices
        assert [alg.intern(p) for p in vertices] == list(range(len(vertices)))
        edge = graph.make_path((graph.edges[0].name,))
        i = alg.intern(edge)
        source = alg.intern(graph.vertex_path(edge.source))
        range_ = alg.intern(graph.vertex_path(edge.range))
        interned, normal_forms = len(alg.paths), len(graph._nf_cache)
        assert alg.extend(i, source) == i
        assert alg.extend(range_, i) == i
        assert (len(alg.paths), len(graph._nf_cache)) == (interned, normal_forms)

    def test_extend_stores_no_vertex(self):
        # the six kp-verify sweeps at --max-len 2, verify_family(max_paths=2) among them
        emb = SplitEmbedding(_rank_three_split())
        alg, graph = emb.algebra, emb.algebra.graph
        assert all(report.ok for report in _all_sweeps(lambda: emb, max_len=2))
        assert len(alg.paths) == 1588
        # extending by a vertex, or a vertex by a path, interns and normalizes nothing
        normal_forms = len(graph._nf_cache)
        for i, p in enumerate(alg.paths):
            assert alg.extend(i, alg.intern(graph.vertex_path(p.source))) == i
            assert alg.extend(alg.intern(graph.vertex_path(p.range)), i) == i
        assert (len(alg.paths), len(graph._nf_cache)) == (1588, normal_forms)

    def test_extend_is_the_interned_normal_form(self, split_one):
        # every composable pair of ids the six sweeps at --max-len 2 interned
        emb = SplitEmbedding(split_one)
        alg, graph = emb.algebra, split_one.graph
        assert all(report.ok for report in _all_sweeps(lambda: emb, max_len=2))
        ids = range(len(alg.paths))
        pairs = [(i, a) for i in ids for a in ids if alg.paths[a].range == alg.paths[i].source]
        assert (len(ids), len(pairs)) == (114, 1636)
        for i, a in pairs:
            composite = graph.normal_form(graph.compose(alg.paths[i], alg.paths[a]))
            assert alg.extend(i, a) == alg.intern(composite)

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "rank3_split"])
    def test_forced_rows_match_factoring(self, source):
        # rows at d = 0 and the rows of a vertex are written from ids; a
        # second graph factors every μα the generic way
        graph = _refinement_graph(source)
        reference = KGraph(graph.skeleton, graph.squares)
        alg = KumjianPask(graph)
        degrees = [d for total in range(3) for d in degrees_with_total(graph.k, total)]
        for d in degrees:
            for v in graph.vertices:
                for p in graph.paths_with_range(v, d):
                    alg.intern(p)
        interned, normal_forms = len(alg.paths), len(graph._nf_cache)
        zero = degrees[0]
        for mu in range(interned):
            assert alg.extensions(mu, zero) == extension_rows(alg, reference, mu, zero)
        for v in range(len(graph.vertices)):
            for d in degrees:
                assert alg.extensions(v, d) == extension_rows(alg, reference, v, d)
        assert (len(alg.paths), len(graph._nf_cache)) == (interned, normal_forms)

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_warm_table_changes_no_answer(self, source):
        # a context warmed in reverse order must answer as a fresh one does
        graph = _oracle_graph(source)
        fresh = [x.is_zero() for x in _zero_test_elements(KumjianPask(graph))]
        warm = _zero_test_elements(KumjianPask(graph))
        for x in reversed(warm):
            x.is_zero()
        assert [x.is_zero() for x in warm] == fresh
        assert True in fresh and False in fresh

    def test_one_component_over_several_degree_classes(self, lambda_one):
        # at z, the unit refined to (1,0), (0,1) and (1,1) in one element:
        # one graded component, four classes, common degree (1,1)
        alg = KumjianPask(lambda_one)

        def diagonal(degree):
            return sum((alg.path(lam) * alg.ghost(lam)
                        for lam in lambda_one.paths_with_range("z", degree)), alg.zero())

        unit = alg.vertex("z")
        zero = diagonal((1, 0)) - diagonal((0, 1)) + unit - diagonal((1, 1))
        h, i = path(lambda_one, "h"), path(lambda_one, "i")
        nm = path(lambda_one, "n", "m")
        cases = [
            (zero, True),
            (zero + alg.term(i, i) - alg.term(i, h), False),
            (zero - alg.path(nm) * alg.ghost(nm), False),
        ]
        for element, _ in cases:
            classes = {(t.left.degree, t.right.degree) for t, _ in element.terms()}
            assert len(element.graded_components()) == 1 and len(classes) >= 3
        # the unit again, now refined to (1,0) on the same context
        cases.append((unit - diagonal((1, 0)), True))
        for element, expected in cases:
            n = _right_join(element)
            assert (not any(action(element, n).values())) == expected
            assert element.is_zero() == expected


def _refinement_graph(source):
    if source == "rank3_split":
        return _rank_three_split().graph
    return _oracle_graph(source)


def _rank_three_split():
    from conftest import diagonal_double
    from kgraphs import default_spec, outsplit

    arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"), ("d", "u1", "u0")]
    graph = diagonal_double(["u0", "u1"], arrows, 3)
    return outsplit(graph, default_spec(graph, 1, "u0"))


def _zero_test_elements(alg):
    """Seeded differences that are zero (a unit absorbed) or not (a partial unit)."""
    rng = random.Random(67)
    terms = _basis_terms(alg.graph, alg, max_total=1, coeffs=(1, -1, 2))
    units = _units(alg)
    out = []
    for _ in range(25):
        c = rng.choice(terms) + rng.choice(terms)
        unit, partial = rng.choice(units)
        out += [c * unit - c, unit * c - c, c * partial - c, partial * c - c]
    return out


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

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_mce_matches_bruteforce(self, source):
        # every pair of short paths; the filter of the extension table must
        # keep all rows when several match
        graph = _oracle_graph(source)
        alg = KumjianPask(graph)
        pool = [p for v in graph.vertices for degree in [(1, 0), (0, 1), (1, 1), (2, 1)]
                for p in graph.paths_with_range(v, degree)]
        several = 0
        for mu in pool:
            for nu in pool:
                found = alg.minimal_common_extensions(mu, nu)
                assert found == mce_bruteforce(graph, mu, nu)
                several += len(found) >= 2
        assert several

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_product_terms_match_the_pairwise_expansion(self, source):
        # the hash join must give exactly the term map of the loop over all
        # term pairs, each expanded over the brute-force extensions
        graph = _oracle_graph(source)
        alg = KumjianPask(graph)
        rng = random.Random(61)
        # pick the degrees first, so that short paths meet long ones often
        by_degrees: dict[tuple, list] = {}
        for t in _basis_terms(graph, alg, max_total=2, coeffs=(1, -1, 2)):
            (term, _), = t.terms()
            by_degrees.setdefault((term.left.degree, term.right.degree), []).append(t)
        classes = sorted(by_degrees)

        def operand():
            return sum((rng.choice(by_degrees[rng.choice(classes)]) for _ in range(4)), alg.zero())

        cases = set()
        for _ in range(60):
            a, b = operand(), operand()
            assert dict((a * b).terms()) == _pairwise_product(a, b)
            for t1, _ in a.terms():
                for t2, _ in b.terms():
                    if mce_bruteforce(graph, t1.right, t2.left):
                        cases.add(_degree_case(t1.right.degree, t2.left.degree))
        assert cases == {"equal", "left longer", "right longer", "incomparable"}

    @pytest.mark.parametrize("source", ["lambda1.kg", "gamma1.kg", "random_double"])
    def test_equality_and_products_match_the_path_action(self, source):
        # the action on paths of one degree shares no extension table and no
        # refinement with the engine, so it decides == and * independently
        context = _action_context(_oracle_graph(source))
        rng = random.Random(59)
        outcomes = [same for _ in range(40) for same in _check_against_action(rng, *context)]
        assert True in outcomes and False in outcomes

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(source=st.sampled_from(("lambda1.kg", "gamma1.kg")),
           rng=st.randoms(use_true_random=False))
    def test_data_graphs_match_the_path_action(self, source, rng):
        context = _action_context(_oracle_graph(source))
        for _ in range(4):
            _check_against_action(rng, *context)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(k=st.sampled_from((2, 3)), seed=st.integers(0, 10**6),
           rng=st.randoms(use_true_random=False))
    def test_random_doubles_match_the_path_action(self, k, seed, rng):
        graph, _ = random_double(random.Random(seed), k=k, max_vertices=3)
        context = _action_context(graph)
        for _ in range(4):
            _check_against_action(rng, *context)


def _action_context(graph):
    """A fresh algebra, its terms of total length up to 1, and refined units."""
    alg = KumjianPask(graph)
    return alg, _basis_terms(graph, alg, max_total=1, coeffs=(1, -1, 2)), _units(alg)


def _units(alg):
    """The unit refined to each degree of total 1 or 2, whole and without its last summand."""
    graph = alg.graph
    units = []
    for n in [d for total in (1, 2) for d in degrees_with_total(graph.k, total)]:
        parts = [alg.path(lam) * alg.ghost(lam)
                 for v in graph.vertices for lam in graph.paths_with_range(v, n)]
        units.append((sum(parts, alg.zero()), sum(parts[:-1], alg.zero())))
    return units


def _check_against_action(rng, alg, terms, units):
    """Check ``act(a*b) == act(a)∘act(b)`` and ``==`` against the action on four pairs.

    Returns, per pair, whether the action says its two sides are equal.
    """
    a, b, c = (rng.choice(terms) + rng.choice(terms) for _ in range(3))
    ab = a * b
    n = tuple(x + y for x, y in zip(_right_join(a), _right_join(b)))
    assert action(ab, n) == {x: act(a, y) for x, y in action(b, n).items()}
    unit, partial = rng.choice(units)
    outcomes = []
    for lhs, rhs in ((ab * c, a * (b * c)), (ab, b * a), (c * unit, c), (c * partial, c)):
        n = _right_join(lhs, rhs)
        outcomes.append(action(lhs, n) == action(rhs, n))
        assert (lhs == rhs) == outcomes[-1]
    return outcomes


def _oracle_graph(source):
    if source == "random_double":
        # two vertices, ten edges: many pairs of edges have two or three
        # minimal common extensions
        graph, _ = random_double(random.Random(2), k=2, max_vertices=4)
        return graph
    return parse((DATA / source).read_text(encoding="utf-8")).build()


def _pairwise_product(a, b):
    """The term map of ``a * b`` from every term pair over ``mce_bruteforce``."""
    graph = a.algebra.graph
    out = {}
    for t1, c1 in a.terms():
        for t2, c2 in b.terms():
            for alpha, beta in mce_bruteforce(graph, t1.right, t2.left):
                key = BasisTerm(graph.normal_form(graph.compose(t1.left, alpha)),
                                graph.normal_form(graph.compose(t2.right, beta)))
                out[key] = out.get(key, 0) + c1 * c2
    return {t: c for t, c in out.items() if c}


def _degree_case(mu, nu):
    if mu == nu:
        return "equal"
    if dominates(mu, nu):
        return "left longer"
    if dominates(nu, mu):
        return "right longer"
    return "incomparable"


def _right_join(*elements):
    """The join of the right paths' degrees over all terms of the elements."""
    top = (0,) * elements[0].algebra.graph.k
    for el in elements:
        for term, _ in el.terms():
            top = join(top, term.right.degree)
    return top


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
            seeds = [result.copy_of(v, 1) for v in result.original.vertices]
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

    def test_unpaired_split_fails_only_the_swap_identities(self, split_two):
        # the family is built for any split; at the CLI's default bounds only
        # carrying b, whose two copies start at different copies of v, fails
        emb = SplitEmbedding(split_two)
        reports = [
            verify_universal_family(emb.algebra),
            verify_family(emb, max_paths=3),
            verify_swap_identities(emb),
            verify_diagonal(emb, max_len=3),
            verify_corner(emb, max_len=2),
            verify_grading(emb, max_len=3),
        ]
        assert [r.checked for r in reports] == [180, 1_324, 36, 80, 342, 160]
        assert [r.name for r in reports if not r.ok] == ["swap-identities"]
        assert [f.partition(":")[0] for f in reports[2].failures] == [
            "carry t[b] to copy 2", "carry t*[b] to copy 2"]

    def test_path_image_shape(self, split_one):
        # one summand per rainbow path into the source vertex
        emb = SplitEmbedding(split_one)
        lam = split_one.original
        image = emb.path_image(lam.make_path(("n",)))
        assert len(image) == len(lam.rainbow_paths_into("z")) == 5
        for term, coeff in image.terms():
            assert coeff == 1
            assert term.left.degree == (2, 1)
            assert term.right.degree == (1, 1)

    def test_image_product_collapses_to_diagonal(self, split_one):
        emb = SplitEmbedding(split_one)
        lam = split_one.original
        for names in [("h",), ("h", "e"), ("α", "β")]:
            p = lam.make_path(names)
            first = copy_path(split_one, p, 1)
            got = emb.path_image(p) * emb.ghost_image(p)
            assert got == emb.algebra.term(first, first)

    @pytest.mark.parametrize("split", ["split_one", "split_two", "rank3"])
    def test_images_match_term_sums(self, split, request):
        # the rainbow lifts are cached as id pairs; summing one term per
        # rainbow path, split_two unpaired, gives the same term maps
        result = _rank_three_split() if split == "rank3" else request.getfixturevalue(split)
        emb = SplitEmbedding(result)
        lam = result.original
        paths = [p for total in range(4) for d in degrees_with_total(lam.k, total)
                 for v in lam.vertices for p in lam.paths_with_range(v, d)]
        assert len(paths) > 40
        for p in paths:
            assert emb.path_image(p)._terms == path_image(emb, p)._terms
        for v in lam.vertices:
            for j in range(1, result.counts[v] + 1):
                assert dict.fromkeys(emb._rainbows[v, j], 1) == swap_carrier(emb, v, j)._terms

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
        from kgraphs import default_spec, outsplit, pairing_report, saturation

        vertices = ["u0", "u1"]
        arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"), ("d", "u1", "u0")]
        graph = diagonal_double(vertices, arrows, 3)
        result = outsplit(graph, default_spec(graph, 1, "u0"))
        assert pairing_report(graph, 1).ok
        emb = SplitEmbedding(result)
        assert verify_swap_identities(emb).ok
        assert verify_diagonal(emb, max_len=2).ok
        assert verify_family(emb, max_paths=2).ok
        assert verify_grading(emb, max_len=2).ok
        seeds = [result.copy_of(v, 1) for v in graph.vertices]
        assert saturation(result.graph, seeds) == set(result.graph.vertices)

    def test_rank_three_split_passes_every_sweep_at_depth_three(self):
        # kp-verify --max-len 3; the corner sweep stays at depth 2
        emb = SplitEmbedding(_rank_three_split())
        reports = _all_sweeps(lambda: emb, max_len=3)
        assert all(report.ok for report in reports)
        assert [report.checked for report in reports] == [392, 9606, 60, 314, 1518, 628]

    def test_random_double_split_verifies(self):
        from kgraphs import outsplit
        from conftest import shuffled_spec

        rng = random.Random(97)
        graph, base = random_double(rng, k=2, max_vertices=4)
        result = outsplit(graph, shuffled_spec(graph, 1, base, rng))
        assert verify_swap_identities(SplitEmbedding(result)).ok
        assert verify_diagonal(SplitEmbedding(result), max_len=2).ok
        assert verify_family(SplitEmbedding(result), max_paths=2).ok

    def test_composition_checks_keep_the_scan_order(self, split_one, monkeypatch):
        # the partners μ of each λ come from a by-range index; the checks
        # run in the order of a scan over every path
        labels = []
        expect_equal = VerificationReport.expect_equal

        def recording(self, label, lhs, rhs):
            labels.append(label_text(label))
            expect_equal(self, label, lhs, rhs)

        monkeypatch.setattr(VerificationReport, "expect_equal", recording)
        verify_family(SplitEmbedding(split_one), max_paths=3)
        lam = split_one.original
        paths = [p for total in range(1, 4) for d in degrees_with_total(lam.k, total)
                 for v in lam.vertices for p in lam.paths_with_range(v, d)]
        expected = []
        for lam_path in paths:
            for mu in paths:
                if lam_path.source == mu.range and len(lam_path.edges) + len(mu.edges) <= 3:
                    expected += [f"composition s[{lam_path}]s[{mu}]",
                                 f"composition s*[{mu}]s*[{lam_path}]"]
        assert [label for label in labels if label.startswith("composition")] == expected
        assert len(expected) == 304

    def test_corrupted_split_fails(self, split_one, split_two):
        # graft the second example's split graph onto the first example's
        # bookkeeping: the identities must break, with a visible witness
        corrupted = dataclasses.replace(split_one, graph=split_two.graph)
        report = verify_family(SplitEmbedding(corrupted), max_paths=2)
        assert not report.ok
        assert report.failures
        assert "!=" in report.failures[0]

    def test_a_passing_sweep_formats_no_path(self, split_one, split_two, monkeypatch):
        # a check's label is formatted only when the check fails: no path, no degree
        shown, degrees = [], []
        path_str, degree_text = Path.__str__, kp.format_degree

        def counting(p):
            shown.append(p)
            return path_str(p)

        def counting_degree(d):
            degrees.append(d)
            return degree_text(d)

        monkeypatch.setattr(Path, "__str__", counting)
        monkeypatch.setattr(kp, "format_degree", counting_degree)
        emb = SplitEmbedding(split_one)
        assert all(r.ok for r in _all_sweeps(lambda: emb, max_len=2))
        assert shown == [] and degrees == []
        emb = SplitEmbedding(dataclasses.replace(split_one, graph=split_two.graph))
        failures = [f for r in _all_sweeps(lambda: emb, max_len=2) for f in r.failures]
        assert failures == CORRUPTED_FAILURES
        assert shown and degrees == []  # none of these failures names a degree
        assert label_text(("fullness {}@{}", "v", (1, 0))) == "fullness v@(1,0)"
        assert degrees == [(1, 0)]  # a failing label writes its degree through the counted hook

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

    @pytest.mark.parametrize("max_len", [2, 3])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_grouped_products_change_no_report(self, split_one, split_two, corrupt, max_len,
                                               monkeypatch):
        # the sweeps join groups of left operands against groups of right
        # operands; one pair at a time must give the same checks, in the same order
        result = dataclasses.replace(split_one, graph=split_two.graph) if corrupt else split_one
        labels = []
        expect_equal, expect = VerificationReport.expect_equal, VerificationReport.expect

        def recording_equal(report, label, lhs, rhs):
            labels.append(label_text(label))
            expect_equal(report, label, lhs, rhs)

        def recording(report, label, condition):
            labels.append(label_text(label))
            expect(report, label, condition)

        monkeypatch.setattr(VerificationReport, "expect_equal", recording_equal)
        monkeypatch.setattr(VerificationReport, "expect", recording)
        grouped_emb = SplitEmbedding(result)
        grouped = _all_sweeps(lambda: grouped_emb, max_len=max_len)
        grouped_labels = labels[:]
        labels.clear()
        products = KumjianPask.products
        sizes = []

        def one_pair_at_a_time(alg, lefts, rights):
            lefts, rights = list(lefts), list(rights)
            sizes.append(len(lefts) * len(rights))
            return ([next(products(alg, (a,), (b,)))[0] for b in rights] for a in lefts)

        monkeypatch.setattr(KumjianPask, "products", one_pair_at_a_time)
        single_emb = SplitEmbedding(result)
        single = _all_sweeps(lambda: single_emb, max_len=max_len)
        assert max(sizes) > 1
        assert labels == grouped_labels
        assert len(labels) == sum(r.checked for r in grouped)
        assert [r.summary() for r in single] == [r.summary() for r in grouped]
        assert [r.failures for r in single] == [r.failures for r in grouped]
        assert any(r.failures for r in grouped) == corrupt

    def test_grading_reports_a_mixed_image(self, split_one, monkeypatch):
        # an image of n with a degree-zero summand is not homogeneous
        emb = SplitEmbedding(split_one)
        n = split_one.original.make_path(("n",))
        image = emb.path_image
        monkeypatch.setattr(emb, "path_image",
                            lambda p: image(p) + emb.vertex_image(p.range) if p == n else image(p))
        report = verify_grading(emb, max_len=1)
        assert report.failures == ["s[n] homogeneous of (1,0)", "s*[n] homogeneous of -(1,0)"]
        assert report.summary() == "grading: FAIL (2 failures), 32 checks"

    def test_verifier_summaries(self, split_one):
        report = verify_diagonal(SplitEmbedding(split_one), max_len=1)
        assert "pass" in report.summary()

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_every_equality_checked_matches_the_path_action(self, split_one, split_two,
                                                            corrupt, monkeypatch):
        result = dataclasses.replace(split_one, graph=split_two.graph) if corrupt else split_one
        _check_equalities_against_action(SplitEmbedding(result), corrupt, monkeypatch)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_every_rank_three_equality_checked_matches_the_path_action(self, corrupt, monkeypatch):
        emb = (_mutant_embedding if corrupt else SplitEmbedding)(_rank_three_split())
        compared, zero_tests = _check_equalities_against_action(emb, corrupt, monkeypatch)
        if not corrupt:
            # every corner equality is decided by term maps, refined or not
            assert sum(name == "corner" for name, *_ in compared) == 1518
            assert zero_tests["corner"] == 0

    def test_a_dropped_rainbow_term_fails_corner_and_diagonal(self, split_one):
        # the expected side of each failure prints unrefined, as the check built it
        emb = _mutant_embedding(split_one)
        reports = {r.name: r for r in _all_sweeps(lambda: emb, max_len=2)}
        assert [name for name, r in reports.items() if not r.ok] == ["kp-family", "diagonal", "corner"]
        assert reports["diagonal"].failures == DROPPED_TERM_FAILURES[:1]
        assert reports["corner"].failures == DROPPED_TERM_FAILURES[1:]


class TestPathTable:
    @pytest.mark.parametrize("source", ["worked example", "rank-3 split"])
    def test_every_id_names_one_normal_form(self, split_one, source):
        result, max_len = (split_one, 3) if source == "worked example" else (_rank_three_split(), 2)
        emb = SplitEmbedding(result)
        _all_sweeps(lambda: emb, max_len=max_len)
        alg = emb.algebra
        graph = result.graph
        assert len(alg.paths) > 100
        assert len(set(alg.paths)) == len(alg.paths)
        for i, p in enumerate(alg.paths):
            assert graph.normal_form(p) == p
            assert alg.intern(p) == i

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_ids_never_reach_output(self, split_one, split_two, corrupt):
        # two contexts over one split, warmed by the sweeps in opposite
        # orders, number the paths differently and must answer alike
        result = dataclasses.replace(split_one, graph=split_two.graph) if corrupt else split_one
        forward, backward = SplitEmbedding(result), SplitEmbedding(result)
        sweeps = _sweeps(max_len=2)
        reports = [sweep(forward) for sweep in sweeps]
        reversed_reports = [sweep(backward) for sweep in reversed(sweeps)][::-1]
        assert forward.algebra.paths != backward.algebra.paths
        assert sorted(forward.algebra.paths) == sorted(backward.algebra.paths)
        assert [r.summary() for r in reports] == [r.summary() for r in reversed_reports]
        assert [r.failures for r in reports] == [r.failures for r in reversed_reports]
        assert any(r.failures for r in reports) == corrupt
        lam = result.original
        paths = [lam.make_path((e.name,)) for e in lam.edges]
        for emb_a, emb_b in ((forward, backward), (backward, forward)):
            for p in paths:
                for q in paths:
                    x = emb_a.path_image(p) * emb_a.ghost_image(q)
                    y = emb_b.path_image(p) * emb_b.ghost_image(q)
                    assert x.terms() == y.terms()
                    assert str(x) == str(y)
                    assert x.is_zero() == y.is_zero()


# The failure lines of the six sweeps at depth 2 on the first example's
# split carrying the second example's split graph.
CORRUPTED_FAILURES = [
    "composition s[n]s[c]: t[f.1·b.2·α.3·α.1]t*[β.1·α.1]  !=  t[m.1·c.1·α.2·α.1]t*[β.1·α.1]",
    "composition s*[c]s*[n]: t[β.1·α.1]t*[f.1·b.2·α.3·α.1]  !=  t[β.1·α.1]t*[m.1·c.1·α.2·α.1]",
    "composition s[ℓ]s[b]: t[m.1·c.1·α.2·α.1]t*[β.1·α.1]  !=  t[f.1·b.2·α.3·α.1]t*[β.1·α.1]",
    "composition s*[b]s*[ℓ]: t[β.1·α.1]t*[m.1·c.1·α.2·α.1]  !=  t[β.1·α.1]t*[f.1·b.2·α.3·α.1]",
    "carry t[b] to copy 2: t[b.2·α.3]t*[α.2]  !=  t[b.2]",
    "carry t*[b] to copy 2: t[α.2]t*[b.2·α.3]  !=  t*[b.2]",
]


# The diagonal and corner failure lines at depth 2 of the first example's
# split with t[m.1·f.1·h.2]t*[f.1·h.2] dropped from the image of m.
DROPPED_TERM_FAILURES = [
    "diag m: t[m.1·m.1·i.1]t*[m.1·m.1·i.1] + t[m.1·m.1·n.1]t*[m.1·m.1·n.1] + t[m.1·c.1·α.3]t*[m.1·c.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·m.1·ℓ.1]  !=  t[m.1]t*[m.1]",
    "corner t[z.1]t*[m.1]: t*[m.1]  !=  t[m.1·i.1]t*[m.1·m.1·i.1] + t[m.1·n.1]t*[m.1·m.1·n.1] + t[c.1·α.3]t*[m.1·c.1·α.3] + t[m.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
    "corner t[m.1]t*[z.1]: t[m.1]  !=  t[m.1·m.1·i.1]t*[m.1·i.1] + t[m.1·m.1·n.1]t*[m.1·n.1] + t[m.1·c.1·α.3]t*[c.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·ℓ.1]",
    "corner t[m.1]t*[m.1]: t[m.1]t*[m.1]  !=  t[m.1·m.1·i.1]t*[m.1·m.1·i.1] + t[m.1·m.1·n.1]t*[m.1·m.1·n.1] + t[m.1·c.1·α.3]t*[m.1·c.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
    "corner t[m.1]t*[n.1]: t[m.1]t*[n.1]  !=  t[m.1·m.1·i.1]t*[m.1·n.1·i.1] + t[m.1·m.1·n.1]t*[m.1·n.1·n.1] + t[m.1·c.1·α.3]t*[m.1·i.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·n.1·ℓ.1]",
    "corner t[m.1]t*[m.1·m.1]: t[m.1]t*[m.1·m.1]  !=  t[m.1·m.1·i.1]t*[m.1·m.1·m.1·i.1] + t[m.1·m.1·n.1]t*[m.1·m.1·m.1·n.1] + t[m.1·c.1·α.3]t*[m.1·m.1·c.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·m.1·m.1·ℓ.1]",
    "corner t[m.1]t*[m.1·n.1]: t[m.1]t*[m.1·n.1]  !=  t[m.1·m.1·i.1]t*[m.1·m.1·n.1·i.1] + t[m.1·m.1·n.1]t*[m.1·m.1·n.1·n.1] + t[m.1·c.1·α.3]t*[m.1·m.1·i.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·m.1·n.1·ℓ.1]",
    "corner t[m.1]t*[n.1·n.1]: t[m.1]t*[n.1·n.1]  !=  t[m.1·m.1·i.1]t*[m.1·n.1·n.1·i.1] + t[m.1·m.1·n.1]t*[m.1·n.1·n.1·n.1] + t[m.1·c.1·α.3]t*[m.1·n.1·i.1·α.3] + t[m.1·m.1·ℓ.1]t*[m.1·n.1·n.1·ℓ.1]",
    "corner t[n.1]t*[m.1]: t[n.1]t*[m.1]  !=  t[m.1·n.1·i.1]t*[m.1·m.1·i.1] + t[m.1·n.1·n.1]t*[m.1·m.1·n.1] + t[m.1·i.1·α.3]t*[m.1·c.1·α.3] + t[m.1·n.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
    "corner t[m.1·m.1]t*[m.1]: t[m.1·m.1]t*[m.1]  !=  t[m.1·m.1·m.1·i.1]t*[m.1·m.1·i.1] + t[m.1·m.1·m.1·n.1]t*[m.1·m.1·n.1] + t[m.1·m.1·c.1·α.3]t*[m.1·c.1·α.3] + t[m.1·m.1·m.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
    "corner t[m.1·n.1]t*[m.1]: t[m.1·n.1]t*[m.1]  !=  t[m.1·m.1·n.1·i.1]t*[m.1·m.1·i.1] + t[m.1·m.1·n.1·n.1]t*[m.1·m.1·n.1] + t[m.1·m.1·i.1·α.3]t*[m.1·c.1·α.3] + t[m.1·m.1·n.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
    "corner t[n.1·n.1]t*[m.1]: t[n.1·n.1]t*[m.1]  !=  t[m.1·n.1·n.1·i.1]t*[m.1·m.1·i.1] + t[m.1·n.1·n.1·n.1]t*[m.1·m.1·n.1] + t[m.1·n.1·i.1·α.3]t*[m.1·c.1·α.3] + t[m.1·n.1·n.1·ℓ.1]t*[m.1·m.1·ℓ.1]",
]


def _check_equalities_against_action(shared, corrupt, monkeypatch):
    """Run the six sweeps at depth 2 on ``shared`` and check every pair they compare.

    Each pair must be equal exactly when the two sides act alike on the paths
    of the join of their right-path degrees, by ``==``, by ``==`` the other way
    round and by the zero test of the difference.  Returns the compared
    ``(sweep, label, agree, acts_alike)`` rows and the zero tests each sweep's
    own equalities ran.
    """
    compared, zero_tests, factored, sweep = [], collections.Counter(), {}, [None]
    expect_equal, is_zero = VerificationReport.expect_equal, KPElement.is_zero

    def counting(element):
        zero_tests[sweep[0]] += 1
        return is_zero(element)

    def checked(report, label, lhs, rhs):
        n = _right_join(lhs, rhs)
        acts_alike = action(lhs, n, factored) == action(rhs, n, factored)
        answers = {lhs == rhs, rhs == lhs, (lhs - rhs).is_zero(), acts_alike}
        compared.append((report.name, label_text(label), len(answers) == 1, acts_alike))
        sweep[0] = report.name
        expect_equal(report, label, lhs, rhs)
        sweep[0] = None

    monkeypatch.setattr(KPElement, "is_zero", counting)
    monkeypatch.setattr(VerificationReport, "expect_equal", checked)
    reports = _all_sweeps(lambda: shared, max_len=2)
    assert [label for _, label, agree, _ in compared if not agree] == []
    unequal = sum(not acts_alike for *_, acts_alike in compared)
    assert unequal == sum(len(r.failures) for r in reports)
    assert (unequal > 0) == corrupt
    assert len(compared) > 1000
    return compared, zero_tests


def _mutant_embedding(result):
    """An embedding whose cached image of the first edge with two or more
    rainbow terms lacks the first of them."""
    emb = SplitEmbedding(result)
    lam = result.original
    for e in lam.edges:
        x = lam.make_path((e.name,))
        image = emb.path_image(x)
        if len(image) > 1:
            first, _ = image.terms()[0]
            emb._path_cache[x] = image - emb.algebra.term(first.left, first.right)
            return emb
    raise AssertionError("no edge image has two terms")


def _sweeps(max_len: int = 3) -> list:
    """The six sweeps in ``kp-verify`` order and bounds, as functions of an embedding."""
    return [
        lambda emb: verify_universal_family(emb.algebra),
        lambda emb: verify_family(emb, max_paths=max_len),
        verify_swap_identities,
        lambda emb: verify_diagonal(emb, max_len=max_len),
        lambda emb: verify_corner(emb, max_len=min(max_len, 2)),
        lambda emb: verify_grading(emb, max_len=max_len),
    ]


def _all_sweeps(embedding, max_len: int = 3) -> list:
    """The six sweeps in ``kp-verify`` order and bounds, each on ``embedding()``."""
    return [sweep(embedding()) for sweep in _sweeps(max_len)]
