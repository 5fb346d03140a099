"""Acceptance criteria, one test per criterion, timed where required.

Each test prints a single PASS line when its criterion holds; pytest
failure output carries the diagnosis otherwise.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from kgraphs import (
    KumjianPask,
    SplitEmbedding,
    SquareSet,
    outsplit,
    pairing_report,
    product_graph,
    saturation,
    validate,
    verify_corner,
    verify_diagonal,
    verify_family,
    verify_grading,
    verify_swap_identities,
)
from kgraphs.fileformat import parse, parse_partition_file

from conftest import (
    BLUE,
    DATA,
    paper_spec,
    random_double,
    random_one_skeleton,
    shuffled_spec,
)
from oracle import mce_bruteforce
from test_kp import _basis_terms
from test_splitting import (
    GAMMA_ONE_EDGES,
    GAMMA_ONE_SQUARES,
    GAMMA_ONE_VERTICES,
    GAMMA_TWO_EDGES,
    GAMMA_TWO_SQUARES,
    edge_table,
    square_table,
)


@contextmanager
def budget(criterion: str, seconds: float):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"{criterion} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def load(name: str):
    return parse((DATA / name).read_text(encoding="utf-8"))


def split_from_files(name: str):
    doc = load(name)
    graph = doc.build()
    spec = parse_partition_file((DATA / "paper.part").read_text(encoding="utf-8"), doc)
    assert spec == paper_spec()
    return graph, outsplit(graph, spec)


def test_criterion_1_golden_first_split():
    with budget("1 (golden split, first example)", 1.0):
        doc = load("lambda1.kg")
        assert len(doc.skeleton.vertices) == 4
        assert len(doc.skeleton.edges) == 12
        assert len(doc.squares.pairs) == 8
        graph, result = split_from_files("lambda1.kg")
        assert result.graph.vertices == GAMMA_ONE_VERTICES
        assert edge_table(result.graph) == GAMMA_ONE_EDGES
        assert square_table(result.graph) == GAMMA_ONE_SQUARES


def test_criterion_2_golden_second_split():
    with budget("2 (golden split, second example)", 10.0):
        graph, result = split_from_files("lambda2.kg")
        assert result.graph.vertices == GAMMA_ONE_VERTICES
        assert edge_table(result.graph) == GAMMA_TWO_EDGES
        assert square_table(result.graph) == GAMMA_TWO_SQUARES
        assert result.graph.edge("b.1").source == "v.2"
        assert result.graph.edge("b.2").source == "v.3"
        assert frozenset({("f.1", "h.2"), ("n.1", "c.1")}) in square_table(result.graph)
        assert frozenset({("m.1", "i.1"), ("ℓ.1", "b.2")}) in square_table(result.graph)


def test_criterion_3_pairing(lambda_one, lambda_two):
    with budget("3 (pairing reports)", 10.0):
        assert pairing_report(lambda_one, BLUE).ok
        report = pairing_report(lambda_two, BLUE)
        assert not report.ok
        assert report.witness == ("b", ("h", "i"))


def test_criterion_4_axioms(lambda_one, lambda_two, split_one, split_two):
    with budget("4 (axioms and square deletion)", 10.0):
        for graph in (lambda_one, lambda_two, split_one.graph, split_two.graph):
            assert validate(graph.skeleton, graph.squares).ok
            assert graph.is_source_free().ok
        for dropped in lambda_one.squares.pairs:
            remaining = SquareSet(
                tuple(p for p in lambda_one.squares.pairs if p != dropped)
            )
            report = validate(lambda_one.skeleton, remaining)
            assert not report.ok
            assert set(report.unmatched) == {dropped[0], dropped[1]}


def test_criterion_5_swap_identities(split_one):
    with budget("5 (swap identities)", 10.0):
        report = verify_swap_identities(SplitEmbedding(split_one))
        assert report.ok, report.failures[:3]
        # both the forward and the ghost form, for every edge and copy
        expected = 2 * sum(
            split_one.counts[e.range] for e in split_one.original.edges
        )
        assert report.checked == expected


def test_criterion_6_family_relations(split_one):
    with budget("6 (induced family relations)", 60.0):
        report = verify_family(SplitEmbedding(split_one), max_paths=3)
        assert report.ok, report.failures[:3]


def test_criterion_7_diagonal(split_one):
    with budget("7 (diagonal preservation)", 60.0):
        report = verify_diagonal(SplitEmbedding(split_one), max_len=3)
        assert report.ok, report.failures[:3]


def test_criterion_8_corner_and_grading(split_one):
    with budget("8 (corner and grading)", 60.0):
        emb = SplitEmbedding(split_one)
        corner = verify_corner(emb, max_len=2)
        assert corner.ok, corner.failures[:3]
        grading = verify_grading(emb, max_len=3)
        assert grading.ok, grading.failures[:3]


def test_criterion_9_saturation(split_one, split_two):
    with budget("9 (saturation of first copies)", 60.0):
        for result in (split_one, split_two):
            seeds = [result.copy_of(v, 1) for v in result.original.vertices]
            assert saturation(result.graph, seeds) == set(result.graph.vertices)
        rng = random.Random(2026)
        for trial in range(100):
            graph, base = random_double(rng, k=2)
            result = outsplit(graph, shuffled_spec(graph, 1, base, rng))
            seeds = [result.copy_of(v, 1) for v in graph.vertices]
            assert saturation(result.graph, seeds) == set(result.graph.vertices), (
                f"trial {trial}"
            )


def test_criterion_10a_random_products():
    with budget("10a (random products validate)", 60.0):
        rng = random.Random(404)
        for trial in range(60):
            k = rng.choice([2, 3])
            factors = [random_one_skeleton(rng, f"f{i}_") for i in range(k)]
            graph = product_graph(factors)
            assert validate(graph.skeleton, graph.squares).ok, f"trial {trial}"
            assert graph.is_source_free().ok


def test_criterion_10b_random_splits():
    with budget("10b (random splits validate)", 60.0):
        rng = random.Random(505)
        for trial in range(40):
            k = 3 if trial % 4 == 0 else 2
            graph, base = random_double(rng, k=k, max_vertices=5)
            result = outsplit(graph, shuffled_spec(graph, 1, base, rng))
            gamma = result.graph
            assert validate(gamma.skeleton, gamma.squares).ok, f"trial {trial}"
            assert gamma.is_source_free().ok
            for gv in gamma.vertices:
                v = result.parent[gv]
                for c in range(1, k + 1):
                    assert len(gamma.skeleton.edges_into(gv, c)) == len(
                        graph.skeleton.edges_into(v, c)
                    )
            ranges_by_parent: dict[str, list[str]] = {}
            sources_by_parent: dict[str, set[str]] = {}
            for e in gamma.edges:
                parent = result.parent[e.name]
                ranges_by_parent.setdefault(parent, []).append(e.range)
                sources_by_parent.setdefault(parent, set()).add(e.source)
            for ranges in ranges_by_parent.values():
                assert len(set(ranges)) == len(ranges)
            for sources in sources_by_parent.values():
                assert len(sources) == 1


def test_criterion_10c_algebra_oracles(split_one):
    with budget("10c (associativity and extension oracle)", 60.0):
        alg = KumjianPask(split_one.graph)
        rng = random.Random(606)
        terms = _basis_terms(split_one.graph, alg, max_total=2)
        for _ in range(1000):
            a, b, c = (rng.choice(terms) for _ in range(3))
            assert (a * b) * c == a * (b * c)
        lam = split_one.original
        lam_alg = KumjianPask(lam)
        pool = []
        for v in lam.vertices:
            for degree in [
                (1, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2),
            ]:
                pool.extend(lam.paths_with_range(v, degree))
        for _ in range(200):
            mu, nu = rng.choice(pool), rng.choice(pool)
            assert lam_alg.minimal_common_extensions(mu, nu) == mce_bruteforce(lam, mu, nu)
