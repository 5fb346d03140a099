"""Shared fixtures: the two worked 2-graphs, their splits, generators, and `product_graph`."""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Sequence

import pytest

from kgraphs import (
    Edge,
    KGraph,
    Skeleton,
    SplitSpec,
    SquareSet,
    StructureError,
    build_kgraph,
    default_spec,
    outsplit,
    split_region,
)

BLUE, RED = 1, 2
DATA = Path(__file__).parent / "data"

LAMBDA_VERTICES = ["v", "x", "y", "z"]
LAMBDA_EDGES = [
    ("α", BLUE, "v", "v"),
    ("h", BLUE, "v", "x"),
    ("i", BLUE, "v", "z"),
    ("k", BLUE, "x", "y"),
    ("ℓ", BLUE, "x", "z"),
    ("n", BLUE, "z", "z"),
    ("β", RED, "v", "v"),
    ("b", RED, "v", "x"),
    ("c", RED, "v", "z"),
    ("e", RED, "x", "y"),
    ("f", RED, "x", "z"),
    ("m", RED, "z", "z"),
]
SQUARES_ONE = [
    (("β", "α"), ("α", "β")),
    (("b", "α"), ("h", "β")),
    (("c", "α"), ("i", "β")),
    (("e", "h"), ("k", "b")),
    (("f", "h"), ("ℓ", "b")),
    (("m", "ℓ"), ("n", "f")),
    (("m", "n"), ("n", "m")),
    (("m", "i"), ("n", "c")),
]
# two squares differ: f h pairs with n c, and m i with ℓ b
SQUARES_TWO = [
    (("β", "α"), ("α", "β")),
    (("b", "α"), ("h", "β")),
    (("c", "α"), ("i", "β")),
    (("e", "h"), ("k", "b")),
    (("f", "h"), ("n", "c")),
    (("m", "ℓ"), ("n", "f")),
    (("m", "n"), ("n", "m")),
    (("m", "i"), ("ℓ", "b")),
]
PAPER_PARTITIONS = {
    "v": (("α",), ("h",), ("i",)),
    "x": (("k",), ("ℓ",)),
    "z": (("n",),),
}


def lambda_skeleton() -> Skeleton:
    return Skeleton.create(2, LAMBDA_VERTICES, [Edge(*spec) for spec in LAMBDA_EDGES])


@pytest.fixture(scope="session")
def lambda_one() -> KGraph:
    sk = lambda_skeleton()
    return build_kgraph(sk, SquareSet.create(sk, SQUARES_ONE))


@pytest.fixture(scope="session")
def lambda_two() -> KGraph:
    sk = lambda_skeleton()
    return build_kgraph(sk, SquareSet.create(sk, SQUARES_TWO))


def paper_spec() -> SplitSpec:
    return SplitSpec(BLUE, "v", PAPER_PARTITIONS)


@pytest.fixture(scope="session")
def split_one(lambda_one):
    return outsplit(lambda_one, paper_spec())


@pytest.fixture(scope="session")
def split_two(lambda_two):
    return outsplit(lambda_two, paper_spec())


def diagonal_double(vertices, arrows, k: int) -> KGraph:
    """k color copies of a digraph, adjacent colors swapping diagonally.

    ``arrows`` is a list of (name, source, target).  The result is a valid
    k-graph that is paired in every color; it is source-free iff every
    vertex has an incoming arrow, and sink-free iff every vertex has an
    outgoing one.
    """
    edges = [
        Edge(f"{name}_{c}", c, src, dst)
        for (name, src, dst) in arrows
        for c in range(1, k + 1)
    ]
    skeleton = Skeleton.create(k, vertices, edges)
    pairs = []
    for an, asrc, adst in arrows:
        for bn, bsrc, bdst in arrows:
            if asrc != bdst:
                continue
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    pairs.append(((f"{an}_{i}", f"{bn}_{j}"), (f"{an}_{j}", f"{bn}_{i}")))
    return build_kgraph(skeleton, SquareSet.create(skeleton, pairs))


def random_arrows(rng: random.Random, max_vertices: int = 6, *, sink_free: bool = False):
    """A random digraph where every vertex has an incoming arrow and some
    vertex has out-degree at least two (so the double is splittable)."""
    n = rng.randint(2, max_vertices)
    vertices = [f"u{i}" for i in range(n)]
    arrows = []
    counter = 0

    def arrow(src, dst):
        nonlocal counter
        arrows.append((f"a{counter}", src, dst))
        counter += 1

    for v in vertices:
        arrow(rng.choice(vertices), v)
    if sink_free:
        for v in vertices:
            if not any(src == v for _, src, _ in arrows):
                arrow(v, rng.choice(vertices))
    base = rng.choice(vertices)
    while sum(1 for _, src, _ in arrows if src == base) < 2:
        arrow(base, rng.choice(vertices))
    for _ in range(rng.randint(0, n)):
        arrow(rng.choice(vertices), rng.choice(vertices))
    return vertices, arrows, base


def random_double(rng: random.Random, k: int = 2, max_vertices: int = 6):
    """A random paired k-graph with a splittable base vertex."""
    vertices, arrows, base = random_arrows(rng, max_vertices, sink_free=(k >= 3))
    return diagonal_double(vertices, arrows, k), base


def shuffled_spec(graph: KGraph, color: int, base: str, rng: random.Random) -> SplitSpec:
    """Default partition with randomly reordered blocks on the region."""
    spec = default_spec(graph, color, base)
    region = split_region(graph, color, base)
    partitions = {}
    for v, blocks in spec.partitions.items():
        blocks = list(blocks)
        if v in region:
            rng.shuffle(blocks)
        partitions[v] = tuple(blocks)
    return SplitSpec(color, base, partitions)


def random_one_skeleton(rng: random.Random, tag: str, max_vertices: int = 6) -> Skeleton:
    """A random source-free 1-colored skeleton (every vertex has fan-in)."""
    n = rng.randint(1, max_vertices)
    vertices = [f"{tag}{i}" for i in range(n)]
    edges = [
        Edge(f"{tag}in{i}", 1, rng.choice(vertices), v)
        for i, v in enumerate(vertices)
    ]
    for j in range(rng.randint(0, n)):
        edges.append(Edge(f"{tag}x{j}", 1, rng.choice(vertices), rng.choice(vertices)))
    return Skeleton.create(1, vertices, edges)


def product_graph(factors: Sequence[Skeleton]) -> KGraph:
    """Cartesian product of single-color graphs, with its unique square structure.

    Factor i contributes the color-i edges, which move the i-th coordinate.
    Every pair of edges in distinct factors commutes in exactly one way, so
    the result always validates; it is source-free when every factor vertex
    has an incoming edge.
    """
    if not factors:
        raise ValueError("need at least one factor")
    for i, f in enumerate(factors, start=1):
        if f.k != 1:
            raise StructureError(f"factor {i} must be 1-colored, has k={f.k}")
        if not f.vertices:
            raise StructureError(f"factor {i} is empty")
        for v in f.vertices:
            if not f.edges_into(v, 1):
                raise StructureError(f"factor {i} is not source-free: vertex {v!r}")
    k = len(factors)
    if k == 1:
        return build_kgraph(factors[0], SquareSet(()))

    def vname(point: tuple[str, ...]) -> str:
        return "|".join(point)

    def ename(i: int, edge: Edge, point: tuple[str, ...]) -> str:
        return f"{edge.name}~{i + 1}|{'|'.join(point[:i] + point[i + 1 :])}"

    def step(point: tuple[str, ...], i: int, edge: Edge) -> tuple[str, ...]:
        return point[:i] + (edge.range,) + point[i + 1 :]

    points = list(itertools.product(*[f.vertices for f in factors]))
    vertices = [vname(p) for p in points]
    edges = []
    pairs = []
    for p in points:
        out = [(i, e) for i, f in enumerate(factors) for e in f.edges_from(p[i], 1)]
        edges.extend(Edge(ename(i, e, p), i + 1, vname(p), vname(step(p, i, e))) for i, e in out)
        for (i, ei), (j, ej) in itertools.combinations(out, 2):
            if i != j:  # side 1 moves factor j first, side 2 factor i first
                pairs.append(((ename(i, ei, step(p, j, ej)), ename(j, ej, p)),
                              (ename(j, ej, step(p, i, ei)), ename(i, ei, p))))
    skeleton = Skeleton.create(k, vertices, edges)
    return build_kgraph(skeleton, SquareSet.create(skeleton, pairs))
