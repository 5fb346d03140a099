"""Seeded input generators for the benchmark workloads.

Everything here is self-contained: the graphs are written straight to the
``.kg`` text format (canonical order, as ``kgraphs.fileformat.serialize``
would write them) without importing the package under test, so the program
only ever sees the generated files.  The same seed always gives the same
bytes; :func:`digest` fingerprints them so two runs can be shown to have
used the same inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random

# -- the rank-3 doubled graph -------------------------------------------------

RANK3_VERTICES = ("u0", "u1")
RANK3_ARROWS = (("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"), ("d", "u1", "u0"))
RANK3_K = 3


def _document(k: int, vertices, edges, squares) -> str:
    """Canonical ``.kg`` text: sorted vertices, edges by id, normalized squares."""
    colors = [f"c{i}" for i in range(1, k + 1)]
    lines = [f"kgraph 1 k={k} colors={','.join(colors)}"]
    lines.extend(f"vertex {v}" for v in sorted(vertices))
    lines.extend(
        f"edge {name} : c{color} {src} -> {dst}" for name, color, src, dst in sorted(edges)
    )
    normalized = sorted({(s1, s2) if s1 <= s2 else (s2, s1) for s1, s2 in squares})
    lines.extend(f"square {a} {b} = {c} {d}" for (a, b), (c, d) in normalized)
    return "\n".join(lines) + "\n"


def rank3_graph() -> str:
    """k color copies of a digraph; adjacent colors swap diagonally.

    Every arrow ``x`` gives edges ``x_1 .. x_k``; each composable pair of
    arrows ``(p after q)`` gives the squares ``p_i q_j = p_j q_i`` for
    ``i < j``.  The result is paired in every color, source-free and
    sink-free.
    """
    edges = [(f"{n}_{c}", c, s, t) for n, s, t in RANK3_ARROWS for c in range(1, RANK3_K + 1)]
    squares = []
    for an, asrc, _ in RANK3_ARROWS:
        for bn, _, bdst in RANK3_ARROWS:
            if asrc != bdst:
                continue
            for i, j in itertools.combinations(range(1, RANK3_K + 1), 2):
                squares.append(((f"{an}_{i}", f"{bn}_{j}"), (f"{an}_{j}", f"{bn}_{i}")))
    return _document(RANK3_K, RANK3_VERTICES, edges, squares)


def rank3_partition(rng: random.Random) -> str:
    """Split in color 1 at ``u0``: its three color-1 edges in a seeded block order."""
    blocks = [f"{n}_1" for n, s, _ in RANK3_ARROWS if s == "u0"]
    rng.shuffle(blocks)
    rest = sorted(f"{n}_1" for n, s, _ in RANK3_ARROWS if s == "u1")
    return (
        "split color=c1 base=u0\n"
        f"partition u0 : {' '.join('{' + b + '}' for b in blocks)}\n"
        f"partition u1 : {{{','.join(rest)}}}\n"
    )


# -- the chorded-cycle product ------------------------------------------------

CYCLE_LENGTH = 6
CHORDED = (True, False, True, False)  # factors 1 and 3 carry the chord c0 -> c2
PRODUCT_BASE = "|".join(["c0"] * len(CHORDED))


def _factor_edges(chord: bool) -> list[tuple[str, str, str]]:
    n = CYCLE_LENGTH
    edges = [(f"s{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    if chord:
        edges.append(("x", "c0", "c2"))
    return edges


class Product:
    """Cartesian product of cycles, named as ``kgraphs.skeleton.product_graph`` names it.

    Factor ``i`` moves coordinate ``i`` in color ``i``.  Every pair of edges
    in distinct factors commutes in exactly one square.
    """

    def __init__(self) -> None:
        k = len(CHORDED)
        self.k = k
        factor_vertices = [f"c{i}" for i in range(CYCLE_LENGTH)]
        factors = [_factor_edges(chord) for chord in CHORDED]
        coords = list(itertools.product(factor_vertices, repeat=k))

        def ename(i: int, edge: str, at: tuple[str, ...]) -> str:
            return f"{edge}~{i + 1}|{'|'.join(at[:i] + at[i + 1:])}"

        self.vertices = ["|".join(c) for c in coords]
        self.edges = []  # (name, color, source, range)
        for i, factor in enumerate(factors):
            for name, src, dst in factor:
                for c in coords:
                    if c[i] == src:
                        target = c[:i] + (dst,) + c[i + 1:]
                        self.edges.append((ename(i, name, c), i + 1, "|".join(c), "|".join(target)))
        self.squares = []
        for i, j in itertools.combinations(range(k), 2):
            others = [x for x in range(k) if x not in (i, j)]
            for ni, si, ri in factors[i]:
                for nj, sj, rj in factors[j]:
                    for rest in itertools.product(factor_vertices, repeat=len(others)):
                        base = [""] * k
                        for axis, val in zip(others, rest):
                            base[axis] = val

                        def at(ci: str, cj: str) -> tuple[str, ...]:
                            c = list(base)
                            c[i], c[j] = ci, cj
                            return tuple(c)

                        side1 = (ename(i, ni, at(si, rj)), ename(j, nj, at(si, sj)))
                        side2 = (ename(j, nj, at(ri, sj)), ename(i, ni, at(si, sj)))
                        self.squares.append((side1, side2))
        self.squares = sorted({(a, b) if a <= b else (b, a) for a, b in self.squares})

    def text(self, drop: frozenset[int] = frozenset()) -> str:
        kept = [sq for n, sq in enumerate(self.squares) if n not in drop]
        return _document(self.k, self.vertices, self.edges, kept)

    def partition(self, rng: random.Random) -> str:
        """Split in color 1 at the base: seeded block order wherever there is a choice.

        Every vertex with two outgoing color-1 edges (first coordinate ``c0``)
        lies in the split region and gets its singleton blocks shuffled; the
        others get their single block.
        """
        out: dict[str, list[str]] = {}
        for name, color, src, _ in sorted(self.edges):
            if color == 1:
                out.setdefault(src, []).append(name)
        lines = [f"split color=c1 base={PRODUCT_BASE}"]
        for v in sorted(out):
            names = out[v]
            if len(names) > 1:
                rng.shuffle(names)
                blocks = " ".join("{" + n + "}" for n in names)
            else:
                blocks = "{" + names[0] + "}"
            lines.append(f"partition {v} : {blocks}")
        return "\n".join(lines) + "\n"

    def drop_squares(self, rng: random.Random, share: float = 0.02) -> frozenset[int]:
        """A seeded choice of square indices to remove for the corrupted copy."""
        return frozenset(rng.sample(range(len(self.squares)), round(share * len(self.squares))))

    def unmatched_report(self, drop: frozenset[int]) -> str:
        """The exact ``validate`` output for the copy without the dropped squares.

        Removing one square leaves both of its sides without a partner and
        touches nothing else (the hexagon sweep skips 3-paths whose swaps are
        missing).  ``validate`` lists unmatched sides by inner edge id, then
        by the outer edge's color and id.
        """
        color = {name: c for name, c, _, _ in self.edges}
        sides = [side for n in sorted(drop) for side in self.squares[n]]
        sides.sort(key=lambda side: (side[1], color[side[0]], side[0]))
        lines = [f"completeness: 2-path {outer} {inner} has no square partner" for outer, inner in sides]
        return "\n".join(lines) + "\ninvalid\n"


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]
