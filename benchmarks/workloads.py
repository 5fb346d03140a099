"""The three benchmark workloads: their inputs, commands and correctness gate.

A workload is prepared once per set-up (inputs generated from the seed and
written under the run's work directory) and then yields the same list of
:class:`Step` s for every iteration.  Each step is one ``kgraphs`` command
whose exit code, stdout and stderr must match exactly; :meth:`Workload.check_files`
adds the checks on files the commands write.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

import inputs

NAMES = ("worked-example", "kp-rank3", "structural-product")


class Step(NamedTuple):
    command: str  # the subcommand, which is also the per-command timing bucket
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str = ""


def _kp_lines(checks: dict[str, int]) -> str:
    return "".join(f"{sweep}: pass, {n} checks\n" for sweep, n in checks.items())


def _wrote(path: Path, vertices: int, edges: int, squares: int) -> str:
    return (f"wrote {path} ({vertices} vertices, {edges} edges, {squares} squares)\n"
            f"wrote {path}.parents\n")


def _declarations(text: str) -> tuple[int, int, int]:
    """Vertex, edge and square lines of a ``.kg`` document."""
    words = [line.split(" ", 1)[0] for line in text.splitlines()]
    return words.count("vertex"), words.count("edge"), words.count("square")


class Workload:
    name: str
    steps: list[Step]
    input_digest: str
    split_squares: int  # squares written by the iteration's splits, for squares_per_s
    kp_checks: int  # checks over all kp-verify reports of one iteration

    def __init__(self) -> None:
        self.split_digest: str | None = None

    def check_files(self) -> list[str]:
        return []

    def _check_split(self, out: Path, counts: tuple[int, int, int]) -> list[str]:
        """The split output has the expected size and the same bytes every iteration."""
        problems = []
        text = out.read_text(encoding="utf-8")
        if _declarations(text) != counts:
            problems.append(f"{out.name}: declares {_declarations(text)}, expected {counts}")
        digest = inputs.digest(text, Path(f"{out}.parents").read_text(encoding="utf-8"))
        if self.split_digest is None:
            self.split_digest = digest
        elif digest != self.split_digest:
            problems.append(f"{out.name}: digest {digest} differs from {self.split_digest}")
        return problems


class WorkedExample(Workload):
    """The paper's worked 2-graphs from ``tests/data``; the seed changes nothing."""

    name = "worked-example"
    CHECKS = {"universal-family": 180, "kp-family": 2904, "swap-identities": 36,
              "diagonal": 140, "corner": 334, "grading": 280}

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__()
        data = root / "tests" / "data"
        names = ("lambda1.kg", "paper.part", "lambda2.kg", "gamma2.kg", "gamma2.parents",
                 "gamma1.kg", "gamma1.parents")
        texts = [(data / n).read_text(encoding="utf-8") for n in names]
        self.input_digest = inputs.digest(*texts)
        self.golden = {"kg": (data / "gamma1.kg").read_bytes(),
                       "parents": (data / "gamma1.parents").read_bytes()}
        self.out = work / "gamma1.kg"
        counts = _declarations(texts[names.index("gamma1.kg")])
        self.split_squares = counts[2]
        self.kp_checks = sum(self.CHECKS.values())
        lam1, lam2 = str(data / "lambda1.kg"), str(data / "lambda2.kg")
        self.steps = [
            Step("validate", ("validate", lam1), 0, "valid k-graph\n"),
            Step("split", ("split", lam1, "--partition-file", str(data / "paper.part"),
                           "-o", str(self.out)), 0, _wrote(self.out, *counts)),
            Step("kp-verify", ("kp-verify", lam1, "--split-output", str(self.out),
                               "--parents", f"{self.out}.parents", "--max-len", "4"),
                 0, _kp_lines(self.CHECKS)),
            Step("kp-verify", ("kp-verify", lam2, "--split-output", str(data / "gamma2.kg"),
                               "--parents", str(data / "gamma2.parents")),
                 1, "", "input graph is not paired in blue: b : {h, i}\n"),
        ]

    def check_files(self) -> list[str]:
        problems = []
        if self.out.read_bytes() != self.golden["kg"]:
            problems.append("split output differs from tests/data/gamma1.kg")
        if Path(f"{self.out}.parents").read_bytes() != self.golden["parents"]:
            problems.append("split sidecar differs from tests/data/gamma1.parents")
        return problems


class KpRank3(Workload):
    """The rank-3 doubled graph split in color 1 at ``u0``, then ``kp-verify --max-len 2``."""

    name = "kp-rank3"
    SPLIT = (4, 30, 72)
    # validate and split take milliseconds against seconds of kp-verify, so
    # each runs this often per iteration to give validate_s and split_s
    # enough samples in a run.
    REPEATS = 5

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        graph, part = inputs.rank3_graph(), inputs.rank3_partition(rng)
        self.input_digest = inputs.digest(graph, part)
        src, part_file, self.out = work / "rank3.kg", work / "rank3.part", work / "rank3-split.kg"
        src.write_text(graph, encoding="utf-8")
        part_file.write_text(part, encoding="utf-8")
        # The corner sweep's size depends on which copy of u0 is copy 1: the
        # seed commit gives 1494 checks for every block order that puts c_1
        # first at u0 and 1518 for the other four orders.
        first_block = part.splitlines()[1].split()[3]
        checks = {"universal-family": 392, "kp-family": 1140, "swap-identities": 60,
                  "diagonal": 74, "corner": 1494 if first_block == "{c_1}" else 1518,
                  "grading": 148}
        self.split_squares = self.REPEATS * self.SPLIT[2]
        self.kp_checks = sum(checks.values())
        self.steps = [
            *[Step("validate", ("validate", str(src)), 0, "valid k-graph\n")] * self.REPEATS,
            *[Step("split", ("split", str(src), "--partition-file", str(part_file),
                            "-o", str(self.out)), 0, _wrote(self.out, *self.SPLIT))] * self.REPEATS,
            Step("kp-verify", ("kp-verify", str(src), "--split-output", str(self.out),
                               "--parents", f"{self.out}.parents", "--max-len", "2"),
                 0, _kp_lines(checks)),
        ]

    def check_files(self) -> list[str]:
        return self._check_split(self.out, self.SPLIT)


class StructuralProduct(Workload):
    """Product of four 6-cycles, two with a chord: the structural layers only."""

    name = "structural-product"
    INPUT = (1296, 5616, 9108)
    SPLIT = (1512, 6516, 10512)
    # ``props`` at the seed commit; the product and so this text do not depend
    # on the seed.  Colors 1 and 3 carry the chord, so they are unpaired.
    PROPS = (
        "source-free: yes\n"
        "sinks c1: -\nsinks c2: -\nsinks c3: -\nsinks c4: -\n"
        "paired c1: no (s0~2|c0|c0|c0 : {s0~1|c0|c0|c0, x~1|c0|c0|c0})\n"
        "paired c2: yes\n"
        "paired c3: no (s0~1|c0|c0|c0 : {s0~3|c0|c0|c0, x~3|c0|c0|c0})\n"
        "paired c4: yes\n"
    )

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__()
        rng = random.Random(seed)
        product = inputs.Product()
        text = product.text()
        if _declarations(text) != self.INPUT:
            raise RuntimeError(f"generator drifted: {_declarations(text)} != {self.INPUT}")
        part = product.partition(rng)
        drop = product.drop_squares(rng)
        broken = product.text(drop)
        self.input_digest = inputs.digest(text, part, broken)
        src, part_file, bad = work / "product.kg", work / "product.part", work / "product-broken.kg"
        self.out = work / "product-split.kg"
        src.write_text(text, encoding="utf-8")
        part_file.write_text(part, encoding="utf-8")
        bad.write_text(broken, encoding="utf-8")
        self.split_squares = self.SPLIT[2]
        self.kp_checks = 0
        self.steps = [
            Step("validate", ("validate", str(src)), 0, "valid k-graph\n"),
            Step("props", ("props", str(src)), 0, self.PROPS),
            Step("split", ("split", str(src), "--partition-file", str(part_file),
                           "-o", str(self.out)), 0, _wrote(self.out, *self.SPLIT)),
            Step("validate", ("validate", str(self.out)), 0, "valid k-graph\n"),
            Step("validate", ("validate", str(bad)), 1, product.unmatched_report(drop)),
        ]

    def check_files(self) -> list[str]:
        return self._check_split(self.out, self.SPLIT)


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    cls = {"worked-example": WorkedExample, "kp-rank3": KpRank3,
           "structural-product": StructuralProduct}[name]
    return cls(root, work, seed)
