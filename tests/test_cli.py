"""Command surface: outputs, exit codes, golden files."""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import importlib
import io
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kgraphs.cli
from kgraphs import Edge, Skeleton, kp
from kgraphs.cli import main
from kgraphs.fileformat import document_for_graph, dot_export, parse, serialize

from conftest import DATA, diagonal_double, product_graph


SWEEPS = ("universal-family", "kp-family", "swap-identities", "diagonal", "corner", "grading")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path):
    for name in ("lambda1.kg", "lambda2.kg", "paper.part", "gamma1.kg",
                 "gamma2.kg", "gamma1.parents", "gamma2.parents"):
        shutil.copy(DATA / name, tmp_path / name)
    return tmp_path


class TestValidate:
    def test_valid_graph(self, capsys, workdir):
        code, out, _ = run(capsys, "validate", str(workdir / "lambda1.kg"))
        assert code == 0
        assert "valid k-graph" in out

    def test_invalid_graph_reports_orphans(self, capsys, workdir):
        text = (workdir / "lambda1.kg").read_text(encoding="utf-8")
        broken = text.replace("square f h = ℓ b\n", "")
        target = workdir / "broken.kg"
        target.write_text(broken, encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(target))
        assert code == 1
        assert "f h" in out and "ℓ b" in out

    @pytest.mark.parametrize("command", ["props", "split"])
    def test_invalid_graph_is_refused_before_use(self, capsys, workdir, command):
        text = (workdir / "lambda1.kg").read_text(encoding="utf-8")
        target = workdir / "broken.kg"
        target.write_text(text.replace("square f h = ℓ b\n", ""), encoding="utf-8")
        options = {"props": [], "split": ["--color", "blue", "--base", "v", "-o",
                                          str(workdir / "out.kg")]}[command]
        code, out, err = run(capsys, command, str(target), *options)
        assert (code, out) == (1, "")
        assert err == (f"{target}: not a valid k-graph\n"
                       "completeness: 2-path ℓ b has no square partner\n"
                       "completeness: 2-path f h has no square partner\n")
        assert not (workdir / "out.kg").exists()

    def test_parse_error_is_usage_error(self, capsys, workdir):
        target = workdir / "bad.kg"
        target.write_text("kgraph 1 k=2 colors=blue,red\nvertex v\nvertex v\n")
        code, _, err = run(capsys, "validate", str(target))
        assert code == 2
        assert "line 3" in err

    def test_vertex_reusing_an_edge_id_is_a_parse_error(self, capsys, workdir):
        target = workdir / "t.kg"
        target.write_text("kgraph 1 k=1 colors=blue\nvertex v\nedge a : blue v -> v\nvertex a\n")
        code, out, err = run(capsys, "validate", str(target))
        assert (code, out) == (2, "")
        assert err == f"{target}: line 4, column 8: duplicate id 'a'\n"

    def test_missing_file(self, capsys, workdir):
        code, _, err = run(capsys, "validate", str(workdir / "absent.kg"))
        assert code == 2

    def test_non_utf8_file_is_usage_error(self, capsys, workdir):
        target = workdir / "binary.kg"
        target.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "validate", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"{target}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


class TestProps:
    def test_report(self, capsys, workdir):
        code, out, _ = run(capsys, "props", str(workdir / "lambda1.kg"))
        assert code == 0
        assert "source-free: yes" in out
        assert "sinks blue: y" in out
        assert "sinks red: y" in out
        assert "paired blue: yes" in out

    def test_color_filter(self, capsys, workdir):
        code, out, _ = run(
            capsys, "props", str(workdir / "lambda2.kg"), "--color", "blue"
        )
        assert code == 0
        assert "paired blue: no (b : {h, i})" in out
        assert "paired red" not in out

    def test_unknown_color_rejected(self, capsys, workdir):
        code, _, err = run(
            capsys, "props", str(workdir / "lambda1.kg"), "--color", "green"
        )
        assert code == 2
        assert "unknown color" in err

    def test_unknown_color_is_resolved_before_output(self, capsys, workdir):
        code, out, err = run(
            capsys, "props", str(workdir / "lambda1.kg"), "--color", "green"
        )
        assert code == 2
        assert out == ""
        assert err == "unknown color 'green'; have blue, red\n"

    def test_source_witnesses(self, capsys, workdir):
        target = workdir / "lonely.kg"
        target.write_text(
            "kgraph 1 k=2 colors=blue,red\nvertex p\nvertex q\n"
            "edge a : blue p -> p\nedge r : red p -> p\nsquare r a = a r\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "props", str(target))
        assert code == 0
        assert "source-free: no (q,blue) (q,red)" in out


class _FillingFile:
    """A text file opened for writing that fails with ``ENOSPC`` after ``room`` lines."""

    def __init__(self, file, room: int):
        self.file, self.room = file, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def writelines(self, lines):
        for line in lines:
            if not self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.file.write(line)
            self.room -= 1


def _traced_peak(argv: list[str]) -> int:
    """Bytes allocated at the peak of one ``main(argv)`` call, above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSplit:
    def test_golden_byte_compare(self, capsys, workdir):
        out_path = workdir / "out.kg"
        code, out, _ = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--partition-file",
            str(workdir / "paper.part"),
            "-o",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (DATA / "gamma1.kg").read_bytes()
        sidecar = workdir / "out.kg.parents"
        assert sidecar.read_bytes() == (DATA / "gamma1.parents").read_bytes()

    def test_second_example(self, capsys, workdir):
        out_path = workdir / "out2.kg"
        code, *_ = run(
            capsys,
            "split",
            str(workdir / "lambda2.kg"),
            "--partition-file",
            str(workdir / "paper.part"),
            "-o",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (DATA / "gamma2.kg").read_bytes()

    def test_default_partition(self, capsys, workdir):
        out_path = workdir / "d.kg"
        code, *_ = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--color",
            "blue",
            "--base",
            "v",
            "-o",
            str(out_path),
        )
        assert code == 0
        run_code, out, _ = run(capsys, "validate", str(out_path))
        assert run_code == 0

    def test_split_block_in_document(self, capsys, workdir):
        # split and partition lines are read only from a partition file
        source = (workdir / "lambda1.kg").read_text(encoding="utf-8")
        block = (DATA / "paper.part").read_text(encoding="utf-8")
        target = workdir / "with_block.kg"
        target.write_text(source + block, encoding="utf-8")
        out_path = workdir / "blocked.kg"
        code, out, err = run(capsys, "split", str(target), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"{target}: line 27, column 1: unknown declaration 'split'\n"
        assert not out_path.exists()
        part = workdir / "block.part"
        part.write_text(block, encoding="utf-8")
        code, *_ = run(capsys, "split", str(workdir / "lambda1.kg"), "--partition-file", str(part),
                       "-o", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / "gamma1.kg").read_bytes()

    @pytest.mark.parametrize("extra", [["--color", "blue"], ["--base", "v"], []],
                             ids=["with-color", "with-base", "split-line-only"])
    def test_one_request_source(self, capsys, workdir, extra):
        # a partition file names color and base itself; with no partition
        # lines it asks for the default partition, as --color/--base do
        part = workdir / "only.part"
        part.write_text("split color=blue base=v\n", encoding="utf-8")
        out_path = workdir / "out.kg"
        code, out, err = run(capsys, "split", str(workdir / "lambda1.kg"),
                             "--partition-file", str(part), *extra, "-o", str(out_path))
        if extra:
            assert (code, out, err) == (2, "", "give --partition-file or --color/--base, not both\n")
            assert not out_path.exists() and not (workdir / "out.kg.parents").exists()
            return
        assert code == 0
        default = workdir / "default.kg"
        assert run(capsys, "split", str(workdir / "lambda1.kg"), "--color", "blue", "--base", "v",
                   "-o", str(default))[0] == 0
        assert out_path.read_bytes() == default.read_bytes()
        assert (workdir / "out.kg.parents").read_bytes() == (workdir / "default.kg.parents").read_bytes()

    def test_no_spec_is_usage_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "split", str(workdir / "lambda1.kg"), "-o", str(workdir / "x.kg")
        )
        assert code == 2
        assert "no split requested" in err

    def test_missing_output_directory(self, capsys, workdir):
        target = workdir / "nodir" / "out.kg"
        code, out, err = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--partition-file",
            str(workdir / "paper.part"),
            "-o",
            str(target),
        )
        assert code == 2
        assert out == ""
        assert err == f"{target}: No such file or directory\n"

    def test_unwritable_sidecar_leaves_no_output(self, capsys, workdir):
        target = workdir / "o.kg"
        (workdir / "o.kg.parents").mkdir()
        code, out, err = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--partition-file",
            str(workdir / "paper.part"),
            "-o",
            str(target),
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"{target}.parents: ")
        assert not target.exists()

    def test_unwritable_sidecar_keeps_a_symlinked_output(self, capsys, workdir):
        # the document went to the null device through a symlink: the failed
        # sidecar write removes no regular file, so the user's symlink stays
        target = workdir / "out.kg"
        target.symlink_to(os.devnull)
        (workdir / "out.kg.parents").mkdir()
        code, out, err = run(capsys, "split", str(workdir / "lambda1.kg"), "--partition-file",
                             str(workdir / "paper.part"), "-o", str(target))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"{target}.parents: ")
        assert target.is_symlink()

    @pytest.mark.parametrize("block, fixed, line, column", [
        ("{α,}", "{α}", 2, 18), ("{,k}", "{k}", 3, 16), ("{n,,}", "{n}", 4, 18)],
        ids=["last", "first", "middle"])
    def test_empty_edge_id_in_a_block_is_refused(self, capsys, workdir, block, fixed, line, column):
        part = workdir / "paper.part"
        part.write_text(part.read_text(encoding="utf-8").replace(fixed, block), encoding="utf-8")
        target = workdir / "out.kg"
        code, out, err = run(capsys, "split", str(workdir / "lambda1.kg"), "--partition-file",
                             str(part), "-o", str(target))
        assert (code, out) == (2, "")
        assert err == f"{part}: line {line}, column {column}: empty edge id\n"
        assert not target.exists()

    def test_peak_is_near_that_of_validating_the_output(self, capsys, tmp_path):
        # split must hold the input and its split and re-validate the split, and
        # nothing more: no list of lifted squares, no whole text of either file.
        # At 256 vertices the ratio read 2.08 with both and reads 1.40 without.
        graph = product_graph([_cycle_with_chord(tag, 4) for tag in "fghi"])
        source, target = tmp_path / "product.kg", tmp_path / "split.kg"
        source.write_text(serialize(document_for_graph(graph, ["c1", "c2", "c3", "c4"])),
                          encoding="utf-8")
        assert main(["validate", str(source)]) == 0  # builds the parser before any tracing
        split = _traced_peak(["split", str(source), "--color", "c1", "--base", "f0|g0|h0|i0",
                              "-o", str(target)])
        validate = _traced_peak(["validate", str(target)])
        assert split < 1.8 * validate, (split, validate)

    @pytest.mark.parametrize("failing", ["o.kg", "o.kg.parents"], ids=["document", "sidecar"])
    def test_failed_write_leaves_no_split_file(self, capsys, workdir, monkeypatch, failing):
        # the disk fills after three lines of one file: neither file is left behind
        opened = Path.open

        def open_filling(path, mode="r", *args, **kwargs):
            file = opened(path, mode, *args, **kwargs)
            return _FillingFile(file, 3) if path.name == failing and "w" in mode else file

        monkeypatch.setattr(Path, "open", open_filling)
        target = workdir / "o.kg"
        code, out, err = run(capsys, "split", str(workdir / "lambda1.kg"), "--partition-file",
                             str(workdir / "paper.part"), "-o", str(target))
        assert (code, out) == (2, "")
        assert err == f"{workdir / failing}: {os.strerror(errno.ENOSPC)}\n"
        assert not target.exists() and not (workdir / "o.kg.parents").exists()

    def test_unknown_base_is_usage_error(self, capsys, workdir):
        code, out, err = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--color",
            "blue",
            "--base",
            "nosuch",
            "-o",
            str(workdir / "x.kg"),
        )
        assert code == 2
        assert out == ""
        assert err == "unknown base vertex 'nosuch'\n"
        assert not (workdir / "x.kg").exists()

    def test_precondition_failure(self, capsys, workdir):
        # base vertex with a single outgoing blue edge
        code, _, err = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--color",
            "blue",
            "--base",
            "z",
            "-o",
            str(workdir / "x.kg"),
        )
        assert code == 1
        assert "fewer than two" in err


class TestPaired:
    def test_paired_graph(self, capsys, workdir):
        code, out, _ = run(
            capsys, "paired", str(workdir / "lambda1.kg"), "--color", "blue"
        )
        assert code == 0
        assert out.strip() == "paired"

    def test_unpaired_graph_prints_witness(self, capsys, workdir):
        code, out, _ = run(
            capsys, "paired", str(workdir / "lambda2.kg"), "--color", "blue"
        )
        assert code == 1
        assert out.strip() == "b : {h, i}"


class TestSaturate:
    def test_first_copies(self, capsys, workdir):
        code, out, _ = run(
            capsys,
            "saturate",
            str(workdir / "gamma1.kg"),
            "--set",
            "v.1,x.1,y.1,z.1",
        )
        assert code == 0
        assert out.splitlines() == ["v.1", "v.2", "v.3", "x.1", "x.2", "y.1", "z.1"]

    def test_unknown_vertex(self, capsys, workdir):
        code, _, err = run(
            capsys, "saturate", str(workdir / "gamma1.kg"), "--set", "v.9"
        )
        assert code == 2

    def test_vertex_without_incoming_paths_is_not_added(self, capsys, tmp_path):
        # v receives no blue path, so the saturation rule has nothing to say
        # about it; the empty set is already hereditary and saturated
        target = tmp_path / "source.kg"
        target.write_text("kgraph 1 k=1 colors=blue\nvertex v\nvertex x\nedge a : blue v -> x\n")
        code, out, _ = run(capsys, "saturate", str(target), "--set", "")
        assert (code, out) == (0, "")

    def test_loop_seed_does_not_pull_in_a_source(self, capsys, tmp_path):
        target = tmp_path / "source.kg"
        target.write_text(
            "kgraph 1 k=1 colors=blue\nvertex v\nvertex w\nvertex x\n"
            "edge a : blue v -> x\nedge l : blue w -> w\n"
        )
        code, out, _ = run(capsys, "saturate", str(target), "--set", "w")
        assert (code, out.splitlines()) == (0, ["w"])


class TestKpVerify:
    def test_all_identities_pass(self, capsys, workdir):
        code, out, _ = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(workdir / "gamma1.parents"),
            "--max-len",
            "2",
        )
        assert code == 0
        assert "universal-family: pass" in out
        assert "kp-family: pass" in out
        assert "swap-identities: pass" in out
        assert "diagonal: pass" in out
        assert "corner: pass" in out
        assert "grading: pass" in out

    def test_mismatched_split_fails(self, capsys, workdir):
        # the second example's split is not a split of the first example:
        # replaying its partition on the first gives the first's split, whose
        # b.2 starts at v.2, not v.3
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma2.kg"),
            "--parents",
            str(workdir / "gamma2.parents"),
            "--max-len",
            "2",
        )
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: edge b.2 : red v.2 -> x.2 "
                       "is in the split of the input but not in the files\n")

    def test_first_split_of_second_example_is_inconsistent(self, capsys, workdir):
        # the reverse graft: the first example's split is not the second's;
        # the split data is refused before the pairing gate, with the first
        # line of the replay that the files lack
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda2.kg"),
                             "--split-output", str(workdir / "gamma1.kg"),
                             "--parents", str(workdir / "gamma1.parents"))
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: edge b.2 : red v.3 -> x.2 "
                       "is in the split of the input but not in the files\n")

    def test_unpaired_input_fails(self, capsys, workdir):
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda2.kg"),
            "--split-output",
            str(workdir / "gamma2.kg"),
            "--parents",
            str(workdir / "gamma2.parents"),
            "--max-len",
            "2",
        )
        assert (code, out) == (1, "")
        assert err == "input graph is not paired in blue: b : {h, i}\n"

    @pytest.mark.parametrize("parent", ["nosuch", "v"])
    def test_bad_edge_parent_is_inconsistent(self, capsys, workdir, parent):
        # an unknown edge, or a vertex, named as the parent of an edge copy
        sidecar = workdir / "gamma1.parents"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace("parent b.1 = b\n", f"parent b.1 = {parent}\n"),
                           encoding="utf-8")
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(sidecar),
        )
        assert code == 1
        assert out == ""
        assert err == ("inconsistent split data: parent b.1 = b "
                       "is in the split of the input but not in the files\n")

    def test_parent_line_for_unknown_item_is_inconsistent(self, capsys, workdir):
        sidecar = workdir / "gamma1.parents"
        with sidecar.open("a", encoding="utf-8") as f:
            f.write("parent nosuch.1 = e\n")
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(sidecar),
        )
        assert code == 1
        assert out == ""
        assert err == ("inconsistent split data: parent nosuch.1 = e "
                       "is in the files but not in the split of the input\n")

    @pytest.mark.parametrize("base", ["nosuch", "-"])
    def test_sidecar_base_must_be_a_vertex(self, capsys, workdir, base):
        # "-" is a reserved id, so no vertex has it
        sidecar = workdir / "gamma1.parents"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace("base=v\n", f"base={base}\n", 1), encoding="utf-8")
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(sidecar),
            "--max-len",
            "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"inconsistent split data: unknown base vertex {base!r}\n"

    def test_unknown_sidecar_color_is_inconsistent(self, capsys, workdir):
        sidecar = workdir / "gamma1.parents"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace("color=blue", "color=green"), encoding="utf-8")
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(workdir / "gamma1.kg"),
                             "--parents", str(sidecar))
        assert (code, out) == (1, "")
        assert err == "inconsistent split data: unknown color 'green'; have blue, red\n"

    def test_split_file_missing_a_square_is_inconsistent(self, capsys, workdir):
        # the replay is the split file's only validation, so an invalid file
        # is refused with its first difference from the split of the input
        split = workdir / "gamma1.kg"
        text = split.read_text(encoding="utf-8")
        assert text.count("square b.1 α.2 = h.1 β.2\n") == 1
        split.write_text(text.replace("square b.1 α.2 = h.1 β.2\n", ""), encoding="utf-8")
        assert run(capsys, "validate", str(split))[0] == 1
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(split),
                             "--parents", str(workdir / "gamma1.parents"))
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: square b.1 α.2 = h.1 β.2 "
                       "is in the split of the input but not in the files\n")

    def test_rank_three_sink_is_refused_by_the_split_gate(self, capsys, tmp_path):
        # q is a blue sink of a valid source-free 3-graph; the replay's
        # validate_spec refuses the input before any file comparison
        (tmp_path / "sink.kg").write_text(
            "kgraph 1 k=3 colors=blue,red,green\nvertex p\nvertex q\n"
            "edge a : blue p -> p\nedge b : blue p -> q\nedge r : red p -> p\n"
            "edge s : red q -> q\nedge g : green p -> p\nedge h : green q -> q\n"
            "square r a = a r\nsquare s b = b r\nsquare g a = a g\nsquare h b = b g\n"
            "square g r = r g\nsquare h s = s h\n",
            encoding="utf-8",
        )
        (tmp_path / "split.kg").write_text(
            "kgraph 1 k=3 colors=blue,red,green\nvertex p.1\nvertex p.2\nvertex q.1\n"
            "edge a.1 : blue p.1 -> p.1\nedge b.1 : blue p.2 -> q.1\n",
            encoding="utf-8",
        )
        (tmp_path / "split.parents").write_text("split color=blue base=p\n", encoding="utf-8")
        assert run(capsys, "validate", str(tmp_path / "sink.kg"))[0] == 0
        code, out, err = run(capsys, "kp-verify", str(tmp_path / "sink.kg"),
                             "--split-output", str(tmp_path / "split.kg"),
                             "--parents", str(tmp_path / "split.parents"))
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: rank 3 split needs no sinks in color 1; "
                       "found q\n")

    def test_sidecar_color_must_match_the_copy_counts(self, capsys, tmp_path):
        # blue loops x, y and a red loop z commuting with both: the blue split
        # makes two copies of v, which a red split (one red edge) cannot
        (tmp_path / "loops.kg").write_text(
            "kgraph 1 k=2 colors=blue,red\nvertex v\n"
            "edge x : blue v -> v\nedge y : blue v -> v\nedge z : red v -> v\n"
            "square z x = x z\nsquare z y = y z\n",
            encoding="utf-8",
        )
        split = tmp_path / "split.kg"
        code, _, _ = run(capsys, "split", str(tmp_path / "loops.kg"), "--color", "blue",
                         "--base", "v", "-o", str(split))
        assert code == 0
        sidecar = tmp_path / "split.kg.parents"
        argv = ("kp-verify", str(tmp_path / "loops.kg"), "--split-output", str(split),
                "--parents", str(sidecar))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "not paired in blue" in err
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace("color=blue", "color=red"), encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: vertex 'v' has fewer than two outgoing "
                       "edges of color 2\n")

    def test_edge_copy_names_must_match_their_parent(self, capsys, tmp_path):
        # a.01 parses as copy 1 of a but is not named a.1, next to the real a.1
        (tmp_path / "loops.kg").write_text(
            "kgraph 1 k=1 colors=blue\nvertex v\nedge a : blue v -> v\nedge b : blue v -> v\n",
            encoding="utf-8",
        )
        split = tmp_path / "s.kg"
        code, _, _ = run(capsys, "split", str(tmp_path / "loops.kg"), "--color", "blue",
                         "--base", "v", "-o", str(split))
        assert code == 0
        sidecar = tmp_path / "s.kg.parents"
        with split.open("a", encoding="utf-8") as f:
            f.write("edge a.01 : blue v.1 -> v.1\n")
        with sidecar.open("a", encoding="utf-8") as f:
            f.write("parent a.01 = a\n")
        code, out, err = run(capsys, "kp-verify", str(tmp_path / "loops.kg"),
                             "--split-output", str(split), "--parents", str(sidecar))
        assert (code, out) == (1, "")
        assert err == ("inconsistent split data: edge a.01 : blue v.1 -> v.1 "
                       "is in the files but not in the split of the input\n")

    def test_non_ascii_copy_index_is_inconsistent(self, capsys, workdir):
        # "²" passes str.isdigit but is no copy index
        for name in ("gamma1.kg", "gamma1.parents"):
            path = workdir / name
            path.write_text(path.read_text(encoding="utf-8").replace("v.1", "v.²"),
                            encoding="utf-8")
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(workdir / "gamma1.kg"),
                             "--parents", str(workdir / "gamma1.parents"))
        assert (code, out) == (1, "")
        assert err == "inconsistent split data: name 'v.²' does not end in a copy index\n"
        assert "Traceback" not in err and err.count("\n") == 1

    def test_moved_copies_are_inconsistent(self, capsys, tmp_path):
        # e1.1 and f1.1 moved to start at v.1, their two copy-1 squares lifted
        # again: a valid 2-graph that puts both blue edges in block 1
        source = tmp_path / "loops.kg"
        source.write_text(
            "kgraph 1 k=2 colors=blue,red\nvertex v\n"
            "edge e0 : blue v -> v\nedge e1 : blue v -> v\n"
            "edge f0 : red v -> v\nedge f1 : red v -> v\n"
            "square e0 f0 = f0 e0\nsquare e0 f1 = f0 e1\n"
            "square e1 f0 = f1 e0\nsquare e1 f1 = f1 e1\n",
            encoding="utf-8",
        )
        split = tmp_path / "split.kg"
        code, _, _ = run(capsys, "split", str(source), "--color", "blue", "--base", "v",
                         "-o", str(split))
        assert code == 0
        text = split.read_text(encoding="utf-8")
        for old, new in [("edge e1.1 : blue v.2 -> v.1", "edge e1.1 : blue v.1 -> v.1"),
                         ("edge f1.1 : red v.2 -> v.1", "edge f1.1 : red v.1 -> v.1"),
                         ("square e1.1 f0.2 = f1.1 e0.2", "square e1.1 f0.1 = f1.1 e0.1"),
                         ("square e1.1 f1.2 = f1.1 e1.2", "square e1.1 f1.1 = f1.1 e1.1")]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        split.write_text(text, encoding="utf-8")
        assert run(capsys, "validate", str(split))[0] == 0
        code, out, err = run(capsys, "kp-verify", str(source), "--split-output", str(split),
                             "--parents", str(tmp_path / "split.kg.parents"))
        assert (code, out) == (1, "")
        assert err == "inconsistent split data: vertex 'v' needs 2 block(s), got 1\n"

    def test_max_len_not_an_integer_is_usage_error(self, capsys, workdir):
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(workdir / "gamma1.kg"),
                             "--parents", str(workdir / "gamma1.parents"), "--max-len", "abc")
        assert (code, out) == (2, "")
        assert "argument --max-len: invalid int value: 'abc'" in err

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_max_len_below_one_is_usage_error(self, capsys, workdir, max_len):
        code, out, err = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(workdir / "gamma1.parents"),
            "--max-len",
            max_len,
        )
        assert code == 2
        assert out == ""
        assert f"argument --max-len: must be at least 1, got {max_len}" in err

    def test_source_in_input_is_check_failure(self, capsys, tmp_path):
        # z is a source; the hand-written split copies every item once, and
        # replaying it refuses the input first
        edges = [("a", "v", "v"), ("b", "v", "x"), ("c", "z", "v")]
        for suffix, name in (("", "src.kg"), (".1", "src1.kg")):
            lines = ["kgraph 1 k=1 colors=blue"]
            lines += [f"vertex {v}{suffix}" for v in "vxz"]
            lines += [f"edge {e}{suffix} : blue {s}{suffix} -> {r}{suffix}" for e, s, r in edges]
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "src1.parents").write_text(
            "split color=blue base=v\n" + "".join(f"parent {n}.1 = {n}\n" for n in "abcvxz"),
            encoding="utf-8",
        )
        code, out, err = run(
            capsys,
            "kp-verify",
            str(tmp_path / "src.kg"),
            "--split-output",
            str(tmp_path / "src1.kg"),
            "--parents",
            str(tmp_path / "src1.parents"),
        )
        assert code == 1
        assert out == ""
        assert err == ("inconsistent split data: graph is not source-free: "
                       "vertex 'z' receives no edge of color 1\n")

    def test_one_algebra_context_per_run(self, capsys, workdir, monkeypatch):
        built = []
        init = kp.KumjianPask.__init__

        def counting_init(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(kp.KumjianPask, "__init__", counting_init)
        code, out, _ = run(
            capsys,
            "kp-verify",
            str(workdir / "lambda1.kg"),
            "--split-output",
            str(workdir / "gamma1.kg"),
            "--parents",
            str(workdir / "gamma1.parents"),
            "--max-len",
            "2",
        )
        assert code == 0
        assert out.count(": pass,") == 6
        assert len(built) == 1

    @pytest.mark.parametrize("max_len, counts", [
        ("1", (180, 148, 36, 16, 70, 32)),
        ("2", (180, 508, 36, 40, 334, 80)),
        ("3", (180, 1324, 36, 80, 334, 160)),
        ("4", (180, 2904, 36, 140, 334, 280)),
    ])
    def test_output_at_each_bound(self, capsys, workdir, max_len, counts):
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(workdir / "gamma1.kg"),
                             "--parents", str(workdir / "gamma1.parents"), "--max-len", max_len)
        assert (code, err) == (0, "")
        assert out == "".join(f"{sweep}: pass, {n} checks\n" for sweep, n in zip(SWEEPS, counts))

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t.replace("k=2 colors=blue,red", "k=3 colors=blue,red,green"), None),
        (lambda t: t.replace("blue", "azul").replace("red", "rojo"), None),
        (lambda t: t.replace("kgraph 1 ", "kgraph 7 "), None),
        (lambda t: t + "split color=blue base=v.1\n", "line 38, column 1: unknown declaration 'split'"),
        (lambda t: t.replace("colors=blue,red", "colors=red,blue"), None),
    ], ids=["rank", "renamed-colors", "version", "split-block", "color-order"])
    def test_header_and_split_block_are_compared(self, capsys, workdir, edit, error):
        # the files must be what ``split`` writes for the replay, header
        # included; a split block is no declaration of a ``.kg`` file
        split = workdir / "gamma1.kg"
        text = split.read_text(encoding="utf-8")
        assert edit(text) != text
        split.write_text(edit(text), encoding="utf-8")
        code, out, err = run(capsys, "kp-verify", str(workdir / "lambda1.kg"),
                             "--split-output", str(split),
                             "--parents", str(workdir / "gamma1.parents"), "--max-len", "1")
        if error:
            assert (code, out, err) == (2, "", f"{split}: {error}\n")
        else:
            assert (code, out, err) == (1, "", "inconsistent split data: kgraph 1 k=2 colors=blue,red "
                                               "is in the split of the input but not in the files\n")

    def test_split_block_repeating_the_sidecar_line_is_refused(self, capsys, tmp_path):
        # w.1 is both an input vertex and a copy of w, so the sidecar's own
        # split line names a vertex of the split file; the file still cannot hold it
        source = tmp_path / "in.kg"
        source.write_text("kgraph 1 k=1 colors=blue\nvertex w\nvertex w.1\n"
                          "edge a : blue w.1 -> w\nedge b : blue w.1 -> w.1\n", encoding="utf-8")
        split = tmp_path / "s.kg"
        assert run(capsys, "split", str(source), "--color", "blue", "--base", "w.1",
                   "-o", str(split))[0] == 0
        argv = ("kp-verify", str(source), "--split-output", str(split),
                "--parents", str(tmp_path / "s.kg.parents"), "--max-len", "1")
        assert run(capsys, *argv)[0] == 0
        lines = len(split.read_text(encoding="utf-8").splitlines())
        with split.open("a", encoding="utf-8") as f:
            f.write("split color=blue base=w.1\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"{split}: line {lines + 1}, column 1: unknown declaration 'split'\n"

    @pytest.mark.parametrize("name, code, error", [
        ("gamma1.kg", 0, ""),
        ("gamma1.parents", 2, "line 27, column 8: duplicate parent line for 'ℓ.1'"),
    ], ids=["square", "parent"])
    def test_a_repeated_line(self, capsys, workdir, name, code, error):
        # parse dedupes squares, and parse_sidecar refuses a repeated parent line
        path = workdir / name
        last = path.read_text(encoding="utf-8").splitlines()[-1]
        assert last.startswith(("square ", "parent "))
        with path.open("a", encoding="utf-8") as f:
            f.write(last + "\n")
        result = run(capsys, "kp-verify", str(workdir / "lambda1.kg"), "--split-output",
                     str(workdir / "gamma1.kg"), "--parents", str(workdir / "gamma1.parents"),
                     "--max-len", "1")
        assert result[0] == code
        assert result[2] == (f"{path}: {error}\n" if error else "")

    def test_files_are_compared_as_parsed(self, capsys, workdir):
        # reordered declarations, comments and shuffled parent lines verify
        # as the files ``split`` wrote; raw bytes would not
        def verify(split, sidecar):
            return run(capsys, "kp-verify", str(workdir / "lambda1.kg"), "--split-output", str(split),
                       "--parents", str(sidecar), "--max-len", "2")

        expected = verify(workdir / "gamma1.kg", workdir / "gamma1.parents")
        assert expected[0] == 0
        header, *lines = (workdir / "gamma1.kg").read_text(encoding="utf-8").splitlines()
        sections = [[line for line in lines if line.startswith(keyword)]
                    for keyword in ("vertex ", "edge ", "square ")]
        assert sum(map(len, sections)) == len(lines)
        edited = ["# the first split, rewritten", header, ""]
        for section in sections:
            edited += [f"  {line}  # {i}" if i % 3 else line
                       for i, line in enumerate(reversed(section))]
        split = workdir / "edited.kg"
        split.write_text("\n".join(edited) + "\n", encoding="utf-8")
        first, *parents = (workdir / "gamma1.parents").read_text(encoding="utf-8").splitlines()
        random.Random(0).shuffle(parents)
        sidecar = workdir / "edited.parents"
        sidecar.write_text("\n".join([*parents, first, "# shuffled"]) + "\n", encoding="utf-8")
        assert split.read_bytes() != (workdir / "gamma1.kg").read_bytes()
        assert verify(split, sidecar) == expected


class TestDot:
    def test_stdout(self, capsys, workdir):
        code, out, _ = run(capsys, "dot", str(workdir / "lambda1.kg"))
        assert code == 0
        assert out.startswith("digraph")

    def test_to_file(self, capsys, workdir):
        # the file holds the bytes that stdout gets
        source = workdir / "lambda1.kg"
        target = workdir / "g.dot"
        _, out, _ = run(capsys, "dot", str(source))
        assert run(capsys, "dot", str(source), "-o", str(target)) == (0, f"wrote {target}\n", "")
        text = dot_export(parse(source.read_text(encoding="utf-8")))
        assert target.read_bytes() == out.encode("utf-8") == text.encode("utf-8")
        assert text.startswith("digraph")

    def test_missing_output_directory(self, capsys, workdir):
        target = workdir / "nodir" / "x.dot"
        code, out, err = run(capsys, "dot", str(workdir / "lambda1.kg"), "-o", str(target))
        assert code == 2
        assert out == ""
        assert err == f"{target}: No such file or directory\n"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["validate", ""],
        ["split", "lambda1.kg", "--partition-file", "", "-o", "out.kg"],
        ["split", "lambda1.kg", "--color", "blue", "--base", "v", "-o", ""],
        ["dot", "lambda1.kg", "-o", ""],
    ], ids=["validate", "split-partition-file", "split-output", "dot-output"])
    def test_empty_file_name_is_refused(self, capsys, workdir, monkeypatch, argv):
        # Path("") is the working directory, so an empty name is refused before any I/O
        monkeypatch.chdir(workdir)
        before = sorted(workdir.iterdir())
        assert run(capsys, *argv) == (2, "", "empty file name\n")
        assert sorted(workdir.iterdir()) == before

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_a_reused_parser_answers_as_a_fresh_process(self, capsys, tmp_path, monkeypatch):
        # main builds its parser once per process: every later call must answer
        # as a fresh process does, and none may build a parser again
        commands = [
            ["kp-verify", "lambda1.kg", "--split-output", "gamma1.kg", "--parents",
             "gamma1.parents", "--max-len", "0"],
            ["--help"],
            ["frobnicate"],
            ["validate", "lambda1.kg"],
            ["split", "lambda1.kg", "--partition-file", "paper.part", "-o", "out.kg"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        for directory in (fresh, reused):
            directory.mkdir()
            for name in ("lambda1.kg", "paper.part", "gamma1.kg", "gamma1.parents"):
                shutil.copy(DATA / name, directory / name)

        def files(directory):
            return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

        expected = []
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "kgraphs", *argv], cwd=fresh, env=env,
                                  capture_output=True, text=True, timeout=60)
            expected.append((done.returncode, done.stdout, done.stderr))
        assert [code for code, _, _ in expected] == [2, 0, 2, 0, 0]
        assert "out.kg.parents" in files(fresh)

        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built[-1] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        monkeypatch.chdir(reused)
        for _ in range(2):
            for argv, answer in zip(commands, expected):
                built.append(0)
                assert run(capsys, *argv) == answer, argv
            assert files(reused) == files(fresh)
        assert built[1:] == [0] * 9

    def test_missing_required_option(self, capsys):
        assert main(["paired", "somefile"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_module_entry_point(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "kgraphs", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        done = module("validate", str(DATA / "lambda1.kg"))
        assert (done.returncode, done.stdout) == (0, "valid k-graph\n")
        done = module("validate", str(tmp_path / "missing.kg"))
        assert (done.returncode, done.stdout) == (2, "")
        assert len(done.stderr.splitlines()) == 1
        assert "Traceback" not in done.stderr

    def test_console_script_names_cli_main(self):
        tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"kgraphs": "kgraphs.cli:main"}
        module, _, attr = scripts["kgraphs"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _cycle_with_chord(tag: str, n: int) -> Skeleton:
    """An n-cycle plus one chord out of vertex 0: source- and sink-free, and
    vertex 0 has two outgoing edges, so a product of these splits there."""
    vertices = [f"{tag}{i}" for i in range(n)]
    edges = [Edge(f"{tag}{i}-{(i + 1) % n}", 1, vertices[i], vertices[(i + 1) % n])
             for i in range(n)]
    return Skeleton.create(1, vertices, [*edges, Edge(f"{tag}c", 1, vertices[0], vertices[n // 2])])


class TestMainGuard:
    """``main`` runs a command with the cyclic garbage collector paused,
    gives the caller back the collector state it found, and ends a closed
    stdout without a traceback."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (["validate", "lambda1.kg"], 0),
        (["paired", "lambda2.kg", "--color", "blue"], 1),
        (["split", "lambda1.kg", "--color", "blue", "--base", "z", "-o", "x.kg"], 1),
        (["validate", "missing.kg"], 2),
        (["frobnicate"], 2),
        (["--help"], 0),
    ], ids=["exit-0", "exit-1-report", "exit-1-error", "exit-2-error", "argparse-2", "argparse-0"])
    def test_state_is_restored(self, capsys, workdir, monkeypatch, collector, argv, code):
        monkeypatch.chdir(workdir)
        assert main(argv) == code
        assert gc.isenabled() is collector

    def test_state_is_restored_after_a_closed_stdout(self, capsys, workdir, monkeypatch, collector):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["props", str(workdir / "lambda1.kg")]) == 1
        assert gc.isenabled() is collector
        assert capsys.readouterr().err == ""

    def test_no_stdout_is_not_an_error(self, capsys, workdir, monkeypatch):
        # a process started with its stdout closed has sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["validate", str(workdir / "lambda1.kg")]) == 0

    def test_command_runs_paused_and_state_survives_its_crash(self, capsys, workdir, monkeypatch,
                                                              collector):
        seen = []

        def crash(args):
            seen.append(gc.isenabled())
            raise RuntimeError("unexpected")

        monkeypatch.setattr(kgraphs.cli, "_cmd_validate", crash)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["validate", str(workdir / "lambda1.kg")])
        assert seen == [False]
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("command", ["validate", "split", "kp-verify"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, workdir, monkeypatch,
                                                         command):
        # The pause is safe only while command data is acyclic: the cyclic
        # garbage a command leaves (argparse's) must not depend on the input.
        monkeypatch.chdir(workdir)
        graph = product_graph([_cycle_with_chord(tag, 4) for tag in "fgh"])
        Path("product.kg").write_text(
            serialize(document_for_graph(graph, ["blue", "red", "green"])), encoding="utf-8")
        arrows = [("a", "u0", "u0"), ("b", "u0", "u0"), ("c", "u0", "u1"), ("d", "u1", "u0")]
        graph = diagonal_double(["u0", "u1"], arrows, 3)
        Path("rank3.kg").write_text(
            serialize(document_for_graph(graph, ["blue", "red", "green"])), encoding="utf-8")
        assert main(["split", "rank3.kg", "--color", "blue", "--base", "u0", "-o", "r3.kg"]) == 0
        small, large = {
            "validate": (["lambda1.kg"], ["product.kg"]),
            "split": (["lambda1.kg", "--partition-file", "paper.part", "-o", "small.kg"],
                      ["product.kg", "--color", "blue", "--base", "f0|g0|h0", "-o", "large.kg"]),
            "kp-verify": (["lambda1.kg", "--split-output", "gamma1.kg",
                           "--parents", "gamma1.parents", "--max-len", "2"],
                          ["rank3.kg", "--split-output", "r3.kg",
                           "--parents", "r3.kg.parents", "--max-len", "2"]),
        }[command]

        def garbage(args):
            gc.collect()
            was = gc.isenabled()
            gc.disable()
            try:
                assert main([command, *args]) == 0
                return gc.collect()
            finally:
                if was:
                    gc.enable()

        assert garbage(small) == garbage(large)

    @pytest.mark.parametrize("argv, unbuffered, code", [
        (["props", str(DATA / "lambda1.kg")], None, 1),
        (["props", str(DATA / "lambda1.kg")], "1", 1),
        (["--help"], None, 1),
        # argparse ignores a failed write of its help text, and nothing is left to flush
        (["--help"], "1", 0),
    ], ids=["props-buffered", "props-unbuffered", "help-buffered", "help-unbuffered"])
    def test_closed_stdout_ends_without_a_traceback(self, argv, unbuffered, code):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "kgraphs", *argv], env=env, stdout=write,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


FUZZ_FILES = ("lambda1.kg", "lambda2.kg", "gamma1.kg", "gamma2.kg",
              "gamma1.parents", "gamma2.parents", "paper.part")
FUZZ_COMMANDS = (
    ("validate", "lambda1.kg"),
    ("props", "lambda2.kg"),
    ("split", "lambda1.kg", "--partition-file", "paper.part", "-o", "out.kg"),
    ("paired", "lambda1.kg", "--color", "blue"),
    ("saturate", "gamma1.kg", "--set", "v.1,x.1"),
    ("kp-verify", "lambda1.kg", "--split-output", "gamma1.kg", "--parents", "gamma1.parents",
     "--max-len", "1"),
    ("kp-verify", "lambda2.kg", "--split-output", "gamma2.kg", "--parents", "gamma2.parents",
     "--max-len", "1"),
    ("dot", "gamma2.kg"),
)
# (operation, line, other line or position in the line, token of the file to copy in)
MUTATION = st.tuples(
    st.sampled_from(("delete", "duplicate", "swap", "token", "byte")),
    st.integers(0, 99), st.integers(0, 99), st.integers(0, 999),
)


def mutate(data: bytes, mutations) -> bytes:
    """Delete, duplicate or swap lines, replace a word by a token, or insert a non-UTF-8 byte."""
    lines = data.split(b"\n")
    for op, i, j, t in mutations:
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = data.split()
            words = lines[i].split(b" ")
            words[j % len(words)] = tokens[t % len(tokens)]
            lines[i] = b" ".join(words)
        else:
            j %= len(lines[i]) + 1
            lines[i] = lines[i][:j] + b"\xff" + lines[i][j:]
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


class TestFuzz:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(command=st.sampled_from(FUZZ_COMMANDS), pick=st.integers(0, 3),
           mutations=st.lists(MUTATION, min_size=1, max_size=3))
    def test_mutated_inputs_exit_with_a_code(self, tmp_path_factory, command, pick, mutations):
        workdir = tmp_path_factory.getbasetemp() / "fuzz"
        workdir.mkdir(exist_ok=True)
        inputs = [arg for arg in command if arg in FUZZ_FILES]
        victim = inputs[pick % len(inputs)]
        for name in inputs:
            data = (DATA / name).read_bytes()
            (workdir / name).write_bytes(mutate(data, mutations) if name == victim else data)
        argv = [str(workdir / arg) if arg in FUZZ_FILES or arg == "out.kg" else arg
                for arg in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
