"""Command surface: outputs, exit codes, golden files."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import kp
from kgraphs.cli import main

from conftest import DATA


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
            "--default-partition",
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
        source = (workdir / "lambda1.kg").read_text(encoding="utf-8")
        block = (DATA / "paper.part").read_text(encoding="utf-8")
        target = workdir / "with_block.kg"
        target.write_text(source + block, encoding="utf-8")
        out_path = workdir / "blocked.kg"
        code, *_ = run(capsys, "split", str(target), "-o", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / "gamma1.kg").read_bytes()

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

    def test_unknown_base_is_usage_error(self, capsys, workdir):
        code, out, err = run(
            capsys,
            "split",
            str(workdir / "lambda1.kg"),
            "--default-partition",
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
            "--default-partition",
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
        # the second example's split is not a split of the first example
        code, out, _ = run(
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
        assert code == 1
        assert "FAIL" in out

    def test_unpaired_input_fails(self, capsys, workdir):
        code, _, err = run(
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
        assert code == 1
        assert "not paired" in err
        assert "b : {h, i}" in err

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
        assert err == "inconsistent split data: edge 'b.1' has no valid parent\n"

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
        assert err == "inconsistent split data: parent line for unknown item 'nosuch.1'\n"

    @pytest.mark.parametrize("base", ["nosuch", "-"])
    def test_sidecar_base_must_be_a_vertex(self, capsys, workdir, base):
        # "-" is what sidecar_text writes for a split without a recorded base
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
        if base == "-":
            assert (code, err) == (0, "")
            return
        assert code == 1
        assert out == ""
        assert err == "inconsistent split data: unknown base vertex 'nosuch'\n"

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
        assert err == ("inconsistent split data: vertex 'v' has 2 copies but 1 outgoing "
                       "edge(s) in the split color\n")

    def test_edge_copy_names_must_match_their_parent(self, capsys, tmp_path):
        # a.01 parses as copy 1 of a but is not named a.1, next to the real a.1
        (tmp_path / "loops.kg").write_text(
            "kgraph 1 k=1 colors=blue\nvertex v\nedge a : blue v -> v\nedge b : blue v -> v\n",
            encoding="utf-8",
        )
        split = tmp_path / "s.kg"
        code, _, _ = run(capsys, "split", str(tmp_path / "loops.kg"), "--default-partition",
                         "--color", "blue", "--base", "v", "-o", str(split))
        assert code == 0
        sidecar = tmp_path / "s.kg.parents"
        with split.open("a", encoding="utf-8") as f:
            f.write("edge a.01 : blue v.1 -> v.1\n")
        with sidecar.open("a", encoding="utf-8") as f:
            f.write("parent a.01 = a\n")
        code, out, err = run(capsys, "kp-verify", str(tmp_path / "loops.kg"),
                             "--split-output", str(split), "--parents", str(sidecar))
        assert (code, out) == (1, "")
        assert err == "inconsistent split data: edge 'a.01' is not named a.<copy index>\n"

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
        # z is a source; the hand-written split copies every item once
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
        assert err == (
            "the Kumjian-Pask calculus needs a source-free graph; missing ('z.1', 1)\n"
        )

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


class TestDot:
    def test_stdout(self, capsys, workdir):
        code, out, _ = run(capsys, "dot", str(workdir / "lambda1.kg"))
        assert code == 0
        assert out.startswith("digraph")

    def test_to_file(self, capsys, workdir):
        target = workdir / "g.dot"
        code, out, _ = run(capsys, "dot", str(workdir / "lambda1.kg"), "-o", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("digraph")

    def test_missing_output_directory(self, capsys, workdir):
        target = workdir / "nodir" / "x.dot"
        code, out, err = run(capsys, "dot", str(workdir / "lambda1.kg"), "-o", str(target))
        assert code == 2
        assert out == ""
        assert err == f"{target}: No such file or directory\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

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
