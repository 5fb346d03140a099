"""Command surface: outputs, exit codes, golden files."""

from __future__ import annotations

import shutil

import pytest

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

    def test_missing_file(self, capsys, workdir):
        code, _, err = run(capsys, "validate", str(workdir / "absent.kg"))
        assert code == 2


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


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        assert main(["paired", "somefile"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2
