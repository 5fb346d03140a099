"""The benchmark's tracing hooks still find every package name they patch."""

from __future__ import annotations

import importlib
from pathlib import Path

from kgraphs import cli, fileformat, kp, skeleton, splitting

from conftest import DATA

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bindings() -> dict:
    owners = (cli, fileformat, kp, skeleton, splitting, skeleton.KGraph, kp.KumjianPask, kp.KPElement)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def _tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracer")


def test_install_traces_a_command_and_uninstall_restores(monkeypatch, capsys):
    tracer = _tracer_module(monkeypatch).Tracer()
    before = _bindings()
    tracer.install()
    try:
        assert cli.main(["validate", str(DATA / "lambda1.kg")]) == 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    capsys.readouterr()
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["fileformat.parse"] == 1
    assert tracer.calls["skeleton.validate"] == 1
    assert tracer.counts["parse_bytes"] == len((DATA / "lambda1.kg").read_bytes())


def test_install_traces_the_algebra_sweeps(monkeypatch, capsys, tmp_path):
    module = _tracer_module(monkeypatch)
    tracer = module.Tracer()
    out = tmp_path / "gamma1.kg"
    before = _bindings()
    tracer.install()
    try:
        assert cli.main(["split", str(DATA / "lambda1.kg"), "--partition-file",
                         str(DATA / "paper.part"), "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["kp-verify", str(DATA / "lambda1.kg"), "--split-output", str(out),
                         "--parents", f"{out}.parents", "--max-len", "1"]) == 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    lines = capsys.readouterr().out.splitlines()
    assert tracer.calls["kp.KumjianPask"] == 1
    spans = [span[1] for span in tracer.spans]
    assert [line.split(":")[0] for line in lines] == list(module.SWEEPS)
    for name, line in zip(module.SWEEPS, lines):
        assert spans.count(f"kp.sweep.{name}") == 1
        assert tracer.counts[f"checks@{name}"] > 0
        assert line == f"{name}: pass, {tracer.counts[f'checks@{name}']} checks"
