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


def test_install_traces_a_command_and_uninstall_restores(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer").Tracer()
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
