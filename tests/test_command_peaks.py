"""The per-command report of ``tools/command_peaks.py``."""

from __future__ import annotations

import importlib
from pathlib import Path

from conftest import DATA

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_one_row_per_command_with_its_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    command_peaks = importlib.import_module("command_peaks")
    commands = [f"validate {DATA / 'lambda1.kg'}",
                f"split {DATA / 'lambda1.kg'} --partition-file {DATA / 'paper.part'} "
                f"-o {tmp_path / 'gamma1.kg'}",
                f"validate {tmp_path / 'missing.kg'}"]
    assert command_peaks.main(commands) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["exit", "wall_s", "peak_mb", "live_mb", "command"]
    assert [row.split(None, 4)[4] for row in rows] == commands
    assert [int(row.split()[0]) for row in rows] == [0, 0, 2]
    assert all(float(row.split()[2]) > 0 for row in rows)
    assert (tmp_path / "gamma1.kg").read_bytes() == (DATA / "gamma1.kg").read_bytes()
