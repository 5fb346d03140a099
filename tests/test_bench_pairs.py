"""The paired-run summary of ``tools/bench_pairs.py``, on canned result lines."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
END_TO_END = [{"name": "iteration_s", "better": "lower", "bound": 0.25},
              {"name": "squares_per_s", "better": "higher", "bound": 0.25}]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


def _line(iteration_s, squares_per_s, correct=True):
    """The stdout of one ``benchmarks/run.py`` run: a table, then the result object."""
    metrics = {"kp-rank3.iteration_s": {"value": iteration_s, "unit": "s"},
               "kp-rank3.squares_per_s": {"value": squares_per_s, "unit": "1/s"},
               "kp-rank3.kp_verify_s": {"value": 1.0, "unit": "s"}}
    return "kp-rank3 seed=1: 9 iterations\n" + json.dumps(
        {"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics}) + "\n"


def _pairs(bench_pairs, rows):
    return [{side: bench_pairs.parse_result(_line(*values)) for side, values in zip(("parent", "change"), row)}
            for row in rows]


def test_medians_quartiles_wins_and_the_gain_rule(bench_pairs):
    parent = [0.10, 0.11, 0.12, 0.13, 0.14]
    change = [0.09, 0.10, 0.11, 0.12, 0.14]  # the last pair ties
    rows = [((p, 100.0), (c, 100.0 + i)) for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(_pairs(bench_pairs, rows), END_TO_END)
    assert (summary["pairs"], summary["accepted"], summary["refused"]) == (5, 5, [])
    assert set(summary["metrics"]) == {"kp-rank3.iteration_s", "kp-rank3.squares_per_s"}
    time = summary["metrics"]["kp-rank3.iteration_s"]
    assert time["parent"]["median"] == pytest.approx(0.12)
    assert (time["parent"]["q1"], time["parent"]["q3"]) == pytest.approx((0.11, 0.13))
    assert (time["change"]["q1"], time["change"]["median"], time["change"]["q3"]) == \
        pytest.approx((0.10, 0.11, 0.12))
    assert time["change"]["runs"] == change
    assert time["wins"] == 4
    assert time["parent_quartile_distance"] == pytest.approx(0.02)
    assert not time["rule_met"]  # 4/5 wins, and 0.01 is inside the parent's spread
    rate = summary["metrics"]["kp-rank3.squares_per_s"]
    # higher is better; the first pair ties at 100
    assert rate["wins"] == 4 and rate["parent_quartile_distance"] == 0
    assert not rate["rule_met"]


def test_the_rule_needs_nine_tenths_and_a_gap_beyond_the_spread(bench_pairs):
    rows = [((0.100 + 0.001 * i, 50.0), (0.090 + 0.001 * i, 60.0)) for i in range(10)]
    summary = bench_pairs.summarize(_pairs(bench_pairs, rows), END_TO_END)
    assert summary["metrics"]["kp-rank3.iteration_s"]["wins"] == 10
    assert summary["metrics"]["kp-rank3.iteration_s"]["rule_met"]
    assert summary["metrics"]["kp-rank3.squares_per_s"]["rule_met"]
    # one lost pair of ten still meets the rule, two do not
    rows[0] = ((0.100, 50.0), (0.200, 40.0))
    assert bench_pairs.summarize(_pairs(bench_pairs, rows), END_TO_END)["metrics"][
        "kp-rank3.iteration_s"]["rule_met"]
    rows[1] = ((0.101, 50.0), (0.200, 40.0))
    assert not bench_pairs.summarize(_pairs(bench_pairs, rows), END_TO_END)["metrics"][
        "kp-rank3.iteration_s"]["rule_met"]


def test_a_pair_with_an_incorrect_or_missing_run_is_refused(bench_pairs):
    rows = [((0.10, 1.0), (0.09, 1.0)), ((0.10, 1.0), (0.05, 1.0, False)),
            ((0.11, 1.0), (0.10, 1.0))]
    pairs = _pairs(bench_pairs, rows)
    pairs.append({"parent": bench_pairs.parse_result("Traceback ...\n"),
                  "change": bench_pairs.parse_result(_line(0.01, 1.0))})
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert (summary["pairs"], summary["accepted"], summary["refused"]) == (4, 2, [1, 3])
    time = summary["metrics"]["kp-rank3.iteration_s"]
    assert time["change"]["runs"] == [0.09, 0.10] and time["wins"] == 2
    assert not time["rule_met"]  # refused pairs count as run, not as won
    assert "2 of 4 pairs accepted; refused (from 0): [1, 3]" in bench_pairs.report(summary)


def test_a_median_worse_by_more_than_the_parent_spread_is_flagged(bench_pairs):
    # iteration_s: the change is slower by 0.03 against a parent spread of 0.02;
    # squares_per_s: it is lower by 1 against a spread of 2
    rows = [((0.10 + 0.01 * i, 50.0 + i), (0.13 + 0.01 * i, 49.0 + i)) for i in range(5)]
    summary = bench_pairs.summarize(_pairs(bench_pairs, rows), END_TO_END)
    time, rate = (summary["metrics"][f"kp-rank3.{name}"] for name in ("iteration_s", "squares_per_s"))
    assert time["parent_quartile_distance"] == pytest.approx(0.02) and time["worse"]
    assert rate["parent_quartile_distance"] == pytest.approx(2.0) and not rate["worse"]
    assert not time["rule_met"] and not rate["rule_met"]
    lines = bench_pairs.report(summary).splitlines()
    assert lines[1].endswith("  worse")
    assert lines[2].startswith("kp-rank3.iteration_s") and lines[2].endswith("  WORSE")
    assert lines[3].startswith("kp-rank3.squares_per_s") and lines[3].endswith("  -")


def test_json_appends_each_invocation_with_every_run(bench_pairs, tmp_path, monkeypatch):
    checkouts = {}
    for side in ("parent", "change"):
        checkouts[side] = tmp_path / side
        (checkouts[side] / "benchmarks").mkdir(parents=True)
        (checkouts[side] / "benchmarks" / "run.py").write_text("")
    (checkouts["parent"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    lines = {"parent": [_line(0.10, 1.0), "Traceback ...\n"], "change": [_line(0.09, 2.0), _line(0.08, 3.0)]}
    ran = []

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        ran.append((side, workload, seed, seconds))
        return bench_pairs.parse_result(lines[side][sum(s == side for s, *_ in ran) - 1])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "kp-rank3", "--pairs", "2", "--seconds", "3", "--json", str(out)]
    assert bench_pairs.main(argv + ["--seed", "1"]) == 1  # the second pair is refused
    assert ran == [("parent", "kp-rank3", 1, 3.0), ("change", "kp-rank3", 1, 3.0),
                   ("change", "kp-rank3", 1, 3.0), ("parent", "kp-rank3", 1, 3.0)]
    ran.clear()
    assert bench_pairs.main(argv + ["--seed", "7"]) == 1
    records = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["seconds"]) for r in records] == [("kp-rank3", 1, 3.0),
                                                                           ("kp-rank3", 7, 3.0)]
    for record in records:
        assert record["pairs"][1]["parent"] is None
        assert record["pairs"][0]["change"]["metrics"]["kp-rank3.kp_verify_s"] == {"value": 1.0, "unit": "s"}
        assert [p["change"]["metrics"]["kp-rank3.squares_per_s"]["value"] for p in record["pairs"]] == [2.0, 3.0]
        assert (record["summary"]["accepted"], record["summary"]["refused"]) == (1, [1])
        assert record["summary"]["metrics"]["kp-rank3.iteration_s"]["change"]["runs"] == [0.09]
    ran.clear()
    for text in ("{}", "not JSON"):
        out.write_text(text)
        with pytest.raises(SystemExit):
            bench_pairs.main(argv + ["--seed", "1"])
    assert ran == []  # refused before any run
