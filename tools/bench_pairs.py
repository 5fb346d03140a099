"""Run the benchmark in two checkouts in alternating pairs and compare their end-to-end metrics.

Standard library only; run it from any directory::

    python3 tools/bench_pairs.py --parent ../parent --change . --workload kp-rank3 \\
        --seed 7 --pairs 10 [--seconds 30] [--json BENCH.json]

Each pair runs ``python3 benchmarks/run.py --workload W --seed S --seconds T``
once in each checkout, the parent first in even pairs (counting from 0) and
the change first in odd ones.  A pair is refused, and left out of the
summary, when either run gives no result line or a result reading
``correct: false``.  For every end-to-end metric that the parent's
``BENCHMARK.json`` lists, the summary gives each side's median and
quartiles (inclusive method), the pairs the change won out of all pairs
run (ties count for neither side), the parent's quartile distance, and
whether the gain rule holds: the change wins at least nine tenths of the
pairs run and its median is better than the parent's by more than the
parent's quartile distance.  A metric is flagged ``worse`` when the change's
median is worse than the parent's by more than that distance.

``--json PATH`` appends one record to the JSON list in ``PATH`` (a new file
starts the list): the workload, seed and seconds, every run's result line
as ``pairs[i][side]`` (null for a run that gave none) and the summary.  Two
invocations, say a claim and a held-out seed, fill one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict | None:
    """The result object on the last line of a ``benchmarks/run.py`` output, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["correct"], result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    return parse_result(proc.stdout)


def run_pairs(checkouts: dict[str, Path], workload: str, seed: int, pairs: int,
              seconds: float) -> list[dict[str, dict | None]]:
    """``pairs`` alternating runs of both sides, each pair as ``{side: result}``."""
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        out.append({side: run_once(checkouts[side], workload, seed, seconds) for side in order})
        print(f"pair {i + 1}/{pairs} done ({order[0]} first)", file=sys.stderr)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict[str, dict | None]], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, wins and the gain rule over the accepted pairs.

    ``end_to_end`` is the ``BENCHMARK.json`` list of ``{name, better, ...}``;
    a result's metric keys are the name itself or ``<workload>.<name>``.
    """
    better = {m["name"]: m["better"] for m in end_to_end}
    refused = [i for i, p in enumerate(pairs)
               if not all(p.get(side) is not None and p[side]["correct"] is True for side in SIDES)]
    accepted = [p for i, p in enumerate(pairs) if i not in refused]
    metrics = {}
    keys = accepted[0]["parent"]["metrics"] if accepted else {}
    for key in keys:
        name = key.rsplit(".", 1)[-1]
        if name not in better:
            continue
        runs = {side: [p[side]["metrics"][key]["value"] for p in accepted] for side in SIDES}
        sign = 1 if better[name] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        row = {"better": better[name], "wins": wins, "pairs": len(pairs)}
        for side in SIDES:
            q1, median, q3 = _quartiles(runs[side])
            row[side] = {"q1": q1, "median": median, "q3": q3, "runs": runs[side]}
        row["parent_quartile_distance"] = row["parent"]["q3"] - row["parent"]["q1"]
        gain = sign * (row["parent"]["median"] - row["change"]["median"])
        row["rule_met"] = 10 * wins >= 9 * len(pairs) and gain > row["parent_quartile_distance"]
        row["worse"] = -gain > row["parent_quartile_distance"]
        metrics[key] = row
    return {"pairs": len(pairs), "accepted": len(accepted), "refused": refused, "metrics": metrics}


def report(summary: dict) -> str:
    lines = [f"{summary['accepted']} of {summary['pairs']} pairs accepted"
             + (f"; refused (from 0): {summary['refused']}" if summary["refused"] else "")]
    lines.append(f"{'metric':<34} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} "
                 f"{'wins':>6} {'parent IQR':>11}  {'rule':<7}  worse")
    for key, row in summary["metrics"].items():
        sides = ["/".join(f"{row[side][q]:.4g}" for q in ("q1", "median", "q3")) for side in SIDES]
        lines.append(f"{key:<34} {sides[0]:>34} {sides[1]:>34} {row['wins']:>3}/{row['pairs']:<2} "
                     f"{row['parent_quartile_distance']:>11.4g}  {'met' if row['rule_met'] else 'not met':<7}  "
                     f"{'WORSE' if row['worse'] else '-'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, help="append the runs and summary to this JSON list")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        records = json.loads(args.json.read_text()) if args.json and args.json.exists() else []
    except ValueError:
        records = None
    if not isinstance(records, list):
        parser.error(f"--json {args.json} holds no JSON list")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "benchmarks" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no benchmarks/run.py")
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = run_pairs(checkouts, args.workload, args.seed, args.pairs, args.seconds)
    summary = summarize(pairs, end_to_end)
    print(report(summary))
    if args.json:
        records.append({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                        "pairs": pairs, "summary": summary})
        args.json.write_text(json.dumps(records, indent=1) + "\n")
    return 0 if summary["accepted"] == summary["pairs"] else 1


if __name__ == "__main__":
    sys.exit(main())
