"""Benchmark for the ``kgraphs`` command line: end-to-end times and per-layer counts.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy)::

    python3 benchmarks/run.py                          # every workload, one process each
    python3 benchmarks/run.py --workload kp-rank3 --seed 7 --seconds 30 --trace 0

A single-workload run is one fresh, single-threaded process.  It generates
its inputs from ``--seed``, sets up several times (``setup_s`` is the
median), then runs whole iterations of the workload's command chain through
``kgraphs.cli.main`` for ``--seconds`` seconds.  Every command's exit code
and output is checked; the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, in reference seconds (see ``speed.py``);
``--trace 1`` reports the per-layer metrics of a traced run (see
``tracer.py``) plus the tracing overhead, in raw seconds.  The exit code is
non-zero when any command fails its check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedSampler
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
COMMANDS = ("validate", "split", "kp-verify", "props")
# No iteration starts that would, at the pace of the one before, end past
# this many seconds, so a run stays within its time limit even when the
# program gets much slower.
DEADLINE_S = 150.0
# A traced run spends this share of --seconds on untraced iterations, the
# baseline for the tracing overhead, and the rest traced.
UNTRACED_SHARE = 1 / 3


def _check_sources() -> Path:
    src = ROOT / "src"
    if not (src / "kgraphs" / "__init__.py").is_file():
        raise SystemExit(f"no kgraphs sources under {src}; run from a source checkout")
    return src


def _load_package():
    """Import ``kgraphs`` afresh from this checkout's ``src/``."""
    src = _check_sources()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "kgraphs" or m.startswith("kgraphs.")]:
        del sys.modules[name]
    cli = importlib.import_module("kgraphs.cli")
    if Path(cli.__file__).resolve().parent != src / "kgraphs":
        raise SystemExit(f"imported kgraphs from {cli.__file__}, not from {src}")
    return cli


def _run_command(argv) -> tuple[int | None, str, str, float, float]:
    """One ``kgraphs`` command in this process: exit code, stdout, stderr, start, end."""
    cli = sys.modules["kgraphs.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed command; keep measuring the rest
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), start, time.perf_counter()


def _iteration(workload) -> tuple[list[tuple[str, float, float]], list[str]]:
    """Run every step once; returns each command's (name, start, end) and the problems found."""
    gc.collect()
    intervals, results = [], []
    for step in workload.steps:
        code, out, err, start, end = _run_command(step.argv)
        intervals.append((step.command, start, end))
        results.append((step, code, out, err))
    problems = []
    for step, code, out, err in results:
        wrong = []
        if code != step.code:
            wrong.append(f"exit {code}, expected {step.code}")
        if out != step.stdout:
            wrong.append(f"stdout {out[:200]!r}, expected {step.stdout[:200]!r}")
        if err != step.stderr:
            wrong.append(f"stderr {err[-300:]!r}, expected {step.stderr[:200]!r}")
        if wrong:
            problems.append(f"{' '.join(step.argv[:2])}: {'; '.join(wrong)}")
    file_problems = workload.check_files()
    if file_problems and not problems:
        problems.append(f"{workload.steps[-1].command}: {'; '.join(file_problems)}")
    elif file_problems:
        problems[-1] += "; " + "; ".join(file_problems)
    return intervals, problems


def _wall(intervals) -> float:
    return sum(end - start for _, start, end in intervals)


def _keep_going(iterations: list, begin: float, seconds: float, started: float) -> bool:
    """At least one iteration, then more until ``seconds`` pass or the deadline nears."""
    if not iterations:
        return True
    now = time.perf_counter()
    return now - begin < seconds and now - started + _wall(iterations[-1]) < DEADLINE_S


def _measure(workload, seconds: float, started: float, after_each=None):
    """Iterations for ``seconds``: their command intervals, commands attempted, problems."""
    iterations, problems = [], []
    begin = time.perf_counter()
    while _keep_going(iterations, begin, seconds, started):
        intervals, found = _iteration(workload)
        iterations.append(intervals)
        problems.extend(found)
        if after_each is not None:
            after_each()
    return iterations, sum(map(len, iterations)), problems


def _series(iterations, length) -> dict[str, list[float]]:
    """Per-iteration seconds of the whole chain and of each command, timed by ``length``."""
    series: dict[str, list[float]] = {"iteration_s": []}
    for command in COMMANDS:
        series[f"{command.replace('-', '_')}_s"] = []
    for intervals in iterations:
        per = dict.fromkeys(COMMANDS, 0.0)
        for command, start, end in intervals:
            per[command] += length(start, end)
        series["iteration_s"].append(sum(per.values()))
        for command, seconds in per.items():
            series[f"{command.replace('-', '_')}_s"].append(seconds)
    return series


def _raw(start: float, end: float) -> float:
    return end - start


def _percentile_note(samples: list[float]) -> dict:
    """The highest whole percentile above the median with at least ten samples beyond it."""
    n = len(samples)
    q = int((1 - 10 / n) * 100) if n > 10 else 0
    if q <= 50:
        return {}
    return {f"p{q}": statistics.quantiles(samples, n=100, method="inclusive")[q - 1]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(name: str, work: Path, seed: int, repeats: int):
    """Import the package and prepare the inputs ``repeats`` times; each set-up's (start, end)."""
    intervals = []
    workload = None
    for _ in range(repeats):
        start = time.perf_counter()
        _load_package()
        workload = workloads.build(name, ROOT, work, seed)
        intervals.append((start, time.perf_counter()))
    return workload, intervals


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def _table(rows: dict, notes: dict) -> None:
    for key, (value, unit) in rows.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<44} {value:>14.6g} {unit}{note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            workload, _ = _setup(name, work, seed, 1)
            return _traced(workload, seconds, started, _detail(workload, seed))
        with SpeedSampler() as speed:
            workload, setups = _setup(name, work, seed, SETUP_REPEATS)
            iterations, attempted, problems = _measure(workload, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(iterations)
    ref = {k: statistics.median(v) for k, v in _series(iterations, speed.normalize).items()}
    raw = _series(iterations, _raw)
    metrics = {
        "setup_s": (statistics.median(speed.normalize(a, b) for a, b in setups), "s"),
        "iteration_s": (ref["iteration_s"], "s"),
        "validate_s": (ref["validate_s"], "s"),
        "split_s": (ref["split_s"], "s"),
        "squares_per_s": (workload.split_squares / ref["split_s"], "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = {k: f"median of {n}" for k in ("iteration_s", "validate_s", "split_s", "squares_per_s")}
    notes["setup_s"] = f"median of {len(setups)}"
    failed = len(problems)
    extra = {
        "kp_verify_s": (ref["kp_verify_s"], "s"),
        "props_s": (ref["props_s"], "s"),
        "checks_per_s": (workload.kp_checks / ref["kp_verify_s"] if workload.kp_checks else 0.0, "1/s"),
        "failed_frac": (failed / attempted, "1"),
    }
    detail = _detail(workload, seed)
    detail.update(
        iterations=n, setup_repeats=len(setups), split_digest=workload.split_digest,
        not_gated={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        raw_medians={k: statistics.median(v) for k, v in raw.items()},
        raw_tails={k: _percentile_note(v) for k, v in raw.items()},
        raw_setup_s=statistics.median(b - a for a, b in setups),
        speed_samples=len(speed.durations), speed_loop_mean_s=speed.mean_loop_s(),
        problems=problems[:20],
    )
    print(f"{name} seed={seed}: {n} iterations, {attempted} commands, {failed} failed")
    _table(metrics, notes)
    _table(extra, {k: f"median of {n}" for k in ("kp_verify_s", "props_s")})
    print(json.dumps({"detail": detail}))
    _emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def _detail(workload, seed: int) -> dict:
    return {"workload": workload.name, "seed": seed, "input_digest": workload.input_digest,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def _traced(workload, seconds, started, detail) -> int:
    """Untraced, then traced iterations; per-layer medians and counts, tracing overhead."""
    untraced, attempted, problems = _measure(workload, seconds * UNTRACED_SHARE, started)
    tracer = Tracer()
    per_iteration = []
    snapshot = [tracer.snapshot()]

    def record():
        after = tracer.snapshot()
        per_iteration.append(layer_metrics({k: after[k] - snapshot[0].get(k, 0) for k in after}))
        snapshot[0] = after

    tracer.install()
    try:
        traced, ran, found = _measure(workload, seconds * (1 - UNTRACED_SHARE), started, record)
    finally:
        tracer.uninstall()
    attempted += ran
    problems.extend(found)

    times = {k: statistics.median(t[k] for t, _ in per_iteration) for k in per_iteration[0][0]}
    counts = per_iteration[0][1]
    repeat = all(c == counts for _, c in per_iteration)
    baseline = statistics.median(map(_wall, untraced))
    traced_s = statistics.median(map(_wall, traced))
    metrics = {k: (v, "s") for k, v in times.items()}
    for k, v in counts.items():
        metrics[k] = (v, "ratio" if k.endswith("_ratio") or k.endswith("per_product") else "count")
    metrics["trace.overhead_s"] = (traced_s - baseline, "s")
    metrics["trace.overhead_frac"] = ((traced_s - baseline) / baseline, "ratio")
    metrics = dict(sorted(metrics.items()))

    spans_file = ROOT / ".bench_work" / f"spans-{detail['workload']}-seed{detail['seed']}.json"
    spans_file.write_text(json.dumps(
        [{"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in tracer.spans]
    ))
    failed = len(problems)
    detail.update(untraced_iterations=len(untraced), untraced_iteration_s=baseline,
                  traced_iterations=len(traced), traced_iteration_s=traced_s, counts_repeat=repeat,
                  spans_file=str(spans_file.relative_to(ROOT)), spans=len(tracer.spans),
                  problems=problems[:20])
    print(f"{detail['workload']} seed={detail['seed']} traced: {len(traced)} traced iterations, "
          f"{attempted} commands, {failed} failed, counts repeat: {repeat}")
    _table(metrics, {k: f"median of {len(traced)}" for k, (_, u) in metrics.items() if u == "s"})
    print(json.dumps({"detail": detail}))
    _emit(failed == 0 and repeat, attempted, failed, metrics)
    return 0 if failed == 0 and repeat else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after another."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            result["correct"]
        except (IndexError, ValueError, KeyError, TypeError):
            print(f"{name}: no result (exit {proc.returncode})")
            correct = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = (value["value"], value["unit"])
    print(f"all workloads: {attempted} commands, {failed} failed")
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    _check_sources()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
