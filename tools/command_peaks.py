"""Run ``kgraphs`` commands in one process and print each one's exit code,
wall time, and ``tracemalloc`` peak and live MB.

Standard library only; run it from any directory, one quoted command line
per argument, with paths as the commands would take them::

    python3 tools/command_peaks.py "validate tests/data/lambda1.kg" \\
        "split tests/data/lambda1.kg --partition-file tests/data/paper.part -o /tmp/gamma1.kg"

The package is imported from the ``src`` directory next to this script,
and ``kgraphs --help`` runs first, so the argument parser is built before
anything is measured.  Each command then runs twice with its stdout and
stderr discarded: untraced, which gives the wall time, then under
``tracemalloc``, which gives the exit code, the peak (the most memory the
run held at once) and the live memory it left, both above what was held
before it; live includes the interpreter's free lists, which a later
``gc.collect()`` empties.  MB are 2^20 bytes, as in the benchmark's ``peak_rss_mb``.  The
traced run writes its outputs again, and only the untraced run is timed:
give a ``split`` a new output path, since opening an existing file can
wait on the file system's writeback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shlex
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kgraphs import cli  # noqa: E402


def measure(argv: list[str]) -> tuple[int, float, float, float]:
    """``(exit code, wall seconds, peak MB, live MB)`` of ``kgraphs argv``."""
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        cli.main(argv)
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            code = cli.main(argv)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return code, wall, peak / 2**20, live / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", help="a kgraphs command line, quoted as one argument")
    args = parser.parse_args(argv)
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        cli.main(["--help"])
    print(f"{'exit':>4} {'wall_s':>8} {'peak_mb':>8} {'live_mb':>8}  command")
    for line in args.commands:
        code, wall, peak, live = measure(shlex.split(line))
        print(f"{code:>4} {wall:>8.4f} {peak:>8.3f} {live:>8.3f}  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
