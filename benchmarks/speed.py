"""Interpreter speed sampled through a run, to take host contention out of timings.

On a shared host, load from other tenants can halve this process's speed
for seconds at a time, so raw wall times of the same code differ by tens
of percent from run to run.  :class:`SpeedSampler` measures that slowdown
while the workload runs: a timer signal (``SIGALRM``, every
:data:`INTERVAL_S`) runs a fixed loop in this thread and records how long it
took.  The loop does the kinds of work ``kgraphs`` spends its time in
(tuple-keyed dict lookups, small sorts, ``Fraction`` arithmetic), so
contention slows both by similar factors; a plain integer loop slows less
than the program does.  Its objects die within the loop, and the garbage collector
is paused while it runs, so it starts no collection inside the program.

:meth:`SpeedSampler.normalize` turns the raw seconds of an interval into
*reference seconds*: the raw time minus the sampler's own time inside the
interval, times :data:`REFERENCE_S` over the mean loop time around the
interval.  Under contention the loop and the program slow down together,
so their ratio moves much less than the raw time.  A change to the program
moves the raw time and not the loop, so it shows in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# About the loop's fastest time on a shared 2-vCPU Intel Xeon VM (Python 3.11); it
# only scales reference seconds to read roughly like quiet wall seconds.
REFERENCE_S = 8.0e-05
# Intervals shorter than a few samples borrow the nearest ones.
MIN_SAMPLES = 4


_TABLE = {(i % 97, str(i % 13)): i for i in range(2000)}


def _loop() -> None:
    x = 0
    for i in range(50):
        key = (i % 97, str(i % 13))
        x += _TABLE.get(key, 0)
        sorted(((i, i), key[:1], (i % 7, i)))
    a = Fraction(1, 3)
    for i in range(8):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i + 3)


class SpeedSampler:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _loop()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds for the raw interval ``[start, end]``; call after the run."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts))
        if lo == hi:
            return end - start
        return (end - start - own) * REFERENCE_S / statistics.fmean(self.durations[lo:hi])

    def mean_loop_s(self) -> float:
        return statistics.fmean(self.durations) if self.durations else 0.0
