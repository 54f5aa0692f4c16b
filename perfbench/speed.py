"""How fast the machine runs at the moment, read from a fixed loop.

The benchmark's host is shared.  Other tenants slow its cores by up to
half, in phases that last from seconds to minutes, so wall-clock figures
of two runs of the same code a few minutes apart differ by as much as a
regression would.  The slowdown touches the loop below and the queries
nearly alike, so the benchmark times the loop every `INTERVAL_S` while
it runs queries, from a timer signal that interrupts the query, and
scales each query by how long the loop took around it.  A time "at
reference speed" is the time the query would have taken had the loop
taken `REFERENCE_S`.  The loop's own time is taken out of the query it
interrupted.  Over ten runs on the baseline machine named below, the
quartile spread of throughput falls from 0.09-0.14 of the median on the
wall clock to 0.03-0.05 at reference speed; on the memory-heavy pool
workload the loop tracks the slowdown less well (0.05-0.10).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

# The loop's time on an uncontended core of the machine the baseline was
# taken on (Intel Xeon, 2 vCPU virtual machine at 2.1 GHz, Python
# 3.11.7): its fastest phase.  It fixes the unit only.
REFERENCE_S = 0.005
# Seconds between calibrations, and how far around a span they count.
INTERVAL_S = 0.1
WINDOW_S = 0.5


# The table the loop reads; built once, so the loop keeps nothing alive.
TABLE = {(i % 97, "k%d" % (i % 13)): i for i in range(97 * 13)}


def loop() -> int:
    """Fixed work of the kind the library does: tuples, strings, hashing.

    Each object it makes is freed before the next is made, so it reuses
    the same few blocks of memory and leaves the heap of the query it
    interrupts as it found it.
    """
    total = 0
    for i in range(7500):
        key = (i % 97, "k%d" % (i % 13))
        total += TABLE[key] + len(frozenset((i, i >> 1, i >> 2)))
    return total


class Clock:
    """Loop times taken during a run, and the scale they give a span."""

    def __init__(self) -> None:
        loop()  # warm the interpreter's specializations
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def take(self, *_signal) -> None:
        # With the collector off, the loop's allocations trigger no
        # collection, and as it frees them it leaves the collector's
        # counts as it found them: the query it interrupts collects
        # garbage, and peaks in memory, as it would without it.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - start)

    @contextmanager
    def sampling(self):
        """Take a calibration every `INTERVAL_S` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds the loop ran within [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.times[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """`REFERENCE_S` over the median loop time near [start, end].

        Counts the loops that ended within `WINDOW_S` of the span, and at
        least the last one before it and the first one after it.
        """
        ends = self.ends
        lo = bisect.bisect_left(ends, start - WINDOW_S)
        hi = bisect.bisect_right(ends, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(ends, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(ends, end) + 1, len(ends)))
        return REFERENCE_S / statistics.median(self.times[lo:hi])
