"""Machine-speed normalisation for a host whose CPU speed drifts.

On a shared host the same pure-Python loop can take 25% more or less time
from one ten-second stretch to the next, so raw times vary more across runs
than the changes they are meant to show.  `Speedometer` samples how fast
the host runs right now: every `INTERVAL_S` of this process's CPU time a
SIGPROF handler runs `kernel`, a fixed pure-Python loop (small-int
arithmetic, a dict, big-int arithmetic) that imports nothing from the
program, and times a second, warm run of it; the first run would depend on
what the program left in the caches.  `clock()` excludes the time spent in those samples, so a
measured interval does not include them.  `normalise(seconds, start, end)`
scales an interval to reference seconds, the time it would take on a host
where `kernel` takes `KERNEL_REF_S`, using the median sample taken in and
around [start, end].

Change nothing here without re-measuring the baseline: the kernel is the
unit every normalised time is expressed in.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05      # CPU time between two samples
KERNEL_REF_S = 0.001   # the warm kernel's time on the reference host
WINDOW_S = 0.5         # samples this far either side of an interval count
MIN_SAMPLES = 5


def kernel() -> int:
    """Creates no object the cyclic garbage collector tracks, so its time
    does not depend on how many objects the program holds."""
    acc = 0
    table = {}
    for i in range(5000):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
    x = 7 ** 600
    for i in range(75):
        x = x * 1000003 // 999983 + i
    return acc ^ (x & 0xFFFF) ^ len(table)


class Speedometer:
    def __init__(self):
        self.stamps: list[float] = []     # perf_counter at each sample's start
        self.durations: list[float] = []  # the kernel's time in each sample
        self.spent = 0.0                  # total time spent sampling
        self._previous = None

    def clock(self) -> float:
        """perf_counter minus the time spent sampling so far."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.stamps.append(started)
        self.durations.append(ended - warm)
        self.spent += time.perf_counter() - started

    def _on_tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)

    def kernel_time(self, start: float, end: float) -> float:
        """Median kernel time sampled within WINDOW_S of [start, end], or of
        the MIN_SAMPLES samples around its middle when the window holds fewer."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        if not self.durations:
            raise RuntimeError("no speed samples taken")
        return statistics.median(self.durations[lo:hi])

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """seconds measured over perf_counter interval [start, end], in
        reference seconds."""
        return seconds * KERNEL_REF_S / self.kernel_time(start, end)
