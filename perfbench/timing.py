"""Reference-normalized timing.

This machine runs in phases: everything runs up to 80% slower for spans from
well under a second to over 45 s, and process CPU time slows with wall time.
A fixed pure-Python reference loop slows with it.  While a workload runs, a
timer signal runs the reference loop every REFERENCE_EVERY_S, also in the
middle of a verdict, and its time is taken out of the verdict's time.  Each
verdict's time is then divided by the mean reference time around and inside
it and multiplied by REFERENCE_NOMINAL_S: the result reads as seconds on a
machine where the reference loop takes exactly REFERENCE_NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_ITERATIONS = 20_000
REFERENCE_NOMINAL_S = 0.003  # the loop's time on this machine in its fast phase
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW_S = 0.1  # reference runs this close to a verdict count for it


def reference_seconds() -> float:
    """Time one run of the reference loop: integer arithmetic and dict stores."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - t0


class NormalizedClock:
    """Times calls while a timer signal samples the reference loop.

    Use as a context manager around the calls; `call(fn)` times one call with
    the sampler's own time taken out, and `normalized()` returns every call's
    time in reference-normalized seconds.
    """

    def __init__(self) -> None:
        self.references: list[float] = []
        self._ref_times: list[float] = []
        self.sampling_s = 0.0  # time spent in the sampler so far
        self._laps: list[tuple[float, float, float]] = []
        self._busy = False

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.references.append(reference_seconds())
        t1 = time.perf_counter()
        self._ref_times.append((t0 + t1) / 2)
        self.sampling_s += t1 - t0
        self._busy = False

    def __enter__(self) -> "NormalizedClock":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def call(self, fn):
        sampling = self.sampling_s
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._laps.append((t0, t1, t1 - t0 - (self.sampling_s - sampling)))

    def normalized(self) -> list[float]:
        out = []
        times = self._ref_times
        for start, end, seconds in self._laps:
            lo = min(bisect.bisect_right(times, start) - 1, bisect.bisect_left(times, start - REFERENCE_WINDOW_S))
            hi = max(bisect.bisect_left(times, end), bisect.bisect_right(times, end + REFERENCE_WINDOW_S) - 1)
            window = self.references[max(lo, 0):hi + 1]
            out.append(seconds * REFERENCE_NOMINAL_S * len(window) / sum(window))
        return out

    def factor(self) -> float:
        """Mean conversion factor from raw to normalized seconds."""
        return REFERENCE_NOMINAL_S * len(self.references) / sum(self.references)
