"""Correction of measured times for the host's CPU speed.

On a machine shared with other tenants the same Python code runs up to twice
as slowly while the host is busy, for seconds to minutes at a time, which
moves whole benchmark runs.  A fixed calibration loop (exact Fraction
arithmetic and dict updates, like the engines) is timed every 50 ms on a
timer signal while the operations run; an interval measured at time t is
scaled by ``REFERENCE_S / c(t)``, ``c(t)`` being the calibration time around
it, and the time spent in the calibration loop itself is taken out.  The
scaled figure is the time the interval would take on a host where the loop
takes ``REFERENCE_S``.  The garbage collector is off while the loop runs, so
that the loop neither pays for collecting the program's heap nor is timed
slower when that heap grows.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter
from typing import List, Tuple

REFERENCE_S = 0.0006   # calibration loop time on an idle 2 GHz host
INTERVAL_S = 0.05
WINDOW_S = 0.5         # samples this close to a short interval describe it


def calibration_loop() -> float:
    """Time one run of the fixed calibration work, with the garbage
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = {}
        for i in range(1, 120):
            acc[(i, i + 1)] = Fraction(i, 7) * Fraction(3, i + 1) \
                + acc.get((i - 1, i), 0)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst(count: int) -> float:
    """Mean inverse calibration time over ``count`` back-to-back loops."""
    return fmean(1.0 / calibration_loop() for _ in range(count))


class HostSpeed:
    """Samples the calibration loop on SIGALRM while it is entered."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._previous = None
        self._prefix: Tuple[int, list, list, list] = (-1, [], [], [])

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, calibration_loop()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sums(self):
        """Sample times and prefix sums of durations and inverse durations."""
        if self._prefix[0] != len(self.samples):
            times, dur, inv = [], [0.0], [0.0]
            for t, d in self.samples:
                times.append(t)
                dur.append(dur[-1] + d)
                inv.append(inv[-1] + 1.0 / d)
            self._prefix = (len(self.samples), times, dur, inv)
        return self._prefix[1:]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        times, dur, inv = self._sums()
        i, j = bisect_left(times, start), bisect_left(times, end)
        a = bisect_left(times, start - WINDOW_S)
        b = bisect_right(times, end + WINDOW_S)
        if a == b:  # no sample near: use them all, or one taken now
            a, b = 0, len(times)
        mean_inv = (inv[b] - inv[a]) / (b - a) if b > a \
            else 1.0 / calibration_loop()
        return (end - start - (dur[j] - dur[i])) * REFERENCE_S * mean_inv
