"""Timing at a reference CPU speed.

On the shared 2-vCPU reference machine each vCPU runs, for seconds at a
time, in a fast or a slow state, and the two vCPUs switch independently:
a fixed Python loop takes about 1.8x longer in the slow state, while the
process's CPU time tracks its wall time.  A 40 s run's wall times
therefore depend on how much of it fell in the slow state: over ten
runs, the interquartile range of ``timeline``'s median round was 12% to
29% of the median in four sets.

A ``Speedometer`` measures that state while the benchmark times the
program.  Every ``PERIOD_S`` of a timed section a SIGALRM handler, which
runs in the main thread between the program's bytecodes, times one pass
of a fixed reference loop that never calls qpictures.  Wall time spent
in the handler is subtracted from the section.  ``scale()`` turns the
section's wall seconds into reference seconds: its time had the CPU run
at the speed at which the loop takes ``REFERENCE_S``, the loop's
fast-state time on the reference machine.

In short stretches the program does not follow the loop closely: within
one run, a round's wall time varies about as the loop's time to the power
0.4-0.75.  Across runs, which differ in how much of their time the CPU
spent in each state, it follows the loop about in proportion.  Over 24
runs of ``timeline`` whose median rounds took 7.8 s to 15.9 s of wall
time, the median round in reference seconds spread 1.26x from lowest to
highest, and its interquartile range was 10% of the median, against 20%
in wall seconds.  Scaling by the loop's
time to another power did no better on ``timeline``; a power of 0.7-0.8
did a little better on the circuit workloads, but one rule for every
workload is kept.  The report keeps the wall times and the loop's mean
time per section as well.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05


def _reference_loop():
    d = {}
    x = 1.0 + 0.5j
    for i in range(2000):
        d[(i & 15, i >> 4)] = x
        x = x * (0.999 + 0.001j) + d.get((i & 7, 0), 0j)
    return x


# Seconds one pass of the loop takes in the fast state on the reference
# machine, inside a running benchmark.
REFERENCE_S = 0.00056


class Speedometer:
    """Context manager that samples the reference loop while its block
    runs.  Not reentrant; main thread only."""

    def __init__(self):
        for _ in range(3):  # let the interpreter specialise the loop first
            _reference_loop()
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a section shorter than one period
            self._sample()

    def loop_s(self) -> float:
        """The loop's mean time over the last block: the harmonic mean of
        its samples, which are evenly spaced in wall time, so that each
        state counts by the time spent in it."""
        return statistics.harmonic_mean(self.samples)

    def scale(self) -> float:
        """Reference seconds per wall second over the last block."""
        return REFERENCE_S / self.loop_s()
