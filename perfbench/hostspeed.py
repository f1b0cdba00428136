"""The host's speed, measured alongside the work it slows down.

The CPU speed of a shared virtual machine drifts: a fixed pure-Python
loop can take a quarter longer for tens of seconds at a time, in phases
longer than a benchmark run. Raw seconds then move more between runs of
the same code than any bound worth keeping. So the benchmark times a fixed
reference kernel while it measures, and reports times in reference
seconds: seconds on a host where the kernel takes REFERENCE_KERNEL_S.

    reference seconds = measured seconds * REFERENCE_KERNEL_S / kernel seconds

The kernel is Fraction and dict work, like symcon's inner loops, so a
slower phase of the host slows both by about the same share. Nothing in
the kernel touches symcon, so a change to symcon moves only the numerator.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The kernel's time on the host whose seconds the benchmark reports.
REFERENCE_KERNEL_S = 0.010
# While a workload runs, one kernel sample every SAMPLE_PERIOD_S (about 4 % of the time).
SAMPLE_PERIOD_S = 0.25


def reference_kernel() -> dict:
    """Fixed work of about 10 ms: Fraction products and sums kept in a dict of tuples."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 1500):
        key = (i % 5, i % 3)
        acc[key] = acc.get(key, 0) + x * Fraction(i, i % 7 + 1)
    return acc


def time_kernel() -> float:
    """One kernel time, with the collector off so that it never scans the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    for _ in range(3):
        reference_kernel()


def setup_kernel() -> float:
    """The kernel's time in a fresh interpreter: warmed up, then the median of three."""
    warm_up()
    return statistics.median(time_kernel() for _ in range(3))


def scale(samples: list[float]) -> float:
    """The factor that turns seconds measured alongside `samples` into reference seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


class Sampler:
    """Times the kernel before, every SAMPLE_PERIOD_S during, and after a block.

    The samples inside the block run from a SIGALRM handler, in the main
    thread between bytecodes, so they see the host as the work does.
    `work_s` is the time the block took less the time those samples took.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0
        self.work_s = 0.0

    def _sample(self, *_):
        t = time_kernel()
        self.samples.append(t)
        self.paused_s += t

    def __enter__(self):
        warm_up()
        self.samples.append(time_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.work_s = time.perf_counter() - self._t0 - self.paused_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_kernel())
        return False
