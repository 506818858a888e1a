"""Wall-clock timing rescaled to a reference machine speed.

On a shared 2-core x86-64 host, speed was seen to change by up to 1.8x for
tens of seconds at a time. A pure-Python loop and the package slowed down
together, and no number of repetitions averaged it out. So a Clock
measures the host's speed with a fixed kernel of interpreter and numpy
work that never touches the package, and rescales each measured call to
a host on which that kernel takes CAL_REF_S.

A sampling clock runs the kernel before the call, every TICK_S during
it (from a SIGALRM handler, whose time is taken off the call's), and after
it, so a long call is rescaled by the speed it actually ran at: the mean
of the fastest three quarters of those readings. This is
for calls that run in this process only. A pooled call would compete with
the kernel for the cores, so a bracketing clock runs the kernel only
before and after the call, at the same time on this core and on a helper
process for each other core. A core's reading is its fastest of three,
and the cores combine as a harmonic mean.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import dawsn

CAL_REF_S = 0.004
TICK_S = 0.1
_X = np.linspace(0.1, 5.0, 600)


def kernel() -> float:
    """Wall seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(22_000):
        acc += i * i
    for _ in range(33):
        ((np.exp(-_X * _X) + 1j * dawsn(_X)) * np.exp(-1j * _X) / np.sqrt(_X * _X + 1.0)).sum()
    return time.perf_counter() - t0


def fastest_kernel() -> float:
    """Fastest of three kernel runs, so that a preemption does not count."""
    return min(kernel() for _ in range(3))


class Clock:
    """Times calls; `time` returns (rescaled seconds, the call's result).

    With `helpers` (an executor with one process per other core) the clock
    brackets; without it, it samples if `sample` is true and brackets on
    this core alone otherwise. Raw readings are kept in `log`.
    """

    def __init__(self, sample: bool, helpers=None, n_helpers: int = 0):
        self.sample = sample and helpers is None
        self.helpers = helpers
        self.n_helpers = n_helpers
        self.log: list[dict] = []

    def _bracket(self) -> float:
        futures = [self.helpers.submit(fastest_kernel) for _ in range(self.n_helpers)] \
            if self.helpers else []
        times = [fastest_kernel()] + [f.result() for f in futures]
        return len(times) / sum(1.0 / t for t in times)

    def time(self, fn, *args, **kwargs):
        if not self.sample:
            before = self._bracket()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            readings = [before, self._bracket()]
            self.log.append({"wall_s": wall, "kernel_s": readings})
            return wall * CAL_REF_S / statistics.mean(readings), out

        ticks: list[float] = []
        readings = [kernel()]
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(kernel()))
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            ticks_in_call = len(ticks)
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(ticks[:ticks_in_call])
        readings += ticks + [kernel()]
        self.log.append({"wall_s": wall, "kernel_s": readings})
        # the slowest quarter of readings are mostly preempted runs
        kept = sorted(readings)[:max(1, len(readings) * 3 // 4)]
        return wall * CAL_REF_S / statistics.mean(kept), out
