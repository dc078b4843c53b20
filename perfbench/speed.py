"""Machine speed, sampled while the benchmark runs, to scale its timings.

On a shared machine the same pure-Python work runs 10-25% slower or faster
from one second to the next, and two runs a minute apart differ by as much.
A run therefore keeps a speedometer: every PERIOD seconds a SIGALRM handler
times PROBE_LOOPS steps of a fixed loop of ``fractions.Fraction`` arithmetic.
It uses nothing of the library, but allocates and computes much as the
library's exact arithmetic does; an integer loop followed the library's
speed less well (it cut the run-to-run spread of random-small from 0.18 to
0.13, this probe to 0.08).  A call's wall time, less the probes that ran
inside it, is scaled by REFERENCE over the median probe time of the samples
taken from LOOKBACK before the call to its end.  The scaled time is what
the call would have taken at the speed at which one probe takes REFERENCE
seconds, about the median probe time on the machine of the reference
figures in README.md.

The handler only runs between bytecodes of the main thread, so it measures
the interpreter's speed at that moment; it costs about 0.3% of the run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

PERIOD = 0.05          # seconds between probes
PROBE_LOOPS = 20
REFERENCE = 1.5e-4     # seconds one probe takes at reference speed
LOOKBACK = 0.25        # seconds of samples before a call that also count


def probe() -> Fraction:
    s = Fraction(0)
    for i in range(1, PROBE_LOOPS + 1):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    return s


class Speedometer:
    """Samples the probe while active (``with meter:``)."""

    def __init__(self):
        self.stamps: list[float] = []     # when each probe ended
        self.probes: list[float] = []     # how long each probe took
        self.probe_total = 0.0
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        # a collection owed to the library's allocations would otherwise
        # land in the probe; with the collector paused it lands after it,
        # in the library's own time, as it would without the probe
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        probe()
        t1 = clock()
        if collecting:
            gc.enable()
        self.stamps.append(t1)
        self.probes.append(t1 - t0)
        self.probe_total += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def time(self, fn, *args):
        """fn(*args), its wall time without the probes, and that time
        scaled to reference speed."""
        t0 = clock()
        spent0 = self.probe_total
        result = fn(*args)
        t1 = clock()
        wall = t1 - t0 - (self.probe_total - spent0)
        first = bisect.bisect_left(self.stamps, t0 - LOOKBACK)
        window = self.probes[first:] or self.probes[-1:]
        return result, wall, wall * REFERENCE / statistics.median(window)
