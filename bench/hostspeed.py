"""Host-speed calibration: time geostep's work at a fixed reference speed.

The benchmark host is shared.  Its speed changes by up to 1.8x within
seconds and drifts over tens of minutes, so two sets of runs of the same
code disagree on raw wall time by more than any useful bound.  The slowdown
does not show as lost CPU time (process time equals wall time), so only a
measurement of the speed itself can take it out.

A probe is a fixed piece of work of the kind geostep does (an interpreter
loop, small numpy mat-vec products, dict and str work) that uses nothing
from geostep.  A timer signal runs it every PROBE_EVERY_S seconds, also in
the middle of an operation, so the speed is sampled inside long operations
too; the probe's own time is taken out of the operation's.  An operation's
wall time divided by the host's speed factor over it, the mean probe time
around it over `REF_S`, is its time in reference seconds: the time it would
take on a host where the probe takes exactly `REF_S`.  A change that makes
geostep slower makes that time longer by the same share; the host's speed
cancels.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# The probe's median time on the host the benchmark was defined on
# (2-core x86_64 VM, Python 3.11, numpy 2).  Only a scale: reference seconds
# are comparable between runs, whatever this value is.
REF_S = 0.005
PROBE_EVERY_S = 0.25
# Probes this close to an interval count toward its speed, so that a short
# interval has a few and one disturbed probe cannot set its factor alone.
MARGIN_S = 0.5

_M = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]


def probe() -> float:
    """Seconds for the fixed probe work."""
    t0 = perf_counter()
    y = np.ones(8)
    out = np.empty((1750, 8))
    for j in range(1750):
        y = _M @ y
        out[j] = y
    s = 0
    for i in range(17500):
        s += i * i
    d = {}
    for i in range(8750):
        d[i % 97] = str(i)
    return perf_counter() - t0


class SpeedLog:
    """Probes on a timer signal while resumed, and the speed factor and
    probe time for any interval."""

    def __init__(self):
        self.start: list[float] = []  # perf_counter when each probe began
        self.seconds: list[float] = []
        self._old_handler = None

    def take(self, *_signal_args) -> None:
        self.start.append(perf_counter())
        self.seconds.append(probe())

    def resume(self) -> None:
        """Probe now, then every PROBE_EVERY_S seconds until `pause`."""
        self.take()
        self._old_handler = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def pause(self) -> None:
        """Stop the timer, then probe once more."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.take()

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end] relative to the reference: the
        mean time of the probes that began within MARGIN_S of it, over
        REF_S."""
        near = self.seconds[bisect_left(self.start, start - MARGIN_S):
                            bisect_right(self.start, end + MARGIN_S)]
        if len(near) < 2:
            raise ValueError("too few probes near the interval")
        return statistics.fmean(near) / REF_S

    def probe_seconds(self, start: float, end: float) -> float:
        """Time taken by the probes that ran inside [start, end]."""
        return sum(self.seconds[bisect_left(self.start, start):
                                bisect_right(self.start, end)])

    def ref_seconds(self, start: float, end: float) -> float:
        """Time of [start, end], less the probes inside it, in reference
        seconds."""
        own = end - start - self.probe_seconds(start, end)
        return own / self.factor(start, end)
