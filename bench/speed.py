"""Machine-speed normalization of timings.

The benchmark runs on shared machines whose speed for Python code drifts by
20% or more within seconds, which no number of repeats in one run averages
away.  `SpeedProbe` samples that speed while the work runs: a SIGALRM
handler in the same thread times a fixed piece of work (`calibration`, which
uses nothing from the library) every PERIOD_S seconds, with the garbage
collector off.  `seconds` then turns a raw interval into seconds at
a reference speed: the interval minus the probe's own time, times
REFERENCE_S over the median calibration time measured in and around the
interval.  A library change cannot move the calibration, so it
moves the normalized time as it moves the raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
WINDOW_S = 0.25
# calibration time that defines the reference speed (about its median on a
# 2-core x86-64 VM with CPython 3.11)
REFERENCE_S = 5.5e-4


_BIG_A = 3 ** 3000 + 17
_BIG_B = 5 ** 2000 + 3
_BUFFER = bytes(1 << 18)


def calibration():
    """Interpreter work (a dict product of small ints, Fraction sums), big-int
    multiply and divide, and a scan of a 256 KiB buffer: the kinds of work the
    workloads mix.  It allocates no large block, so it takes no page faults."""
    a = {i: (i * 7919) % 97 - 48 for i in range(24)}
    b = {i: (i * 104729) % 89 - 44 for i in range(20)}
    prod = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, k + 1)
    q, _ = divmod(_BIG_A * _BIG_B + 12345, _BIG_B + 7)
    return prod, f, q, _BUFFER.count(b"\x01")


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.spent = []         # probe time, taken out of the measured intervals
        self.durations = []     # calibration time, the speed estimate
        self._previous = None

    def _sample(self, signum=None, frame=None):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration()                   # untimed: brings its code and data into cache
            t0 = time.perf_counter()
            calibration()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(start)
        self.spent.append(t1 - start)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def seconds(self, t0, t1):
        """Reference-speed seconds of the raw interval [t0, t1]: its length
        minus the probe's time inside it, scaled by the median calibration
        time sampled from WINDOW_S before it to WINDOW_S after it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        cal = statistics.median(self.durations[lo:hi] or self.durations)
        return (t1 - t0 - sum(self.spent[i:j])) * REFERENCE_S / cal

    def median_calibration(self):
        return statistics.median(self.durations)
