"""CPU-speed probe: a fixed reference loop, timed on a timer signal while work runs.

On the 2-vCPU VM this benchmark was built on, the same Python code ran up to
twice as slow for stretches of seconds to minutes. Wall and CPU time grew
together and steal time stayed near zero, so the cause is contention on the
host, not the program. Raw medians of 35-second runs then differed by 20-30%
between runs. While the work runs, the probe interrupts it every
``INTERVAL_S`` seconds and times ``kernel()``. A measured interval is
reported at the reference speed: its duration, less the probe's own time
inside it, times ``REF_KERNEL_S`` over the mean kernel time around it. The
reference is the kernel's uncontended time, so on a quiet machine the value
is the raw time. A slower program stays slower: the kernel does not depend
on it.

The probe uses SIGALRM and ITIMER_REAL, so it runs only in the main thread of
a POSIX process.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.025
# Samples within this distance of an interval's middle set its scale, so an
# interval shorter than the probe period still gets a few samples.
WINDOW_S = 0.5
# kernel() time on an uncontended 2.1 GHz vCPU of the reference VM with
# Python 3.11.7: the 5th percentile of its samples, which matches the floor
# of a tight loop.
REF_KERNEL_S = 54e-6


def kernel() -> int:
    """Fixed pure-Python work shaped like the interpreter's: dicts, tuples, checks."""
    table: dict = {}
    acc = 0
    for i in range(400):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc += len((key, i)) if isinstance(key, int) else 0
    return acc + len(table)


class Probe:
    """Kernel samples taken while the probe is active; scales intervals afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []  # the timed kernel() run of each sample
        self.costs: list[float] = []  # the whole sample, taken out of intervals
        self._seconds_sum: list[float] = []
        self._costs_sum: list[float] = []
        self._saved = None

    def _sample(self, signum, frame):
        # Two untimed runs bring the kernel back into the caches the
        # interrupted work used; the timed third run then does not depend on
        # what that work left there.
        t_in = perf_counter()
        kernel()
        kernel()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t_in)
        self.seconds.append(t1 - t0)
        self.costs.append(t1 - t_in)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._seconds_sum = [0.0, *accumulate(self.seconds)]
        self._costs_sum = [0.0, *accumulate(self.costs)]

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        """Indices of the samples that started in [t0, t1)."""
        return bisect_left(self.starts, t0), bisect_left(self.starts, t1)

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time around [t0, t1]."""
        mid = (t0 + t1) / 2
        i, j = self._range(min(t0, mid - WINDOW_S), max(t1, mid + WINDOW_S))
        if i == j:
            raise ValueError("no probe samples around the interval")
        return REF_KERNEL_S * (j - i) / (self._seconds_sum[j] - self._seconds_sum[i])

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        i, j = self._range(t0, t1)
        own = self._costs_sum[j] - self._costs_sum[i]
        return (t1 - t0 - own) * self.scale(t0, t1)
