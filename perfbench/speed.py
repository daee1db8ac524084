"""CPU-speed sampling, so that timings survive a machine whose speed drifts.

On a shared machine the same Python code can run at very different
speeds from one second to the next.  A :class:`Sampler` runs a fixed
stdlib-``Fraction`` loop every ``INTERVAL_S`` seconds from a ``SIGALRM``
handler, in the measured process's main thread, and records how long each
loop took.  :meth:`Sampler.normalize` turns a measured interval into
*reference seconds*: the interval's busy time (the sampler's own loops
taken out) times the mean of ``REFERENCE_S / loop time`` over the samples
inside it, which is the time the interval would have taken on a machine
where the loop takes exactly ``REFERENCE_S``.

The loop is Python-level rational arithmetic, like nilorb's own hot path,
so both slow down together when the machine does.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import List

LOOP_STEPS = 50
INTERVAL_S = 0.01
REFERENCE_S = 0.0004  # a fixed unit: about one loop on an idle Xeon VM core, Python 3.11


def loop() -> float:
    """Seconds taken by one fixed calibration loop."""
    start = time.perf_counter()
    for k in range(LOOP_STEPS):
        a = Fraction(k % 7 + 1, k % 11 + 2)
        b = Fraction(k % 5 + 1, k % 3 + 2)
        a * b - b / a + a
    return time.perf_counter() - start


class Sampler:
    """Samples loop times on a real-time interval timer."""

    def __init__(self) -> None:
        self.ends: List[float] = []       # perf_counter at the end of each loop
        self.durations: List[float] = []

    def _sample(self, signum, frame) -> None:
        duration = loop()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def start(self) -> None:
        for _ in range(5):      # let the interpreter specialise the loop
            loop()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of perf_counter."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi]
        busy = end - start - sum(inside)
        if not inside:
            if not self.durations:
                raise RuntimeError("no speed sample taken")
            # Shorter than the interval: use the sample nearest in time.
            mid = (start + end) / 2
            near = min(range(max(lo - 1, 0), min(lo + 1, len(self.ends))),
                       key=lambda k: abs(self.ends[k] - mid))
            inside = [self.durations[near]]
        return busy * sum(REFERENCE_S / d for d in inside) / len(inside)
