"""A fixed reference task that tells how fast this machine runs at the moment.

On a shared host the same mubkit work takes up to 40 % longer in one minute
than in the next, and the process's CPU time slows just as much as its wall
time, so the slowdown is the processor's, not the scheduler's.  A run samples
this task between its operations and reports its operation times scaled by
``REFERENCE_NOMINAL_S / median(samples)``: seconds at a fixed reference speed.

The task is interpreted float arithmetic.  Of five candidates timed beside
fixed mubkit operations for ten minutes (a Jacobi sweep through numpy
scalars, a JSON round trip, small numpy calls, a search-like numpy kernel,
and this loop), this loop followed the operations' drift most closely; the
numpy-bound tasks swung about twice as far as mubkit did.  It never calls
mubkit, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional

# A round figure inside the range of the task's median, 0.045 to 0.065 s, on
# a shared 2-core x86-64 virtual machine (Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_NOMINAL_S = 0.05

# Nominal seconds of measured work between two reference samples.
SAMPLE_INTERVAL_S = 1.5


def reference_seconds() -> float:
    """Seconds one run of the reference task takes now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(500_000):
        total += (i * 0.5) * (i * 0.25)
    return time.perf_counter() - start


class Sampler:
    """Side measurements taken between a run's operations.

    Once per ``SAMPLE_INTERVAL_S`` of nominal work it times the reference
    task and, when ``launch`` is given, one call of it (a set-up launch).
    Spreading the launches over the run, instead of timing them back to back,
    averages the set-up time over the run's drift as well.  The schedule
    follows the nominal cost of the operations, not their measured time, so
    one workload always takes the same number of samples.
    """

    def __init__(self, launch: Optional[Callable[[], float]] = None):
        self.samples: list[float] = []
        self.launches: list[float] = []
        self._launch = launch
        self._credit = 0.0

    def before(self, nominal_s: float) -> None:
        """Call before an operation of nominal cost ``nominal_s``."""
        while self._credit <= 0.0:
            # The reference first: a launch just before it would leave it cold caches.
            self.samples.append(reference_seconds())
            if self._launch is not None:
                self.launches.append(self._launch())
            self._credit += SAMPLE_INTERVAL_S
        self._credit -= nominal_s

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the reference speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)
