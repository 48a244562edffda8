"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core virtual machine the speed of pure-Python code drifts by
+-20 % within seconds and over minutes, because other tenants share the
host.  Wall times taken at different moments are then not comparable,
whatever the program does.  So while a step is timed, a ``Probe`` times a
fixed exact-arithmetic kernel every INTERVAL seconds (from a SIGALRM
handler in the main thread), and once more before and after the step.  The
step's time is reported at the reference speed:

    scaled = (measured - time spent in the kernel) * REF_SECONDS / mean(kernel times)

The kernel does the kind of work nhomlie does (``Fraction`` elimination,
tuple and dict churn) and shares no code with it, so a change to nhomlie
cannot change the kernel's time.  ``REF_SECONDS`` is about the kernel's
median time on a shared 2-core virtual machine with Python 3.11, where it
ranged from 3.4 to 5 ms; scaled times are seconds at that speed.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.004
INTERVAL = 0.05


def kernel():
    """Gauss-Jordan on a fixed 9x9 rational matrix, then dict churn."""
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * i
    return m, counts


def _kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probe:
    """Samples the kernel's speed during timed steps; use as a context manager."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0        # seconds the alarm handler has taken
        self._quiet = False    # set while a boundary sample runs
        self._old_handler = None

    def _on_alarm(self, signum, frame):
        if self._quiet:
            return
        t0 = perf_counter()
        self.samples.append(_kernel_seconds())
        self.busy += perf_counter() - t0

    def _boundary_sample(self):
        self._quiet = True
        try:
            self.samples.append(_kernel_seconds())
        finally:
            self._quiet = False

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._boundary_sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def step(self, fn, *args):
        """Run ``fn(*args)``, which returns (value, measured seconds).

        Returns (value, measured seconds, seconds at the reference speed).
        """
        first = len(self.samples) - 1
        busy = self.busy
        value, measured = fn(*args)
        busy = self.busy - busy
        self._boundary_sample()
        speed = statistics.fmean(self.samples[first:])
        return value, measured, (measured - busy) * REF_SECONDS / speed
