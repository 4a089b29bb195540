"""A gauge of how fast the machine runs, read between timed steps.

On a shared machine one process runs at up to twice its fastest time, in
swings that last from a fraction of a second to minutes (see README.md,
Noise).  Timed on its own, an op then reads up to twice as slow in one run
as in another.  The gauge is a fixed piece of pure-Python exact arithmetic,
like the package's inner loops but independent of it, timed right before
and right after each step.  Dividing a step's time by the gauge's slowdown
around it gives the time the step takes on a machine that runs the gauge
kernel in REF_KERNEL_S: a time at reference speed.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# the kernel's time per run in the fast state of the machine the benchmark
# was built on (2 cores, shared, Python 3.11)
REF_KERNEL_S = 1.4e-3


def kernel():
    acc = {}
    for i in range(1, 300):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 13 + 1) * Fraction(3, i)
    return acc


def read(reps):
    """Seconds per kernel run, over `reps` runs.  The collector is off
    meanwhile, so a collection of the program's heap is never charged to
    the gauge."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(reps):
            kernel()
        return (perf_counter() - start) / reps
    finally:
        gc.enable()


class Gauge:
    def __init__(self, reps):
        self.reps = reps
        self.last = read(reps)

    def slowdown(self):
        """How much slower than the reference the machine ran during the
        step that just ended: the mean of the readings before and after it,
        over REF_KERNEL_S."""
        before, self.last = self.last, read(self.reps)
        return (before + self.last) / 2 / REF_KERNEL_S
