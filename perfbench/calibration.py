"""The reference kernel that turns wall time into calibrated time.

On a shared host the speed of a core drifts by tens of percent, in
spells of tens of milliseconds to minutes, as other tenants load it, and
all code speeds up and slows down together.  The benchmark therefore
times slices of a fixed pure-Python kernel next to the work it measures
and scales that work's wall time by REF_NOMINAL_US over the slice time.
A calibrated time is the wall time the same work takes while a slice
takes REF_NOMINAL_US, about its time on an undisturbed 2-vCPU x86-64
host under Python 3.11.  A change to clothofit moves it in full; a
change in machine speed cancels out.

This module imports nothing of clothofit, so that a fresh interpreter
can time its own slices after its setup has been measured.
"""

import math
import time

REF_NOMINAL_US = 300.0
REF_TERMS = 3000


def reference_slice(terms=REF_TERMS):
    """Fixed float work with math calls, independent of clothofit."""
    s = 0.0
    x = 0.1
    for _ in range(terms):
        x = x * 1.0000001 + 1e-9
        s += math.sin(x) * x - s * 1e-7
    return s


def time_slice():
    """Wall time of one reference slice, in us."""
    t0 = time.perf_counter_ns()
    reference_slice()
    return (time.perf_counter_ns() - t0) / 1e3
