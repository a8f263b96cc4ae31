"""The reference solve that every reported time is scaled by.

This host's speed drifts: other tenants share its cores and caches, and
the same domkit op took up to 1.8 times as long from one second to the
next.  A 30 s run does not average that out, so ten runs of the same
code spread by more than the bounds allow.  Every timed interval is therefore scaled by
a reference solve timed right next to it:

    reported ms = measured ns / reference ns * REFERENCE_MS

so a reported time is the time on a host where the reference solve
takes REFERENCE_MS.  The reference is this benchmark's own exact solver
(oracles.exact_gamma) on a fixed circulant: it runs the same kinds of
interpreter work as domkit's pure kernel (recursion, bitmask ints, dicts)
without sharing its code, so a change to domkit cannot change it.
README.md ("Noise") records how much this steadies the metrics.
"""

from __future__ import annotations

import time

from oracles import exact_gamma

REFERENCE_MS = 1.0
REFERENCE = (34, (1, 2, 13))  # gamma = 10; about 1.1 ms on a 2.0 GHz Xeon


def reference_ns() -> int:
    """Wall time of one reference solve, in ns."""
    t0 = time.perf_counter_ns()
    exact_gamma(*REFERENCE)
    return time.perf_counter_ns() - t0


def scaled_ms(ns: float, reference: float) -> float:
    """ns measured next to a reference solve of `reference` ns, in reference ms."""
    return ns / reference * REFERENCE_MS
