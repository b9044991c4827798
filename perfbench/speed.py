"""The machine's current speed, read from a fixed reference loop.

The reference machine changes speed by up to 2x, over times from a tenth of
a second to minutes, for reasons outside the benchmark's processes, and
slows the program and any other interpreter-bound loop alike (wall and CPU
time alike).  The benchmark therefore times this fixed loop, which calls
nothing of the program, beside the work it measures, and reports times in
nominal seconds:

    nominal time = wall time * REF_NOMINAL_NS / (reference loop time then)

so a figure reads as it would on the reference machine at its usual speed.
Measured on the reference machine: the spread between 10-second blocks of
a fixed arith loop fell from 9.4k-15.7k ops/s (wall) to +-4% (scaled); on
the lang-fuzz op, from 0.76-1.04 of the median to 0.96-1.06.  On a calm
machine the scaling adds a few per cent of noise of its own.  The raw
wall-clock figures stay in each run's record.
"""

from __future__ import annotations

from time import perf_counter_ns

REF_ITERS = 5_000
# the reference loop's time on the reference machine (2 vCPUs, Python 3.11.7) at its usual speed
REF_NOMINAL_NS = 750_000


def _reference_loop() -> int:
    d = {}
    for i in range(REF_ITERS):
        d[i & 255] = (i, str(i & 15))
    return len(d)


def reference_ns() -> int:
    """The reference loop's time now: the best of two back-to-back runs, in ns."""
    best = None
    for _ in range(2):
        start = perf_counter_ns()
        _reference_loop()
        ns = perf_counter_ns() - start
        best = ns if best is None else min(best, ns)
    return best


# Start-up time is scaled by a bare interpreter launch instead: process
# creation and interpreter start-up slow down in ways the loop does not
# follow.  Over eight rounds of 20 launches spread across two minutes, the
# median CLI launch spread by 0.15 (interquartile distance over the median)
# scaled by the loop, and by 0.03 as a multiple of the median bare launch.
BARE_LAUNCH = ("-c", "pass")
# a bare launch's time on the reference machine at its usual speed
BARE_NOMINAL_MS = 40.0


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from wall time, measured between two reference samples, to nominal time."""
    return REF_NOMINAL_NS / ((before_ns + after_ns) / 2)
