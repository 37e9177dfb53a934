"""Machine-speed probe used to rescale wall times.

On a shared host the speed of a core can change by a factor of two within
seconds, which would swamp any change in the program.  The worker runs
this fixed probe between ops, and every time it reports is the measured
wall time multiplied by ``NOMINAL_NS`` over the median of the probes run
just before and just after it: a time at the machine speed at which the
probe takes 0.4 ms.
The probe sorts and merges atom-like pairs, which is the kind of work the
program does.  The garbage collector is off while it runs, so that garbage
or live state left by the program cannot slow the probe.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_NS = 400_000
#: Probes run in each gap between two ops.
GAP = 3

_PAIRS = tuple(((i * 7919) % 1009 / 7.0, 1.0 / (i + 1)) for i in range(1000))


def probe() -> int:
    """Nanoseconds taken by one fixed run of sort-and-merge work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        merged: list[list[float]] = []
        for loc, mass in sorted(_PAIRS):
            if merged and abs(merged[-1][0] - loc) <= 1e-12 * max(1.0, loc):
                merged[-1][1] += mass
            else:
                merged.append([loc, mass])
        sum(mass for _, mass in merged)
        return time.perf_counter_ns() - started
    finally:
        if enabled:
            gc.enable()


def gap() -> list[int]:
    """The probes run between two ops."""
    return [probe() for _ in range(GAP)]


def factor(before: list[int], after: list[int]) -> float:
    """Rescaling factor for an op from the probe gaps around it."""
    return NOMINAL_NS / statistics.median(before + after)
