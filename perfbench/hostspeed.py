"""How fast the host runs this process right now, from a fixed Python kernel.

On a shared host the same engine op on the same inputs takes from 1x to 2x
its fastest time, in spells of seconds to minutes that other tenants cause;
a whole 40 s run can fall into a slow spell, so no statistic over one run's
reps repeats from run to run.  The benchmark therefore times this kernel just
before and just after every timed op and set-up, and scales the measured
time by REFERENCE_S over the kernel's time: the time the op takes when the
kernel takes REFERENCE_S.  The kernel is fixed benchmark code, so a change
to the engine moves the scaled times as much as the measured ones.

The kernel does what the engine's hot paths do: exact elimination over
`Fraction`s on a matrix held as a dict of (row, col) -> entry, with tuple
keys, dict lookups and small-object churn, so it slows down with the engine
when a neighbour takes the shared caches.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005  # the kernel's time at a typical moment of a 2-vCPU VM
#                      on an Intel Xeon host, Python 3.11
SIZE = 14
CHUNKS = 4


def _kernel():
    n = SIZE
    m = {(i, j): Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)
         for i in range(n) for j in range(n) if (i + 2 * j) % 3}
    rows = list(range(n))
    for c in range(n):
        piv = next((r for r in rows if m.get((r, c))), None)
        if piv is None:
            continue
        rows.remove(piv)
        p = m[piv, c]
        for r in rows:
            f = m.get((r, c))
            if not f:
                continue
            f = f / p
            for j in range(c, n):
                v = m.get((r, j), 0) - f * m.get((piv, j), 0)
                if v:
                    m[r, j] = v
                else:
                    m.pop((r, j), None)


def probe():
    """The kernel's time now: the median of CHUNKS runs, in seconds."""
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, before, after):
    """A time measured between two probes, at the reference host speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
