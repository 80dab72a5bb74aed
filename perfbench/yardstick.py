"""A fixed reference computation that gauges the host's speed during a run.

On a shared virtual machine the speed of the benchmark's one thread moves
by a quarter or more for tens of seconds at a time, for every job alike and
for this reference too. So the harness times ``reference()`` after every
job, outside the job's timing, and divides the job's latency by the host
factor of that moment: the median of the nearest ``2 * WINDOW + 1``
reference times, over ``REF_S``. The time metrics then read as they would
on a host where ``reference()`` always takes ``REF_S``.

The reference mixes exact Python arithmetic with numpy, like the two
workloads, and does not touch ``weylorbits``: a change to the program
changes the job times but not the factor.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# reference() on the 2-vCPU machine the bounds were set on; it fixes the
# scale of the reported times, not their spread.
REF_S = 0.003
WINDOW = 5
_PHASES = np.linspace(0.0, 40.0, 30_000)


def reference() -> float:
    """Seconds taken by a fixed mix of Fraction sums, dict stores and numpy."""
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 500):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i, i % 13)] = total
    z = np.exp(1j * _PHASES)
    float((z * z.conj()).real.sum())
    return time.perf_counter() - t0


def host_factor(times: list[float]) -> float:
    """Host factor from reference times taken at one moment."""
    return statistics.median(times) / REF_S


def host_factors(times: list[float]) -> list[float]:
    """Host factor at each position of a run's reference times."""
    n = len(times)
    return [
        host_factor(times[max(i - WINDOW, 0):min(i + WINDOW + 1, n)]) for i in range(n)
    ]
