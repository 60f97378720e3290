"""Host time, normalised by a reference kernel timed next to it.

The benchmark shares its machine with other jobs, and host speed drifts:
on the 2-core development host, identical timed runs spread 10-25%
(quartile distance over median) across a few minutes, with CPU time equal
to wall time, so the drift is host speed, not scheduling.  Every host
interval the benchmark reports is therefore paired with timings of a fixed
pure-Python kernel taken at its two ends, and scaled to the speed at which
that kernel takes ``NOMINAL_S``:

    normalised = raw * NOMINAL_S / mean(reference at start, reference at end)

The kernel is interleaved with the work it normalises (at every simulated
time slice of a timed run, and around every set-up), unlike a calibration
spin taken once per run, which samples the host at a different moment than
the work and adds noise instead of removing it.  Nothing in the program
under test runs inside the kernel, so a change to the program cannot move
it.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Tuple

#: Reference-kernel time that defines one normalised second (its time on
#: the development host when that host runs at full speed).
NOMINAL_S = 0.0007

#: (host time before the kernel, host time after it, kernel duration).
Mark = Tuple[float, float, float]


_TABLE = {i: i * 7 for i in range(1024)}


def _kernel() -> int:
    """Interpreter-bound loop that allocates no container, so it never
    triggers the cyclic garbage collector (whose cost grows with the heap
    the workload built, not with host speed)."""
    table = _TABLE
    total = 0
    for i in range(6000):
        total += table[i & 1023] ^ i
    return total


def mark() -> Mark:
    """Time the reference kernel now: fastest of three back-to-back runs,
    so one interrupted run does not read as a slow host."""
    before = perf_counter()
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return before, perf_counter(), best


def interval(start: Mark, end: Mark) -> float:
    """Normalised host seconds between two marks (kernels excluded)."""
    raw = end[0] - start[1]
    return raw * NOMINAL_S / ((start[2] + end[2]) / 2)


def intervals(marks: List[Mark]) -> List[float]:
    """Normalised durations between consecutive marks."""
    return [interval(a, b) for a, b in zip(marks, marks[1:])]


def raw_interval(start: Mark, end: Mark) -> float:
    return end[0] - start[1]
