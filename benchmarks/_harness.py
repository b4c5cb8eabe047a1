"""Shared measurement harness for the benchmark suite.

Shared-runner noise has two shapes: slow *drift* (a CI neighbour spins
up, the CPU thermally throttles) and transient *spikes* (one round hits
a scheduler stall).  Comparing best-of-N timings taken on independent
sides misaligns both: drift lands asymmetrically on whichever side ran
later, and min-of-N silently picks two rounds that never shared machine
conditions.

The drift-cancelled estimator here interleaves the two configurations
within every round and reduces the per-round ratios with the *median*:
each ratio compares timings taken back to back (drift hits both sides
of one division equally), and the median discards rounds where a spike
hit one side.  ``bench_serve`` gates profiling overhead on it; this
module is the benchmark-side home for the primitives so every bench
script reports ratios and geomean rows the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter


def timed(fn):
    """Run ``fn`` and return ``(elapsed_seconds, payload)``."""
    started = perf_counter()
    payload = fn()
    return perf_counter() - started, payload


def median(values):
    """The midpoint value (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def geomean(values):
    """Geometric mean — the right average for ratios and speedups."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class ABEstimate:
    """One drift-cancelled A/B measurement.

    ``ratios`` holds the per-round ``a/b`` elapsed-time ratios;
    ``median_ratio`` is the gate-worthy reduction.  ``best_a``/``best_b``
    are the fastest ``(elapsed, payload)`` observations of each side —
    the right numbers for absolute-time reporting.
    """

    ratios: list
    median_ratio: float
    best_a: tuple
    best_b: tuple


def interleaved_ratio(run_a, run_b, repeats: int) -> ABEstimate:
    """Alternate ``run_a``/``run_b`` for ``repeats`` rounds.

    Both runners return ``(elapsed_seconds, payload)`` — wrap plain
    callables with :func:`timed`.  The two sides run back to back inside
    every round, so machine drift cancels in each ratio instead of
    biasing whichever side ran later.
    """
    if repeats < 1:
        raise ValueError("need at least one round")
    best_a = best_b = None
    ratios = []
    for _ in range(repeats):
        timed_a = run_a()
        timed_b = run_b()
        ratios.append(timed_a[0] / timed_b[0])
        if best_a is None or timed_a[0] < best_a[0]:
            best_a = timed_a
        if best_b is None or timed_b[0] < best_b[0]:
            best_b = timed_b
    return ABEstimate(
        ratios=ratios,
        median_ratio=median(ratios),
        best_a=best_a,
        best_b=best_b,
    )
