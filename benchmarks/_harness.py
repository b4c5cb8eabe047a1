"""What the ``bench_*.py`` scripts share: the scale and seed they measure
at, their report tables, timing and ratio primitives, and the
``BENCH_*.json`` trajectory files (append-only lists of run records that
CI uploads for trend inspection).

Shared-runner noise has two shapes: slow *drift* (a neighbour spins up,
the CPU throttles) and transient *spikes* (a scheduler stall).  Best-of-N
timings taken on independent sides misalign both, so
:func:`interleaved_ratio` alternates the two configurations within every
round and reduces the per-round ratios with the *median*: drift hits both
sides of one division equally, and the median discards rounds where a
spike hit one side.  ``bench_serve`` gates profiling overhead on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Scale factors chosen so the whole harness runs in a few minutes on a
# laptop while still giving every query non-trivial work.
BENCH_SCALE = 0.001
BENCH_SEED = 42

RESULTS_DIR = Path(__file__).parent / "results"
#: (title, table) of every ``report`` call; the conftest prints them
REPORTS: list[tuple[str, str]] = []


def report(title: str, text: str) -> None:
    """Register one experiment's output table (also written under
    ``benchmarks/results/``)."""
    REPORTS.append((title, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")[:60]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")


def trajectory_path(name: str) -> Path:
    """Where the ``name`` trajectory (``BENCH_<name>.json``) lives: the
    repository root."""
    return Path(__file__).resolve().parent.parent / f"BENCH_{name}.json"


def read_trajectory(path: str | Path) -> list[dict]:
    """The run records of a trajectory file ([] before the first run);
    ``ValueError`` when it holds no list of them, left as it is."""
    path = Path(path)
    try:
        history = json.loads(path.read_text()) if path.exists() else []
    except (OSError, ValueError) as error:
        raise ValueError(f"{path} is no trajectory: {error}") from None
    if not isinstance(history, list):
        raise ValueError(f"{path} holds no list of run records")
    return history


def append_trajectory(record: dict, path: str | Path) -> list[dict]:
    """Append one run record, numbered ``run``, to a trajectory file."""
    history = read_trajectory(path)
    history.append(dict(record, run=len(history)))
    Path(path).write_text(json.dumps(history, indent=1) + "\n")
    return history


def timed(fn):
    """Run ``fn`` and return ``(elapsed_seconds, payload)``."""
    started = perf_counter()
    payload = fn()
    return perf_counter() - started, payload


def best_of(fn, repeats: int):
    """The fastest of ``repeats`` :func:`timed` calls of ``fn``."""
    return min((timed(fn) for _ in range(repeats)), key=lambda run: run[0])


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
