"""The host clock: wall seconds, corrected for the speed of the machine.

On the shared two-core hosts this suite runs on, the same pure-Python
loop takes anywhere between 13 and 24 ms from one second to the next
(measured while sizing the suite), so raw wall time of identical work
spreads by +-20% between runs.  Every timed region is therefore
bracketed by short calibration spins: the region's duration is scaled
by ``REF_SPIN_S / <mean spin time around it>``.  The result reads as
"seconds on a host that runs the spin in REF_SPIN_S"; the raw duration
and the speed factor are kept beside it.

The spin is a fixed arithmetic loop in this file, so nothing outside
the suite can change what one calibrated second means.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

SPIN_ITERATIONS = 50_000
SPINS_PER_PROBE = 4
#: what one spin takes on the sizing host in its common state; only a
#: scale factor, chosen so calibrated and raw seconds agree there
REF_SPIN_S = 0.0027
#: a probe taken this recently is shared by the next region
PROBE_REUSE_S = 0.002

SETUP = "setup"
TIMED = "timed"


def _spin() -> int:
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i % 7
    return acc


@dataclass
class Region:
    """One timed region: an op, a set-up stage, or a block of tiny ops."""

    label: str
    phase: str
    index: int  # pass number for timed regions, stage number otherwise
    start: float = 0.0
    end: float = 0.0
    speed: float = 1.0  # REF_SPIN_S / local spin time
    # raw durations of sub-operations timed inside the region (blocks of
    # ops too short to calibrate one by one)
    sub: list[float] = field(default_factory=list)

    @property
    def raw_s(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return self.raw_s * self.speed


class HostClock:
    """Times regions one at a time and keeps every record in memory."""

    def __init__(self, tracer=None):
        self.regions: list[Region] = []
        self.tracer = tracer
        self._probe_value = 0.0
        self._probe_end = -1.0

    def _probe(self) -> float:
        if perf_counter() - self._probe_end > PROBE_REUSE_S:
            total = 0.0
            for _ in range(SPINS_PER_PROBE):
                started = perf_counter()
                _spin()
                total += perf_counter() - started
            self._probe_value = total / SPINS_PER_PROBE
            self._probe_end = perf_counter()
        return self._probe_value

    @contextmanager
    def region(self, label: str, phase: str, index: int = 0):
        before = self._probe()
        region = Region(label, phase, index)
        if self.tracer is not None:
            self.tracer.open_root(region)
        region.start = perf_counter()
        try:
            yield region
        finally:
            region.end = perf_counter()
            if self.tracer is not None:
                self.tracer.close_root(region)
            self._probe_end = -1.0  # never reuse a probe across a region
            after = self._probe()
            region.speed = REF_SPIN_S / ((before + after) / 2)
            self.regions.append(region)

    def phase_seconds(self, phase: str) -> float:
        return sum(r.seconds for r in self.regions if r.phase == phase)

    def speeds(self) -> list[float]:
        return [r.speed for r in self.regions]
