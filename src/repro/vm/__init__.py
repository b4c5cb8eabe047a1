"""Simulated execution substrate: a cycle-accounted register machine.

This package stands in for the real x86 CPU + Linux perf/PEBS stack the paper
profiles on.  It provides:

- :mod:`repro.vm.memory` — flat 64-bit-word memory with a bump allocator,
- :mod:`repro.vm.isa` — the native instruction set the backend targets,
- :mod:`repro.vm.cache` — a set-associative cache hierarchy for load costs,
- :mod:`repro.vm.branch` — a 2-bit branch predictor,
- :mod:`repro.vm.machine` — the interpreter with cycle accounting,
- :mod:`repro.vm.translate` — basic-block translation for the fast engine,
- :mod:`repro.vm.tiering` — the tier-2 promotion policy,
- :mod:`repro.vm.pmu` — the PEBS-like sampling unit,
- :mod:`repro.vm.kernel` — "syscalls" executing in a kernel code region,
- :mod:`repro.vm.costs` — every calibration constant in one place.
"""

from repro.vm.isa import CodeRegion, FunctionInfo, Opcode, Program
from repro.vm.kernel import Kernel
from repro.vm.machine import Machine, MachineState
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig, Sample, SampleBuffer
from repro.vm.tiering import TieringController
from repro.vm.translate import Translation, translation_for

__all__ = [
    "TieringController",
    "CodeRegion",
    "Event",
    "FunctionInfo",
    "Kernel",
    "Machine",
    "MachineState",
    "Memory",
    "Opcode",
    "PmuConfig",
    "Program",
    "Sample",
    "SampleBuffer",
    "Translation",
    "translation_for",
]
