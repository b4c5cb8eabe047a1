"""Tailored Profiling for compiling dataflow systems.

Reproduction of Beischl et al., *Profiling Dataflow Systems on Multiple
Abstraction Levels* (EuroSys '21): a compiling relational dataflow engine
(SQL -> plan -> pipelines -> SSA IR -> simulated native code) instrumented
with the paper's Tagging Dictionary, Abstraction Trackers, and Register
Tagging, profiled by a PEBS-like sampling PMU on a cycle-accounted simulated
CPU.

Quickstart::

    from repro import Database, ExecOptions, ProfilerConfig

    db = Database.tpch(scale=0.001)
    profile = db.profile("select l_returnflag, count(*) c from lineitem "
                         "group by l_returnflag order by l_returnflag")
    print(profile.annotated_plan())

Every run knob (workers, join-order hints, PGO, ...) is a field of one
frozen :class:`ExecOptions`: ``db.execute(sql, ExecOptions(workers=4))``,
``db.profile(sql, config, ExecOptions(repeats=3))``.
"""

from repro.catalog import Column, DataType, Schema
from repro.engine import (
    Database, ExecOptions, ProfilerConfig, ProfilingMode, QueryResult,
)
from repro.plan.physical import PlannerOptions
from repro.vm.pmu import Event

__version__ = "1.0.0"

__all__ = [
    "Column",
    "DataType",
    "Database",
    "Event",
    "ExecOptions",
    "PlannerOptions",
    "ProfilerConfig",
    "ProfilingMode",
    "QueryResult",
    "Schema",
    "__version__",
]
