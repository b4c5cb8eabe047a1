"""repro.serve — the concurrent query service.

Sessions, admission control, and a morsel-interleaving scheduler over
shared VM workers, with always-on workload profiling: the tag register
carries a (query-id, component-tag) pair so every PMU sample attributes
to the right query *and* operator even with many queries in flight.
"""

from repro.serve.errors import (
    CANCELLED,
    COMPILE_ERROR,
    EXEC_ERROR,
    INSTRUCTION_LIMIT,
    QUEUE_FULL,
    SESSION_CLOSED,
    SHARD_FAILED,
    TENANT_QUOTA,
    TIMEOUT,
    ServiceError,
)
from repro.serve.profiler import ContinuousProfiler, ProfileSnapshot
from repro.serve.service import (
    SERVE_PERIOD_CYCLES,
    QueryService,
    ServiceConfig,
    ServiceResult,
)
from repro.serve.session import Session, SessionManager
from repro.serve.workload import (
    SYNTHETIC_TEMPLATES,
    WorkloadItem,
    WorkloadSummary,
    load_workload,
    run_workload,
    synthetic_workload,
)

__all__ = [
    "CANCELLED",
    "COMPILE_ERROR",
    "EXEC_ERROR",
    "INSTRUCTION_LIMIT",
    "QUEUE_FULL",
    "SESSION_CLOSED",
    "SHARD_FAILED",
    "TENANT_QUOTA",
    "TIMEOUT",
    "SERVE_PERIOD_CYCLES",
    "SYNTHETIC_TEMPLATES",
    "ContinuousProfiler",
    "ProfileSnapshot",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "ServiceResult",
    "Session",
    "SessionManager",
    "WorkloadItem",
    "WorkloadSummary",
    "load_workload",
    "run_workload",
    "synthetic_workload",
]
