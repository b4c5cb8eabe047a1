"""Per-query execution state: a plan run on behalf of a request.

The units a query is made of, their order and the record of what they
did are :class:`~repro.pipeline.run.PlanRun`'s — the same machine
``Database._run_compiled`` drives.  What the service adds is everything
about the *request*: its ticket and priority (which query the scheduler
picks next), its deadline and instruction budget (when the service stops
it), and how it ended.
"""

from __future__ import annotations

from repro.pipeline.run import PlanRun
from repro.serve.errors import ServiceError

# execution statuses
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class QueryExecution(PlanRun):
    """One admitted query's in-flight state."""

    def __init__(
        self,
        query_id: int,
        request,
        database,
        compiled,
        state_addr: int,
        admit_tsc: int,
        morsel_size: int,
    ):
        super().__init__(
            database, compiled, state_addr, morsel_size, start_tsc=admit_tsc
        )
        self.query_id = query_id
        self.request = request
        self.deadline_tsc = (
            admit_tsc + request.timeout_cycles
            if request.timeout_cycles is not None
            else None
        )
        self.budget_left = request.max_instructions
        self.last_dispatch_step = -1
        self.status = RUNNING
        self.error: ServiceError | None = None

    @property
    def done(self) -> bool:
        return self.status != RUNNING

    def _finish(self) -> None:
        super()._finish()
        self.status = DONE

    def fail(self, error: ServiceError, status: str = FAILED) -> None:
        self.pending = []
        self.status = status
        self.error = error
