"""Per-query execution state: a compiled query sliced into morsel units.

The engine runs a query's pipelines in one synchronous sweep
(``Database._run_pipelines``); the service instead unrolls the same sweep
into discrete *units* — setup, per-pipeline prepare, and morsel calls —
that the scheduler interleaves across queries on the shared workers.
Phase ordering within a query is preserved by a lazy barrier: the
execution records the simulated completion time of each phase
(``ready_tsc``), and a worker picking up the next phase's unit first
advances its clock to it, exactly as a real worker would wait.

Per-query counters (instructions, loads, stores, tuple counters, rows)
are accumulated from per-unit deltas of the shared worker state.  They
are *interleaving-invariant*: a morsel executes the same instruction
sequence no matter which worker runs it or what ran before, because the
only state it reads is the table data and this query's own state block.
Cycles and sample counts are **not** invariant (the cache hierarchy and
branch predictor are shared across queries by design) — the differential
oracle compares only the invariant set.
"""

from __future__ import annotations

from repro.pipeline.tasks import Pipeline
from repro.serve.errors import ServiceError
from repro.vm.pmu import Sample

# unit kinds
SETUP = "setup"
PREPARE = "prepare"
MORSEL = "morsel"

# execution statuses
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class Unit:
    """One schedulable piece of a query: a single function call."""

    __slots__ = ("kind", "pipeline", "morsel", "lo", "hi")

    def __init__(self, kind, pipeline=-1, morsel=-1, lo=0, hi=0):
        self.kind = kind
        self.pipeline = pipeline
        self.morsel = morsel
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        if self.kind == MORSEL:
            return (
                f"<Unit morsel p{self.pipeline}#{self.morsel} "
                f"[{self.lo}:{self.hi})>"
            )
        return f"<Unit {self.kind} p{self.pipeline}>"


class QueryExecution:
    """One admitted query's in-flight state."""

    def __init__(
        self,
        query_id: int,
        request,
        compiled,
        state_addr: int,
        admit_tsc: int,
        morsel_size: int,
    ):
        self.query_id = query_id
        self.request = request
        self.compiled = compiled
        self.state_addr = state_addr
        self.admit_tsc = admit_tsc
        self.morsel_size = morsel_size
        self.ready_tsc = admit_tsc
        self.deadline_tsc = (
            admit_tsc + request.timeout_cycles
            if request.timeout_cycles is not None
            else None
        )
        self.budget_left = request.max_instructions
        # worker index -> this query's Machine on that worker
        self.machines: dict[int, object] = {}
        # the plan's Translation.stats() as the latest unit ran (tier,
        # translation cost); None until a unit ran, or at tier 0
        self.ran: dict | None = None
        self.pending: list[Unit] = [Unit(SETUP)]
        self._phase = SETUP
        self._pipeline_pos = -1
        self._phase_units_left = 1
        self._phase_end_tsc = admit_tsc
        self.last_dispatch_step = -1
        # interleaving-invariant per-query counters
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        # busy (not invariant: shared caches/predictor) — reporting only
        self.busy_cycles = 0
        self.samples: list[tuple[int, Sample]] = []
        self.raw_morsels: list[tuple[int, int, list]] = []
        self.rows: list[tuple] | None = None
        self.task_counts: dict[int, int] = {}
        self.status = RUNNING
        self.error: ServiceError | None = None
        self.completed_tsc: int | None = None

    # -- scheduling interface -----------------------------------------------

    @property
    def priority(self) -> int:
        return self.request.priority

    @property
    def done(self) -> bool:
        return self.status != RUNNING

    def unit_entry(self, unit: Unit) -> tuple[int, tuple]:
        """The (entry ip, args) for one unit's function call."""
        query = self.compiled.query
        if unit.kind == SETUP:
            return query["query_setup"].info.start, (self.state_addr,)
        if unit.kind == PREPARE:
            fn = query[f"pipeline_{unit.pipeline}_prepare"]
            return fn.info.start, (self.state_addr,)
        fn = query[f"pipeline_{unit.pipeline}"]
        return fn.info.start, (self.state_addr, unit.lo, unit.hi)

    def unit_finished(self, unit: Unit, end_tsc: int, database) -> None:
        """Advance the phase machine after a unit ran to completion.

        Host execution is serial, so when the current phase's last unit
        finishes we can immediately compute the next pipeline's morsel
        domain (it may read this query's state block, e.g. a buffer
        count) and queue the next units."""
        self._phase_end_tsc = max(self._phase_end_tsc, end_tsc)
        self._phase_units_left -= 1
        if self._phase_units_left > 0:
            return
        # phase complete: the per-query barrier point
        self.ready_tsc = self._phase_end_tsc
        if self._phase == SETUP or self._phase == MORSEL:
            self._enter_pipeline(self._pipeline_pos + 1, database)
        elif self._phase == PREPARE:
            if not self._start_morsels(self._pipeline_pos, database):
                # prepared an empty domain (e.g. zero groups): the
                # pipeline has no morsels, move on or the query hangs
                self._enter_pipeline(self._pipeline_pos + 1, database)

    def _enter_pipeline(self, position: int, database) -> None:
        pipelines = self.compiled.pipelines
        while position < len(pipelines):
            self._pipeline_pos = position
            index = pipelines[position].index
            if f"pipeline_{index}_prepare" in self.compiled.query:
                self._phase = PREPARE
                self.pending = [Unit(PREPARE, pipeline=index)]
                self._phase_units_left = 1
                return
            if self._start_morsels(position, database):
                return
            # empty domain: the pipeline is a no-op, fall through
            position += 1
        self._finish(database)

    def _start_morsels(self, position: int, database) -> bool:
        """Queue the pipeline's morsel units; False if the domain is empty."""
        pipeline = self.compiled.pipelines[position]
        meta = self.compiled.query_ir.meta
        domain = meta.pipeline_domains.get(pipeline.index)
        total = database._domain_total(domain, self.state_addr)
        units = [
            Unit(MORSEL, pipeline=pipeline.index, morsel=i, lo=lo, hi=hi)
            for i, lo, hi in Pipeline.morsels(total, self.morsel_size)
        ]
        if not units:
            self._phase = MORSEL
            self._pipeline_pos = position
            return False
        self._phase = MORSEL
        self._pipeline_pos = position
        self.pending = units
        self._phase_units_left = len(units)
        return True

    def _finish(self, database) -> None:
        """Read tuple counters, decode rows, mark done."""
        self.task_counts = database.read_task_counts(
            self.compiled.query_ir.meta, self.state_addr
        )
        ordered = sorted(self.raw_morsels, key=lambda m: (m[0], m[1]))
        self.rows = database.decode_rows(
            (raw for _, _, raws in ordered for raw in raws),
            self.compiled.physical.columns,
        )
        self.pending = []
        self.status = DONE
        self.completed_tsc = self.ready_tsc

    def fail(self, error: ServiceError, status: str = FAILED) -> None:
        self.pending = []
        self.status = status
        self.error = error
        self.completed_tsc = self._phase_end_tsc

    @property
    def latency_cycles(self) -> int:
        end = (
            self.completed_tsc
            if self.completed_tsc is not None
            else self._phase_end_tsc
        )
        return max(0, end - self.admit_tsc)
