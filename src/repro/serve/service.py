"""The concurrent query service: sessions, admission, shared workers.

``QueryService`` multiplexes many in-flight queries over a fixed pool of
simulated cores.  The host process is single-threaded — concurrency is a
*simulated-time* phenomenon, exactly like the engine's morsel-parallel
workers: the scheduler repeatedly picks the next (query, unit) pair and
the least-loaded worker, and simulated clocks interleave.

Determinism: given the same database, config, and submission sequence,
every scheduling decision is a pure function of simulated clocks and
submission order, so two runs produce bit-identical per-query counters,
rows, and sample streams.  Per-query counters are additionally
*interleaving-invariant* (see :mod:`repro.pipeline.run`), which is
what the differential fuzzer's ``serve-concurrent`` oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import DataType
from repro.engine import ProfilerConfig, ProfilingMode
from repro.errors import InstructionBudgetExceeded, ReproError, VMError
from repro.pipeline.run import Unit
from repro.serve.admission import AdmissionController, QueryRequest
from repro.serve.errors import (
    CANCELLED,
    COMPILE_ERROR,
    EXEC_ERROR,
    INSTRUCTION_LIMIT,
    SESSION_CLOSED,
    TIMEOUT,
    ServiceError,
)
from repro.serve.execution import (
    CANCELLED as EXEC_CANCELLED,
    DONE,
    FAILED,
    QueryExecution,
)
from repro.serve.profiler import ContinuousProfiler
from repro.serve.session import Session, SessionManager
from repro.serve.workers import Worker
from repro.vm.machine import Machine
from repro.vm.pmu import Event

# the service's default sampling period: coarse enough that always-on
# profiling stays well inside the paper-style 15% throughput budget
# while a steady workload still collects hundreds of samples per second
SERVE_PERIOD_CYCLES = 100_000


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the concurrent query service."""

    workers: int = 4
    max_inflight: int = 8
    max_queue: int = 32
    morsel_size: int = 256
    profiling: bool = True
    period: int = SERVE_PERIOD_CYCLES
    event: Event = Event.CYCLES
    fast_vm: bool = True
    seed: int = 0
    # adaptive tiered execution (repro.vm.tiering): a hot plan's
    # translation promotes itself to profile-specialized tier-2 traces
    # between units, i.e. at morsel boundaries, for every query sharing
    # the plan.  Pure wall-clock: tier choice never changes rows,
    # counters, or sample streams.
    tiering: bool = True
    # hotness threshold override for the controller; None keeps the
    # default (costs.TIER2_HOT_INSTRUCTIONS).  Tests and the fuzz oracle
    # set a floor-level value so promotion happens inside short workloads.
    tiering_hot_instructions: int | None = None


@dataclass
class ServiceResult:
    """What a client gets back for one ticket."""

    ticket: int
    query_id: int
    session: str
    sql: str
    status: str  # "ok" | "failed" | "cancelled"
    columns: list[str] = field(default_factory=list)
    dtypes: list[DataType] = field(default_factory=list)  # of ``columns``
    rows: list[tuple] | None = None
    error: ServiceError | None = None
    # interleaving-invariant per-query counters
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    task_counts: dict[int, int] = field(default_factory=dict)
    # simulated-time metrics (deterministic, but interleaving-dependent)
    latency_cycles: int = 0
    busy_cycles: int = 0
    samples: int = 0
    # the tier the query's last unit ran at (its highest: tiers only
    # rise) and the record it is read from, the plan's Translation.stats
    # as that unit left them (None at tier 0)
    tier: int = 0
    translation: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def error_code(self) -> str | None:
        return self.error.code if self.error is not None else None


class QueryService:
    """Admission-controlled concurrent execution over shared VM workers."""

    def __init__(self, database, config: ServiceConfig | None = None,
                 pgo_store=None):
        self.db = database
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ReproError("service needs at least one worker")
        self.workers = [Worker(i) for i in range(self.config.workers)]
        self.sessions = SessionManager(self, seed=self.config.seed)
        self.admission = AdmissionController(max_queue=self.config.max_queue)
        self.pgo_store = pgo_store
        if self.config.profiling:
            self._profiler_config = ProfilerConfig(
                mode=ProfilingMode.REGISTER_TAGGING,
                event=self.config.event,
                period=self.config.period,
                count_tuples=pgo_store is not None,
            )
            self.profiler = ContinuousProfiler(
                database, self._profiler_config, pgo_store=pgo_store
            )
        else:
            self._profiler_config = None
            self.profiler = None
        if self.config.tiering and self.config.fast_vm:
            from repro.vm.tiering import TieringController

            self.tiering = TieringController(
                hot_instructions=self.config.tiering_hot_instructions
            )
        else:
            self.tiering = None
        self.inflight: dict[int, QueryExecution] = {}
        self.results: dict[int, ServiceResult] = {}
        self._order: list[ServiceResult] = []
        self._tickets = 0
        self._query_ids = 0
        self._step = 0
        # execution epoch: a bump-allocator mark over run-time memory,
        # taken at the idle->busy transition, released at quiesce
        self._epoch_mark: int | None = None
        self.epochs = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    # -- client API ---------------------------------------------------------

    def session(self, name: str, seed: int | None = None) -> Session:
        return self.sessions.open(name, seed)

    def submit(
        self,
        sql: str,
        session: Session | str | None = None,
        priority: int = 0,
        timeout_cycles: int | None = None,
        max_instructions: int | None = None,
    ) -> int:
        """Queue a query; returns its ticket.

        Raises :class:`ServiceError` with code ``QUEUE_FULL`` when the
        admission queue sheds the request."""
        if session is None:
            session = self.sessions.open("default")
        elif isinstance(session, str):
            session = self.sessions.open(session)
        if session.closed:
            raise ServiceError(
                SESSION_CLOSED, f"session {session.name!r} is closed"
            )
        self._tickets += 1
        request = QueryRequest(
            ticket=self._tickets,
            sql=sql,
            session=session.name,
            priority=priority,
            timeout_cycles=timeout_cycles,
            max_instructions=max_instructions,
        )
        self.admission.offer(request)  # may shed with QUEUE_FULL
        session.tickets.append(request.ticket)
        return request.ticket

    def cancel(self, ticket: int) -> bool:
        """Cancel a queued or in-flight query; False if already finished."""
        if ticket in self.results:
            return False
        request = self.admission.cancel(ticket)
        if request is not None:
            self._record_refused(request, "cancelled", ServiceError(
                CANCELLED, f"query {ticket} cancelled while queued"
            ))
            return True
        for execution in self.inflight.values():
            if execution.request.ticket == ticket and not execution.done:
                execution.fail(
                    ServiceError(CANCELLED, f"query {ticket} cancelled"),
                    status=EXEC_CANCELLED,
                )
                self._finalize(execution)
                return True
        return False

    def result(self, ticket: int) -> ServiceResult | None:
        return self.results.get(ticket)

    def warm(self, sqls) -> int:
        """Pre-compile templates into the plan cache, so their first
        submission does not pay for lowering at admission.  It only moves
        compile time — a plan lives in the cache the same whether warmed
        or compiled at admission.  Returns the number of plans compiled."""
        before = self.db.plan_cache.misses
        for sql in sqls:
            self._compile(sql)
        return self.db.plan_cache.misses - before

    def drain(self) -> list[ServiceResult]:
        """Run until queue and in-flight set are empty; quiesce afterwards.

        Returns the results finalized during this call, in completion
        order."""
        order_before = len(self._order)
        while True:
            self._admit()
            runnable = [
                e for e in self.inflight.values() if not e.done and e.pending
            ]
            if not runnable:
                if self.admission.empty():
                    break
                continue
            execution = min(
                runnable,
                key=lambda e: (
                    -e.request.priority, e.last_dispatch_step, e.query_id
                ),
            )
            unit = execution.pending.pop(0)
            self._step += 1
            execution.last_dispatch_step = self._step
            self._dispatch(execution, unit)
        self._quiesce()
        return self._order[order_before:]

    def stats(self) -> dict:
        out = {
            "submitted": self._tickets,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "shed": self.admission.shed,
            "epochs": self.epochs,
            "workers": len(self.workers),
            "worker_cycles": [w.state.cycles for w in self.workers],
            "context_switches": sum(w.context_switches for w in self.workers),
            "plan_cache": self.db.plan_cache.stats(),
        }
        if self.profiler is not None:
            out["samples"] = self.profiler.total.samples
            out["tag_accuracy"] = self.profiler.total.accuracy
        if self.tiering is not None:
            out["tiering"] = self.tiering.stats()
        return out

    def profile_snapshot(self):
        """Detached copy of the continuous profiler's rolling aggregate
        (:class:`repro.serve.profiler.ProfileSnapshot`), or ``None`` when
        profiling is off.  This is the supported way to read the
        profiler's numbers — the fleet merger and the tests both use it
        instead of poking :class:`ContinuousProfiler` internals."""
        if self.profiler is None:
            return None
        return self.profiler.profile_snapshot()

    # -- scheduling internals ------------------------------------------------

    def _compile(self, sql: str):
        return self.db.compiled_for(
            sql,
            profiler=self._profiler_config,
            qualify_tags=self._profiler_config is not None,
            count_tuples=(
                self._profiler_config.count_tuples
                if self._profiler_config is not None
                else False
            ),
        )

    def _ensure_epoch(self) -> None:
        if self._epoch_mark is None:
            self._epoch_mark = self.db.memory.mark()
            self.epochs += 1

    def _admit(self) -> None:
        while len(self.inflight) < self.config.max_inflight:
            request = self.admission.poll()
            if request is None:
                return
            self._ensure_epoch()
            try:
                compiled = self._compile(request.sql)
            except ServiceError:
                raise
            except ReproError as exc:
                self._record_refused(
                    request, "failed", ServiceError(COMPILE_ERROR, str(exc))
                )
                continue
            self._query_ids += 1
            execution = QueryExecution(
                query_id=self._query_ids,
                request=request,
                database=self.db,
                compiled=compiled,
                state_addr=self.db.memory.alloc(
                    compiled.query_ir.state.size_bytes, "serve_state"
                ),
                admit_tsc=min(w.state.cycles for w in self.workers),
                morsel_size=self.config.morsel_size,
            )
            self.inflight[execution.query_id] = execution

    def _dispatch(self, execution: QueryExecution, unit: Unit) -> None:
        worker = min(self.workers, key=lambda w: (w.state.cycles, w.index))
        # lazy per-query barrier: wait (in simulated time) for the
        # query's previous phase before starting this unit
        worker.state.cycles = max(worker.state.cycles, execution.ready_tsc)
        if (
            execution.deadline_tsc is not None
            and worker.state.cycles > execution.deadline_tsc
        ):
            execution.fail(ServiceError(
                TIMEOUT,
                f"query {execution.request.ticket} exceeded "
                f"{execution.request.timeout_cycles} cycles before {unit!r}",
            ))
            self._finalize(execution)
            return

        machine = execution.machines.get(worker.index)
        if machine is None:
            pmu = (
                self._profiler_config.pmu_config()
                if self._profiler_config is not None
                else None
            )
            machine = Machine(
                execution.compiled.program,
                self.db.memory,
                pmu_config=pmu,
                kernel=execution.compiled.kernel,
                fast_vm=self.config.fast_vm,
                tiering=self.tiering,
            )
        worker.bind(machine)
        if self._profiler_config is not None:
            # install the query-id half of the tag pair; compiled code
            # only ever rewrites the task half (qualify_tags)
            machine.set_query_tag(execution.query_id)

        state = worker.state
        start_instructions = state.instructions
        saved_budget = state.max_instructions
        if execution.budget_left is not None:
            state.max_instructions = state.instructions + execution.budget_left
        error: ServiceError | None = None
        try:
            execution.step(unit, worker.index, machine)
        except VMError as exc:
            if isinstance(exc, InstructionBudgetExceeded):
                error = ServiceError(
                    INSTRUCTION_LIMIT,
                    f"query {execution.request.ticket} exceeded its "
                    f"instruction budget",
                )
            else:
                error = ServiceError(EXEC_ERROR, str(exc))
            # the aborted call leaves a dangling frame on this machine's
            # private call stack; the machine is never reused after fail
            machine.call_stack.clear()
        finally:
            state.max_instructions = saved_budget
        worker.units_run += 1

        used = state.instructions - start_instructions
        if self.tiering is not None:
            self.tiering.observe(machine, used)
        if execution.budget_left is not None:
            execution.budget_left = max(0, execution.budget_left - used)
        # the run took its copy: what the shared buffer holds is exactly
        # this unit's samples, and nothing reads them from it afterwards
        new_samples = worker.samples.samples
        if self.profiler is not None and new_samples:
            self.profiler.observe_unit(execution.query_id, new_samples)
        new_samples.clear()

        if error is not None:
            execution.fail(error)
            self._finalize(execution)
            return
        if (
            execution.deadline_tsc is not None
            and state.cycles > execution.deadline_tsc
        ):
            execution.fail(ServiceError(
                TIMEOUT,
                f"query {execution.request.ticket} exceeded "
                f"{execution.request.timeout_cycles} cycles",
            ))
            self._finalize(execution)
            return
        try:
            execution.unit_finished(state.cycles)
        except (ValueError, ArithmeticError) as exc:
            # finishing the run failed on the host side (a max(date) over
            # no rows decodes ordinal 0): this ticket fails, not the drain
            execution.fail(ServiceError(EXEC_ERROR, str(exc)))
        if execution.done:
            self._finalize(execution)

    def _finalize(self, execution: QueryExecution) -> None:
        request = execution.request
        status = {
            DONE: "ok", FAILED: "failed", EXEC_CANCELLED: "cancelled",
        }[execution.status]
        output = execution.compiled.physical.columns
        ran = execution.ran  # None when refused before it ran, or tier 0
        result = ServiceResult(
            ticket=request.ticket,
            query_id=execution.query_id,
            session=request.session,
            sql=request.sql,
            status=status,
            columns=[name for name, _ in output],
            dtypes=[iu.dtype for _, iu in output],
            rows=execution.rows,
            error=execution.error,
            instructions=execution.instructions,
            loads=execution.loads,
            stores=execution.stores,
            task_counts=dict(execution.task_counts),
            latency_cycles=execution.cycles,
            busy_cycles=execution.busy_cycles,
            samples=len(execution.samples),
            tier=ran["tier"] if ran else 0,
            translation=ran,
        )
        self.inflight.pop(execution.query_id, None)
        self._deliver(result)
        if result.ok and self.profiler is not None:
            self.profiler.complete_query(execution)

    def _record_refused(
        self, request: QueryRequest, status: str, error: ServiceError
    ) -> None:
        """The result of a request that never became an execution."""
        self._deliver(ServiceResult(
            ticket=request.ticket,
            query_id=0,
            session=request.session,
            sql=request.sql,
            status=status,
            error=error,
        ))

    def _deliver(self, result: ServiceResult) -> None:
        self.results[result.ticket] = result
        self._order.append(result)
        if result.ok:
            self.completed += 1
        elif result.status == "cancelled":
            self.cancelled += 1
        else:
            self.failed += 1

    def _quiesce(self) -> None:
        """Tear down the execution epoch once fully drained.

        Worker machines hold stacks inside epoch memory, so they are
        dropped (the PMU cursor survives in the worker).  An epoch is
        run-time memory only: every plan stays cached."""
        if self._epoch_mark is None:
            return
        if self.inflight or not self.admission.empty():
            return
        for worker in self.workers:
            worker.unbind()
        self.db.memory.release(self._epoch_mark)
        self._epoch_mark = None
