"""The database engine façade: Umbra-in-miniature plus Tailored Profiling.

``Database`` owns the catalog, the simulated memory holding all column
data, and the compilation stack.  ``execute`` compiles SQL through all
lowering steps and runs it on the simulated machine; ``profile`` does the
same with the PMU armed and returns a :class:`~repro.profiling.profile.Profile`
whose reports are the paper's deliverables.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
from dataclasses import dataclass, field

from repro.backend import BackendOptions, compile_module
from repro.backend.feedback import BackendFeedback
from repro.catalog import Catalog, Schema
from repro.catalog.schema import decode_row
from repro.codegen import (
    build_runtime_module,
    build_syslib_module,
    generate_query_ir,
)
from repro.data import generate_example, generate_tpch
from repro.errors import ReproError
from repro.numbering import lowering
from repro.pipeline import decompose
from repro.pipeline.run import MORSEL, WHOLE_DOMAIN, PlanRun
from repro.plan.cardinality import CardinalityModel
from repro.plancache import PlanCache
from repro.plan.interpret import Interpreter
from repro.plan.physical import (
    PhysicalOutput,
    PlannerOptions,
    explain_physical,
    plan_physical,
)
from repro.profiling.postprocess import SampleProcessor
from repro.profiling.profile import Profile
from repro.profiling.tagging import TaggingDictionary
from repro.sql import parse
from repro.sql.ast import _rewrite_ast_children
from repro.sql.binder import Binder
from repro.storage import StorageConfig, StorageEngine
from repro.vm import CodeRegion, Machine, Memory, Program
from repro.vm.kernel import Kernel, install_kernel_stubs
from repro.vm import costs
from repro.vm.pmu import Event, PmuConfig

_YEAR_TABLE_LO = datetime.date(1970, 1, 1).toordinal()
_YEAR_TABLE_HI = datetime.date(2100, 1, 1).toordinal()


class ProfilingMode(enum.Enum):
    """How shared source locations are disambiguated (§4.2.5)."""

    REGISTER_TAGGING = "register-tagging"
    CALLSTACK = "callstack"
    NONE = "none"  # plain sampling: IP + timestamp only


@dataclass(frozen=True)
class ProfilerConfig:
    """Engine-level profiling configuration.

    ``crosscheck`` records registers *and* call stacks in every sample so
    the two disambiguation mechanisms can be compared sample-by-sample —
    the paper's §6.3 accuracy validation.
    """

    mode: ProfilingMode = ProfilingMode.REGISTER_TAGGING
    event: Event = Event.CYCLES
    period: int = costs.DEFAULT_PERIOD_CYCLES
    record_memaddr: bool = False
    crosscheck: bool = False
    # plant per-task tuple counters in the generated code (PGO feedback);
    # off by default so plain profiling runs are unperturbed
    count_tuples: bool = False

    def __post_init__(self):
        if self.period < 1:
            raise ReproError("sampling period must be >= 1")

    def pmu_config(self) -> PmuConfig:
        register = self.mode is ProfilingMode.REGISTER_TAGGING or self.crosscheck
        callstack = self.mode is ProfilingMode.CALLSTACK or self.crosscheck
        return PmuConfig(
            event=self.event,
            period=self.period,
            record_registers=register,
            record_callstack=callstack,
            record_memaddr=self.record_memaddr,
        )


def _instrumentation(profiler: ProfilerConfig | None) -> tuple[bool, bool]:
    """What a profiler changes in the generated code: whether the tag
    register is reserved (Register Tagging), and whether per-task tuple
    counters are planted."""
    if profiler is None:
        return False, False
    reserve = profiler.mode is ProfilingMode.REGISTER_TAGGING
    return reserve, profiler.count_tuples


@dataclass(frozen=True)
class ExecOptions:
    """How to compile and run a query: the one options value ``execute``,
    ``profile``, the serve tier and the fuzz oracle pass.

    The compile half changes the generated code and keys the plan cache
    (:meth:`compile_key`); ``pgo=True`` lets the feedback store set up by
    :meth:`Database.enable_pgo` steer it.  ``inject_fault`` deliberately
    miscompiles the query region (fuzzer ground truth), so that compile
    never enters the cache and runs on the block interpreter.  The run
    half picks how a compiled plan runs: ``workers`` private cores,
    ``morsel_size`` tuples per dispatch, ``repeats`` runs over one state
    block (§4.2.6), ``instruction_limit`` per worker, and the block
    interpreter with ``fast_vm=False``.  Bad values raise when the options
    are built."""

    # -- compile half
    join_order_hint: tuple[str, ...] | None = None
    planner_options: PlannerOptions | None = None
    optimize_backend: bool = True
    pgo: bool = False
    qualify_tags: bool = False
    inject_fault: str | None = None
    # -- run half
    workers: int = 1
    morsel_size: int = 1024
    repeats: int = 1
    instruction_limit: int | None = None
    fast_vm: bool = True

    def __post_init__(self):
        if self.join_order_hint is not None:
            object.__setattr__(
                self, "join_order_hint", tuple(self.join_order_hint)
            )
        for name in ("workers", "repeats", "morsel_size"):
            if getattr(self, name) < 1:
                raise ReproError(f"{name} must be >= 1")
        if self.inject_fault is not None and self.pgo:
            raise ReproError("inject_fault is not supported with pgo=True")

    def compile_key(self) -> tuple:
        """The compile half that can reach the plan cache (a faulted
        compile never does)."""
        return (
            self.join_order_hint, self.planner_options,
            self.optimize_backend, self.pgo, self.qualify_tags,
        )


@dataclass
class QueryResult:
    """Decoded rows plus execution statistics.

    ``tier`` is the execution tier the run executed at: 0 the pure
    interpreter (fast VM off or auto-disabled), 1 the template-
    translated fast VM, 2 once a compiled root of the plan closed a
    deferred loop.  Benchmarks check it so an auto-disable can never
    silently measure the wrong engine.  ``translation`` is the record
    ``tier`` is read from: the plan's
    :meth:`repro.vm.translate.Translation.stats` as the run left them
    (tier, leaders, blocks compiled, generated lines, host seconds —
    shared by every run of the cached plan); ``None`` at tier 0."""

    columns: list[str]
    rows: list[tuple]
    cycles: int
    instructions: int
    tier: int = 1
    translation: dict | None = None
    # retired memory operations, summed over workers: loads * 8 is the
    # "simulated bytes touched" metric storage benchmarks compare
    loads: int = 0
    stores: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@dataclass
class CompiledQuery:
    """A fully-lowered query, ready to run — and to *re*-run: these are the
    entries of the fingerprint-keyed plan cache, so repeated queries skip
    every lowering step."""

    sql: str
    bound: object
    physical: PhysicalOutput
    pipelines: list
    query_ir: object
    program: object
    kernel: Kernel
    tagging: TaggingDictionary
    query: dict
    runtime: dict
    syslib: dict
    estimates: dict[int, float] = field(default_factory=dict)
    plan_signature: str = ""
    feedback_applied: bool = False


class _QueryEnvironment:
    """Per-query :class:`DataEnvironment`: DB segments + query-local state."""

    def __init__(self, database: "Database", kernel: Kernel):
        self._db = database
        self._kernel = kernel

    def table_storage(self, table_name: str):
        return self._db.storage.table(table_name)

    def year_table(self) -> tuple[int, int]:
        return self._db._year_table_addr, _YEAR_TABLE_LO

    def register_sort(self, descriptor) -> int:
        return self._kernel.register_sort(descriptor)


class Database:
    """A single-node, in-memory, compiling relational database."""

    def __init__(
        self, storage: StorageConfig | None = None, dictionary=None
    ):
        self.catalog = Catalog(dictionary)  # shared by a fleet's shards
        self.memory = Memory()
        self.storage_config = storage or StorageConfig()
        self.storage: StorageEngine | None = None  # built by finalize()
        self._year_table_addr = 0
        # the profile-guided-optimization feedback store (see enable_pgo)
        # and the engine-level LRU plan cache shared by plain execute, the
        # PGO path, and every serve session (repro.plancache)
        self.pgo_store = None
        self.plan_cache = PlanCache()

    @property
    def plan_cache_hits(self) -> int:
        return self.plan_cache.hits

    @property
    def plan_cache_misses(self) -> int:
        return self.plan_cache.misses

    # -- construction -------------------------------------------------------

    @classmethod
    def tpch(
        cls,
        scale: float = 0.001,
        seed: int = 42,
        storage: StorageConfig | None = None,
    ) -> "Database":
        db = cls(storage=storage)
        generate_tpch(db.catalog, scale=scale, seed=seed)
        db.finalize()
        return db

    @classmethod
    def example(
        cls,
        n_sales: int = 5000,
        n_products: int = 200,
        storage: StorageConfig | None = None,
    ) -> "Database":
        db = cls(storage=storage)
        generate_example(db.catalog, n_sales=n_sales, n_products=n_products)
        db.finalize()
        return db

    def create_table(self, name: str, schema: Schema):
        return self.catalog.create_table(name, schema)

    def finalize(self) -> None:
        """Freeze the dictionary, encode tables, build the physical layout.

        The storage engine owns the layout of every table: sharded,
        segment-encoded columns behind per-column directories (see
        repro.storage).  Columns whose encoding stayed plain remain one
        contiguous array (``plain_addr``), which codegen's single-loop
        fast path scans directly."""
        self.catalog.finalize()
        self.storage = StorageEngine.build(
            self.catalog, self.memory, self.storage_config
        )
        self._build_year_table()

    def _build_year_table(self) -> None:
        entries = _YEAR_TABLE_HI - _YEAR_TABLE_LO
        addr = self.memory.alloc(entries * 8, "year_table")
        base = addr // 8
        year = 1970
        next_boundary = datetime.date(year + 1, 1, 1).toordinal()
        for i in range(entries):
            ordinal = _YEAR_TABLE_LO + i
            if ordinal >= next_boundary:
                year += 1
                next_boundary = datetime.date(year + 1, 1, 1).toordinal()
            self.memory.words[base + i] = year
        self._year_table_addr = addr

    # -- planning helpers ------------------------------------------------------

    @lowering()
    def _plan(
        self, sql: str, options: ExecOptions | None = None, model=None
    ):
        """``sql`` bound and planned under ``options``' join-order hint
        and planner options: the ``(bound, physical)`` pair."""
        options = options or ExecOptions()
        stmt = parse(sql)
        self._inline_scalar_subqueries(stmt)
        bound = Binder(self.catalog).bind(
            stmt, options.join_order_hint, model=model
        )
        physical = plan_physical(
            bound.plan, bound.model, options.planner_options
        )
        return bound, physical

    def _inline_scalar_subqueries(self, stmt, depth: int = 0) -> None:
        """Evaluate uncorrelated scalar subqueries and inline their values.

        The classic strategy for uncorrelated scalar subqueries: run them
        first (through the full compiled pipeline), then substitute the
        single value as a literal.  Nested scalar subqueries recurse.
        """
        from repro.sql import ast as sql_ast

        if depth > 8:
            raise ReproError("scalar subqueries nested too deeply")

        def rewrite(node):
            if isinstance(node, sql_ast.ScalarSubquery):
                return sql_ast_literal(self._evaluate_scalar(node.subquery, depth))
            if isinstance(node, (sql_ast.Exists, sql_ast.InSubquery)):
                self._inline_scalar_subqueries(node.subquery, depth + 1)
                return node
            return _rewrite_ast_children(node, rewrite)

        def sql_ast_literal(value):
            if isinstance(value, bool):
                return sql_ast.NumberLit(int(value))
            if isinstance(value, (int, float)):
                return sql_ast.NumberLit(value)
            if isinstance(value, str):
                # dates decode to ISO text; tell them apart from strings
                import re

                if re.fullmatch(r"\d{4}-\d{2}-\d{2}", value):
                    return sql_ast.DateLit(value)
                return sql_ast.StringLit(value)
            raise ReproError(f"cannot inline scalar value {value!r}")

        for ref in stmt.tables:
            if ref.subquery is not None:
                self._inline_scalar_subqueries(ref.subquery, depth + 1)
        for item in stmt.items:
            object.__setattr__(item, "expr", rewrite(item.expr))
        if stmt.where is not None:
            stmt.where = rewrite(stmt.where)
        stmt.group_by = [rewrite(node) for node in stmt.group_by]
        if stmt.having is not None:
            stmt.having = rewrite(stmt.having)
        for order in stmt.order_by:
            object.__setattr__(order, "expr", rewrite(order.expr))

    @lowering()
    def _evaluate_scalar(self, substmt, depth: int):
        self._inline_scalar_subqueries(substmt, depth + 1)
        bound = Binder(self.catalog).bind(substmt)
        physical = plan_physical(bound.plan, bound.model)
        rows = self._run_compiled(
            self._compile("", None, prebuilt=(bound, physical))
        ).rows
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ReproError(
                "a scalar subquery must return exactly one value "
                f"(got {len(rows)} rows)"
            )
        return rows[0][0]

    @staticmethod
    def _physical_estimates(bound, physical, *models) -> dict[int, float]:
        """Row estimates by physical op id: the largest of ``bound.model``'s
        and ``models``'."""
        logical_by_id = {node.op_id: node for node in bound.plan.walk()}
        return {
            op.op_id: max(
                model.estimate(logical_by_id[op.logical_id])
                for model in (bound.model, *models)
            )
            for op in physical.walk() if op.logical_id in logical_by_id
        }

    # -- compilation + execution ------------------------------------------------

    @lowering()
    def _compile(
        self, sql: str, profiler: ProfilerConfig | None,
        options: ExecOptions = ExecOptions(), prebuilt=None, feedback=None,
    ) -> CompiledQuery:
        """Lower a query through every step, down to placed native code.

        ``options``' compile half and what ``profiler`` instruments shape
        the code; ``prebuilt`` is a ``(bound, physical)`` pair a frontend
        other than SQL built.  ``feedback`` is a
        :class:`~repro.pgo.feedback.QueryFeedback` whose observed
        cardinalities build the cardinality model and whose branch /
        hotness statistics reach the backend when the planned shape matches
        the profiled one.  The result is pure code: compiling allocates no
        simulated memory (the plan's constants are part of its state
        layout, see :meth:`_zero_state`).
        """
        from repro.pgo.fingerprint import plan_signature

        if self.storage is None:
            raise ReproError("database not finalized; call finalize() first")
        reserve, count_tuples = _instrumentation(profiler)
        cardinality_feedback = False
        if prebuilt is not None:
            # a frontend other than SQL (e.g. the streaming DSL) built the
            # plan itself: (model, physical root)
            bound, physical = prebuilt
        else:
            model = None
            if feedback is not None and feedback.cardinalities:
                from repro.pgo.model import FeedbackCardinalityModel

                model = FeedbackCardinalityModel(
                    feedback.cardinality_overrides()
                )
                cardinality_feedback = True
            bound, physical = self._plan(sql, options, model)

        tagging = TaggingDictionary()
        # the storage dimension: sampled memory addresses resolve to
        # (table, column, shard, segment, encoding)
        tagging.storage_resolver = self.storage.resolve
        pipelines = decompose(physical, on_task=tagging.register_task)

        program = Program()
        kernel = Kernel(self.memory, install_kernel_stubs(program))
        env = _QueryEnvironment(self, kernel)

        # observed cardinalities steer join *ordering*, but hash tables are
        # never sized below the model's a-priori guess: shrinking the
        # directory makes probe-heavy joins scan fuller buckets, while
        # growing it (under-estimate corrected upward) is what pays off
        floor = (CardinalityModel(),) if cardinality_feedback else ()
        estimates = self._physical_estimates(bound, physical, *floor)
        query_ir = generate_query_ir(
            physical, pipelines, env, tagging, estimates,
            count_tuples=count_tuples,
        )

        backend_options = BackendOptions(
            reserve_tag_register=reserve, optimize=options.optimize_backend,
            qualify_tags=options.qualify_tags and reserve,
        )

        # backend feedback keys are post-optimization IR positions of the
        # profiled plan: only valid when this compile optimizes and plans
        # the same shape
        signature = plan_signature(physical)
        backend_feedback = None
        if (
            feedback is not None
            and options.optimize_backend
            and feedback.matches_plan(signature)
        ):
            probabilities = feedback.branch_probabilities()
            if probabilities or feedback.hotness:
                backend_feedback = BackendFeedback(
                    branch_probability=probabilities,
                    hotness=dict(feedback.hotness),
                )
        # only the query region is damaged by a fault; the runtime and
        # syslib below always compile with the clean options
        query_options = dataclasses.replace(
            backend_options, feedback=backend_feedback,
            inject_fault=options.inject_fault,
        )

        syslib = compile_module(
            build_syslib_module(), program, CodeRegion.SYSLIB, backend_options
        )
        runtime_module = build_runtime_module()
        for fn in runtime_module.functions:
            for instr in fn.all_instructions():
                tagging.link_runtime_instruction(instr.id, fn.name)
        runtime = compile_module(
            runtime_module, program, CodeRegion.RUNTIME, backend_options
        )
        query = compile_module(
            query_ir.module, program, CodeRegion.QUERY, query_options
        )
        for compiled in (*runtime.values(), *query.values()):
            tagging.apply_optimizations(compiled.opt_result)

        return CompiledQuery(
            sql=sql,
            bound=bound,
            physical=physical,
            pipelines=pipelines,
            query_ir=query_ir,
            program=program,
            kernel=kernel,
            tagging=tagging,
            query=query,
            runtime=runtime,
            syslib=syslib,
            estimates=estimates,
            plan_signature=signature,
            feedback_applied=cardinality_feedback
            or backend_feedback is not None,
        )

    def compiled_for(
        self, sql: str, profiler: ProfilerConfig | None = None,
        options: ExecOptions = ExecOptions(),
    ) -> CompiledQuery:
        """A compiled plan for ``sql``, via the shared LRU plan cache.

        The key is exactly what changes the generated code: the
        normalized SQL fingerprint, the options' compile half and what
        ``profiler`` instruments (:func:`_instrumentation`).  A ``pgo``
        plan keys beside the plain one, so a stale feedback version
        recompiles without ping-ponging against the feedback-free entry;
        an ``inject_fault`` compile never enters the cache."""
        from repro.pgo.fingerprint import fingerprint

        if options.inject_fault is not None:
            return self._compile(sql, profiler, options)
        feedback, feedback_version = None, 0
        if options.pgo:
            store = self._require_pgo()
            feedback, feedback_version = store.feedback(sql), store.version(sql)
        key = (
            fingerprint(sql), options.compile_key(),
            _instrumentation(profiler),
        )
        compiled = self.plan_cache.get(key, feedback_version)
        if compiled is None:
            compiled = self._compile(sql, profiler, options, feedback=feedback)
            self.plan_cache.put(key, compiled, feedback_version)
        return compiled

    def _compiled(self, query, profiler, options) -> CompiledQuery:
        """``query`` compiled: SQL text through the plan cache, a prebuilt
        ``(bound, physical)`` pair past it."""
        if isinstance(query, str):
            return self.compiled_for(query, profiler, options)
        if options.pgo:
            raise ReproError("pgo needs SQL text, not a prebuilt plan")
        return self._compile("", profiler, options, prebuilt=query)

    def _run_compiled(
        self, compiled: CompiledQuery, profiler: ProfilerConfig | None = None,
        options: ExecOptions = ExecOptions(),
    ) -> PlanRun:
        """Run a compiled query on ``options.workers`` private cores;
        returns the finished :class:`~repro.pipeline.run.PlanRun`.

        Every morsel goes to the core with the smallest simulated clock
        (greedy least-loaded scheduling), and the cores are this query's
        alone, so each phase ends with a barrier: all clocks advance to
        the slowest, as real workers would wait.  One worker takes each
        pipeline as a single morsel, whatever ``morsel_size`` says.

        All run-time memory (worker stacks, query state, kernel
        allocations) is released afterwards, so a cached plan can run any
        number of times without growing the bump allocator."""
        workers = options.workers
        mark = self.memory.mark()
        try:
            pmu = profiler.pmu_config() if profiler is not None else None
            # the state block below the stacks, as a query service has it
            state_addr = self.memory.alloc(
                compiled.query_ir.state.size_bytes, "query_state"
            )
            machines = [
                Machine(
                    compiled.program, self.memory, pmu_config=pmu,
                    kernel=compiled.kernel,
                    fast_vm=options.fast_vm and options.inject_fault is None,
                )
                for _ in range(workers)
            ]
            if options.instruction_limit is not None:
                for machine in machines:
                    machine.state.max_instructions = options.instruction_limit
            run = PlanRun(
                self, compiled, state_addr,
                options.morsel_size if workers > 1 else WHOLE_DOMAIN,
                repeats=options.repeats,
            )
            run.machines.update(enumerate(machines))
            while run.pending:
                unit = run.pending.pop(0)
                core = 0
                if unit.kind == MORSEL:
                    core = min(
                        range(workers),
                        key=lambda i: machines[i].state.cycles,
                    )
                run.step(unit, core, machines[core])
                if run.unit_finished(machines[core].state.cycles):
                    self._barrier(machines)
            return run
        finally:
            self.memory.release(mark)

    def read_task_counts(self, meta, state_addr: int) -> dict[int, int]:
        """Read a finished run's PGO tuple counters out of its query state
        (call before that state is released); also feeds the run's
        zone-map counters to the storage engine's pruning statistics."""
        task_counts = {
            task_id: self.memory.read(state_addr + offset)
            for task_id, offset in meta.task_counter_of.items()
        }
        # rows the spine index excluded at compile time never entered
        # a morsel: add them back so observed cardinalities are
        # independent of the physical layout
        for slot in meta.zone_slots.values():
            if not slot.static_excluded:
                continue
            for task_id in slot.compensate_task_ids:
                if task_id in task_counts:
                    task_counts[task_id] += slot.static_excluded
        # likewise the zone-map counters: observed pruning flows back
        # into the storage engine's statistics (loader feedback)
        for slot in meta.zone_slots.values():
            considered = self.memory.read(state_addr + slot.considered_offset)
            for column_index, offset in slot.skip_offsets:
                self.storage.note_pruning(
                    slot.table_name, column_index, considered,
                    self.memory.read(state_addr + offset),
                )
        return task_counts

    def _zero_state(self, state_addr: int, state) -> None:
        """Initialise a query state block laid out by ``state`` (a
        :class:`~repro.codegen.context.StateLayout`): zero it, then write
        the plan's constants.  Host-side, off the simulated clock."""
        words = self.memory.words
        first, count = state_addr // 8, state.size_bytes // 8
        words[first:first + count] = [0] * count
        for constant, offset in state.constants.items():
            at = first + offset // 8
            words[at:at + len(constant)] = constant

    @staticmethod
    def _barrier(machines) -> None:
        """Workers wait for the slowest: align all clocks to the maximum."""
        latest = max(m.state.cycles for m in machines)
        for machine in machines:
            machine.state.cycles = latest

    def decode_rows(self, raw_rows, columns) -> list[tuple]:
        """Raw result rows -> output values, typed by the plan's
        ``(name, IU)`` output columns."""
        dictionary = self.catalog.dictionary
        dtypes = [iu.dtype for _, iu in columns]
        return [decode_row(dictionary, raw, dtypes) for raw in raw_rows]

    # -- public API ----------------------------------------------------------

    def execute(
        self, query, options: ExecOptions | None = None
    ) -> QueryResult:
        """Compile (or take from the plan cache) and run a query; returns
        decoded rows.

        ``query`` is SQL text, or the ``(bound, physical)`` pair a non-SQL
        frontend built (the streaming DSL): ``bound`` exposes ``.plan``
        (the logical root) and ``.model`` (a CardinalityModel), and
        ``physical`` is the physical root.  ``options`` is an
        :class:`ExecOptions`; with ``workers > 1`` the pipelines run
        morsel-parallel on simulated cores and ``cycles`` is the slowest
        worker's clock (wall time)."""
        options = options or ExecOptions()
        compiled = self._compiled(query, None, options)
        return self._run_compiled(compiled, None, options).result()

    # -- profile-guided optimization (repro.pgo) -----------------------------

    def enable_pgo(self, store=None):
        """Turn on the PGO feedback loop.

        ``store`` may be a :class:`~repro.pgo.store.ProfileStore`, a
        directory path for a persistent store, or ``None`` for an
        in-memory one.  Returns the store."""
        from repro.pgo.store import ProfileStore

        if store is None:
            store = ProfileStore()
        elif not isinstance(store, ProfileStore):
            store = ProfileStore(directory=store)
        self.pgo_store = store
        self.plan_cache.clear()
        return store

    def _require_pgo(self):
        if self.pgo_store is None:
            raise ReproError(
                "profile-guided optimization is not enabled; "
                "call enable_pgo() first"
            )
        return self.pgo_store

    def build_profile(self, config, run: PlanRun) -> Profile:
        """Attribute a run's samples and assemble its :class:`Profile`.

        The one path from PMU samples to a profile: ``profile`` feeds
        it a finished run, the serve tier's
        continuous profiler feeds it every completed query.  The run's
        ``(core, Sample)`` stream arrives in dispatch order and is merged
        by timestamp, equal timestamps by core."""
        compiled = run.compiled
        processor = SampleProcessor(compiled.program, compiled.tagging)
        attributions = []
        for worker_index, sample in run.samples:
            attribution = processor.attribute(sample)
            if worker_index:
                attribution = dataclasses.replace(
                    attribution, worker=worker_index
                )
            attributions.append(attribution)
        attributions.sort(key=lambda a: (a.sample.tsc, a.worker))
        machines = [run.machines[core] for core in sorted(run.machines)]
        return Profile(
            database=self,
            config=config,
            physical=compiled.physical,
            pipelines=compiled.pipelines,
            ir_module=compiled.query_ir.module,
            program=compiled.program,
            machine=machines[0],
            machines=machines,
            tagging=compiled.tagging,
            processor=processor,
            attributions=attributions,
            result=run.result(),
            sql=compiled.sql,
            task_counts=run.task_counts,
            estimates=compiled.estimates,
            iteration_starts=run.iteration_starts,
        )

    def profile(
        self, query, config: ProfilerConfig | None = None,
        options: ExecOptions | None = None,
    ) -> Profile:
        """Run a query with the PMU armed; returns a Profile for reports.

        ``query`` and ``options`` are :meth:`execute`'s, and the plan comes
        from the same cache: a profiled run is the normal compiled run
        with the tag register reserved.  With ``workers > 1`` every
        simulated core has its own PMU and sample buffer; attributions
        carry the worker index and the merged sample stream feeds all
        reports.  ``repeats`` re-runs the compiled pipelines in the same
        session — the iterative-dataflow case whose iterations
        post-processing separates by timestamp (§4.2.6).

        ``pgo=True`` closes the feedback loop: tuple counters are planted
        in the generated code, existing feedback steers this compile, and
        the run's own samples are recorded back into the store."""
        config = config or ProfilerConfig()
        options = options or ExecOptions()
        if options.pgo and not config.count_tuples:
            config = dataclasses.replace(config, count_tuples=True)
        run = self._run_compiled(
            self._compiled(query, config, options), config, options
        )
        profile = self.build_profile(config, run)
        if options.pgo:
            self.pgo_store.record(profile)
        return profile

    def execute_interpreted(
        self, sql: str, options: ExecOptions | None = None
    ) -> QueryResult:
        """Run a query on the reference interpreter (the testing oracle),
        planned under ``options``' join-order hint and planner options."""
        bound, physical = self._plan(sql, options)
        interpreter = Interpreter()
        raw_rows = interpreter.run(physical)
        rows = self.decode_rows(raw_rows, physical.columns)
        return QueryResult(
            columns=[name for name, _ in physical.columns],
            rows=rows,
            cycles=0,
            instructions=0,
        )

    def explain(self, sql: str, options: ExecOptions | None = None) -> str:
        bound, physical = self._plan(sql, options)
        return explain_physical(physical)

    def explain_analyze(
        self, sql: str, options: ExecOptions | None = None
    ) -> str:
        """Tuple counts per operator — the feature §6.1 contrasts with
        sample-based costs."""
        bound, physical = self._plan(sql, options)
        interpreter = Interpreter()
        interpreter.run(physical)
        annotations = {
            op_id: f"{count} tuples"
            for op_id, count in interpreter.tuple_counts.items()
        }
        return explain_physical(physical, annotations)
