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
import warnings
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
        self,
        memory_bytes: int = 1 << 22,
        storage: StorageConfig | None = None,
        dictionary=None,
    ):
        self.catalog = Catalog(dictionary)  # shared by a fleet's shards
        self.memory = Memory(memory_bytes)
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
        db = cls(memory_bytes=1 << 24, storage=storage)
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
        self,
        sql: str,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
        model=None,
    ):
        stmt = parse(sql)
        self._inline_scalar_subqueries(stmt)
        bound = Binder(self.catalog).bind(stmt, join_order_hint, model=model)
        physical = plan_physical(bound.plan, bound.model, planner_options)
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
        self,
        sql: str,
        profiler: ProfilerConfig | None,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
        optimize_backend: bool = True,
        prebuilt=None,
        model=None,
        feedback=None,
        count_tuples: bool = False,
        inject_fault: str | None = None,
        qualify_tags: bool = False,
    ) -> CompiledQuery:
        """Lower a query through every step, down to placed native code.

        ``model`` overrides the cardinality model; ``feedback`` is a
        :class:`~repro.pgo.feedback.QueryFeedback` whose observed
        cardinalities build such a model automatically and whose branch /
        hotness statistics reach the backend when the planned shape matches
        the profiled one.  ``inject_fault`` deliberately miscompiles the
        query region (fuzzer ground truth; see repro.fuzz).  The result is
        pure code: compiling allocates no simulated memory (the plan's
        constants are part of its state layout, see :meth:`_zero_state`).
        """
        from repro.pgo.fingerprint import plan_signature

        if self.storage is None:
            raise ReproError("database not finalized; call finalize() first")
        cardinality_feedback = False
        if prebuilt is not None:
            # a frontend other than SQL (e.g. the streaming DSL) built the
            # plan itself: (model, physical root)
            bound, physical = prebuilt
        else:
            if model is None and feedback is not None and feedback.cardinalities:
                from repro.pgo.model import FeedbackCardinalityModel

                model = FeedbackCardinalityModel(
                    feedback.cardinality_overrides()
                )
                cardinality_feedback = True
            bound, physical = self._plan(
                sql, join_order_hint, planner_options, model
            )

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

        reserve = (
            profiler is not None
            and profiler.mode is ProfilingMode.REGISTER_TAGGING
        )
        options = BackendOptions(
            reserve_tag_register=reserve, optimize=optimize_backend,
            qualify_tags=qualify_tags and reserve,
        )

        # backend feedback keys are post-optimization IR positions of the
        # profiled plan: only valid when this compile optimizes and plans
        # the same shape
        signature = plan_signature(physical)
        backend_feedback = None
        if (
            feedback is not None
            and optimize_backend
            and feedback.matches_plan(signature)
        ):
            probabilities = feedback.branch_probabilities()
            if probabilities or feedback.hotness:
                backend_feedback = BackendFeedback(
                    branch_probability=probabilities,
                    hotness=dict(feedback.hotness),
                )
        query_options = options
        if backend_feedback is not None:
            query_options = dataclasses.replace(
                query_options, feedback=backend_feedback
            )
        if inject_fault is not None:
            # only the query region is damaged; the runtime and syslib
            # below still compile with the clean options
            query_options = dataclasses.replace(
                query_options, inject_fault=inject_fault
            )

        syslib = compile_module(
            build_syslib_module(), program, CodeRegion.SYSLIB, options
        )
        runtime_module = build_runtime_module()
        for fn in runtime_module.functions:
            for instr in fn.all_instructions():
                tagging.link_runtime_instruction(instr.id, fn.name)
        runtime = compile_module(
            runtime_module, program, CodeRegion.RUNTIME, options
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
        self,
        sql: str,
        *,
        profiler: ProfilerConfig | None = None,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
        optimize_backend: bool = True,
        count_tuples: bool = False,
        qualify_tags: bool = False,
        pgo: bool = False,
    ) -> CompiledQuery:
        """A compiled plan for ``sql``, via the shared LRU plan cache.

        The key is exactly what changes the generated code: the
        normalized SQL fingerprint, planner knobs, tag-register
        reservation, query-qualified tags, tuple counters, and whether
        the compile is steered by the PGO store — a ``pgo`` plan keys
        beside the plain one, so a stale feedback version recompiles
        without ping-ponging against the feedback-free entry."""
        from repro.pgo.fingerprint import fingerprint

        feedback, feedback_version = None, 0
        if pgo:
            store = self._require_pgo()
            feedback, feedback_version = store.feedback(sql), store.version(sql)
        reserve = (
            profiler is not None
            and profiler.mode is ProfilingMode.REGISTER_TAGGING
        )
        key = (
            fingerprint(sql),
            pgo,
            tuple(join_order_hint) if join_order_hint else None,
            planner_options,
            optimize_backend,
            reserve,
            qualify_tags,
            count_tuples,
        )
        compiled = self.plan_cache.get(key, feedback_version)
        if compiled is None:
            compiled = self._compile(
                sql, profiler, join_order_hint, planner_options,
                optimize_backend=optimize_backend, feedback=feedback,
                count_tuples=count_tuples, qualify_tags=qualify_tags,
            )
            self.plan_cache.put(key, compiled, feedback_version)
        return compiled

    def _run_compiled(
        self,
        compiled: CompiledQuery,
        profiler: ProfilerConfig | None = None,
        workers: int = 1,
        morsel_size: int = 1024,
        repeats: int = 1,
        instruction_limit: int | None = None,
        fast_vm: bool = True,
        long_armed_roots: bool = True,
    ) -> PlanRun:
        """Run a compiled query on ``workers`` private cores; returns the
        finished :class:`~repro.pipeline.run.PlanRun`.

        Every morsel goes to the core with the smallest simulated clock
        (greedy least-loaded scheduling), and the cores are this query's
        alone, so each phase ends with a barrier: all clocks advance to
        the slowest, as real workers would wait.  One worker takes each
        pipeline as a single morsel, whatever ``morsel_size`` says.

        All run-time memory (worker stacks, query state, kernel
        allocations) is released afterwards, so a cached plan can run any
        number of times without growing the bump allocator.
        ``long_armed_roots=False`` runs the armed translation fleet shards
        use (:class:`~repro.vm.machine.Machine`)."""
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if repeats < 1:
            raise ReproError("repeats must be >= 1")
        if morsel_size < 1:
            raise ReproError("morsel_size must be >= 1")
        mark = self.memory.mark()
        try:
            pmu = profiler.pmu_config() if profiler is not None else None
            machines = [
                Machine(
                    compiled.program, self.memory, pmu_config=pmu,
                    kernel=compiled.kernel, fast_vm=fast_vm,
                    long_armed_roots=long_armed_roots,
                )
                for _ in range(workers)
            ]
            if instruction_limit is not None:
                for machine in machines:
                    machine.state.max_instructions = instruction_limit
            run = PlanRun(
                self, compiled,
                self.memory.alloc(
                    compiled.query_ir.state.size_bytes, "query_state"
                ),
                morsel_size if workers > 1 else WHOLE_DOMAIN,
                repeats=repeats,
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
        self,
        sql: str,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
        workers: int = 1,
        optimize_backend: bool = True,
        pgo: bool = False,
        morsel_size: int = 1024,
        inject_fault: str | None = None,
        instruction_limit: int | None = None,
        fast_vm: bool = True,
    ) -> QueryResult:
        """Compile and run a query; returns decoded rows.

        ``workers > 1`` runs the pipelines morsel-parallel on simulated
        cores; ``cycles`` is then the slowest worker's clock (wall time),
        and ``morsel_size`` sets the per-dispatch tuple count (small sizes
        exercise the scheduler; the differential fuzzer sweeps this).
        ``optimize_backend=False`` disables constant folding/CSE/DCE (for
        ablation studies).  ``pgo=True`` consults the feedback store set up
        by :meth:`enable_pgo`: recorded profiles steer join ordering, block
        layout and spilling, and compiled plans are cached by query
        fingerprint until fresher feedback arrives.  ``inject_fault``
        deliberately miscompiles the query (fuzzer ground truth) and
        ``instruction_limit`` bounds each worker's instruction count —
        both are testing knobs, never set in normal operation.
        ``fast_vm=False`` forces the block interpreter; faults are always
        executed interpreted so the injected miscompile is observed
        instruction-by-instruction."""
        if inject_fault is not None:
            if pgo:
                raise ReproError("inject_fault is not supported with pgo=True")
            # deliberately damaged compiles never enter the plan cache
            if fast_vm:
                warnings.warn(
                    "inject_fault forces the tier-0 interpreter; "
                    "fast_vm=True is ignored for this query",
                    RuntimeWarning,
                    stacklevel=2,
                )
            fast_vm = False
            compiled = self._compile(
                sql, None, join_order_hint, planner_options,
                optimize_backend=optimize_backend, inject_fault=inject_fault,
            )
        else:
            compiled = self.compiled_for(
                sql, join_order_hint=join_order_hint,
                planner_options=planner_options,
                optimize_backend=optimize_backend, pgo=pgo,
            )
        return self._run_compiled(
            compiled, None, workers=workers, morsel_size=morsel_size,
            instruction_limit=instruction_limit, fast_vm=fast_vm,
        ).result()

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

        The one path from PMU samples to a profile: ``profile`` and
        ``profile_plan`` feed it a finished run, the serve tier's
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
        )

    def _profiled_run(
        self, sql, config: ProfilerConfig, workers, repeats, fast_vm,
        **compile_options,
    ) -> Profile:
        """Compile past the plan cache (``compile_options`` are
        :meth:`_compile`'s) with the PMU armed, run, build the Profile."""
        compiled = self._compile(
            sql, config, count_tuples=config.count_tuples, **compile_options
        )
        return self.build_profile(config, self._run_compiled(
            compiled, config, workers, repeats=repeats, fast_vm=fast_vm,
        ))

    def profile(
        self,
        sql: str,
        config: ProfilerConfig | None = None,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
        workers: int = 1,
        repeats: int = 1,
        pgo: bool = False,
        fast_vm: bool = True,
    ) -> Profile:
        """Run a query with the PMU armed; returns a Profile for reports.

        With ``workers > 1`` every simulated core has its own PMU and
        sample buffer; attributions carry the worker index and the merged
        sample stream feeds all reports.  ``repeats`` re-runs the compiled
        pipelines in the same session — the iterative-dataflow case whose
        iterations post-processing separates by timestamp (§4.2.6).

        ``pgo=True`` closes the feedback loop: tuple counters are planted
        in the generated code, existing feedback steers this compile, and
        the run's own samples are recorded back into the store."""
        config = config or ProfilerConfig()
        feedback = None
        if pgo:
            store = self._require_pgo()
            feedback = store.feedback(sql)
            if not config.count_tuples:
                config = dataclasses.replace(config, count_tuples=True)
        profile = self._profiled_run(
            sql, config, join_order_hint=join_order_hint,
            planner_options=planner_options, workers=workers,
            repeats=repeats, feedback=feedback, fast_vm=fast_vm,
        )
        if pgo:
            self.pgo_store.record(profile)
        return profile

    # -- prebuilt-plan entry points (for non-SQL frontends) -----------------

    def execute_plan(
        self, bound, physical, workers: int = 1, fast_vm: bool = True
    ) -> QueryResult:
        """Run a plan built by a non-SQL frontend (e.g. the streaming DSL).

        ``bound`` must expose ``.plan`` (the logical root) and ``.model``
        (a CardinalityModel); ``physical`` is the physical root."""
        return self._run_compiled(
            self._compile("", None, prebuilt=(bound, physical)),
            workers=workers, fast_vm=fast_vm,
        ).result()

    def profile_plan(
        self,
        bound,
        physical,
        config: ProfilerConfig | None = None,
        workers: int = 1,
        repeats: int = 1,
        fast_vm: bool = True,
    ) -> Profile:
        """Profile a plan built by a non-SQL frontend."""
        return self._profiled_run(
            "", config or ProfilerConfig(), prebuilt=(bound, physical),
            workers=workers, repeats=repeats, fast_vm=fast_vm,
        )

    def execute_interpreted(
        self,
        sql: str,
        join_order_hint: list[str] | None = None,
        planner_options: PlannerOptions | None = None,
    ) -> QueryResult:
        """Run a query on the reference interpreter (the testing oracle)."""
        bound, physical = self._plan(sql, join_order_hint, planner_options)
        interpreter = Interpreter()
        raw_rows = interpreter.run(physical)
        rows = self.decode_rows(raw_rows, physical.columns)
        return QueryResult(
            columns=[name for name, _ in physical.columns],
            rows=rows,
            cycles=0,
            instructions=0,
        )

    def explain(self, sql: str, join_order_hint: list[str] | None = None) -> str:
        bound, physical = self._plan(sql, join_order_hint)
        return explain_physical(physical)

    def explain_analyze(
        self, sql: str, join_order_hint: list[str] | None = None
    ) -> str:
        """Tuple counts per operator — the feature §6.1 contrasts with

        sample-based costs."""
        bound, physical = self._plan(sql, join_order_hint)
        interpreter = Interpreter()
        interpreter.run(physical)
        annotations = {
            op_id: f"{count} tuples"
            for op_id, count in interpreter.tuple_counts.items()
        }
        return explain_physical(physical, annotations)
