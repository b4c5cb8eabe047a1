"""Top-level query code generation: pipelines to an IR module.

Produces one IR function per pipeline plus a ``query_setup`` function that
allocates hash tables and buffers through the kernel (so allocation cost and
kernel samples occur during execution, as on a real system).  Also computes
the physical metadata — hash-table geometry from cardinality estimates,
payload layouts, sort descriptors, state-block layout — that the engine
needs to run the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.context import (
    BufferSpec,
    CodegenContext,
    DataEnvironment,
    HashTableSpec,
    StateLayout,
)
from repro.codegen.operators import PipelineCodegen
from repro.codegen.runtime import (
    BUF_CAP,
    BUF_COUNT,
    BUF_DATA,
    BUF_ROW_WORDS,
    HT_COUNT,
    HT_DIR,
    HT_END,
    HT_ENTRY_WORDS,
    HT_MASK,
    HT_NEXT_FREE,
)
from repro.errors import CodegenError
from repro.ir import IRBuilder, Module, Type, verify_module
from repro.pipeline.tasks import Pipeline, Task
from repro.plan.expr import IU, IURef
from repro.plan.physical import (
    PhysicalSemiJoin,
    PhysicalGroupBy,
    PhysicalGroupJoin,
    PhysicalHashJoin,
    PhysicalLimit,
    PhysicalMap,
    PhysicalOperator,
    PhysicalOutput,
    PhysicalSelect,
    PhysicalSort,
)
from repro.profiling.tagging import TaggingDictionary
from repro.profiling.trackers import AbstractionTracker
from repro.vm.kernel import K_ALLOC, SortDescriptor, SortKey


@dataclass
class ZoneSlot:
    """State offsets of one scan's zone-map counters: the generated
    segment loop counts considered segments and, per pruned column,
    skipped segments; the engine harvests them after every run."""

    considered_offset: int
    table_name: str
    # (schema column index, state byte offset of its skip counter)
    skip_offsets: list[tuple[int, int]] = field(default_factory=list)
    # rows removed by compile-time spine narrowing: they never enter any
    # morsel, so the engine adds them back to the PGO tuple counters of
    # the tasks below (ids), keeping observed cardinalities layout-free
    static_excluded: int = 0
    compensate_task_ids: tuple = ()


@dataclass
class QueryPlanMeta:
    """Per-operator physical metadata shared by all pipeline generators."""

    hashtable_of: dict[int, HashTableSpec] = field(default_factory=dict)
    payload_of: dict[int, list[IU]] = field(default_factory=dict)
    buffer_of: dict[int, BufferSpec] = field(default_factory=dict)
    row_layout_of: dict[int, list[IU]] = field(default_factory=dict)
    sort_descriptor_of: dict[int, int] = field(default_factory=dict)
    limit_slot_of: dict[int, int] = field(default_factory=dict)
    output_row_offset: int = 0
    setup_tasks: list[tuple[Task, PhysicalOperator]] = field(default_factory=list)
    # per-pipeline morsel domains: ("rows", n) | ("slots", n) |
    # ("buffer", state_offset, limit)
    pipeline_domains: dict[int, tuple] = field(default_factory=dict)
    # pipelines that need a single-threaded prepare step (the kernel sort)
    prepare_sorts: dict[int, tuple[Task, PhysicalOperator]] = field(
        default_factory=dict
    )
    # task id -> state byte offset of its entry counter (PGO tuple counts);
    # populated only when generating with count_tuples=True
    task_counter_of: dict[int, int] = field(default_factory=dict)
    # scan op id -> its zone-map counter slots (storage-backed scans with
    # at least one prunable predicate)
    zone_slots: dict[int, ZoneSlot] = field(default_factory=dict)


@dataclass
class CompiledQueryIR:
    """Everything generated for one query, before the backend runs."""

    module: Module
    state: StateLayout
    meta: QueryPlanMeta
    pipelines: list[Pipeline]
    ctx: CodegenContext


def _used_ius(root: PhysicalOutput) -> set[IU]:
    """Every IU referenced by any expression or output in the plan."""
    used: set[IU] = set()
    for op in root.walk():
        if isinstance(op, PhysicalSelect):
            used |= op.condition.ius()
        elif isinstance(op, PhysicalMap):
            for _, expr in op.computed:
                used |= expr.ius()
        elif isinstance(op, (PhysicalHashJoin, PhysicalSemiJoin)):
            for key in op.build_keys + op.probe_keys:
                used |= key.ius()
            if op.residual is not None:
                used |= op.residual.ius()
        elif isinstance(op, PhysicalGroupJoin):
            for key in op.build_keys + op.probe_keys:
                used |= key.ius()
            for agg in op.aggregates:
                if agg.arg is not None:
                    used |= agg.arg.ius()
        elif isinstance(op, PhysicalGroupBy):
            for _, expr in op.keys:
                used |= expr.ius()
            for agg in op.aggregates:
                if agg.arg is not None:
                    used |= agg.arg.ius()
        elif isinstance(op, PhysicalSort):
            for expr, _ in op.keys:
                used |= expr.ius()
        elif isinstance(op, PhysicalOutput):
            used |= {iu for _, iu in op.columns}
    return used


def _pow2_at_least(n: int) -> int:
    size = 8
    while size < n:
        size *= 2
    return size


def generate_query_ir(
    root: PhysicalOutput,
    pipelines: list[Pipeline],
    env: DataEnvironment,
    tagging: TaggingDictionary,
    estimates: dict[int, float] | None = None,
    count_tuples: bool = False,
) -> CompiledQueryIR:
    """Generate the full IR module for a decomposed query.

    ``count_tuples`` plants one counter per non-driver task in the query
    state; each task increments its counter on entry, so the entry count of
    task *k* observes the output cardinality of the operator owning task
    *k-1* — the feedback :mod:`repro.pgo` extracts.
    """
    estimates = estimates or {}
    module = Module("query")
    ctx = CodegenContext(
        module=module,
        env=env,
        tagging=tagging,
        task_tracker=AbstractionTracker("task"),
    )
    meta = QueryPlanMeta()
    used = _used_ius(root)

    def estimate(op: PhysicalOperator, default: float = 1024.0) -> int:
        return max(1, int(estimates.get(op.op_id, default)))

    # task lookup: operator id + role -> task (for setup attribution)
    task_of: dict[tuple[int, str], Task] = {}
    for pipeline in pipelines:
        for task in pipeline.tasks:
            task_of[(task.operator.op_id, task.role)] = task

    # -- physical metadata -------------------------------------------------

    for op in root.walk():
        if isinstance(op, PhysicalHashJoin):
            key_ius = {
                k.iu for k in op.build_keys if isinstance(k, IURef)
            }
            payload = [
                iu for iu in op.build_payload if iu in used and iu not in key_ius
            ]
            meta.payload_of[op.op_id] = payload
            rows = estimate(op.build)
            spec = HashTableSpec(
                name=f"ht_join_{op.op_id}",
                state_offset=ctx.state.reserve(f"ht_join_{op.op_id}", 6),
                directory_slots=_pow2_at_least(rows * 2),
                entry_words=2 + len(op.build_keys) + len(payload),
                initial_entries=max(16, int(rows * 1.25)),
                key_count=len(op.build_keys),
            )
            meta.hashtable_of[op.op_id] = spec
            meta.setup_tasks.append((task_of[(op.op_id, "build")], op))
        elif isinstance(op, PhysicalSemiJoin):
            payload = list(op.build_payload)
            meta.payload_of[op.op_id] = payload
            rows = estimate(op.build)
            spec = HashTableSpec(
                name=f"ht_semi_{op.op_id}",
                state_offset=ctx.state.reserve(f"ht_semi_{op.op_id}", 6),
                directory_slots=_pow2_at_least(rows * 2),
                entry_words=2 + len(op.build_keys) + len(payload),
                initial_entries=max(16, int(rows * 1.25)),
                key_count=len(op.build_keys),
            )
            meta.hashtable_of[op.op_id] = spec
            meta.setup_tasks.append((task_of[(op.op_id, "semi-build")], op))
        elif isinstance(op, PhysicalGroupJoin):
            key_ius = {k.iu for k in op.build_keys if isinstance(k, IURef)}
            payload = [
                iu for iu in op.build_payload if iu in used and iu not in key_ius
            ]
            meta.payload_of[op.op_id] = payload
            rows = estimate(op.build)
            entry_words = (
                2 + len(op.build_keys) + len(payload) + len(op.aggregates) + 1
            )
            spec = HashTableSpec(
                name=f"ht_groupjoin_{op.op_id}",
                state_offset=ctx.state.reserve(f"ht_groupjoin_{op.op_id}", 6),
                directory_slots=_pow2_at_least(rows * 2),
                entry_words=entry_words,
                initial_entries=max(16, int(rows * 1.25)),
                key_count=len(op.build_keys),
            )
            meta.hashtable_of[op.op_id] = spec
            meta.setup_tasks.append(
                (task_of[(op.op_id, "groupjoin-join build")], op)
            )
        elif isinstance(op, PhysicalGroupBy):
            groups = estimate(op)
            spec = HashTableSpec(
                name=f"ht_groupby_{op.op_id}",
                state_offset=ctx.state.reserve(f"ht_groupby_{op.op_id}", 6),
                directory_slots=_pow2_at_least(groups * 2),
                entry_words=2 + len(op.keys) + len(op.aggregates),
                initial_entries=max(16, int(groups * 1.25)),
                key_count=len(op.keys),
            )
            meta.hashtable_of[op.op_id] = spec
            meta.setup_tasks.append((task_of[(op.op_id, "materialize")], op))
        elif isinstance(op, PhysicalSort):
            key_ius: list[IU] = []
            for expr, _ in op.keys:
                if not isinstance(expr, IURef):
                    raise CodegenError("sort keys must be materialized IUs")
                key_ius.append(expr.iu)
            # everything above the sort (only limit/output can be) reads
            # from the materialized rows, so output columns join the layout
            needed = list(key_ius)
            for _, out_iu in root.columns:
                if out_iu not in needed:
                    needed.append(out_iu)
            meta.row_layout_of[op.op_id] = needed
            rows = estimate(op.child, default=256.0)
            # buffers start deliberately small and double through
            # buffer_grow/memcpy — growth is normal operation in a real
            # engine, and the untagged SYSLIB memcpy is the source of the
            # paper's ~2 % unattributable samples (Table 2)
            spec = BufferSpec(
                name=f"sortbuf_{op.op_id}",
                state_offset=ctx.state.reserve(f"sortbuf_{op.op_id}", 4),
                row_words=len(needed),
                initial_rows=max(16, int(rows * 0.25)),
            )
            meta.buffer_of[op.op_id] = spec
            descriptor = SortDescriptor(
                row_words=len(needed),
                keys=tuple(
                    SortKey(needed.index(expr.iu), ascending)
                    for expr, ascending in op.keys
                ),
                limit=op.limit,
            )
            meta.sort_descriptor_of[op.op_id] = env.register_sort(descriptor)
            meta.setup_tasks.append((task_of[(op.op_id, "materialize")], op))
        elif isinstance(op, PhysicalLimit):
            meta.limit_slot_of[op.op_id] = ctx.state.reserve(
                f"limit_{op.op_id}", 1
            )
        elif isinstance(op, PhysicalOutput):
            meta.output_row_offset = ctx.state.reserve(
                "output_row", max(1, len(op.columns))
            )

    if count_tuples:
        for pipeline in pipelines:
            for position, task in enumerate(pipeline.tasks):
                if position == 0:
                    continue  # the driver's domain is already known
                meta.task_counter_of[task.id] = ctx.state.reserve(
                    f"task_counter_{pipeline.index}_{position}", 1
                )

    # -- setup function ----------------------------------------------------

    _generate_setup(ctx, meta)

    # -- pipeline functions --------------------------------------------------

    for pipeline in pipelines:
        fn = module.new_function(
            f"pipeline_{pipeline.index}",
            [("state", Type.PTR), ("begin", Type.I64), ("end", Type.I64)],
        )
        PipelineCodegen(ctx, pipeline, fn, meta).generate()

    _generate_prepare_functions(ctx, meta)

    verify_module(module)
    return CompiledQueryIR(
        module=module, state=ctx.state, meta=meta, pipelines=pipelines, ctx=ctx
    )


def _generate_setup(ctx: CodegenContext, meta: QueryPlanMeta) -> None:
    """Allocate hash tables and sort buffers through the kernel."""
    fn = ctx.module.new_function("query_setup", [("state", Type.PTR)])
    b = IRBuilder(fn)
    ctx.install_tagging_listener(b)
    b.set_block(b.block("entry"))
    state = fn.params[0]

    # every hash table, then every sort buffer, under its operator's
    # setup task
    for task, op in meta.setup_tasks:
        spec = meta.hashtable_of.get(op.op_id)
        if spec is None:
            continue
        with ctx.task_tracker.active(task):
            base = b.gep(state, None, offset=spec.state_offset)
            directory = b.kcall(
                K_ALLOC, [b.const(spec.directory_slots * 8)], Type.PTR
            )
            b.store(b.gep(base, None, offset=HT_DIR), directory)
            b.store(b.gep(base, None, offset=HT_MASK),
                    b.const(spec.directory_slots - 1))
            b.store(b.gep(base, None, offset=HT_ENTRY_WORDS),
                    b.const(spec.entry_words))
            b.store(b.gep(base, None, offset=HT_COUNT), b.const(0))
            chunk_bytes = spec.initial_entries * spec.entry_words * 8
            chunk = b.kcall(K_ALLOC, [b.const(chunk_bytes)], Type.PTR)
            b.store(b.gep(base, None, offset=HT_NEXT_FREE), chunk)
            b.store(b.gep(base, None, offset=HT_END),
                    b.add(chunk, b.const(chunk_bytes)))

    for task, op in meta.setup_tasks:
        spec = meta.buffer_of.get(op.op_id)
        if spec is None:
            continue
        with ctx.task_tracker.active(task):
            base = b.gep(state, None, offset=spec.state_offset)
            data_bytes = spec.initial_rows * spec.row_words * 8
            data = b.kcall(K_ALLOC, [b.const(data_bytes)], Type.PTR)
            b.store(b.gep(base, None, offset=BUF_DATA), data)
            b.store(b.gep(base, None, offset=BUF_COUNT), b.const(0))
            b.store(b.gep(base, None, offset=BUF_CAP), b.const(spec.initial_rows))
            b.store(b.gep(base, None, offset=BUF_ROW_WORDS),
                    b.const(spec.row_words))

    # the epilogue belongs to whichever operator's setup ran (glue code;
    # attribute it to the first materializing task so the dictionary stays
    # total over generated instructions)
    if meta.setup_tasks:
        with ctx.task_tracker.active(meta.setup_tasks[0][0]):
            b.ret()
    else:
        b.ret()


def _generate_prepare_functions(ctx: CodegenContext, meta: QueryPlanMeta) -> None:
    """One single-threaded prepare function per sort-output pipeline: the

    kernel sort must run exactly once before the (possibly parallel) morsel
    scan of the sorted buffer."""
    from repro.codegen.runtime import BUF_COUNT, BUF_DATA
    from repro.vm.kernel import K_SORT

    for pipeline_index, (task, op) in meta.prepare_sorts.items():
        fn = ctx.module.new_function(
            f"pipeline_{pipeline_index}_prepare", [("state", Type.PTR)]
        )
        b = IRBuilder(fn)
        ctx.install_tagging_listener(b)
        b.set_block(b.block("entry"))
        with ctx.task_tracker.active(task):
            buffer = meta.buffer_of[op.op_id]
            state = fn.params[0]
            data = b.load(
                b.gep(state, None, offset=buffer.state_offset + BUF_DATA),
                Type.PTR,
            )
            count = b.load(
                b.gep(state, None, offset=buffer.state_offset + BUF_COUNT)
            )
            descriptor_id = meta.sort_descriptor_of[op.op_id]
            b.kcall(K_SORT, [data, count, b.const(descriptor_id)])
            b.ret()
