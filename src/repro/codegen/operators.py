"""Per-task code generation: the produce/consume engine.

One :class:`PipelineCodegen` generates one IR function per pipeline.  The
driver task (scan, hash-table scan, sorted-buffer scan) emits the tuple
loop; every later task emits its code inside the loop body and delegates to
the next task — operator fusion into a tight loop, exactly the structure of
the paper's Listing 1.

While a task's code is generated, the task Abstraction Tracker holds it, so
the IR builder's emission funnel attributes each instruction in the Tagging
Dictionary (Log B).  Calls into the shared runtime go through
``ctx.call_runtime``, which wraps them in Register Tagging.
"""

from __future__ import annotations

from repro.catalog.schema import DataType
from repro.codegen.context import (
    CodegenContext,
    HashTableSpec,
    TupleContext,
)
from repro.codegen.exprgen import ExprCodegen
from repro.codegen.hashing import emit_hash
from repro.codegen.runtime import (
    BUF_CAP,
    BUF_COUNT,
    BUF_DATA,
    ENTRY_HASH,
    ENTRY_NEXT,
    HT_DIR,
    HT_MASK,
)
from repro.errors import CodegenError
from repro.ir import Function, IRBuilder, Type
from repro.ir.nodes import Value
from repro.pipeline.tasks import Pipeline, Task
from repro.plan.expr import IU, AggCall, conjuncts
from repro.plan.physical import (
    PhysicalSemiJoin,
    PhysicalGroupBy,
    PhysicalGroupJoin,
    PhysicalHashJoin,
    PhysicalLimit,
    PhysicalMap,
    PhysicalOutput,
    PhysicalScan,
    PhysicalSort,
)
from repro.vm.kernel import K_OUTPUT_ROW


class PipelineCodegen:
    """Generates the IR function for one pipeline."""

    def __init__(
        self,
        ctx: CodegenContext,
        pipeline: Pipeline,
        function: Function,
        plan_meta: "QueryPlanMeta",
    ):
        self.ctx = ctx
        self.pipeline = pipeline
        self.fn = function
        self.meta = plan_meta
        self.b = IRBuilder(function)
        ctx.install_tagging_listener(self.b)
        self.tuples = TupleContext(ctx)
        self.exprs = ExprCodegen(ctx, self.b, self.tuples)
        self.state_ptr = function.params[0]
        self.begin = function.params[1]  # morsel range [begin, end)
        self.end = function.params[2]
        self.skip_targets: list = []  # innermost "drop this tuple" blocks
        self.exit_block = None

    # ------------------------------------------------------------------

    def generate(self) -> None:
        b = self.b
        entry = b.block("entry")
        self.exit_block = b.block("exitPipeline")
        b.set_block(entry)
        self._emit_task(0)
        b.set_block(self.exit_block)
        # the pipeline epilogue belongs to the driver task
        with self.ctx.task_tracker.active(self.pipeline.driver):
            b.ret()

    def _emit_task(self, index: int) -> None:
        if index >= len(self.pipeline.tasks):
            return
        task = self.pipeline.tasks[index]
        with self.ctx.task_tracker.active(task):
            counter = self.meta.task_counter_of.get(task.id)
            if counter is not None:
                # PGO tuple counting: entry count of this task = output of
                # the previous task's operator.  load/store are impure, so
                # the optimizer never folds these away.
                addr = self._state_addr(counter)
                self.b.store(addr, self.b.add(self.b.load(addr), self.b.const(1)))
            self._dispatch(task, index)

    def _continue(self, index: int) -> None:
        """Generate the rest of the task chain after ``index``."""
        self._emit_task(index + 1)

    def _ensure_jump(self, target) -> None:
        if self.b.current.terminator is None:
            self.b.br(target)

    def _state_addr(self, offset: int, extra: int = 0):
        return self.b.gep(self.state_ptr, None, offset=offset + extra)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, task: Task, index: int) -> None:  # noqa: C901
        op = task.operator
        role = task.role
        if role == "scan":
            self._emit_storage_scan(task, op, index)
        elif role == "filter":
            self._emit_filter(task, op.condition, index)
        elif role == "map":
            self._emit_map(task, op, index)
        elif role == "limit":
            self._emit_limit(task, op, index)
        elif role == "output":
            self._emit_output(task, op, index)
        elif role == "build":
            self._emit_join_build(task, op, index)
        elif role == "probe":
            self._emit_join_probe(task, op, index)
        elif role == "semi-build":
            self._emit_semi_build(task, op, index)
        elif role == "semi-probe":
            self._emit_semi_probe(task, op, index)
        elif role == "materialize" and isinstance(op, PhysicalGroupBy):
            self._emit_groupby_materialize(task, op, index)
        elif role == "aggregate":
            self._emit_groupby_scan(task, op, index)
        elif role == "materialize" and isinstance(op, PhysicalSort):
            self._emit_sort_materialize(task, op, index)
        elif role == "output-scan":
            self._emit_sort_scan(task, op, index)
        elif role == "groupjoin-join build":
            self._emit_groupjoin_build(task, op, index)
        elif role == "groupjoin-groupby probe":
            self._emit_groupjoin_probe(task, op, index)
        elif role == "groupjoin-groupby output":
            self._emit_groupjoin_scan(task, op, index)
        else:
            raise CodegenError(f"no emitter for task role {role!r}")

    # ------------------------------------------------------------------
    # drivers

    def _emit_flat_scan(
        self, task: Task, op: PhysicalScan, index: int,
        address_of: dict[str, int],
    ) -> None:
        """The classic single-loop scan over contiguous columns."""
        b = self.b
        loop = b.block("loopTuples")
        body = b.block("scanBody")
        cont = b.block("contScan")
        b.br(loop)

        b.set_block(loop)
        tid = b.phi(Type.I64)
        b.add_incoming(tid, self.begin, loop.predecessors()[0])
        done = b.cmp("cmpge", tid, self.end)
        b.condbr(done, self.exit_block, body)

        b.set_block(body)
        for column, iu in op.column_ius.items():
            address = address_of[column]

            def emit_load(address=address, column=column):
                base = b.const(address, Type.PTR)
                return b.load(b.gep(base, tid, scale=8), comment=f"col {column}")

            self.tuples.provide(iu, task, emit_load)

        self.skip_targets.append(cont)
        self._continue(index)
        self.skip_targets.pop()
        self._ensure_jump(cont)

        b.set_block(cont)
        next_tid = b.add(tid, b.const(1))
        b.add_incoming(tid, next_tid, cont)
        b.br(loop)

    # -- storage-backed scans ------------------------------------------

    def _zone_bounds(
        self, op: PhysicalScan, index: int
    ) -> tuple[dict[str, tuple], int]:
        """Compile-time zone-map pushdown: per scan column, the conjunct-
        implied inclusive ``[lo, hi]`` window (either side may be None),
        plus the pipeline position of the filter the bounds came from.

        Only the *first* filter task after the scan is harvested, and
        only map tasks (pure, 1:1) may sit in between: a segment whose
        ``[min, max]`` misses that filter's window would have reached it
        whole and been dropped there entirely, so skipping it changes
        nothing observable — and the rows it would have pushed through
        the intermediate maps into the filter are a known, exact count
        (the PGO tuple counters are bulk-compensated on the skip path).
        Filters further downstream are out: an intervening filter's
        selectivity on the skipped rows is unknowable.  Float columns
        are left alone so zone comparisons stay pure integer compares.
        """
        from repro.plan.expr import CompareExpr, ConstExpr, InSetExpr, IURef

        name_of = {iu.id: column for column, iu in op.column_ius.items()}
        float_ius = {
            iu.id for iu in op.column_ius.values()
            if iu.dtype is DataType.FLOAT
        }
        bounds: dict[str, list] = {}

        def narrow(iu_id: int, lo, hi) -> None:
            if iu_id not in name_of or iu_id in float_ius:
                return
            window = bounds.setdefault(name_of[iu_id], [None, None])
            if lo is not None and (window[0] is None or lo > window[0]):
                window[0] = lo
            if hi is not None and (window[1] is None or hi < window[1]):
                window[1] = hi

        filter_position = index
        for position in range(index + 1, len(self.pipeline.tasks)):
            later = self.pipeline.tasks[position]
            if later.role == "map":
                continue
            if later.role != "filter":
                break
            filter_position = position
            for conjunct in conjuncts(later.operator.condition):
                if isinstance(conjunct, InSetExpr):
                    operand = conjunct.operand
                    values = conjunct.values
                    if (
                        isinstance(operand, IURef) and values
                        and all(isinstance(v, int) for v in values)
                    ):
                        narrow(operand.iu.id, min(values), max(values))
                    continue
                if not isinstance(conjunct, CompareExpr):
                    continue
                left, right, cmp_op = conjunct.left, conjunct.right, conjunct.op
                if isinstance(right, IURef) and isinstance(left, ConstExpr):
                    left, right = right, left
                    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                    cmp_op = flip.get(cmp_op, cmp_op)
                if not (
                    isinstance(left, IURef)
                    and isinstance(right, ConstExpr)
                    and isinstance(right.value, int)
                ):
                    continue
                v = right.value
                if cmp_op == "<":
                    narrow(left.iu.id, None, v - 1)
                elif cmp_op == "<=":
                    narrow(left.iu.id, None, v)
                elif cmp_op == ">":
                    narrow(left.iu.id, v + 1, None)
                elif cmp_op == ">=":
                    narrow(left.iu.id, v, None)
                elif cmp_op == "=":
                    narrow(left.iu.id, v, v)
            break  # only the first filter is harvested (see docstring)
        return (
            {column: (lo, hi) for column, (lo, hi) in bounds.items()},
            filter_position,
        )

    def _emit_storage_scan(
        self, task: Task, op: PhysicalScan, index: int
    ) -> None:
        """Segment-at-a-time scan over the columnar layout.

        Structure: an outer loop walks the segments a morsel overlaps;
        per segment the directory supplies decode parameters and zone
        min/max (pruned segments jump straight to the next one, counting
        the skip); the inner loop decodes the column's encoding inline —
        so skipping, decode cost, and stride are all ordinary generated
        instructions the cycle/cache/PMU machinery observes.
        """
        from repro.storage import (
            DIR_DATA, DIR_MAX, DIR_MIN, DIR_PARAM, DIR_STRIDE, Encoding,
        )

        b = self.b
        storage = self.ctx.env.table_storage(op.table.name)
        config = storage.config
        seg_rows = config.segment_rows
        log2_seg = seg_rows.bit_length() - 1
        schema = op.table.schema
        columns = [
            (column, iu, storage.column(schema.index_of(column)))
            for column, iu in op.column_ius.items()
        ]
        bounds, filter_position = (
            self._zone_bounds(op, index) if config.prune else ({}, index)
        )
        # counters of the tasks the skipped rows would have reached (all
        # maps plus the harvested filter itself): bulk-compensated so PGO
        # cardinalities match an unpruned execution exactly
        compensate = [
            (t.id, self.meta.task_counter_of[t.id])
            for t in self.pipeline.tasks[index + 1 : filter_position + 1]
            if t.id in self.meta.task_counter_of
        ]

        # compile-time zone-map consultation: the spine index narrows the
        # scanned row range when the clustered key itself is bounded
        row_base, row_end = 0, storage.row_count
        if storage.sort_key in bounds:
            row_base, row_end = storage.prune_range(
                storage.sort_key, *bounds[storage.sort_key]
            )
        total = max(0, row_end - row_base)
        self.meta.pipeline_domains[self.pipeline.index] = ("rows", total)

        if not bounds and row_base == 0 and all(
            col.encoding is Encoding.PLAIN for _, _, col in columns
        ):
            # all-plain, nothing to skip: the flat loop is byte- and
            # instruction-identical, so keep the classic shape
            self._emit_flat_scan(task, op, index, {
                column: col.plain_addr for column, _, col in columns
            })
            return

        zone_slot = None
        if bounds:
            from repro.codegen.querygen import ZoneSlot

            zone_slot = ZoneSlot(
                considered_offset=self.ctx.state.reserve(
                    f"zone_considered_{op.op_id}", 1
                ),
                table_name=op.table.name,
                static_excluded=storage.row_count - total,
                compensate_task_ids=tuple(t for t, _ in compensate),
            )
            for column in sorted(bounds):
                zone_slot.skip_offsets.append((
                    schema.index_of(column),
                    self.ctx.state.reserve(
                        f"zone_skips_{op.op_id}_{column}", 1
                    ),
                ))
            self.meta.zone_slots[op.op_id] = zone_slot

        # blocks are created in control-flow order (the backend requires
        # defs to precede uses in block order); skip-block bodies are
        # filled in once contSegment exists
        seg_loop = b.block("loopSegments")
        seg_head = b.block("segHead")

        # entry: absolute morsel range, first segment base
        if row_base:
            abs_begin = b.add(self.begin, b.const(row_base))
            abs_end = b.add(self.end, b.const(row_base))
        else:
            abs_begin, abs_end = self.begin, self.end
        seg_first = b.and_(abs_begin, b.const(~(seg_rows - 1)))
        entry_pred = b.current
        b.br(seg_loop)

        b.set_block(seg_loop)
        seg_base = b.phi(Type.I64)
        b.add_incoming(seg_base, seg_first, entry_pred)
        seg_done = b.cmp("cmpge", seg_base, abs_end)
        b.condbr(seg_done, self.exit_block, seg_head)

        # segment head: directory pointers, zone checks
        b.set_block(seg_head)
        seg_idx = b.shr(seg_base, b.const(log2_seg))
        dir_ptrs: dict[str, object] = {}
        for column in sorted(
            set(bounds) | {name for name, _, _ in columns},
            key=schema.index_of,
        ):
            col = storage.column(schema.index_of(column))
            dir_ptrs[column] = b.gep(
                b.const(col.dir_addr, Type.PTR), seg_idx, scale=DIR_STRIDE,
            )
        if zone_slot is not None:
            addr = self._state_addr(zone_slot.considered_offset)
            b.store(addr, b.add(b.load(addr), b.const(1)))
        skip_offset_of = dict(
            (schema.columns[index].name, offset)
            for index, offset in (zone_slot.skip_offsets if zone_slot else [])
        )
        skip_blocks: list[tuple[str, object]] = []
        for column in sorted(bounds, key=schema.index_of):
            lo, hi = bounds[column]
            skip = b.block(f"skipSeg_{column}")
            skip_blocks.append((column, skip))
            for bound, dir_off, cmp_op in (
                (lo, DIR_MAX, "cmplt"),  # whole segment below the window
                (hi, DIR_MIN, "cmpgt"),  # whole segment above the window
            ):
                if bound is None:
                    continue
                zone = b.load(
                    b.gep(dir_ptrs[column], None, offset=dir_off),
                    comment=f"zone {column}",
                )
                scan_on = b.block("zoneNext")
                b.condbr(b.cmp(cmp_op, zone, b.const(bound)), skip, scan_on)
                b.set_block(scan_on)

        # segment prep: morsel-clamped row range + per-encoding parameters
        row_lo = b.max(seg_base, abs_begin)
        row_hi = b.min(b.add(seg_base, b.const(seg_rows)), abs_end)
        plain_base: dict[str, object] = {}
        frame_of: dict[str, object] = {}
        data_of: dict[str, object] = {}
        aux_of: dict[str, object] = {}
        rle_seeds: list[tuple[str, object, object]] = []
        for column, _, col in columns:
            dir_ptr = dir_ptrs[column]
            if col.encoding is Encoding.PLAIN:
                data = b.load(
                    b.gep(dir_ptr, None, offset=DIR_DATA), Type.PTR,
                    comment=f"seg {column}",
                )
                # bias by the segment base once, so the inner loop indexes
                # with tid exactly like the flat layout does
                plain_base[column] = b.sub(data, b.shl(seg_base, b.const(3)))
            elif col.encoding is Encoding.FOR:
                frame_of[column] = b.load(
                    b.gep(dir_ptr, None, offset=DIR_PARAM),
                    comment=f"frame {column}",
                )
                if col.bits:
                    data_of[column] = b.load(
                        b.gep(dir_ptr, None, offset=DIR_DATA), Type.PTR,
                        comment=f"seg {column}",
                    )
            elif col.encoding is Encoding.DICT:
                data_of[column] = b.load(
                    b.gep(dir_ptr, None, offset=DIR_DATA), Type.PTR,
                    comment=f"seg {column}",
                )
                aux_of[column] = b.load(
                    b.gep(dir_ptr, None, offset=DIR_PARAM), Type.PTR,
                    comment=f"dict {column}",
                )
            else:  # RLE
                data_of[column] = b.load(
                    b.gep(dir_ptr, None, offset=DIR_DATA), Type.PTR,
                    comment=f"runs {column}",
                )
                aux_of[column] = b.load(
                    b.gep(dir_ptr, None, offset=DIR_PARAM), Type.PTR,
                    comment=f"ends {column}",
                )
        # position each RLE run cursor at the morsel's first row: runs end
        # at cumulative offsets, so seek while the row is past the end
        if any(col.encoding is Encoding.RLE for _, _, col in columns):
            rel_lo = b.sub(row_lo, seg_base)
        for column, _, col in columns:
            if col.encoding is not Encoding.RLE:
                continue
            seek = b.block(f"seekRun_{column}")
            bump = b.block(f"seekNext_{column}")
            done = b.block(f"seekDone_{column}")
            seek_pred = b.current
            b.br(seek)
            b.set_block(seek)
            run = b.phi(Type.I64)
            b.add_incoming(run, b.const(0), seek_pred)
            run_end = b.load(b.gep(aux_of[column], run, scale=8))
            b.condbr(b.cmp("cmpge", rel_lo, run_end), bump, done)
            b.set_block(bump)
            b.add_incoming(run, b.add(run, b.const(1)), bump)
            b.br(seek)
            b.set_block(done)
            rle_seeds.append((column, run, b.current))
        prep_pred = b.current
        row_loop = b.block("loopTuples")
        row_body = b.block("scanBody")
        cont_row = b.block("contScan")
        cont_seg = b.block("contSegment")
        b.br(row_loop)

        # deferred skip-block bodies (needed contSegment to exist)
        for column, skip in skip_blocks:
            b.set_block(skip)
            addr = self._state_addr(skip_offset_of[column])
            b.store(addr, b.add(b.load(addr), b.const(1)))
            if compensate:
                # the skipped rows would have flowed through every map and
                # died at the harvested filter: credit their counters with
                # this segment's share of the morsel, so PGO tuple counts
                # equal an unpruned run's
                overlap = b.sub(
                    b.min(b.add(seg_base, b.const(seg_rows)), abs_end),
                    b.max(seg_base, abs_begin),
                )
                for _task_id, offset in compensate:
                    caddr = self._state_addr(offset)
                    b.store(caddr, b.add(b.load(caddr), overlap))
            b.br(cont_seg)

        # inner loop over the segment's slice of the morsel
        b.set_block(row_loop)
        tid = b.phi(Type.I64)
        b.add_incoming(tid, row_lo, prep_pred)
        run_phis: dict[str, object] = {}
        for column, seed, seed_pred in rle_seeds:
            run = b.phi(Type.I64)
            b.add_incoming(run, seed, prep_pred)
            run_phis[column] = run
        row_done = b.cmp("cmpge", tid, row_hi)
        b.condbr(row_done, cont_seg, row_body)

        b.set_block(row_body)
        rel = None
        if any(
            col.encoding in (Encoding.FOR, Encoding.DICT)
            and col.bits for _, _, col in columns
        ):
            rel = b.sub(tid, seg_base)

        def unpack(column, col, rel):
            """Inline shift/mask decode of a packed value."""
            per_word = 64 // col.bits
            word = b.load(
                b.gep(
                    data_of[column],
                    b.shr(rel, b.const(per_word.bit_length() - 1)),
                    scale=8,
                ),
                comment=f"col {column}",
            )
            shift = b.shl(
                b.and_(rel, b.const(per_word - 1)),
                b.const(col.bits.bit_length() - 1),
            )
            return b.and_(b.shr(word, shift), b.const((1 << col.bits) - 1))

        for column, iu, col in columns:
            if col.encoding is Encoding.PLAIN:
                def emit(column=column):
                    return b.load(
                        b.gep(plain_base[column], tid, scale=8),
                        comment=f"col {column}",
                    )
            elif col.encoding is Encoding.FOR:
                def emit(column=column, col=col):
                    if not col.bits:  # constant segment: the frame is it
                        return frame_of[column]
                    return b.add(frame_of[column], unpack(column, col, rel))
            elif col.encoding is Encoding.DICT:
                def emit(column=column, col=col):
                    return b.load(
                        b.gep(aux_of[column], unpack(column, col, rel), scale=8),
                        comment=f"dict {column}",
                    )
            else:  # RLE: the cursor phi tracks the current run
                def emit(column=column):
                    return b.load(
                        b.gep(data_of[column], run_phis[column], scale=8),
                        comment=f"run {column}",
                    )
            self.tuples.provide(iu, task, emit)

        self.skip_targets.append(cont_row)
        self._continue(index)
        self.skip_targets.pop()
        self._ensure_jump(cont_row)

        b.set_block(cont_row)
        next_tid = b.add(tid, b.const(1))
        b.add_incoming(tid, next_tid, cont_row)
        if rle_seeds:
            next_rel = b.sub(next_tid, seg_base)
            for column, _, _ in rle_seeds:
                run = run_phis[column]
                run_end = b.load(b.gep(aux_of[column], run, scale=8))
                # consecutive rows cross at most one run boundary; the
                # BOOL compare adds as 0/1
                advanced = b.add(run, b.cmp("cmpge", next_rel, run_end))
                b.add_incoming(run, advanced, cont_row)
        b.br(row_loop)

        b.set_block(cont_seg)
        next_seg = b.add(seg_base, b.const(seg_rows))
        b.add_incoming(seg_base, next_seg, cont_seg)
        b.br(seg_loop)

    def _emit_ht_scan_loop(
        self, task: Task, ht: HashTableSpec, emit_entry_body
    ) -> None:
        """Shared driver: iterate all entries of a hash table via its

        directory chains.  ``emit_entry_body(entry_ptr, cont_chain)`` emits
        the per-entry work."""
        b = self.b
        directory = b.load(self._state_addr(ht.state_offset, HT_DIR), Type.PTR)
        mask = b.load(self._state_addr(ht.state_offset, HT_MASK))

        slot_loop = b.block("loopSlots")
        slot_body = b.block("slotBody")
        chain_loop = b.block("loopEntries")
        entry_body = b.block("entryBody")
        cont_chain = b.block("contEntry")
        cont_slot = b.block("contSlot")

        entry_pred = b.current
        b.br(slot_loop)

        b.set_block(slot_loop)
        slot = b.phi(Type.I64)
        b.add_incoming(slot, self.begin, entry_pred)
        done = b.cmp("cmpge", slot, self.end)
        b.condbr(done, self.exit_block, slot_body)

        b.set_block(slot_body)
        head = b.load(b.gep(directory, slot, scale=8), Type.PTR, comment="chain head")
        b.br(chain_loop)

        b.set_block(chain_loop)
        entry = b.phi(Type.PTR)
        b.add_incoming(entry, head, slot_body)
        is_null = b.cmp("cmpeq", entry, b.const(0))
        b.condbr(is_null, cont_slot, entry_body)

        b.set_block(entry_body)
        emit_entry_body(entry, cont_chain)
        self._ensure_jump(cont_chain)

        b.set_block(cont_chain)
        next_entry = b.load(b.gep(entry, None, offset=ENTRY_NEXT), Type.PTR)
        b.add_incoming(entry, next_entry, cont_chain)
        b.br(chain_loop)

        b.set_block(cont_slot)
        next_slot = b.add(slot, b.const(1))
        b.add_incoming(slot, next_slot, cont_slot)
        b.br(slot_loop)

    def _emit_groupby_scan(self, task: Task, op: PhysicalGroupBy, index: int) -> None:
        ht = self.meta.hashtable_of[op.op_id]
        b = self.b
        self.meta.pipeline_domains[self.pipeline.index] = (
            "slots", ht.directory_slots,
        )

        if not op.keys:
            # SQL: a global aggregate over empty input yields one identity
            # row (count = 0, sums 0).  Check the table's entry count and
            # run the consume chain once with constant values; only the
            # first morsel emits it.
            from repro.catalog.schema import DataType
            from repro.codegen.context import TupleContext
            from repro.codegen.runtime import HT_COUNT

            count = b.load(self._state_addr(ht.state_offset, HT_COUNT))
            is_empty = b.cmp("cmpeq", count, b.const(0))
            first_morsel = b.cmp("cmpeq", self.begin, b.const(0))
            need_identity = b.and_(is_empty, first_morsel)
            identity = b.block("emptyAggIdentity")
            normal = b.block("aggScan")
            b.condbr(need_identity, identity, normal)

            b.set_block(identity)
            saved_tuples, saved_exprs_tuples = self.tuples, self.exprs.tuples
            self.tuples = TupleContext(self.ctx)
            self.exprs.tuples = self.tuples
            for agg in op.aggregates:
                if agg.output.dtype is DataType.FLOAT:
                    self.tuples.set(agg.output, b.const_f64(0.0))
                else:
                    self.tuples.set(agg.output, b.const(0))
            self.skip_targets.append(self.exit_block)
            self._continue(index)
            self.skip_targets.pop()
            self._ensure_jump(self.exit_block)
            self.tuples, self.exprs.tuples = saved_tuples, saved_exprs_tuples
            b.set_block(normal)

        def body(entry, cont_chain):
            for i, (iu, _) in enumerate(op.keys):
                self._provide_entry_field(task, iu, entry, ht.key_offset(i))
            for j, agg in enumerate(op.aggregates):
                self._provide_entry_field(
                    task, agg.output, entry, ht.payload_offset(j)
                )
            self.skip_targets.append(cont_chain)
            self._continue(index)
            self.skip_targets.pop()

        self._emit_ht_scan_loop(task, ht, body)

    def _emit_groupjoin_scan(self, task: Task, op: PhysicalGroupJoin, index: int) -> None:
        ht = self.meta.hashtable_of[op.op_id]
        b = self.b
        self.meta.pipeline_domains[self.pipeline.index] = (
            "slots", ht.directory_slots,
        )
        payload = self.meta.payload_of[op.op_id]
        agg_base = len(payload)
        matched_index = agg_base + len(op.aggregates)

        def body(entry, cont_chain):
            matched = b.load(
                b.gep(entry, None, offset=ht.payload_offset(matched_index)),
                comment="matched flag",
            )
            keep = b.block("matchedEntry")
            is_matched = b.cmp("cmpne", matched, b.const(0))
            b.condbr(is_matched, keep, cont_chain)
            b.set_block(keep)
            for i, iu in enumerate(op.key_ius):
                self._provide_entry_field(task, iu, entry, ht.key_offset(i))
            # the build keys themselves may be referenced downstream
            for i, key_expr in enumerate(op.build_keys):
                from repro.plan.expr import IURef

                if isinstance(key_expr, IURef) and not self.tuples.has(key_expr.iu):
                    self._provide_entry_field(
                        task, key_expr.iu, entry, ht.key_offset(i)
                    )
            for i, iu in enumerate(payload):
                self._provide_entry_field(task, iu, entry, ht.payload_offset(i))
            for j, agg in enumerate(op.aggregates):
                self._provide_entry_field(
                    task, agg.output, entry, ht.payload_offset(agg_base + j)
                )
            self.skip_targets.append(cont_chain)
            self._continue(index)
            self.skip_targets.pop()

        self._emit_ht_scan_loop(task, ht, body)

    def _emit_sort_scan(self, task: Task, op: PhysicalSort, index: int) -> None:
        b = self.b
        buffer = self.meta.buffer_of[op.op_id]
        self.meta.pipeline_domains[self.pipeline.index] = (
            "buffer", buffer.state_offset, op.limit,
        )
        self.meta.prepare_sorts[self.pipeline.index] = (task, op)
        buf_data = b.load(self._state_addr(buffer.state_offset, BUF_DATA), Type.PTR)

        loop = b.block("loopRows")
        body = b.block("rowBody")
        cont = b.block("contRow")
        pred = b.current
        b.br(loop)

        b.set_block(loop)
        i = b.phi(Type.I64)
        b.add_incoming(i, self.begin, pred)
        done = b.cmp("cmpge", i, self.end)
        b.condbr(done, self.exit_block, body)

        b.set_block(body)
        row = b.gep(buf_data, b.mul(i, b.const(buffer.row_words)), scale=8)
        for j, iu in enumerate(self.meta.row_layout_of[op.op_id]):
            self._provide_entry_field(task, iu, row, j * 8)
        self.skip_targets.append(cont)
        self._continue(index)
        self.skip_targets.pop()
        self._ensure_jump(cont)

        b.set_block(cont)
        b.add_incoming(i, b.add(i, b.const(1)), cont)
        b.br(loop)

    def _provide_entry_field(self, task: Task, iu: IU, entry, offset: int) -> None:
        b = self.b

        def emit(entry=entry, offset=offset, iu=iu):
            return b.load(
                b.gep(entry, None, offset=offset), comment=f"field {iu.name}"
            )

        self.tuples.provide(iu, task, emit)

    # ------------------------------------------------------------------
    # streaming tasks

    def _emit_filter(self, task: Task, condition, index: int) -> None:
        b = self.b
        skip = self.skip_targets[-1]
        for conjunct in conjuncts(condition):
            cond = self.exprs.emit_bool(conjunct)
            ok = b.block("pass")
            b.condbr(cond, ok, skip)
            b.set_block(ok)
        self._continue(index)

    def _emit_map(self, task: Task, op: PhysicalMap, index: int) -> None:
        for iu, expr in op.computed:
            def emit(expr=expr):
                return self.exprs.emit(expr)

            self.tuples.provide(iu, task, emit)
        self._continue(index)

    def _emit_limit(self, task: Task, op: PhysicalLimit, index: int) -> None:
        b = self.b
        offset = self.meta.limit_slot_of[op.op_id]
        counter_addr = self._state_addr(offset)
        count = b.load(counter_addr, comment="limit counter")
        full = b.cmp("cmpge", count, b.const(op.count))
        go = b.block("underLimit")
        b.condbr(full, self.exit_block, go)
        b.set_block(go)
        b.store(counter_addr, b.add(count, b.const(1)))
        self._continue(index)

    def _emit_output(self, task: Task, op: PhysicalOutput, index: int) -> None:
        b = self.b
        offset = self.meta.output_row_offset
        for i, (_, iu) in enumerate(op.columns):
            value = self.tuples.get(iu)
            b.store(self._state_addr(offset, i * 8), value)
        b.kcall(K_OUTPUT_ROW, [self._state_addr(offset), b.const(len(op.columns))])
        self._continue(index)

    # ------------------------------------------------------------------
    # hash join

    def _emit_join_build(self, task: Task, op: PhysicalHashJoin, index: int) -> None:
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        keys = [self.exprs.emit(k) for k in op.build_keys]
        hash_value = emit_hash(b, keys)
        ht_ptr = self._state_addr(ht.state_offset)
        entry = self.ctx.call_runtime(b, task, "ht_insert", [ht_ptr, hash_value])
        for i, key in enumerate(keys):
            b.store(b.gep(entry, None, offset=ht.key_offset(i)), key)
        for i, iu in enumerate(self.meta.payload_of[op.op_id]):
            value = self.tuples.get(iu)
            b.store(b.gep(entry, None, offset=ht.payload_offset(i)), value)
        self._continue(index)

    def _emit_chain_probe(
        self, task: Task, ht: HashTableSpec, keys: list[Value], hash_value: Value
    ):
        """Emit directory lookup + chain walk; returns (entry, match_block,

        cont_probe).  The builder is positioned in the match block with hash
        and keys already verified; the caller emits the match body and must
        leave every open path jumping to ``cont_probe`` (next chain entry)
        or further."""
        b = self.b
        directory = b.load(
            self._state_addr(ht.state_offset, HT_DIR), Type.PTR,
            comment="directory",
        )
        mask = b.load(self._state_addr(ht.state_offset, HT_MASK))
        bucket_addr = b.gep(directory, b.and_(hash_value, mask), scale=8)
        head = b.load(bucket_addr, Type.PTR, comment="directory lookup")

        chain = b.block("loopHashChain")
        check = b.block("checkEntry")
        cont_probe = b.block("contProbe")
        match = b.block("match")

        pred = b.current
        b.br(chain)

        b.set_block(chain)
        entry = b.phi(Type.PTR)
        b.add_incoming(entry, head, pred)
        is_null = b.cmp("cmpeq", entry, b.const(0))
        b.condbr(is_null, self.skip_targets[-1], check)

        b.set_block(check)
        stored_hash = b.load(b.gep(entry, None, offset=ENTRY_HASH))
        hash_eq = b.cmp("cmpeq", stored_hash, hash_value)
        current_fail = cont_probe
        next_block = match
        # compare each key after the hash check
        key_checks = b.block("checkKeys") if keys else match
        b.condbr(hash_eq, key_checks if keys else match, current_fail)
        if keys:
            b.set_block(key_checks)
            for i, key in enumerate(keys):
                stored = b.load(b.gep(entry, None, offset=ht.key_offset(i)))
                eq = b.cmp("cmpeq", stored, key)
                if i + 1 < len(keys):
                    nxt = b.block("checkKeys")
                else:
                    nxt = match
                b.condbr(eq, nxt, cont_probe)
                if i + 1 < len(keys):
                    b.set_block(nxt)

        b.set_block(cont_probe)
        next_entry = b.load(b.gep(entry, None, offset=ENTRY_NEXT), Type.PTR)
        b.add_incoming(entry, next_entry, cont_probe)
        b.br(chain)

        b.set_block(match)
        return entry, match, cont_probe

    def _emit_join_probe(self, task: Task, op: PhysicalHashJoin, index: int) -> None:
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        keys = [self.exprs.emit(k) for k in op.probe_keys]
        hash_value = emit_hash(b, keys)
        entry, match, cont_probe = self._emit_chain_probe(task, ht, keys, hash_value)

        for i, iu in enumerate(self.meta.payload_of[op.op_id]):
            self._provide_entry_field(task, iu, entry, ht.payload_offset(i))
        # build-side key IUs may be referenced upstream (e.g. in outputs)
        from repro.plan.expr import IURef

        for i, key_expr in enumerate(op.build_keys):
            if isinstance(key_expr, IURef) and not self.tuples.has(key_expr.iu):
                self._provide_entry_field(task, key_expr.iu, entry, ht.key_offset(i))

        self.skip_targets.append(cont_probe)
        if op.residual is not None:
            for conjunct in conjuncts(op.residual):
                cond = self.exprs.emit_bool(conjunct)
                ok = b.block("residualPass")
                b.condbr(cond, ok, cont_probe)
                b.set_block(ok)
        self._continue(index)
        self.skip_targets.pop()
        self._ensure_jump(cont_probe)

    # ------------------------------------------------------------------
    # semi / anti join (unnested EXISTS / IN subqueries)

    def _emit_semi_build(self, task: Task, op: PhysicalSemiJoin, index: int) -> None:
        """Insert subquery-side keys (plus residual payload) into the table."""
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        keys = [self.exprs.emit(k) for k in op.build_keys]
        hash_value = emit_hash(b, keys)
        ht_ptr = self._state_addr(ht.state_offset)
        entry = self.ctx.call_runtime(b, task, "ht_insert", [ht_ptr, hash_value])
        for i, key in enumerate(keys):
            b.store(b.gep(entry, None, offset=ht.key_offset(i)), key)
        for i, iu in enumerate(self.meta.payload_of[op.op_id]):
            b.store(
                b.gep(entry, None, offset=ht.payload_offset(i)), self.tuples.get(iu)
            )
        self._continue(index)

    def _emit_semi_probe(self, task: Task, op: PhysicalSemiJoin, index: int) -> None:
        """Chain walk: a probe tuple proceeds on first match (semi) or on

        chain exhaustion (anti); residual conjuncts are checked per
        candidate entry against its payload (Q21-style correlations)."""
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        payload = self.meta.payload_of[op.op_id]
        skip = self.skip_targets[-1]

        keys = [self.exprs.emit(k) for k in op.probe_keys]
        hash_value = emit_hash(b, keys)
        directory = b.load(
            self._state_addr(ht.state_offset, HT_DIR), Type.PTR, comment="directory"
        )
        mask = b.load(self._state_addr(ht.state_offset, HT_MASK))
        bucket_addr = b.gep(directory, b.and_(hash_value, mask), scale=8)
        head = b.load(bucket_addr, Type.PTR, comment="semi directory lookup")

        chain = b.block("loopSemiChain")
        check = b.block("checkSemiEntry")
        cont_probe = b.block("contSemi")
        proceed = b.block("semiProceed")

        pred = b.current
        b.br(chain)

        b.set_block(chain)
        entry = b.phi(Type.PTR)
        b.add_incoming(entry, head, pred)
        is_null = b.cmp("cmpeq", entry, b.const(0))
        # anti join: surviving the whole chain means "no match" -> proceed
        b.condbr(is_null, proceed if op.anti else skip, check)

        b.set_block(check)
        stored_hash = b.load(b.gep(entry, None, offset=ENTRY_HASH))
        hash_eq = b.cmp("cmpeq", stored_hash, hash_value)
        key_block = b.block("checkSemiKeys")
        b.condbr(hash_eq, key_block, cont_probe)
        b.set_block(key_block)
        for i, key in enumerate(keys):
            stored = b.load(b.gep(entry, None, offset=ht.key_offset(i)))
            eq = b.cmp("cmpeq", stored, key)
            nxt = b.block("checkSemiKeys") if i + 1 < len(keys) else None
            if nxt is not None:
                b.condbr(eq, nxt, cont_probe)
                b.set_block(nxt)
            else:
                matched = b.block("semiMatched")
                b.condbr(eq, matched, cont_probe)
                b.set_block(matched)

        if op.residual is not None:
            # evaluate residual against this candidate's payload in a
            # scoped context so per-entry loads never leak downstream
            forked = self.tuples.fork()
            for i, iu in enumerate(payload):
                def emit(entry=entry, offset=ht.payload_offset(i), iu=iu):
                    return b.load(
                        b.gep(entry, None, offset=offset),
                        comment=f"semi payload {iu.name}",
                    )
                forked.provide(iu, task, emit)
            residual_exprs = ExprCodegen(self.ctx, b, forked)
            for conjunct in conjuncts(op.residual):
                cond = residual_exprs.emit_bool(conjunct)
                ok = b.block("semiResidualPass")
                b.condbr(cond, ok, cont_probe)
                b.set_block(ok)

        # a fully matching entry: semi -> tuple passes; anti -> tuple fails
        if op.anti:
            b.br(skip)
        else:
            b.br(proceed)

        b.set_block(cont_probe)
        next_entry = b.load(b.gep(entry, None, offset=ENTRY_NEXT), Type.PTR)
        b.add_incoming(entry, next_entry, cont_probe)
        b.br(chain)

        b.set_block(proceed)
        self._continue(index)

    # ------------------------------------------------------------------
    # group by (hash aggregation)

    def _emit_agg_update(
        self, entry, aggregates: list[AggCall], base_index: int,
        arg_values: dict[int, Value], ht: HashTableSpec, init: bool,
    ) -> None:
        b = self.b
        for j, agg in enumerate(aggregates):
            addr = b.gep(entry, None, offset=ht.payload_offset(base_index + j))
            if agg.kind == "count":
                if init:
                    b.store(addr, b.const(1), comment="count init")
                else:
                    current = b.load(addr, comment="count")
                    b.store(addr, b.add(current, b.const(1)))
                continue
            value = arg_values[j]
            if init:
                b.store(addr, value, comment=f"{agg.kind} init")
                continue
            current = b.load(addr, comment=agg.kind)
            if agg.kind == "sum":
                updated = b.add(current, value)
            elif agg.kind == "min":
                updated = b.min(current, value)
            else:
                updated = b.max(current, value)
            b.store(addr, updated)

    def _emit_groupby_materialize(
        self, task: Task, op: PhysicalGroupBy, index: int
    ) -> None:
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        skip = self.skip_targets[-1]

        key_values = [self.exprs.emit(expr) for _, expr in op.keys]
        if key_values:
            hash_value = emit_hash(b, key_values)
        else:
            hash_value = b.crc32(b.const(0), b.const(1))  # global aggregate
        arg_values = {
            j: self.exprs.emit(agg.arg)
            for j, agg in enumerate(op.aggregates)
            if agg.arg is not None
        }

        directory = b.load(self._state_addr(ht.state_offset, HT_DIR), Type.PTR)
        mask = b.load(self._state_addr(ht.state_offset, HT_MASK))
        bucket_addr = b.gep(directory, b.and_(hash_value, mask), scale=8)
        head = b.load(bucket_addr, Type.PTR, comment="agg directory lookup")

        chain = b.block("loopAggChain")
        check = b.block("checkGroup")
        cont_probe = b.block("contGroup")
        found = b.block("groupHit")
        missing = b.block("groupMiss")

        pred = b.current
        b.br(chain)

        b.set_block(chain)
        entry = b.phi(Type.PTR)
        b.add_incoming(entry, head, pred)
        is_null = b.cmp("cmpeq", entry, b.const(0))
        b.condbr(is_null, missing, check)

        b.set_block(check)
        stored_hash = b.load(b.gep(entry, None, offset=ENTRY_HASH))
        hash_eq = b.cmp("cmpeq", stored_hash, hash_value)
        if key_values:
            keys_block = b.block("checkGroupKeys")
            b.condbr(hash_eq, keys_block, cont_probe)
            b.set_block(keys_block)
            for i, key in enumerate(key_values):
                stored = b.load(b.gep(entry, None, offset=ht.key_offset(i)))
                eq = b.cmp("cmpeq", stored, key)
                nxt = b.block("checkGroupKeys") if i + 1 < len(key_values) else found
                b.condbr(eq, nxt, cont_probe)
                if i + 1 < len(key_values):
                    b.set_block(nxt)
        else:
            b.condbr(hash_eq, found, cont_probe)

        b.set_block(cont_probe)
        next_entry = b.load(b.gep(entry, None, offset=ENTRY_NEXT), Type.PTR)
        b.add_incoming(entry, next_entry, cont_probe)
        b.br(chain)

        b.set_block(found)
        self._emit_agg_update(entry, op.aggregates, 0, arg_values, ht, init=False)
        b.br(skip)

        b.set_block(missing)
        ht_ptr = self._state_addr(ht.state_offset)
        fresh = self.ctx.call_runtime(b, task, "ht_insert", [ht_ptr, hash_value])
        for i, key in enumerate(key_values):
            b.store(b.gep(fresh, None, offset=ht.key_offset(i)), key)
        self._emit_agg_update(fresh, op.aggregates, 0, arg_values, ht, init=True)
        b.br(skip)

    # ------------------------------------------------------------------
    # groupjoin (fused group-by + join)

    def _emit_groupjoin_build(
        self, task: Task, op: PhysicalGroupJoin, index: int
    ) -> None:
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        keys = [self.exprs.emit(k) for k in op.build_keys]
        hash_value = emit_hash(b, keys)
        ht_ptr = self._state_addr(ht.state_offset)
        entry = self.ctx.call_runtime(b, task, "ht_insert", [ht_ptr, hash_value])
        for i, key in enumerate(keys):
            b.store(b.gep(entry, None, offset=ht.key_offset(i)), key)
        for i, iu in enumerate(self.meta.payload_of[op.op_id]):
            b.store(
                b.gep(entry, None, offset=ht.payload_offset(i)), self.tuples.get(iu)
            )
        # aggregate slots and the matched flag start zeroed (fresh chunks
        # are zero-filled), so nothing else to initialize here
        self._continue(index)

    def _emit_groupjoin_probe(
        self, task: Task, op: PhysicalGroupJoin, index: int
    ) -> None:
        b = self.b
        ht = self.meta.hashtable_of[op.op_id]
        payload = self.meta.payload_of[op.op_id]
        agg_base = len(payload)
        matched_offset = ht.payload_offset(agg_base + len(op.aggregates))

        keys = [self.exprs.emit(k) for k in op.probe_keys]
        hash_value = emit_hash(b, keys)
        arg_values = {
            j: self.exprs.emit(agg.arg)
            for j, agg in enumerate(op.aggregates)
            if agg.arg is not None
        }
        entry, match, cont_probe = self._emit_chain_probe(task, ht, keys, hash_value)

        skip = self.skip_targets[-1]
        matched = b.load(b.gep(entry, None, offset=matched_offset))
        first = b.block("firstMatch")
        again = b.block("laterMatch")
        is_first = b.cmp("cmpeq", matched, b.const(0))
        b.condbr(is_first, first, again)

        b.set_block(first)
        b.store(b.gep(entry, None, offset=matched_offset), b.const(1))
        self._emit_agg_update(entry, op.aggregates, agg_base, arg_values, ht, init=True)
        b.br(skip)

        b.set_block(again)
        self._emit_agg_update(entry, op.aggregates, agg_base, arg_values, ht, init=False)
        b.br(skip)

    # ------------------------------------------------------------------
    # sort

    def _emit_sort_materialize(self, task: Task, op: PhysicalSort, index: int) -> None:
        b = self.b
        buffer = self.meta.buffer_of[op.op_id]
        layout = self.meta.row_layout_of[op.op_id]
        values = [self.tuples.get(iu) for iu in layout]

        count_addr = self._state_addr(buffer.state_offset, BUF_COUNT)
        count = b.load(count_addr, comment="buffer count")
        capacity = b.load(self._state_addr(buffer.state_offset, BUF_CAP))
        full = b.cmp("cmpge", count, capacity)
        grow = b.block("growBuffer")
        have = b.block("haveRoom")
        b.condbr(full, grow, have)

        b.set_block(grow)
        buf_ptr = self._state_addr(buffer.state_offset)
        self.ctx.call_runtime(b, task, "buffer_grow", [buf_ptr])
        b.br(have)

        b.set_block(have)
        data = b.load(self._state_addr(buffer.state_offset, BUF_DATA), Type.PTR)
        row = b.gep(data, b.mul(count, b.const(buffer.row_words)), scale=8)
        for j, value in enumerate(values):
            b.store(b.gep(row, None, offset=j * 8), value)
        b.store(count_addr, b.add(count, b.const(1)))
        self._continue(index)
