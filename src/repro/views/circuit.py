"""Delta circuits: DBSP-style incremental operators over logical plans.

``build_circuit`` compiles a bound logical plan (the same trees the SQL
binder and the EventFlow DSL produce) into a tree of *delta operators*.
Each operator consumes its children's delta Z-sets for one batch and
produces its own output delta, maintaining whatever internal state the
incremental rule needs:

- **linear** operators (filter, map, projection) pass deltas through
  unchanged in shape: ``ΔQ(I) = Q(ΔI)``;
- **joins** use the bilinear chain rule ``Δ(A⋈B) = ΔA⋈B + A⋈ΔB + ΔA⋈ΔB``,
  implemented as ``A_old⋈ΔB`` then ``ΔA⋈B_new`` over maintained key
  indexes (the two forms are equal);
- **group-by** keeps mergeable per-group partials — weighted COUNT,
  weighted SUM, and value→weight counters for MIN/MAX so retractions can
  resurface the runner-up — and emits retract/insert pairs when a group's
  output row changes, deleting groups whose weight reaches zero;
- **ORDER BY/LIMIT** is handled above the circuit by :class:`TopKState`,
  a maintained top-K that refills from the full state Z-set whenever a
  retraction touches the visible window.

Every operator charges its work to a :class:`CostMeter` in simulated
instructions/loads; the serve tier replays those charges onto real VM
workers (``Machine.advance_external``) so maintenance cost shows up in
the PMU sample stream under the view's tag.
"""

from __future__ import annotations

import heapq
from bisect import insort

from repro.errors import ViewError
from repro.catalog.schema import DataType
from repro.plan.expr import AggCall, ConstExpr, Expr, IU, IURef
from repro.plan.interpret import compile_expr, compile_exprs, compile_sort_key
from repro.plan.logical import (
    LogicalFilter,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalMap,
    LogicalOperator,
    LogicalOutput,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSort,
)
from repro.views.zset import ZSet

# -- the maintenance cost model ----------------------------------------------
# Simulated instructions charged per unit of work.  These are the same
# order of magnitude as the compiled engine's per-row costs so the
# incremental-vs-reexecute ratio in BENCH_views.json reflects work
# actually avoided, not a biased meter.
COST_BATCH = 32  # fixed dispatch cost per operator per non-empty batch
COST_INPUT_ROW = 12  # project a table delta row into the scan layout
COST_FILTER_ROW = 18  # evaluate one predicate
COST_MAP_ROW = 14  # per row, plus COST_MAP_EXPR per computed column
COST_MAP_EXPR = 10
COST_JOIN_PROBE = 28  # hash the key and probe/update one index
COST_JOIN_EMIT = 20  # materialize one joined row
COST_SEMI_PROBE = 30
COST_GROUP_UPDATE = 36  # fold one delta row into group partials
COST_GROUP_AGG = 10  # per aggregate slot folded
COST_GROUP_EMIT = 24  # re-emit one changed group
COST_TOPK_ROW = 22  # sift one delta row against the window
COST_TOPK_REFILL = 6  # per state row scanned during a refill


class CostMeter:
    """Per-operator instruction/load tally for one maintenance batch."""

    def __init__(self):
        self.instructions: dict[int, int] = {}
        self.loads: dict[int, int] = {}

    def charge(self, node: "DeltaOperator", instructions: int,
               loads: int = 0) -> None:
        if instructions:
            self.instructions[node.node_id] = (
                self.instructions.get(node.node_id, 0) + instructions
            )
        if loads:
            self.loads[node.node_id] = self.loads.get(node.node_id, 0) + loads


class DeltaOperator:
    """One node of a delta circuit."""

    kind = "delta"

    def __init__(self, node_id: int, label: str, layout: list[IU]):
        self.node_id = node_id
        self.label = label
        self.layout = layout
        self.layout_ids = [iu.id for iu in layout]

    def process(self, meter: CostMeter) -> ZSet:
        raise NotImplementedError


class DeltaInput(DeltaOperator):
    """Projects full-table delta rows into the scan's referenced columns."""

    kind = "input"

    def __init__(self, node_id: int, label: str, scan: LogicalScan):
        super().__init__(node_id, label, scan.output_ius())
        self.table = scan.table.name
        schema = scan.table.schema
        position = {
            iu.id: schema.index_of(scan.column_of(iu)) for iu in self.layout
        }
        self.project = compile_exprs(
            [IURef(iu) for iu in self.layout], position.__getitem__
        )
        self.pending = ZSet()

    def process(self, meter: CostMeter) -> ZSet:
        pending, self.pending = self.pending, ZSet()
        if not pending:
            return pending
        n = len(pending)
        project = self.project
        delta = ZSet((project(row), weight) for row, weight in pending.items())
        meter.charge(self, COST_BATCH + n * COST_INPUT_ROW, loads=n)
        return delta


class DeltaFilter(DeltaOperator):
    kind = "filter"

    def __init__(self, node_id: int, label: str, child: DeltaOperator,
                 condition: Expr):
        super().__init__(node_id, label, child.layout)
        self.child = child
        self.condition = compile_expr(condition, self.layout_ids.index)

    def process(self, meter: CostMeter) -> ZSet:
        delta = self.child.process(meter)
        if not delta:
            return delta
        n = len(delta)
        condition = self.condition
        out = ZSet(item for item in delta.items() if condition(item[0]))
        meter.charge(self, COST_BATCH + n * COST_FILTER_ROW, loads=n)
        return out


class DeltaMap(DeltaOperator):
    kind = "map"

    def __init__(self, node_id: int, label: str, child: DeltaOperator,
                 computed: list[tuple[IU, Expr]]):
        super().__init__(node_id, label,
                         child.layout + [iu for iu, _ in computed])
        self.child = child
        self.computed = computed
        self.compute = compile_exprs(
            [expr for _, expr in computed], child.layout_ids.index
        )

    def process(self, meter: CostMeter) -> ZSet:
        delta = self.child.process(meter)
        if not delta:
            return delta
        n = len(delta)
        compute = self.compute
        out = ZSet(
            (row + compute(row), weight) for row, weight in delta.items()
        )
        per_row = COST_MAP_ROW + COST_MAP_EXPR * len(self.computed)
        meter.charge(self, COST_BATCH + n * per_row, loads=n)
        return out


def _fold_index(index: dict, key: tuple, row: tuple, weight: int) -> None:
    """Add ``weight`` to ``row`` in a ``key -> {row: weight}`` index."""
    bucket = index.setdefault(key, {})
    total = bucket.get(row, 0) + weight
    if total == 0:
        del bucket[row]
        if not bucket:
            del index[key]
    else:
        bucket[row] = total


class _DeltaBinary(DeltaOperator):
    """What the joins share: two children, the key functions over each
    child's rows, the residual (``None``, or a test of a left row followed
    by a right row) and the index of the right side."""

    def __init__(self, node_id: int, label: str, layout: list[IU],
                 left: DeltaOperator, right: DeltaOperator,
                 node: LogicalJoin | LogicalSemiJoin):
        super().__init__(node_id, label, layout)
        self.left = left
        self.right = right
        self.left_key = compile_exprs(node.left_keys, left.layout_ids.index)
        self.right_key = compile_exprs(node.right_keys,
                                       right.layout_ids.index)
        both = left.layout_ids + right.layout_ids
        self.residual = (None if node.residual is None
                         else compile_expr(node.residual, both.index))
        # key -> {row: weight}; rows are stored in child layout
        self.right_index: dict[tuple, dict[tuple, int]] = {}


class DeltaJoin(_DeltaBinary):
    """Inner equi-join maintained by the bilinear chain rule."""

    kind = "join"

    def __init__(self, node_id: int, label: str, left: DeltaOperator,
                 right: DeltaOperator, node: LogicalJoin):
        super().__init__(node_id, label, left.layout + right.layout,
                         left, right, node)
        self.left_index: dict[tuple, dict[tuple, int]] = {}

    def _emit(self, out: ZSet, left_row: tuple, right_row: tuple,
              weight: int) -> None:
        row = left_row + right_row
        if self.residual is None or self.residual(row):
            out.add(row, weight)

    def process(self, meter: CostMeter) -> ZSet:
        dl = self.left.process(meter)
        dr = self.right.process(meter)
        out = ZSet()
        if not dl and not dr:
            return out
        probes = emits = 0
        # Δ(A⋈B) = A_old⋈ΔB, then ΔA⋈B_new — together they cover
        # ΔA⋈B + A⋈ΔB + ΔA⋈ΔB exactly once.  (A_old is read before any
        # left row is folded in, so ΔB can join and be indexed in one go.)
        for rrow, rweight in dr.items():
            key = self.right_key(rrow)
            probes += 1
            for lrow, lweight in self.left_index.get(key, {}).items():
                emits += 1
                self._emit(out, lrow, rrow, lweight * rweight)
            _fold_index(self.right_index, key, rrow, rweight)
        for lrow, lweight in dl.items():
            key = self.left_key(lrow)
            probes += 1
            for rrow, rweight in self.right_index.get(key, {}).items():
                emits += 1
                self._emit(out, lrow, rrow, lweight * rweight)
            _fold_index(self.left_index, key, lrow, lweight)
        meter.charge(
            self,
            COST_BATCH + probes * COST_JOIN_PROBE + emits * COST_JOIN_EMIT,
            loads=probes + emits,
        )
        return out


class DeltaSemiJoin(_DeltaBinary):
    """Semi/anti join maintained via per-left-row match counts.

    The right side of a semi-join stays a non-negative Z-set (it derives
    from base tables), so a left row is *matched* exactly when its summed
    matching right weight is positive; output flips on 0-crossings.
    """

    kind = "semijoin"

    def __init__(self, node_id: int, label: str, left: DeltaOperator,
                 right: DeltaOperator, node: LogicalSemiJoin):
        super().__init__(node_id, label, left.layout, left, right, node)
        self.anti = node.anti
        self.left_weights: dict[tuple, int] = {}
        self.left_matches: dict[tuple, int] = {}
        self.left_by_key: dict[tuple, set[tuple]] = {}

    def _matches(self, left_row: tuple, right_row: tuple) -> bool:
        if self.residual is None:
            return True
        return bool(self.residual(left_row + right_row))

    def _emitted(self, matched_weight: int) -> bool:
        return (matched_weight > 0) != self.anti

    def process(self, meter: CostMeter) -> ZSet:
        dl = self.left.process(meter)
        dr = self.right.process(meter)
        out = ZSet()
        if not dl and not dr:
            return out
        probes = 0
        # 1. fold the right delta into the index and flip existing left
        #    rows whose match count crosses zero
        for rrow, rweight in dr.items():
            key = self.right_key(rrow)
            probes += 1
            _fold_index(self.right_index, key, rrow, rweight)
            for lrow in self.left_by_key.get(key, ()):  # existing left rows
                if not self._matches(lrow, rrow):
                    continue
                probes += 1
                before = self.left_matches.get(lrow, 0)
                after = before + rweight
                self.left_matches[lrow] = after
                was = self._emitted(before)
                now = self._emitted(after)
                if was != now:
                    weight = self.left_weights.get(lrow, 0)
                    out.add(lrow, weight if now else -weight)
        # 2. fold the left delta against the *new* right state
        for lrow, lweight in dl.items():
            key = self.left_key(lrow)
            probes += 1
            known = lrow in self.left_weights
            if not known:
                matched = 0
                for rrow, rweight in self.right_index.get(key, {}).items():
                    probes += 1
                    if self._matches(lrow, rrow):
                        matched += rweight
                self.left_matches[lrow] = matched
                self.left_by_key.setdefault(key, set()).add(lrow)
            total = self.left_weights.get(lrow, 0) + lweight
            if self._emitted(self.left_matches.get(lrow, 0)):
                out.add(lrow, lweight)
            if total == 0:
                self.left_weights.pop(lrow, None)
                self.left_matches.pop(lrow, None)
                bucket = self.left_by_key.get(key)
                if bucket is not None:
                    bucket.discard(lrow)
                    if not bucket:
                        del self.left_by_key[key]
            else:
                self.left_weights[lrow] = total
        meter.charge(self, COST_BATCH + probes * COST_SEMI_PROBE,
                     loads=probes)
        return out


class _GroupState:
    __slots__ = ("weight", "slots")

    def __init__(self, aggregates: list[AggCall]):
        self.weight = 0
        # count/sum -> running weighted total; min/max -> value→weight map
        self.slots: list = [
            {} if agg.kind in ("min", "max") else 0 for agg in aggregates
        ]


class DeltaGroupBy(DeltaOperator):
    """Incremental hash aggregation with retraction support.

    Matches the reference interpreter exactly: COUNT counts rows, a
    keyless aggregate over an empty input emits one all-zeros row, MIN/MAX
    of an empty-but-alive group decode as 0, and every live group carries
    output weight 1.
    """

    kind = "groupby"

    def __init__(self, node_id: int, label: str, child: DeltaOperator,
                 node: LogicalGroupBy):
        super().__init__(node_id, label, node.output_ius())
        self.child = child
        self.keys = node.keys
        self.aggregates = node.aggregates
        slot = child.layout_ids.index
        self.key_of = compile_exprs([expr for _, expr in node.keys], slot)
        # one value per aggregate per row; COUNT is a SUM of ones
        one = ConstExpr(1, DataType.INT)
        self.arguments_of = compile_exprs(
            [one if agg.kind == "count" else agg.arg
             for agg in node.aggregates], slot,
        )
        self.groups: dict[tuple, _GroupState] = {}
        self.emitted: dict[tuple, tuple] = {}
        self._primed = bool(self.keys)  # keyless views emit zeros up front
        self._zeros_row = (0,) * len(node.aggregates)

    def _output_row(self, key: tuple, state: _GroupState) -> tuple | None:
        if state.weight <= 0:
            # a dead group vanishes — except the keyless aggregate, which
            # degenerates to one all-zeros row (interpreter semantics)
            return self._zeros_row if not self.keys else None
        values = []
        for agg, slot in zip(self.aggregates, state.slots):
            if agg.kind in ("count", "sum"):
                values.append(slot)
            else:
                best = min if agg.kind == "min" else max
                values.append(
                    best((v for v, w in slot.items() if w > 0), default=0)
                )
        return key + tuple(values)

    def process(self, meter: CostMeter) -> ZSet:
        delta = self.child.process(meter)
        out = ZSet()
        if self._primed is False:
            # first batch of a keyless view: seed the zeros row so the
            # subscriber's initial snapshot matches an empty re-execution
            self._primed = True
            self.groups[()] = _GroupState(self.aggregates)
            row = self._zeros_row
            self.emitted[()] = row
            out.add(row, 1)
        if not delta:
            return out
        key_of, arguments_of = self.key_of, self.arguments_of
        summed = [agg.kind in ("count", "sum") for agg in self.aggregates]
        touched: set[tuple] = set()
        n = len(delta)
        for row, weight in delta.items():
            key = key_of(row)
            state = self.groups.get(key)
            if state is None:
                state = self.groups[key] = _GroupState(self.aggregates)
            touched.add(key)
            state.weight += weight
            for i, value in enumerate(arguments_of(row)):
                if summed[i]:
                    state.slots[i] += weight * value
                else:
                    counts = state.slots[i]
                    total = counts.get(value, 0) + weight
                    if total == 0:
                        del counts[value]
                    else:
                        counts[value] = total
        emitsteps = 0
        for key in touched:
            state = self.groups[key]
            new_row = self._output_row(key, state)
            old_row = self.emitted.get(key)
            if new_row != old_row:
                emitsteps += 1
                if old_row is not None:
                    out.add(old_row, -1)
                if new_row is not None:
                    out.add(new_row, 1)
                    self.emitted[key] = new_row
                else:
                    del self.emitted[key]
            if state.weight <= 0 and self.keys:
                del self.groups[key]
        per_row = COST_GROUP_UPDATE + COST_GROUP_AGG * len(self.aggregates)
        meter.charge(
            self,
            COST_BATCH + n * per_row + emitsteps * COST_GROUP_EMIT,
            loads=n + emitsteps,
        )
        return out


class TopKState(DeltaOperator):
    """A maintained ORDER BY … LIMIT window with refill on retraction.

    ``entries`` is the visible window: up to ``limit`` ``(sort_key, row)``
    pairs (rows repeated per weight).  Insertions sift in directly; a
    retraction that touches the window (or arrives while it is full)
    forces a refill scan over the full state Z-set, because evicted rows
    beyond the boundary are not retained.
    """

    kind = "topk"

    def __init__(self, node_id: int, label: str, layout: list[IU],
                 sort_key, limit: int):
        super().__init__(node_id, label, layout)
        self.sort_key = sort_key  # row -> tuple, descending keys negated
        self.limit = limit
        self.entries: list[tuple[tuple, tuple]] = []
        self.refills = 0

    def visible(self) -> list[tuple]:
        return [row for _, row in self.entries]

    def update(self, delta: ZSet, state: ZSet, meter: CostMeter) -> None:
        """Fold ``delta`` into the window; ``state`` is the post-delta
        full result Z-set (the refill source)."""
        if not delta:
            return
        need_refill = False
        n = len(delta)
        for row, weight in delta.items():
            key = self.sort_key(row)
            if weight > 0:
                for _ in range(min(weight, self.limit)):
                    if (len(self.entries) >= self.limit
                            and (key, row) >= self.entries[-1]):
                        break
                    insort(self.entries, (key, row))
                del self.entries[self.limit:]
            else:
                was_full = len(self.entries) >= self.limit
                # losing a visible row while rows beyond the boundary may
                # exist means the runner-up must be rediscovered
                if self._remove(key, row, -weight) and was_full:
                    need_refill = True
                    break
        meter.charge(self, COST_BATCH + n * COST_TOPK_ROW, loads=n)
        if need_refill:
            self.refill(state, meter)

    def _remove(self, key: tuple, row: tuple, count: int) -> int:
        removed = 0
        entry = (key, row)
        while count > 0 and entry in self.entries:
            self.entries.remove(entry)
            removed += 1
            count -= 1
        return removed

    def refill(self, state: ZSet, meter: CostMeter) -> None:
        self.refills += 1
        expanded = (
            (self.sort_key(row), row)
            for row, weight in state.items()
            for _ in range(min(weight, self.limit))
        )
        self.entries = heapq.nsmallest(self.limit, expanded)
        meter.charge(self, len(state) * COST_TOPK_REFILL, loads=len(state))


class Circuit:
    """A compiled delta circuit plus its read-side ordering spec."""

    def __init__(self, root: DeltaOperator, inputs: list[DeltaInput],
                 nodes: list[DeltaOperator], sort_key,
                 limit: int | None, output_columns: list[tuple[str, IU]],
                 topk: TopKState | None = None):
        self.root = root
        self.inputs = inputs
        self.nodes = nodes
        self.sort_key = sort_key  # root row -> ORDER BY tuple, or None
        self.limit = limit
        self.topk = topk
        self.output_columns = output_columns
        self.tables = sorted({inp.table for inp in inputs})

    def feed(self, deltas: dict[str, ZSet]) -> None:
        """Hand every input its table's delta (full schema layout), if the
        batch has one, for the next ``process`` call to read."""
        for inp in self.inputs:
            inp.pending = deltas.get(inp.table, inp.pending)

    def process(self, meter: CostMeter) -> ZSet:
        return self.root.process(meter)


def _unsupported(node: LogicalOperator) -> ViewError:
    return ViewError(
        f"operator {type(node).__name__} is not maintainable incrementally"
    )


def build_circuit(root: LogicalOutput,
                  labels: dict[int, str] | None = None) -> Circuit:
    """Compile a bound plan into a delta circuit.

    ORDER BY/LIMIT are only supported as the outermost operators (they
    become the maintained top-K); a LIMIT without an ORDER BY is refused
    because its contents are nondeterministic under maintenance.
    """
    labels = labels or {}
    inputs: list[DeltaInput] = []
    nodes: list[DeltaOperator] = []
    counter = iter(range(1, 1 << 16))

    def label_of(node: LogicalOperator, default: str) -> str:
        return labels.get(node.op_id, default)

    def build(node: LogicalOperator) -> DeltaOperator:
        node_id = next(counter)
        if isinstance(node, LogicalScan):
            op = DeltaInput(node_id, label_of(node, f"input {node.alias}"),
                            node)
            inputs.append(op)
        elif isinstance(node, LogicalFilter):
            op = DeltaFilter(node_id, label_of(node, "filter"),
                             build(node.child), node.condition)
        elif isinstance(node, LogicalMap):
            op = DeltaMap(node_id, label_of(node, "map"),
                          build(node.child), node.computed)
        elif isinstance(node, LogicalJoin):
            op = DeltaJoin(node_id, label_of(node, "join"),
                           build(node.left), build(node.right), node)
        elif isinstance(node, LogicalSemiJoin):
            name = "antijoin" if node.anti else "semijoin"
            op = DeltaSemiJoin(node_id, label_of(node, name),
                               build(node.left), build(node.right), node)
        elif isinstance(node, LogicalGroupBy):
            op = DeltaGroupBy(node_id, label_of(node, "groupby"),
                              build(node.child), node)
        elif isinstance(node, (LogicalSort, LogicalLimit)):
            raise ViewError(
                "ORDER BY/LIMIT may only appear at the top of a view query"
            )
        else:
            raise _unsupported(node)
        nodes.append(op)
        return op

    node = root.child
    limit: int | None = None
    sort_keys: list[tuple[Expr, bool]] | None = None
    if isinstance(node, LogicalLimit):
        limit = node.count
        node = node.child
    if isinstance(node, LogicalSort):
        sort_keys = node.keys
        node = node.child
    if limit is not None and sort_keys is None:
        raise ViewError(
            "LIMIT without ORDER BY is not maintainable: the kept rows "
            "would be nondeterministic under incremental updates"
        )
    circuit_root = build(node)
    sort_key = None
    if sort_keys:
        sort_key = compile_sort_key(sort_keys, circuit_root.layout_ids.index)
    topk = None
    if limit is not None:
        topk = TopKState(next(counter), f"top-{limit}", circuit_root.layout,
                         sort_key, limit)
        nodes.append(topk)
    return Circuit(circuit_root, inputs, nodes, sort_key, limit,
                   root.columns, topk=topk)
