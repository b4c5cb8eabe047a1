"""The EventFlow DSL: chainable dataflow stages over one event table.

Stages build a logical plan (the dataflow graph); ``run``/``profile`` lower
it through the shared stack: they hand the ``(bound, physical)`` pair to
``Database.execute``/``profile``, with the same ``ExecOptions`` SQL takes.
Every physical operator gets a DSL-flavoured label so all profiling
reports — annotated plan, pipelines, timelines, exports — speak the DSL's
vocabulary (the whole point of abstraction-appropriate profiling).

Example::

    flow = (EventFlow(db, "lineitem", label="shipments")
            .where("l_quantity > 10")
            .derive(revenue="l_extendedprice * (1 - l_discount)")
            .tumbling_window("l_shipdate", days=30)
            .aggregate(by=["window_start", "l_returnflag"],
                       totals={"revenue": "sum(revenue)", "n": "count(*)"})
            .order_by("window_start", "l_returnflag"))
    result = flow.run()
    profile = flow.profile(options=ExecOptions(repeats=2))
"""

from __future__ import annotations

import functools

from repro.catalog.schema import DataType
from repro.errors import SqlError
from repro.numbering import Numbering, draw, lowering
from repro.plan.cardinality import CardinalityModel
from repro.plan.expr import IU, AggCall, BinaryExpr, ConstExpr, Expr, IURef
from repro.plan.logical import (
    LogicalFilter,
    LogicalGroupBy,
    LogicalLimit,
    LogicalMap,
    LogicalOperator,
    LogicalOutput,
    LogicalScan,
    LogicalSort,
)
from repro.plan.physical import (
    PhysicalGroupBy,
    PhysicalLimit,
    PhysicalMap,
    PhysicalOutput,
    PhysicalScan,
    PhysicalSelect,
    PhysicalSort,
    plan_physical,
)
from repro.sql import ast
from repro.sql.binder import Binder, _Relation
from repro.sql.parser import parse_expression

_AGG_FUNCS = {"sum", "min", "max", "count", "avg"}


class _FlowBinder(Binder):
    """Expression binder for one flow: the source scan plus derived names."""

    def __init__(self, catalog, scan: LogicalScan, derived: dict[str, IU]):
        super().__init__(catalog)
        self._scans = [_Relation.for_table(scan)]
        self._alias_index = {scan.alias: 0}
        self._inner_start = 0
        self._derived = derived

    def resolve_column(self, node: ast.Identifier):
        if node.qualifier is None and node.name in self._derived:
            return IURef(self._derived[node.name])
        return super().resolve_column(node)


class _ScopeBinder(Binder):
    """Post-aggregation binder: only the aggregate scope's names resolve
    (per-event columns are gone once the flow has aggregated)."""

    def __init__(self, catalog, scope: dict[str, IU]):
        super().__init__(catalog)
        self._scans = []
        self._alias_index = {}
        self._inner_start = 0
        self._scope = scope

    def resolve_column(self, node: ast.Identifier):
        if node.qualifier is None and node.name in self._scope:
            return IURef(self._scope[node.name])
        raise SqlError(
            f"unknown column {node.name!r} after aggregate(); available: "
            + ", ".join(sorted(self._scope))
        )


def _numbered(stage):
    """Run a flow method in the flow's own numbering: its stages build
    one plan over many calls."""

    @functools.wraps(stage)
    def numbered(self, *args, **kwargs):
        with lowering(self._numbering):
            return stage(self, *args, **kwargs)

    return numbered


class EventFlow:
    """A chainable dataflow over one event table.

    Stage methods return ``self`` for chaining; each appends a logical
    operator and remembers a DSL label for the physical operator it will
    become.
    """

    def __init__(self, database, table: str, label: str | None = None):
        self._db = database
        self._numbering = Numbering()
        with lowering(self._numbering):
            self._scan = LogicalScan(database.catalog.table(table), table)
        self._plan: LogicalOperator = self._scan
        self._derived: dict[str, IU] = {}
        self._binder = _FlowBinder(database.catalog, self._scan, self._derived)
        self._labels: dict[int, str] = {
            self._scan.op_id: f"source {label or table}"
        }
        self._agg_scope: dict[str, IU] | None = None
        self._output_columns: list[tuple[str, IU]] | None = None
        self._sealed_root: LogicalOutput | None = None

    # -- internals -----------------------------------------------------------

    def _bind(self, text: str) -> Expr:
        return self._binder.bind_scalar(parse_expression(text))

    def _name_scope(self) -> dict[str, IU]:
        if self._agg_scope is not None:
            return self._agg_scope
        return dict(self._derived)

    def _resolve_name(self, name: str) -> IU:
        scope = self._name_scope()
        if name in scope:
            return scope[name]
        if self._agg_scope is None and self._scan.table.schema.has_column(name):
            return self._scan.iu_for(name)
        raise SqlError(f"unknown column {name!r} at this stage of the flow")

    def _require_streaming_side(self) -> None:
        if self._sealed_root is not None:
            raise SqlError("the flow is already sealed; create a new one")

    # -- stages ---------------------------------------------------------------

    @_numbered
    def where(self, condition: str) -> "EventFlow":
        """Filter events by a boolean expression."""
        self._require_streaming_side()
        if self._agg_scope is not None:
            raise SqlError("where() must come before aggregate()")
        bound = self._bind(condition)
        if bound.dtype is not DataType.BOOL:
            raise SqlError("where() needs a boolean expression")
        self._plan = LogicalFilter(self._plan, bound)
        self._labels[self._plan.op_id] = f"where#{draw('stage')}"
        return self

    @_numbered
    def derive(self, **columns: str) -> "EventFlow":
        """Compute new per-event columns from expressions."""
        self._require_streaming_side()
        if self._agg_scope is not None:
            raise SqlError("derive() must come before aggregate()")
        computed = []
        for name, text in columns.items():
            if name in self._derived:
                raise SqlError(f"column {name!r} derived twice")
            bound = self._bind(text)
            iu = IU(name, bound.dtype)
            computed.append((iu, bound))
            self._derived[name] = iu
        self._plan = LogicalMap(self._plan, computed)
        self._labels[self._plan.op_id] = f"derive#{draw('stage')}"
        return self

    @_numbered
    def tumbling_window(self, time_column: str, days: int) -> "EventFlow":
        """Assign each event to a tumbling event-time window.

        Adds a ``window_start`` column: the first day of the event's
        ``days``-wide window (windows are aligned to the day-number epoch).
        """
        self._require_streaming_side()
        if days <= 0:
            raise SqlError("window width must be positive")
        if "window_start" in self._derived:
            raise SqlError("the flow already has windows assigned")
        ts = self._bind(time_column)
        if ts.dtype is not DataType.DATE:
            raise SqlError("tumbling_window() needs a DATE column")
        width = ConstExpr(days, DataType.INT)
        window = BinaryExpr("-", ts, BinaryExpr("%", ts, width))
        iu = IU("window_start", DataType.DATE)
        self._plan = LogicalMap(self._plan, [(iu, window)])
        self._derived["window_start"] = iu
        self._labels[self._plan.op_id] = f"window[{days}d]#{draw('stage')}"
        return self

    @_numbered
    def aggregate(self, by: list[str], totals: dict[str, str]) -> "EventFlow":
        """Windowed/keyed aggregation; ends the per-event part of the flow."""
        self._require_streaming_side()
        if self._agg_scope is not None:
            raise SqlError("aggregate() may only appear once")
        keys = []
        scope: dict[str, IU] = {}
        for name in by:
            iu = self._resolve_name(name)
            key_iu = IU(name, iu.dtype)
            keys.append((key_iu, IURef(iu)))
            scope[name] = key_iu

        aggregates: list[AggCall] = []
        post_map: list[tuple[IU, Expr]] = []

        for name, text in totals.items():
            node = parse_expression(text)
            if not isinstance(node, ast.FuncCall) or node.name not in _AGG_FUNCS:
                raise SqlError(f"totals[{name!r}] must be an aggregate call")
            if len(node.args) != 1:
                raise SqlError(f"{node.name} takes exactly one argument")
            arg_node = node.args[0]
            if node.name == "count" and isinstance(arg_node, ast.Star):
                call = AggCall("count", None, IU(name, DataType.INT))
                aggregates.append(call)
                scope[name] = call.output
                continue
            arg = self._binder.bind_scalar(arg_node)
            if node.name == "avg":
                total = AggCall("sum", arg, IU(f"{name}_sum", arg.dtype))
                count = AggCall("count", arg, IU(f"{name}_n", DataType.INT))
                aggregates.extend((total, count))
                if keys:
                    # grouped: every emitted group has a count >= 1
                    ratio = BinaryExpr(
                        "/", IURef(total.output), IURef(count.output)
                    )
                else:
                    from repro.sql.binder import _guarded_avg

                    ratio = _guarded_avg(
                        IURef(total.output), IURef(count.output)
                    )
                out = IU(name, DataType.FLOAT)
                post_map.append((out, ratio))
                scope[name] = out
                continue
            kind = node.name
            call = AggCall(kind, arg,
                           IU(name, DataType.INT if kind == "count" else arg.dtype))
            aggregates.append(call)
            scope[name] = call.output

        self._plan = LogicalGroupBy(self._plan, keys, aggregates)
        self._labels[self._plan.op_id] = f"window-agg#{draw('stage')}"
        if post_map:
            self._plan = LogicalMap(self._plan, post_map)
            self._labels[self._plan.op_id] = f"finalize#{draw('stage')}"
        self._agg_scope = scope
        return self

    @_numbered
    def having(self, condition: str) -> "EventFlow":
        """Filter aggregated groups by a boolean expression.

        Only names from the aggregate scope (group keys and totals) are
        visible; per-event columns are gone once the flow has aggregated.
        """
        self._require_streaming_side()
        if self._agg_scope is None:
            raise SqlError("having() requires aggregate() first")
        binder = _ScopeBinder(self._db.catalog, self._agg_scope)
        bound = binder.bind_scalar(parse_expression(condition))
        if bound.dtype is not DataType.BOOL:
            raise SqlError("having() needs a boolean expression")
        self._plan = LogicalFilter(self._plan, bound)
        self._labels[self._plan.op_id] = f"having#{draw('stage')}"
        return self

    @_numbered
    def order_by(self, *names: str, descending: bool = False) -> "EventFlow":
        self._require_streaming_side()
        keys = [(IURef(self._resolve_name(n)), not descending) for n in names]
        self._plan = LogicalSort(self._plan, keys)
        self._labels[self._plan.op_id] = f"order#{draw('stage')}"
        return self

    @_numbered
    def limit(self, count: int) -> "EventFlow":
        self._require_streaming_side()
        self._plan = LogicalLimit(self._plan, count)
        self._labels[self._plan.op_id] = f"take[{count}]#{draw('stage')}"
        return self

    @_numbered
    def select(self, *names: str) -> "EventFlow":
        """Choose the sink's columns (defaults to the whole current scope)."""
        self._require_streaming_side()
        self._output_columns = [(n, self._resolve_name(n)) for n in names]
        return self

    # -- execution ------------------------------------------------------------

    @_numbered
    def _seal(self) -> LogicalOutput:
        if self._sealed_root is not None:
            return self._sealed_root
        columns = self._output_columns
        if columns is None:
            scope = self._name_scope()
            if not scope:
                raise SqlError("select() is required when nothing is derived")
            columns = list(scope.items())
        root = LogicalOutput(self._plan, columns)
        self._labels[root.op_id] = "sink"
        self._sealed_root = root
        return root

    @_numbered
    def _lower(self):
        root = self._seal()
        model = CardinalityModel()
        physical = plan_physical(root, model)
        for op in physical.walk():
            label = self._labels.get(op.logical_id)
            if label is not None:
                op.label_override = label
        bound = _FlowPlan(root, model)
        return bound, physical

    def explain(self) -> str:
        from repro.plan.physical import explain_physical

        _, physical = self._lower()
        return explain_physical(physical)

    def run(self, options=None):
        return self._db.execute(self._lower(), options)

    def run_interpreted(self):
        """Reference-interpreter execution (the testing oracle)."""
        from repro.plan.interpret import Interpreter

        _, physical = self._lower()
        raw = Interpreter().run(physical)
        return self._db.decode_rows(raw, physical.columns)

    def profile(self, config=None, options=None):
        return self._db.profile(self._lower(), config, options)


class _FlowPlan:
    """The ``bound``-shaped object the engine's plan entry points expect."""

    def __init__(self, plan: LogicalOutput, model: CardinalityModel):
        self.plan = plan
        self.model = model
