"""Scatter/gather query planning for the fleet router.

A query that references the partitioned table cannot run on one shard —
each shard only holds a slice of its rows — so the router rewrites it,
at the AST level, into two statements: a *shard statement* executed
verbatim on every shard, and a *gather statement* the router runs over
the union of the shard results, loaded as the one table ``_partials``:

* Aggregates decompose into partials: ``sum``/``count`` merge as
  ``sum(pN)``, ``min``/``max`` as themselves, and ``avg`` splits into a
  ``sum`` partial and a shared ``count(*)`` partial recombined as
  ``sum(p_sum) / sum(p_cnt)`` (guarded like the binder's ungrouped avg,
  so zero rows yield 0.0).
* GROUP BY keys ship as columns ``gN`` and the gather groups by them.
  Ungrouped aggregates carry a hidden ``count(*)`` and the gather keeps
  only ``WHERE pK > 0``: the all-zero identity rows empty shards emit
  never reach the merge (their ``min``/``max`` identities would corrupt
  it).
* The select list, HAVING, ORDER BY, LIMIT and DISTINCT carry over to
  the gather statement with every aggregate and group key replaced by
  its merge expression.  ORDER BY + LIMIT also push down to the shards
  for plain projections, where a per-shard top-K is sound.

The gather statement takes the engine's own path — parser, binder,
planner, reference interpreter (:func:`gather_rows`) — so it means what
it means on a single node, including what the binder rejects and why.

Queries that never touch the partitioned table are complete on any
single shard and route unrewritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import Catalog, Column, Schema
from repro.catalog.schema import decode_row
from repro.errors import ReproError
from repro.plan.interpret import Interpreter
from repro.plan.physical import plan_physical
from repro.sql import Binder, ast, parse, unparse
from repro.sql.ast import _rewrite_ast_children
from repro.sql.binder import (
    _ast_children,
    _find_agg_calls,
    default_column_name,
)

PARTIALS = "_partials"


class FleetPlanError(ReproError):
    """The router cannot distribute this statement."""


@dataclass
class RoutePlan:
    """How one SQL statement executes across the fleet."""

    sql: str
    scatter: bool
    shard_sql: str  # what each shard actually runs
    # scatter only: the statement run over the shard results, the names
    # their columns take in ``_partials``, and the output column names
    gather_sql: str | None = None
    partial_columns: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)


# -- statement analysis ------------------------------------------------------


def _tables(stmt: ast.SelectStmt, depth: int = 0):
    """``(table, depth)`` for every base table ``stmt`` reads; depth 0 is
    its own FROM list, deeper is a derived table or a subquery."""
    for ref in stmt.tables:
        if ref.subquery is not None:
            yield from _tables(ref.subquery, depth + 1)
        else:
            yield ref.table, depth
    for node in _expressions(stmt):
        yield from _subquery_tables(node)


def _expressions(stmt: ast.SelectStmt):
    for item in stmt.items:
        yield item.expr
    if stmt.where is not None:
        yield stmt.where
    yield from stmt.group_by
    if stmt.having is not None:
        yield stmt.having
    for order in stmt.order_by:
        yield order.expr


def _subquery_tables(node):
    if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        yield from _tables(node.subquery, depth=1)
    else:
        for child in _ast_children(node):
            yield from _subquery_tables(child)


# -- planning ----------------------------------------------------------------


def plan_route(sql: str, partition_table: str) -> RoutePlan:
    """Decide single-shard routing vs scatter/gather for one statement."""
    stmt = parse(sql)
    depths = [d for table, d in _tables(stmt) if table == partition_table]
    if not depths:
        return RoutePlan(sql=sql, scatter=False, shard_sql=sql)
    if any(depths):
        raise FleetPlanError(
            f"fleet: partitioned table {partition_table!r} inside a "
            "subquery cannot be scattered"
        )
    if len(depths) > 1:
        raise FleetPlanError(
            f"fleet: self-join of partitioned table {partition_table!r} "
            "cannot be scattered"
        )

    aggregates: list[ast.FuncCall] = []
    for node in _expressions(stmt):
        for call in _find_agg_calls(node):
            if call not in aggregates:
                aggregates.append(call)
    if aggregates or stmt.group_by:
        shard, gather = _plan_aggregation(stmt, aggregates)
        partial_columns = [item.alias for item in shard.items]
    else:
        shard, gather = _plan_projection(stmt)
        partial_columns = [f"g{i}" for i in range(len(shard.items))]
    return RoutePlan(
        sql=sql, scatter=True, shard_sql=unparse(shard),
        gather_sql=unparse(gather), partial_columns=partial_columns,
        columns=[
            item.alias or default_column_name(item.expr, i)
            for i, item in enumerate(stmt.items)
        ],
    )


def _column(name: str) -> ast.Identifier:
    # always qualified: a bare name could resolve as a select-item alias
    return ast.Identifier(PARTIALS, name)


def _gather_stmt(stmt: ast.SelectStmt, items, substitute, **clauses):
    """The gather statement: ``stmt``'s output clauses over ``_partials``.

    The gather keeps the select-item aliases, and the binder resolves a
    bare alias in ORDER BY before anything else — so those stay as they
    are while every other sort key goes through ``substitute``."""
    aliases = {item.alias for item in stmt.items if item.alias}
    order_by = [
        order
        if isinstance(order.expr, ast.Identifier)
        and order.expr.qualifier is None and order.expr.name in aliases
        else ast.OrderItem(substitute(order.expr), order.ascending)
        for order in stmt.order_by
    ]
    return ast.SelectStmt(
        distinct=stmt.distinct,
        items=[
            ast.SelectItem(expr, item.alias)
            for expr, item in zip(items, stmt.items)
        ],
        tables=[ast.TableRef(PARTIALS, PARTIALS)],
        order_by=order_by,
        limit=stmt.limit,
        **clauses,
    )


def _plan_projection(stmt: ast.SelectStmt):
    """Row scatter: shard rows pass through; sort/limit re-done at gather."""
    shard = ast.SelectStmt(
        distinct=stmt.distinct,
        items=list(stmt.items),
        tables=list(stmt.tables),
        where=stmt.where,
    )
    # per-shard top-K is sound for plain projections: every output row
    # comes from exactly one shard, so the global top-K is a subset of
    # the union of per-shard top-Ks
    if stmt.limit is not None and not stmt.distinct:
        shard.order_by = list(stmt.order_by)
        shard.limit = stmt.limit

    def sort_key(expr: ast.Node) -> ast.Node:
        for i, item in enumerate(stmt.items):
            if item.expr == expr:
                return _column(f"g{i}")
        if stmt.distinct:
            return expr  # not an output column: the binder refuses it
        # a sort key outside the select list ships as a hidden column
        shard.items.append(ast.SelectItem(expr, None))
        return _column(f"g{len(shard.items) - 1}")

    outputs = [_column(f"g{i}") for i in range(len(stmt.items))]
    return shard, _gather_stmt(stmt, outputs, sort_key, having=stmt.having)


def _plan_aggregation(stmt: ast.SelectStmt, aggregates: list[ast.FuncCall]):
    grouped = bool(stmt.group_by)
    shard = ast.SelectStmt(
        tables=list(stmt.tables),
        where=stmt.where,
        group_by=list(stmt.group_by),
        items=[
            ast.SelectItem(key, f"g{i}")
            for i, key in enumerate(stmt.group_by)
        ],
    )
    # group key / aggregate call -> what stands for it in the gather
    replace = {key: _column(f"g{i}") for i, key in enumerate(stmt.group_by)}
    group_by = list(replace.values())
    partial_of: dict[ast.FuncCall, ast.Identifier] = {}

    def partial(call: ast.FuncCall) -> ast.Identifier:
        """The ``_partials`` column carrying shard-side ``call``."""
        column = partial_of.get(call)
        if column is None:
            name = f"p{len(shard.items)}"
            shard.items.append(ast.SelectItem(call, name))
            column = partial_of[call] = _column(name)
        return column

    count_star = ast.FuncCall("count", (ast.Star(),))
    for call in aggregates:
        if call.name == "avg":
            total = ast.FuncCall(
                "sum", (partial(ast.FuncCall("sum", call.args)),)
            )
            count = ast.FuncCall("sum", (partial(count_star),))
            if grouped:
                replace[call] = ast.BinaryOp("/", total, count)
            else:
                # the binder's _guarded_avg: 0.0 over zero rows, and a
                # divisor that is safe even when both arms are evaluated
                nonzero = ast.BinaryOp("<>", count, ast.NumberLit(0))
                safe = ast.Case(((nonzero, count),), ast.NumberLit(1))
                replace[call] = ast.Case(
                    ((nonzero, ast.BinaryOp("/", total, safe)),),
                    ast.NumberLit(0.0),
                )
        else:
            merge = "sum" if call.name in ("sum", "count") else call.name
            replace[call] = ast.FuncCall(merge, (partial(call),))

    where = None
    if not grouped:
        # ungrouped aggregation emits exactly one row per shard even over
        # zero input rows; the hidden count lets the gather drop those
        # identity rows so min/max identities never leak into the merge
        where = ast.BinaryOp(">", partial(count_star), ast.NumberLit(0))

    def substitute(node: ast.Node) -> ast.Node:
        if node in replace:
            return replace[node]
        return _rewrite_ast_children(node, substitute)

    gather = _gather_stmt(
        stmt, [substitute(item.expr) for item in stmt.items], substitute,
        where=where, group_by=group_by,
        having=substitute(stmt.having) if stmt.having is not None else None,
    )
    return shard, gather


# -- gathering ---------------------------------------------------------------


def gather_rows(plan: RoutePlan, dtypes, shard_rows, dictionary) -> list:
    """Run ``plan.gather_sql`` over the shards' result rows.

    The rows load into a throw-away one-table catalog typed by the shard
    result ``dtypes`` and sharing the fleet-wide string ``dictionary``;
    from there on: parse, bind, plan, reference interpreter."""
    catalog = Catalog(dictionary)
    table = catalog.create_table(PARTIALS, Schema([
        Column(name, dtype)
        for name, dtype in zip(plan.partial_columns, dtypes)
    ]))
    for rows in shard_rows:
        table.extend(rows)
    catalog.finalize()
    bound = Binder(catalog).bind(parse(plan.gather_sql))
    physical = plan_physical(bound.plan, bound.model)
    out_dtypes = [iu.dtype for _, iu in physical.columns]
    return [
        decode_row(dictionary, raw, out_dtypes)
        for raw in Interpreter().run(physical)
    ]
