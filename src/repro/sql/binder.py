"""The binder: names to IUs, AST to bound expressions, query to plan.

Binding produces the dataflow graph (logical plan): scans with pushed-down
filters, a join tree ordered by the optimizer (or a hint), aggregation,
mapping, sort/limit, output.  Compile-time encoding decisions live here too:
string literals become dictionary ids, LIKE patterns become id sets, DECIMAL
coercions are inserted so integer-cents arithmetic is explicit in the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog import Catalog
from repro.catalog.schema import DataType, encode_date
from repro.errors import SqlError
from repro.plan.cardinality import CardinalityModel
from repro.plan.expr import (
    IU,
    AggCall,
    BinaryExpr,
    CaseExpr,
    CompareExpr,
    ConstExpr,
    Expr,
    FuncExpr,
    IURef,
    InSetExpr,
    LogicalExpr,
    NotExpr,
    conjunction,
    conjuncts,
)
from repro.plan.logical import (
    LogicalFilter,
    LogicalGroupBy,
    LogicalLimit,
    LogicalMap,
    LogicalOperator,
    LogicalOutput,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSort,
)
from repro.plan.optimizer import JoinEdge, QueryGraph, Residual, optimize_join_order
from repro.sql import ast

_AGG_FUNCS = {"sum", "avg", "min", "max", "count"}
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

TRUE = ConstExpr(1, DataType.BOOL)
FALSE = ConstExpr(0, DataType.BOOL)


def _guarded_avg(total: Expr, count: Expr) -> Expr:
    """``sum/count`` with a count-0 guard: empty input yields 0, not a fault.

    Compiled CASE evaluates both arms eagerly, so the guard must also make
    the *division itself* safe: the divisor is clamped to 1 when the count
    is zero, and the outer CASE discards that arm's value."""
    nonzero = CompareExpr("<>", count, ConstExpr(0, DataType.INT))
    safe_count = CaseExpr(((nonzero, count),), ConstExpr(1, DataType.INT))
    return CaseExpr(
        ((nonzero, BinaryExpr("/", total, safe_count)),),
        ConstExpr(0.0, DataType.FLOAT),
    )


@dataclass(frozen=True)
class AbsentString:
    """Sentinel for a string literal not present in the dictionary.

    Carries the literal's *rank* (insertion point in the sorted dictionary)
    so range comparisons still compile to integer comparisons; equality with
    an absent string is constant-false.
    """

    rank: int


class _Relation:
    """Uniform name-resolution interface over one FROM entry.

    Either a base-table scan (columns materialize lazily as IUs) or a
    derived table — a bound subquery whose output columns are fixed IUs.
    """

    def __init__(self, alias: str, plan: LogicalOperator,
                 scan: LogicalScan | None = None,
                 columns: dict[str, IU] | None = None):
        self.alias = alias
        self.plan = plan
        self._scan = scan
        self._columns = columns
        self._all_ius = (
            None if scan is not None else set(plan.output_ius())
        )

    @classmethod
    def for_table(cls, scan: LogicalScan) -> "_Relation":
        return cls(scan.alias, scan, scan=scan)

    @classmethod
    def for_subquery(cls, alias: str, root: LogicalOutput) -> "_Relation":
        columns = dict(root.columns)
        return cls(alias, root.child, columns=columns)

    def has_column(self, name: str) -> bool:
        if self._scan is not None:
            return self._scan.table.schema.has_column(name)
        return name in self._columns

    def iu_for(self, name: str) -> IU:
        if self._scan is not None:
            return self._scan.iu_for(name)
        return self._columns[name]

    def contains(self, iu: IU) -> bool:
        if self._scan is not None:
            return iu in self._scan.column_ius.values()
        return iu in self._all_ius or iu in self._columns.values()


@dataclass
class BoundQuery:
    """The binder's result: the plan plus the graph it was built from."""

    plan: LogicalOutput
    graph: QueryGraph
    model: CardinalityModel


class Binder:
    """Binds one SELECT statement against a finalized catalog."""

    def __init__(self, catalog: Catalog):
        if not catalog.finalized:
            raise SqlError("catalog must be finalized before binding queries")
        self.catalog = catalog
        self.dictionary = catalog.dictionary

    def bind(
        self,
        stmt: ast.SelectStmt,
        join_order_hint: list[str] | None = None,
        model: CardinalityModel | None = None,
    ) -> BoundQuery:
        """Bind a statement; ``model`` overrides the cardinality model
        (profile-guided feedback injects observed cardinalities here)."""
        relations: list[_Relation] = []
        alias_index: dict[str, int] = {}
        for ref in stmt.tables:
            if ref.alias in alias_index:
                raise SqlError(f"duplicate table alias {ref.alias!r}")
            alias_index[ref.alias] = len(relations)
            if ref.subquery is not None:
                # derived table: bind the subquery in its own scope
                inner = Binder(self.catalog).bind(ref.subquery)
                relations.append(_Relation.for_subquery(ref.alias, inner.plan))
            else:
                scan = LogicalScan(self.catalog.table(ref.table), ref.alias)
                relations.append(_Relation.for_table(scan))
        self._scans = relations
        self._alias_index = alias_index
        self._inner_start = 0  # scope boundary for subquery resolution

        scalar_where, subquery_preds = _split_subquery_predicates(stmt.where)
        graph = self._build_graph(stmt, relations, scalar_where)
        model = model or CardinalityModel()
        joined = optimize_join_order(graph, model, join_order_hint)
        for predicate in subquery_preds:
            joined = self._unnest_subquery(predicate, joined, model)

        has_aggs = any(
            self._contains_agg(item.expr) for item in stmt.items
        ) or any(self._contains_agg(o.expr) for o in stmt.order_by)

        if stmt.having is not None and not (stmt.group_by or has_aggs):
            raise SqlError("HAVING requires GROUP BY or aggregates")

        if stmt.distinct:
            # SELECT DISTINCT is a group-by over the whole select list
            if has_aggs:
                raise SqlError("SELECT DISTINCT with aggregates is not supported")
            if stmt.group_by:
                raise SqlError("SELECT DISTINCT with GROUP BY is redundant")
            stmt.group_by = [item.expr for item in stmt.items]

        if stmt.group_by or has_aggs:
            plan, output_scope = self._bind_aggregation(stmt, joined)
            if stmt.having is not None:
                condition = self._bind_in_scope(stmt.having, output_scope)
                if condition.dtype is not DataType.BOOL:
                    raise SqlError("HAVING condition is not boolean")
                plan = LogicalFilter(plan, condition)
        else:
            plan, output_scope = joined, None

        plan, columns, order_keys = self._bind_outputs(stmt, plan, output_scope)
        if order_keys:
            plan = LogicalSort(plan, order_keys)
        if stmt.limit is not None:
            plan = LogicalLimit(plan, stmt.limit)
        root = LogicalOutput(plan, columns)
        return BoundQuery(root, graph, model)

    # ------------------------------------------------------------------
    # query graph construction (WHERE decomposition + pushdown)

    def _build_graph(
        self,
        stmt: ast.SelectStmt,
        from_relations: list[_Relation],
        where: ast.Node | None,
    ) -> QueryGraph:
        edges: list[JoinEdge] = []
        residuals: list[Residual] = []
        pushed: dict[int, list[Expr]] = {
            i: [] for i in range(len(from_relations))
        }

        if where is not None:
            condition = self.bind_scalar(where)
            if condition.dtype is not DataType.BOOL:
                raise SqlError("WHERE condition is not boolean")
            for conjunct in conjuncts(condition):
                rels = self._relations_of(conjunct)
                edge = self._as_join_edge(conjunct)
                if edge is not None:
                    edges.append(edge)
                elif len(rels) == 1:
                    pushed[next(iter(rels))].append(conjunct)
                elif len(rels) == 0:
                    # constant predicate: attach to the first relation
                    pushed[0].append(conjunct)
                else:
                    residuals.append(Residual(frozenset(rels), conjunct))

        relations: list[LogicalOperator] = []
        for i, relation in enumerate(from_relations):
            plan: LogicalOperator = relation.plan
            if pushed[i]:
                plan = LogicalFilter(plan, conjunction(pushed[i]))
            relations.append(plan)
        return QueryGraph(
            relations=relations,
            aliases=[r.alias for r in from_relations],
            edges=edges,
            residuals=residuals,
        )

    def _relations_of(self, expr: Expr) -> set[int]:
        rels: set[int] = set()
        for iu in expr.ius():
            for i, relation in enumerate(self._scans):
                if relation.contains(iu):
                    rels.add(i)
        return rels

    def _as_join_edge(self, expr: Expr) -> JoinEdge | None:
        if not isinstance(expr, CompareExpr) or expr.op != "=":
            return None
        left_rels = self._relations_of(expr.left)
        right_rels = self._relations_of(expr.right)
        if len(left_rels) != 1 or len(right_rels) != 1 or left_rels == right_rels:
            return None
        return JoinEdge(
            next(iter(left_rels)), next(iter(right_rels)), expr.left, expr.right
        )

    # ------------------------------------------------------------------
    # aggregation

    def _contains_agg(self, node: ast.Node) -> bool:
        if isinstance(node, ast.FuncCall) and node.name in _AGG_FUNCS:
            return True
        for child in _ast_children(node):
            if self._contains_agg(child):
                return True
        return False

    def _bind_aggregation(self, stmt, joined):
        """Build the GroupBy and the post-aggregation scope."""
        key_entries: list[tuple[ast.Node, IU, Expr]] = []
        for node in stmt.group_by:
            bound = self.bind_scalar(node)
            name = str(node) if not isinstance(node, ast.Identifier) else node.name
            key_entries.append((node, IU(name, bound.dtype), bound))

        agg_entries: list[tuple[ast.Node, Expr]] = []  # (ast agg call, output expr)
        aggregates: list[AggCall] = []

        def intern_agg(kind: str, arg: Expr | None, label: str) -> IURef:
            for existing in aggregates:
                if existing.kind == kind and existing.arg == arg:
                    return IURef(existing.output)
            if kind == "count":
                dtype = DataType.INT
            else:
                dtype = arg.dtype
            call = AggCall(kind, arg, IU(label, dtype))
            aggregates.append(call)
            return IURef(call.output)

        def bind_agg_call(node: ast.FuncCall) -> Expr:
            name = node.name
            if len(node.args) != 1:
                raise SqlError(f"{name} takes exactly one argument")
            arg_node = node.args[0]
            if name == "count":
                if isinstance(arg_node, ast.Star):
                    return intern_agg("count", None, "count_star")
                arg = self.bind_scalar(arg_node)
                return intern_agg("count", arg, f"count_{len(aggregates)}")
            arg = self.bind_scalar(arg_node)
            if name == "avg":
                # division normalizes DECIMAL operands to natural units, so
                # sum(cents)/count is already the natural-unit average
                total = intern_agg("sum", arg, f"sum_{len(aggregates)}")
                count = intern_agg("count", arg, f"count_{len(aggregates)}")
                if stmt.group_by:
                    # every group that exists holds >= 1 tuple; only the
                    # ungrouped case can divide by a zero count
                    return BinaryExpr("/", total, count)
                return _guarded_avg(total, count)
            if name in ("sum", "min", "max"):
                return intern_agg(name, arg, f"{name}_{len(aggregates)}")
            raise SqlError(f"unknown aggregate {name!r}")

        for item in stmt.items:
            for call in _find_agg_calls(item.expr):
                if not any(call == seen for seen, _ in agg_entries):
                    agg_entries.append((call, bind_agg_call(call)))
        for order in stmt.order_by:
            for call in _find_agg_calls(order.expr):
                if not any(call == seen for seen, _ in agg_entries):
                    agg_entries.append((call, bind_agg_call(call)))
        if stmt.having is not None:
            for call in _find_agg_calls(stmt.having):
                if not any(call == seen for seen, _ in agg_entries):
                    agg_entries.append((call, bind_agg_call(call)))

        groupby = LogicalGroupBy(
            joined,
            [(iu, expr) for _, iu, expr in key_entries],
            aggregates,
        )
        scope = _PostAggScope(
            keys=[(node, IURef(iu)) for node, iu, _ in key_entries],
            aggs=agg_entries,
        )
        return groupby, scope

    # ------------------------------------------------------------------
    # outputs, order by

    def _bind_outputs(self, stmt, plan, scope):
        computed: list[tuple[IU, Expr]] = []
        columns: list[tuple[str, IU]] = []
        alias_to_iu: dict[str, IU] = {}

        def as_iu(expr: Expr, name: str) -> IU:
            if isinstance(expr, IURef):
                return expr.iu
            iu = IU(name, expr.dtype)
            computed.append((iu, expr))
            return iu

        for i, item in enumerate(stmt.items):
            bound = self._bind_in_scope(item.expr, scope)
            name = item.alias or default_column_name(item.expr, i)
            iu = as_iu(bound, name)
            columns.append((name, iu))
            if item.alias:
                alias_to_iu[item.alias] = iu

        order_keys: list[tuple[Expr, bool]] = []
        for order in stmt.order_by:
            node = order.expr
            if isinstance(node, ast.Identifier) and node.qualifier is None \
                    and node.name in alias_to_iu:
                key: Expr = IURef(alias_to_iu[node.name])
            else:
                bound = self._bind_in_scope(node, scope)
                # sort keys must be materializable: force them into IUs
                key = IURef(as_iu(bound, f"sortkey_{len(order_keys)}"))
            order_keys.append((key, order.ascending))

        if computed:
            plan = LogicalMap(plan, computed)
        return plan, columns, order_keys

    def _bind_in_scope(self, node: ast.Node, scope) -> Expr:
        if scope is None:
            return self.bind_scalar(node)
        # post-aggregation scope: group keys and aggregate results only
        for key_node, ref in scope.keys:
            if node == key_node:
                return ref
        for agg_node, expr in scope.aggs:
            if node == agg_node:
                return expr
        if isinstance(node, ast.Identifier):
            raise SqlError(f"column {node} is not in GROUP BY")
        if isinstance(node, (ast.NumberLit, ast.StringLit, ast.DateLit)):
            return self.bind_scalar(node)

        def bind(child: ast.Node) -> Expr:
            return self._bind_in_scope(child, scope)

        if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
            return self._coerced_compare(
                node.op, bind(node.left), bind(node.right)
            )
        if isinstance(node, ast.UnaryOp) and node.op == "-":
            operand = bind(node.operand)
            return BinaryExpr("-", ConstExpr(0, operand.dtype), operand)
        bound = self._bind_compound(node, bind)
        if bound is not None:
            return bound
        raise SqlError(f"cannot bind {type(node).__name__} after aggregation")

    # ------------------------------------------------------------------
    # subquery unnesting (EXISTS / NOT EXISTS / IN / NOT IN -> semi/anti join)

    def _unnest_subquery(
        self, predicate: ast.Node, outer_plan: LogicalOperator, model
    ) -> LogicalOperator:
        """Unnest one top-level subquery predicate into a semi/anti join.

        Supported: uncorrelated and equality-correlated EXISTS/IN subqueries
        (plus non-equality correlation conjuncts, which become the join's
        residual — TPC-H Q21's ``l2.l_suppkey <> l1.l_suppkey``).
        Subqueries may contain their own joins, filters, GROUP BY, and
        HAVING (Q18), but not ORDER BY / LIMIT / nested subqueries.
        """
        if isinstance(predicate, ast.Exists):
            stmt = predicate.subquery
            anti = predicate.negated
            in_operand = None
        elif isinstance(predicate, ast.InSubquery):
            stmt = predicate.subquery
            anti = predicate.negated
            in_operand = predicate.operand
        else:
            raise SqlError(f"unsupported subquery predicate {predicate!r}")
        if stmt.order_by or stmt.limit is not None:
            raise SqlError("ORDER BY / LIMIT are meaningless in EXISTS/IN subqueries")

        # the IN operand belongs to the *outer* scope: bind it before the
        # subquery's relations shadow anything
        outer_expr = self.bind_scalar(in_operand) if in_operand is not None else None

        outer_scans = self._scans
        outer_aliases = self._alias_index
        inner_scans: list[_Relation] = []
        inner_aliases: dict[str, int] = {}
        for ref in stmt.tables:
            if ref.subquery is not None:
                raise SqlError(
                    "derived tables inside EXISTS/IN subqueries are not supported"
                )
            if ref.alias in inner_aliases:
                raise SqlError(f"duplicate table alias {ref.alias!r} in subquery")
            inner_aliases[ref.alias] = len(inner_scans)
            inner_scans.append(_Relation.for_table(
                LogicalScan(self.catalog.table(ref.table), ref.alias)
            ))

        # combined resolution scope: inner scans shadow outer ones
        n_outer = len(outer_scans)
        self._scans = outer_scans + inner_scans
        self._alias_index = dict(outer_aliases)
        for alias, index in inner_aliases.items():
            self._alias_index[alias] = n_outer + index
        self._inner_start = n_outer
        try:
            return self._unnest_with_scope(
                stmt, anti, outer_expr, outer_plan, inner_scans, n_outer, model
            )
        finally:
            self._scans = outer_scans
            self._alias_index = outer_aliases
            self._inner_start = 0

    def _unnest_with_scope(
        self, stmt, anti, outer_expr, outer_plan, inner_scans, n_outer, model
    ) -> LogicalOperator:
        inner_edges: list[JoinEdge] = []
        inner_residuals: list[Residual] = []
        pushed: dict[int, list[Expr]] = {i: [] for i in range(len(inner_scans))}
        outer_keys: list[Expr] = []
        inner_keys: list[Expr] = []
        cross_residuals: list[Expr] = []

        scalar_where, nested = _split_subquery_predicates(stmt.where)
        if nested:
            raise SqlError("nested subqueries are not supported")
        if scalar_where is not None:
            condition = self.bind_scalar(scalar_where)
            if condition.dtype is not DataType.BOOL:
                raise SqlError("subquery WHERE condition is not boolean")
            for conjunct in conjuncts(condition):
                rels = self._relations_of(conjunct)
                inner_rels = {r - n_outer for r in rels if r >= n_outer}
                outer_rels = {r for r in rels if r < n_outer}
                if outer_rels and inner_rels:
                    # correlation: equality becomes a key pair, else residual
                    pair = self._correlation_key(conjunct, n_outer)
                    if pair is not None:
                        outer_keys.append(pair[0])
                        inner_keys.append(pair[1])
                    else:
                        cross_residuals.append(conjunct)
                elif inner_rels:
                    edge = self._as_join_edge(conjunct)
                    if edge is not None and edge.left_rel >= n_outer \
                            and edge.right_rel >= n_outer:
                        inner_edges.append(JoinEdge(
                            edge.left_rel - n_outer, edge.right_rel - n_outer,
                            edge.left_expr, edge.right_expr,
                        ))
                    elif len(inner_rels) == 1:
                        pushed[next(iter(inner_rels))].append(conjunct)
                    else:
                        inner_residuals.append(
                            Residual(frozenset(inner_rels), conjunct)
                        )
                else:
                    # outer-only (or constant): evaluate per probe tuple
                    cross_residuals.append(conjunct)

        relations: list[LogicalOperator] = []
        for i, relation in enumerate(inner_scans):
            plan: LogicalOperator = relation.plan
            if pushed[i]:
                plan = LogicalFilter(plan, conjunction(pushed[i]))
            relations.append(plan)
        inner_graph = QueryGraph(
            relations=relations,
            aliases=[r.alias for r in inner_scans],
            edges=inner_edges,
            residuals=inner_residuals,
        )
        inner_plan = optimize_join_order(inner_graph, model)

        # IN: the subquery's single select item is the inner key
        if outer_expr is not None and len(stmt.items) != 1:
            raise SqlError("IN subqueries must select exactly one column")

        if stmt.group_by or any(self._contains_agg(i.expr) for i in stmt.items):
            inner_plan, scope = self._bind_aggregation(stmt, inner_plan)
            if stmt.having is not None:
                having = self._bind_in_scope(stmt.having, scope)
                if having.dtype is not DataType.BOOL:
                    raise SqlError("HAVING condition is not boolean")
                inner_plan = LogicalFilter(inner_plan, having)
            if outer_expr is not None:
                inner_keys.append(self._bind_in_scope(stmt.items[0].expr, scope))
                outer_keys.append(outer_expr)
        elif outer_expr is not None:
            inner_keys.append(self.bind_scalar(stmt.items[0].expr))
            outer_keys.append(outer_expr)
        elif stmt.having is not None:
            raise SqlError("HAVING requires GROUP BY or aggregates")

        if not outer_keys:
            raise SqlError(
                "EXISTS subqueries must be correlated by at least one equality"
            )
        return LogicalSemiJoin(
            outer_plan,
            inner_plan,
            outer_keys,
            inner_keys,
            anti=anti,
            residual=conjunction(cross_residuals),
        )

    def _correlation_key(self, conjunct: Expr, n_outer: int):
        """(outer_expr, inner_expr) when the conjunct is an equality with

        one pure-outer and one pure-inner side; otherwise None."""
        if not isinstance(conjunct, CompareExpr) or conjunct.op != "=":
            return None
        left_rels = self._relations_of(conjunct.left)
        right_rels = self._relations_of(conjunct.right)
        left_inner = any(r >= n_outer for r in left_rels)
        right_inner = any(r >= n_outer for r in right_rels)
        if left_inner == right_inner or not left_rels or not right_rels:
            return None
        if left_inner:
            return conjunct.right, conjunct.left
        return conjunct.left, conjunct.right

    # ------------------------------------------------------------------
    # scalar binding in relation scope

    def resolve_column(self, node: ast.Identifier) -> IURef:
        if node.qualifier is not None:
            index = self._alias_index.get(node.qualifier)
            if index is None:
                raise SqlError(f"unknown table alias {node.qualifier!r}")
            relation = self._scans[index]
            if not relation.has_column(node.name):
                raise SqlError(f"no column {node.name!r} in {node.qualifier}")
            return IURef(relation.iu_for(node.name))
        # innermost scope first (the subquery's own relations), then outer
        boundary = getattr(self, "_inner_start", 0)
        for scope in (self._scans[boundary:], self._scans[:boundary]):
            matches = [r for r in scope if r.has_column(node.name)]
            if len(matches) > 1:
                raise SqlError(f"ambiguous column {node.name!r}")
            if matches:
                return IURef(matches[0].iu_for(node.name))
        raise SqlError(f"unknown column {node.name!r}")

    def bind_scalar(self, node: ast.Node) -> Expr:  # noqa: C901
        if isinstance(node, ast.Identifier):
            return self.resolve_column(node)
        if isinstance(node, ast.NumberLit):
            if isinstance(node.value, float):
                return ConstExpr(node.value, DataType.FLOAT)
            return ConstExpr(node.value, DataType.INT)
        if isinstance(node, ast.DateLit):
            return ConstExpr(encode_date(node.value), DataType.DATE)
        if isinstance(node, ast.StringLit):
            raise SqlError(
                f"string literal {node.value!r} outside a comparison context"
            )
        if isinstance(node, ast.UnaryOp) and node.op == "-":
            operand = self.bind_scalar(node.operand)
            if isinstance(operand, ConstExpr):
                return ConstExpr(-operand.value, operand.dtype)
            return BinaryExpr("-", ConstExpr(0, operand.dtype), operand)
        if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
            return self._bind_comparison(node)
        bound = self._bind_compound(node, self.bind_scalar)
        if bound is not None:
            return bound
        if isinstance(node, ast.Between):
            operand = self.bind_scalar(node.operand)
            low = self._bind_against(node.low, operand.dtype)
            high = self._bind_against(node.high, operand.dtype)
            low_cmp = self._coerced_compare(">=", operand, low)
            high_cmp = self._coerced_compare("<=", operand, high)
            both = LogicalExpr("and", (low_cmp, high_cmp))
            return NotExpr(both) if node.negated else both
        if isinstance(node, ast.InList):
            operand = self.bind_scalar(node.operand)
            values: set[int] = set()
            for value_node in node.values:
                bound = self._bind_against(value_node, operand.dtype)
                if not isinstance(bound, ConstExpr):
                    raise SqlError("IN lists must contain literals")
                if not isinstance(bound.value, AbsentString):
                    values.add(int(bound.value))
            membership: Expr = InSetExpr(operand, frozenset(values))
            if not values:
                membership = FALSE
            return NotExpr(membership) if node.negated else membership
        if isinstance(node, ast.Like):
            operand = self.bind_scalar(node.operand)
            if operand.dtype is not DataType.STRING:
                raise SqlError("LIKE applies to strings")
            ids = frozenset(self.dictionary.matching_ids(node.pattern))
            membership = InSetExpr(operand, ids) if ids else FALSE
            return NotExpr(membership) if node.negated else membership
        if isinstance(node, ast.ScalarSubquery):
            raise SqlError(
                "internal: scalar subquery should have been inlined by the "
                "engine (correlated scalar subqueries are not supported)"
            )
        if isinstance(node, (ast.Exists, ast.InSubquery)):
            raise SqlError(
                "subqueries are only supported as top-level WHERE conjuncts"
            )
        if isinstance(node, ast.FuncCall):  # the others bound above
            raise SqlError(f"aggregate {node.name} in scalar context")
        raise SqlError(f"cannot bind {type(node).__name__}")

    def _bind_compound(self, node: ast.Node, bind) -> Expr | None:
        """The constructs that bind alike in every scope, or None.

        ``bind`` resolves the operands: :meth:`bind_scalar` in relation
        scope, :meth:`_bind_in_scope` after aggregation."""
        if isinstance(node, ast.BinaryOp) and node.op in ("and", "or"):
            left, right = bind(node.left), bind(node.right)
            for side in (left, right):
                if side.dtype is not DataType.BOOL:
                    raise SqlError(f"{node.op.upper()} applied to non-boolean")
            return LogicalExpr(node.op, (left, right))
        if isinstance(node, ast.BinaryOp) and node.op not in _COMPARISONS:
            return self._combine_binary(
                node.op, bind(node.left), bind(node.right)
            )
        if isinstance(node, ast.UnaryOp) and node.op == "not":
            operand = bind(node.operand)
            if operand.dtype is not DataType.BOOL:
                raise SqlError("NOT applied to non-boolean")
            return NotExpr(operand)
        if isinstance(node, ast.FuncCall) and node.name not in _AGG_FUNCS:
            if len(node.args) != 1:
                raise SqlError(f"{node.name} takes one argument")
            return FuncExpr(node.name, bind(node.args[0]))
        if not isinstance(node, ast.Case):
            return None
        whens = []
        default: Expr | None = (
            bind(node.default) if node.default is not None else None
        )
        target_dtype = None
        for cond_node, value_node in node.whens:
            cond = bind(cond_node)
            if cond.dtype is not DataType.BOOL:
                raise SqlError("CASE condition is not boolean")
            value = bind(value_node)
            if target_dtype is None:
                target_dtype = value.dtype
            whens.append((cond, self._coerce(value, target_dtype)))
        if default is None:
            default = ConstExpr(0, target_dtype)
        else:
            default = self._coerce(default, target_dtype)
        return CaseExpr(tuple(whens), default)

    # -- coercion helpers ---------------------------------------------------

    def _bind_against(self, node: ast.Node, dtype: DataType) -> Expr:
        """Bind ``node`` knowing it will meet a value of type ``dtype``."""
        if isinstance(node, ast.StringLit):
            if dtype is not DataType.STRING:
                raise SqlError(f"string literal {node.value!r} vs {dtype.value}")
            found = self.dictionary.lookup(node.value)
            if found is None:
                return ConstExpr(
                    AbsentString(self.dictionary.rank(node.value)), DataType.STRING
                )
            return ConstExpr(found, DataType.STRING)
        bound = self.bind_scalar(node)
        try:
            return self._coerce(bound, dtype)
        except SqlError:
            # leave mixed numeric comparisons to _coerced_compare, which
            # knows how to normalize DECIMAL against non-constant FLOAT
            if bound.dtype.is_numeric and dtype.is_numeric:
                return bound
            raise

    def _coerce(self, expr: Expr, dtype: DataType) -> Expr:
        if expr.dtype is dtype:
            return expr
        if dtype is DataType.DECIMAL and expr.dtype is DataType.INT:
            if isinstance(expr, ConstExpr):
                return ConstExpr(expr.value * 100, DataType.DECIMAL)
            return FuncExpr("to_cents", expr)
        if dtype is DataType.DECIMAL and expr.dtype is DataType.FLOAT:
            if isinstance(expr, ConstExpr):
                return ConstExpr(round(expr.value * 100), DataType.DECIMAL)
        if dtype is DataType.FLOAT and expr.dtype is DataType.INT:
            if isinstance(expr, ConstExpr):
                return ConstExpr(float(expr.value), DataType.FLOAT)
            return FuncExpr("float", expr)
        if dtype is DataType.FLOAT and expr.dtype is DataType.DECIMAL:
            # natural-unit conversion: division normalizes cents to floats
            return BinaryExpr("/", expr, ConstExpr(1, DataType.INT))
        if dtype is DataType.INT and expr.dtype is DataType.FLOAT \
                and isinstance(expr, ConstExpr):
            return ConstExpr(expr.value, DataType.FLOAT)
        if {expr.dtype, dtype} <= {DataType.INT, DataType.DATE}:
            return expr  # dates are day numbers; int arithmetic is fine
        raise SqlError(f"cannot coerce {expr.dtype.value} to {dtype.value}")

    def _combine_binary(self, op: str, left: Expr, right: Expr) -> Expr:
        if op not in ("+", "-", "*", "/", "%"):
            raise SqlError(f"unexpected operator {op!r}")
        if op == "%":
            if right.dtype is not DataType.INT or left.dtype is DataType.FLOAT:
                raise SqlError("% needs an integer right operand and a "
                               "non-float left operand")
            return BinaryExpr(op, left, right)
        if op != "/":
            if left.dtype is DataType.DECIMAL and right.dtype is DataType.INT:
                right = self._coerce_for_arith(op, right)
            elif right.dtype is DataType.DECIMAL and left.dtype is DataType.INT:
                left = self._coerce_for_arith(op, left)
        return BinaryExpr(op, left, right)

    def _coerce_for_arith(self, op: str, expr: Expr) -> Expr:
        # DECIMAL * INT keeps the cents scale; DECIMAL ± INT needs cents
        if op == "*":
            return expr
        return self._coerce(expr, DataType.DECIMAL)

    def _bind_comparison(self, node: ast.BinaryOp) -> Expr:
        left = self.bind_scalar(node.left) if not isinstance(
            node.left, ast.StringLit
        ) else None
        if left is None:
            # string literal on the left: bind right first
            right = self.bind_scalar(node.right)
            left = self._bind_against(node.left, right.dtype)
        else:
            right = self._bind_against(node.right, left.dtype)
        return self._coerced_compare(node.op, left, right)

    def _coerced_compare(self, op: str, left: Expr, right: Expr) -> Expr:
        # normalize an absent-string sentinel onto the right-hand side
        if isinstance(left, ConstExpr) and isinstance(left.value, AbsentString):
            flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
            left, right, op = right, left, flip.get(op, op)
        if isinstance(right, ConstExpr) and isinstance(right.value, AbsentString):
            rank = right.value.rank
            if op == "=":
                return FALSE
            if op == "<>":
                return TRUE
            # id(x) < rank  <=>  x < literal  (and <= since literal absent)
            if op in ("<", "<="):
                return CompareExpr("<", left, ConstExpr(rank, DataType.STRING))
            return CompareExpr(">=", left, ConstExpr(rank, DataType.STRING))
        lt, rt = left.dtype, right.dtype
        if lt is DataType.DECIMAL and rt is DataType.FLOAT \
                and not isinstance(right, ConstExpr):
            left = self._coerce(left, DataType.FLOAT)
        elif rt is DataType.DECIMAL and lt is DataType.FLOAT \
                and not isinstance(left, ConstExpr):
            right = self._coerce(right, DataType.FLOAT)
        elif lt is DataType.DECIMAL and rt in (DataType.INT, DataType.FLOAT):
            right = self._coerce(right, DataType.DECIMAL)
        elif rt is DataType.DECIMAL and lt in (DataType.INT, DataType.FLOAT):
            left = self._coerce(left, DataType.DECIMAL)
        elif lt is DataType.FLOAT and rt is DataType.INT:
            right = self._coerce(right, DataType.FLOAT)
        elif rt is DataType.FLOAT and lt is DataType.INT:
            left = self._coerce(left, DataType.FLOAT)
        return CompareExpr(op, left, right)


@dataclass
class _PostAggScope:
    keys: list[tuple[ast.Node, IURef]]
    aggs: list[tuple[ast.Node, Expr]]


def _split_subquery_predicates(
    where: ast.Node | None,
) -> tuple[ast.Node | None, list[ast.Node]]:
    """Separate top-level EXISTS/IN-subquery conjuncts from scalar ones."""
    if where is None:
        return None, []
    scalars: list[ast.Node] = []
    subqueries: list[ast.Node] = []

    def walk(node: ast.Node) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "and":
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ast.Exists, ast.InSubquery)):
            subqueries.append(node)
        else:
            scalars.append(node)

    walk(where)
    remaining: ast.Node | None = None
    for scalar in scalars:
        remaining = scalar if remaining is None else ast.BinaryOp(
            "and", remaining, scalar
        )
    return remaining, subqueries


def _ast_children(node: ast.Node) -> list[ast.Node]:
    if isinstance(node, ast.UnaryOp):
        return [node.operand]
    if isinstance(node, ast.BinaryOp):
        return [node.left, node.right]
    if isinstance(node, ast.FuncCall):
        return list(node.args)
    if isinstance(node, ast.Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, ast.InList):
        return [node.operand, *node.values]
    if isinstance(node, ast.Like):
        return [node.operand]
    if isinstance(node, ast.Case):
        out = []
        for cond, value in node.whens:
            out.extend((cond, value))
        if node.default is not None:
            out.append(node.default)
        return out
    return []


def _find_agg_calls(node: ast.Node) -> list[ast.FuncCall]:
    if isinstance(node, ast.FuncCall) and node.name in _AGG_FUNCS:
        return [node]
    out: list[ast.FuncCall] = []
    for child in _ast_children(node):
        out.extend(_find_agg_calls(child))
    return out


def default_column_name(node: ast.Node, index: int) -> str:
    """Output name of an unaliased select item at position ``index``."""
    if isinstance(node, ast.Identifier):
        return node.name
    if isinstance(node, ast.FuncCall):
        return node.name
    return f"col{index}"
