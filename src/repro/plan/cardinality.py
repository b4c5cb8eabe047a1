"""Cardinality estimation for the optimizer.

Classic System-R-style model over the column statistics the catalog keeps:
equality selects 1/ndv, ranges interpolate against min/max, joins divide by
the larger key ndv.  The optimizer-developer use case (Fig. 10) is exactly a
situation where two plans are *indistinguishable* under this model and only
profiling reveals which one wins — so the model being simple is faithful.
"""

from __future__ import annotations

from repro.catalog.table import ColumnStats
from repro.plan.expr import (
    IU,
    CompareExpr,
    ConstExpr,
    Expr,
    IURef,
    InSetExpr,
    LogicalExpr,
    NotExpr,
)
from repro.plan.logical import (
    LogicalFilter,
    LogicalSemiJoin,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalMap,
    LogicalOperator,
    LogicalOutput,
    LogicalScan,
    LogicalSort,
)

DEFAULT_SELECTIVITY = 0.33
EQ_FALLBACK_NDV = 10


class CardinalityModel:
    """Estimates row counts for (sub)plans, memoized per operator."""

    def __init__(self):
        self._iu_stats: dict[int, ColumnStats] = {}
        self._cache: dict[int, float] = {}

    def harvest_stats(self, op: LogicalOperator) -> None:
        for node in op.walk():
            if isinstance(node, LogicalScan):
                for column, iu in node.column_ius.items():
                    if iu.id not in self._iu_stats:
                        index = node.table.schema.index_of(column)
                        self._iu_stats[iu.id] = node.table.stats_for(index)

    def stats_of(self, iu: IU) -> ColumnStats | None:
        return self._iu_stats.get(iu.id)

    def ndv(self, expr: Expr, fallback: float) -> float:
        if isinstance(expr, IURef):
            stats = self.stats_of(expr.iu)
            if stats is not None and stats.distinct > 0:
                return stats.distinct
        return fallback

    # -- selectivity -------------------------------------------------------

    def selectivity(self, expr: Expr) -> float:
        if isinstance(expr, LogicalExpr):
            parts = [self.selectivity(e) for e in expr.operands]
            if expr.op == "and":
                s = 1.0
                for p in parts:
                    s *= p
                return s
            return min(1.0, sum(parts))
        if isinstance(expr, NotExpr):
            return max(0.0, 1.0 - self.selectivity(expr.operand))
        if isinstance(expr, InSetExpr):
            operand = expr.operand
            if isinstance(operand, IURef):
                stats = self.stats_of(operand.iu)
                if stats is not None and stats.distinct > 0:
                    return min(1.0, len(expr.values) / stats.distinct)
            return min(1.0, len(expr.values) / EQ_FALLBACK_NDV)
        if isinstance(expr, CompareExpr):
            return self._compare_selectivity(expr)
        return DEFAULT_SELECTIVITY

    def _compare_selectivity(self, expr: CompareExpr) -> float:
        column, constant = expr.left, expr.right
        op = expr.op
        if isinstance(column, ConstExpr) and not isinstance(constant, ConstExpr):
            column, constant = constant, column
            flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
            op = flip.get(op, op)
        if not isinstance(constant, ConstExpr) or not isinstance(column, IURef):
            return DEFAULT_SELECTIVITY
        stats = self.stats_of(column.iu)
        if stats is None or stats.distinct == 0:
            return DEFAULT_SELECTIVITY
        if op == "=":
            return 1.0 / stats.distinct
        if op == "<>":
            return 1.0 - 1.0 / stats.distinct
        lo, hi = stats.min_value, stats.max_value
        if (
            lo is None
            or hi is None
            or not isinstance(constant.value, (int, float))
            or hi <= lo
        ):
            return DEFAULT_SELECTIVITY
        fraction = (constant.value - lo) / (hi - lo)
        fraction = min(1.0, max(0.0, fraction))
        if op in ("<", "<="):
            return fraction
        return 1.0 - fraction

    # -- cardinality --------------------------------------------------------

    def estimate(self, op: LogicalOperator) -> float:
        if op.op_id in self._cache:
            return self._cache[op.op_id]
        self.harvest_stats(op)
        card = self._estimate(op)
        self._cache[op.op_id] = card
        return card

    def _estimate(self, op: LogicalOperator) -> float:
        if isinstance(op, LogicalScan):
            return float(op.table.row_count)
        if isinstance(op, LogicalFilter):
            return self.estimate(op.child) * self.selectivity(op.condition)
        if isinstance(op, LogicalJoin):
            left = self.estimate(op.left)
            right = self.estimate(op.right)
            denom = 1.0
            for lk, rk in zip(op.left_keys, op.right_keys):
                denom = max(denom, self.ndv(lk, left), self.ndv(rk, right))
            card = left * right / denom
            if op.residual is not None:
                card *= self.selectivity(op.residual)
            return max(card, 1.0)
        if isinstance(op, LogicalSemiJoin):
            left = self.estimate(op.left)
            right = self.estimate(op.right)
            key_ndv = self.ndv(op.left_keys[0], max(left, 1.0))
            # fraction of distinct outer keys with a match (containment)
            match_fraction = min(1.0, right / max(key_ndv, 1.0))
            fraction = (1.0 - match_fraction) if op.anti else match_fraction
            return max(1.0, left * max(0.05, min(0.95, fraction)))
        if isinstance(op, LogicalGroupBy):
            child = self.estimate(op.child)
            if not op.keys:
                return 1.0
            groups = 1.0
            for _, key_expr in op.keys:
                groups *= self.ndv(key_expr, max(child, 1.0) ** 0.5)
            return max(1.0, min(child, groups))
        if isinstance(op, LogicalLimit):
            return min(self.estimate(op.child), float(op.count))
        if isinstance(op, (LogicalMap, LogicalSort, LogicalOutput)):
            return self.estimate(op.child)
        raise TypeError(f"no cardinality rule for {type(op).__name__}")
