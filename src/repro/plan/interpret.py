"""Reference executor: interprets physical plans directly in Python.

Two roles: (1) the correctness oracle the test suite compares compiled
execution against, and (2) the engine's ``EXPLAIN ANALYZE`` — the
tuple-counting facility the paper contrasts with sample-based operator costs
(§6.1: "the tuple count is a decent approximation, [but] our sampling
approach captures the actual time spent").

Expression semantics here must match generated code *exactly*; the shared
rules are documented in :mod:`repro.plan.expr`.
"""

from __future__ import annotations

import datetime

from repro.catalog.schema import DataType
from repro.errors import PlanError
from repro.plan.expr import (
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
)
from repro.plan.physical import (
    PhysicalSemiJoin,
    PhysicalGroupBy,
    PhysicalGroupJoin,
    PhysicalHashJoin,
    PhysicalLimit,
    PhysicalMap,
    PhysicalOperator,
    PhysicalOutput,
    PhysicalScan,
    PhysicalSelect,
    PhysicalSort,
)


def _sdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _natural(value, dtype: DataType) -> float:
    """Convert an encoded value to natural units for float arithmetic."""
    if dtype is DataType.DECIMAL:
        return value / 100
    return float(value)


def evaluate(expr: Expr, env: dict[int, object]):
    """Evaluate a bound expression against an IU environment."""
    if isinstance(expr, IURef):
        return env[expr.iu.id]
    if isinstance(expr, ConstExpr):
        return expr.value
    if isinstance(expr, BinaryExpr):
        lt, rt = expr.left.dtype, expr.right.dtype
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        op = expr.op
        if op == "/":
            return _natural(a, lt) / _natural(b, rt)
        if expr.dtype is DataType.FLOAT:
            a, b = _natural(a, lt), _natural(b, rt)
            return a + b if op == "+" else a - b if op == "-" else a * b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "%":
            return a - b * _sdiv(a, b)
        # multiplication: two cents operands need rescaling
        if lt is DataType.DECIMAL and rt is DataType.DECIMAL:
            return _sdiv(a * b, 100)
        return a * b
    if isinstance(expr, CompareExpr):
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        op = expr.op
        if op == "=":
            return 1 if a == b else 0
        if op == "<>":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        return 1 if a >= b else 0
    if isinstance(expr, LogicalExpr):
        if expr.op == "and":
            for operand in expr.operands:
                if not evaluate(operand, env):
                    return 0
            return 1
        for operand in expr.operands:
            if evaluate(operand, env):
                return 1
        return 0
    if isinstance(expr, NotExpr):
        return 0 if evaluate(expr.operand, env) else 1
    if isinstance(expr, InSetExpr):
        return 1 if evaluate(expr.operand, env) in expr.values else 0
    if isinstance(expr, CaseExpr):
        for cond, value in expr.whens:
            if evaluate(cond, env):
                return evaluate(value, env)
        return evaluate(expr.default, env)
    if isinstance(expr, FuncExpr):
        value = evaluate(expr.operand, env)
        if expr.func == "year":
            return datetime.date.fromordinal(value).year
        if expr.func == "float":
            return float(value)
        if expr.func == "to_cents":
            return value * 100
        raise PlanError(f"unknown function {expr.func}")
    raise PlanError(f"cannot evaluate {type(expr).__name__}")


def _init_agg(aggregates: list[AggCall]) -> list:
    out = []
    for agg in aggregates:
        if agg.kind == "count":
            out.append(0)
        elif agg.kind == "sum":
            out.append(0 if agg.arg.dtype is not DataType.FLOAT else 0.0)
        else:
            out.append(None)
    return out


def _update_agg(state: list, aggregates: list[AggCall], env) -> None:
    for i, agg in enumerate(aggregates):
        if agg.kind == "count":
            state[i] += 1
            continue
        value = evaluate(agg.arg, env)
        if agg.kind == "sum":
            state[i] += value
        elif agg.kind == "min":
            state[i] = value if state[i] is None else min(state[i], value)
        elif agg.kind == "max":
            state[i] = value if state[i] is None else max(state[i], value)


class Interpreter:
    """Executes a physical plan; records per-operator tuple counts."""

    def __init__(self):
        self.tuple_counts: dict[int, int] = {}

    def _count(self, op: PhysicalOperator, n: int = 1) -> None:
        self.tuple_counts[op.op_id] = self.tuple_counts.get(op.op_id, 0) + n

    def run(self, root: PhysicalOutput) -> list[tuple]:
        if not isinstance(root, PhysicalOutput):
            raise PlanError("plan root must be an output operator")
        rows = []
        for env in self._execute(root.child):
            self._count(root)
            rows.append(tuple(env[iu.id] for _, iu in root.columns))
        return rows

    def _execute(self, op: PhysicalOperator):  # noqa: C901
        if isinstance(op, PhysicalScan):
            ius = list(op.column_ius.items())
            columns = [(iu.id, op.table.column_named(name)) for name, iu in ius]
            for row_index in range(op.table.row_count):
                self._count(op)
                yield {iu_id: column[row_index] for iu_id, column in columns}
            return

        if isinstance(op, PhysicalSelect):
            for env in self._execute(op.child):
                if evaluate(op.condition, env):
                    self._count(op)
                    yield env
            return

        if isinstance(op, PhysicalMap):
            for env in self._execute(op.child):
                self._count(op)
                for iu, expr in op.computed:
                    env[iu.id] = evaluate(expr, env)
                yield env
            return

        if isinstance(op, PhysicalHashJoin):
            table: dict[tuple, list[dict]] = {}
            for env in self._execute(op.build):
                key = tuple(evaluate(k, env) for k in op.build_keys)
                table.setdefault(key, []).append(env)
            for env in self._execute(op.probe):
                key = tuple(evaluate(k, env) for k in op.probe_keys)
                for build_env in table.get(key, ()):
                    joined = {**build_env, **env}
                    if op.residual is not None and not evaluate(op.residual, joined):
                        continue
                    self._count(op)
                    yield joined
            return

        if isinstance(op, PhysicalSemiJoin):
            table: dict[tuple, list[dict]] = {}
            for env in self._execute(op.build):
                key = tuple(evaluate(k, env) for k in op.build_keys)
                table.setdefault(key, []).append(env)
            for env in self._execute(op.probe):
                key = tuple(evaluate(k, env) for k in op.probe_keys)
                candidates = table.get(key, ())
                if op.residual is None:
                    matched = bool(candidates)
                else:
                    matched = any(
                        evaluate(op.residual, {**inner, **env})
                        for inner in candidates
                    )
                if matched != op.anti:
                    self._count(op)
                    yield env
            return

        if isinstance(op, PhysicalGroupBy):
            groups: dict[tuple, tuple[dict, list]] = {}
            for env in self._execute(op.child):
                key = tuple(evaluate(expr, env) for _, expr in op.keys)
                entry = groups.get(key)
                if entry is None:
                    entry = (env, _init_agg(op.aggregates))
                    groups[key] = entry
                _update_agg(entry[1], op.aggregates, env)
            if not op.keys and not groups:
                # SQL: a global aggregate over empty input yields one row
                # (count = 0; sum/min/max have no NULL here, so 0)
                self._count(op)
                yield {agg.output.id: 0 for agg in op.aggregates}
                return
            for key, (_, state) in groups.items():
                self._count(op)
                out: dict[int, object] = {}
                for (iu, _), value in zip(op.keys, key):
                    out[iu.id] = value
                for agg, value in zip(op.aggregates, state):
                    out[agg.output.id] = value if value is not None else 0
                yield out
            return

        if isinstance(op, PhysicalGroupJoin):
            groups: dict[tuple, tuple[dict, list, list]] = {}
            for env in self._execute(op.build):
                key = tuple(evaluate(k, env) for k in op.build_keys)
                if key in groups:
                    raise PlanError("groupjoin build side is not unique on key")
                groups[key] = (env, _init_agg(op.aggregates), [0])
            for env in self._execute(op.probe):
                key = tuple(evaluate(k, env) for k in op.probe_keys)
                entry = groups.get(key)
                if entry is None:
                    continue
                _update_agg(entry[1], op.aggregates, env)
                entry[2][0] += 1
            for key, (build_env, state, matched) in groups.items():
                if matched[0] == 0:
                    continue  # inner-join semantics
                self._count(op)
                out: dict[int, object] = dict(build_env)
                for iu, value in zip(op.key_ius, key):
                    out[iu.id] = value
                for agg, value in zip(op.aggregates, state):
                    out[agg.output.id] = value if value is not None else 0
                yield out
            return

        if isinstance(op, PhysicalSort):
            rows = list(self._execute(op.child))

            def sort_key(env):
                parts = []
                for expr, ascending in op.keys:
                    value = evaluate(expr, env)
                    parts.append(value if ascending else -value)
                return tuple(parts)

            rows.sort(key=sort_key)
            if op.limit is not None:
                rows = rows[: op.limit]
            for env in rows:
                self._count(op)
                yield env
            return

        if isinstance(op, PhysicalLimit):
            produced = 0
            for env in self._execute(op.child):
                if produced >= op.count:
                    return
                produced += 1
                self._count(op)
                yield env
            return

        raise PlanError(f"cannot interpret {type(op).__name__}")
