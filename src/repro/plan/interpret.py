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
import operator

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
from repro.vm.machine import _sdiv  # C-style: truncates toward zero


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": lambda a, b: a - b * _sdiv(a, b),
}
_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_FUNCTIONS = {
    "year": lambda ordinal: datetime.date.fromordinal(ordinal).year,
    "float": float,
    "to_cents": lambda value: value * 100,
}


#: encoded value -> natural units, for float arithmetic (default: float)
_NATURAL = {DataType.DECIMAL: lambda cents: cents / 100}


def _by_id(iu_id: int) -> int:
    return iu_id


def compile_expr(expr: Expr, slot=_by_id):  # noqa: C901
    """Build ``r -> value`` for a bound expression, once per expression.

    The tree is walked here and not again: what comes back is composed
    closures with every dtype rule of :mod:`repro.plan.expr` decided.  An
    :class:`IURef` reads ``r[slot(iu.id)]``: the interpreter's dict
    environments are keyed by IU id (the default), the view tier's tuple
    rows by ``slot = layout_ids.index``.  ``and``, ``or`` and ``CASE`` stay
    lazy: an operand that is not reached is not called.
    """
    if isinstance(expr, IURef):
        return operator.itemgetter(slot(expr.iu.id))
    if isinstance(expr, ConstExpr):
        value = expr.value
        return lambda r: value
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        left = compile_expr(expr.left, slot)
        right = compile_expr(expr.right, slot)
        if isinstance(expr, CompareExpr):
            test = _COMPARE[expr.op]
            return lambda r: 1 if test(left(r), right(r)) else 0
        lt, rt = expr.left.dtype, expr.right.dtype
        f = _ARITHMETIC[expr.op]
        if expr.op == "/" or expr.dtype is DataType.FLOAT:
            a, b = _NATURAL.get(lt, float), _NATURAL.get(rt, float)
            return lambda r: f(a(left(r)), b(right(r)))
        if expr.op == "*" and lt is DataType.DECIMAL and rt is DataType.DECIMAL:
            # two cents operands need rescaling
            return lambda r: _sdiv(left(r) * right(r), 100)
        return lambda r: f(left(r), right(r))
    if isinstance(expr, LogicalExpr):
        operands = [compile_expr(operand, slot) for operand in expr.operands]
        # all() and any() stop at the operand that decides, as SQL's do
        if expr.op == "and":
            return lambda r: 1 if all(f(r) for f in operands) else 0
        return lambda r: 1 if any(f(r) for f in operands) else 0
    if isinstance(expr, NotExpr):
        operand = compile_expr(expr.operand, slot)
        return lambda r: 0 if operand(r) else 1
    if isinstance(expr, InSetExpr):
        operand, values = compile_expr(expr.operand, slot), expr.values
        return lambda r: 1 if operand(r) in values else 0
    if isinstance(expr, CaseExpr):
        whens = [(compile_expr(cond, slot), compile_expr(value, slot))
                 for cond, value in expr.whens]
        default = compile_expr(expr.default, slot)

        def case(r):
            for cond, value in whens:
                if cond(r):
                    return value(r)
            return default(r)

        return case
    if isinstance(expr, FuncExpr):
        f, operand = _FUNCTIONS[expr.func], compile_expr(expr.operand, slot)
        return lambda r: f(operand(r))
    raise PlanError(f"cannot evaluate {type(expr).__name__}")


def _tupled(parts):
    """``r -> (f(r) for f in parts)`` as a tuple; short ones spelled out."""
    if len(parts) == 1:
        (f,) = parts
        return lambda r: (f(r),)
    if len(parts) == 2:
        f, g = parts
        return lambda r: (f(r), g(r))
    return lambda r: tuple([f(r) for f in parts])


def compile_exprs(exprs, slot=_by_id):
    """Build ``r -> tuple`` of the expressions' values: a key list (one C
    call where it is all columns)."""
    if len(exprs) > 1 and all(isinstance(expr, IURef) for expr in exprs):
        return operator.itemgetter(*[slot(expr.iu.id) for expr in exprs])
    return _tupled([compile_expr(expr, slot) for expr in exprs])


def compile_sort_key(keys, slot=_by_id):
    """Build ``r -> tuple`` that orders rows by ``keys``, a list of
    ``(expr, ascending)``.  All encoded values are numeric, so descending
    is negation."""
    def part(expr, ascending):
        f = compile_expr(expr, slot)
        return f if ascending else lambda r: -f(r)

    return _tupled([part(expr, ascending) for expr, ascending in keys])


def evaluate(expr: Expr, env: dict[int, object]):
    """Evaluate a bound expression against an IU environment, once; per
    row, hold on to what :func:`compile_expr` returns instead."""
    return compile_expr(expr)(env)


def _compile_aggs(aggregates: list[AggCall]) -> list:
    """``(initial, step)`` per aggregate: ``step(so_far, env)`` is the
    aggregate with ``env`` folded in (MIN and MAX start from ``None``)."""
    def one(agg: AggCall):
        if agg.kind == "count":
            return 0, lambda count, env: count + 1
        arg = compile_expr(agg.arg)
        if agg.kind == "sum":
            zero = 0.0 if agg.arg.dtype is DataType.FLOAT else 0
            return zero, lambda total, env: total + arg(env)
        best = min if agg.kind == "min" else max
        return None, lambda seen, env: (
            arg(env) if seen is None else best(seen, arg(env))
        )

    return [one(agg) for agg in aggregates]


def _fold(state: list, aggregates: list, env) -> None:
    for i, (_, step) in enumerate(aggregates):
        state[i] = step(state[i], env)


class Interpreter:
    """Executes a physical plan; records per-operator tuple counts."""

    def __init__(self):
        self.tuple_counts: dict[int, int] = {}

    def _count(self, op: PhysicalOperator, n: int = 1) -> None:
        self.tuple_counts[op.op_id] = self.tuple_counts.get(op.op_id, 0) + n

    def run(self, root: PhysicalOutput) -> list[tuple]:
        if not isinstance(root, PhysicalOutput):
            raise PlanError("plan root must be an output operator")
        project = compile_exprs([IURef(iu) for _, iu in root.columns])
        rows = []
        for env in self._execute(root.child):
            self._count(root)
            rows.append(project(env))
        return rows

    def _build_side(self, op: PhysicalHashJoin | PhysicalSemiJoin):
        """A join's build side hashed on its keys, and the probe side's
        key and residual functions."""
        build_key = compile_exprs(op.build_keys)
        table: dict[tuple, list[dict]] = {}
        for env in self._execute(op.build):
            table.setdefault(build_key(env), []).append(env)
        residual = None if op.residual is None else compile_expr(op.residual)
        return table, compile_exprs(op.probe_keys), residual

    def _execute(self, op: PhysicalOperator):  # noqa: C901
        if isinstance(op, PhysicalScan):
            ius = list(op.column_ius.items())
            columns = [(iu.id, op.table.column_named(name)) for name, iu in ius]
            for row_index in range(op.table.row_count):
                self._count(op)
                yield {iu_id: column[row_index] for iu_id, column in columns}
            return

        if isinstance(op, PhysicalSelect):
            condition = compile_expr(op.condition)
            for env in self._execute(op.child):
                if condition(env):
                    self._count(op)
                    yield env
            return

        if isinstance(op, PhysicalMap):
            computed = [(iu.id, compile_expr(expr)) for iu, expr in op.computed]
            for env in self._execute(op.child):
                self._count(op)
                for iu_id, value in computed:
                    env[iu_id] = value(env)
                yield env
            return

        if isinstance(op, PhysicalHashJoin):
            table, probe_key, residual = self._build_side(op)
            for env in self._execute(op.probe):
                for build_env in table.get(probe_key(env), ()):
                    joined = {**build_env, **env}
                    if residual is None or residual(joined):
                        self._count(op)
                        yield joined
            return

        if isinstance(op, PhysicalSemiJoin):
            table, probe_key, residual = self._build_side(op)
            for env in self._execute(op.probe):
                candidates = table.get(probe_key(env), ())
                if residual is None:
                    matched = bool(candidates)
                else:
                    matched = any(
                        residual({**inner, **env}) for inner in candidates
                    )
                if matched != op.anti:
                    self._count(op)
                    yield env
            return

        if isinstance(op, PhysicalGroupBy):
            key_of = compile_exprs([expr for _, expr in op.keys])
            aggregates = _compile_aggs(op.aggregates)
            groups: dict[tuple, list] = {}
            for env in self._execute(op.child):
                key = key_of(env)
                state = groups.get(key)
                if state is None:
                    state = groups[key] = [initial for initial, _ in aggregates]
                _fold(state, aggregates, env)
            if not op.keys and not groups:
                # SQL: a global aggregate over empty input yields one row
                # (count = 0; sum/min/max have no NULL here, so 0)
                self._count(op)
                yield {agg.output.id: 0 for agg in op.aggregates}
                return
            for key, state in groups.items():
                self._count(op)
                out: dict[int, object] = {}
                for (iu, _), value in zip(op.keys, key):
                    out[iu.id] = value
                for agg, value in zip(op.aggregates, state):
                    out[agg.output.id] = value if value is not None else 0
                yield out
            return

        if isinstance(op, PhysicalGroupJoin):
            build_key = compile_exprs(op.build_keys)
            probe_key = compile_exprs(op.probe_keys)
            aggregates = _compile_aggs(op.aggregates)
            groups: dict[tuple, tuple[dict, list, list]] = {}
            for env in self._execute(op.build):
                key = build_key(env)
                if key in groups:
                    raise PlanError("groupjoin build side is not unique on key")
                groups[key] = (env, [initial for initial, _ in aggregates], [0])
            for env in self._execute(op.probe):
                entry = groups.get(probe_key(env))
                if entry is None:
                    continue
                _fold(entry[1], aggregates, env)
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
            rows = sorted(self._execute(op.child), key=compile_sort_key(op.keys))
            for env in rows[: op.limit]:  # a limit of None keeps them all
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
