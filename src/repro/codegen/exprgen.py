"""Expression code generation: bound expressions to SSA IR.

Semantics must mirror :mod:`repro.plan.interpret` exactly — the test suite
enforces this by running every query through both executors.
"""

from __future__ import annotations

from repro.catalog.schema import DataType
from repro.codegen.context import CodegenContext, TupleContext
from repro.errors import CodegenError
from repro.ir import IRBuilder, Type
from repro.ir.nodes import Value
from repro.plan.expr import (
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

_CMP_TO_IR = {
    "=": "cmpeq",
    "<>": "cmpne",
    "<": "cmplt",
    "<=": "cmple",
    ">": "cmpgt",
    ">=": "cmpge",
}

_SMALL_SET = 4  # at most this many values as a compare chain; else a bitmap


class ExprCodegen:
    """Emits IR for bound expressions against a tuple context."""

    def __init__(self, ctx: CodegenContext, b: IRBuilder, tuples: TupleContext):
        self.ctx = ctx
        self.b = b
        self.tuples = tuples

    # -- helpers -----------------------------------------------------------

    def _natural(self, value: Value, dtype: DataType) -> Value:
        """Convert an encoded value to natural units as F64."""
        b = self.b
        if dtype is DataType.FLOAT:
            return value
        as_float = b.sitofp(value)
        if dtype is DataType.DECIMAL:
            return b.fdiv(as_float, b.const_f64(100.0))
        return as_float

    def emit_bool(self, expr: Expr) -> Value:
        value = self.emit(expr)
        if value.type is not Type.BOOL:
            raise CodegenError(f"expected boolean expression, got {value.type}")
        return value

    # -- main dispatch -------------------------------------------------------

    def emit(self, expr: Expr) -> Value:  # noqa: C901
        b = self.b
        if isinstance(expr, IURef):
            return self.tuples.get(expr.iu)
        if isinstance(expr, ConstExpr):
            if expr.dtype is DataType.FLOAT:
                return b.const_f64(float(expr.value))
            if expr.dtype is DataType.BOOL:
                return b.const(1 if expr.value else 0, Type.BOOL)
            return b.const(int(expr.value))
        if isinstance(expr, BinaryExpr):
            return self._emit_binary(expr)
        if isinstance(expr, CompareExpr):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            return b.cmp(_CMP_TO_IR[expr.op], left, right)
        if isinstance(expr, LogicalExpr):
            values = [self.emit_bool(e) for e in expr.operands]
            acc = values[0]
            for value in values[1:]:
                acc = b.and_(acc, value) if expr.op == "and" else b.or_(acc, value)
            return acc
        if isinstance(expr, NotExpr):
            value = self.emit_bool(expr.operand)
            return b.cmp("cmpeq", value, b.const(0, Type.BOOL))
        if isinstance(expr, InSetExpr):
            return self._emit_in_set(expr)
        if isinstance(expr, CaseExpr):
            result = self.emit(expr.default)
            for cond, value in reversed(expr.whens):
                cond_v = self.emit_bool(cond)
                value_v = self.emit(value)
                result = b.select(cond_v, value_v, result)
            return result
        if isinstance(expr, FuncExpr):
            return self._emit_func(expr)
        raise CodegenError(f"cannot generate code for {type(expr).__name__}")

    def _emit_binary(self, expr: BinaryExpr) -> Value:
        b = self.b
        lt, rt = expr.left.dtype, expr.right.dtype
        left = self.emit(expr.left)
        right = self.emit(expr.right)
        op = expr.op
        if op == "/":
            return b.fdiv(self._natural(left, lt), self._natural(right, rt))
        if expr.dtype is DataType.FLOAT:
            left = self._natural(left, lt)
            right = self._natural(right, rt)
            return {"+": b.add, "-": b.sub, "*": b.mul}[op](left, right)
        if op == "+":
            return b.add(left, right)
        if op == "-":
            return b.sub(left, right)
        if op == "%":
            return b.srem(left, right)
        product = b.mul(left, right)
        if lt is DataType.DECIMAL and rt is DataType.DECIMAL:
            return b.sdiv(product, b.const(100))
        return product

    def _emit_in_set(self, expr: InSetExpr) -> Value:
        b = self.b
        value = self.emit(expr.operand)
        values = sorted(expr.values)
        if not values:
            return b.const(0, Type.BOOL)
        if len(values) <= _SMALL_SET:
            acc = b.cmp("cmpeq", value, b.const(values[0]))
            for candidate in values[1:]:
                acc = b.or_(acc, b.cmp("cmpeq", value, b.const(candidate)))
            return acc
        # a bitmap over [lo, hi], in a constant slot of the query state
        # (argument 0 of every query function); lo is 0 unless the set
        # holds negative values
        lo = min(values[0], 0)
        if lo:
            value = b.sub(value, b.const(lo))
        limit = values[-1] - lo + 1
        words = [0] * ((limit + 63) // 64)
        for candidate in values:
            words[(candidate - lo) >> 6] |= 1 << ((candidate - lo) & 63)
        slot = self.ctx.state.constant(tuple(words))
        non_negative = b.cmp("cmpge", value, b.const(0))
        below = b.cmp("cmplt", value, b.const(limit))
        in_range = b.and_(non_negative, below)
        safe = b.select(in_range, value, b.const(0))
        word = b.load(
            b.gep(b.function.params[0], b.shr(safe, b.const(6)), scale=8,
                  offset=slot),
            comment="membership bitmap",
        )
        bit = b.and_(b.shr(word, b.and_(safe, b.const(63))), b.const(1))
        hit = b.cmp("cmpne", bit, b.const(0))
        return b.and_(in_range, hit)

    def _emit_func(self, expr: FuncExpr) -> Value:
        b = self.b
        value = self.emit(expr.operand)
        if expr.func == "year":
            addr, base_ordinal = self.ctx.env.year_table()
            index = b.sub(value, b.const(base_ordinal))
            table = b.const(addr, Type.PTR)
            return b.load(b.gep(table, index, scale=8), comment="year lookup")
        if expr.func == "to_cents":
            return b.mul(value, b.const(100))
        if expr.func == "float":
            return b.sitofp(value)
        raise CodegenError(f"unknown function {expr.func}")
