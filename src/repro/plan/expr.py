"""Bound expressions over Information Units (IUs).

Following Umbra's design, every value flowing through a plan is an IU: scan
operators produce one IU per referenced column, maps and group-bys produce
IUs for computed values.  Expressions reference IUs, so they are independent
of tuple layout — the code generator resolves an IU to whatever SSA value
currently holds it in the pipeline's tuple context.

Typing rules (storage encodings are documented in
:mod:`repro.catalog.schema`): DECIMAL arithmetic stays in integer
hundredths (multiplication rescales by 100, truncating — matching the
generated code exactly); any division produces FLOAT; DATE ± INT is DATE;
DATE - DATE is INT days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.schema import DataType
from repro.errors import PlanError
from repro.numbering import draw


@dataclass(frozen=True, eq=False)
class IU:
    """One named, typed value slot produced by an operator."""

    name: str
    dtype: DataType
    id: int = field(default_factory=lambda: draw("iu"))

    def __repr__(self) -> str:
        return f"IU({self.name}:{self.dtype.value}#{self.id})"


class Expr:
    """Base class for bound expressions."""

    dtype: DataType

    def ius(self) -> set[IU]:
        """All IUs referenced by this expression tree."""
        out: set[IU] = set()
        self._collect(out)
        return out

    def _collect(self, out: set[IU]) -> None:
        for child in self.children():
            child._collect(out)

    def children(self) -> list["Expr"]:
        return []


@dataclass(frozen=True)
class IURef(Expr):
    iu: IU

    @property
    def dtype(self) -> DataType:
        return self.iu.dtype

    def _collect(self, out: set[IU]) -> None:
        out.add(self.iu)

    def __str__(self) -> str:
        return self.iu.name


@dataclass(frozen=True)
class ConstExpr(Expr):
    """A literal in storage encoding (cents, day ordinal, dictionary id)."""

    value: int | float
    dtype: DataType

    def __str__(self) -> str:
        return str(self.value)


_ARITH_OPS = {"+", "-", "*", "/", "%"}


@dataclass(frozen=True)
class BinaryExpr(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {self.op!r}")

    @property
    def dtype(self) -> DataType:
        lt, rt = self.left.dtype, self.right.dtype
        if self.op == "/":
            return DataType.FLOAT
        if self.op == "%":
            # C-style remainder on the encoded integers (used by window
            # bucketing); a date remainder is a day count, not a date
            if DataType.FLOAT in (lt, rt):
                raise PlanError("% is defined on encoded integers only")
            return DataType.INT if lt is DataType.DATE else lt
        if DataType.FLOAT in (lt, rt):
            return DataType.FLOAT
        if lt is DataType.DATE and rt is DataType.DATE:
            if self.op != "-":
                raise PlanError("only subtraction is defined between dates")
            return DataType.INT
        if DataType.DATE in (lt, rt):
            return DataType.DATE
        if DataType.DECIMAL in (lt, rt):
            return DataType.DECIMAL
        return DataType.INT

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class CompareExpr(Expr):
    op: str
    left: Expr
    right: Expr
    dtype: DataType = DataType.BOOL

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class LogicalExpr(Expr):
    """AND / OR over boolean operands."""

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]
    dtype: DataType = DataType.BOOL

    def children(self) -> list[Expr]:
        return list(self.operands)

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class NotExpr(Expr):
    operand: Expr
    dtype: DataType = DataType.BOOL

    def children(self) -> list[Expr]:
        return [self.operand]

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class InSetExpr(Expr):
    """Membership in a compile-time set of encoded values.

    This is what IN-lists and (NOT) LIKE bind to: LIKE patterns are resolved
    against the frozen string dictionary at compile time.
    """

    operand: Expr
    values: frozenset[int]
    dtype: DataType = DataType.BOOL

    def children(self) -> list[Expr]:
        return [self.operand]

    def __str__(self) -> str:
        preview = sorted(self.values)[:4]
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"({self.operand} in {{{', '.join(map(str, preview))}{suffix}}})"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """CASE WHEN cond THEN value ... ELSE default END."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr

    @property
    def dtype(self) -> DataType:
        return self.whens[0][1].dtype

    def children(self) -> list[Expr]:
        out = []
        for cond, value in self.whens:
            out.extend((cond, value))
        out.append(self.default)
        return out

    def __str__(self) -> str:
        parts = " ".join(f"when {c} then {v}" for c, v in self.whens)
        return f"(case {parts} else {self.default} end)"


_FUNCS = {
    "year": DataType.INT,
    "float": DataType.FLOAT,
    "to_cents": DataType.DECIMAL,  # INT -> DECIMAL promotion (x * 100)
}


@dataclass(frozen=True)
class FuncExpr(Expr):
    """Scalar builtins: ``year(date)``, ``float(x)``."""

    func: str
    operand: Expr

    def __post_init__(self):
        if self.func not in _FUNCS:
            raise PlanError(f"unknown function {self.func!r}")

    @property
    def dtype(self) -> DataType:
        return _FUNCS[self.func]

    def children(self) -> list[Expr]:
        return [self.operand]

    def __str__(self) -> str:
        return f"{self.func}({self.operand})"


_AGG_KINDS = {"sum", "count", "min", "max"}


@dataclass(frozen=True)
class AggCall:
    """One primitive aggregate slot of a group-by.

    ``avg`` never appears here: the binder lowers it to sum/count plus a
    division in the output map.  ``count`` with ``arg=None`` is count(*).
    """

    kind: str
    arg: Expr | None
    output: IU

    def __post_init__(self):
        if self.kind not in _AGG_KINDS:
            raise PlanError(f"unknown aggregate {self.kind!r}")
        if self.kind != "count" and self.arg is None:
            raise PlanError(f"aggregate {self.kind} needs an argument")

    def __str__(self) -> str:
        return f"{self.kind}({self.arg if self.arg is not None else '*'})"


def conjuncts(expr: Expr | None, op: str = "and") -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts (with ``op``
    "or", into its OR branches)."""
    if expr is None:
        return []
    if isinstance(expr, LogicalExpr) and expr.op == op:
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(conjuncts(operand, op))
        return out
    return [expr]


def conjunction(exprs: list[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts."""
    if not exprs:
        return None
    if len(exprs) == 1:
        return exprs[0]
    return LogicalExpr("and", tuple(exprs))
