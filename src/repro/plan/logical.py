"""Logical plan operators (the dataflow graph).

Every operator carries a plan-local ``op_id`` and knows its output IUs; the
optimizer rewrites the tree, and physical planning turns it into the
executable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.table import Table
from repro.errors import PlanError
from repro.numbering import draw
from repro.plan.expr import IU, AggCall, Expr


@dataclass(eq=False)
class LogicalOperator:
    """Base class; subclasses define ``children`` and ``output_ius``."""

    op_id: int = field(default_factory=lambda: draw("logical"), init=False)

    def children(self) -> list["LogicalOperator"]:
        return []

    def output_ius(self) -> list[IU]:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return type(self).__name__.removeprefix("Logical").lower()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(eq=False)
class LogicalScan(LogicalOperator):
    """Full scan of a base table; produces one IU per referenced column."""

    table: Table
    alias: str
    column_ius: dict[str, IU] = field(default_factory=dict)

    def iu_for(self, column: str) -> IU:
        """The IU carrying ``column``, created on first reference."""
        iu = self.column_ius.get(column)
        if iu is None:
            dtype = self.table.schema.column(column).dtype
            iu = IU(f"{self.alias}.{column}", dtype)
            self.column_ius[column] = iu
        return iu

    def output_ius(self) -> list[IU]:
        return list(self.column_ius.values())

    def column_of(self, iu: IU) -> str:
        for column, candidate in self.column_ius.items():
            if candidate is iu:
                return column
        raise PlanError(f"{iu} not produced by scan of {self.alias}")


@dataclass(eq=False)
class LogicalFilter(LogicalOperator):
    child: LogicalOperator
    condition: Expr

    def children(self):
        return [self.child]

    def output_ius(self):
        return self.child.output_ius()


@dataclass(eq=False)
class LogicalJoin(LogicalOperator):
    """Inner equi-join: ``left.key_i = right.key_i`` for each key pair,

    plus an optional residual predicate evaluated on joined tuples."""

    left: LogicalOperator
    right: LogicalOperator
    left_keys: list[Expr]
    right_keys: list[Expr]
    residual: Expr | None = None

    def __post_init__(self):
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("join key lists differ in length")
        if not self.left_keys:
            raise PlanError("cross products are not supported; add a join key")

    def children(self):
        return [self.left, self.right]

    def output_ius(self):
        return self.left.output_ius() + self.right.output_ius()


@dataclass(eq=False)
class LogicalSemiJoin(LogicalOperator):
    """Semi (EXISTS/IN) or anti (NOT EXISTS/NOT IN) join.

    ``left`` is the outer input whose tuples are filtered; ``right`` is the
    unnested subquery.  Output IUs are the left side's only.  ``residual``
    may reference left IUs and right IUs (evaluated per matching candidate,
    e.g. Q21's ``l2.l_suppkey <> l1.l_suppkey`` correlation).
    """

    left: LogicalOperator
    right: LogicalOperator
    left_keys: list[Expr]
    right_keys: list[Expr]
    anti: bool = False
    residual: Expr | None = None

    def __post_init__(self):
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("semi-join key lists differ in length")
        if not self.left_keys:
            raise PlanError("semi joins need at least one key")

    def children(self):
        return [self.left, self.right]

    def output_ius(self):
        return self.left.output_ius()


@dataclass(eq=False)
class LogicalMap(LogicalOperator):
    """Computes new IUs from expressions over the child's IUs."""

    child: LogicalOperator
    computed: list[tuple[IU, Expr]]

    def children(self):
        return [self.child]

    def output_ius(self):
        return self.child.output_ius() + [iu for iu, _ in self.computed]


@dataclass(eq=False)
class LogicalGroupBy(LogicalOperator):
    """Hash aggregation: key expressions plus primitive aggregate slots."""

    child: LogicalOperator
    keys: list[tuple[IU, Expr]]
    aggregates: list[AggCall]

    def children(self):
        return [self.child]

    def output_ius(self):
        return [iu for iu, _ in self.keys] + [a.output for a in self.aggregates]


@dataclass(eq=False)
class LogicalSort(LogicalOperator):
    child: LogicalOperator
    keys: list[tuple[Expr, bool]]  # (expression, ascending)

    def children(self):
        return [self.child]

    def output_ius(self):
        return self.child.output_ius()


@dataclass(eq=False)
class LogicalLimit(LogicalOperator):
    child: LogicalOperator
    count: int

    def children(self):
        return [self.child]

    def output_ius(self):
        return self.child.output_ius()


@dataclass(eq=False)
class LogicalOutput(LogicalOperator):
    """Plan root: the SELECT list as (column name, IU) pairs."""

    child: LogicalOperator
    columns: list[tuple[str, IU]]

    def children(self):
        return [self.child]

    def output_ius(self):
        return [iu for _, iu in self.columns]

