"""Abstract syntax tree for the SQL subset (unbound, name-based)."""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class Identifier(Node):
    """`column` or `alias.column`."""

    qualifier: str | None
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class NumberLit(Node):
    value: int | float


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class DateLit(Node):
    value: str  # ISO text; encoded at bind time


@dataclass(frozen=True)
class Star(Node):
    """`*`, only valid inside count(*)."""


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str  # "-" | "not"
    operand: Node


@dataclass(frozen=True)
class BinaryOp(Node):
    """Arithmetic, comparison, AND/OR — disambiguated at bind time."""

    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class FuncCall(Node):
    name: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class Between(Node):
    operand: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class InList(Node):
    operand: Node
    values: tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like(Node):
    operand: Node
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class Case(Node):
    whens: tuple[tuple[Node, Node], ...]
    default: Node | None


@dataclass(frozen=True)
class ScalarSubquery(Node):
    """`(select ...)` used as a scalar value; the engine evaluates the

    subquery first and inlines its single value as a literal."""

    subquery: "SelectStmt"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


@dataclass(frozen=True)
class Exists(Node):
    """`[NOT] EXISTS (subquery)` — unnested into a semi/anti join."""

    subquery: "SelectStmt"
    negated: bool = False

    def __hash__(self):  # SelectStmt is mutable; identity is fine here
        return id(self)

    def __eq__(self, other):
        return self is other


@dataclass(frozen=True)
class InSubquery(Node):
    """`expr [NOT] IN (subquery)` — unnested into a semi/anti join."""

    operand: Node
    subquery: "SelectStmt"
    negated: bool = False

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Node
    alias: str | None


@dataclass(frozen=True)
class TableRef(Node):
    table: str
    alias: str
    subquery: "SelectStmt | None" = None


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Node
    ascending: bool


def _rewrite_ast_children(node: Node, rewrite) -> Node:
    """Rebuild ``node`` with ``rewrite`` applied to each child expression."""
    if isinstance(node, UnaryOp):
        return UnaryOp(node.op, rewrite(node.operand))
    if isinstance(node, BinaryOp):
        return BinaryOp(node.op, rewrite(node.left), rewrite(node.right))
    if isinstance(node, FuncCall):
        return FuncCall(node.name, tuple(rewrite(a) for a in node.args))
    if isinstance(node, Between):
        return Between(rewrite(node.operand), rewrite(node.low),
                       rewrite(node.high), node.negated)
    if isinstance(node, InList):
        return InList(rewrite(node.operand),
                      tuple(rewrite(v) for v in node.values), node.negated)
    if isinstance(node, Like):
        return Like(rewrite(node.operand), node.pattern, node.negated)
    if isinstance(node, Case):
        return Case(
            tuple((rewrite(c), rewrite(v)) for c, v in node.whens),
            rewrite(node.default) if node.default is not None else None,
        )
    return node


@dataclass
class SelectStmt(Node):
    distinct: bool = False
    items: list[SelectItem] = field(default_factory=list)
    tables: list[TableRef] = field(default_factory=list)
    where: Node | None = None
    group_by: list[Node] = field(default_factory=list)
    having: Node | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
