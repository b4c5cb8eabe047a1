"""Grammar-driven SQL generation over a fuzz dataset's schema.

The generator walks the dataset's catalog — table schemas, column types,
and foreign-key edges — and emits queries the binder accepts by
construction: every column reference is alias-qualified, joins only follow
declared FK edges, arithmetic respects the type rules (``%`` stays
integral, ``/`` divides by non-zero literals), string literals appear only
in comparison positions, and LIMIT is only attached once an ORDER BY over
every output column makes the prefix deterministic.

Literals are sampled from the actual data (plus near-misses and values
absent from the dictionary) so predicates select interesting, non-empty,
non-total subsets most of the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.catalog import DataType
from repro.sql import ast, unparse
from repro.fuzz.dataset import Dataset, TableData

_NUMERIC = (DataType.INT, DataType.DECIMAL)
_COMPARE_OPS = ["=", "<>", "<", "<=", ">", ">="]


@dataclass
class GeneratedQuery:
    """One fuzz case: SQL text plus the metadata the oracle needs."""

    sql: str
    stmt: ast.SelectStmt
    aliases: list[str]  # table aliases, for join-order-hint permutations
    # (output column index, ascending) for each ORDER BY key that refers
    # to a select item — the oracle checks sortedness against these
    ordered_by: list[tuple[int, bool]] = field(default_factory=list)
    features: frozenset[str] = frozenset()


class QueryGenerator:
    """Seeded query source for one dataset."""

    def __init__(self, dataset: Dataset, rng: Random):
        self.dataset = dataset
        self.rng = rng
        # join graph: (table_a, col_a, table_b, col_b), symmetric lookup
        self._edges: dict[str, list[tuple[str, str, str]]] = {}
        for fk in dataset.foreign_keys:
            self._edges.setdefault(fk.child, []).append(
                (fk.child_column, fk.parent, fk.parent_column)
            )
            self._edges.setdefault(fk.parent, []).append(
                (fk.parent_column, fk.child, fk.child_column)
            )

    # -- schema walking ------------------------------------------------------

    def _pick_tables(self) -> list[tuple[str, str, "ast.Node | None"]]:
        """Choose 1-3 connected tables; returns (table, alias, join pred)."""
        rng = self.rng
        names = list(self.dataset.tables)
        start = rng.choice(names)
        chosen = [(start, "t0", None)]
        alias_of = {start: "t0"}
        want = rng.choice([1, 1, 2, 2, 2, 3])
        while len(chosen) < want:
            # extend from any already-chosen table along an FK edge
            frontier = []
            for table in alias_of:
                for col, other, other_col in self._edges.get(table, []):
                    if other not in alias_of:
                        frontier.append((table, col, other, other_col))
            if not frontier:
                break
            table, col, other, other_col = rng.choice(frontier)
            alias = f"t{len(chosen)}"
            alias_of[other] = alias
            pred = ast.BinaryOp(
                "=",
                ast.Identifier(alias_of[table], col),
                ast.Identifier(alias, other_col),
            )
            chosen.append((other, alias, pred))
        return chosen

    def _columns(self, tables, types=None) -> list[tuple[str, str, DataType]]:
        """(alias, column, dtype) over the chosen tables, optionally typed."""
        out = []
        for table, alias, _ in tables:
            for name, dtype in self.dataset.tables[table].columns:
                if types is None or dtype in types:
                    out.append((alias, name, dtype))
        return out

    def _table_of(self, tables, alias: str) -> TableData:
        for table, a, _ in tables:
            if a == alias:
                return self.dataset.tables[table]
        raise KeyError(alias)

    # -- literals ------------------------------------------------------------

    def _literal_for(self, tables, alias, column, dtype) -> ast.Node:
        """A literal comparable with the column: usually a real value."""
        rng = self.rng
        values = self._table_of(tables, alias).values_of(column)
        if dtype is DataType.STRING:
            if values and rng.random() < 0.75:
                return ast.StringLit(rng.choice(values))
            return ast.StringLit(rng.choice(["missing", "zz", ""]))
        if dtype is DataType.DATE:
            if values and rng.random() < 0.75:
                return ast.DateLit(rng.choice(values))
            return ast.DateLit(rng.choice(["2019-12-31", "2021-12-31"]))
        if dtype is DataType.BOOL:
            return ast.NumberLit(rng.choice([0, 1]))
        if values and rng.random() < 0.7:
            base = rng.choice(values)
            if dtype is DataType.INT:
                return ast.NumberLit(int(base) + rng.choice([-1, 0, 0, 1]))
            return ast.NumberLit(round(float(base) + rng.choice([-0.5, 0.0, 0.01]), 2))
        if dtype is DataType.INT:
            return ast.NumberLit(rng.randint(-10, 10))
        return ast.NumberLit(round(rng.uniform(-20.0, 60.0), 2))

    # -- scalar expressions --------------------------------------------------

    def _numeric_expr(self, tables, depth: int = 0, ints_only: bool = False) -> ast.Node:
        rng = self.rng
        wanted = (DataType.INT,) if ints_only else _NUMERIC
        columns = self._columns(tables, wanted)
        if not columns or (depth > 0 and rng.random() < 0.35):
            return ast.NumberLit(rng.randint(-5, 20))
        alias, column, dtype = rng.choice(columns)
        base = ast.Identifier(alias, column)
        if depth >= 2:
            return base
        roll = rng.random()
        if roll < 0.45:
            return base
        if roll < 0.60:
            return ast.BinaryOp(
                rng.choice(["+", "-"]),
                base,
                self._numeric_expr(tables, depth + 1, ints_only),
            )
        if roll < 0.72:
            return ast.BinaryOp("*", base, ast.NumberLit(rng.randint(1, 4)))
        if roll < 0.82 and dtype is DataType.INT:
            # modulo: integer left, non-zero integer literal right
            return ast.BinaryOp("%", base, ast.NumberLit(rng.randint(2, 5)))
        if roll < 0.90:
            return self._case_expr(tables, depth + 1)
        return ast.UnaryOp("-", base)

    def _case_expr(self, tables, depth: int = 0) -> ast.Node:
        rng = self.rng
        # the binder takes the CASE result type from the first branch, so
        # either keep every branch integral or pin the first branch to
        # DECIMAL (``+ 0.0``) so later int branches widen into it
        ints_only = rng.random() < 0.5
        whens = [
            (
                self._predicate(tables, depth + 1),
                self._numeric_expr(tables, 2, ints_only),
            )
            for _ in range(rng.choice([1, 1, 2]))
        ]
        default = (
            self._numeric_expr(tables, 2, ints_only)
            if rng.random() < 0.8
            else None
        )
        if not ints_only:
            cond, value = whens[0]
            whens[0] = (cond, ast.BinaryOp("+", value, ast.NumberLit(0.0)))
        return ast.Case(tuple(whens), default)

    # -- predicates ----------------------------------------------------------

    def _comparison(self, tables) -> ast.Node:
        rng = self.rng
        columns = self._columns(tables)
        alias, column, dtype = rng.choice(columns)
        lhs = ast.Identifier(alias, column)
        if dtype is DataType.STRING:
            roll = rng.random()
            if roll < 0.40:
                return ast.BinaryOp(
                    rng.choice(["=", "<>"]),
                    lhs,
                    self._literal_for(tables, alias, column, dtype),
                )
            if roll < 0.70:
                return self._like(tables, alias, column)
            return self._in_list(tables, alias, column, dtype)
        if dtype is DataType.BOOL:
            # the binder has no int->bool coercion; arithmetic widens the
            # flag to int, so compare (flag + 0) against 0/1
            widened = ast.BinaryOp("+", lhs, ast.NumberLit(0))
            return ast.BinaryOp(
                rng.choice(["=", "<>"]), widened, ast.NumberLit(rng.choice([0, 1]))
            )
        roll = rng.random()
        if roll < 0.55:
            return ast.BinaryOp(
                rng.choice(_COMPARE_OPS),
                lhs,
                self._literal_for(tables, alias, column, dtype),
            )
        if roll < 0.70:
            low = self._literal_for(tables, alias, column, dtype)
            high = self._literal_for(tables, alias, column, dtype)
            if dtype in _NUMERIC and low.value > high.value:
                low, high = high, low
            elif dtype is DataType.DATE and low.value > high.value:
                low, high = high, low
            return ast.Between(lhs, low, high, negated=rng.random() < 0.25)
        if roll < 0.82 and dtype in _NUMERIC:
            return self._in_list(tables, alias, column, dtype)
        # column-vs-column comparison of the same type
        same = [c for c in self._columns(tables, (dtype,))]
        other_alias, other_col, _ = rng.choice(same)
        return ast.BinaryOp(
            rng.choice(_COMPARE_OPS), lhs, ast.Identifier(other_alias, other_col)
        )

    def _like(self, tables, alias, column) -> ast.Node:
        rng = self.rng
        values = [v for v in self._table_of(tables, alias).values_of(column) if v]
        if values and rng.random() < 0.8:
            value = rng.choice(values)
            pick = rng.random()
            if pick < 0.3:
                pattern = value[: max(1, len(value) // 2)] + "%"
            elif pick < 0.6:
                pattern = "%" + value[len(value) // 2:]
            elif pick < 0.8:
                middle = value[len(value) // 3: 2 * len(value) // 3] or value[:1]
                pattern = f"%{middle}%"
            else:
                pattern = value.replace(value[0], "_", 1)
        else:
            pattern = rng.choice(["z%", "%q", "%xyz%", "_"])
        return ast.Like(
            ast.Identifier(alias, column), pattern, negated=rng.random() < 0.25
        )

    def _in_list(self, tables, alias, column, dtype) -> ast.Node:
        rng = self.rng
        count = rng.choice([1, 2, 3])
        values = tuple(
            self._literal_for(tables, alias, column, dtype) for _ in range(count)
        )
        return ast.InList(
            ast.Identifier(alias, column), values, negated=rng.random() < 0.25
        )

    def _predicate(self, tables, depth: int = 0) -> ast.Node:
        rng = self.rng
        if depth < 2 and rng.random() < 0.30:
            left = self._predicate(tables, depth + 1)
            right = self._predicate(tables, depth + 1)
            combined = ast.BinaryOp(rng.choice(["and", "or"]), left, right)
            if rng.random() < 0.15:
                return ast.UnaryOp("not", combined)
            return combined
        return self._comparison(tables)

    # -- aggregates ----------------------------------------------------------

    def _aggregate(self, tables) -> ast.Node:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            return ast.FuncCall("count", (ast.Star(),))
        numeric = self._columns(tables, _NUMERIC)
        orderable = self._columns(
            tables, (DataType.INT, DataType.DECIMAL, DataType.DATE, DataType.STRING)
        )
        if roll < 0.70 and numeric:
            func = rng.choice(["sum", "sum", "avg"])
            if rng.random() < 0.6:
                alias, column, _ = rng.choice(numeric)
                arg: ast.Node = ast.Identifier(alias, column)
            else:
                arg = self._numeric_expr(tables, 1)
            return ast.FuncCall(func, (arg,))
        alias, column, _ = rng.choice(orderable)
        return ast.FuncCall(
            rng.choice(["min", "max"]), (ast.Identifier(alias, column),)
        )

    def _post_agg(self, tables, agg: ast.FuncCall, features) -> ast.Node:
        """Sometimes (p ~ 0.3) arithmetic *over* a numeric aggregate —
        ``agg ∘ agg`` or ``agg ∘ literal`` — so every executor, and the
        fleet's gather, is compared on DECIMAL x DECIMAL rescaling, ``%``
        on cents and float division after aggregation."""
        rng = self.rng
        arg = agg.args[0]
        if isinstance(arg, ast.Identifier):
            columns = dict(self._table_of(tables, arg.qualifier).columns)
            if columns[arg.name] not in _NUMERIC:
                return agg
        elif not isinstance(arg, ast.Star):
            return agg  # over an expression: its type is the binder's call
        if rng.random() >= 0.3:
            return agg
        features.add("post_agg_expr")
        op = rng.choice(["+", "-", "*", "/", "%"])
        if op == "%" and agg.name == "avg":
            op = "*"  # % needs a non-float left operand
        if op in ("/", "%"):  # by a non-zero integer literal
            return ast.BinaryOp(op, agg, ast.NumberLit(rng.randint(2, 9)))
        right: ast.Node = self._aggregate(tables)
        if right.name in ("min", "max") or rng.random() < 0.5:
            right = ast.NumberLit(rng.randint(1, 4))
        return ast.BinaryOp(op, agg, right)

    # -- whole statements ----------------------------------------------------

    def generate(self) -> GeneratedQuery:
        rng = self.rng
        tables = self._pick_tables()
        features: set[str] = set()
        if len(tables) > 1:
            features.add("join")

        stmt = ast.SelectStmt()
        stmt.tables = [ast.TableRef(table, alias) for table, alias, _ in tables]

        conjuncts = [pred for _, _, pred in tables if pred is not None]
        n_filters = rng.choice([0, 1, 1, 2])
        for _ in range(n_filters):
            conjuncts.append(self._predicate(tables))
            features.add("filter")
        where: ast.Node | None = None
        for pred in conjuncts:
            where = pred if where is None else ast.BinaryOp("and", where, pred)
        stmt.where = where

        shape = rng.random()
        if shape < 0.45:
            self._grouped(stmt, tables, features)
        elif shape < 0.60:
            self._scalar_aggregates(stmt, tables, features)
        else:
            self._projection(stmt, tables, features)

        ordered_by = self._order(stmt, features)
        return GeneratedQuery(
            sql=unparse(stmt),
            stmt=stmt,
            aliases=[alias for _, alias, _ in tables],
            ordered_by=ordered_by,
            features=frozenset(features),
        )

    def _grouped(self, stmt, tables, features) -> None:
        rng = self.rng
        features.add("group_by")
        n_keys = rng.choice([1, 1, 2])
        keys: list[ast.Node] = []
        candidates = self._columns(tables)
        for _ in range(n_keys):
            if rng.random() < 0.8 or not candidates:
                alias, column, _ = rng.choice(candidates)
                key: ast.Node = ast.Identifier(alias, column)
            else:
                key = self._numeric_expr(tables, 1)
                features.add("group_by_expr")
            if key not in keys:
                keys.append(key)
        stmt.group_by = keys
        stmt.items = [
            ast.SelectItem(key, f"c{i}") for i, key in enumerate(keys)
        ]
        n_aggs = rng.choice([1, 1, 2])
        for i in range(n_aggs):
            agg = self._post_agg(tables, self._aggregate(tables), features)
            features.add("aggregate")
            stmt.items.append(ast.SelectItem(agg, f"c{len(keys) + i}"))
        if rng.random() < 0.30:
            features.add("having")
            agg = self._post_agg(tables, self._aggregate(tables), features)
            stmt.having = ast.BinaryOp(
                rng.choice(_COMPARE_OPS), agg, ast.NumberLit(rng.randint(-5, 40))
            )

    def _scalar_aggregates(self, stmt, tables, features) -> None:
        rng = self.rng
        features.add("aggregate")
        n_aggs = rng.choice([1, 2, 2, 3])
        stmt.items = [
            ast.SelectItem(
                self._post_agg(tables, self._aggregate(tables), features),
                f"c{i}",
            )
            for i in range(n_aggs)
        ]

    def _projection(self, stmt, tables, features) -> None:
        rng = self.rng
        features.add("projection")
        n_items = rng.choice([1, 2, 2, 3])
        items: list[ast.SelectItem] = []
        columns = self._columns(tables)
        for i in range(n_items):
            roll = rng.random()
            if roll < 0.6:
                alias, column, _ = rng.choice(columns)
                expr: ast.Node = ast.Identifier(alias, column)
            elif roll < 0.85:
                expr = self._numeric_expr(tables)
                features.add("arith")
            else:
                expr = self._case_expr(tables)
                features.add("case")
            items.append(ast.SelectItem(expr, f"c{i}"))
        stmt.items = items
        if rng.random() < 0.20 and all(
            isinstance(item.expr, ast.Identifier) for item in items
        ):
            stmt.distinct = True
            features.add("distinct")

    def _order(self, stmt, features) -> list[tuple[int, bool]]:
        """Maybe attach ORDER BY (over select-item aliases) and LIMIT."""
        rng = self.rng
        if rng.random() < 0.45:
            return []
        features.add("order_by")
        indexes = list(range(len(stmt.items)))
        rng.shuffle(indexes)
        keep = rng.randint(1, len(indexes))
        ordered: list[tuple[int, bool]] = []
        for index in indexes[:keep]:
            ascending = rng.random() < 0.7
            stmt.order_by.append(
                ast.OrderItem(
                    ast.Identifier(None, stmt.items[index].alias), ascending
                )
            )
            ordered.append((index, ascending))
        # a LIMIT is only deterministic when the sort covers every output
        # column, making the row order total — and only when no sort key is
        # a float (avg), where near-ties could cut the prefix differently
        # across executors
        if (
            keep == len(indexes)
            and not any(_contains_avg(item.expr) for item in stmt.items)
            and rng.random() < 0.5
        ):
            stmt.limit = rng.randint(1, 12)
            features.add("limit")
        return ordered


def _contains_avg(node: ast.Node) -> bool:
    if isinstance(node, ast.FuncCall):
        if node.name == "avg":
            return True
        return any(_contains_avg(a) for a in node.args)
    if isinstance(node, ast.UnaryOp):
        return _contains_avg(node.operand)
    if isinstance(node, ast.BinaryOp):
        # any division is float-valued, like avg
        return (
            node.op == "/"
            or _contains_avg(node.left) or _contains_avg(node.right)
        )
    if isinstance(node, ast.Case):
        return any(
            _contains_avg(c) or _contains_avg(v) for c, v in node.whens
        ) or (node.default is not None and _contains_avg(node.default))
    return False
