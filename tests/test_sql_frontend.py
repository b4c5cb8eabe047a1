"""Tests for lexer, parser, binder, and the interpreted execution path."""

import pytest

from repro.errors import SqlError
from repro.plan.physical import explain_physical
from repro.sql import parse, tokenize
from repro.sql.lexer import TokenKind
from repro.sql import ast

from tests.helpers import run_interpreted, small_catalog


# -- lexer -------------------------------------------------------------


def test_tokenize_basics():
    tokens = tokenize("SELECT a, b FROM t WHERE x >= 1.5 -- comment\n;")
    kinds = [t.kind for t in tokens]
    assert kinds[0] is TokenKind.KEYWORD
    assert tokens[0].text == "select"
    assert any(t.kind is TokenKind.NUMBER and t.value == 1.5 for t in tokens)
    assert kinds[-1] is TokenKind.EOF


def test_tokenize_string_escapes():
    tokens = tokenize("select 'it''s'")
    assert tokens[1].value == "it's"


def test_tokenize_rejects_junk():
    with pytest.raises(SqlError):
        tokenize("select @")


def test_tokenize_unterminated_string():
    with pytest.raises(SqlError):
        tokenize("select 'oops")


# -- parser -------------------------------------------------------------


def test_parse_shapes():
    stmt = parse(
        "Select k.name, sum(i.price) as total "
        "From items i, kinds k "
        "Where i.kind = k.name and i.price > 1 "
        "Group By k.name Order By total desc Limit 2;"
    )
    assert len(stmt.items) == 2
    assert stmt.items[1].alias == "total"
    assert [t.alias for t in stmt.tables] == ["i", "k"]
    assert stmt.where is not None
    assert len(stmt.group_by) == 1
    assert stmt.order_by[0].ascending is False
    assert stmt.limit == 2


def test_parse_between_in_like_case():
    stmt = parse(
        "select case when a between 1 and 2 then 1 else 0 end "
        "from t where b in (1, 2, 3) and c not like 'x%' "
        "and d between date '1994-01-01' and date '1995-01-01'"
    )
    case = stmt.items[0].expr
    assert isinstance(case, ast.Case)
    assert isinstance(case.whens[0][0], ast.Between)


def test_parse_operator_precedence():
    stmt = parse("select a + b * c - d from t")
    expr = stmt.items[0].expr
    # ((a + (b*c)) - d)
    assert isinstance(expr, ast.BinaryOp) and expr.op == "-"
    assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "+"
    assert isinstance(expr.left.right, ast.BinaryOp) and expr.left.right.op == "*"


def test_parse_errors():
    with pytest.raises(SqlError):
        parse("select from t")
    with pytest.raises(SqlError):
        parse("select a from t limit x")
    with pytest.raises(SqlError):
        parse("select a from t where a like 5")
    with pytest.raises(SqlError):
        parse("select a from t extra junk here")


# -- binder + interpreter -----------------------------------------------


def test_simple_scan_and_filter():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select id from items where price > 1.60 order by id"
    )
    assert rows == [(3,), (4,), (6,)]


def test_string_equality_and_order():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select id from items where kind = 'banana' order by id"
    )
    assert rows == [(2,), (5,)]


def test_absent_string_equality_is_false():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select id from items where kind = 'durian'"
    )
    assert rows == []


def test_absent_string_range_uses_rank():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select id from items where kind < 'azzz' order by id"
    )
    # only 'apple' sorts before 'azzz'
    assert rows == [(1,), (3,), (6,)]


def test_like_predicate():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select id from items where kind like '%an%' order by id"
    )
    assert rows == [(2,), (5,)]


def test_not_like_and_in():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select id from items where kind not like 'a%' "
        "and id in (1, 2, 3, 4) order by id",
    )
    assert rows == [(2,), (4,)]


def test_date_comparison():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select id from items where sold >= date '2020-02-01' "
        "and sold < date '2021-01-01' order by id",
    )
    assert rows == [(3,), (4,), (5,)]


def test_join_and_decimal_arithmetic():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select i.id, i.price * 2 double_price from items i, kinds k "
        "where i.kind = k.name and k.tasty = 1 order by i.id",
    )
    ids = [r[0] for r in rows]
    assert ids == [1, 3, 4, 6]
    # price encoded in cents; *2 keeps cents
    assert rows[0][1] == 300


def test_group_by_with_aggregates():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select kind, count(*) n, sum(price) total, min(price) lo, max(price) hi "
        "from items group by kind order by kind",
    )
    # kinds sorted: apple, banana, cherry
    assert [r[1] for r in rows] == [3, 2, 1]
    assert rows[0][2] == 530  # 150+200+180 cents
    assert rows[1][3] == 60 and rows[1][4] == 75


def test_avg_lowering_produces_natural_units():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select avg(price) a from items where kind = 'banana'"
    )
    assert rows[0][0] == pytest.approx((0.75 + 0.60) / 2)


def test_global_aggregation_without_group_by():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(catalog, "select count(*) n, sum(price) s from items")
    assert rows == [(6, 1190)]


def test_case_expression():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select sum(case when kind = 'apple' then price else 0 end) apples "
        "from items",
    )
    assert rows[0][0] == 530


def test_order_by_aggregate_desc_and_limit():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select kind, sum(price) total from items group by kind "
        "order by total desc limit 2",
    )
    assert [r[0] for r in rows] == [
        catalog.dictionary.id_of("apple"),
        catalog.dictionary.id_of("cherry"),
    ]


def test_year_function():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select year(sold) y, count(*) n from items group by year(sold) "
        "order by y"
    )
    assert rows == [(2020, 5), (2021, 1)]


def test_a_computed_group_key_is_named_by_its_sql():
    catalog = small_catalog()
    _, plan, _ = run_interpreted(
        catalog, "select count(*) n from items group by year(sold) "
        "order by year(sold)"
    )
    text = explain_physical(plan)
    assert "[year(sold)]" in text and "FuncCall" not in text


def test_join_order_hint_is_respected():
    catalog = small_catalog()
    sql = (
        "select count(*) n from items i, kinds k where i.kind = k.name"
    )
    rows_a, plan_a, _ = run_interpreted(catalog, sql, hint=["i", "k"])
    rows_b, plan_b, _ = run_interpreted(catalog, sql, hint=["k", "i"])
    assert rows_a == rows_b == [(6,)]


def test_binder_errors():
    from repro.errors import ReproError

    catalog = small_catalog()
    with pytest.raises(SqlError):
        run_interpreted(catalog, "select nope from items")
    with pytest.raises(ReproError):
        run_interpreted(catalog, "select id from items, kinds")  # cross product
    with pytest.raises(SqlError):
        run_interpreted(catalog, "select id, sum(price) from items group by kind")
    with pytest.raises(SqlError):
        run_interpreted(catalog, "select kind from items where price")


def test_explain_analyze_tuple_counts():
    catalog = small_catalog()
    rows, physical, interp = run_interpreted(
        catalog, "select count(*) n from items where kind = 'apple'"
    )
    assert rows == [(3,)]
    from repro.plan.physical import PhysicalScan, PhysicalSelect

    for node in physical.walk():
        if isinstance(node, PhysicalScan):
            assert interp.tuple_counts[node.op_id] == 6
        if isinstance(node, PhysicalSelect):
            assert interp.tuple_counts[node.op_id] == 3


def test_having_filters_groups():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select kind, count(*) n from items group by kind "
        "having count(*) >= 2 order by kind",
    )
    assert [r[1] for r in rows] == [3, 2]  # apple, banana; cherry dropped


def test_having_with_decimal_threshold_and_logic():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select kind, sum(price) s from items group by kind "
        "having sum(price) > 1.40 and not (count(*) = 1) order by kind",
    )
    assert len(rows) == 1  # only apple: sum 5.30, count 3


def test_having_can_reference_unselected_aggregate():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select kind from items group by kind having max(price) > 2.50",
    )
    assert len(rows) == 1  # cherry


def test_having_without_group_by_rejected():
    catalog = small_catalog()
    with pytest.raises(SqlError):
        run_interpreted(catalog, "select id from items having id > 1")


def test_select_distinct():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select distinct kind from items order by kind"
    )
    assert len(rows) == 3


def test_select_distinct_with_aggregates_rejected():
    catalog = small_catalog()
    with pytest.raises(SqlError):
        run_interpreted(catalog, "select distinct kind, count(*) c from items")


def test_min_max_over_strings_are_lexicographic():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select min(kind) lo, max(kind) hi from items"
    )
    lo_id, hi_id = rows[0]
    assert catalog.dictionary.value_of(lo_id) == "apple"
    assert catalog.dictionary.value_of(hi_id) == "cherry"


def test_order_by_string_descending():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog, "select distinct kind from items order by kind desc"
    )
    names = [catalog.dictionary.value_of(r[0]) for r in rows]
    assert names == ["cherry", "banana", "apple"]


def test_derived_table_basic():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select t.kind, t.total from "
        "(select kind, sum(price) total from items group by kind) t "
        "order by t.kind",
    )
    assert len(rows) == 3
    assert rows[0][1] == 530  # apple cents


def test_derived_table_joined_with_base():
    catalog = small_catalog()
    rows, _, _ = run_interpreted(
        catalog,
        "select i.id from items i, "
        "(select kind k, max(price) mx from items group by kind) t "
        "where i.kind = t.k and i.price = t.mx order by i.id",
    )
    # priciest per kind: banana #2 (0.75), apple #3 (2.00), cherry #4 (5.25)
    assert rows == [(2,), (3,), (4,)]


def test_derived_table_requires_alias():
    catalog = small_catalog()
    with pytest.raises(SqlError, match="alias"):
        run_interpreted(catalog, "select 1 x from (select kind from items)")


def test_derived_table_scoping():
    """Outer columns are not visible inside an uncorrelated derived table."""
    catalog = small_catalog()
    with pytest.raises(SqlError, match="unknown column|unknown table"):
        run_interpreted(
            catalog,
            "select i.id from items i, "
            "(select kind from items where price > i.price group by kind) t "
            "where i.kind = t.kind",
        )
