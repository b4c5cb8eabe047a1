"""Tests for semi/anti joins and subquery unnesting."""

import pytest

from repro import Column, DataType, Database, ExecOptions, Schema
from repro.errors import SqlError
from repro.plan.logical import LogicalSemiJoin
from repro.plan.physical import PhysicalSemiJoin
from repro.sql import parse
from repro.sql.binder import Binder

from tests.conftest import rows_match


@pytest.fixture(scope="module")
def db():
    database = Database()
    t = DataType
    items = database.create_table("items", Schema([
        Column("id", t.INT), Column("kind", t.STRING), Column("price", t.DECIMAL),
    ]))
    items.extend([
        (1, "a", 1.0), (2, "a", 2.0), (3, "b", 5.0), (4, "c", 0.5), (5, "d", 9.0),
    ])
    kinds = database.create_table("kinds", Schema([
        Column("name", t.STRING), Column("tasty", t.INT),
    ]))
    kinds.extend([("a", 1), ("b", 0), ("c", 1)])
    database.finalize()
    return database


def both(db, sql):
    compiled = db.execute(sql).rows
    oracle = db.execute_interpreted(sql).rows
    assert compiled == oracle, (compiled, oracle)
    return compiled


def test_exists_semi_join(db):
    rows = both(db, "select id from items where exists "
                    "(select name from kinds where name = kind) order by id")
    assert rows == [(1,), (2,), (3,), (4,)]


def test_not_exists_anti_join(db):
    rows = both(db, "select id from items where not exists "
                    "(select name from kinds where name = kind) order by id")
    assert rows == [(5,)]


def test_in_subquery(db):
    rows = both(db, "select id from items where kind in "
                    "(select name from kinds where tasty = 1) order by id")
    assert rows == [(1,), (2,), (4,)]


def test_not_in_subquery(db):
    rows = both(db, "select id from items where kind not in "
                    "(select name from kinds where tasty = 1) order by id")
    assert rows == [(3,), (5,)]


def test_in_subquery_with_group_by_having(db):
    rows = both(db, "select id from items i where i.kind in "
                    "(select kind from items where price > 1.50 "
                    " group by kind having count(*) >= 1) order by id")
    assert rows == [(1,), (2,), (3,), (5,)]


def test_correlated_exists_with_residual(db):
    """Q21's pattern: another row with the same key but a different value."""
    rows = both(db, "select id from items i where exists "
                    "(select id from items i2 where i2.kind = i.kind "
                    " and i2.id <> i.id) order by id")
    assert rows == [(1,), (2,)]  # only the two 'a' items pair up


def test_correlated_not_exists_with_residual(db):
    rows = both(db, "select id from items i where not exists "
                    "(select id from items i2 where i2.kind = i.kind "
                    " and i2.id <> i.id) order by id")
    assert rows == [(3,), (4,), (5,)]


def test_semi_join_with_inner_join_in_subquery(db):
    """Q20's pattern: the subquery itself joins two tables."""
    rows = both(db, "select id from items where kind in "
                    "(select i2.kind from items i2, kinds k "
                    " where i2.kind = k.name and k.tasty = 1 and i2.price > 0.75) "
                    "order by id")
    assert rows == [(1,), (2,)]


def test_subquery_combined_with_scalar_predicates(db):
    rows = both(db, "select id from items where price > 0.75 and kind in "
                    "(select name from kinds where tasty = 1) order by id")
    assert rows == [(1,), (2,)]


def test_semi_join_dedup_semantics(db):
    """A probe tuple passes once even with several matching entries."""
    rows = both(db, "select id from items i where exists "
                    "(select id from items i2 where i2.kind = i.kind) order by id")
    assert rows == [(1,), (2,), (3,), (4,), (5,)]  # self-match, no duplicates


def test_plan_shape(db, numbering):
    bound = Binder(db.catalog).bind(parse(
        "select id from items where exists "
        "(select name from kinds where name = kind)"
    ))
    semis = [n for n in bound.plan.walk() if isinstance(n, LogicalSemiJoin)]
    assert len(semis) == 1
    assert not semis[0].anti
    from repro.plan.physical import plan_physical

    physical = plan_physical(bound.plan, bound.model)
    assert any(isinstance(n, PhysicalSemiJoin) for n in physical.walk())


def test_unsupported_forms_rejected(db):
    with pytest.raises(SqlError, match="correlated"):
        db.execute("select id from items where exists (select name from kinds)")
    with pytest.raises(SqlError, match="ORDER BY"):
        db.execute("select id from items where kind in "
                   "(select name from kinds order by name)")
    with pytest.raises(SqlError, match="nested"):
        db.execute("select id from items where kind in "
                   "(select name from kinds where name in "
                   " (select kind from items))")
    with pytest.raises(SqlError, match="top-level"):
        db.execute("select id from items where price > 1.0 or kind in "
                   "(select name from kinds)")
    with pytest.raises(SqlError, match="one column"):
        db.execute("select id from items where kind in "
                   "(select name, tasty from kinds)")


def test_semi_join_profiling_attribution(tpch_db):
    from repro.data.queries import ALL_QUERIES

    profile = tpch_db.profile(ALL_QUERIES["q21"].sql)
    summary = profile.attribution_summary()
    assert summary.attributed_share > 0.9
    roles = {t.role for t in profile.task_costs()}
    assert "semi-probe" in roles or "semi-build" in roles


def test_semi_join_parallel_execution(tpch_db):
    from repro.data.queries import ALL_QUERIES

    sql = ALL_QUERIES["q4"].sql
    serial = tpch_db.execute(sql)
    parallel = tpch_db.execute(sql, ExecOptions(workers=3))
    assert rows_match(parallel.rows, serial.rows)


def test_scalar_subquery_in_where(db):
    rows = both(db, "select id from items where price > "
                    "(select avg(price) a from items) order by id")
    avg = (1.0 + 2.0 + 5.0 + 0.5 + 9.0) / 5
    expected = [(i,) for i, p in [(1, 1.0), (2, 2.0), (3, 5.0), (4, 0.5), (5, 9.0)]
                if p > avg]
    assert rows == expected


def test_scalar_subquery_in_having(db):
    rows = both(db, "select kind, sum(price) s from items group by kind "
                    "having sum(price) > (select sum(price) t from items) / 3 "
                    "order by kind")
    # total 17.5; threshold ~5.83; groups: a=3.0 b=5.0 c=0.5 d=9.0 -> only d
    assert len(rows) == 1


def test_scalar_subquery_in_select_list(db):
    rows = both(db, "select id, price - (select min(price) m from items) rel "
                    "from items order by id")
    assert rows[0][1] == 0.5  # 1.00 - 0.50


def test_nested_scalar_subqueries(db):
    rows = both(db, "select count(*) n from items where price > "
                    "(select min(price) m from items where price > "
                    " (select min(price) m2 from items))")
    # innermost min = 0.5; next min above it = 1.0; count(price > 1.0) = 3
    assert rows == [(3,)]


def test_scalar_subquery_multiple_rows_rejected(db):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="one value"):
        db.execute("select id from items where price > "
                   "(select price from items)")
