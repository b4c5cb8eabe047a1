"""Regression tests for aggregate and CASE edge cases.

These pin behaviors the differential fuzzer leans on: ``avg`` over
grouped input whose groups can be emptied by the filter, and CASE
predicates that compare against strings absent from the dictionary (this
engine's closest analogue to NULL-valued predicates) — in both the SQL
binder and the streaming DSL frontend.
"""

import pytest

from repro import Column, DataType, Database, Schema
from repro.streaming import EventFlow

from tests.conftest import rows_match


@pytest.fixture(scope="module")
def edge_db():
    db = Database()
    t = DataType
    table = db.create_table("t", Schema([
        Column("k", t.INT),
        Column("v", t.INT),
        Column("tag", t.STRING),
    ]))
    table.extend([
        (1, 2, "x"),
        (1, 3, "y"),
        (2, 40, "x"),
        (2, 10, "y"),
        (3, 9, "z"),
    ])
    db.finalize()
    return db


# -- avg over (potentially) empty grouped input ------------------------------

def test_grouped_avg_with_filtered_out_groups(edge_db):
    # the filter removes group 3 and half of group 1: avg must reflect
    # surviving rows only, and emptied groups must not emit at all
    result = edge_db.execute(
        "select t.k as c0, avg(t.v) as c1, count(*) as c2 "
        "from t as t where t.v >= 10 group by t.k"
    )
    assert rows_match(result.rows, [(2, 25.0, 2)])


def test_grouped_avg_over_fully_empty_input(edge_db):
    result = edge_db.execute(
        "select t.k as c0, avg(t.v) as c1 from t as t "
        "where t.v > 1000 group by t.k"
    )
    assert result.rows == []
    interpreted = edge_db.execute_interpreted(
        "select t.k as c0, avg(t.v) as c1 from t as t "
        "where t.v > 1000 group by t.k"
    )
    assert interpreted.rows == []


def test_ungrouped_avg_over_empty_input_is_guarded(edge_db):
    # scalar avg over zero rows must not divide by zero
    result = edge_db.execute(
        "select avg(t.v) as c0, count(*) as c1 from t as t where t.v > 1000"
    )
    assert result.rows == [(0.0, 0)]


def test_having_on_aggregate_of_emptied_groups(edge_db):
    result = edge_db.execute(
        "select t.k as c0, sum(t.v) as c1 from t as t "
        "where t.v >= 10 group by t.k having count(*) >= 2"
    )
    assert rows_match(result.rows, [(2, 50)])


# -- CASE with absent-string predicates (binder) -----------------------------

def test_case_with_absent_string_predicate(edge_db):
    # 'missing' is in no column: the comparison folds to constant FALSE
    # and every row must take the ELSE branch
    result = edge_db.execute(
        "select case when t.tag = 'missing' then 1 else 0 end as c0, "
        "count(*) as c1 from t as t "
        "group by case when t.tag = 'missing' then 1 else 0 end"
    )
    assert result.rows == [(0, 5)]


def test_case_with_absent_string_in_where(edge_db):
    result = edge_db.execute(
        "select count(*) as c0 from t as t "
        "where case when t.tag = 'missing' then 1 else 0 end = 0"
    )
    assert result.rows == [(5,)]


def test_case_absent_string_matches_interpreter(edge_db):
    sql = (
        "select t.k as c0, "
        "sum(case when t.tag = 'nope' then t.v else 0 end) as c1 "
        "from t as t group by t.k order by c0"
    )
    compiled = edge_db.execute(sql).rows
    interpreted = edge_db.execute_interpreted(sql).rows
    assert compiled == interpreted
    assert compiled == [(1, 0), (2, 0), (3, 0)]


def test_absent_string_inequality_is_constant_true(edge_db):
    result = edge_db.execute(
        "select count(*) as c0 from t as t where t.tag <> 'missing'"
    )
    assert result.rows == [(5,)]


# -- the same edges through the streaming DSL --------------------------------

@pytest.fixture(scope="module")
def events_db():
    db = Database()
    t = DataType
    events = db.create_table("events", Schema([
        Column("ts", t.DATE),
        Column("user", t.STRING),
        Column("amount", t.DECIMAL),
    ]))
    events.extend([
        ("2024-01-01", "alice", 10.0),
        ("2024-01-02", "bob", 20.0),
        ("2024-01-03", "alice", 30.0),
    ])
    db.finalize()
    return db


def test_flow_case_with_absent_string_predicate(events_db):
    flow = (EventFlow(events_db, "events")
            .derive(hit="case when user = 'nobody' then 1 else 0 end")
            .aggregate(by=["user"], totals={"hits": "sum(hit)",
                                            "n": "count(*)"})
            .order_by("user"))
    compiled = flow.run().rows
    assert compiled == [("alice", 0, 2), ("bob", 0, 1)]
    assert rows_match(compiled, flow.run_interpreted())


def test_flow_avg_over_emptied_group(events_db):
    flow = (EventFlow(events_db, "events")
            .where("amount > 1000.0")
            .aggregate(by=["user"], totals={"mean": "avg(amount)"}))
    assert flow.run().rows == []
    assert flow.run_interpreted() == []


def test_flow_absent_string_filter_drops_everything(events_db):
    flow = (EventFlow(events_db, "events")
            .where("user = 'nobody'")
            .aggregate(by=["user"], totals={"n": "count(*)"}))
    assert flow.run().rows == []
    assert rows_match(flow.run().rows, flow.run_interpreted())


# -- membership bitmaps -------------------------------------------------------

def test_in_list_bitmap_with_negative_values(edge_db):
    """Regression: a bitmap (more than four values) indexed its words by
    the raw value, so negative members never matched and their bits were
    written below the bitmap."""
    sql = (
        "select count(*) as c from t as t "
        "where t.v - 10 in (-8, -7, -1, 0, 30, 31)"
    )
    assert edge_db.execute(sql).rows == [(5,)]
    assert edge_db.execute_interpreted(sql).rows == [(5,)]
