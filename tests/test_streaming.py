"""Tests for the streaming DSL — the second frontend on the shared stack."""

import pytest

from repro import Column, DataType, Database, ExecOptions, Schema
from repro.errors import SqlError
from repro.streaming import EventFlow

from tests.conftest import rows_match


@pytest.fixture(scope="module")
def events_db():
    db = Database()
    t = DataType
    events = db.create_table("events", Schema([
        Column("ts", t.DATE),
        Column("user", t.STRING),
        Column("amount", t.DECIMAL),
        Column("clicks", t.INT),
    ]))
    rows = []
    import datetime

    base = datetime.date(2024, 1, 1)
    for day in range(60):
        date = (base + datetime.timedelta(days=day)).isoformat()
        rows.append((date, "alice", 10.0 + day, day % 5))
        rows.append((date, "bob", 5.0, (day * 3) % 7))
    events.extend(rows)
    db.finalize()
    return db


def basic_flow(db):
    return (EventFlow(db, "events")
            .where("clicks > 0")
            .derive(value="amount * 2")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start", "user"],
                       totals={"total": "sum(value)", "n": "count(*)"})
            .order_by("window_start", "user"))


def test_flow_matches_interpreter(events_db):
    flow = basic_flow(events_db)
    compiled = flow.run()
    oracle = flow.run_interpreted()
    assert rows_match(compiled.rows, oracle)
    assert len(compiled.rows) > 10


def test_flow_matches_equivalent_sql(events_db):
    flow_rows = basic_flow(events_db).run().rows
    sql_rows = events_db.execute(
        "select ts - (ts % 7) as w, user, sum(amount * 2) total, count(*) n "
        "from events where clicks > 0 group by ts - (ts % 7), user "
        "order by w, user"
    ).rows
    assert rows_match(flow_rows, sql_rows)


def test_windows_are_aligned_and_wide(events_db):
    flow = (EventFlow(db := events_db, "events")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start"], totals={"n": "count(*)"})
            .order_by("window_start"))
    rows = flow.run().rows
    import datetime

    starts = [datetime.date.fromisoformat(r[0]).toordinal() for r in rows]
    for a, b in zip(starts, starts[1:]):
        assert (b - a) % 7 == 0
    # full interior windows hold 7 days x 2 events
    assert max(r[1] for r in rows) == 14


def test_avg_total(events_db):
    flow = (EventFlow(events_db, "events")
            .tumbling_window("ts", days=30)
            .aggregate(by=["window_start"], totals={"m": "avg(amount)"})
            .order_by("window_start"))
    compiled = flow.run()
    oracle = flow.run_interpreted()
    assert rows_match(compiled.rows, oracle)
    assert all(isinstance(r[1], float) for r in compiled.rows)


def test_avg_over_empty_flow_returns_zero(events_db):
    """Regression: an ungrouped avg whose filter kills every event used to
    fault on the zero count; both execution paths now yield 0.0."""
    flow = (EventFlow(events_db, "events")
            .where("clicks > 1000000")
            .aggregate(by=[], totals={"m": "avg(amount)", "n": "count(*)"}))
    assert flow.run().rows == [(0.0, 0)]
    assert flow.run_interpreted() == [(0.0, 0)]


def test_reports_use_dsl_vocabulary(events_db):
    profile = basic_flow(events_db).profile()
    plan = profile.annotated_plan()
    assert "source events" in plan
    assert "window-agg#" in plan
    assert "where#" in plan
    assert "sink" in plan
    assert "scan " not in plan  # no SQL vocabulary leaks through
    summary = profile.attribution_summary()
    assert summary.attributed_share > 0.9


def test_flow_parallel_and_repeats(events_db):
    flow = basic_flow(events_db)
    serial = flow.run()
    parallel = basic_flow(events_db).run(ExecOptions(workers=3))
    assert rows_match(parallel.rows, serial.rows)
    profile = basic_flow(events_db).profile(options=ExecOptions(repeats=2))
    assert len(profile.iterations()) == 2


def test_select_and_limit(events_db):
    flow = (EventFlow(events_db, "events")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start"], totals={"n": "count(*)"})
            .order_by("n", descending=True)
            .limit(3)
            .select("window_start", "n"))
    rows = flow.run().rows
    assert len(rows) == 3
    counts = [r[1] for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_stage_ordering_errors(events_db):
    flow = (EventFlow(events_db, "events")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start"], totals={"n": "count(*)"}))
    with pytest.raises(SqlError):
        flow.where("clicks > 0")
    with pytest.raises(SqlError):
        flow.aggregate(by=["window_start"], totals={"m": "count(*)"})
    with pytest.raises(SqlError):
        (EventFlow(events_db, "events")
         .tumbling_window("user", days=7))  # not a DATE column
    with pytest.raises(SqlError):
        (EventFlow(events_db, "events")
         .aggregate(by=["window_start"], totals={"n": "count(*)"}))
    with pytest.raises(SqlError):
        (EventFlow(events_db, "events")
         .aggregate(by=["ts"], totals={"n": "clicks + 1"}))


def test_having_matches_equivalent_sql(events_db):
    flow = (EventFlow(events_db, "events")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start", "user"],
                       totals={"total": "sum(amount)", "n": "count(*)"})
            .having("n > 5 and total > 50.0")
            .order_by("window_start", "user"))
    sql_rows = events_db.execute(
        "select ts - (ts % 7) as w, user, sum(amount) total, count(*) n "
        "from events group by ts - (ts % 7), user "
        "having count(*) > 5 and sum(amount) > 50.0 "
        "order by w, user"
    ).rows
    assert rows_match(flow.run().rows, sql_rows)
    assert rows_match(flow.run_interpreted(), sql_rows)
    assert len(sql_rows) > 0


def test_having_can_filter_on_group_keys(events_db):
    flow = (EventFlow(events_db, "events")
            .aggregate(by=["user"], totals={"n": "count(*)"})
            .having("user = 'alice'"))
    rows = flow.run().rows
    assert len(rows) == 1 and rows[0][0] == "alice"


def test_having_uses_dsl_vocabulary_in_reports(events_db):
    flow = (EventFlow(events_db, "events")
            .tumbling_window("ts", days=7)
            .aggregate(by=["window_start"], totals={"n": "count(*)"})
            .having("n > 5"))
    plan = flow.profile().annotated_plan()
    assert "having#" in plan


def test_having_stage_errors(events_db):
    with pytest.raises(SqlError):
        EventFlow(events_db, "events").having("clicks > 0")
    aggregated = (EventFlow(events_db, "events")
                  .aggregate(by=["user"], totals={"n": "count(*)"}))
    with pytest.raises(SqlError) as exc_info:
        aggregated.having("clicks > 0")  # per-event column is gone
    assert "available" in str(exc_info.value)
    with pytest.raises(SqlError):
        aggregated.having("n + 1")  # not a boolean


def test_flow_on_tpch(tpch_db):
    flow = (EventFlow(tpch_db, "lineitem", label="shipments")
            .derive(revenue="l_extendedprice * (1 - l_discount)")
            .tumbling_window("l_shipdate", days=90)
            .aggregate(by=["window_start"], totals={"rev": "sum(revenue)"})
            .order_by("window_start"))
    compiled = flow.run()
    oracle = flow.run_interpreted()
    assert rows_match(compiled.rows, oracle)
    assert len(compiled.rows) > 10


def test_flow_random_windows_match_sql(events_db):
    """Window bucketing agrees with its SQL formulation for many widths."""
    for days in (1, 3, 10, 14, 365):
        flow_rows = (
            EventFlow(events_db, "events")
            .tumbling_window("ts", days=days)
            .aggregate(by=["window_start"], totals={"total": "sum(amount)"})
            .order_by("window_start")
        ).run().rows
        sql_rows = events_db.execute(
            f"select ts - (ts % {days}) w, sum(amount) total from events "
            f"group by ts - (ts % {days}) order by w"
        ).rows
        assert len(flow_rows) == len(sql_rows)
        for f, s in zip(flow_rows, sql_rows):
            assert f[1] == pytest.approx(s[1])
