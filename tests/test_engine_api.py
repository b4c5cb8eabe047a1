"""Engine façade tests: API surface, decoding, errors, lifecycle."""

import pytest

from repro import Column, DataType, Database, ProfilerConfig, Schema
from repro.errors import ReproError, SqlError


def small_db():
    db = Database()
    t = DataType
    table = db.create_table("t", Schema([
        Column("i", t.INT),
        Column("s", t.STRING),
        Column("d", t.DATE),
        Column("m", t.DECIMAL),
    ]))
    table.extend([
        (1, "one", "2001-01-01", 1.25),
        (2, "two", "2002-02-02", -3.50),
    ])
    db.finalize()
    return db


def test_query_before_finalize_rejected():
    db = Database()
    db.create_table("t", Schema([Column("a", DataType.INT)]))
    with pytest.raises(ReproError):
        db.execute("select a from t")


def test_output_decoding_per_type():
    db = small_db()
    rows = db.execute("select i, s, d, m from t order by i").rows
    assert rows == [
        (1, "one", "2001-01-01", 1.25),
        (2, "two", "2002-02-02", -3.50),
    ]


def test_result_metadata():
    db = small_db()
    result = db.execute("select i as number, m from t order by i")
    assert result.columns == ["number", "m"]
    assert len(result) == 2
    assert list(iter(result)) == result.rows
    assert result.cycles > 0 and result.instructions > 0


def test_explain_shows_plan_shape():
    db = small_db()
    text = db.explain("select count(*) c from t where i = 1")
    assert "scan t" in text
    assert "group by" in text


def test_sql_errors_are_sql_errors():
    db = small_db()
    for bad in (
        "select nope from t",
        "select i from missing_table",
        "select i from t where s = 5",
        "selec i from t",
    ):
        with pytest.raises(ReproError):
            db.execute(bad)


def test_memory_is_released_between_queries():
    db = small_db()
    db.execute("select i from t")
    used_after_first = db.memory.used_bytes()
    for _ in range(5):
        db.execute("select sum(m) x from t group by s")
    assert db.memory.used_bytes() == used_after_first


def test_profile_does_not_leak_memory_either():
    db = small_db()
    db.execute("select i from t")
    used = db.memory.used_bytes()
    db.profile("select i from t where i > 0")
    assert db.memory.used_bytes() == used


def test_empty_table_queries():
    db = Database()
    db.create_table("empty", Schema([Column("a", DataType.INT)]))
    db.finalize()
    assert db.execute("select a from empty").rows == []
    assert db.execute("select count(*) n from empty").rows == [(0,)]
    assert db.execute("select a from empty order by a limit 3").rows == []


def test_avg_over_empty_input_returns_zero():
    """Regression: ungrouped avg over zero rows used to fault (sum/count
    with count = 0); the binder now guards the division."""
    db = Database()
    db.create_table("empty", Schema([Column("a", DataType.INT)]))
    db.finalize()
    sql = "select avg(a) m, count(*) n from empty"
    assert db.execute(sql).rows == [(0.0, 0)]
    assert db.execute_interpreted(sql).rows == [(0.0, 0)]


def test_avg_empty_after_filter_matches_interpreter():
    db = small_db()
    sql = "select avg(m) v from t where i > 100"
    compiled = db.execute(sql).rows
    assert compiled == db.execute_interpreted(sql).rows == [(0.0,)]
    # non-empty input still averages normally
    full = db.execute("select avg(i) v from t").rows
    assert full == [(1.5,)]


def test_single_row_aggregates():
    db = Database()
    t = db.create_table("one", Schema([Column("a", DataType.INT)]))
    t.append((42,))
    db.finalize()
    rows = db.execute(
        "select count(*) n, sum(a) s, min(a) lo, max(a) hi, avg(a) m from one"
    ).rows
    assert rows == [(1, 42, 42, 42, 42.0)]


def test_profiler_config_validation():
    with pytest.raises(ReproError, match="sampling period"):
        ProfilerConfig(period=0)


def test_repeated_profiles_are_deterministic():
    db = small_db()
    sql = "select s, sum(m) v from t group by s order by s"
    first = db.profile(sql)
    second = db.profile(sql)
    assert second.program is first.program  # the cached plan, run again
    assert first.result.rows == second.result.rows
    assert len(first.samples) == len(second.samples)
    assert [s.tsc for s in first.samples] == [s.tsc for s in second.samples]


def test_division_by_zero_query_faults():
    db = Database()
    t = db.create_table("z", Schema([
        Column("a", DataType.INT), Column("b", DataType.INT),
    ]))
    t.extend([(1, 0)])
    db.finalize()
    from repro.errors import VMError

    with pytest.raises(VMError):
        db.execute("select a / b r from z")


def test_simulated_memory_is_what_was_allocated(monkeypatch):
    # a fresh database holds exactly its tables and year table; a run
    # raises the words to its own high-water and its release keeps them
    from repro.data.queries import ALL_QUERIES

    db = Database.tpch(0.001, 42)
    memory = db.memory
    loaded = memory.used_bytes()
    assert len(memory.words) * 8 == loaded
    breaks = [loaded]
    alloc = memory.alloc

    def recording(*args, **kwargs):
        base = alloc(*args, **kwargs)
        breaks.append(memory.used_bytes())
        return base

    monkeypatch.setattr(memory, "alloc", recording)
    db.execute(ALL_QUERIES["q1"].sql)
    assert memory.used_bytes() == loaded
    assert len(memory.words) * 8 <= max(breaks)
