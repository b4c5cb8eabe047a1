"""Tests for the engine-level compiled-plan cache (repro.plancache)."""

from pathlib import Path

import pytest

from repro import Database
from repro.data.queries import ALL_QUERIES
from repro.errors import ReproError
from repro.fuzz import load_directory
from repro.fuzz.dataset import build_database
from repro.plancache import PlanCache

SQL = "SELECT COUNT(*) FROM sales WHERE price > 100.0"
OTHER = "SELECT SUM(price) FROM sales"


# -- the LRU structure itself ------------------------------------------------


def test_lru_evicts_least_recently_used():
    cache = PlanCache(capacity=2)
    cache.put(("a",), "plan-a")
    cache.put(("b",), "plan-b")
    assert cache.get(("a",)) == "plan-a"  # refreshes a
    cache.put(("c",), "plan-c")  # over capacity: b is the LRU victim
    assert ("b",) not in cache
    assert cache.get(("a",)) == "plan-a"
    assert cache.get(("c",)) == "plan-c"
    assert cache.evictions == 1


def test_hit_miss_counters_and_stats():
    cache = PlanCache(capacity=4)
    assert cache.get(("missing",)) is None
    cache.put(("k",), "plan")
    assert cache.get(("k",)) == "plan"
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1
    assert stats["capacity"] == 4


def test_stale_feedback_version_misses():
    cache = PlanCache()
    cache.put(("k",), "v0-plan", feedback_version=0)
    assert cache.get(("k",), feedback_version=1) is None
    cache.put(("k",), "v1-plan", feedback_version=1)
    assert cache.get(("k",), feedback_version=1) == "v1-plan"


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# -- engine integration ------------------------------------------------------


@pytest.fixture(scope="module")
def db():
    return Database.example(n_sales=800, n_products=50)


def test_execute_reuses_cached_plan(db):
    db.plan_cache.clear()
    hits, misses = db.plan_cache.hits, db.plan_cache.misses
    first = db.execute(SQL)
    assert db.plan_cache.misses == misses + 1
    second = db.execute(SQL)
    assert db.plan_cache.hits == hits + 1
    assert first.rows == second.rows
    assert db.plan_cache_hits == db.plan_cache.hits  # Database delegates


def test_flavors_key_separately(db):
    db.plan_cache.clear()
    db.execute(OTHER)
    plain_entries = len(db.plan_cache)
    store = db.enable_pgo()  # clears the cache
    try:
        db.execute(OTHER, pgo=True)
        db.execute(OTHER)
        # the pgo compile sits in its own entry next to the plain one
        assert len(db.plan_cache) == plain_entries + 1
    finally:
        db.pgo_store = None
        db.plan_cache.clear()
        assert store is not None


def test_knob_changes_are_cache_misses(db):
    db.plan_cache.clear()
    db.execute(SQL)
    misses = db.plan_cache.misses
    db.execute(SQL, optimize_backend=False)
    assert db.plan_cache.misses == misses + 1
    db.execute(SQL, optimize_backend=False)
    assert db.plan_cache.misses == misses + 1  # second unoptimized run hits


def test_string_literal_case_is_part_of_the_key(db):
    """Regression: the fingerprint lower-cased string literals, so a
    statement differing only in a literal's case ran the other's plan."""
    chip = "SELECT COUNT(*) FROM products WHERE category = 'Chip'"
    assert db.execute(chip).rows != [(0,)]
    assert db.execute(chip.replace("Chip", "chip")).rows == [(0,)]
    hits = db.plan_cache.hits
    assert db.execute(chip.lower().replace("chip", "Chip")).rows != [(0,)]
    assert db.plan_cache.hits == hits + 1  # keywords still fold


# -- a compiled plan owns no simulated memory ---------------------------------


def test_evicted_plans_leave_no_memory_behind():
    """Regression: every statement with a membership bitmap grew the bump
    allocator by its bitmap at compile time, evicted or not."""
    db = Database.example(n_sales=300, n_products=40)
    db.plan_cache = PlanCache(capacity=2)
    before = db.memory.used_bytes()
    for first in range(1, 9):
        ids = ", ".join(str(first + k) for k in range(8))
        sql = f"SELECT COUNT(*) FROM sales WHERE id IN ({ids})"
        assert db.execute(sql).rows == db.execute_interpreted(sql).rows
        assert db.memory.used_bytes() == before
    assert db.plan_cache.evictions == 6


def _assert_compile_allocates_nothing(db, sql):
    before = db.memory.used_bytes()
    compiled = db._compile(sql, None)
    assert db.memory.used_bytes() == before, sql
    return compiled


def test_compile_allocates_nothing_tpch(tpch_db):
    constants = 0
    for query in ALL_QUERIES.values():
        compiled = _assert_compile_allocates_nothing(tpch_db, query.sql)
        constants += len(compiled.query_ir.state.constants)
    assert constants  # some of the 22 do carry bitmaps (q13's LIKE, ...)


def test_compile_allocates_nothing_corpus():
    for case in load_directory(Path(__file__).parent / "corpus"):
        _assert_compile_allocates_nothing(
            build_database(case.dataset), case.sql
        )


def test_code_is_generated_only_over_built_storage():
    """``finalize()`` builds the storage every scan compiles against; SQL
    and prebuilt plans meet the same check."""
    db = Database()
    with pytest.raises(ReproError, match="not finalized"):
        db.execute("SELECT 1")
    with pytest.raises(ReproError, match="not finalized"):
        db.execute_plan(None, None)
