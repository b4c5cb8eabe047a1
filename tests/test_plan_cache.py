"""Tests for the engine-level compiled-plan cache (repro.plancache)."""

import pytest

from repro import Database
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


def test_evict_since_watermark():
    cache = PlanCache()
    cache.put(("before",), "old")
    watermark = cache.serial
    cache.put(("during-1",), "new")
    cache.put(("during-2",), "new")
    assert cache.evict_since(watermark) == 2
    assert ("before",) in cache
    assert ("during-1",) not in cache
    assert ("during-2",) not in cache


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
        # the pgo flavor compiles its own entry next to the plain one
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
