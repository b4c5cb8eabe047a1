"""Tests for the differential fuzzer itself: generator, oracle, shrinker.

The acceptance-style tests plant a deliberate miscompile via the
backend's fault-injection hook and demand that the oracle notices and the
shrinker reduces the repro to a trivial plan — the machinery must be able
to find and minimize a real bug before its green runs mean anything.
"""

import json
from random import Random

import pytest

from repro.errors import ReproError
from repro.fuzz import (
    Dataset,
    DifferentialOracle,
    QueryGenerator,
    Shrinker,
    bags_equal,
    build_database,
    extract_dataset,
    operator_count,
    random_dataset,
    run_fuzz,
)
from repro.fuzz.oracle import is_sorted
from repro.sql import ast, parse, unparse


@pytest.fixture(scope="module")
def fuzz_db():
    dataset = random_dataset(0)
    return dataset, build_database(dataset)


# -- dataset -----------------------------------------------------------------

def test_random_dataset_is_deterministic():
    a, b = random_dataset(7), random_dataset(7)
    assert a.to_json() == b.to_json()
    assert random_dataset(8).to_json() != a.to_json()


def test_dataset_json_round_trip():
    dataset = random_dataset(3)
    document = json.loads(dataset.dumps())
    rebuilt = Dataset.from_json(document)
    assert rebuilt.to_json() == dataset.to_json()


def test_dataset_has_fuzz_pathologies():
    dataset = random_dataset(0)
    # the mid table must carry zero-sentinel ("no parent") join keys
    assert 0 in dataset.tables["mid"].values_of("dim_id")
    assert dataset.foreign_keys


def test_build_and_extract_round_trip(fuzz_db):
    dataset, db = fuzz_db
    extracted = extract_dataset(db)
    db2 = build_database(extracted)
    sql = "select count(*) as c, sum(f.qty) as s from fact as f"
    assert db.execute(sql).rows == db2.execute(sql).rows


# -- unparse -----------------------------------------------------------------

def test_unparse_round_trip_preserves_shape():
    sql = (
        "select t.k as c0, sum(t.v * 2) as c1 from t as t "
        "where (t.k between 1 and 5) and (t.tag not like 'a%') "
        "group by t.k having count(*) > 1 order by c0 desc limit 3"
    )
    stmt = parse(sql)
    rendered = unparse(stmt)
    again = parse(rendered)
    assert unparse(again) == rendered


def test_unparse_escapes_and_floats():
    stmt = parse("select count(*) as c from t as t where t.s = 'it''s'")
    assert "'it''s'" in unparse(stmt)
    from repro.sql.unparse import unparse_expression

    literal = unparse_expression(ast.NumberLit(1e-8))
    assert "e" not in literal and "E" not in literal  # no exponent notation
    assert float(literal) == 1e-8


# -- generator ---------------------------------------------------------------

def test_generator_is_deterministic():
    dataset = random_dataset(1)
    a = QueryGenerator(dataset, Random(5))
    b = QueryGenerator(dataset, Random(5))
    assert [a.generate().sql for _ in range(10)] == [
        b.generate().sql for _ in range(10)
    ]


def test_generator_emits_mostly_bindable_queries(fuzz_db):
    dataset, db = fuzz_db
    generator = QueryGenerator(dataset, Random(11))
    rejected = 0
    for _ in range(60):
        query = generator.generate()
        try:
            db._plan(query.sql)
        except ReproError:
            rejected += 1
    assert rejected <= 3  # ~99% of generated queries must bind


def test_generator_covers_the_grammar(fuzz_db):
    dataset, _ = fuzz_db
    generator = QueryGenerator(dataset, Random(2))
    seen = set()
    for _ in range(150):
        seen |= generator.generate().features
    assert {"join", "group_by", "aggregate", "filter", "order_by"} <= seen
    assert "having" in seen and "case" in seen


# -- oracle comparison helpers ----------------------------------------------

def test_bags_equal_is_order_insensitive():
    assert bags_equal([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])
    assert not bags_equal([(1,)], [(1,), (1,)])
    assert not bags_equal([(1,), (1,)], [(1,), (2,)])


def test_bags_equal_tolerates_float_noise():
    assert bags_equal([(1.0000000001,)], [(1.0,)])
    assert not bags_equal([(1.01,)], [(1.0,)])


def test_is_sorted_checks_keys_with_ties():
    rows = [(1, "b"), (1, "a"), (2, "z")]
    assert is_sorted(rows, [(0, True)])
    assert not is_sorted(rows, [(0, True), (1, True)])
    assert is_sorted(rows, [(0, True), (1, False)])


# -- oracle ------------------------------------------------------------------

def test_oracle_agrees_on_healthy_engine(fuzz_db):
    dataset, db = fuzz_db
    generator = QueryGenerator(dataset, Random(21))
    oracle = DifferentialOracle(db, max_hints=2, check_pgo=False)
    checked = 0
    for _ in range(8):
        query = generator.generate()
        result = oracle.check(
            query.sql, aliases=query.aliases, ordered_by=query.ordered_by
        )
        if result.rejected:
            continue
        checked += 1
        assert not result.disagreements, (
            query.sql,
            [(d.config, d.reason) for d in result.disagreements],
        )
    assert checked >= 6


def test_oracle_rejects_unbindable_queries(fuzz_db):
    _, db = fuzz_db
    result = DifferentialOracle(db).check("select nope from nowhere as n")
    assert result.rejected
    assert "Error" in result.reject_reason
    ambiguous = DifferentialOracle(db).check(
        "select id from dim as a, mid as b where a.id = b.dim_id"
    )
    assert ambiguous.rejected
    assert "SqlError" in ambiguous.reject_reason


def test_oracle_skips_disconnected_hints(fuzz_db):
    _, db = fuzz_db
    # dim and fact are not directly joinable: every hint placing them
    # adjacently without mid is a PlanError, reported as skipped
    oracle = DifferentialOracle(db, max_hints=6, check_pgo=False)
    result = oracle.check(
        "select count(*) as c from dim as t0, mid as t1, fact as t2 "
        "where (t0.id = t1.dim_id) and (t1.id = t2.mid_id)",
        aliases=["t0", "t1", "t2"],
    )
    assert not result.disagreements
    kinds = {o.config: o.kind for o in result.outcomes}
    assert any(
        kind == "skipped" for config, kind in kinds.items()
        if config.startswith("hint[")
    )


def test_oracle_detects_planted_miscompile(fuzz_db):
    dataset, db = fuzz_db
    generator = QueryGenerator(dataset, Random(7))
    oracle = DifferentialOracle(
        db, inject_fault="invert-first-cmpeq", check_pgo=False
    )
    caught = 0
    for _ in range(10):
        query = generator.generate()
        result = oracle.check(
            query.sql, aliases=query.aliases, ordered_by=query.ordered_by
        )
        if not result.rejected and result.disagreements:
            caught += 1
    assert caught >= 3  # the fault must not be invisible


# -- shrinker ----------------------------------------------------------------

def test_shrinker_returns_none_when_nothing_disagrees(fuzz_db):
    dataset, _ = fuzz_db
    shrinker = Shrinker(
        dataset, "select count(*) as c from fact as t0", check_pgo=False
    )
    assert shrinker.run() is None


def test_shrinker_minimizes_planted_miscompile_to_trivial_plan():
    """Acceptance: an injected miscompile shrinks to <= 3 operators."""
    dataset = random_dataset(0)
    db = build_database(dataset)
    generator = QueryGenerator(dataset, Random(7))
    oracle = DifferentialOracle(
        db, inject_fault="invert-first-cmpeq", check_pgo=False
    )
    for _ in range(30):
        query = generator.generate()
        result = oracle.check(
            query.sql, aliases=query.aliases, ordered_by=query.ordered_by
        )
        if result.rejected or not result.disagreements:
            continue
        shrunk = Shrinker(
            dataset, query.sql, inject_fault="invert-first-cmpeq"
        ).run()
        assert shrunk is not None, "shrinker lost the repro"
        assert shrunk.operators <= 3, shrunk.sql
        assert shrunk.row_total <= dataset.row_total()
        # the minimized repro must still disagree on a fresh oracle
        db2 = build_database(shrunk.dataset)
        check = DifferentialOracle(
            db2, inject_fault="invert-first-cmpeq", check_pgo=False
        ).check(shrunk.sql)
        assert check.disagreements
        return
    pytest.fail("no query tripped over the planted miscompile")


def test_operator_count_on_simple_plans(fuzz_db):
    _, db = fuzz_db
    assert operator_count(db, "select count(*) as c from dim as d") == 3
    assert operator_count(db, "select nope from nowhere as n") >= 10**6


# -- harness -----------------------------------------------------------------

def test_run_fuzz_small_budget_is_clean():
    report = run_fuzz(5, 6, max_hints=2, check_pgo=False, rotate_every=3)
    assert report.ok
    assert report.queries == 6
    assert report.datasets == 2
    # reference, parallel, interpreted, unoptimized, groupjoin at minimum
    assert report.executions >= 6 * 5
    # vm-parity[tiered] means what it says: every signature is of a run
    # that executed at tier 2
    assert report.tier2_signed == report.queries


def test_run_fuzz_persists_minimized_failures(tmp_path):
    report = run_fuzz(
        3, 2, inject_fault="invert-first-cmpeq", check_pgo=False,
        max_hints=0, corpus_dir=tmp_path,
    )
    assert not report.ok
    failure = report.failures[0]
    assert failure.shrunk_sql is not None
    assert failure.corpus_path is not None
    document = json.loads((tmp_path / f"fuzz-seed3-q{failure.index}.json").read_text())
    assert document["sql"] == failure.shrunk_sql
    assert document["dataset"]["tables"]
    assert document["original_sql"] == failure.sql


def test_run_fuzz_respects_time_limit():
    report = run_fuzz(1, 10_000, time_limit=2.0, check_pgo=False, max_hints=0)
    assert report.queries < 10_000
    assert report.elapsed < 20.0
