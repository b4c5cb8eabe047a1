"""Tests for morsel-driven multicore execution (§5's multicore support).

Every worker is a simulated core with its own clock, caches, branch
predictor, and PMU sample buffer; morsels are dispatched greedily to the
least-loaded worker; pipelines end in barriers.
"""

import pytest

from repro import Database, ExecOptions, ProfilerConfig
from repro.data.queries import ALL_QUERIES, FIG9_QUERY

from tests.conftest import rows_match


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_results_match_serial(tpch_db, workers):
    for name in ("q1", "q6", "q12", "q14"):
        sql = ALL_QUERIES[name].sql
        serial = tpch_db.execute(sql)
        parallel = tpch_db.execute(sql, ExecOptions(workers=workers))
        assert rows_match(parallel.rows, serial.rows), name


def test_tiny_morsels_share_one_membership_bitmap(tpch_db):
    """q14's LIKE bitmap sits in the state block all workers share."""
    sql = ALL_QUERIES["q14"].sql
    parallel = tpch_db.execute(sql, ExecOptions(workers=4, morsel_size=7))
    assert rows_match(parallel.rows, tpch_db.execute_interpreted(sql).rows)


def test_parallel_join_query_matches(tpch_db):
    serial = tpch_db.execute(FIG9_QUERY.sql)
    parallel = tpch_db.execute(FIG9_QUERY.sql, ExecOptions(workers=3))
    assert rows_match(parallel.rows, serial.rows)


def test_parallel_is_faster_in_wall_clock(tpch_db):
    sql = ALL_QUERIES["q1"].sql
    serial = tpch_db.execute(sql)
    parallel = tpch_db.execute(sql, ExecOptions(workers=4))
    # wall time (slowest worker) drops; total instructions stay comparable
    assert parallel.cycles < serial.cycles * 0.6
    assert parallel.instructions == pytest.approx(serial.instructions, rel=0.05)


def test_parallel_speedup_scales(tpch_db):
    sql = ALL_QUERIES["q1"].sql
    times = {
        w: tpch_db.execute(sql, ExecOptions(workers=w)).cycles
        for w in (1, 2, 4)
    }
    assert times[2] < times[1]
    assert times[4] < times[2]
    speedup4 = times[1] / times[4]
    assert 2.0 < speedup4 <= 4.5


def test_workers_validation():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        ExecOptions(workers=0)


def test_parallel_profile_merges_worker_samples(tpch_db):
    profile = tpch_db.profile(FIG9_QUERY.sql, options=ExecOptions(workers=3))
    assert profile.workers == 3
    worker_ids = {a.worker for a in profile.attributions}
    assert len(worker_ids) >= 2, "several workers must have taken samples"
    # merged stream is time-ordered and reports still work
    tscs = [a.sample.tsc for a in profile.attributions]
    assert tscs == sorted(tscs)
    costs = profile.operator_costs()
    assert sum(costs.values()) == pytest.approx(1.0)
    summary = profile.attribution_summary()
    assert summary.attributed_share > 0.9


def test_parallel_profile_attribution_matches_serial_shape(tpch_db):
    serial = tpch_db.profile(FIG9_QUERY.sql)
    parallel = tpch_db.profile(FIG9_QUERY.sql, options=ExecOptions(workers=4))
    serial_costs = {op.kind: s for op, s in serial.operator_costs().items()}
    parallel_costs = {op.kind: s for op, s in parallel.operator_costs().items()}
    for kind in ("hashjoin", "groupby"):
        assert parallel_costs.get(kind, 0) == pytest.approx(
            serial_costs.get(kind, 0), abs=0.15
        )


def test_parallel_ordered_output_preserved(tpch_db):
    sql = (
        "select l_orderkey, sum(l_quantity) q from lineitem "
        "group by l_orderkey order by q desc, l_orderkey limit 25"
    )
    serial = tpch_db.execute(sql)
    parallel = tpch_db.execute(sql, ExecOptions(workers=4))
    assert parallel.rows == serial.rows  # sorted output stays ordered


def test_worker_timeline_render(tpch_db):
    from repro.profiling.reports import render_worker_timeline

    profile = tpch_db.profile(
        ALL_QUERIES["q1"].sql, options=ExecOptions(workers=3)
    )
    text = render_worker_timeline(profile, bins=20)
    assert text.count("worker") >= 2
    lanes = [line for line in text.splitlines() if line.startswith("worker")]
    widths = {len(line) for line in lanes}
    assert len(widths) == 1  # aligned lanes


def test_parallel_groupjoin(tpch_db):
    from repro import PlannerOptions

    sql = (
        "select o_orderkey, sum(l_extendedprice) s from orders, lineitem "
        "where o_orderkey = l_orderkey group by o_orderkey"
    )
    options = PlannerOptions(enable_groupjoin=True)
    serial = tpch_db.execute(sql, ExecOptions(planner_options=options))
    parallel = tpch_db.execute(
        sql, ExecOptions(planner_options=options, workers=3)
    )
    assert rows_match(parallel.rows, serial.rows)


def test_parallel_with_repeats(tpch_db):
    """Morsel parallelism and iterative execution compose."""
    profile = tpch_db.profile(
        ALL_QUERIES["q1"].sql, options=ExecOptions(workers=3, repeats=2)
    )
    assert profile.workers == 3
    iterations = profile.iterations()
    assert len(iterations) == 2
    assert profile.attribution_summary().attributed_share > 0.9
