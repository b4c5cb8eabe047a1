"""Tests for iterative dataflow support (§4.2.6)."""

import pytest

from repro import ProfilerConfig
from repro.data.queries import ALL_QUERIES, FIG9_QUERY

from tests.conftest import rows_match


def test_repeats_produce_same_rows(tpch_db):
    once = tpch_db.execute(FIG9_QUERY.sql)
    profile = tpch_db.profile(FIG9_QUERY.sql, repeats=3)
    assert profile.result.rows == once.rows


def test_repeats_rewrite_the_membership_bitmap(tpch_db):
    """Every iteration zeroes the state block, q13's LIKE bitmap with it:
    the state initialiser must write the plan's constants back."""
    sql = ALL_QUERIES["q13"].sql
    profile = tpch_db.profile(sql, repeats=3)
    assert rows_match(
        profile.result.rows, tpch_db.execute_interpreted(sql).rows
    )


def test_iteration_detection_finds_all_repeats(tpch_db):
    profile = tpch_db.profile(FIG9_QUERY.sql, repeats=4)
    iterations = profile.iterations()
    assert len(iterations) == 4
    # iterations partition the sample stream in time order
    for earlier, later in zip(iterations, iterations[1:]):
        assert earlier.end_tsc <= later.start_tsc + 1
    counts = [i.samples for i in iterations]
    assert max(counts) < 1.5 * min(counts), "iterations should be similar"


def test_single_run_is_one_iteration(tpch_db):
    profile = tpch_db.profile(FIG9_QUERY.sql)
    assert len(profile.iterations()) == 1


def test_iteration_report_text(tpch_db):
    profile = tpch_db.profile(FIG9_QUERY.sql, repeats=2)
    text = profile.iteration_report()
    assert "2 iteration(s)" in text
    assert text.count("join#") >= 1


def test_zoom_onto_one_iteration(tpch_db):
    profile = tpch_db.profile(FIG9_QUERY.sql, repeats=3)
    iterations = profile.iterations()
    middle = iterations[1]
    zoomed = profile.zoom(middle.start_tsc, middle.end_tsc)
    operator_samples = sum(
        1 for a in zoomed.attributions if a.category == "operator"
    )
    assert operator_samples == middle.samples
    costs = zoomed.operator_costs()
    assert costs and sum(costs.values()) == pytest.approx(1.0)


def test_repeats_validation(tpch_db):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        tpch_db.profile(FIG9_QUERY.sql, repeats=0)


def test_repeats_scale_cycles(tpch_db):
    one = tpch_db.profile(FIG9_QUERY.sql, ProfilerConfig(period=1 << 40))
    three = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(period=1 << 40), repeats=3
    )
    ratio = three.result.cycles / one.result.cycles
    assert 2.5 < ratio < 3.5
