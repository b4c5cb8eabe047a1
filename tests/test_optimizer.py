"""Tests for cardinality estimation, join ordering, and physical planning."""

import pytest

from repro.errors import PlanError
from repro.plan.cardinality import CardinalityModel
from repro.plan.interpret import Interpreter
from repro.plan.logical import LogicalFilter, LogicalJoin, LogicalScan
from repro.plan.physical import (
    PhysicalGroupBy,
    PhysicalGroupJoin,
    PhysicalHashJoin,
    PlannerOptions,
    plan_physical,
)
from repro.sql import parse
from repro.sql.binder import Binder

from tests.helpers import small_catalog

pytestmark = pytest.mark.usefixtures("numbering")


def bind(catalog, sql, hint=None):
    return Binder(catalog).bind(parse(sql), join_order_hint=hint)


def test_scan_cardinality_is_row_count():
    catalog = small_catalog()
    bound = bind(catalog, "select id from items")
    model = CardinalityModel()
    scan = next(
        n for n in bound.plan.walk() if isinstance(n, LogicalScan)
    )
    assert model.estimate(scan) == 6


def test_equality_selectivity_uses_ndv():
    catalog = small_catalog()
    bound = bind(catalog, "select id from items where kind = 'apple'")
    model = CardinalityModel()
    filt = next(n for n in bound.plan.walk() if isinstance(n, LogicalFilter))
    # 3 distinct kinds -> 6/3 = 2 expected rows
    assert model.estimate(filt) == pytest.approx(2.0)


def test_range_selectivity_interpolates():
    catalog = small_catalog()
    bound = bind(catalog, "select id from items where id <= 3")
    model = CardinalityModel()
    filt = next(n for n in bound.plan.walk() if isinstance(n, LogicalFilter))
    estimate = model.estimate(filt)
    assert 1.5 <= estimate <= 4.0


def test_join_cardinality_divides_by_key_ndv():
    catalog = small_catalog()
    bound = bind(
        catalog, "select i.id from items i, kinds k where i.kind = k.name"
    )
    model = CardinalityModel()
    join = next(n for n in bound.plan.walk() if isinstance(n, LogicalJoin))
    # 6 * 3 / max(ndv) = 18/3 = 6
    assert model.estimate(join) == pytest.approx(6.0)


def test_hint_controls_join_shape():
    catalog = small_catalog()
    sql = "select count(*) c from items i, kinds k where i.kind = k.name"
    for hint in (["i", "k"], ["k", "i"]):
        bound = bind(catalog, sql, hint=hint)
        join = next(n for n in bound.plan.walk() if isinstance(n, LogicalJoin))
        first = hint[0]
        scan = join.left
        while not isinstance(scan, LogicalScan):
            scan = scan.children()[0]
        assert scan.alias == first


def test_bad_hints_rejected():
    catalog = small_catalog()
    sql = "select count(*) c from items i, kinds k where i.kind = k.name"
    with pytest.raises(PlanError):
        bind(catalog, sql, hint=["i"])
    with pytest.raises(PlanError):
        bind(catalog, sql, hint=["i", "zzz"])


def test_build_side_is_smaller_input():
    catalog = small_catalog()
    bound = bind(
        catalog, "select i.id from items i, kinds k where i.kind = k.name"
    )
    physical = plan_physical(bound.plan, bound.model)
    join = next(n for n in physical.walk() if isinstance(n, PhysicalHashJoin))
    # kinds (3 rows) should be the build side, items (6 rows) the probe
    from repro.plan.physical import PhysicalScan

    build = join.build
    while not isinstance(build, PhysicalScan):
        build = build.children()[0]
    assert build.alias == "k"


def test_groupjoin_requires_unique_build_key():
    catalog = small_catalog()
    # grouping items by kind over the join with kinds: kinds.name is unique
    sql = (
        "select k.name, sum(i.price) s from items i, kinds k "
        "where i.kind = k.name group by k.name"
    )
    bound = bind(catalog, sql)
    fused = plan_physical(bound.plan, bound.model, PlannerOptions(enable_groupjoin=True))
    assert any(isinstance(n, PhysicalGroupJoin) for n in fused.walk())
    plain = plan_physical(bind(catalog, sql).plan, bound.model)
    assert not any(isinstance(n, PhysicalGroupJoin) for n in plain.walk())


def test_groupjoin_not_applied_when_keys_mismatch():
    catalog = small_catalog()
    # grouping by a non-join column: fusion must not trigger
    sql = (
        "select i.sold, sum(i.price) s from items i, kinds k "
        "where i.kind = k.name group by i.sold"
    )
    bound = bind(catalog, sql)
    physical = plan_physical(bound.plan, bound.model, PlannerOptions(enable_groupjoin=True))
    assert not any(isinstance(n, PhysicalGroupJoin) for n in physical.walk())
    assert any(isinstance(n, PhysicalGroupBy) for n in physical.walk())


def test_groupjoin_matches_plain_groupby_results():
    catalog = small_catalog()
    sql = (
        "select k.name, sum(i.price) s, count(*) n from items i, kinds k "
        "where i.kind = k.name group by k.name order by k.name"
    )
    bound_fused = bind(catalog, sql)
    fused_plan = plan_physical(
        bound_fused.plan, bound_fused.model, PlannerOptions(enable_groupjoin=True)
    )
    bound_plain = bind(catalog, sql)
    plain_plan = plan_physical(bound_plain.plan, bound_plain.model)
    fused_rows = Interpreter().run(fused_plan)
    plain_rows = Interpreter().run(plain_plan)
    assert fused_rows == plain_rows


def test_residual_predicate_lands_on_join():
    catalog = small_catalog()
    sql = (
        "select count(*) c from items i, kinds k "
        "where i.kind = k.name and (i.price > 1.00 or k.tasty = 1)"
    )
    bound = bind(catalog, sql)
    join = next(n for n in bound.plan.walk() if isinstance(n, LogicalJoin))
    assert join.residual is not None


def test_single_table_filters_are_pushed_down():
    catalog = small_catalog()
    sql = (
        "select count(*) c from items i, kinds k "
        "where i.kind = k.name and i.price > 1.00 and k.tasty = 1"
    )
    bound = bind(catalog, sql)
    join = next(n for n in bound.plan.walk() if isinstance(n, LogicalJoin))
    assert join.residual is None
    filters = [n for n in bound.plan.walk() if isinstance(n, LogicalFilter)]
    assert len(filters) == 2  # one per side, below the join
