"""Tests for pipeline decomposition (lowering step 1)."""

from repro.numbering import lowering
from repro.pipeline import decompose
from repro.plan.physical import PlannerOptions, plan_physical
from repro.sql import parse
from repro.sql.binder import Binder

from tests.helpers import small_catalog

@lowering()
def pipelines_for(sql, options=None):
    catalog = small_catalog()
    bound = Binder(catalog).bind(parse(sql))
    physical = plan_physical(bound.plan, bound.model, options)
    tasks_seen = []
    pipelines = decompose(physical, on_task=tasks_seen.append)
    return pipelines, tasks_seen, physical


def test_scan_filter_output_is_one_pipeline():
    pipelines, tasks, _ = pipelines_for("select id from items where price > 1")
    assert len(pipelines) == 1
    roles = [t.role for t in pipelines[0].tasks]
    assert roles == ["scan", "filter", "output"]


def test_join_splits_at_build():
    pipelines, _, _ = pipelines_for(
        "select i.id from items i, kinds k where i.kind = k.name"
    )
    assert len(pipelines) == 2
    build_roles = [t.role for t in pipelines[0].tasks]
    probe_roles = [t.role for t in pipelines[1].tasks]
    assert build_roles[-1] == "build"
    assert "probe" in probe_roles
    assert probe_roles[-1] == "output"


def test_groupby_splits_at_materialize():
    pipelines, _, _ = pipelines_for(
        "select kind, count(*) n from items group by kind"
    )
    assert len(pipelines) == 2
    assert [t.role for t in pipelines[0].tasks] == ["scan", "materialize"]
    assert [t.role for t in pipelines[1].tasks][:1] == ["aggregate"]


def test_sort_adds_materialize_and_scan_pipelines():
    pipelines, _, _ = pipelines_for(
        "select kind, count(*) n from items group by kind order by n desc"
    )
    # scan->materialize | aggregate->...->materialize(sort) | output-scan->output
    assert len(pipelines) == 3
    assert pipelines[1].tasks[-1].role == "materialize"
    assert pipelines[2].tasks[0].role == "output-scan"


def test_every_task_registered_once():
    pipelines, tasks, _ = pipelines_for(
        "select i.kind, sum(i.price) s from items i, kinds k "
        "where i.kind = k.name group by i.kind order by s desc limit 3"
    )
    flat = [t for p in pipelines for t in p.tasks]
    assert len(flat) == len(tasks)
    assert {t.id for t in flat} == {t.id for t in tasks}


def test_materializing_operator_spans_pipelines():
    pipelines, _, physical = pipelines_for(
        "select i.id from items i, kinds k where i.kind = k.name"
    )
    from repro.plan.physical import PhysicalHashJoin

    join = next(op for op in physical.walk() if isinstance(op, PhysicalHashJoin))
    owning = [
        p.index for p in pipelines for t in p.tasks if t.operator is join
    ]
    assert len(owning) == 2 and owning[0] != owning[1]


def test_groupjoin_produces_three_pipelines():
    sql = (
        "select k.name, count(*) n from items i, kinds k "
        "where i.kind = k.name group by k.name"
    )
    pipelines, _, physical = pipelines_for(
        sql, PlannerOptions(enable_groupjoin=True)
    )
    from repro.plan.physical import PhysicalGroupJoin

    assert any(isinstance(op, PhysicalGroupJoin) for op in physical.walk())
    roles = [t.role for p in pipelines for t in p.tasks]
    assert "groupjoin-join build" in roles
    assert "groupjoin-groupby probe" in roles
    assert "groupjoin-groupby output" in roles
