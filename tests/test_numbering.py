"""Plan-local ids (repro.numbering): a lowering numbers its own plan.

Ids are drawn per lowering, so they repeat across plans: these tests pin
both halves of that — a plan's ids, dictionary and code are a function of
what was lowered, and everything that holds several plans at once keeps
each plan's ids apart.
"""

import pytest

from repro import Database, ProfilerConfig
from repro.catalog.schema import DataType
from repro.data.queries import ALL_QUERIES
from repro.errors import ReproError
from repro.numbering import lowering
from repro.pgo.fingerprint import fingerprint
from repro.plan.expr import IU
from repro.serve import QueryService, ServiceConfig
from repro.streaming import EventFlow
from repro.views import ViewService

from tests.helpers import compile_calls


def test_an_id_is_drawn_from_the_current_lowering_only():
    with pytest.raises(ReproError, match="outside a lowering"):
        IU("x", DataType.INT)
    with lowering():
        assert [IU(name, DataType.INT).id for name in "ab"] == [1, 2]
        with lowering():  # a nested lowering numbers on its own
            assert IU("c", DataType.INT).id == 1
        assert IU("d", DataType.INT).id == 3


def _identity(physical, pipelines, module, tagging, program):
    """Every id a plan is keyed by, its dictionary, and its guest code."""
    return (
        [(op.op_id, op.logical_id, op.label) for op in physical.walk()],
        [iu.id for _, iu in physical.columns],
        [[task.id for task in pipeline.tasks] for pipeline in pipelines],
        [i.id for fn in module.functions for i in fn.all_instructions()],
        {task_id: op.op_id for task_id, op in tagging.log_a.items()},
        tagging.log_b,
        tagging.runtime_ir,
        program.code,
    )


def _lower_every_query():
    db = Database.tpch(0.001, 42)
    plain, armed = {}, {}
    for name, query in ALL_QUERIES.items():
        db.execute(query.sql)
        c = db.compiled_for(query.sql)
        plain[name] = _identity(
            c.physical, c.pipelines, c.query_ir.module, c.tagging, c.program
        )
    for name, query in ALL_QUERIES.items():
        p = db.profile(query.sql)
        armed[name] = _identity(
            p.physical, p.pipelines, p.ir_module, p.tagging, p.program
        )
    return plain, armed


def test_a_second_database_compiles_nothing_new():
    # what a plan is keyed by and what translation emits are a function of
    # (SQL, catalog, options), not of what the process lowered before: a
    # second fresh database lowers all 22 queries, plain and armed, to the
    # same ids, Tagging Dictionary and guest code, and every text it
    # translates is already in the code memo
    first = _lower_every_query()
    with compile_calls() as sources:
        second = _lower_every_query()
    assert len(sources) == 0
    assert second == first


# -- plans side by side -----------------------------------------------------

JOIN_SQL = (
    "SELECT category, SUM(price) FROM sales, products "
    "WHERE sales.id = products.id GROUP BY category ORDER BY category"
)
COUNT_SQL = "SELECT COUNT(*) FROM sales WHERE price > 100.0"


def test_two_templates_with_the_same_ids_keep_their_own_operators():
    db = Database.example(n_sales=1500, n_products=50)
    profiles = []

    class Recorder:  # the PGO store's one method the profiler calls
        def record(self, profile):
            profiles.append(profile)

    service = QueryService(
        db, ServiceConfig(workers=2, morsel_size=128, period=2_000),
        pgo_store=Recorder(),
    )
    tickets = {
        sql: [service.submit(sql) for _ in range(2)]
        for sql in (JOIN_SQL, COUNT_SQL)
    }
    service.drain()
    plans = {sql: service._compile(sql) for sql in tickets}  # the cached ones
    join, count = plans.values()
    # both plans number from 1: task and operator ids collide
    assert set(join.tagging.tasks) & set(count.tagging.tasks)
    assert {op.op_id for op in join.physical.walk()} & {
        op.op_id for op in count.physical.walk()
    }

    snapshot = service.profile_snapshot()
    solo = {}
    for sql, plan in plans.items():
        # a compile of its own, past the plan cache, numbers alike
        solo[sql] = db.profile(sql, ProfilerConfig(count_tuples=True))
        assert solo[sql].task_counts
        for ticket in tickets[sql]:
            assert service.result(ticket).task_counts == solo[sql].task_counts
        labels = {op.label for op in plan.physical.walk()}
        shares = snapshot.templates[fingerprint(sql)].operator_samples
        assert shares and set(shares) <= labels
    assert len(profiles) == 4
    for profile in profiles:
        plan = plans[profile.sql]
        assert profile.task_counts == solo[profile.sql].task_counts
        assert profile.attributions
        for attribution in profile.attributions:
            for task in attribution.tasks:
                assert plan.tagging.tasks[task.id] is task


def test_two_flow_views_with_the_same_ids_keep_their_own_operators():
    db = Database.example(n_sales=400, n_products=40)
    service = QueryService(db, ServiceConfig(workers=2, period=2_000))
    views = ViewService(service)
    flows = {
        "cheap": EventFlow(db, "sales", label="cheap")
        .where("price < 100.0")
        .aggregate(by=[], totals={"n": "count(*)"}),
        "margin": EventFlow(db, "sales", label="margin")
        .derive(m="price - prod_costs")
        .aggregate(by=[], totals={"t": "sum(m)"}),
    }
    for name, flow in flows.items():
        views.register(name, flow)
    # the flows number from 1: one op id, two stage labels
    cheap, margin = (flow._labels for flow in flows.values())
    assert cheap.keys() == margin.keys()
    assert cheap[2] == "where#1" and margin[2] == "derive#1"

    for step in range(4):
        views.apply({"sales": [((50_000 + step, 120.0, 1.19, 50.0), 1)]})
    snapshot = service.profile_snapshot()
    for name, labels in (("cheap", cheap), ("margin", margin)):
        view = views.view(name)
        own = set(labels.values())
        assert set(views.tags.view_operators[view.query_id].values()) <= own
        stats = snapshot.views[view.query_id]
        assert stats.name == name and stats.batches == 5
        assert stats.instructions == view.instructions > 0
        assert set(stats.operator_instructions) <= own
        assert labels[2] in stats.operator_instructions
