"""Tests for the incremental materialized-view tier (repro.views)."""

from collections import Counter

import pytest

from repro import Database
from repro.errors import SqlError
from repro.serve import QueryService, ServiceConfig
from repro.streaming import EventFlow
from repro.views import VIEW_QUERY_ID_BASE, ViewError, ViewService, ZSet

from tests.conftest import rows_match


@pytest.fixture(scope="module")
def db():
    return Database.example(n_sales=400, n_products=40)


def make_views(db, **overrides):
    defaults = dict(workers=2)
    defaults.update(overrides)
    service = QueryService(db, ServiceConfig(**defaults))
    return service, ViewService(service)


def sales_rows(db):
    """The decoded sales rows (id, price, vat_factor, prod_costs)."""
    table = db.catalog.table("sales")
    return [
        (raw[0], raw[1] / 100, raw[2] / 100, raw[3] / 100)
        for raw in zip(*table.columns)
    ]


def fresh_sale(next_id, price=123.45, vat=1.19, costs=50.0):
    return (next_id, price, vat, costs)


# -- Z-sets -------------------------------------------------------------------


def test_zset_consolidates_to_zero():
    z = ZSet()
    z.add(("a",), 2)
    z.add(("a",), -2)
    assert z.weight(("a",)) == 0
    assert len(z) == 0
    assert list(z.items()) == []


def test_zset_merge_and_rows_expansion():
    a = ZSet.from_rows([("x",), ("x",), ("y",)])
    b = ZSet()
    b.add(("y",), -1)
    b.add(("z",), 1)
    a.merge(b)
    assert sorted(a.rows()) == [("x",), ("x",), ("z",)]
    assert a == ZSet.from_rows([("x",), ("x",), ("z",)])


def test_zset_negative_rows_raise():
    z = ZSet()
    z.add(("gone",), -1)
    assert not z.positive
    with pytest.raises(ValueError):
        list(z.rows())


# -- delta rules against Python oracles --------------------------------------


def test_groupby_view_tracks_inserts_and_retractions(db):
    _, views = make_views(db)
    views.register(
        "g",
        "select id % 5 as b, sum(price) as total, count(*) as n "
        "from sales group by id % 5",
    )
    live = sales_rows(db)
    next_id = max(r[0] for r in live) + 1

    batch = [(fresh_sale(next_id + i, price=100.0 + i), 1) for i in range(6)]
    batch.append((fresh_sale(next_id + 1, price=101.0), 1))  # net weight 2
    victims = [live[3], live[17]]
    batch.extend((victim, -1) for victim in victims)
    views.apply({"sales": batch})

    counted = Counter()
    for row, weight in batch:
        counted[row] += weight
    for row in live:
        counted[row] += 1

    expected = {}
    for row, weight in counted.items():
        bucket = row[0] % 5
        total, n = expected.get(bucket, (0.0, 0))
        expected[bucket] = (total + row[1] * weight, n + weight)
    got = views.view("g").materialize()
    assert len(got) == len(expected)
    for bucket, total, n in got:
        assert n == expected[bucket][1]
        assert total == pytest.approx(expected[bucket][0])


def test_minmax_retraction_recovers_previous_extreme(db):
    _, views = make_views(db)
    views.register(
        "extremes",
        "select id % 3 as b, max(price) as hi, min(price) as lo "
        "from sales group by id % 3",
    )
    live = sales_rows(db)
    bucket0 = [row for row in live if row[0] % 3 == 0]
    top = max(bucket0, key=lambda row: row[1])
    views.apply({"sales": [(top, -1)]})

    remaining = [row for row in bucket0 if row != top]
    expected_hi = max(row[1] for row in remaining)
    expected_lo = min(row[1] for row in remaining)
    got = {row[0]: row for row in views.view("extremes").materialize()}
    assert got[0][1] == pytest.approx(expected_hi)
    assert got[0][2] == pytest.approx(expected_lo)


def test_join_chain_rule_with_retractions(db):
    _, views = make_views(db)
    views.register(
        "cats",
        "select p.category as c, count(*) as n, sum(s.price) as total "
        "from sales s, products p where s.id % 40 = p.id "
        "group by p.category",
    )
    categories = dict(
        db.execute("select id as i, category as c from products").rows
    )
    live = sales_rows(db)
    next_id = max(r[0] for r in live) + 1

    inserts = [fresh_sale(next_id + i, price=10.0 * (i + 1)) for i in range(5)]
    retracts = [live[0], live[25]]
    views.apply(
        {"sales": [(row, 1) for row in inserts]
                  + [(row, -1) for row in retracts]}
    )

    weights = Counter()
    for row in live + inserts:
        weights[row] += 1
    for row in retracts:
        weights[row] -= 1
    expected = {}
    for row, weight in weights.items():
        category = categories.get(row[0] % 40)
        if category is None or weight == 0:
            continue
        n, total = expected.get(category, (0, 0.0))
        expected[category] = (n + weight, total + row[1] * weight)
    got = views.view("cats").materialize()
    assert len(got) == len(expected)
    for category, n, total in got:
        assert n == expected[category][0]
        assert total == pytest.approx(expected[category][1])


def test_semijoin_membership_flips_on_right_delta(db):
    _, views = make_views(db)
    views.register(
        "members",
        "select id as i from sales "
        "where id % 40 in (select id from products where category = 'Fan')",
    )
    products = db.execute("select id as i, category as c from products").rows
    toys = [pid for pid, category in products if category == "Fan"]
    assert toys, "the example db seeds the Fan category"
    live = sales_rows(db)
    expected = sorted(row[0] for row in live if row[0] % 40 in toys)
    assert sorted(r[0] for r in views.view("members").materialize()) == expected

    # retract one Fan product: every sale pointing at it leaves the view
    doomed = toys[0]
    views.apply({"products": [((doomed, "Fan"), -1)]})
    expected = sorted(
        row[0] for row in live if row[0] % 40 in toys and row[0] % 40 != doomed
    )
    assert sorted(r[0] for r in views.view("members").materialize()) == expected

    # and re-inserting it brings them all back
    views.apply({"products": [((doomed, "Fan"), 1)]})
    expected = sorted(row[0] for row in live if row[0] % 40 in toys)
    assert sorted(r[0] for r in views.view("members").materialize()) == expected


def test_distinct_is_maintained_as_a_set(db):
    _, views = make_views(db)
    views.register("buckets", "select distinct id % 5 as b from sales")
    assert sorted(r[0] for r in views.view("buckets").materialize()) == [
        0, 1, 2, 3, 4,
    ]
    live = sales_rows(db)
    bucket4 = [row for row in live if row[0] % 5 == 4]
    views.apply({"sales": [(row, -1) for row in bucket4]})
    assert sorted(r[0] for r in views.view("buckets").materialize()) == [
        0, 1, 2, 3,
    ]


def test_keyless_aggregate_keeps_zeros_row(db):
    _, views = make_views(db)
    views.register(
        "watch",
        "select count(*) as n, sum(price) as total "
        "from sales where price > 100000.0",
    )
    assert views.view("watch").materialize() == [(0, 0.0)]
    live = sales_rows(db)
    whale = fresh_sale(max(r[0] for r in live) + 1, price=200000.0)
    views.apply({"sales": [(whale, 1)]})
    got = views.view("watch").materialize()
    assert got[0][0] == 1 and got[0][1] == pytest.approx(200000.0)
    views.apply({"sales": [(whale, -1)]})
    assert views.view("watch").materialize() == [(0, 0.0)]


def test_topk_refills_from_state_on_retraction(db):
    _, views = make_views(db)
    views.register(
        "top",
        "select id as sale, price as price from sales "
        "order by price desc, sale asc limit 5",
    )
    live = sales_rows(db)

    def python_topk(rows):
        ordered = sorted(rows, key=lambda row: (-row[1], row[0]))
        return [(row[0], row[1]) for row in ordered[:5]]

    view = views.view("top")
    assert rows_match(view.materialize(), python_topk(live))

    # retract the current #1: the tier must refill rank 5 from full state
    champion = max(live, key=lambda row: (row[1], -row[0]))
    live.remove(champion)
    views.apply({"sales": [(champion, -1)]})
    assert view.circuit.topk.refills > 0
    assert rows_match(view.materialize(), python_topk(live))

    # a new champion enters without touching the refill path again
    refills = view.circuit.topk.refills
    usurper = fresh_sale(10_000, price=999.99)
    live.append(usurper)
    views.apply({"sales": [(usurper, 1)]})
    assert view.circuit.topk.refills == refills
    assert rows_match(view.materialize(), python_topk(live))


# -- registration refusals and delta validation ------------------------------


def test_register_refuses_unmaintainable_shapes(db):
    _, views = make_views(db)
    with pytest.raises(ViewError):
        views.register("lim", "select id as i from sales limit 3")
    with pytest.raises(ViewError):
        views.register(
            "scalar",
            "select id as i from sales "
            "where price > (select max(price) from sales) - 1.0",
        )
    views.register("ok", "select count(*) as n from sales")
    with pytest.raises(ViewError):
        views.register("ok", "select count(*) as n from sales")
    with pytest.raises(ViewError):
        views.view("missing")


def test_apply_validates_weights_and_atomicity(db):
    _, views = make_views(db)
    views.register("n", "select count(*) as n from sales")
    view = views.view("n")
    version = view.version
    with pytest.raises(ViewError):
        views.apply({"sales": [(sales_rows(db)[0], 0)]})
    with pytest.raises(ViewError):
        views.apply({"nowhere": [((1,), 1)]})
    ghost = fresh_sale(999_999)
    # a valid insert rides in the same batch as an impossible retraction:
    # nothing may move
    with pytest.raises(ViewError):
        views.apply({"sales": [(fresh_sale(999_998), 1), (ghost, -2)]})
    assert view.version == version
    assert view.materialize() == [(len(sales_rows(db)),)]


def test_a_failing_view_fails_itself_not_the_batch():
    db = Database.example(n_sales=50, n_products=5)
    _, views = make_views(db)

    def grouped(aggregate, modulus):
        return (f"select id % {modulus} as b, {aggregate} as n from sales "
                f"group by id % {modulus}")

    views.register("a", grouped("count(*)", 3))
    views.register("bad", grouped("sum(price / (id - 1000))", 3))
    views.register("c", grouped("count(*)", 5))
    watchers = {name: views.subscribe(name, f"on-{name}") for name in views.views}
    for watcher in watchers.values():
        watcher.pull()  # the snapshots

    with pytest.raises(ViewError, match="'bad'.*ZeroDivisionError"):
        views.apply({"sales": [(fresh_sale(1000), 1)]})
    # the batch is applied: every other view and subscriber has it
    assert views.batches == 1
    assert sorted(views.views) == ["a", "c"]
    assert not watchers["bad"].active and watchers["bad"].pull() == []
    for name in ("a", "c"):
        assert views.view(name).version == 2
        (update,) = watchers[name].pull()
        assert (update.version, update.kind) == (2, "delta")
        assert sum(weight * n for (_, n), weight in update.rows) == 1
    # and the next batch runs first time, nobody a batch behind
    assert views.apply({"sales": [(fresh_sale(1001), 1)]}) == 2
    assert sum(n for _, n in views.view("c").materialize()) == 52
    assert watchers["c"].pull()[0].version == 3

    # a view that fails on what the table already holds is not registered
    with pytest.raises(ViewError, match="'late'.*ZeroDivisionError"):
        views.register("late", grouped("sum(price / (id - 1000))", 3))
    assert "late" not in views.views
    assert views.apply({"sales": [(fresh_sale(1002), 1)]}) == 3


def test_apply_rejects_unknown_dictionary_string(db):
    _, views = make_views(db)
    views.register("c", "select count(*) as n from products")
    with pytest.raises(ViewError):
        views.apply({"products": [((1000, "never-seen-category"), 1)]})


# -- subscriptions ------------------------------------------------------------


def test_subscription_snapshot_plus_deltas_reconstructs_state(db):
    _, views = make_views(db)
    views.register(
        "g",
        "select id % 5 as b, sum(price) as total, count(*) as n "
        "from sales group by id % 5",
    )
    subscription = views.subscribe("g", "dashboard")
    live = sales_rows(db)
    next_id = max(r[0] for r in live) + 1
    for step in range(3):
        views.apply({
            "sales": [
                (fresh_sale(next_id + step, price=50.0 * (step + 1)), 1),
                (live[step], -1),
            ],
        })

    updates = subscription.pull()
    assert [u.kind for u in updates] == ["snapshot", "delta", "delta", "delta"]
    versions = [u.version for u in updates]
    assert versions == list(range(versions[0], versions[0] + 4))

    bag = Counter()
    for row in updates[0].rows:
        bag[row] += 1
    for update in updates[1:]:
        for row, weight in update.rows:
            bag[row] += weight
    bag = +bag
    maintained = Counter()
    for row in views.view("g").materialize():
        maintained[row] += 1
    assert bag == maintained
    assert subscription.pull() == []  # drained


def test_unregister_deactivates_subscribers(db):
    _, views = make_views(db)
    views.register("n", "select count(*) as n from sales")
    subscription = views.subscribe("n", "watcher")
    views.unregister("n")
    assert not subscription.active
    with pytest.raises(ViewError):
        views.view("n")


def test_subscribe_refuses_closed_session(db):
    service, views = make_views(db)
    views.register("n", "select count(*) as n from sales")
    session = service.session("gone")
    session.close()
    with pytest.raises(ViewError):
        views.subscribe("n", session)


# -- EventFlow standing queries ----------------------------------------------


def test_eventflow_view_with_having(db):
    _, views = make_views(db)
    flow = (
        EventFlow(db, "sales", label="tickets")
        .derive(bucket="id % 5", margin="price - prod_costs")
        .aggregate(by=["bucket"],
                   totals={"total": "sum(margin)", "n": "count(*)"})
        .having("n > 2")
    )
    views.register("margins", flow)
    view = views.view("margins")
    assert view.sql is None
    assert rows_match(view.materialize(), flow.run_interpreted())

    # drain bucket 2 below the having threshold: the group must vanish
    live = sales_rows(db)
    bucket2 = [row for row in live if row[0] % 5 == 2]
    views.apply({"sales": [(row, -1) for row in bucket2[:-2]]})
    got = view.materialize()
    assert all(row[0] != 2 for row in got)
    expected = {}
    kept = [row for row in live if row[0] % 5 != 2] + bucket2[-2:]
    for row in kept:
        total, n = expected.get(row[0] % 5, (0.0, 0))
        expected[row[0] % 5] = (total + row[1] - row[3], n + 1)
    expected = {b: v for b, v in expected.items() if v[1] > 2}
    assert len(got) == len(expected)
    for bucket, total, n in got:
        assert n == expected[bucket][1]
        assert total == pytest.approx(expected[bucket][0])


def test_eventflow_labels_reach_maintenance_report(db):
    _, views = make_views(db)
    flow = (
        EventFlow(db, "sales", label="tickets")
        .derive(margin="price - prod_costs")
        .aggregate(by=[], totals={"m": "sum(margin)", "n": "count(*)"})
        .having("n > 0")
    )
    views.register("hot", flow)
    views.apply({"sales": [(fresh_sale(50_000), 1)]})
    text = views.maintenance_report()
    assert "source tickets" in text
    assert "having#" in text
    assert "window-agg#" in text


# -- profiling attribution ----------------------------------------------------


def test_per_view_samples_sum_to_maintenance_total(db):
    service, views = make_views(db, period=2_000)
    views.register(
        "g", "select id % 5 as b, count(*) as n from sales group by id % 5"
    )
    views.register(
        "j",
        "select p.category as c, count(*) as n from sales s, products p "
        "where s.id % 40 = p.id group by p.category",
    )
    live = sales_rows(db)
    next_id = max(r[0] for r in live) + 1
    for step in range(4):
        views.apply({"sales": [(fresh_sale(next_id + step), 1)]})

    snapshot = service.profile_snapshot()
    assert snapshot.maintenance_samples > 0
    per_view = sum(stats.samples for stats in snapshot.views.values())
    assert per_view == snapshot.maintenance_samples
    assert snapshot.maintenance_instructions == views.maintenance_instructions
    for view_id, stats in snapshot.views.items():
        assert view_id > VIEW_QUERY_ID_BASE
        assert stats.name in ("g", "j")
        assert stats.instructions > 0
    # per-view counters on the view object agree with the profiler's
    for name in ("g", "j"):
        view = views.view(name)
        assert snapshot.views[view.query_id].samples == view.samples
        assert snapshot.views[view.query_id].instructions == view.instructions
    # the tagging dictionary resolves both dimensions of a view tag
    from repro.profiling.tagging import TaggingDictionary

    view = views.view("g")
    tag = TaggingDictionary.encode_tag(view.query_id, 1)
    assert views.tags.view_of_tag(tag) == "g"
    assert views.tags.view_operator_of_tag(tag) is not None
    rendered = snapshot.render()
    assert "view maintenance" in rendered


def test_maintenance_rides_existing_workers(db):
    """Maintenance charges land on the serve tier's workers, interleaved
    with query execution — not on a private accounting island."""
    service, views = make_views(db)
    views.register("n", "select count(*) as n from sales")
    before = [worker.state.cycles for worker in service.workers]
    views.apply({"sales": [(fresh_sale(60_000), 1)]})
    after = [worker.state.cycles for worker in service.workers]
    assert sum(after) > sum(before)
    # queries still run clean on the same workers afterwards
    ticket = service.submit("select count(*) n from sales")
    service.drain()
    assert service.result(ticket).ok


def test_views_and_queries_share_profiler_cleanly(db):
    service, views = make_views(db, period=2_000)
    views.register(
        "g", "select id % 5 as b, count(*) as n from sales group by id % 5"
    )
    ticket = service.submit(
        "select category, count(*) n from products group by category"
    )
    service.drain()
    assert service.result(ticket).ok
    views.apply({"sales": [(fresh_sale(70_000), 1)]})
    snapshot = service.profile_snapshot()
    # query samples and maintenance samples are disjoint totals
    assert snapshot.samples >= 0
    assert snapshot.maintenance_samples > 0
    assert snapshot.accuracy >= 0.99


def test_having_stage_ordering_errors(db):
    with pytest.raises(SqlError):
        EventFlow(db, "sales").having("id > 0")
    flow = (
        EventFlow(db, "sales")
        .derive(bucket="id % 5")
        .aggregate(by=["bucket"], totals={"n": "count(*)"})
    )
    with pytest.raises(SqlError):
        flow.having("price > 0")  # per-event columns are out of scope
    with pytest.raises(SqlError):
        flow.having("n + 1")  # not boolean


# -- the simulated charges, pinned --------------------------------------------

#: name -> (instructions, loads, rows of state, top-K refills or None) after
#: the schedule below, recorded at 24852d3 (before expressions were compiled).
#: Every charge is a COST_* constant times a count of rows that reached an
#: operator, so a host-side change that moves a consolidation point — two
#: operators fused, a delta merged earlier or later — moves these numbers.
PINNED_CHARGES = {
    "by_bucket": (133580, 3984, 11, None),
    "margin_watch": (184846, 6047, 7, None),
    "by_category": (140344, 5356, 5, None),
    "top_tickets": (88934, 7906, 919, 6),
}


def test_maintenance_charges_are_pinned(db):
    from random import Random

    from benchmarks.bench_views import STANDING_QUERIES

    _, views = make_views(db)
    for name, sql in STANDING_QUERIES.items():
        views.register(name, sql)
    rng = Random(0)
    live = sales_rows(db)
    next_id = max(row[0] for row in live) + 1
    for batch in range(40):
        changes = []
        for _ in range(24):
            row = (next_id, round(rng.uniform(1.0, 700.0), 2),
                   round(rng.uniform(1.0, 1.4), 2),
                   round(rng.uniform(1.0, 300.0), 2))
            next_id += 1
            live.append(row)
            changes.append((row, 1))
        victims = [live.pop(rng.randrange(len(live))) for _ in range(11)]
        if batch == 20:  # the scheduled retraction of the best row
            victims.append(max(live, key=lambda row: (row[1], -row[0])))
            live.remove(victims[-1])
        changes.extend((victim, -1) for victim in victims)
        views.apply({"sales": changes})

    charges = {}
    for name in STANDING_QUERIES:
        view = views.view(name)
        topk = view.circuit.topk
        charges[name] = (view.instructions, view.loads, len(view.state),
                         topk and topk.refills)
    assert charges == PINNED_CHARGES
    assert views.view("top_tickets").materialize() == [
        (row[0], row[1])
        for row in sorted(live, key=lambda row: (-row[1], row[0]))[:10]
    ]
