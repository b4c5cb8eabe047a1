"""Fleet router tests: partitioning, scatter/gather, quotas, failures.

The differential heart is ``assert_fleet_matches``: a query's fleet
result at several shard counts must reproduce the single-service bag.
Around it: partitioner totality properties, AVG recombination from
SUM/COUNT partials, gather-side ORDER BY/LIMIT merging, tenant-quota
shedding with the stable ``TENANT_QUOTA`` code, profile-merge
associativity with exact sample accounting, and fault injection — a
shard killed mid-scatter surfaces ``SHARD_FAILED`` (or a degraded
partial result) without hanging the gather, and cancellation propagates
to every in-flight shard subquery.
"""

from collections import Counter
from random import Random

import pytest

from repro.engine import Database
from repro.errors import SqlError
from repro.fleet import (
    Fleet,
    FleetConfig,
    FleetPlanError,
    HashPartitioner,
    PartitionSpec,
    RangePartitioner,
    fleet_profile,
    merge_snapshots,
    plan_route,
    run_fleet_workload,
)
from repro.fuzz.dataset import (
    build_database, extract_dataset, random_dataset,
)
from repro.fuzz.oracle import bags_equal
from repro.serve import (
    CANCELLED,
    COMPILE_ERROR,
    EXEC_ERROR,
    SHARD_FAILED,
    TENANT_QUOTA,
    QueryService,
    ServiceConfig,
    ServiceError,
)


@pytest.fixture(scope="module")
def db():
    return Database.example(n_sales=400, n_products=60)


@pytest.fixture(scope="module")
def dataset(db):
    return extract_dataset(db)


def make_fleet(db, shards=2, **kwargs):
    kwargs.setdefault("workers", 2)
    return Fleet(db, FleetConfig(shards=shards, **kwargs))


def baseline_rows(db, sql):
    service = QueryService(db, ServiceConfig(workers=2))
    ticket = service.submit(sql)
    service.drain()
    result = service.result(ticket)
    assert result.ok, result.error
    return result.rows


def fleet_result(db, sql, shards=2, **config):
    fleet = make_fleet(db, shards=shards, **config)
    ticket = fleet.submit(sql)
    fleet.drain()
    return fleet.result(ticket)


def assert_fleet_matches(db, sql, shard_counts=(1, 2, 4), exact=False,
                         **config):
    """``exact`` compares without float tolerance: DECIMAL arithmetic is
    integer arithmetic, so those answers must agree to the last digit."""
    want = baseline_rows(db, sql)
    for shards in shard_counts:
        result = fleet_result(db, sql, shards, **config)
        assert result.ok, (shards, result.error)
        if exact:
            assert sorted(result.rows) == sorted(want), shards
        assert bags_equal(result.rows, want), (
            f"{shards} shards: {result.rows} != {want}"
        )


def assert_fleet_parity(db, sql, shard_counts=(1, 2)):
    """The fleet answers what a single node answers — or, where the
    engine's binder rejects the statement, fails with its message."""
    try:
        db.execute_interpreted(sql)
    except SqlError as exc:
        for shards in shard_counts:
            result = fleet_result(db, sql, shards)
            assert result.status == "failed", (shards, result.rows)
            assert result.error_code == COMPILE_ERROR
            assert str(exc) in str(result.error)
    else:
        assert_fleet_matches(db, sql, shard_counts, exact=True)


# -- partitioners ------------------------------------------------------------


def test_hash_partitioner_total_and_deterministic():
    part = HashPartitioner(4)
    values = [1, 7, "alpha", "2020-06-15", 3.25, True, -9]
    owners = [part.shard_of(v) for v in values]
    assert all(0 <= o < 4 for o in owners)
    assert owners == [part.shard_of(v) for v in values]  # replayable
    # bool hashes like its int value, not its repr
    assert part.shard_of(True) == part.shard_of(1)


def test_range_partitioner_covers_domain():
    part = RangePartitioner.from_values(list(range(100)), 4)
    counts = Counter(part.shard_of(v) for v in range(100))
    assert sum(counts.values()) == 100
    assert set(counts) == {0, 1, 2, 3}  # quantile cuts hit every shard
    # values outside the observed range still map to exactly one shard
    assert part.shard_of(-10**9) == 0
    assert part.shard_of(10**9) == 3


def test_range_partitioner_validates_bounds():
    with pytest.raises(Exception):
        RangePartitioner([3, 1], 3)  # unsorted
    with pytest.raises(Exception):
        RangePartitioner([1], 3)  # wrong arity


def test_every_row_lands_on_exactly_one_shard(dataset):
    for scheme in ("hash", "range"):
        spec = PartitionSpec.for_dataset(dataset, 3, scheme=scheme)
        slices = spec.split(dataset)
        table = dataset.tables[spec.table]
        split_total = sum(len(s.tables[spec.table].rows) for s in slices)
        assert split_total == len(table.rows)
        rebuilt = Counter(
            row for s in slices for row in s.tables[spec.table].rows
        )
        assert rebuilt == Counter(table.rows)
        # every other table is fully replicated on every shard
        for name, other in dataset.tables.items():
            if name == spec.table:
                continue
            for s in slices:
                assert s.tables[name].rows == other.rows


def test_spec_defaults_to_largest_table(dataset):
    spec = PartitionSpec.for_dataset(dataset, 2)
    largest = max(dataset.tables.values(), key=lambda t: len(t.rows))
    assert spec.table == largest.name


def test_spec_for_database_follows_partition_key(db):
    spec = PartitionSpec.for_database(db, 2)
    assert spec.table == "sales"
    assert spec.column == "id"  # Table.partition_key set by the loader


def test_range_spec_reuses_storage_spine():
    from repro.storage import StorageConfig

    db = Database.tpch(scale=0.002, seed=42, storage=StorageConfig())
    spec = PartitionSpec.for_database(db, 2, scheme="range",
                                      table="lineitem", column="l_orderkey")
    assert spec.scheme == "range"
    keys = db.catalog.tables["lineitem"].column_named("l_orderkey")
    owners = Counter(spec.partitioner.shard_of(k) for k in keys)
    assert set(owners) == {0, 1}
    # the cut points align with the physical clustering: each shard owns
    # a contiguous key range
    bound = spec.partitioner.bounds[0]
    for key in keys:
        assert spec.partitioner.shard_of(key) == (0 if key <= bound else 1)


# -- scatter/gather equivalence ----------------------------------------------


def test_scalar_aggregates_match(db):
    assert_fleet_matches(
        db, "select count(*) as c, sum(price) as s, min(price) as lo, "
            "max(price) as hi from sales"
    )


def test_avg_recombines_from_sum_and_count(db):
    sql = "select avg(price) as a, avg(prod_costs) as b from sales"
    plan = plan_route(sql, "sales")
    # the shard statement carries SUM and COUNT partials, never AVG
    assert "avg" not in plan.shard_sql.lower()
    assert "sum" in plan.shard_sql.lower()
    assert "count" in plan.shard_sql.lower()
    want = baseline_rows(db, sql)
    for shards in (2, 4):
        fleet = make_fleet(db, shards=shards)
        ticket = fleet.submit(sql)
        fleet.drain()
        got = fleet.result(ticket).rows
        assert len(got) == 1
        for g, w in zip(got[0], want[0]):
            assert g == pytest.approx(w, rel=1e-9)


def test_grouped_aggregates_match(db):
    assert_fleet_matches(
        db, "select category as g, count(*) as n, sum(price) as s, "
            "avg(price) as a from sales, products "
            "where sales.id = products.id group by category"
    )


def test_having_filters_merged_groups(db):
    assert_fleet_matches(
        db, "select category as g, count(*) as n from sales, products "
            "where sales.id = products.id group by category "
            "having count(*) >= 20"
    )


def test_empty_input_aggregate_identity(db):
    # no sale is that expensive: every shard contributes an empty
    # partial, and the gather must still emit the single identity row
    assert_fleet_matches(
        db, "select count(*) as c, sum(price) as s, min(price) as lo "
            "from sales where price > 100000"
    )


def test_gather_merges_order_by_limit(db):
    assert_fleet_matches(
        db, "select id as i, price as p from sales "
            "order by p desc, i limit 9"
    )
    assert_fleet_matches(
        db, "select category as g, sum(price) as s from sales, products "
            "where sales.id = products.id group by category "
            "order by s desc, g"
    )


JOINED = "from sales, products where sales.id = products.id"


def test_expressions_over_aggregates_use_engine_arithmetic(db):
    # DECIMAL x DECIMAL truncates to cents and DECIMAL % INT runs on
    # cents: only the engine's own evaluator gets both right
    assert_fleet_matches(
        db, "select sum(price) * max(vat_factor) as v, max(price) % 7 as m "
            "from sales", exact=True,
    )
    assert_fleet_matches(
        db, "select category as g, sum(price) * max(vat_factor) as v, "
            f"max(price) % 7 as m {JOINED} group by category", exact=True,
    )


@pytest.mark.parametrize("sql", [
    f"select category as g, count(*) as n {JOINED} group by category "
    "having category in ('Chip', 'zzz')",
    f"select category as g, count(*) as n {JOINED} group by category "
    "having category like 'C%'",
    "select case when sum(price) > 10 then max(price) else 0 end as c "
    "from sales",
    "select distinct count(*) as c from sales",
    f"select distinct category as g {JOINED} group by category",
    "select id as i from sales having id > 3",
    f"select category as g, count(*) {JOINED} group by category "
    "order by count",
    # the post-aggregation scope has no string-literal comparisons at all
    f"select max(category) as m {JOINED} having max(category) >= 'zzz'",
])
def test_fleet_parity_with_the_binder(db, sql):
    assert_fleet_parity(db, sql)


def test_ungrouped_avg_over_empty_fleet_is_zero(db):
    result = fleet_result(
        db, "select avg(price) as a from sales where price > 100000"
    )
    assert result.rows == [(0.0,)]


def test_sort_key_outside_the_select_list(db):
    assert_fleet_matches(
        db, "select price * 2 as x from sales order by id desc limit 7",
        exact=True,
    )


def test_fleet_columns_match_single_node(db):
    sql = (
        "select category, count(*), sum(price) as s, sum(price) * 2 "
        f"{JOINED} group by category"
    )
    want = db.execute_interpreted(sql).columns
    assert want == ["category", "count", "s", "col3"]
    assert fleet_result(db, sql).columns == want
    sql = "select id, price * 2, price as p from sales"
    assert fleet_result(db, sql).columns == ["id", "col1", "p"]


def test_replicated_only_query_routes_to_one_shard(db):
    sql = "select count(*) as c from products"
    plan = plan_route(sql, "sales")
    assert not plan.scatter
    fleet = make_fleet(db, shards=3)
    ticket = fleet.submit(sql)
    fleet.drain()
    result = fleet.result(ticket)
    assert result.ok and not result.scattered
    assert len(result.shards) == 1
    assert result.rows == baseline_rows(db, sql)


def test_router_refuses_partitioned_subquery():
    with pytest.raises(FleetPlanError):
        plan_route(
            "select count(*) as c from products where exists "
            "(select id from sales where sales.id = products.id)",
            "sales",
        )


def test_fleet_matches_on_fuzz_dataset():
    dataset = random_dataset(7)
    db = build_database(dataset)
    queries = [
        "select count(*) as c from fact",
        "select label as g, sum(qty) as s, avg(price) as a from fact "
        "group by label order by g",
        "select t1.id as c0, min(t1.mid_id) as c1 from fact as t1 "
        "group by t1.id having min(t1.mid_id) >= 3 order by c0 limit 5",
        "select max(label) as m from fact having max(label) >= 3",
        # PR 8 regression: a date aggregate compares as its day ordinal
        "select max(t1.placed) as m from fact as t0, mid as t1 "
        "where t0.mid_id = t1.id having max(t1.placed) >= 3",
    ]
    for sql in queries:
        want = baseline_rows(db, sql)
        for shards in (2, 4):
            fleet = Fleet.from_dataset(
                dataset, FleetConfig(shards=shards, workers=2,
                                     scheme="range" if shards == 4 else "hash"),
            )
            ticket = fleet.submit(sql)
            fleet.drain()
            result = fleet.result(ticket)
            assert result.ok, (sql, shards, result.error)
            assert bags_equal(result.rows, want), (sql, shards)


def test_a_shard_failing_to_finish_fails_one_ticket_not_the_drain():
    # the join matches rows on the single node, but one range shard's
    # slice matches none: its partial max(date) decodes day ordinal 0 on
    # the host (ROADMAP item 1).  That is the statement's EXEC_ERROR, not
    # an exception out of drain() that leaves the shard's execution in
    # flight to fail the following drains too
    dataset = random_dataset(7)
    sql = (
        "select max(t1.placed) as m from fact as t0, mid as t1 "
        "where t0.mid_id = t1.id and t0.id < 2"
    )
    count = "select count(*) as c from fact"
    db = build_database(dataset)
    assert baseline_rows(db, sql) == [("2021-07-04",)]
    fleet = Fleet.from_dataset(
        dataset, FleetConfig(shards=4, workers=2, scheme="range")
    )
    settled = [s.db.memory.used_bytes() for s in fleet.services]
    ticket = fleet.submit(sql)
    (result,) = fleet.drain()
    assert result is fleet.result(ticket)
    assert result.status == "failed" and result.error_code == EXEC_ERROR
    assert all(not service.inflight for service in fleet.services)
    assert [s.db.memory.used_bytes() for s in fleet.services] == settled
    ticket = fleet.submit(count)
    fleet.drain()
    result = fleet.result(ticket)
    assert result.ok and result.rows == baseline_rows(db, count)
    assert (fleet.completed, fleet.failed) == (1, 1)


def test_shards_share_the_fleet_dictionary():
    # a string compared with a number compares as its dictionary id, so
    # a shard must number strings as the unsplit database does — even
    # for a replicated-only statement, which never reaches the gather
    from repro.catalog import DataType
    from repro.fuzz import Dataset, TableData, build_database

    dataset = Dataset(tables={
        "big": TableData(
            "big", [("id", DataType.INT), ("label", DataType.STRING)],
            [(i, label) for i, label in enumerate("abcdefgh", 1)],
        ),
        "small": TableData(
            "small", [("id", DataType.INT), ("tag", DataType.STRING)],
            [(1, "m"), (2, "z")],
        ),
    })
    db = build_database(dataset)
    fleet = Fleet.from_dataset(dataset, FleetConfig(shards=2, workers=2))
    for sql in (
        "select min(tag) as m from small having min(tag) >= 8",
        "select max(label) as m from big having max(label) >= 7",
    ):
        ticket = fleet.submit(sql)
        fleet.drain()
        assert fleet.result(ticket).rows == baseline_rows(db, sql) != []


# -- tenant quotas -----------------------------------------------------------


def test_tenant_quota_sheds_with_stable_code(db):
    fleet = make_fleet(db, shards=2, tenant_quota=2)
    fleet.submit("select count(*) as c from sales", tenant="greedy")
    fleet.submit("select sum(price) as s from sales", tenant="greedy")
    with pytest.raises(ServiceError) as excinfo:
        fleet.submit("select min(price) as m from sales", tenant="greedy")
    assert excinfo.value.code == TENANT_QUOTA
    # other tenants are untouched by the shed
    polite = fleet.submit("select max(price) as m from sales", tenant="polite")
    results = fleet.drain()
    assert len(results) == 3
    assert fleet.result(polite).ok
    assert all(r.ok for r in results)
    # after draining, the quota window is free again
    again = fleet.submit("select count(*) as c from sales", tenant="greedy")
    fleet.drain()
    assert fleet.result(again).ok


# -- profile merging ---------------------------------------------------------


def run_mixed_workload(fleet, queries=12):
    rng = Random(11)
    templates = [
        "select count(*) as c from sales where price > {p}",
        "select category as g, sum(price) as s from sales, products "
        "where sales.id = products.id group by category",
        "select avg(price) as a from sales",
    ]
    items = [
        (f"tenant-{i % 2}", rng.choice(templates).format(
            p=round(rng.uniform(50, 400), 2)))
        for i in range(queries)
    ]
    return run_fleet_workload(fleet, items)


def test_merged_profile_accounts_every_sample(db):
    fleet = make_fleet(db, shards=3)
    results = run_mixed_workload(fleet)
    assert all(r.ok for r in results)
    merged = fleet.profile_snapshot()
    per_shard = [s.profile_snapshot() for s in fleet.services]
    assert merged.samples == sum(s.samples for s in per_shard)
    assert merged.queries == sum(s.queries for s in per_shard)
    assert merged.attributed_samples == sum(
        s.attributed_samples for s in per_shard
    )
    report = fleet_profile(fleet)
    assert report.samples == merged.samples
    text = report.render()
    assert "per shard:" in text and "per tenant:" in text
    assert {t.tenant for t in report.tenants} == {"tenant-0", "tenant-1"}


def test_profile_merge_is_associative(db):
    fleet = make_fleet(db, shards=3)
    run_mixed_workload(fleet)
    a, b, c = (s.profile_snapshot() for s in fleet.services)

    def signature(snapshot):
        return (
            snapshot.queries, snapshot.samples,
            snapshot.attributed_samples, snapshot.matched_samples,
            sorted(snapshot.latencies),
            sorted(snapshot.regions.items()),
            sorted(
                (fp, t.queries, t.samples, t.instructions,
                 sorted(t.operator_samples.items()))
                for fp, t in snapshot.templates.items()
            ),
        )

    left = a.merge(b.merge(c))
    right = a.merge(b).merge(c)
    assert signature(left) == signature(right)
    assert signature(merge_snapshots([a, b, c])) == signature(left)
    # merging is non-destructive: the inputs keep their own numbers
    assert a.samples + b.samples + c.samples == left.samples


# -- fault injection ---------------------------------------------------------


def test_killed_shard_fails_scatter_with_stable_code(db):
    fleet = make_fleet(db, shards=3)
    ticket = fleet.submit("select count(*) as c from sales")
    fleet.kill_shard(1)
    results = fleet.drain()  # must not hang on the dead shard
    assert len(results) == 1
    result = fleet.result(ticket)
    assert result.status == "failed"
    assert result.error_code == SHARD_FAILED
    assert result.lost_shards == [1]
    # the fleet keeps serving on the survivors
    after = fleet.submit("select count(*) as c from products")
    fleet.drain()
    assert fleet.result(after).ok


def test_killed_shard_degrades_when_partial_allowed(db):
    fleet = make_fleet(db, shards=3, allow_partial=True)
    sql = "select count(*) as c from sales"
    ticket = fleet.submit(sql)
    fleet.kill_shard(2)
    fleet.drain()
    result = fleet.result(ticket)
    assert result.status == "degraded"
    assert result.ok
    assert result.lost_shards == [2]
    # the degraded count covers exactly the surviving shards' rows
    survivors = sum(
        fleet.services[i].db.catalog.tables["sales"].row_count
        for i in (0, 1)
    )
    assert result.rows == [(survivors,)]
    full = baseline_rows(db, sql)[0][0]
    assert result.rows[0][0] < full


def test_single_shard_query_on_dead_shard_fails(db):
    fleet = make_fleet(db, shards=2)
    sql = "select count(*) as c from products"
    ticket = fleet.submit(sql)
    target = fleet.result(ticket) or fleet._pending[ticket]
    shard = list(fleet._pending[ticket].subtickets)[0]
    fleet.kill_shard(shard)
    fleet.drain()
    result = fleet.result(ticket)
    assert result.status == "failed"
    assert result.error_code == SHARD_FAILED
    _ = target


def test_replicated_query_avoids_dead_shards(db):
    import zlib

    from repro.pgo.fingerprint import fingerprint

    sql = "select count(*) as c from products"
    fleet = make_fleet(db, shards=3)
    fleet.kill_shard(zlib.crc32(fingerprint(sql).encode()) % 3)
    ticket = fleet.submit(sql)
    fleet.drain()
    result = fleet.result(ticket)
    assert result.ok and result.rows == baseline_rows(db, sql)
    assert not set(result.shards) & fleet.dead


def test_no_live_shard_fails_with_stable_code(db):
    fleet = make_fleet(db, shards=2, allow_partial=True)
    scattered = fleet.submit("select count(*) as c from sales")
    for shard in range(2):
        fleet.kill_shard(shard)
    replicated = fleet.submit("select count(*) as c from products")
    results = fleet.drain()  # must gather every pending query
    assert [r.ticket for r in results] == [scattered, replicated]
    for result in results:
        assert result.status == "failed"
        assert result.error_code == SHARD_FAILED
        assert result.lost_shards == [0, 1]


def test_cancel_propagates_to_all_shards(db):
    fleet = make_fleet(db, shards=3)
    ticket = fleet.submit("select sum(price) as s from sales")
    subtickets = dict(fleet._pending[ticket].subtickets)
    assert len(subtickets) == 3
    assert fleet.cancel(ticket)
    assert not fleet.cancel(ticket)  # idempotent: already cancelled
    fleet.drain()
    result = fleet.result(ticket)
    assert result.status == "cancelled"
    assert result.error_code == CANCELLED
    # every shard-local subquery was cancelled, none executed
    for shard, sub in subtickets.items():
        subresult = fleet.services[shard].result(sub)
        assert subresult.status == "cancelled"


def test_queue_full_scatter_rolls_back(db):
    fleet = make_fleet(db, shards=2, max_queue=2)
    for _ in range(2):
        fleet.submit("select count(*) as c from sales")
    with pytest.raises(ServiceError):
        for _ in range(8):
            fleet.submit("select count(*) as c from sales")
    # the shed submit left no orphaned shard subqueries: every pending
    # fleet query still has a live subticket on every shard
    counts = Counter(
        shard
        for query in fleet._pending.values()
        for shard in query.subtickets
    )
    assert counts[0] == counts[1] == len(fleet._pending)
    results = fleet.drain()
    assert all(r.ok for r in results)


# -- workload runner + CLI ---------------------------------------------------


def test_run_fleet_workload_retries_on_backpressure(db):
    fleet = make_fleet(db, shards=2, max_queue=3)
    items = [
        ("t", "select count(*) as c from sales where price > 10")
        for _ in range(10)
    ]
    results = run_fleet_workload(fleet, items)
    assert len(results) == 10
    assert all(r.ok for r in results)


def test_shards_compile_a_statement_once(db):
    """Shard plans survive the drain between rounds — membership bitmaps
    included: they are rewritten into every run's state block."""
    sql = (
        "select category, count(*) as c, sum(price) as s "
        "from sales, products where sales.id = products.id "
        "and sales.id in (3, 5, 8, 13, 21, 34, 55, 59) "
        "and category like '_%' group by category order by category"
    )
    fleet = make_fleet(db, shards=2)
    expected = baseline_rows(db, sql)
    before = [s["plan_cache"] for s in fleet.stats()["per_shard"]]
    for _ in range(3):
        (result,) = run_fleet_workload(fleet, [("t", sql)])
        assert result.ok and result.rows == expected
    for old, new in zip(before, fleet.stats()["per_shard"]):
        new = new["plan_cache"]
        assert new["misses"] - old["misses"] == 1
        assert new["hits"] - old["hits"] == 2


def test_fleet_cli_smoke(capsys):
    from repro.__main__ import main

    code = main([
        "fleet", "--shards", "2", "--queries", "6",
        "--tenants", "2", "--report", "--strict",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fleet of 2 shard(s)" in out
    assert "merged samples" in out
    assert "fleet profile" in out
