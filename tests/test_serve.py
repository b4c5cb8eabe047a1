"""Tests for the concurrent query service (repro.serve)."""

import copy
import dataclasses
import io
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, ProfilerConfig
from repro.__main__ import main
from repro.pgo import ProfileStore
from repro.serve import (
    CANCELLED,
    COMPILE_ERROR,
    EXEC_ERROR,
    INSTRUCTION_LIMIT,
    QUEUE_FULL,
    SESSION_CLOSED,
    TIMEOUT,
    QueryService,
    ServiceConfig,
    ServiceError,
    WorkloadItem,
    load_workload,
    run_workload,
    synthetic_workload,
)
from repro.serve.profiler import (
    ProfileSnapshot,
    TemplateStats,
    ViewMaintenanceStats,
    percentile,
)
from repro.storage import StorageConfig

SQL_AGG = (
    "SELECT category, SUM(price) FROM sales, products "
    "WHERE sales.id = products.id GROUP BY category ORDER BY category"
)
SQL_COUNT = "SELECT COUNT(*) FROM sales WHERE price > 100.0"
SQL_TOPK = (
    "SELECT id, price FROM sales WHERE price > 450.0 ORDER BY price DESC"
)
# two membership bitmaps: eight ids, and a LIKE matching five categories
SQL_BITMAPS = (
    "SELECT category, COUNT(*), SUM(price) FROM sales, products "
    "WHERE sales.id = products.id "
    "AND sales.id IN (3, 5, 8, 13, 21, 34, 55, 89) AND category LIKE '_%' "
    "GROUP BY category ORDER BY category"
)


@pytest.fixture(scope="module")
def db():
    return Database.example(n_sales=2000, n_products=100)


def make_service(db, **overrides):
    defaults = dict(workers=4, max_inflight=8, morsel_size=97)
    defaults.update(overrides)
    return QueryService(db, ServiceConfig(**defaults))


def invariant_signature(result):
    """The interleaving-invariant per-query counters plus the rows."""
    return (
        result.instructions,
        result.loads,
        result.stores,
        tuple(sorted(result.task_counts.items())),
        tuple(result.rows or ()),
    )


# -- basic service behaviour ------------------------------------------------


def test_service_matches_engine_rows(db):
    service = make_service(db)
    tickets = [service.submit(sql) for sql in (SQL_AGG, SQL_COUNT, SQL_TOPK)]
    results = service.drain()
    assert len(results) == 3
    assert all(r.ok for r in results)
    for ticket, sql in zip(tickets, (SQL_AGG, SQL_COUNT, SQL_TOPK)):
        got = service.result(ticket)
        assert got is not None and got.ok
        assert got.rows == db.execute(sql).rows


def test_empty_group_by_does_not_hang(db):
    # an always-false predicate leaves the aggregation hash table empty,
    # so the scan-groups pipeline prepares a zero-morsel domain; the
    # phase machine must fall through to the next pipeline instead of
    # leaving the execution in-flight forever
    sql = (
        "SELECT category, SUM(price) FROM sales, products "
        "WHERE sales.id = products.id AND price < price "
        "GROUP BY category ORDER BY category"
    )
    service = make_service(db)
    ticket = service.submit(sql)
    service.drain()
    result = service.result(ticket)
    assert result is not None and result.ok
    assert result.rows == db.execute(sql).rows == []
    assert not service.inflight


def test_queue_full_sheds_with_stable_code(db):
    service = make_service(db, max_queue=2)
    service.submit(SQL_COUNT)
    service.submit(SQL_COUNT)
    with pytest.raises(ServiceError) as exc_info:
        service.submit(SQL_COUNT)
    assert exc_info.value.code == QUEUE_FULL
    assert "[QUEUE_FULL]" in str(exc_info.value)
    assert service.stats()["shed"] == 1
    # the queued pair still runs to completion
    results = service.drain()
    assert [r.ok for r in results] == [True, True]


def test_timed_out_query_releases_workers(db):
    service = make_service(db)
    doomed = service.submit(SQL_AGG, timeout_cycles=1_000)
    healthy = [service.submit(SQL_COUNT) for _ in range(3)]
    service.drain()
    failed = service.result(doomed)
    assert failed.status == "failed"
    assert failed.error_code == TIMEOUT
    for ticket in healthy:
        assert service.result(ticket).ok
    # workers are free again: a follow-up workload runs clean
    assert not service.inflight
    follow_up = service.submit(SQL_AGG)
    service.drain()
    assert service.result(follow_up).ok


def test_cancel_queued_query(db):
    service = make_service(db)
    keep = service.submit(SQL_COUNT)
    drop = service.submit(SQL_COUNT)
    assert service.cancel(drop) is True
    assert service.cancel(drop) is False  # already finalized
    service.drain()
    assert service.result(keep).ok
    cancelled = service.result(drop)
    assert cancelled.status == "cancelled"
    assert cancelled.error_code == CANCELLED


def test_closed_session_rejects_submissions(db):
    service = make_service(db)
    session = service.session("ephemeral")
    session.close()
    with pytest.raises(ServiceError) as exc_info:
        session.submit(SQL_COUNT)
    assert exc_info.value.code == SESSION_CLOSED
    # opening the same name again hands out a fresh session (a reopen)
    reopened = service.session("ephemeral")
    assert reopened is not session and not reopened.closed


def test_instruction_budget_fails_query(db):
    service = make_service(db)
    ticket = service.submit(SQL_AGG, max_instructions=50)
    other = service.submit(SQL_COUNT)
    service.drain()
    assert service.result(ticket).error_code == INSTRUCTION_LIMIT
    assert service.result(other).ok


def test_budget_stop_is_classified_by_type_not_message(db, monkeypatch):
    # regression: the service matched "instruction budget" in str(exc),
    # so rewording the machine's message would have turned
    # INSTRUCTION_LIMIT into EXEC_ERROR (and any other fault quoting
    # those words into INSTRUCTION_LIMIT)
    from repro.errors import InstructionBudgetExceeded, VMError
    from repro.serve import EXEC_ERROR
    from repro.vm.machine import Machine

    def failing_with(error):
        def call(self, entry_ip, args=()):
            raise error
        monkeypatch.setattr(Machine, "call", call)
        service = make_service(db)
        ticket = service.submit(SQL_COUNT)
        service.drain()
        return service.result(ticket).error_code

    reworded = InstructionBudgetExceeded("out of fuel", 7)
    assert failing_with(reworded) == INSTRUCTION_LIMIT
    lookalike = VMError("load out of bounds past the instruction budget", 7)
    assert failing_with(lookalike) == EXEC_ERROR


def test_host_side_failure_while_finishing_fails_one_ticket():
    # max(date) over no rows decodes day ordinal 0 (what it should answer
    # is ROADMAP item 1): the ValueError out of the run's last step is
    # that ticket's EXEC_ERROR, exactly as a VMError out of a unit is —
    # the drain returns, nothing stays in flight, the epoch quiesces and
    # the next statement runs first time
    empty_max = "select max(o_orderdate) from orders where o_orderkey < 0"
    count = "select count(*) from orders"
    tpch = Database.tpch(0.001, 42)
    service = QueryService(tpch, ServiceConfig(workers=2))
    settled = tpch.memory.used_bytes()
    bad, good = service.submit(empty_max), service.submit(count)
    finished = service.drain()
    assert {r.ticket for r in finished} == {bad, good}
    failed = service.result(bad)
    assert failed.status == "failed" and failed.error_code == EXEC_ERROR
    assert failed.rows is None
    assert service.result(good).ok
    assert not service.inflight
    assert all(not w.samples.samples for w in service.workers)
    # the epoch closed as after a clean drain: run-time memory is back
    assert tpch.memory.used_bytes() == settled
    again = service.submit(count)
    service.drain()
    assert service.result(again).ok
    assert service.result(again).rows == tpch.execute(count).rows
    assert service.epochs == 2 and tpch.memory.used_bytes() == settled
    stats = service.stats()
    assert (stats["completed"], stats["failed"]) == (2, 1)


def test_compile_error_becomes_failed_result(db):
    service = make_service(db)
    ticket = service.submit("SELECT nonsense FROM nowhere")
    service.drain()
    result = service.result(ticket)
    assert result.status == "failed"
    assert result.error_code == COMPILE_ERROR


# -- determinism and isolation ----------------------------------------------


def _interleaved_run(fast_vm: bool):
    database = Database.example(n_sales=1200, n_products=60)
    service = QueryService(database, ServiceConfig(
        workers=4, max_inflight=8, morsel_size=97, seed=7, fast_vm=fast_vm,
    ))
    items = synthetic_workload(service, queries=9, clients=3)
    summary = run_workload(service, items)
    assert summary.clean
    return [
        (
            r.ticket, r.session, r.sql, r.status,
            r.instructions, r.loads, r.stores,
            tuple(sorted(r.task_counts.items())),
            r.latency_cycles, r.busy_cycles, r.samples,
            tuple(r.rows or ()),
        )
        for r in summary.results
    ]


@pytest.mark.parametrize("fast_vm", [True, False])
def test_seeded_interleaving_is_deterministic(fast_vm):
    first = _interleaved_run(fast_vm)
    second = _interleaved_run(fast_vm)
    assert first == second


def test_fast_vm_matches_interpreter_exactly():
    assert _interleaved_run(True) == _interleaved_run(False)


def test_concurrent_counters_match_solo_run(db):
    concurrent = make_service(db)
    session_tickets = [
        concurrent.session(f"client-{i}").submit(SQL_AGG) for i in range(8)
    ]
    concurrent.drain()
    signatures = {
        invariant_signature(concurrent.result(t)) for t in session_tickets
    }
    # 8 in-flight copies on 4 shared workers: per-query counters are
    # bit-identical across instances...
    assert len(signatures) == 1

    solo = make_service(db, max_inflight=1)
    ticket = solo.submit(SQL_AGG)
    solo.drain()
    # ...and identical to the same query run with nothing else in flight
    assert invariant_signature(solo.result(ticket)) == signatures.pop()


# -- continuous profiling ----------------------------------------------------


def test_tag_accuracy_under_concurrency(db):
    service = make_service(db)
    items = synthetic_workload(service, queries=8, clients=4)
    summary = run_workload(service, items)
    assert summary.clean
    stats = service.stats()
    assert stats["samples"] > 0
    assert stats["tag_accuracy"] >= 0.99
    # the public snapshot API carries the same aggregate (and is what
    # the fleet merger consumes) — no reaching into profiler internals
    snapshot = service.profile_snapshot()
    assert snapshot.accuracy >= 0.99
    assert snapshot.queries == 8
    assert snapshot.samples == stats["samples"]
    assert snapshot.templates  # per-template operator costs aggregated
    p50, p95 = (percentile(snapshot.latencies, f) for f in (0.50, 0.95))
    assert p95 >= p50 > 0
    assert f"p50={p50} p95={p95}" in snapshot.render()


@pytest.mark.parametrize("fraction, n, rank", [
    # f·n an odd integer: round-half-even used to land one rank too high
    (0.50, 2, 1), (0.50, 6, 3), (0.50, 10, 5), (0.90, 10, 9), (0.95, 20, 19),
    # f·n an even integer, fractional, and the clamped ends
    (0.50, 4, 2), (0.50, 5, 3), (0.95, 10, 10), (0.99, 3, 3),
    (0.0, 4, 1), (1.0, 4, 4), (0.50, 1, 1),
])
def test_percentile_is_nearest_rank(fraction, n, rank):
    assert percentile(list(range(n, 0, -1)), fraction) == rank


def test_percentile_of_nothing_is_zero():
    assert percentile([], 0.5) == 0


def test_snapshot_is_isolated_from_later_queries(db):
    """A snapshot is detached: a later query of the same template changes
    neither its totals nor the per-template stats inside it."""
    service = make_service(db, workers=2)
    service.submit(SQL_AGG)
    service.drain()
    snapshot = service.profile_snapshot()
    frozen = copy.deepcopy(snapshot)
    service.submit(SQL_AGG)
    service.drain()
    assert snapshot == frozen
    assert snapshot.queries == 1
    assert sum(t.queries for t in snapshot.templates.values()) == 1
    later = service.profile_snapshot()
    assert later.queries == 2
    assert sum(t.queries for t in later.templates.values()) == 2
    assert len(later.latencies) == 2 and len(snapshot.latencies) == 1


def test_profiler_feeds_pgo_store(db):
    store = ProfileStore()
    service = QueryService(
        db,
        ServiceConfig(workers=2, max_inflight=2, morsel_size=128),
        pgo_store=store,
    )
    ticket = service.submit(SQL_AGG)
    service.drain()
    assert service.result(ticket).ok
    fingerprints = store.fingerprints()
    assert len(fingerprints) == 1
    assert store.feedback(fingerprints[0]).runs == 1


def test_served_cardinalities_match_profile_under_spine_pruning():
    # a layout whose spine index excludes whole shards at compile time:
    # those rows never enter a morsel, so the raw task counters depend on
    # the layout until the static exclusion is added back
    tpch = Database.tpch(
        0.001, 42, storage=StorageConfig(segment_rows=64, shard_segments=2)
    )
    sql = "select count(*) from lineitem where l_orderkey < 200"
    expected = tpch.profile(
        sql, ProfilerConfig(count_tuples=True)
    ).task_counts
    tpch.storage.prune_stats.clear()
    service = QueryService(
        tpch, ServiceConfig(workers=2, max_inflight=2),
        pgo_store=ProfileStore(),
    )
    ticket = service.submit(sql)
    service.drain()
    result = service.result(ticket)
    assert result.ok
    # task ids are per-compilation; the cardinalities are what must agree
    assert sorted(result.task_counts.values()) == sorted(expected.values())
    assert max(expected.values()) == tpch.catalog.table("lineitem").row_count
    # ... and the serve tier feeds the loader's pruning statistics too
    assert tpch.storage.prune_stats


def test_profiling_off_runs_clean(db):
    service = make_service(db, profiling=False)
    ticket = service.submit(SQL_AGG)
    service.drain()
    result = service.result(ticket)
    assert result.ok
    assert result.samples == 0
    assert result.rows == db.execute(SQL_AGG).rows
    assert service.profile_snapshot() is None


def test_warmed_plans_survive_epochs(db):
    service = make_service(db)
    service.warm([SQL_COUNT])
    hits_before = db.plan_cache.hits
    for _ in range(3):
        service.submit(SQL_COUNT)
        service.drain()  # each drain tears down one epoch
    assert service.stats()["epochs"] >= 3
    assert db.plan_cache.hits >= hits_before + 3


def test_unwarmed_plans_survive_epochs(db):
    """A plan compiled at admission, inside an epoch, is cached like a
    warmed one: its membership bitmaps are written into every run's
    state block, so releasing the epoch takes nothing the code reads."""
    service = make_service(db)
    expected = db.execute_interpreted(SQL_BITMAPS).rows
    assert expected
    hits, misses = db.plan_cache.hits, db.plan_cache.misses
    source_lines = []
    for _ in range(3):
        ticket = service.submit(SQL_BITMAPS)
        service.drain()
        result = service.result(ticket)
        assert result.ok and result.rows == expected
        source_lines.append(result.translation["source_lines"])
    assert db.plan_cache.misses == misses + 1
    assert db.plan_cache.hits == hits + 2
    # one Translation across the epochs: its line counter is cumulative
    assert source_lines[2] >= source_lines[0] > 0


def test_warm_works_mid_epoch_and_its_plan_outlives_the_drain(db):
    service = make_service(db)
    sql = SQL_BITMAPS.replace("89", "90")
    service.submit(SQL_COUNT)
    service._admit()  # an epoch is open and a query is in flight
    assert service._epoch_mark is not None
    assert service.warm([sql]) == 1
    service.drain()
    misses = db.plan_cache.misses
    ticket = service.submit(sql)
    service.drain()
    assert db.plan_cache.misses == misses
    assert service.result(ticket).rows == db.execute_interpreted(sql).rows


# -- one run record behind every served number ------------------------------


def test_served_profile_reports_what_the_service_result_reports():
    database = Database.example(n_sales=1500, n_products=50)

    class Recorder:  # the PGO store's one method the profiler calls
        def __init__(self):
            self.profiles = []

        def record(self, profile):
            self.profiles.append(profile)

    recorder = Recorder()
    service = QueryService(database, ServiceConfig(
        workers=2, morsel_size=256, tiering_hot_instructions=1,
    ), pgo_store=recorder)
    tickets = []
    for _ in range(2):  # the first run promotes the plan for the second
        tickets.append(service.submit(SQL_AGG))
        service.drain()
    result, profile = service.result(tickets[-1]), recorder.profiles[-1]
    assert result.tier == 2 and result.loads and result.stores
    assert (
        profile.result.tier, profile.result.translation,
        profile.result.instructions, profile.result.loads,
        profile.result.stores, profile.result.rows,
    ) == (
        result.tier, result.translation, result.instructions, result.loads,
        result.stores, result.rows,
    )


def test_long_lived_service_retains_results_only():
    database = Database.example(n_sales=1200, n_products=60)
    service = QueryService(database, ServiceConfig(
        workers=4, max_inflight=8, morsel_size=97, seed=7, period=5000,
    ))

    def containers():
        # everything on the service whose size could follow the number of
        # requests, except the two result indexes it keeps on purpose
        return {
            name: len(value) for name, value in vars(service).items()
            if isinstance(value, (dict, list, set))
            and name not in ("results", "_order")
        }

    sizes = []
    for _ in range(3):
        items = synthetic_workload(service, queries=9, clients=3)
        assert run_workload(service, items).clean
        sizes.append(containers())
        assert all(not w.samples.samples for w in service.workers)
    assert sizes[0] == sizes[1] == sizes[2]
    assert len(service.results) == 27
    # no sample was lost on the way out of the shared buffers: the totals
    # are the ones the service reported while its buffers kept everything
    taken = sum(w.state.samples_taken for w in service.workers)
    assert taken == 1221  # measured at the parent commit
    assert service.stats()["samples"] == taken
    assert service.profile_snapshot().samples == taken
    assert sum(r.samples for r in service.results.values()) == taken


# -- snapshot merge algebra ---------------------------------------------------


def _small_snapshot(db, queries=4, clients=2):
    service = make_service(db, workers=2)
    items = synthetic_workload(service, queries=queries, clients=clients)
    summary = run_workload(service, items)
    assert summary.clean
    return service.profile_snapshot()


def test_snapshot_merge_identity(db):
    """Regression: merge used ``Counter + Counter``, which silently drops
    zero-count keys, so merging with an empty snapshot was not a no-op."""
    snapshot = _small_snapshot(db)
    # plant a zero-count region key: the old implementation lost it
    snapshot.regions["phantom-region"] = 0
    for stats in snapshot.templates.values():
        stats.operator_samples["phantom-op"] = 0
        break
    assert ProfileSnapshot().merge(snapshot) == snapshot
    assert snapshot.merge(ProfileSnapshot()) == snapshot
    identity = ProfileSnapshot().merge(ProfileSnapshot())
    assert identity == ProfileSnapshot()
    assert identity.regions == Counter()


def test_snapshot_merge_associative_with_disjoint_templates(db):
    a = _small_snapshot(db, queries=4, clients=2)
    b = _small_snapshot(db, queries=3, clients=1)
    c = ProfileSnapshot()
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.samples == a.samples + b.samples
    assert set(left.templates) == set(a.templates) | set(b.templates)


def test_snapshot_merge_combines_view_maintenance(db):
    from repro.views import ViewService

    service = make_service(db, workers=2)
    views = ViewService(service)
    views.register(
        "g", "select category, count(*) n from products group by category"
    )
    snapshot = service.profile_snapshot()
    assert snapshot.views
    doubled = snapshot.merge(snapshot)
    assert doubled.maintenance_samples == 2 * snapshot.maintenance_samples
    assert (
        doubled.maintenance_instructions
        == 2 * snapshot.maintenance_instructions
    )
    for view_id, stats in snapshot.views.items():
        assert doubled.views[view_id].samples == 2 * stats.samples
        assert doubled.views[view_id].batches == 2 * stats.batches
    # a shard with no view tier merges in without disturbing view stats
    merged = snapshot.merge(ProfileSnapshot())
    assert merged == snapshot


_counts = st.integers(0, 50)
# counters may carry zero-count keys: the ones ``Counter.__add__`` drops
_counters = st.dictionaries(st.sampled_from("abcd"), _counts, max_size=4).map(
    Counter
)
_lists = st.lists(st.integers(1, 999), max_size=3)


def _keyed(keys, stats, label):
    """Keyed sub-aggregates over a small key alphabet, so two operands
    overlap on some keys and not on others.  A label is empty or a
    function of its key, as in a fleet: shards agree on what a key names."""
    return st.dictionaries(keys, stats, max_size=3).map(lambda drawn: {
        key: dataclasses.replace(
            value, **{label: getattr(value, label) and f"{label} {key}"}
        )
        for key, value in drawn.items()
    })


_labels = st.sampled_from(["", "set"])
_snapshots = st.builds(
    ProfileSnapshot, queries=_counts, samples=_counts,
    attributed_samples=_counts, matched_samples=_counts,
    templates=_keyed(st.sampled_from("tuv"), st.builds(
        TemplateStats, sql=_labels, queries=_counts, samples=_counts,
        instructions=_counts, latencies=_lists, operator_samples=_counters,
    ), "sql"),
    regions=_counters, latencies=_lists,
    maintenance_samples=_counts, maintenance_instructions=_counts,
    views=_keyed(st.integers(1, 3), st.builds(
        ViewMaintenanceStats, name=_labels, batches=_counts, samples=_counts,
        instructions=_counts, cycles=_counts, loads=_counts,
        operator_samples=_counters, operator_instructions=_counters,
    ), "name"),
)


def _exact(value, sort_lists=False):
    """A detached comparable form that keeps zero-count keys:
    ``Counter.__eq__`` treats a missing key as a zero count, so ``==`` on
    snapshots cannot see one lost."""
    if isinstance(value, dict):
        return sorted(
            (key, _exact(item, sort_lists)) for key, item in value.items()
        )
    if dataclasses.is_dataclass(value):
        return [
            _exact(getattr(value, f.name), sort_lists)
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, list):
        return sorted(value) if sort_lists else list(value)
    return value


@settings(max_examples=200, deadline=None)
@given(a=_snapshots, b=_snapshots, c=_snapshots)
def test_snapshot_merge_laws(a, b, c):
    before = [_exact(operand) for operand in (a, b, c)]
    assert _exact(ProfileSnapshot().merge(a)) == _exact(a)
    assert _exact(a.merge(ProfileSnapshot())) == _exact(a)
    assert _exact(a.merge(b).merge(c)) == _exact(a.merge(b.merge(c)))
    # commutative up to list order
    assert _exact(a.merge(b), True) == _exact(b.merge(a), True)
    # operands are untouched by merging, and by mutating the result
    merged = a.merge(b)
    merged.latencies.append(0)
    merged.regions["fresh"] += 1
    for stats in merged.templates.values():
        stats.latencies.append(0)
    for stats in (*merged.templates.values(), *merged.views.values()):
        stats.operator_samples["fresh"] += 1
    assert [_exact(operand) for operand in (a, b, c)] == before


# -- workload files and CLI --------------------------------------------------


def test_load_workload_jsonl(tmp_path):
    path = tmp_path / "workload.jsonl"
    path.write_text(
        "# comment line\n"
        '{"sql": "SELECT COUNT(*) FROM sales", "client": "a"}\n'
        "\n"
        '{"sql": "SELECT COUNT(*) FROM sales", "priority": 1}\n'
    )
    items = load_workload(path)
    assert items == [
        WorkloadItem(sql="SELECT COUNT(*) FROM sales", client="a"),
        WorkloadItem(sql="SELECT COUNT(*) FROM sales", priority=1),
    ]


def test_run_workload_summary(db):
    service = make_service(db)
    items = [
        WorkloadItem(sql=SQL_COUNT, client="a"),
        WorkloadItem(sql="SELECT broken FROM nowhere", client="b"),
    ]
    summary = run_workload(service, items, warm=False)
    assert summary.submitted == 2
    assert summary.completed == 1
    assert summary.failed == 1
    assert not summary.clean


def test_cli_serve_synthetic_report():
    out = io.StringIO()
    code = main(
        ["serve", "--synthetic", "--queries", "6", "--clients", "2",
         "--report", "--strict"],
        out,
    )
    text = out.getvalue()
    assert code == 0
    assert "6 ok, 0 failed" in text
    assert "tag accuracy" in text
    assert "workload profile" in text or "template" in text


def test_cli_serve_strict_fails_on_bad_query(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"sql": "SELECT broken FROM nowhere"}\n')
    out = io.StringIO()
    assert main(["serve", "--workload", str(path)], out) == 0
    out = io.StringIO()
    assert main(["serve", "--workload", str(path), "--strict"], out) == 1
    assert "COMPILE_ERROR" in out.getvalue()
