"""Tests for offline profiling sessions (the §5.2.2 metadata-file flow)."""

import pytest

from repro import ExecOptions, ProfilerConfig, ProfilingMode
from repro.data.queries import FIG9_QUERY
from repro.errors import ProfilingError
from repro.profiling.session import load_session, save_session
from repro.vm import CodeRegion


@pytest.fixture(scope="module")
def saved(tpch_db, tmp_path_factory):
    profile = tpch_db.profile(FIG9_QUERY.sql)
    directory = tmp_path_factory.mktemp("session")
    save_session(profile, directory)
    return profile, directory


def test_session_files_written(saved):
    _, directory = saved
    for name in ("tagging.json", "program.json", "samples.jsonl", "meta.json"):
        assert (directory / name).exists()


def test_offline_summary_matches_live(saved):
    profile, directory = saved
    session = load_session(directory)
    live = profile.attribution_summary()
    offline = session.summary()
    assert offline["total_samples"] == live.total_samples
    assert offline["operator_share"] == pytest.approx(live.operator_share)
    assert offline["kernel_share"] == pytest.approx(live.kernel_share)
    assert offline["unattributed_share"] == pytest.approx(
        live.unattributed_share
    )


def test_offline_operator_weights_match_live(saved):
    profile, directory = saved
    session = load_session(directory)
    live = {
        op.label: weight
        for op, weight in profile.processor.operator_weights(
            profile.attributions
        ).items()
    }
    offline = session.operator_weights()
    assert set(offline) == set(live)
    for label, weight in live.items():
        assert offline[label] == pytest.approx(weight)


def test_offline_register_tag_disambiguation(saved):
    profile, directory = saved
    session = load_session(directory)
    program = session.processor.program
    runtime = [
        a for a in session.attributions
        if program.region_at(a.sample.ip) is CodeRegion.RUNTIME
    ]
    assert runtime, "some samples should be in shared runtime code"
    assert all(a.runtime_function for a in runtime)
    resolved = [
        a for a in runtime
        if a.category == "operator" and a.via == "register-tag"
    ]
    assert len(resolved) / len(runtime) > 0.9


def _walk(attribution):
    """Everything the §4.2.6 walk decides about one sample."""
    return (
        attribution.sample.ip, attribution.sample.tsc, attribution.category,
        tuple(task.id for task in attribution.tasks),
        tuple(task.operator.label for task in attribution.tasks),
        attribution.ir_id, attribution.via, attribution.runtime_function,
        attribution.kernel_function, attribution.query_id, attribution.worker,
    )


@pytest.mark.parametrize("config", [
    ProfilerConfig(),
    ProfilerConfig(mode=ProfilingMode.CALLSTACK),
    ProfilerConfig(crosscheck=True),
    ProfilerConfig(mode=ProfilingMode.NONE),
], ids=["register-tagging", "callstack", "crosscheck", "plain"])
def test_offline_attributions_equal_live_per_sample(tpch_db, tmp_path, config):
    profile = tpch_db.profile(FIG9_QUERY.sql, config, ExecOptions(workers=2))
    save_session(profile, tmp_path)
    session = load_session(tmp_path)
    assert len(session.attributions) == len(profile.attributions) > 0
    assert {a.worker for a in session.attributions} == {0, 1}
    for offline, live in zip(session.attributions, profile.attributions):
        assert _walk(offline) == _walk(live)
    # each record re-attributes to the same thing on its own
    assert _walk(session.attribute(session.samples[0])) == _walk(
        profile.attributions[0]
    )


def test_offline_serve_session_keeps_the_query_dimension(
    tmp_path, monkeypatch
):
    """Sessions the serve tier recorded into a persistent PGO store: the
    query-id half of the tag survives the metadata-file round trip."""
    from repro import Database
    from repro.pgo import ProfileStore
    from repro.serve import QueryService, ServiceConfig

    db = Database.example(n_sales=400, n_products=20)
    service = QueryService(
        db, ServiceConfig(workers=2, period=2_000),
        pgo_store=ProfileStore(directory=tmp_path),
    )
    live = []
    complete = service.profiler.complete_query
    monkeypatch.setattr(
        service.profiler, "complete_query",
        lambda execution: live.append(complete(execution)),
    )
    sql = "select count(*) from sales where price > 100.0"
    tickets = [service.submit(sql), service.submit(sql)]
    service.drain()
    results = {r.query_id: r for r in map(service.result, tickets)}
    (query_dir,) = tmp_path.iterdir()
    for run, profile in enumerate(live, start=1):
        session = load_session(query_dir / "runs" / f"run_{run}")
        assert [_walk(a) for a in session.attributions] == [
            _walk(a) for a in profile.attributions
        ]
        ((query_id, samples),) = session.query_weights().items()
        assert results.pop(query_id).samples == samples > 0
    assert not results, "both in-flight queries were recorded"


def test_offline_callstack_session(tpch_db, tmp_path):
    profile = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.CALLSTACK)
    )
    save_session(profile, tmp_path)
    session = load_session(tmp_path)
    summary = session.summary()
    live = profile.attribution_summary()
    assert summary["operator_share"] == pytest.approx(live.operator_share)


def test_load_missing_session(tmp_path):
    with pytest.raises(ProfilingError):
        load_session(tmp_path / "nope")


def test_meta_round_trip(saved):
    profile, directory = saved
    session = load_session(directory)
    assert session.meta["period"] == profile.config.period
    assert session.meta["cycles"] == profile.result.cycles


# -- serve sessions under view subscriptions ---------------------------------
#
# A service session that subscribes to a materialized view holds a
# standing delivery channel; closing or reopening the session must never
# leave the (old or new) subscriber with a gap or a duplicate version.


def _view_setup():
    from collections import Counter

    from repro import Database
    from repro.serve import QueryService, ServiceConfig
    from repro.views import ViewService

    db = Database.example(n_sales=300, n_products=30)
    service = QueryService(db, ServiceConfig(workers=2))
    views = ViewService(service)
    views.register(
        "g",
        "select id % 5 as b, sum(price) as total, count(*) as n "
        "from sales group by id % 5",
    )
    table = db.catalog.table("sales")
    live = [
        (raw[0], raw[1] / 100, raw[2] / 100, raw[3] / 100)
        for raw in zip(*table.columns)
    ]
    return service, views, live, Counter


def _apply_one(views, live, step):
    row = (100_000 + step, 10.0 * (step + 1), 1.19, 5.0)
    views.apply({"sales": [(row, 1), (live[step], -1)]})


def _replay(updates, Counter):
    """Fold a snapshot + delta stream into the state bag it describes."""
    bag = Counter()
    for update in updates:
        if update.kind == "snapshot":
            bag = Counter()
            for row in update.rows:
                bag[row] += 1
        else:
            for row, weight in update.rows:
                bag[row] += weight
    return +bag


def test_closed_session_stops_receiving_deltas():
    service, views, live, Counter = _view_setup()
    session = service.session("client")
    subscription = views.subscribe("g", session)
    _apply_one(views, live, 0)
    session.close()
    _apply_one(views, live, 1)
    updates = subscription.pull()
    # snapshot + exactly the one pre-close delta; the post-close batch
    # must not be delivered, and the subscription is dropped
    assert [u.kind for u in updates] == ["snapshot", "delta"]
    assert not subscription.active
    assert subscription not in views.view("g").subscribers


def test_reopened_session_gets_consistent_snapshot_and_deltas():
    service, views, live, Counter = _view_setup()
    session = service.session("client")
    stale = views.subscribe("g", session)
    _apply_one(views, live, 0)
    session.close()
    reopened = service.session("client")
    assert reopened is not session and not reopened.closed

    # deltas applied between reopen and resubscribe reach no one...
    _apply_one(views, live, 1)
    fresh = views.subscribe("g", reopened)
    _apply_one(views, live, 2)
    _apply_one(views, live, 3)

    updates = fresh.pull()
    # ...because the fresh subscription starts from a snapshot taken at
    # the current version: no gap, no duplicate
    assert [u.kind for u in updates] == ["snapshot", "delta", "delta"]
    versions = [u.version for u in updates]
    assert versions == list(range(versions[0], versions[0] + 3))
    maintained = Counter()
    for row in views.view("g").materialize():
        maintained[row] += 1
    assert _replay(updates, Counter) == maintained

    # the superseded subscription saw only its own era
    stale_updates = stale.pull()
    assert [u.kind for u in stale_updates] == ["snapshot", "delta"]
    assert not stale.active


def test_reopen_supersedes_even_unclosed_subscription():
    """A reopen hands out a *new* session object under the same name; a
    subscription pinned to the old object must stop receiving even though
    the old object was never explicitly closed after the reopen."""
    service, views, live, Counter = _view_setup()
    session = service.session("client")
    subscription = views.subscribe("g", session)
    session.close()
    reopened = service.session("client")
    assert service.sessions.sessions["client"] is reopened
    _apply_one(views, live, 0)
    updates = subscription.pull()
    assert [u.kind for u in updates] == ["snapshot"]
    assert not subscription.active


def test_two_sessions_one_view_independent_queues():
    service, views, live, Counter = _view_setup()
    a = views.subscribe("g", service.session("a"))
    _apply_one(views, live, 0)
    b = views.subscribe("g", service.session("b"))
    _apply_one(views, live, 1)
    a_updates = a.pull()
    b_updates = b.pull()
    assert [u.kind for u in a_updates] == ["snapshot", "delta", "delta"]
    assert [u.kind for u in b_updates] == ["snapshot", "delta"]
    # both streams replay to the same maintained state
    maintained = Counter()
    for row in views.view("g").materialize():
        maintained[row] += 1
    assert _replay(a_updates, Counter) == maintained
    assert _replay(b_updates, Counter) == maintained
