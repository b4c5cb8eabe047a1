"""One way to execute a plan: the engine and the serve tier drive the same
:class:`repro.pipeline.run.PlanRun`, so a one-query service is an oracle
for ``Database._run_compiled`` that needs no second implementation."""

from pathlib import Path

import pytest

from repro import ExecOptions, ProfilerConfig
from repro.data.queries import ALL_QUERIES
from repro.fuzz import build_database, load_case
from repro.pipeline.run import WHOLE_DOMAIN
from repro.serve import SYNTHETIC_TEMPLATES, QueryService, ServiceConfig

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))
# (workers, morsel_size): the engine's single-worker rule — each pipeline
# is one morsel — spelled out for the service, and a multi-morsel split
SHAPES = [(1, WHOLE_DOMAIN), (4, 97)]


def assert_engine_matches_service(db, sql):
    for workers, morsel_size in SHAPES:
        run = db._run_compiled(db.compiled_for(sql), None, ExecOptions(
            workers=workers, morsel_size=morsel_size
        ))
        engine = run.result()
        service = QueryService(db, ServiceConfig(
            workers=workers, morsel_size=morsel_size, profiling=False,
        ))
        ticket = service.submit(sql)
        service.drain()
        served = service.result(ticket)
        assert served.ok, served.error
        assert (
            served.rows, served.instructions, served.loads, served.stores,
            served.task_counts,
        ) == (
            engine.rows, engine.instructions, engine.loads, engine.stores,
            run.task_counts,
        ), (workers, morsel_size)
        if workers == 1:
            # one core, nothing to share it with: it never waits, and the
            # clocks agree to the cycle: both allocate the state block
            # before the stack, so every access meets the same cache state
            assert served.latency_cycles == served.busy_cycles
            assert served.latency_cycles == engine.cycles


@pytest.mark.parametrize("name", sorted(ALL_QUERIES, key=lambda n: int(n[1:])))
def test_engine_matches_one_query_service_on_tpch(tpch_db, name):
    assert_engine_matches_service(tpch_db, ALL_QUERIES[name].sql)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_engine_matches_one_query_service_on_corpus(path):
    case = load_case(path)
    assert_engine_matches_service(build_database(case.dataset), case.sql)


@pytest.mark.parametrize("template", SYNTHETIC_TEMPLATES)
def test_engine_matches_one_query_service_on_templates(example_db, template):
    # 100000 empties the last template's sort input: a pipeline over an
    # empty domain schedules no unit on either path
    for price in (250.0, 100000):
        assert_engine_matches_service(
            example_db, template.format(price=price, hi_price=price)
        )


def test_repeats_read_counters_and_pruning_feedback_once(tpch_db):
    sql = ALL_QUERIES["q6"].sql
    config = ProfilerConfig(count_tuples=True)
    stats = tpch_db.storage.prune_stats

    def observed(repeats):
        before = {k: (v.considered, v.skipped) for k, v in stats.items()}
        profile = tpch_db.profile(sql, config, ExecOptions(repeats=repeats))
        delta = {
            key: (
                value.considered - before.get(key, (0, 0))[0],
                value.skipped - before.get(key, (0, 0))[1],
            )
            for key, value in stats.items()
        }
        # task ids are per compilation; the cardinalities must agree
        return delta, sorted(profile.task_counts.values())

    once = observed(1)
    assert any(considered for considered, _ in once[0].values())
    assert observed(3) == once
