"""Integration tests for Tailored Profiling on the full engine stack."""

import pytest

from repro import (
    Database,
    Event,
    ExecOptions,
    PlannerOptions,
    ProfilerConfig,
    ProfilingMode,
)
from repro.data.queries import EXAMPLE_QUERY, FIG9_QUERY
from repro.plan.physical import PhysicalGroupBy, PhysicalHashJoin, PhysicalScan
from repro.profiling.postprocess import CATEGORY_OPERATOR

from tests.conftest import rows_match


@pytest.fixture(scope="module")
def fig9_profile(tpch_db):
    return tpch_db.profile(FIG9_QUERY.sql)


def test_profile_result_matches_plain_execution(tpch_db, fig9_profile):
    plain = tpch_db.execute(FIG9_QUERY.sql)
    assert rows_match(fig9_profile.result.rows, plain.rows)


def test_operator_costs_sum_to_one(fig9_profile):
    costs = fig9_profile.operator_costs()
    assert costs
    assert sum(costs.values()) == pytest.approx(1.0)


def test_join_and_groupby_dominate_fig9(fig9_profile):
    """The paper's Fig. 9: aggregation and join carry ~97% of the cost."""
    costs = {op.kind: share for op, share in fig9_profile.operator_costs().items()}
    assert costs.get("groupby", 0) + costs.get("hashjoin", 0) > 0.5
    assert costs.get("select", 0) < 0.1  # cheap filter


def test_annotated_plan_has_percentages(fig9_profile):
    text = fig9_profile.annotated_plan()
    assert "%" in text
    assert "join" in text and "group by" in text


def test_annotated_ir_shows_owners_and_shares(fig9_profile):
    text = fig9_profile.annotated_ir()
    assert "pipeline_" in text
    assert "group by#" in text
    assert "%" in text


def test_register_tagging_resolves_runtime_samples(fig9_profile):
    vias = {a.via for a in fig9_profile.attributions}
    assert "register-tag" in vias
    runtime_attr = [
        a for a in fig9_profile.attributions if a.runtime_function is not None
    ]
    assert runtime_attr, "some samples should land in ht_insert"
    resolved = [a for a in runtime_attr if a.category == CATEGORY_OPERATOR]
    assert len(resolved) / len(runtime_attr) > 0.9


def test_callstack_mode_resolves_runtime_samples(tpch_db):
    profile = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.CALLSTACK)
    )
    vias = {a.via for a in profile.attributions}
    assert "callstack" in vias
    summary = profile.attribution_summary()
    assert summary.attributed_share > 0.9


def test_plain_ip_mode_cannot_resolve_shared_locations(tpch_db):
    profile = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.NONE)
    )
    runtime_attr = [
        a for a in profile.attributions if a.runtime_function is not None
    ]
    assert runtime_attr
    assert all(a.category != CATEGORY_OPERATOR for a in runtime_attr)


def test_attribution_summary_in_paper_band(fig9_profile):
    summary = fig9_profile.attribution_summary()
    assert summary.attributed_share > 0.9
    assert summary.unattributed_share < 0.1


def test_callstack_much_more_expensive_than_register_tagging(tpch_db):
    base = tpch_db.execute(FIG9_QUERY.sql).cycles
    reg = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.REGISTER_TAGGING)
    ).result.cycles
    stack = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.CALLSTACK)
    ).result.cycles
    reg_overhead = reg / base - 1
    stack_overhead = stack / base - 1
    assert stack_overhead > 5 * reg_overhead  # paper: 529% vs 38%


def test_overhead_grows_with_sampling_frequency(tpch_db):
    base = tpch_db.execute(FIG9_QUERY.sql).cycles
    slow = tpch_db.profile(FIG9_QUERY.sql, ProfilerConfig(period=20000)).result.cycles
    fast = tpch_db.profile(FIG9_QUERY.sql, ProfilerConfig(period=2000)).result.cycles
    assert fast > slow > base


def test_timeline_shows_phases(fig9_profile):
    timeline = fig9_profile.activity_timeline(bins=20)
    assert timeline.bins
    tscs = [b.start_tsc for b in timeline.bins]
    assert tscs == sorted(tscs)
    for bucket in timeline.bins:
        assert sum(bucket.by_operator.values()) <= bucket.total + 1e-9
    # the sort (if sampled at all) can only be active at the end
    render = fig9_profile.render_timeline(bins=20)
    assert "|" in render


def test_memory_profile_distinguishes_scan_from_join(tpch_db):
    profile = tpch_db.profile(
        FIG9_QUERY.sql,
        ProfilerConfig(event=Event.LOADS, period=150, record_memaddr=True),
    )
    mem = profile.memory_profile()
    scans = [op for op in mem.accesses if isinstance(op, PhysicalScan)]
    joins = [op for op in mem.accesses if isinstance(op, PhysicalHashJoin)]
    assert scans and joins
    best_scan = max(mem.band_linearity(op) for op in scans)
    join_lin = max(abs(mem.band_linearity(op)) for op in joins)
    assert best_scan > 0.9, "table scans should be near-perfectly linear"
    assert join_lin < 0.5, "hash-table access should be scattered"


def test_tsc_timestamps_monotonic_and_spaced(tpch_db):
    profile = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(event=Event.CYCLES, period=5000)
    )
    tscs = [s.tsc for s in profile.samples]
    assert tscs == sorted(tscs)
    deltas = [b - a for a, b in zip(tscs, tscs[1:])]
    # sampling on cycles: gaps reflect the period plus per-sample overhead
    core = sorted(deltas)[len(deltas) // 10 : -len(deltas) // 10 or None]
    assert all(d >= 5000 for d in core)
    assert sum(core) / len(core) < 5000 * 3


def test_loads_event_samples_point_at_loads(tpch_db):
    from repro.vm.isa import CodeRegion, Opcode

    profile = tpch_db.profile(
        FIG9_QUERY.sql,
        ProfilerConfig(event=Event.LOADS, period=500, record_memaddr=True),
    )
    checked = 0
    for sample in profile.samples:
        region = profile.program.region_at(sample.ip)
        if region in (CodeRegion.QUERY, CodeRegion.RUNTIME, CodeRegion.SYSLIB):
            assert profile.program.code[sample.ip][0] == Opcode.LOAD
            checked += 1
    assert checked > 10


def test_dictionary_covers_all_query_instructions(fig9_profile):
    """§6.3: every sampleable generated instruction must be attributable."""
    tagging = fig9_profile.tagging
    for function in fig9_profile.ir_module.functions:
        for instr in function.all_instructions():
            tasks = tagging.tasks_of_instruction(instr.id)
            assert tasks, f"untagged instruction %{instr.id} in {function.name}"


def test_dictionary_size_reported(fig9_profile):
    tagging = fig9_profile.tagging
    assert tagging.entry_count > 100
    assert tagging.size_bytes == tagging.entry_count * 24


def test_groupjoin_profile_and_correctness(tpch_db):
    sql = (
        "select o_orderkey, sum(l_extendedprice) s from orders, lineitem "
        "where o_orderkey = l_orderkey group by o_orderkey"
    )
    options = ExecOptions(
        planner_options=PlannerOptions(enable_groupjoin=True)
    )
    fused = tpch_db.execute(sql, options)
    oracle = tpch_db.execute_interpreted(sql, options)
    plain = tpch_db.execute(sql)
    assert rows_match(fused.rows, oracle.rows)
    assert rows_match(sorted(fused.rows), sorted(plain.rows))

    profile = tpch_db.profile(sql, options=options)
    task_labels = {t.role for t in profile.task_costs()}
    assert any("groupjoin" in role for role in task_labels)


def test_explain_analyze_tuple_counts(tpch_db):
    text = tpch_db.explain_analyze(
        "select count(*) c from lineitem where l_quantity < 10"
    )
    assert "tuples" in text


def test_example_query_profile_listing_one_lesson(example_db):
    """Listing 1's lesson: the aggregation's samples, spread across many

    instructions, outweigh the join's single hot load."""
    profile = example_db.profile(EXAMPLE_QUERY.sql)
    costs = {op.kind: share for op, share in profile.operator_costs().items()}
    assert costs.get("groupby", 0) > 0.25


def test_branch_miss_event_sampling(tpch_db):
    """BR_MISP-style sampling: mispredicted branches concentrate in the

    data-dependent operators (hash probing), not in predictable scan
    control flow."""
    from repro.data.queries import FIG9_QUERY

    profile = tpch_db.profile(
        FIG9_QUERY.sql, ProfilerConfig(event=Event.BRANCH_MISS, period=40)
    )
    assert profile.samples, "branch misses must occur"
    costs = {op.kind: w for op, w in profile.operator_costs().items()}
    hashers = costs.get("hashjoin", 0) + costs.get("groupby", 0)
    assert hashers > 0.5, f"hash operators should own most mispredicts: {costs}"


def test_l1_miss_event_sampling(tpch_db):
    from repro.data.queries import FIG9_QUERY

    profile = tpch_db.profile(
        FIG9_QUERY.sql,
        ProfilerConfig(event=Event.L1_MISS, period=50, record_memaddr=True),
    )
    assert profile.samples
    mem = profile.memory_profile()
    assert mem.accesses, "cache-miss addresses should be attributable"
