"""Tests for the report layer: zoom, pipeline view, IPC, timeline, IR view."""

import pytest

from repro import Event, ExecOptions, ProfilerConfig
from repro.data.queries import FIG9_QUERY
from repro.profiling import reports


@pytest.fixture(scope="module")
def profile(tpch_db):
    return tpch_db.profile(FIG9_QUERY.sql)


def test_zoom_restricts_samples(profile):
    timeline = profile.activity_timeline(bins=10)
    mid = timeline.bins[len(timeline.bins) // 2].start_tsc
    zoomed = profile.zoom(0, mid)
    assert zoomed.samples
    assert all(s.tsc < mid for s in zoomed.samples)
    assert len(zoomed.samples) < len(profile.samples)
    # reports still work on the zoomed view
    assert "%" in zoomed.annotated_plan()
    costs = zoomed.operator_costs()
    assert costs and sum(costs.values()) == pytest.approx(1.0)


def test_zoom_isolates_temporal_hotspot(profile):
    """§4.3: the tail of this query is sort/output work; zooming onto it

    must change the dominant operator relative to the full profile."""
    tscs = sorted(s.tsc for s in profile.samples)
    cut = tscs[int(len(tscs) * 0.93)]
    tail = profile.zoom(cut, tscs[-1] + 1)
    tail_costs = {op.kind: w for op, w in tail.operator_costs().items()}
    full_costs = {op.kind: w for op, w in profile.operator_costs().items()}
    tail_share = tail_costs.get("sort", 0) + tail_costs.get("output", 0) \
        + tail_costs.get("groupby", 0)
    assert tail_share > full_costs.get("sort", 0) + full_costs.get("output", 0)


def test_zoom_empty_interval(profile):
    zoomed = profile.zoom(0, 1)
    assert zoomed.operator_costs() == {}
    assert zoomed.attribution_summary().total_samples == 0


def test_annotated_pipelines_report(profile):
    text = profile.annotated_pipelines()
    assert "pipeline 0" in text
    assert "build(" in text or "materialize(" in text
    assert "probe(" in text
    # shares parse back and sum to ~100
    shares = [
        float(line.strip().split("%")[0])
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit() and "%" in line
    ]
    assert sum(shares) == pytest.approx(100.0, abs=1.5)


def test_pipeline_totals_match_task_costs(profile):
    task_costs = profile.task_costs()
    assert task_costs
    assert sum(task_costs.values()) == pytest.approx(1.0)
    # every task with weight belongs to a known pipeline
    all_tasks = {t.id for p in profile.pipelines for t in p.tasks}
    for task in task_costs:
        assert task.id in all_tasks


def test_ipc_report(tpch_db, profile):
    instr_profile = tpch_db.profile(
        FIG9_QUERY.sql,
        ProfilerConfig(event=Event.INSTRUCTIONS, period=5000),
    )
    ipc = reports.ipc_report(profile, instr_profile)
    assert ipc
    for op, value in ipc.items():
        assert 0.0 <= value < 5.0
    text = reports.render_ipc(profile, instr_profile)
    assert "IPC" in text
    # the probe-heavy join is memory bound: IPC well below 1
    by_kind = {op.kind: v for op, v in ipc.items()}
    assert by_kind.get("hashjoin", 0) < 1.0
    # weighted mean IPC must be near the machine-wide ratio
    cycle_shares = profile.operator_costs()
    machine_ipc = profile.result.instructions / profile.result.cycles
    weighted = sum(ipc[op] * cycle_shares[op] for op in ipc)
    assert weighted == pytest.approx(machine_ipc, rel=0.35)


def test_timeline_bins_partition_samples(profile):
    timeline = profile.activity_timeline(bins=12)
    total = sum(b.total for b in timeline.bins)
    operator_samples = sum(
        1 for a in profile.attributions if a.category == "operator"
    )
    assert total == operator_samples


def test_annotated_ir_filters_by_pipeline(profile):
    all_text = profile.annotated_ir()
    one = profile.annotated_ir(pipeline_index=0)
    assert "pipeline_0" in one
    assert "pipeline_1" not in one
    assert "pipeline_1" in all_text


def test_memory_profile_requires_addresses(profile):
    # default profile has no memaddr capture -> empty access map
    mem = profile.memory_profile()
    assert mem.accesses == {}


def test_storage_report_attributes_segments(tpch_db):
    """The storage dimension: memaddr samples must resolve down to the
    physical segment (table, column, segment, encoding, part) and show
    up in the rendered storage report."""
    from repro.data.queries import ALL_QUERIES

    profile = tpch_db.profile(
        ALL_QUERIES["q6"].sql,
        ProfilerConfig(event=Event.LOADS, period=997, record_memaddr=True),
    )
    hits = [a for a in profile.attributions if a.storage is not None]
    assert hits, "no sample resolved to a storage structure"
    ref = hits[0].storage
    assert ref.table in tpch_db.storage.tables
    breakdown = reports.storage_breakdown(profile)
    assert breakdown
    (table, column), info = next(iter(breakdown.items()))
    assert info["samples"] > 0
    assert info["segments"], "per-segment counts missing"
    text = reports.render_storage_report(profile)
    assert "storage dimension" in text
    assert f"{table}.{column}" in text
    assert "seg " in text


def test_compare_profiles_report(tpch_db):
    from repro.profiling.reports import compare_profiles

    sql = (
        "select sum(l_extendedprice) s from lineitem, orders, partsupp "
        "where l_orderkey = o_orderkey and l_partkey = ps_partkey "
        "and l_suppkey = ps_suppkey and o_orderdate < date '1994-06-01'"
    )
    a = tpch_db.profile(sql, options=ExecOptions(
        join_order_hint=["lineitem", "orders", "partsupp"]
    ))
    b = tpch_db.profile(sql, options=ExecOptions(
        join_order_hint=["lineitem", "partsupp", "orders"]
    ))
    text = compare_profiles(a, b)
    assert "plan A" in text and "plan B" in text
    assert "cycles (wall)" in text
    assert "hashjoin" in text
    assert text.count("operators:") == 2


def test_sql_error_caret_formatting():
    from repro.errors import SqlError, format_sql_error

    sql = "select a\nfrom t\nwhere a >== 1"
    try:
        from repro.sql import parse

        parse(sql)
        raise AssertionError("should have failed")
    except SqlError as error:
        text = format_sql_error(sql, error)
        assert "line 3" in text
        assert "^" in text
        caret_line = text.splitlines()[-1]
        message_line = text.splitlines()[-2]
        assert len(caret_line) <= len(message_line) + 2


def test_plan_dot_export(profile):
    dot = profile.plan_dot()
    assert dot.startswith("digraph plan {")
    assert dot.rstrip().endswith("}")
    assert "->" in dot
    # every operator appears exactly once as a node
    ops = list(profile.physical.walk())
    for op in ops:
        assert f'n{op.op_id} [label=' in dot
    assert dot.count("->") == len(ops) - 1  # a tree
    assert "%" in dot


def test_hot_instructions():
    # a fresh database, not the shared fixture: the hot-list tail is a
    # cluster of ~2% shares whose ordering depends on the memory layout,
    # which drifts with whatever structures earlier tests materialized
    from repro import Database

    profile = Database.tpch(scale=0.001, seed=42).profile(FIG9_QUERY.sql)
    hot = profile.hot_instructions(10)
    assert len(hot) == 10
    shares = [h[0] for h in hot]
    assert shares == sorted(shares, reverse=True)
    assert all(0 < s <= 1 for s in shares)
    for share, ir_id, text, owners in hot:
        assert text and isinstance(ir_id, int)
        assert owners  # every hot line has an owner
    # the directory-lookup load should be near the top (Listing 1's
    # lesson); since the columnar layout packed the scans, decode
    # arithmetic dilutes the shares, but a stall-biased load must still
    # rank among the hot instructions
    assert any("load" in h[2] for h in hot)


def test_a_runtime_line_is_named_by_its_function_and_its_owners(profile):
    # the runtime library numbers its IR apart from the query, so a
    # runtime sample's line is no query line: it reads ``@function %id``
    # and is owned by the operators its samples' tags resolved to
    owners: dict = {}
    for attribution in profile.attributions:
        if None not in (attribution.runtime_function, attribution.ir_id):
            key = f"@{attribution.runtime_function} %{attribution.ir_id}"
            labels = owners.setdefault(key, {})
            labels.update(dict.fromkeys(op.label for op in attribution.operators))
    assert owners
    hot = profile.hot_instructions(len(profile.attributions))
    named = {text: found for _, _, text, found in hot if text.startswith("@")}
    assert named == {key: tuple(labels) for key, labels in owners.items()}
    assert all(named.values())
