"""Portability (§6.4): the same profiling stack serves a second frontend.

One computation expressed twice — as SQL and as the streaming EventFlow
DSL — produces identical results, near-identical execution costs (same
physical algebra underneath), and profiles whose reports speak each
frontend's own vocabulary.  The Tagging Dictionary, post-processing, and
reports required zero changes for the second system.
"""

from repro.streaming import EventFlow

from benchmarks._harness import report

SQL = """
select l_shipdate - (l_shipdate % 30) as window_start, l_returnflag,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       count(*) as events
from lineitem
where l_quantity > 10
group by l_shipdate - (l_shipdate % 30), l_returnflag
order by window_start, l_returnflag
"""


def make_flow(db):
    return (
        EventFlow(db, "lineitem", label="shipments")
        .where("l_quantity > 10")
        .derive(revenue="l_extendedprice * (1 - l_discount)")
        .tumbling_window("l_shipdate", days=30)
        .aggregate(by=["window_start", "l_returnflag"],
                   totals={"revenue": "sum(revenue)", "events": "count(*)"})
        .order_by("window_start", "l_returnflag")
    )


def test_portability_sql_vs_streaming(tpch, benchmark):
    sql_result = tpch.execute(SQL)
    flow_result = benchmark.pedantic(
        lambda: make_flow(tpch).run(), rounds=1, iterations=1
    )

    # same values (the SQL variant reports raw day numbers for the window)
    assert len(sql_result.rows) == len(flow_result.rows)
    for sql_row, flow_row in zip(sql_result.rows, flow_result.rows):
        assert sql_row[1:] == flow_row[1:]

    sql_profile = tpch.profile(SQL)
    flow_profile = make_flow(tpch).profile()
    sql_summary = sql_profile.attribution_summary()
    flow_summary = flow_profile.attribution_summary()

    lines = [
        "Portability — one computation, two frontends, one profiling stack",
        "",
        f"{'':24} {'SQL':>14} {'EventFlow DSL':>14}",
        f"{'rows':24} {len(sql_result.rows):>14} {len(flow_result.rows):>14}",
        f"{'cycles':24} {sql_result.cycles:>14,} {flow_result.cycles:>14,}",
        f"{'samples attributed':24} "
        f"{sql_summary.attributed_share * 100:>13.1f}% "
        f"{flow_summary.attributed_share * 100:>13.1f}%",
        "",
        "SQL's report vocabulary:",
        *("  " + line for line in sql_profile.annotated_plan().splitlines()[:4]),
        "",
        "the DSL's report vocabulary (same stack, its own terms):",
        *("  " + line for line in flow_profile.annotated_plan().splitlines()[:5]),
    ]
    report("Portability SQL vs streaming DSL", "\n".join(lines))

    assert flow_summary.attributed_share > 0.9
    ratio = flow_result.cycles / sql_result.cycles
    assert 0.8 < ratio < 1.3, "same algebra should cost about the same"
    assert "window-agg#" in flow_profile.annotated_plan()
    assert "group by#" in sql_profile.annotated_plan()
