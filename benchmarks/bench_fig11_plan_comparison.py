"""Figures 10/11: the optimizer-developer use case.

Two join orders for lineitem ⋈ orders ⋈ partsupp that the cardinality
model cannot distinguish.  Because lineitem is clustered by l_orderkey and
o_orderdate correlates with o_orderkey, the date filter on orders selects a
contiguous orderkey prefix: during the probe scan the orders join flips
from always-match to never-match partway through.  The activity timeline
makes the phase change visible — the paper's point is that only the time
dimension reveals *why* the plans differ.

(Paper note: on real out-of-order hardware the partsupp-first plan won via
branch-prediction effects; in our in-order cost model the orders-first plan
wins because the phase change lets it skip the second probe entirely for
the tail of the scan.  The *methodology* — timeline reveals the phase
transition and the data-clustering cause — is what this reproduces; see
EXPERIMENTS.md.)
"""

from benchmarks.conftest import report
from repro import ExecOptions

SQL = """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders, partsupp
where l_orderkey = o_orderkey and l_partkey = ps_partkey
  and l_suppkey = ps_suppkey
  and o_orderdate < date '1994-06-01'
"""

ORDERS_FIRST = ExecOptions(join_order_hint=["lineitem", "orders", "partsupp"])
PARTSUPP_FIRST = ExecOptions(
    join_order_hint=["lineitem", "partsupp", "orders"]
)


def _join_activity(profile, key_marker: str):
    """Per-bin activity share of the join whose build keys mention a column."""
    timeline = profile.activity_timeline(bins=20)
    target = None
    for op in profile.physical.walk():
        if op.kind == "hashjoin":
            build_names = {iu.name for iu in op.build_payload} | {
                str(k) for k in op.build_keys
            }
            if any(key_marker in n for n in build_names):
                target = op
    shares = [bucket.share_of(target) for bucket in timeline.bins]
    return shares


def test_fig11_two_plans_and_phase_change(tpch, benchmark):
    result_a = tpch.execute(SQL, ORDERS_FIRST)
    result_b = tpch.execute(SQL, PARTSUPP_FIRST)
    assert result_a.rows == result_b.rows

    profile_a = benchmark.pedantic(
        lambda: tpch.profile(SQL, options=ORDERS_FIRST),
        rounds=1, iterations=1,
    )
    profile_b = tpch.profile(SQL, options=PARTSUPP_FIRST)

    # the Fig. 11 signature, in plan A: once the scan passes the orderkey
    # range selected by the date filter, the orders join eliminates every
    # tuple and the partsupp hash table is no longer probed at all
    partsupp_a = _join_activity(profile_a, "ps_")
    early = sum(partsupp_a[:8]) / 8
    late = sum(partsupp_a[-4:]) / 4

    lines = [
        "Fig 10/11 — two plans, same estimated cardinalities:",
        "",
        f"plan A (probe orders first):   {result_a.cycles:>12,} cycles",
        f"plan B (probe partsupp first): {result_b.cycles:>12,} cycles",
        f"winner: {'A' if result_a.cycles < result_b.cycles else 'B'} "
        f"by {abs(result_b.cycles - result_a.cycles) / max(result_a.cycles, result_b.cycles) * 100:.1f}%",
        "",
        "plan A activity over time:",
        profile_a.render_timeline(bins=30),
        "",
        "plan B activity over time:",
        profile_b.render_timeline(bins=30),
        "",
        "partsupp-join activity in plan A, start vs end of runtime:",
        f"  early {early * 100:.1f}%   late {late * 100:.1f}%",
        "(the phase change: once the scan passes the date cutoff's orderkey",
        " range, the orders join eliminates all tuples and the partsupp hash",
        " table is not probed at all — the Fig. 11 signature)",
    ]
    report("Fig 10-11 optimizer use case", "\n".join(lines))

    # the two plans must differ measurably, and the phase change must show
    assert abs(result_a.cycles - result_b.cycles) > 0.03 * result_a.cycles
    assert late < 0.5 * early, "partsupp probing must collapse after the cutoff"

