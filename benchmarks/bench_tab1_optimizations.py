"""Table 1: attribution survives the supported optimizations.

Umbra's implemented set — operator fusion, code elimination, constant
folding, common-subexpression elimination, dataflow-graph operator fusion
(groupjoin) — each exercised while checking that the Tagging Dictionary
still attributes every sample.
"""

from repro import PlannerOptions, ProfilerConfig
from repro.data.queries import ALL_QUERIES

from benchmarks.conftest import report

GROUPJOIN_SQL = """
select o_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue
from orders, lineitem
where o_orderkey = l_orderkey
group by o_orderkey
"""

# a query whose WHERE clause contains foldable constants and repeated
# subexpressions across operators
CSE_SQL = """
select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as a,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as b
from lineitem
where l_quantity < 2 * 20 + 8
group by l_orderkey
order by a desc
limit 5
"""


def test_tab1_optimizations_keep_attribution(tpch, benchmark):
    rows = []

    def run():
        # operator fusion + folding + CSE + DCE on a rich query
        profile = tpch.profile(CSE_SQL)
        opt_stats = profile_opt_stats(tpch, CSE_SQL)
        summary = profile.attribution_summary()
        rows.append(("fusion+fold+CSE+DCE", opt_stats, summary.attributed_share))

        # dataflow-graph operator fusion: groupjoin
        fused = tpch.profile(
            GROUPJOIN_SQL, planner_options=PlannerOptions(enable_groupjoin=True)
        )
        fused_summary = fused.attribution_summary()
        task_kinds = {t.role for t in fused.task_costs()}
        rows.append((
            "groupjoin fusion",
            {"sections": sorted(r for r in task_kinds if "groupjoin" in r)},
            fused_summary.attributed_share,
        ))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Table 1 — optimizations vs attribution", ""]
    for name, stats, attributed in rows:
        lines.append(f"{name:<22} attributed {attributed * 100:5.1f}%   {stats}")
    lines.append("")
    lines.append("Umbra's implemented set (paper): operator fusion, code")
    lines.append("elimination, constant folding, CSE, dataflow-graph operator")
    lines.append("fusion — all supported; instruction fusing / loop unrolling /")
    lines.append("polyhedral not implemented, matching the paper's Table 1.")
    report("Table 1 optimization support", "\n".join(lines))

    for name, _, attributed in rows:
        assert attributed > 0.85, f"{name}: attribution must survive"


def profile_opt_stats(db, sql):
    """Compile once more to collect optimizer delta counters."""
    compiled = db._compile(sql, None).query
    folded = sum(c.opt_result.folded for c in compiled.values())
    removed = sum(len(c.opt_result.removed) for c in compiled.values())
    merged = sum(len(c.opt_result.merged) for c in compiled.values())
    return {"folded": folded, "eliminated": removed, "cse_merges": merged}
