"""Ablation: the backend's IR optimizations and the groupjoin fusion.

DESIGN.md calls these design choices out; this measures what each buys.
Not a paper figure — the paper takes Umbra's optimizer as given.
"""

from repro import ExecOptions, PlannerOptions
from repro.data.queries import ALL_QUERIES

from benchmarks._harness import report

GROUPJOIN_SQL = """
select o_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue
from orders, lineitem
where o_orderkey = l_orderkey
group by o_orderkey
"""


def test_backend_optimizations_ablation(tpch, benchmark):
    sql = ALL_QUERIES["q1"].sql

    def measure():
        optimized = tpch.execute(sql)
        unoptimized = tpch.execute(sql, ExecOptions(optimize_backend=False))
        return optimized, unoptimized

    optimized, unoptimized = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert sorted(optimized.rows) == sorted(unoptimized.rows)
    gain = unoptimized.cycles / optimized.cycles - 1

    # groupjoin fusion ablation
    plain = tpch.execute(GROUPJOIN_SQL)
    fused = tpch.execute(GROUPJOIN_SQL, ExecOptions(
        planner_options=PlannerOptions(enable_groupjoin=True)
    ))
    assert sorted(r[0] for r in plain.rows) == sorted(r[0] for r in fused.rows)
    fusion_gain = plain.cycles / fused.cycles - 1

    lines = [
        "Ablation — what the optimizations buy (TPC-H Q1 / groupjoin query)",
        "",
        f"constant folding + CSE + DCE: {unoptimized.cycles:,} -> "
        f"{optimized.cycles:,} cycles  ({gain * 100:+.1f}% without them)",
        f"groupjoin fusion:             {plain.cycles:,} -> {fused.cycles:,} "
        f"cycles  ({fusion_gain * 100:+.1f}% from fusing)",
    ]
    report("Optimization ablations", "\n".join(lines))

    assert unoptimized.cycles >= optimized.cycles
    assert fused.cycles < plain.cycles * 1.2  # fusion must not hurt badly
