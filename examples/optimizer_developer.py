"""The optimizer-developer use case (paper §6.1, Figs. 10/11).

Two join orders for the same query have identical estimated cardinalities —
the cost model cannot tell them apart — yet one runs measurably faster.
Operator activity *over time* reveals why: lineitem is clustered by
l_orderkey and the date filter on orders selects a contiguous orderkey
range, so partway through the probe scan the orders join flips from
always-match to never-match, starving everything downstream.

Run:  python examples/optimizer_developer.py
"""

from repro import Database, ExecOptions

QUERY = """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders, partsupp
where l_orderkey = o_orderkey and l_partkey = ps_partkey
  and l_suppkey = ps_suppkey
  and o_orderdate < date '1994-06-01'
"""

PLAN_A = ["lineitem", "orders", "partsupp"]  # probe orders first
PLAN_B = ["lineitem", "partsupp", "orders"]  # probe partsupp first


def main() -> None:
    print("loading TPC-H (scale 0.002)...")
    db = Database.tpch(scale=0.002)

    result_a = db.execute(QUERY, ExecOptions(join_order_hint=PLAN_A))
    result_b = db.execute(QUERY, ExecOptions(join_order_hint=PLAN_B))
    assert result_a.rows == result_b.rows

    print(f"\nplan A (probe orders first):   {result_a.cycles:>12,} cycles")
    print(f"plan B (probe partsupp first): {result_b.cycles:>12,} cycles")
    faster = "A" if result_a.cycles < result_b.cycles else "B"
    ratio = max(result_a.cycles, result_b.cycles) / min(
        result_a.cycles, result_b.cycles
    )
    print(f"plan {faster} is {ratio:.2f}x faster — but why?\n")

    profiles = {}
    for name, hint in (("A", PLAN_A), ("B", PLAN_B)):
        profiles[name] = db.profile(
            QUERY, options=ExecOptions(join_order_hint=hint)
        )
        print(f"plan {name} operator activity over time:")
        print(profiles[name].render_timeline(bins=40))
        print()

    from repro.profiling.reports import compare_profiles

    print("side-by-side comparison (§6.1's optimizer-developer workflow):")
    print(compare_profiles(profiles["A"], profiles["B"]))
    print()

    print(
        "Reading the timelines: in plan A the partsupp join's activity\n"
        "collapses partway through the scan — the orders join eliminates\n"
        "every tuple once the scan passes the orderkey range selected by\n"
        "the date filter, so the partsupp hash table is never probed again.\n"
        "Plan B pays the partsupp probe for *every* lineitem tuple.\n"
        "An optimizer developer can now extend the cost model with this\n"
        "data-layout property (clustering/correlation), as §6.1 suggests."
    )


if __name__ == "__main__":
    main()
