"""Figure 9: the domain-expert use case.

lineitem ⋈ orders with a per-orderkey average: the report aggregates
samples to the plan level.  Paper's numbers (SF 1): aggregation 65.1 %,
join 32.4 %, scans ~2 %; the expected *shape* is aggregation > join >>
scans, which must hold here too.
"""

from repro.data.queries import FIG9_QUERY

from benchmarks._harness import report


def test_fig09_domain_expert_costs(tpch, benchmark):
    profile = benchmark.pedantic(
        lambda: tpch.profile(FIG9_QUERY.sql), rounds=1, iterations=1
    )
    costs = profile.operator_costs()
    by_kind: dict[str, float] = {}
    for op, share in costs.items():
        by_kind[op.kind] = by_kind.get(op.kind, 0.0) + share

    lines = ["Fig 9 — per-operator cost (domain-expert view):", ""]
    lines.append(profile.annotated_plan())
    lines.append("")
    lines.append(f"{'operator kind':<12} {'ours':>8}   paper (SF1)")
    paper = {"groupby": 65.1, "hashjoin": 32.4, "select": 0.3, "scan": 2.2}
    for kind in ("groupby", "hashjoin", "select", "scan"):
        ours = by_kind.get(kind, 0.0) * 100
        lines.append(f"{kind:<12} {ours:7.1f}%   {paper[kind]:.1f}%")
    lines.append("")
    lines.append("EXPLAIN ANALYZE (tuple counts) for contrast:")
    lines.append(tpch.explain_analyze(FIG9_QUERY.sql))
    report("Fig 9 domain expert operator costs", "\n".join(lines))

    # shape: aggregation and join dominate; aggregation > scans; filter tiny
    assert by_kind.get("groupby", 0) + by_kind.get("hashjoin", 0) > 0.6
    assert by_kind.get("select", 0) < 0.1
