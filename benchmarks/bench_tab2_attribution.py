"""Table 2: sample attribution across all 22 TPC-H queries.

Paper: 98.0 % of samples attributed (95.4 % to operators, 2.6 % to kernel
tasks), 2.0 % unattributed (untagged system libraries).  Shape: operators
carry the overwhelming majority, kernel a few percent, a small untagged
residue from the SYSLIB region.
"""

from repro.data.queries import ALL_QUERIES

from benchmarks._harness import report


def test_tab2_attribution_all_queries(tpch, benchmark):
    def run_all():
        rows = []
        for name in sorted(ALL_QUERIES, key=lambda n: int(n[1:])):
            profile = tpch.profile(ALL_QUERIES[name].sql)
            summary = profile.attribution_summary()
            rows.append((name, summary))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Table 2 — sample attribution per query",
        "",
        f"{'query':<6} {'samples':>8} {'operators':>10} {'kernel':>8} {'unattr.':>8}",
    ]
    total_op = total_kernel = total_unattr = 0.0
    for name, summary in rows:
        lines.append(
            f"{name:<6} {summary.total_samples:>8} "
            f"{summary.operator_share * 100:>9.1f}% "
            f"{summary.kernel_share * 100:>7.1f}% "
            f"{summary.unattributed_share * 100:>7.1f}%"
        )
        total_op += summary.operator_share
        total_kernel += summary.kernel_share
        total_unattr += summary.unattributed_share
    n = len(rows)
    lines.append("-" * 46)
    lines.append(
        f"{'mean':<6} {'':>8} {total_op / n * 100:>9.1f}% "
        f"{total_kernel / n * 100:>7.1f}% {total_unattr / n * 100:>7.1f}%"
    )
    lines.append("")
    lines.append("paper:          operators 95.4%   kernel 2.6%   unattributed 2.0%")
    report("Table 2 attribution coverage", "\n".join(lines))

    assert total_op / n > 0.85
    assert total_kernel / n < 0.12
    assert total_unattr / n < 0.05


def test_tab2_no_attribution_without_disambiguation(tpch):
    """Sanity: dropping Register Tagging *and* call stacks leaves the

    shared runtime unattributable, so coverage must drop."""
    from repro import ProfilerConfig, ProfilingMode
    from repro.data.queries import FIG9_QUERY

    with_tags = tpch.profile(FIG9_QUERY.sql).attribution_summary()
    without = tpch.profile(
        FIG9_QUERY.sql, ProfilerConfig(mode=ProfilingMode.NONE)
    ).attribution_summary()
    assert without.unattributed_share > with_tags.unattributed_share
