"""Ablation: multicore morsel-driven execution (§5's multicore support).

Not a paper figure — the paper runs single-threaded for experimental
clarity while stating Umbra and Tailored Profiling support multicore.
This benchmark demonstrates that support: speedup of the slowest-worker
clock, per-worker sample lanes, and attribution quality independent of the
worker count.
"""

from repro import ExecOptions
from repro.data.queries import ALL_QUERIES
from repro.profiling.reports import render_worker_timeline

from benchmarks._harness import report

WORKER_COUNTS = (1, 2, 4, 8)


def test_parallel_scaling_and_attribution(tpch, benchmark):
    sql = ALL_QUERIES["q1"].sql

    def measure():
        return {
            w: tpch.execute(sql, ExecOptions(workers=w)).cycles
            for w in WORKER_COUNTS
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)

    profile = tpch.profile(sql, options=ExecOptions(workers=4))
    summary = profile.attribution_summary()

    lines = [
        "Multicore ablation — TPC-H Q1, morsel-driven workers",
        "",
        f"{'workers':>8} {'cycles (wall)':>14} {'speedup':>8}",
    ]
    for w in WORKER_COUNTS:
        lines.append(f"{w:>8} {times[w]:>14,} {times[1] / times[w]:>7.2f}x")
    lines.append("")
    lines.append("per-worker sample lanes (4 workers):")
    lines.append(render_worker_timeline(profile, bins=40))
    lines.append("")
    lines.append(
        f"attribution at 4 workers: {summary.attributed_share * 100:.1f}% "
        f"(operators {summary.operator_share * 100:.1f}%)"
    )
    report("Multicore ablation", "\n".join(lines))

    assert times[2] < times[1] and times[4] < times[2]
    assert times[1] / times[4] > 2.0
    assert summary.attributed_share > 0.9
