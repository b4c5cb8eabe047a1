"""Figure 12: per-operator memory-access patterns.

Sampling MEM_LOADS with address capture, then attributing each access to
its operator: table scans show linear address progressions (prefetcher
friendly), hash join and aggregation scatter across their tables — the
paper's visual, quantified here by per-band time/address correlation.
"""

from repro import Event, ProfilerConfig
from repro.data.queries import FIG9_QUERY
from repro.plan.physical import PhysicalGroupBy, PhysicalHashJoin, PhysicalScan

from benchmarks._harness import report


def test_fig12_memory_access_patterns(tpch, benchmark):
    config = ProfilerConfig(event=Event.LOADS, period=100, record_memaddr=True)
    profile = benchmark.pedantic(
        lambda: tpch.profile(FIG9_QUERY.sql, config), rounds=1, iterations=1
    )
    mem = profile.memory_profile()

    lines = [
        "Fig 12 — memory access patterns per operator",
        "(band linearity: +1.0 = sequential scan, ~0 = scattered hash access)",
        "",
        f"{'operator':<22} {'samples':>8} {'addr range':>12} {'linearity':>10}",
    ]
    rows = []
    for op, points in sorted(mem.accesses.items(), key=lambda kv: kv[0].op_id):
        rows.append((op, len(points), mem.address_range(op), mem.band_linearity(op)))
        lines.append(
            f"{op.label:<22} {len(points):>8} {mem.address_range(op):>12,}"
            f" {mem.band_linearity(op):>+10.2f}"
        )
    report("Fig 12 memory access patterns", "\n".join(lines))

    scans = [r for r in rows if isinstance(r[0], PhysicalScan) and r[1] >= 10]
    hashers = [
        r for r in rows
        if isinstance(r[0], (PhysicalHashJoin, PhysicalGroupBy)) and r[1] >= 10
    ]
    assert scans and hashers
    assert all(lin > 0.85 for _, _, _, lin in scans), "scans must be linear"
    assert all(abs(lin) < 0.5 for _, _, _, lin in hashers), (
        "hash access must be scattered"
    )
