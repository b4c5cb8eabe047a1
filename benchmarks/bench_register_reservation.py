"""§6.2: the cost of reserving the tag register.

Register Tagging removes one register from the allocator's pool, so the
generated code spills more — paper: 2.8 % average slowdown over all 22
TPC-H queries.  Measured here by running every query with and without the
reservation at a sampling period high enough that no sample ever fires
(isolating the code-quality effect).
"""

from repro import ProfilerConfig, ProfilingMode
from repro.data.queries import ALL_QUERIES

from benchmarks._harness import report

NO_SAMPLES = 1 << 40  # period so large the PMU never fires


def test_register_reservation_slowdown(tpch, benchmark):
    def measure():
        rows = []
        for name in sorted(ALL_QUERIES, key=lambda n: int(n[1:])):
            sql = ALL_QUERIES[name].sql
            plain = tpch.execute(sql).cycles
            reserved = tpch.profile(
                sql,
                ProfilerConfig(mode=ProfilingMode.REGISTER_TAGGING,
                               period=NO_SAMPLES),
            ).result.cycles
            rows.append((name, plain, reserved, reserved / plain - 1))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        "§6.2 — slowdown from reserving the tag register (no sampling)",
        "",
        f"{'query':<6} {'plain cycles':>14} {'reserved':>14} {'slowdown':>9}",
    ]
    for name, plain, reserved, slowdown in rows:
        lines.append(
            f"{name:<6} {plain:>14,} {reserved:>14,} {slowdown * 100:>8.2f}%"
        )
    mean = sum(r[3] for r in rows) / len(rows)
    lines.append("-" * 46)
    lines.append(f"mean slowdown: {mean * 100:.2f}%   (paper: 2.8%)")
    report("Register reservation overhead", "\n".join(lines))

    assert -0.005 < mean < 0.12, "reservation cost should be low single digits"
    assert any(r[3] > 0 for r in rows), "some queries must feel the pressure"
