"""§6.2: Tagging Dictionary size and sample storage.

Paper: ~1320 LLVM IR instructions per TPC-H query, 24 B per dictionary
entry → ~30 kB per query; samples are 54 B with registers (265 B with call
stacks), i.e. ~77 MB/s at 0.7 MHz.
"""

from repro import ProfilerConfig
from repro.data.queries import ALL_QUERIES

from benchmarks._harness import report


def test_dictionary_and_sample_storage(tpch, benchmark):
    def measure():
        rows = []
        for name in sorted(ALL_QUERIES, key=lambda n: int(n[1:])):
            profile = tpch.profile(ALL_QUERIES[name].sql)
            ir_count = profile.ir_module.instruction_count()
            rows.append((
                name,
                ir_count,
                profile.tagging.entry_count,
                profile.tagging.size_bytes,
                profile.machine.samples.storage_bytes(profile.config.pmu_config()),
            ))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        "§6.2 — Tagging Dictionary and sample storage per query",
        "",
        f"{'query':<6} {'IR instrs':>10} {'dict entries':>13} "
        f"{'dict bytes':>11} {'sample bytes':>13}",
    ]
    for name, ir_count, entries, size, sample_bytes in rows:
        lines.append(
            f"{name:<6} {ir_count:>10} {entries:>13} {size:>11,} {sample_bytes:>13,}"
        )
    avg_ir = sum(r[1] for r in rows) / len(rows)
    avg_size = sum(r[3] for r in rows) / len(rows)
    lines.append("-" * 56)
    lines.append(
        f"mean IR instructions/query: {avg_ir:.0f}   (paper: ~1320)"
    )
    lines.append(f"mean dictionary size: {avg_size / 1024:.1f} kB   (paper: ~30 kB)")
    report("Tagging Dictionary size", "\n".join(lines))

    assert 100 < avg_ir < 5000
    assert all(entries > 0 for _, _, entries, _, _ in rows)
    # the dictionary must stay tiny relative to the sample stream
    assert all(size < 200 * 1024 for _, _, _, size, _ in rows)
