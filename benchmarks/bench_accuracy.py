"""§6.3: accuracy validation.

1. Register-tag vs call-stack cross-check: recording both payloads in every
   sample, the two disambiguation mechanisms must agree on shared-location
   samples (paper: tagging *all* instructions yields 0 IP/tag mismatches).
2. TSC plausibility: cycle-event sample timestamps reflect the sampling
   distance and adapt when the period changes.
3. Event plausibility: LOADS samples point at load instructions.
"""

from repro import Event, ProfilerConfig
from repro.data.queries import ALL_QUERIES
from repro.vm.isa import REG_TAG, CodeRegion, Opcode

from benchmarks._harness import report

CHECK_QUERIES = ["q2", "q16", "q18"]  # the paper cross-checks these three


def test_accuracy_crosscheck_and_timestamps(tpch, benchmark):
    lines = ["§6.3 — accuracy validation", ""]

    # 1. register-tag vs call-stack agreement on shared runtime samples
    total_shared = 0
    mismatches = 0

    def run_crosschecks():
        nonlocal total_shared, mismatches
        for name in CHECK_QUERIES:
            profile = tpch.profile(
                ALL_QUERIES[name].sql, ProfilerConfig(crosscheck=True)
            )
            processor = profile.processor
            for sample in profile.samples:
                if profile.program.region_at(sample.ip) is not CodeRegion.RUNTIME:
                    continue
                tag = sample.registers[REG_TAG]
                tag_task = profile.tagging.task_by_id(tag)
                stack_task = None
                for call_site in reversed(sample.callstack):
                    if profile.program.region_at(call_site) is CodeRegion.QUERY:
                        site_ir = profile.program.debug.get(call_site)
                        if site_ir is not None:
                            tasks = profile.tagging.tasks_of_instruction(site_ir)
                            if tasks:
                                stack_task = tasks[0]
                                break
                if tag_task is None or stack_task is None:
                    continue
                total_shared += 1
                if tag_task is not stack_task:
                    mismatches += 1
        return total_shared

    benchmark.pedantic(run_crosschecks, rounds=1, iterations=1)
    lines.append(
        f"register-tag vs call-stack cross-check: {total_shared} shared-location "
        f"samples, {mismatches} mismatches (paper: 0 mismatches)"
    )

    # 2. timestamp spacing follows the sampling period
    spacing_report = []
    for period in (2000, 5000, 10000):
        profile = tpch.profile(
            ALL_QUERIES["q16"].sql,
            ProfilerConfig(event=Event.CYCLES, period=period),
        )
        tscs = [s.tsc for s in profile.samples]
        deltas = [b - a for a, b in zip(tscs, tscs[1:])]
        trimmed = sorted(deltas)[: max(1, int(len(deltas) * 0.8))]
        median = trimmed[len(trimmed) // 2]
        spacing_report.append((period, median))
        assert median >= period, "samples cannot be closer than the period"
        assert median < period * 4, "spacing must track the configured period"
    lines.append("")
    lines.append("TSC spacing (cycles event): period -> median inter-sample gap")
    for period, median in spacing_report:
        lines.append(f"  {period:>6} -> {median}")

    # 3. loads-event samples land on load instructions
    profile = tpch.profile(
        ALL_QUERIES["q16"].sql,
        ProfilerConfig(event=Event.LOADS, period=300, record_memaddr=True),
    )
    checked = bad = 0
    for sample in profile.samples:
        if profile.program.region_at(sample.ip) is CodeRegion.KERNEL:
            continue
        checked += 1
        if profile.program.code[sample.ip][0] != Opcode.LOAD:
            bad += 1
    lines.append("")
    lines.append(
        f"event plausibility: {checked} LOADS samples, {bad} not pointing at a load"
    )
    report("Accuracy validation", "\n".join(lines))

    assert mismatches == 0
    assert total_shared > 10
    assert bad == 0
