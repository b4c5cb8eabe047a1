"""Figure 13: profiling overhead vs. sampling frequency, per payload.

Paper (TPC-H Q16, sample every 5000 events): IP+time 35 %, +registers 38 %
(Register Tagging's payload), IP+call-stack 529 %.  Shape requirements:
overhead grows with frequency; the register payload adds a few percent;
call-stack sampling is an order of magnitude above both.
"""

import pytest

from repro import ProfilerConfig, ProfilingMode
from repro.data.queries import ALL_QUERIES

from benchmarks._harness import report

SQL = ALL_QUERIES["q16"].sql  # the paper uses TPC-H Q16 for this figure

MODES = [
    ("IP, Time", ProfilingMode.NONE),
    ("IP, Time, Registers", ProfilingMode.REGISTER_TAGGING),
    ("IP, Callstack", ProfilingMode.CALLSTACK),
]
PERIODS = [20000, 10000, 5000, 2500]
PAPER_AT_5000 = {"IP, Time": 35.0, "IP, Time, Registers": 38.0, "IP, Callstack": 529.0}


def test_fig13_overhead_sweep(tpch, benchmark):
    base = benchmark.pedantic(
        lambda: tpch.execute(SQL), rounds=1, iterations=1
    ).cycles

    table: dict[tuple[str, int], float] = {}
    for label, mode in MODES:
        for period in PERIODS:
            profiled = tpch.profile(SQL, ProfilerConfig(mode=mode, period=period))
            table[(label, period)] = (profiled.result.cycles / base - 1) * 100

    lines = [
        "Fig 13 — sampling overhead vs frequency (TPC-H Q16-adapted)",
        "",
        f"{'payload':<22}" + "".join(f"  period={p:<6}" for p in PERIODS)
        + "  paper@5000",
    ]
    for label, _ in MODES:
        row = f"{label:<22}"
        for period in PERIODS:
            row += f"  {table[(label, period)]:>8.1f}%   "
        row += f"  {PAPER_AT_5000[label]:.0f}%"
        lines.append(row)
    report("Fig 13 overhead vs sampling frequency", "\n".join(lines))

    for label, _ in MODES:
        overheads = [table[(label, p)] for p in PERIODS]
        assert overheads == sorted(overheads), f"{label}: must grow with frequency"
    at_default = {label: table[(label, 5000)] for label, _ in MODES}
    assert at_default["IP, Time"] < at_default["IP, Time, Registers"]
    assert at_default["IP, Time, Registers"] < at_default["IP, Time"] + 15
    assert at_default["IP, Callstack"] > 5 * at_default["IP, Time, Registers"]
    # land in the paper's band at the default frequency
    assert 15 < at_default["IP, Time"] < 70
    assert 100 < at_default["IP, Callstack"] < 1500
