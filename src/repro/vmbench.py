"""Fast-VM speed benchmark: execution tiers against each other.

Times each TPC-H query under three engines — the tier-0 block
interpreter (``fast_vm=False``), the tier-1 template-translated fast VM,
and the tier-2 profile-specialized traces — so the measured deltas are
purely the execution engine, never the planner or backend.  A tier is a
property of the compiled program, so the query is compiled twice: one
copy stays at tier 1 (it also runs interpreted), the other is promoted
through a :class:`~repro.vm.tiering.TieringController` before the timed
region.  Compilation is outside the timed region; each engine takes the best of
``repeats`` runs to shed scheduler noise; the tier-1/tier-2 pair, tens
of percent apart, instead reports the median ratio of at least
``TIERED_ROUNDS`` interleaved rounds.  Those are *warm* times: the fast
VM translates a block once entries have made it hot, so each query's
record also carries ``cold_s`` — the first fast-VM run of the freshly
compiled program, translation inside the stopwatch — ``cold_vs_interp``,
that run as a multiple of the interpreter's time, and ``source_lines``,
the source that run generated.  A warm ``speedup`` says what a cached
plan gains per run, the cold ratio what the first answer costs.
``armed_s`` is the warm fast-VM run of a third copy, compiled for and
run under the default :class:`~repro.engine.ProfilerConfig` (CYCLES,
REGISTER_TAGGING), ``armed_vs_plain`` that time as a multiple of
``fast_s``: what leaving the sampler on costs a cached plan.

Every run also asserts parity: a compiled plan owns no simulated memory,
so the two copies run at identical addresses, and both must produce the
rows and the (instructions, cycles) counters of one interpreter run — a
speedup obtained by drifting from the interpreter's semantics can never
be reported.  The
tiered runs additionally assert they executed at tier 2 — and the
tier-1 runs that they still executed at tier 1, i.e. that the two copies
are independent.

``append_trajectory`` keeps ``BENCH_vm.json`` as an append-only list of
run records — the speedup trajectory across commits that CI uploads and
gates on (see ``benchmarks/bench_vm_speed.py``).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.engine import Database, ProfilerConfig

#: queries spanning the interesting regimes: tight aggregation loops (q1,
#: q6), join-heavy plans (q9, q18), EXISTS/anti-join control flow (q4,
#: q22), LIKE scans (q13) and wide disjunctive predicates (q19)
DEFAULT_QUERIES = (
    "q1", "q3", "q4", "q6", "q9", "q13", "q18", "q19", "q22",
)

#: floor on the interleaved tier-1/tier-2 rounds per query: the tiers are
#: ~1.1x apart and one round's ratio scatters by several percent, so the
#: median takes this many even when ``repeats`` (sized for the slow
#: interpreter runs) asks for fewer
TIERED_ROUNDS = 7


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _timed_run(db, compiled, fast_vm: bool, tiering=None, profiler=None):
    """One run: ``(seconds, rows, counters, translation stats)``."""
    started = time.perf_counter()
    run = db._run_compiled(
        compiled, profiler, fast_vm=fast_vm, tiering=tiering
    )
    elapsed = time.perf_counter() - started
    result = run.result()
    return (
        elapsed, result.rows, (result.instructions, result.cycles),
        result.translation,
    )


def run_vm_bench(
    queries=None,
    scale: float = 0.001,
    seed: int = 42,
    repeats: int = 3,
    log=None,
) -> dict:
    """Benchmark fast VM vs interpreter; returns the run record.

    The record holds per-query wall times and speedups plus the geometric
    mean; parity of rows and simulated counters is asserted per query.
    """
    from repro.data.queries import ALL_QUERIES

    from repro.vm.tiering import TieringController

    emit = log or (lambda message: None)
    names = list(queries) if queries else list(DEFAULT_QUERIES)
    per_query = {}
    for name in names:
        sql = ALL_QUERIES[name].sql
        db = Database.tpch(scale=scale, seed=seed)
        started = time.perf_counter()
        compiled = db._compile(sql, None)
        compile_s = time.perf_counter() - started

        # first run of a fresh Program: what it translates, it
        # translates inside the stopwatch
        cold_s, _, _, cold = _timed_run(db, compiled, True)

        # a second copy of the query, promoted to tier 2 before the timed
        # region: the first observed run crosses the (floor-level)
        # hotness threshold, the second translates the tier-2 blocks it
        # enters against that profile
        hot = db._compile(sql, None)
        tiering = TieringController(hot_instructions=1)
        for _ in range(2):
            db._run_compiled(hot, fast_vm=True, tiering=tiering)

        # Tier 1 and tier 2 are close (tens of percent, not multiples),
        # so their comparison interleaves the sides within every round
        # and takes the median of per-round ratios: machine drift hits
        # both sides of each ratio equally instead of flaking the gate
        # (same estimator as benchmarks/_harness.py).
        fast_s = tiered_s = math.inf
        ratios = []
        fast_rows = fast_counters = None
        tiered_rows = tiered_counters = None
        for _ in range(max(repeats, TIERED_ROUNDS)):
            f_s, fast_rows, fast_counters, fast = _timed_run(
                db, compiled, True
            )
            t_s, tiered_rows, tiered_counters, tiered = _timed_run(
                db, hot, True, tiering=tiering
            )
            if (fast["tier"], tiered["tier"]) != (1, 2):
                raise AssertionError(
                    f"{name}: tier-1 copy ran at tier {fast['tier']}, "
                    f"promoted copy at tier {tiered['tier']}"
                )
            ratios.append(f_s / t_s)
            fast_s = min(fast_s, f_s)
            tiered_s = min(tiered_s, t_s)
        slow_s = math.inf
        for _ in range(repeats):
            elapsed, slow_rows, slow_counters, _ = _timed_run(
                db, compiled, False
            )
            slow_s = min(slow_s, elapsed)
        # the sampler left on: a copy compiled for the default profiler;
        # the loops compile in the first of two untimed runs
        profiler = ProfilerConfig()
        armed = db._compile(sql, profiler)
        armed_runs = [
            _timed_run(db, armed, True, profiler=profiler)
            for _ in range(2 + repeats)
        ]
        armed_s = min(elapsed for elapsed, *_ in armed_runs[2:])
        if armed_runs[-1][1] != slow_rows:
            raise AssertionError(f"{name}: armed fast VM rows differ")
        if fast_rows != slow_rows or tiered_rows != slow_rows:
            raise AssertionError(f"{name}: fast VM rows differ")
        if not fast_counters == tiered_counters == slow_counters:
            raise AssertionError(
                f"{name}: counters differ (fast {fast_counters}, "
                f"tiered {tiered_counters}, interp {slow_counters})"
            )
        speedup = slow_s / fast_s
        tiered_speedup = _median(ratios)
        per_query[name] = {
            "compile_s": round(compile_s, 4),
            "cold_s": round(cold_s, 4),
            "fast_s": round(fast_s, 4),
            "tiered_s": round(tiered_s, 4),
            "interp_s": round(slow_s, 4),
            "speedup": round(speedup, 3),
            "cold_vs_interp": round(cold_s / slow_s, 3),
            "source_lines": cold["source_lines"],
            "tiered_speedup": round(tiered_speedup, 3),
            "armed_s": round(armed_s, 4),
            "armed_vs_plain": round(armed_s / fast_s, 3),
        }
        emit(
            f"{name}: interp {slow_s * 1000:7.1f} ms   "
            f"cold {cold_s * 1000:7.1f} ms   "
            f"fast {fast_s * 1000:7.1f} ms   "
            f"tiered {tiered_s * 1000:7.1f} ms   "
            f"{speedup:5.2f}x   cold {cold_s / slow_s:5.2f}x interp "
            f"({cold['source_lines']} lines)   t2 {tiered_speedup:5.2f}x   "
            f"armed {armed_s * 1000:7.1f} ms ({armed_s / fast_s:4.2f}x plain)"
        )
    geomean = math.exp(
        sum(math.log(q["speedup"]) for q in per_query.values())
        / len(per_query)
    )
    tiered_geomean = math.exp(
        sum(math.log(q["tiered_speedup"]) for q in per_query.values())
        / len(per_query)
    )
    emit(f"geomean speedup: {geomean:.3f}x over {len(per_query)} queries")
    emit(f"tiered geomean: {tiered_geomean:.3f}x over tier 1")
    return {
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "queries": per_query,
        "geomean_speedup": round(geomean, 3),
        "tiered_geomean_speedup": round(tiered_geomean, 3),
    }


def format_table(record: dict) -> str:
    """Render one run record as the benchmark-suite report table."""
    lines = [
        f"{'query':<6} {'interp (ms)':>12} {'cold (ms)':>12} "
        f"{'fast (ms)':>12} {'tiered (ms)':>12} {'speedup':>9} "
        f"{'cold/interp':>12} {'cold lines':>11} {'t2/t1':>8} "
        f"{'armed (ms)':>11} {'armed/plain':>12}"
    ]

    def ms(seconds):
        return "-" if seconds is None else f"{seconds * 1000:.1f}"

    def ratio(value):
        return "-" if value is None else f"{value:.2f}x"

    for name, q in record["queries"].items():
        # a row recorded before a column existed prints a dash there
        lines.append(
            f"{name:<6} {ms(q['interp_s']):>12} {ms(q.get('cold_s')):>12} "
            f"{ms(q['fast_s']):>12} {ms(q.get('tiered_s')):>12} "
            f"{ratio(q['speedup']):>9} "
            f"{ratio(q.get('cold_vs_interp')):>12} "
            f"{q.get('source_lines', '-'):>11} "
            f"{ratio(q.get('tiered_speedup')):>8} "
            f"{ms(q.get('armed_s')):>11} "
            f"{ratio(q.get('armed_vs_plain')):>12}"
        )
    lines.append(f"geomean speedup: {record['geomean_speedup']:.3f}x")
    if "tiered_geomean_speedup" in record:
        lines.append(
            "tiered geomean: "
            f"{record['tiered_geomean_speedup']:.3f}x over tier 1"
        )
    return "\n".join(lines)


def append_trajectory(record: dict, path: str | Path) -> list[dict]:
    """Append one run record to the ``BENCH_vm.json`` trajectory file."""
    path = Path(path)
    history: list[dict] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            history = []
    record = dict(record, run=len(history))
    history.append(record)
    path.write_text(json.dumps(history, indent=1) + "\n")
    return history
