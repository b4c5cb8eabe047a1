"""Fast-VM speed benchmark: the translated engine against the interpreter.

Times each TPC-H query under the tier-0 block interpreter
(``fast_vm=False``) and the template-translated fast VM, so the measured
delta is purely the execution engine, never the planner or backend.
Compilation is outside the timed region, and each engine takes the best
of ``repeats`` runs (the fast VM of at least ``WARM_RUNS``) to shed
scheduler noise.  Those are *warm* times: the
fast VM translates a block once entries have made it hot, so each
query's record also carries ``cold_s`` — the first fast-VM run of the
freshly compiled program, translation inside the stopwatch —
``cold_vs_interp``, that run as a multiple of the interpreter's time,
and ``source_lines``, the source that run generated.  A warm ``speedup``
says what a cached plan gains per run, the cold ratio what the first
answer costs.  ``armed_s`` is the warm fast-VM run of a second copy,
compiled for and run under the default
:class:`~repro.engine.ProfilerConfig` (CYCLES, REGISTER_TAGGING),
``armed_vs_plain`` that time as a multiple of ``fast_s``: what leaving
the sampler on costs a cached plan.

Every run also asserts parity: the fast and the interpreted runs must
produce the same rows and (instructions, cycles) counters — a speedup
obtained by drifting from the interpreter's semantics can never be
reported.

``append_trajectory`` keeps ``BENCH_vm.json`` as an append-only list of
run records — the speedup trajectory across commits that CI uploads and
gates on (see ``benchmarks/bench_vm_speed.py``).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.engine import Database, ExecOptions, ProfilerConfig
from repro.errors import ReproError

#: queries spanning the interesting regimes: tight aggregation loops (q1,
#: q6), join-heavy plans (q9, q18), EXISTS/anti-join control flow (q4,
#: q22), LIKE scans (q13) and wide disjunctive predicates (q19)
DEFAULT_QUERIES = (
    "q1", "q3", "q4", "q6", "q9", "q13", "q18", "q19", "q22",
)

#: floor on the timed warm runs per query: a plan keeps compiling over its
#: first runs (pruned arms regrow, a block entered once per run compiles
#: in its 16th), so the warm time is the best of at least this many even
#: when ``repeats`` (sized for the slow interpreter runs) asks for fewer
WARM_RUNS = 7

def _timed_run(db, compiled, fast_vm: bool, profiler=None):
    """One run: ``(seconds, rows, counters, translation stats)``."""
    options = ExecOptions(fast_vm=fast_vm)
    started = time.perf_counter()
    run = db._run_compiled(compiled, profiler, options)
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

    if repeats < 1:
        raise ReproError(f"repeats must be positive, not {repeats}")
    emit = log or (lambda message: None)
    names = list(queries) if queries else list(DEFAULT_QUERIES)
    per_query = {}
    for name in names:
        sql = ALL_QUERIES[name].sql
        db = Database.tpch(scale=scale, seed=seed)
        started = time.perf_counter()
        compiled = db.compiled_for(sql)
        compile_s = time.perf_counter() - started

        # first run of a fresh Program: what it translates, it
        # translates inside the stopwatch
        cold_s, _, _, cold = _timed_run(db, compiled, True)
        fast_s = slow_s = math.inf
        for _ in range(max(repeats, WARM_RUNS)):
            elapsed, fast_rows, fast_counters, _ = _timed_run(
                db, compiled, True
            )
            fast_s = min(fast_s, elapsed)
        for _ in range(repeats):
            elapsed, slow_rows, slow_counters, _ = _timed_run(
                db, compiled, False
            )
            slow_s = min(slow_s, elapsed)
        # the sampler left on: a copy compiled for the default profiler;
        # the loops compile in the first of two untimed runs
        profiler = ProfilerConfig()
        armed = db.compiled_for(sql, profiler)
        armed_runs = [
            _timed_run(db, armed, True, profiler=profiler)
            for _ in range(2 + repeats)
        ]
        armed_s = min(elapsed for elapsed, *_ in armed_runs[2:])
        if armed_runs[-1][1] != slow_rows:
            raise AssertionError(f"{name}: armed fast VM rows differ")
        if fast_rows != slow_rows:
            raise AssertionError(f"{name}: fast VM rows differ")
        if fast_counters != slow_counters:
            raise AssertionError(
                f"{name}: counters differ (fast {fast_counters}, "
                f"interp {slow_counters})"
            )
        speedup = slow_s / fast_s
        per_query[name] = {
            "compile_s": round(compile_s, 4),
            "cold_s": round(cold_s, 4),
            "fast_s": round(fast_s, 4),
            "interp_s": round(slow_s, 4),
            "speedup": round(speedup, 3),
            "cold_vs_interp": round(cold_s / slow_s, 3),
            "source_lines": cold["source_lines"],
            "armed_s": round(armed_s, 4),
            "armed_vs_plain": round(armed_s / fast_s, 3),
        }
        emit(
            f"{name}: interp {slow_s * 1000:7.1f} ms   "
            f"cold {cold_s * 1000:7.1f} ms   "
            f"fast {fast_s * 1000:7.1f} ms   "
            f"{speedup:5.2f}x   cold {cold_s / slow_s:5.2f}x interp "
            f"({cold['source_lines']} lines)   "
            f"armed {armed_s * 1000:7.1f} ms ({armed_s / fast_s:4.2f}x plain)"
        )
    geomean = math.exp(
        sum(math.log(q["speedup"]) for q in per_query.values())
        / len(per_query)
    )
    emit(f"geomean speedup: {geomean:.3f}x over {len(per_query)} queries")
    return {
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "queries": per_query,
        "geomean_speedup": round(geomean, 3),
    }


def format_table(record: dict) -> str:
    """Render one run record as the benchmark-suite report table."""
    lines = [
        f"{'query':<6} {'interp (ms)':>12} {'cold (ms)':>12} "
        f"{'fast (ms)':>12} {'speedup':>9} {'cold/interp':>12} "
        f"{'cold lines':>11} {'armed (ms)':>11} {'armed/plain':>12}"
    ]

    def ms(seconds):
        return "-" if seconds is None else f"{seconds * 1000:.1f}"

    def ratio(value):
        return "-" if value is None else f"{value:.2f}x"

    for name, q in record["queries"].items():
        # a row recorded before a column existed prints a dash there
        lines.append(
            f"{name:<6} {ms(q['interp_s']):>12} {ms(q.get('cold_s')):>12} "
            f"{ms(q['fast_s']):>12} {ratio(q['speedup']):>9} "
            f"{ratio(q.get('cold_vs_interp')):>12} "
            f"{q.get('source_lines', '-'):>11} "
            f"{ms(q.get('armed_s')):>11} "
            f"{ratio(q.get('armed_vs_plain')):>12}"
        )
    lines.append(f"geomean speedup: {record['geomean_speedup']:.3f}x")
    return "\n".join(lines)


def read_trajectory(path: str | Path) -> list[dict]:
    """The run records of a trajectory file ([] before the first run);
    ``ReproError`` when it holds no list of them, left as it is."""
    path = Path(path)
    try:
        history = json.loads(path.read_text()) if path.exists() else []
    except (OSError, ValueError) as error:
        raise ReproError(f"{path} is no trajectory: {error}") from None
    if not isinstance(history, list):
        raise ReproError(f"{path} holds no list of run records")
    return history


def append_trajectory(record: dict, path: str | Path) -> list[dict]:
    """Append one run record to the ``BENCH_vm.json`` trajectory file."""
    history = read_trajectory(path)
    record = dict(record, run=len(history))
    history.append(record)
    Path(path).write_text(json.dumps(history, indent=1) + "\n")
    return history
