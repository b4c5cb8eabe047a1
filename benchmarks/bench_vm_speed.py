"""Fast-VM speed: translated blocks vs interpreter.

The tentpole claim is a >=3x geometric-mean speedup on TPC-H with
profiling off while staying bit-identical to the interpreter (parity is
asserted inside ``run_vm_bench`` — rows and simulated counters).  The CI
gate uses a deliberately lower floor so scheduler noise on shared runners
cannot flake the build; the measured trajectory is what ``BENCH_vm.json``
tracks run over run.  That speedup is warm; a second gate bounds what the
*first* run of a query costs against interpreting it
(``cold_vs_interp``).  The report also
carries, ungated, what leaving the sampler on costs a warm plan
(``armed_s``, ``armed_vs_plain``: default period, REGISTER_TAGGING).
"""

from pathlib import Path

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, report

from repro.vmbench import append_trajectory, format_table, run_vm_bench

# locally measured geomean is ~5x on the benchmarked queries; the gate
# floor leaves headroom for noisy CI runners while still catching any
# real regression of the translated engine
SPEEDUP_FLOOR = 2.0
# Time to first answer: the first fast-VM run of q3 and q6 on a fresh
# program, translation inside the stopwatch, as a multiple of the
# interpreted run.  Whole-program eager translation read ~12x for q6,
# per-block translation on first entry ~2-4x; with compilation earned by
# heat and trees grown along executed paths q3 reads 0.9-1.1x and q6
# 1.3-1.7x (ROADMAP item 3 aims at 1.2x).  The ceiling leaves room for
# host noise on runs this short and still catches translation cost
# creeping back in front of the first answer.
COLD_CEILING = 2.0
COLD_QUERIES = ("q3", "q6")
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_vm.json"


# one benchmark run feeds both gates: a full invocation of this file
# measures once and asserts twice
_CACHE: dict = {}


def _measured_record(benchmark):
    if "record" not in _CACHE:
        _CACHE["record"] = benchmark.pedantic(
            lambda: run_vm_bench(
                scale=BENCH_SCALE, seed=BENCH_SEED, repeats=2
            ),
            rounds=1, iterations=1,
        )
        report(
            "Fast-VM speedup (translated blocks vs interpreter)",
            format_table(_CACHE["record"]),
        )
        append_trajectory(_CACHE["record"], TRAJECTORY_PATH)
    return _CACHE["record"]


def test_vm_speedup_floor(benchmark):
    record = _measured_record(benchmark)
    assert record["geomean_speedup"] >= SPEEDUP_FLOOR, (
        f"fast VM geomean {record['geomean_speedup']:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.1f}x floor"
    )


def test_cold_run_ceilings(benchmark):
    record = _measured_record(benchmark)
    for name in COLD_QUERIES:
        cold = record["queries"][name]["cold_vs_interp"]
        assert cold <= COLD_CEILING, (
            f"cold fast-VM {name} took {cold:.1f}x its interpreted time "
            f"(ceiling {COLD_CEILING:.0f}x)"
        )
