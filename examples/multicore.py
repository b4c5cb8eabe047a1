"""Morsel-driven multicore execution with per-worker profiling.

The paper's prototype is evaluated single-threaded (§6) but §5 notes that
Umbra and Tailored Profiling support multicore execution.  This example
runs TPC-H Q1 on 1-8 simulated cores: every core has its own clock, cache
hierarchy, and PMU buffer; the merged sample stream feeds the same
reports, plus a per-worker lane view.

Run:  python examples/multicore.py
"""

from repro import Database, ExecOptions
from repro.data.queries import ALL_QUERIES
from repro.profiling.reports import render_worker_timeline


def main() -> None:
    print("loading TPC-H (scale 0.002)...")
    db = Database.tpch(scale=0.002)
    sql = ALL_QUERIES["q1"].sql

    print("\nscaling (wall clock = slowest worker):")
    baseline = None
    for workers in (1, 2, 4, 8):
        result = db.execute(sql, ExecOptions(workers=workers))
        baseline = baseline or result.cycles
        print(
            f"  {workers} worker(s): {result.cycles:>12,} cycles "
            f"({baseline / result.cycles:.2f}x)"
        )

    profile = db.profile(sql, options=ExecOptions(workers=4))
    print("\nper-worker activity lanes (4 workers):")
    print(render_worker_timeline(profile, bins=50))

    print("\noperator costs, merged across workers:")
    print(profile.annotated_plan())

    summary = profile.attribution_summary()
    print(
        f"\nattribution is unaffected by parallelism: "
        f"{summary.attributed_share * 100:.1f}% of samples attributed"
    )


if __name__ == "__main__":
    main()
