"""Iterative dataflow profiling (paper §4.2.6).

"Tailored Profiling also supports iterative dataflow graphs, although the
Tagging Dictionary cannot differ between iterations.  Therefore, the
post-processing phase uses the samples' timestamps to detect iterations."

This example runs the same compiled pipelines several times in one
profiling session (the shape of an iterative analytics job), lets the
post-processor split the sample stream into iterations, and drills into a
single iteration.

Run:  python examples/iterative_dataflow.py
"""

from repro import Database, ExecOptions
from repro.data.queries import FIG9_QUERY


def main() -> None:
    print("loading TPC-H (scale 0.002)...")
    db = Database.tpch(scale=0.002)

    profile = db.profile(FIG9_QUERY.sql, options=ExecOptions(repeats=4))
    print(f"\none session, {len(profile.samples)} samples across 4 runs "
          "of the same compiled dataflow\n")

    print(profile.iteration_report())

    iterations = profile.iterations()
    target = iterations[2]
    zoomed = profile.zoom(target.start_tsc, target.end_tsc)
    print(f"\nzoomed onto iteration {target.index} only:")
    print(zoomed.annotated_plan())
    print("\nits activity over time:")
    print(zoomed.render_timeline(bins=30))


if __name__ == "__main__":
    main()
