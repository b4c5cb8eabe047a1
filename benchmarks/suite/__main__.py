"""The suite's command line.

    PYTHONPATH=src python -m benchmarks.suite [--workload W] [--seed N]
        [--reps N] [--seconds S] [--trace] [--smoke] [--out FILE]
    PYTHONPATH=src python -m benchmarks.suite --compare A.json B.json

Runs every workload (or the ones named), one child interpreter at a
time, checks every result against its reference, prints every metric
with unit, clock, median, min-max and sample count, and writes a result
file ``--compare`` reads.  Exits non-zero when any op failed or any
simulated number changed between repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import strftime

from benchmarks.suite import check, compare, runner
from benchmarks.suite.metrics import (
    END_TO_END_BY_NAME, FAILED_SHARE, PER_LAYER_BY_NAME,
)
from benchmarks.suite.workloads import WORKLOADS

DEFAULT_SECONDS = 8.0
DEFAULT_REPS = 3


def environment(seed: int, reps) -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
        "repetitions": reps,
        "started": strftime("%Y-%m-%dT%H:%M:%S"),
    }


def warn_if_loaded(load: float, own: int = 0) -> None:
    """Warn when others load the host: ``own`` is what the suite itself
    contributes (0 before it starts, one busy process while it runs)."""
    limit = max(1, (os.cpu_count() or 1) - 1) + own
    if load > limit:
        print(f"warning: 1-minute load average {load:.2f} exceeds {limit} "
              f"(nproc - 1, plus {own} for the suite itself); host metrics "
              "will be noisy", file=sys.stderr)


def _row(name, unit, clock, samples, value) -> str:
    return (f"  {name:<40}{value:>16.6g} {unit:<13}{clock:<6}"
            f"{min(samples):>14.6g} .. {max(samples):<14.6g} n={len(samples)}")


def run_workload(name: str, args) -> dict:
    cls = WORKLOADS[name]
    # each repetition is one complete run, as the driver's command makes it
    runs = [
        runner.measure(name, args.seed, args.seconds, smoke=args.smoke,
                       first_hash_seed=1 + 10 * rep)
        for rep in range(args.reps)
    ]
    # one gate over every child of every run: each had its own hash seed
    every = runner.Measurement(
        name, args.seed, [c for run in runs for c in run.children]
    )
    every.gate()
    end_to_end = {}
    for run in runs:
        for metric_name, value in run.end_to_end().items():
            end_to_end.setdefault(metric_name, []).append(value)
    end_to_end[FAILED_SHARE.name] = [
        run.failed / max(1, run.attempted) for run in runs
    ]
    run_s = sum(run.run_s for run in runs)
    print(f"\n{name} [{cls.kind}] {len(runs)} runs, "
          f"{len(every.children)} children, {run_s:.1f} s")
    for metric_name, samples in end_to_end.items():
        metric = END_TO_END_BY_NAME.get(metric_name, FAILED_SHARE)
        end_to_end[metric_name] = entry = {
            "value": statistics.median(samples), "unit": metric.unit,
            "clock": metric.clock, "samples": samples,
        }
        print(_row(metric_name, metric.unit, metric.clock, samples,
                   entry["value"]))
    result = {
        "end_to_end": end_to_end,
        "attempted": every.attempted,
        "failed": every.failed,
        "failures": every.failures,
        "violations": every.violations,
        "host_speed": [c["host_speed"] for c in every.children],
        "digests": every.children[0]["digests"],
        "run_s": run_s,
    }
    if args.trace:
        traced, per_layer = runner.trace(
            name, args.seed, smoke=args.smoke, baseline=every.children
        )
        print(f"  -- traced run, {traced.run_s:.1f} s "
              f"(trace files in {runner.OUT_DIR})")
        for metric_name, value in per_layer.items():
            metric = PER_LAYER_BY_NAME[metric_name]
            if value:
                print(_row(metric_name, metric.unit, metric.clock, [value],
                           value))
        result["per_layer"] = per_layer
        result["violations"] = traced.violations  # gated with the baseline
        result["failures"] += traced.children[-1]["failures"]
        result["failed"] += traced.children[-1]["failed"]
        result["run_s"] += traced.run_s
    for problem in result["failures"] + result["violations"]:
        print(f"  FAILED: {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="complete runs per workload; values are "
                             "medians over them")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, measures "
                             "nothing")
    parser.add_argument("--out", default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="check in this run's reference digests as "
                             "expected/<workload>.seed<N>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)

    if args.smoke:
        args.reps, args.seconds = 1, 0.0
    env = environment(args.seed, args.reps)
    warn_if_loaded(env["loadavg_start"])
    report = {"suite": 1, "smoke": args.smoke, "env": env, "workloads": {}}
    try:
        for name in args.workload or list(WORKLOADS):
            report["workloads"][name] = run_workload(name, args)
    except runner.SuiteError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.write_expected and not args.smoke:
        for name, result in report["workloads"].items():
            if result["failed"]:
                continue
            try:
                print("wrote", check.write_expected(
                    name, args.seed, result["digests"]
                ))
            except FileExistsError as exc:
                print("kept:", exc)
    env["loadavg_end"] = os.getloadavg()[0]
    warn_if_loaded(env["loadavg_end"], own=1)
    out = args.out
    if out is None:
        runner.OUT_DIR.mkdir(exist_ok=True)
        out = runner.OUT_DIR / (
            f"result-{env['git_revision'][:10]}-seed{args.seed}.json"
        )
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nresult file: {out}")
    bad = [
        name for name, result in report["workloads"].items()
        if result["failed"] or result["violations"]
    ]
    if bad:
        print(f"FAILED workloads: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
