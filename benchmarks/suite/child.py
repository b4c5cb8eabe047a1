"""One child interpreter: set up a workload, run its passes, report.

Started by the runner as ``python -m benchmarks.suite.child``; prints one
JSON object as the last line of its standard output.  A cold workload's
child runs one pass; a steady workload's child runs its fixed region and
then whole passes until ``--seconds`` of timed work have been done.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from benchmarks.suite.clock import SETUP, TIMED, HostClock  # noqa: E402
from benchmarks.suite.metrics import percentile  # noqa: E402
from benchmarks.suite.workloads import (  # noqa: E402
    COLD, WORKLOADS, peak_rss_mb,
)


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        smoke: bool, trace_stem: str | None) -> dict:
    tracer = None
    if traced:
        from benchmarks.suite.trace import Tracer

        tracer = Tracer()
    clock = HostClock(tracer)
    workload = WORKLOADS[workload_name](seed, clock, smoke, traced)

    with clock.region("import", SETUP) as importing:
        workload.import_layers()
    # interpreter start and the suite's own imports, before the clock ran
    preamble_s = (importing.start - _STARTED) * importing.speed
    if tracer is not None:
        tracer.install()
    workload.set_up()
    setup_s = preamble_s + clock.phase_seconds(SETUP)

    region_passes = workload.REGION_PASSES
    if smoke:
        region_passes = min(region_passes, 2)
    passes = [workload.run_pass(i) for i in range(region_passes)]
    workload.finish()  # counts cover the fixed region, whatever follows
    while (workload.kind != COLD and workload.REPEATABLE
           and clock.phase_seconds(TIMED) < seconds):
        passes.append(workload.run_pass(len(passes)))
    digests = workload.verify()
    if tracer is not None:
        tracer.uninstall()
        if trace_stem:
            tracer.write(trace_stem)

    region = passes[:region_passes]
    latencies = [c for p in region for c in p.sim_latencies]
    op_ms = [op for p in passes for op in p.op_ms]
    layers = dict(workload.counts)
    layers["import.s"] = importing.seconds
    layers["storage.bytes_touched"] = 8 * sum(p.loads for p in region)
    if tracer is not None:
        layers.update(tracer.layer_metrics())
    speeds = clock.speeds()
    return {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "setup_stages": {
            r.label: r.seconds for r in clock.regions if r.phase == SETUP
        },
        # per pass: [label, calibrated seconds, raw seconds] per region
        "passes": [p.regions for p in passes],
        "op_ms": op_ms,  # [label, calibrated milliseconds] per op
        "peak_rss_mb": peak_rss_mb(),
        "region": {
            "passes": len(region),
            "ops": sum(p.ops for p in region),
            "sim_cycles": sum(p.sim_cycles for p in region),
            "sim_instructions": sum(p.sim_instructions for p in region),
            "sim_latency_p50_cycles": percentile(latencies, 0.50),
            "sim_latency_p90_cycles": percentile(latencies, 0.90),
        },
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:20],
        "digests": digests,
        "layers": layers,
        "host_speed": {
            "median": statistics.median(speeds),
            "min": min(speeds),
            "max": max(speeds),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace-stem", default=None)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 bool(args.smoke), args.trace_stem)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
