"""Concurrent-service throughput: always-on profiling vs profiling off.

The serving claim is that keeping the PMU armed across every production
query (period ``SERVE_PERIOD_CYCLES``) stays within the paper-style 15%
throughput budget while attributing ≥99% of samples to the right (query,
operator) pair.  The on/off runs alternate round by round and the gate
uses the median of per-round ratios, so machine drift on shared runners
cancels instead of flaking the build; the measured trajectory is what
``BENCH_serve.json`` tracks run over run.
"""

from random import Random

from benchmarks._harness import (
    append_trajectory,
    geomean,
    interleaved_ratio,
    report,
    timed,
    trajectory_path,
)

from repro import Database
from repro.fleet import Fleet, FleetConfig, run_fleet_workload
from repro.serve import (
    SYNTHETIC_TEMPLATES,
    QueryService,
    ServiceConfig,
    run_workload,
    synthetic_workload,
)
from repro.serve.profiler import percentile

# locally measured steady-state overhead is ~11% at the serve period;
# the gate enforces the paper-style 15% budget on the drift-cancelled
# median, catching a real regression of the always-on sampling path
OVERHEAD_CEILING_PCT = 15.0
TRAJECTORY_PATH = trajectory_path("serve")

QUERIES = 32
CLIENTS = 4
# steady-state per-round ratios still spread ~0.99-1.21 on a shared
# machine even with drift cancellation; nine rounds keep the median
# inside a few percent of the true ~1.11 where five rounds can land an
# outlier pair in the middle slot
REPEATS = 9


def _build(profiling: bool):
    database = Database.example(n_sales=6000, n_products=150)
    service = QueryService(database, ServiceConfig(
        workers=4, max_inflight=8, profiling=profiling,
    ))
    items = synthetic_workload(service, queries=QUERIES, clients=CLIENTS)
    service.warm(dict.fromkeys(item.sql for item in items))
    # Two untimed warm-up rounds reach steady state before measurement:
    # the first runs of each plan compile the blocks its fast-VM
    # translation finds hot, and the next ones the arms and blocks that
    # turn hot later.  Armed translations cost more than the unarmed ones
    # to compile, so timing the warm-up would charge a one-time compile
    # asymmetry to the steady-state overhead gate.
    run_workload(service, items, warm=False)
    run_workload(service, items, warm=False)
    return service, items


def _run_once(service, items):
    elapsed, summary = timed(lambda: run_workload(service, items, warm=False))
    assert summary.clean, "benchmark workload must run clean"
    return elapsed, summary


def _describe(service, items, best) -> dict:
    elapsed, summary = best
    stats = service.stats()
    latencies = sorted(r.latency_cycles for r in summary.results if r.ok)
    return {
        "elapsed_s": round(elapsed, 4),
        "qps": round(len(items) / elapsed, 2),
        "latency_p50_cycles": percentile(latencies, 0.50),
        "latency_p95_cycles": percentile(latencies, 0.95),
        "latency_p99_cycles": percentile(latencies, 0.99),
        "samples": stats.get("samples", 0),
        "tag_accuracy": stats.get("tag_accuracy", 1.0),
    }


def run_serve_bench() -> dict:
    # drift-cancelled A/B (benchmarks._harness): the two configurations
    # alternate within every round so slow machine drift hits both sides
    # equally, and the overhead gate uses the median of per-round ratios
    service_on, items_on = _build(profiling=True)
    service_off, items_off = _build(profiling=False)
    estimate = interleaved_ratio(
        lambda: _run_once(service_on, items_on),
        lambda: _run_once(service_off, items_off),
        REPEATS,
    )
    on = _describe(service_on, items_on, estimate.best_a)
    off = _describe(service_off, items_off, estimate.best_b)
    overhead_pct = (estimate.median_ratio - 1.0) * 100
    return {
        "queries": QUERIES,
        "clients": CLIENTS,
        "workers": 4,
        "profiling_on": on,
        "profiling_off": off,
        "round_ratios": [round(r, 4) for r in estimate.ratios],
        "ratio_geomean": round(geomean(estimate.ratios), 4),
        "overhead_pct": round(overhead_pct, 2),
    }


def format_table(record: dict) -> str:
    on, off = record["profiling_on"], record["profiling_off"]
    lines = [
        f"{'':<16}{'profiling on':>14}{'profiling off':>15}",
        f"{'qps':<16}{on['qps']:>14.2f}{off['qps']:>15.2f}",
        f"{'p50 (cycles)':<16}{on['latency_p50_cycles']:>14,}"
        f"{off['latency_p50_cycles']:>15,}",
        f"{'p95 (cycles)':<16}{on['latency_p95_cycles']:>14,}"
        f"{off['latency_p95_cycles']:>15,}",
        f"{'p99 (cycles)':<16}{on['latency_p99_cycles']:>14,}"
        f"{off['latency_p99_cycles']:>15,}",
        f"{'samples':<16}{on['samples']:>14,}{off['samples']:>15,}",
        "",
        f"tag accuracy {on['tag_accuracy']:.4f}, "
        f"throughput overhead {record['overhead_pct']:+.2f}% "
        f"(ceiling {OVERHEAD_CEILING_PCT:.0f}%)",
        f"round-ratio geomean {record.get('ratio_geomean', 1.0):.4f} "
        f"over {len(record['round_ratios'])} interleaved rounds",
    ]
    return "\n".join(lines)


def test_serve_profiling_overhead(benchmark):
    record = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)
    report(
        "Concurrent service: always-on profiling overhead",
        format_table(record),
    )
    append_trajectory(record, TRAJECTORY_PATH)
    assert record["profiling_on"]["tag_accuracy"] >= 0.99
    assert record["overhead_pct"] <= OVERHEAD_CEILING_PCT, (
        f"always-on profiling costs {record['overhead_pct']:.1f}% "
        f"throughput, above the {OVERHEAD_CEILING_PCT:.0f}% ceiling"
    )


# -- fleet shard-count scaling ------------------------------------------------

# a 4-shard fleet holds a quarter of the fact table per shard, so its
# simulated makespan should approach a quarter of the single-shard run;
# 1.8x leaves room for gather overhead, replicated dimension scans, and
# skewed partitions while still catching a scatter path that stopped
# parallelising
FLEET_SHARDS = 4
FLEET_SPEEDUP_FLOOR = 1.8
FLEET_QUERIES = 16
FLEET_TENANTS = 4
FLEET_REPEATS = 3


def _fleet_items(seed: int):
    rng = Random(seed)
    return [
        (
            f"tenant-{i % FLEET_TENANTS}",
            rng.choice(SYNTHETIC_TEMPLATES).format(
                price=round(rng.uniform(50.0, 450.0), 2),
                hi_price=round(rng.uniform(400.0, 490.0), 2),
            ),
        )
        for i in range(FLEET_QUERIES)
    ]


def _fleet_run(shards: int, seed: int):
    """Run one fleet round; 'elapsed' is the simulated makespan.

    The scaling claim is about simulated parallelism, not wall clock:
    shards advance their cycle counters independently, so the fleet
    makespan is the max over shards of the busiest worker's cycles.
    Using cycles as the ratio numerator keeps the gate deterministic on
    shared CI runners.
    """
    database = Database.example(n_sales=4000, n_products=120)
    fleet = Fleet(database, FleetConfig(
        shards=shards, workers=2, max_inflight=8, seed=seed,
    ))
    results = run_fleet_workload(fleet, _fleet_items(seed))
    assert all(r.ok for r in results), "fleet benchmark must run clean"
    stats = fleet.stats()
    return float(stats["makespan_cycles"]), (fleet, results, stats)


def run_fleet_bench(shards: int = FLEET_SHARDS) -> dict:
    # same interleaved median-of-ratios estimator as the overhead gate;
    # each round uses a fresh workload seed (shared by both sides of the
    # ratio) so the median spans several query mixes rather than
    # repeating one lucky draw
    round_seed = {"value": 17}

    def run_single():
        round_seed["value"] += 1
        return _fleet_run(1, seed=round_seed["value"])

    def run_fleet():
        return _fleet_run(shards, seed=round_seed["value"])

    estimate = interleaved_ratio(run_single, run_fleet, FLEET_REPEATS)
    single_cycles, (_, single_results, _s) = estimate.best_a
    fleet_cycles, (fleet, fleet_results, stats) = estimate.best_b
    merged = fleet.profile_snapshot()
    return {
        "fleet_shards": shards,
        "queries": FLEET_QUERIES,
        "tenants": FLEET_TENANTS,
        "workers_per_shard": 2,
        "single_makespan_cycles": int(single_cycles),
        "fleet_makespan_cycles": int(fleet_cycles),
        "shard_speedups": [round(r, 4) for r in estimate.ratios],
        "shard_speedup_median": round(
            sorted(estimate.ratios)[len(estimate.ratios) // 2], 4),
        "shard_speedup_geomean": round(geomean(estimate.ratios), 4),
        "fleet_samples": 0 if merged is None else merged.samples,
        "scattered": sum(1 for r in fleet_results if r.scattered),
    }


def format_fleet_table(record: dict) -> str:
    lines = [
        f"{'':<24}{'1 shard':>14}{record['fleet_shards']:>13} shards",
        f"{'makespan (cycles)':<24}"
        f"{record['single_makespan_cycles']:>14,}"
        f"{record['fleet_makespan_cycles']:>20,}",
        "",
        f"shard speedup median {record['shard_speedup_median']:.2f}x "
        f"(floor {FLEET_SPEEDUP_FLOOR:.1f}x), "
        f"geomean {record['shard_speedup_geomean']:.2f}x "
        f"over {len(record['shard_speedups'])} interleaved rounds",
        f"merged fleet samples {record['fleet_samples']:,}, "
        f"{record['scattered']} queries scattered",
    ]
    return "\n".join(lines)


def test_fleet_shard_scaling(benchmark):
    record = benchmark.pedantic(run_fleet_bench, rounds=1, iterations=1)
    report(
        f"Fleet: {record['fleet_shards']}-shard scatter/gather scaling",
        format_fleet_table(record),
    )
    append_trajectory(record, TRAJECTORY_PATH)
    speedup = record["shard_speedup_median"]
    assert speedup >= FLEET_SPEEDUP_FLOOR, (
        f"{record['fleet_shards']}-shard fleet is only {speedup:.2f}x "
        f"a single shard, below the {FLEET_SPEEDUP_FLOOR:.1f}x floor"
    )


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="serve/fleet benchmarks (standalone, no pytest)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run the fleet scaling bench at N shards")
    args = parser.parse_args()
    if args.shards is not None:
        rec = run_fleet_bench(args.shards)
        print(format_fleet_table(rec))
        append_trajectory(rec, TRAJECTORY_PATH)
        ok = rec["shard_speedup_median"] >= FLEET_SPEEDUP_FLOOR
    else:
        rec = run_serve_bench()
        print(format_table(rec))
        append_trajectory(rec, TRAJECTORY_PATH)
        ok = rec["overhead_pct"] <= OVERHEAD_CEILING_PCT
    sys.exit(0 if ok else 1)
