"""Command-line interface: run and profile SQL on a TPC-H-like database.

Examples::

    python -m repro --query q1
    python -m repro --scale 0.002 --query q16 --profile --timeline
    python -m repro --sql "select count(*) c from lineitem" --workers 4
    python -m repro --query q9 --profile --mode callstack --json out.json
"""

from __future__ import annotations

import argparse
import sys

from repro import Database, ProfilerConfig, ProfilingMode
from repro.data.queries import ALL_QUERIES, EXAMPLE_QUERY, FIG9_QUERY
from repro.errors import SqlError, format_sql_error
from repro.profiling import export


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tailored Profiling reproduction: compile, run, and "
                    "profile SQL on a simulated dataflow engine.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--sql", help="a SQL statement to run")
    source.add_argument(
        "--query",
        choices=sorted(ALL_QUERIES) + ["example", "fig9"],
        help="one of the adapted TPC-H queries (q1..q22), or a paper query",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor (default 0.001)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="simulated cores for morsel-driven execution",
    )
    parser.add_argument(
        "--profile", action="store_true", help="run with the PMU armed"
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ProfilingMode],
        default=ProfilingMode.REGISTER_TAGGING.value,
        help="shared-location disambiguation mechanism",
    )
    parser.add_argument(
        "--period", type=int, default=5000, help="sampling period (cycles)"
    )
    parser.add_argument(
        "--timeline", action="store_true", help="print the activity timeline"
    )
    parser.add_argument(
        "--pipelines", action="store_true", help="print per-task costs"
    )
    parser.add_argument(
        "--ir", action="store_true", help="print the annotated IR listing"
    )
    parser.add_argument(
        "--explain", action="store_true", help="print the plan and exit"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the profile as JSON"
    )
    parser.add_argument(
        "--folded", metavar="PATH",
        help="write folded stacks (flamegraph input)",
    )
    parser.add_argument(
        "--save-session", metavar="DIR",
        help="persist metadata + samples for offline post-processing",
    )
    parser.add_argument(
        "--dot", metavar="PATH",
        help="write the annotated plan as Graphviz DOT",
    )
    parser.add_argument(
        "--max-rows", type=int, default=20, help="result rows to print"
    )
    _add_fast_vm_flag(parser)
    parser.add_argument(
        "--tiering", action=argparse.BooleanOptionalAction, default=False,
        help="warm the query past the tier-2 promotion threshold and "
             "execute it on profile-specialized traces (docs/TIERING.md); "
             "results and counters are identical to every other tier.  "
             "Not with --profile, which compiles its own program for "
             "every run and so has no warm plan to promote",
    )
    return parser


def _add_fast_vm_flag(parser: argparse.ArgumentParser) -> None:
    """The shared --fast-vm/--no-fast-vm knob (same help everywhere)."""
    parser.add_argument(
        "--fast-vm", action=argparse.BooleanOptionalAction, default=True,
        help="run on the template-translated fast VM (default) or, with "
             "--no-fast-vm, on the block interpreter; results and counters "
             "are identical — this is a debugging/measurement knob",
    )


def resolve_sql(args) -> str:
    if args.sql:
        return args.sql
    if args.query == "example":
        return EXAMPLE_QUERY.sql
    if args.query == "fig9":
        return FIG9_QUERY.sql
    return ALL_QUERIES[args.query].sql


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "pgo":
        return _pgo_main(argv[1:], out)
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:], out)
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:], out)
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:], out)
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:], out)
    if argv and argv[0] == "storage":
        return _storage_main(argv[1:], out)
    if argv and argv[0] == "views":
        return _views_main(argv[1:], out)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tiering and args.profile:
        parser.error("--tiering needs a cached plan; --profile has none")
    sql = resolve_sql(args)
    try:
        return _run(args, sql, out)
    except SqlError as error:
        print(format_sql_error(sql, error), file=out)
        return 1


def _run(args, sql: str, out) -> int:

    if args.query == "example":
        database = Database.example()
    else:
        database = Database.tpch(scale=args.scale, seed=args.seed)

    if args.explain:
        print(database.explain(sql), file=out)
        return 0

    fast_vm = args.fast_vm
    if not args.profile:
        tiering = None
        if args.tiering:
            from repro.vm.tiering import TieringController

            # a one-shot run would finish before the default threshold
            # ever trips, so the CLI warms with a floor-level controller:
            # the warm run promotes, the reported run executes specialized
            tiering = TieringController(hot_instructions=1)
            database.execute(
                sql, workers=args.workers, fast_vm=fast_vm, tiering=tiering
            )
        result = database.execute(
            sql, workers=args.workers, fast_vm=fast_vm, tiering=tiering
        )
        _print_result(result, args.max_rows, out)
        if tiering is not None:
            cost = result.translation
            print(
                f"executed at tier {result.tier}" + (
                    f" (translated {cost['compiled']} of {cost['leaders']} "
                    f"blocks, {cost['source_lines']} lines, "
                    f"{cost['compile_s']:.3f} s)"
                    if cost else ""
                ),
                file=out,
            )
        return 0

    config = ProfilerConfig(mode=ProfilingMode(args.mode), period=args.period)
    profile = database.profile(
        sql, config, workers=args.workers, fast_vm=fast_vm
    )
    _print_result(profile.result, args.max_rows, out)
    print(file=out)
    print(profile.annotated_plan(), file=out)
    summary = profile.attribution_summary()
    print(
        f"\n{summary.total_samples} samples: "
        f"{summary.operator_share * 100:.1f}% operators, "
        f"{summary.kernel_share * 100:.1f}% kernel, "
        f"{summary.unattributed_share * 100:.1f}% unattributed",
        file=out,
    )
    if args.timeline:
        print("\nactivity over time:", file=out)
        print(profile.render_timeline(bins=40), file=out)
    if args.pipelines:
        print(file=out)
        print(profile.annotated_pipelines(), file=out)
    if args.ir:
        print(file=out)
        print(profile.annotated_ir(), file=out)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(export.to_json(profile))
        print(f"\nprofile written to {args.json}", file=out)
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(export.folded_stacks(profile))
        print(f"folded stacks written to {args.folded}", file=out)
    if args.save_session:
        from repro.profiling.session import save_session

        save_session(profile, args.save_session)
        print(f"session saved to {args.save_session}", file=out)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(profile.plan_dot())
        print(f"plan graph written to {args.dot}", file=out)
    return 0


def _pgo_main(argv: list[str], out) -> int:
    """``python -m repro pgo <store-dir>``: inspect stored PGO feedback."""
    parser = argparse.ArgumentParser(
        prog="python -m repro pgo",
        description="Inspect the profile-guided-optimization feedback "
                    "recorded in a ProfileStore directory.",
    )
    parser.add_argument(
        "store", help="directory of a persistent repro.pgo ProfileStore"
    )
    parser.add_argument(
        "--fingerprint", help="show only this query fingerprint"
    )
    args = parser.parse_args(argv)

    from repro.errors import ReproError
    from repro.pgo import ProfileStore

    try:
        store = ProfileStore(directory=args.store)
    except ReproError as error:
        print(str(error), file=out)
        return 1
    fingerprints = store.fingerprints()
    if args.fingerprint:
        fingerprints = [f for f in fingerprints if f == args.fingerprint]
    if not fingerprints:
        print(f"no feedback stored under {args.store}", file=out)
        return 1

    for fp in fingerprints:
        feedback = store.feedback(fp)
        print(f"query {fp}  ({feedback.runs} profiled run(s))", file=out)
        sql = " ".join(feedback.sql.split())
        if len(sql) > 100:
            sql = sql[:97] + "..."
        print(f"  sql: {sql}", file=out)
        print(f"  plan signature: {feedback.plan_signature}", file=out)
        if feedback.cardinalities:
            print("  cardinalities (observed vs estimated):", file=out)
            for key in sorted(feedback.cardinalities):
                obs = feedback.cardinalities[key]
                print(
                    f"    {key:<50} {obs.rows:>12,.0f} observed"
                    f"  {obs.estimate:>12,.0f} estimated",
                    file=out,
                )
        hot = [
            (key, stats)
            for key, stats in feedback.branches.items()
            if stats.total >= 4
        ]
        if hot:
            print("  branches (p(cond true), misses/samples):", file=out)
            hot.sort(key=lambda item: -item[1].total)
            for key, stats in hot[:10]:
                print(
                    f"    {key:<50} p={stats.taken_rate:.2f}"
                    f"  {stats.misses}/{stats.total}",
                    file=out,
                )
        if feedback.hotness:
            top = sorted(
                feedback.hotness.items(), key=lambda item: -item[1]
            )[:5]
            print("  hottest instructions:", file=out)
            for key, weight in top:
                print(f"    {key:<50} {weight:,.0f} samples", file=out)
        print(file=out)
    return 0


def _fuzz_main(argv: list[str], out) -> int:
    """``python -m repro fuzz --seed N --budget S``: differential fuzzing."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differentially fuzz the engine: generated queries run "
                    "through every executor (compiled fast-VM, parallel, "
                    "block interpreter, reference interpreter, unoptimized, "
                    "groupjoin, join-order hints, PGO, concurrent query "
                    "service) and must agree — "
                    "including bit-exact fast-VM counters and PMU sample "
                    "streams; disagreements are minimized and written out "
                    "as replayable corpus cases.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--budget", type=int, default=200,
        help="number of generated queries to check (default 200)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="stop early after this much wall-clock time",
    )
    parser.add_argument(
        "--max-hints", type=int, default=4,
        help="join-order-hint permutations to try per query (default 4)",
    )
    parser.add_argument(
        "--rotate-every", type=int, default=25,
        help="generate a fresh random dataset every N queries (default 25)",
    )
    parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="write minimized failures to this directory",
    )
    parser.add_argument(
        "--no-pgo", action="store_true",
        help="skip the profile-guided-optimization executor configs",
    )
    parser.add_argument(
        "--no-vm-parity", action="store_true",
        help="skip the fast-VM bit-exactness check (counter and PMU "
             "sample-stream comparison against the block interpreter)",
    )
    parser.add_argument(
        "--no-serve", action="store_true",
        help="skip the concurrent-service isolation config (8 in-flight "
             "copies on shared workers vs a single-query run)",
    )
    parser.add_argument(
        "--no-storage", action="store_true",
        help="skip the storage-layout twin configs (plain vs zone-mapped "
             "vs compressed physical layouts over the same rows)",
    )
    parser.add_argument(
        "--no-fleet", action="store_true",
        help="skip the fleet-sharded twin configs (scatter/gather over "
             "1, 2, and 4 router shards vs the single-node reference, "
             "plus merged-profile sample-total accounting)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimizing them",
    )
    parser.add_argument(
        "--inject-miscompile", action="store_true",
        help="deliberately miscompile every query (self-test: the oracle "
             "and shrinker must catch the planted fault)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-query progress"
    )
    args = parser.parse_args(argv)

    from repro.fuzz import run_fuzz

    if args.budget < 1:
        print("--budget must be at least 1", file=out)
        return 2

    emit = None if args.quiet else (lambda message: print(message, file=out))
    report = run_fuzz(
        args.seed,
        args.budget,
        max_hints=args.max_hints,
        rotate_every=args.rotate_every,
        check_pgo=not args.no_pgo,
        check_vm_parity=not args.no_vm_parity,
        check_serve=not args.no_serve,
        check_storage=not args.no_storage,
        check_fleet=not args.no_fleet,
        inject_fault="invert-first-cmpeq" if args.inject_miscompile else None,
        time_limit=args.time_limit,
        corpus_dir=args.corpus,
        shrink_failures=not args.no_shrink,
        log=emit,
    )
    print(
        f"fuzz seed={report.seed}: ran {report.queries} queries "
        f"({report.executions} executor runs, {report.datasets} datasets, "
        f"{report.rejected} rejected, {report.tier2_signed} signed at "
        f"tier 2) in {report.elapsed:.1f}s — "
        f"{len(report.failures)} disagreement(s)",
        file=out,
    )
    for failure in report.failures:
        repro_sql = failure.shrunk_sql or failure.sql
        print(f"  [{', '.join(failure.configs)}] {repro_sql}", file=out)
        if failure.corpus_path:
            print(f"    repro: {failure.corpus_path}", file=out)
    return 0 if report.ok else 1


def _bench_main(argv: list[str], out) -> int:
    """``python -m repro bench --vm``: engine micro-benchmarks."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark the execution engine.  --vm times every "
                    "selected TPC-H query on the template-translated fast "
                    "VM and on the block interpreter (same compiled "
                    "program, best-of-N wall time, parity asserted) and "
                    "reports per-query and geometric-mean speedups.",
    )
    parser.add_argument(
        "--vm", action="store_true",
        help="fast-VM vs interpreter speed comparison",
    )
    parser.add_argument(
        "--queries", default=None,
        help="comma-separated TPC-H query names (default: the "
             "representative vmbench subset; 'all' for q1..q22)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor (default 0.001)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N timing runs per engine (default 3)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="append the run record to this trajectory file "
             "(e.g. BENCH_vm.json)",
    )
    args = parser.parse_args(argv)

    if not args.vm:
        print("nothing to benchmark: pass --vm", file=out)
        return 2

    from repro.data.queries import ALL_QUERIES
    from repro.vmbench import append_trajectory, run_vm_bench

    queries = None
    if args.queries == "all":
        queries = sorted(ALL_QUERIES, key=lambda n: int(n[1:]))
    elif args.queries:
        queries = [name.strip() for name in args.queries.split(",")]
        unknown = [name for name in queries if name not in ALL_QUERIES]
        if unknown:
            print(f"unknown queries: {', '.join(unknown)}", file=out)
            return 2

    record = run_vm_bench(
        queries=queries, scale=args.scale, seed=args.seed,
        repeats=args.repeats, log=lambda message: print(message, file=out),
    )
    if args.json:
        append_trajectory(record, args.json)
        print(f"trajectory appended to {args.json}", file=out)
    return 0


def _serve_main(argv: list[str], out) -> int:
    """``python -m repro serve``: run a workload through the query service."""
    from repro.serve import (
        SERVE_PERIOD_CYCLES,
        QueryService,
        ServiceConfig,
        load_workload,
        run_workload,
        synthetic_workload,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run a multi-client workload through the concurrent "
                    "query service: sessions, admission control, morsel "
                    "interleaving over shared VM workers, and always-on "
                    "workload profiling that attributes every PMU sample "
                    "to its (query, operator) pair.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload", metavar="FILE",
        help='JSONL workload file: one {"sql": ..., "client": ..., '
             '"priority": ...} object per line',
    )
    source.add_argument(
        "--synthetic", action="store_true",
        help="generate a deterministic multi-client workload from the "
             "built-in templates over the example schema",
    )
    parser.add_argument(
        "--queries", type=int, default=40,
        help="synthetic workload size (default 40)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="synthetic workload client sessions (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="shared VM workers, i.e. simulated cores (default 4)",
    )
    parser.add_argument(
        "--inflight", type=int, default=8,
        help="maximum concurrently executing queries (default 8)",
    )
    parser.add_argument(
        "--queue", type=int, default=32,
        help="admission queue depth before shedding (default 32)",
    )
    parser.add_argument(
        "--morsel-size", type=int, default=256,
        help="rows per interleaved work unit (default 256)",
    )
    parser.add_argument(
        "--period", type=int, default=SERVE_PERIOD_CYCLES,
        help=f"always-on sampling period in cycles "
             f"(default {SERVE_PERIOD_CYCLES})",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="service seed; session RNGs derive from it (default 0)",
    )
    parser.add_argument(
        "--no-profiling", action="store_true",
        help="disarm the PMU (no workload profile, no PGO feedback)",
    )
    parser.add_argument(
        "--pgo-store", metavar="DIR",
        help="feed the workload profile into this PGO ProfileStore",
    )
    parser.add_argument(
        "--tpch", action="store_true",
        help="serve the TPC-H database instead of the example schema "
             "(requires --workload: the synthetic templates are written "
             "against the example schema)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor for --tpch (default 0.001)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the rolling workload profile after the run",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any query failed or was shed",
    )
    _add_fast_vm_flag(parser)
    parser.add_argument(
        "--tiering", action=argparse.BooleanOptionalAction, default=True,
        help="promote hot programs to tier-2 profile-specialized traces "
             "at morsel boundaries (default; see docs/TIERING.md)",
    )
    args = parser.parse_args(argv)
    if args.tpch and args.synthetic:
        parser.error(
            "--synthetic generates queries over the example schema; "
            "use --workload with --tpch"
        )

    from repro.errors import ReproError

    database = (
        Database.tpch(scale=args.scale, seed=42)
        if args.tpch else Database.example()
    )
    store = None
    if args.pgo_store:
        from repro.pgo import ProfileStore

        store = ProfileStore(directory=args.pgo_store)
    config = ServiceConfig(
        workers=args.workers,
        max_inflight=args.inflight,
        max_queue=args.queue,
        morsel_size=args.morsel_size,
        profiling=not args.no_profiling,
        period=args.period,
        fast_vm=args.fast_vm,
        seed=args.seed,
        tiering=args.tiering,
    )
    service = QueryService(database, config, pgo_store=store)
    try:
        items = (
            load_workload(args.workload) if args.workload
            else synthetic_workload(service, args.queries, args.clients)
        )
        if not items:
            print("workload is empty", file=out)
            return 2
        summary = run_workload(service, items)
    except ReproError as error:
        print(str(error), file=out)
        return 1

    stats = service.stats()
    cache = stats["plan_cache"]
    print(
        f"served {summary.submitted} queries on {stats['workers']} workers "
        f"across {stats['epochs']} epoch(s): {summary.completed} ok, "
        f"{summary.failed} failed, {stats['cancelled']} cancelled, "
        f"{summary.shed} shed",
        file=out,
    )
    print(
        f"plan cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['entries']} resident; "
        f"{stats['context_switches']} context switches",
        file=out,
    )
    if "tiering" in stats:
        tiering = stats["tiering"]
        print(
            f"tiering: {tiering['promotions']} promotion(s), "
            f"{tiering['hot_programs']} hot program(s)",
            file=out,
        )
    if service.profiler is not None:
        print(
            f"profiling: {stats['samples']} samples, "
            f"tag accuracy {stats['tag_accuracy'] * 100:.2f}%",
            file=out,
        )
    for result in summary.results:
        if result.status != "ok":
            detail = result.error or result.status
            print(
                f"  ticket {result.ticket} [{result.session}]: {detail}",
                file=out,
            )
    if args.report and service.profiler is not None:
        print(file=out)
        print(service.profile_snapshot().render(), file=out)
    if store is not None:
        print(f"PGO feedback recorded under {args.pgo_store}", file=out)
    if args.strict and not summary.clean:
        return 1
    return 0


def _fleet_main(argv: list[str], out) -> int:
    """``python -m repro fleet``: a sharded workload behind the router."""
    import zlib
    from random import Random

    from repro.errors import ReproError
    from repro.fleet import Fleet, FleetConfig, fleet_profile, run_fleet_workload
    from repro.serve import SYNTHETIC_TEMPLATES

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Run a multi-tenant workload through the fleet router: "
                    "the example fact table partitions across N query-"
                    "service shards, queries execute by scatter/gather "
                    "(partial aggregates pushed down, merged and re-sorted "
                    "router-side), and per-shard continuous profiles merge "
                    "into one fleet-wide hotspot report with per-tenant "
                    "and per-shard attribution.",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="query-service shards behind the router (default 4)",
    )
    parser.add_argument(
        "--scheme", choices=["hash", "range"], default="hash",
        help="partitioning scheme for the fact table (default hash)",
    )
    parser.add_argument(
        "--queries", type=int, default=40,
        help="synthetic workload size (default 40)",
    )
    parser.add_argument(
        "--tenants", type=int, default=3,
        help="tenants submitting round-robin (default 3)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="simulated cores per shard (default 2)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=None,
        help="max in-flight fleet queries per tenant (default unlimited)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="fleet seed; tenant RNGs derive from it (default 0)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the merged fleet profile after the run",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any query failed",
    )
    _add_fast_vm_flag(parser)
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be at least 1")

    try:
        fleet = Fleet(
            Database.example(),
            FleetConfig(
                shards=args.shards, scheme=args.scheme,
                workers=args.workers, fast_vm=args.fast_vm,
                seed=args.seed, tenant_quota=args.tenant_quota,
            ),
        )
    except ReproError as error:
        print(str(error), file=out)
        return 1

    # deterministic per-tenant query streams, seeded like service sessions
    names = [f"tenant-{i}" for i in range(args.tenants)]
    rngs = {
        name: Random(zlib.crc32(f"{args.seed}:{name}".encode()))
        for name in names
    }
    items = []
    for index in range(args.queries):
        name = names[index % args.tenants]
        rng = rngs[name]
        sql = rng.choice(SYNTHETIC_TEMPLATES).format(
            price=round(rng.uniform(50.0, 450.0), 2),
            hi_price=round(rng.uniform(400.0, 490.0), 2),
        )
        items.append((name, sql))

    results = run_fleet_workload(fleet, items)
    stats = fleet.stats()
    print(
        f"fleet of {stats['shards']} shard(s) "
        f"[{stats['partition']}]: served {stats['submitted']} queries — "
        f"{stats['completed']} ok ({stats['degraded']} degraded), "
        f"{stats['failed']} failed, {stats['cancelled']} cancelled; "
        f"makespan {stats['makespan_cycles']:,} cycles",
        file=out,
    )
    failed = 0
    for result in results:
        status = getattr(result, "status", "failed")
        if status in ("ok", "degraded"):
            continue
        failed += 1
        detail = getattr(result, "error", result)
        ticket = getattr(result, "ticket", "-")
        print(f"  ticket {ticket}: {detail}", file=out)
    snapshot = fleet.profile_snapshot()
    if snapshot is not None:
        print(
            f"profiling: {snapshot.samples} merged samples "
            f"(= sum over shards), tag accuracy "
            f"{snapshot.accuracy * 100:.2f}%",
            file=out,
        )
    if args.report:
        print(file=out)
        print(fleet_profile(fleet).render(), file=out)
    if args.strict and failed:
        return 1
    return 0


def _storage_main(argv: list[str], out) -> int:
    """``python -m repro storage``: inspect the physical table layout."""
    parser = argparse.ArgumentParser(
        prog="python -m repro storage",
        description="Print the columnar storage layout of the TPC-H "
                    "database: shards, segments, chosen encodings, "
                    "compression ratios, and zone-map ranges.  With "
                    "--query, run that query first so the summary also "
                    "shows observed zone-map pruning and loader advice.",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor (default 0.001)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--segment-rows", type=int, default=None,
        help="rows per segment (power of two; default from StorageConfig)",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="build the uncompressed layout instead of the encoded one",
    )
    parser.add_argument(
        "--query", choices=sorted(ALL_QUERIES), default=None,
        help="run this TPC-H query before summarizing, to populate the "
             "observed zone-map pruning counters",
    )
    args = parser.parse_args(argv)

    from repro.errors import ReproError
    from repro.storage import StorageConfig

    kwargs = {}
    if args.segment_rows is not None:
        kwargs["segment_rows"] = args.segment_rows
    try:
        config = (
            StorageConfig.pruned(**kwargs) if args.plain
            else StorageConfig(**kwargs)
        )
        database = Database.tpch(
            scale=args.scale, seed=args.seed, storage=config
        )
        if args.query:
            database.execute(ALL_QUERIES[args.query].sql)
    except ReproError as error:
        print(str(error), file=out)
        return 1
    print(database.storage.summary(), file=out)
    advice = database.storage.encoding_advice()
    if advice:
        print(file=out)
        print("loader advice:", file=out)
        for line in advice:
            print(f"  {line}", file=out)
    return 0


def _views_main(argv: list[str], out) -> int:
    """``python -m repro views``: the incremental materialized-view tier."""
    parser = argparse.ArgumentParser(
        prog="python -m repro views",
        description="Incremental materialized views (docs/VIEWS.md).  The "
                    "default demo registers standing queries — SQL and an "
                    "EventFlow with having() — over the example database, "
                    "subscribes a session, applies delta batches including "
                    "retractions, and prints the pushed updates plus the "
                    "per-view maintenance profile.  --fuzz runs the "
                    "views-incremental differential oracle instead: every "
                    "maintained view is bag-compared against re-running "
                    "its query from scratch after every batch.",
    )
    parser.add_argument(
        "--fuzz", action="store_true",
        help="run the views-incremental differential oracle",
    )
    parser.add_argument(
        "--queries", type=int, default=100,
        help="standing queries to register under --fuzz (default 100)",
    )
    parser.add_argument(
        "--batches", type=int, default=5,
        help="delta batches per dataset under --fuzz, and demo batches "
             "(default 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="stop the fuzz campaign early after this much wall-clock time",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-dataset progress"
    )
    args = parser.parse_args(argv)

    if args.fuzz:
        from repro.fuzz.views import run_views_fuzz

        if args.queries < 1:
            print("--queries must be at least 1", file=out)
            return 2
        emit = (
            None if args.quiet
            else (lambda message: print(message, file=out))
        )
        report = run_views_fuzz(
            args.seed, args.queries, batches=args.batches,
            time_limit=args.time_limit, log=emit,
        )
        print(
            f"views-fuzz seed={report.seed}: {report.views} views over "
            f"{report.datasets} datasets, {report.batches} delta batches, "
            f"{report.checks} differential checks "
            f"({report.retractions} retractions, {report.rejected} "
            f"rejected) in {report.elapsed:.1f}s — "
            f"{len(report.failures)} disagreement(s)",
            file=out,
        )
        for failure in report.failures:
            print(
                f"  view {failure.view} batch {failure.batch} "
                f"[dataset {failure.dataset_seed}]: {failure.reason}",
                file=out,
            )
            if failure.sql:
                print(f"    {failure.sql}", file=out)
        return 0 if report.ok else 1

    from random import Random

    from repro.serve import QueryService, ServiceConfig
    from repro.streaming import EventFlow
    from repro.views import ViewService

    database = Database.example(n_sales=2000, n_products=100)
    service = QueryService(database, ServiceConfig(workers=2))
    views = ViewService(service)

    views.register(
        "by_bucket",
        "select id % 7 as bucket, sum(price) as total, count(*) as n "
        "from sales group by id % 7",
    )
    views.register(
        "top_tickets",
        "select id as sale, price as price from sales "
        "order by price desc, sale asc limit 5",
    )
    views.register(
        "hot_margins",
        EventFlow(database, "sales", label="tickets")
        .derive(margin="price - prod_costs")
        .aggregate(by=[], totals={"total_margin": "sum(margin)",
                                  "n": "count(*)"})
        .having("n > 0"),
    )
    subscription = views.subscribe("by_bucket", "dashboard")

    rng = Random(args.seed)
    table = database.catalog.table("sales")
    live = [
        (raw[0], raw[1] / 100, raw[2] / 100, raw[3] / 100)
        for raw in zip(*table.columns)
    ]
    next_id = max(row[0] for row in live) + 1
    for _ in range(max(1, args.batches)):
        changes = []
        for _ in range(4):
            row = (
                next_id,
                round(rng.uniform(1.0, 700.0), 2),
                round(rng.uniform(1.0, 1.4), 2),
                round(rng.uniform(1.0, 300.0), 2),
            )
            next_id += 1
            live.append(row)
            changes.append((row, 1))
        for _ in range(2):
            changes.append((live.pop(rng.randrange(len(live))), -1))
        views.apply({"sales": changes})

    for view_name in ("by_bucket", "top_tickets", "hot_margins"):
        view = views.view(view_name)
        print(
            f"view {view.name} v{view.version}: "
            f"{len(view.materialize())} row(s)",
            file=out,
        )
        for row in view.materialize()[:5]:
            print(f"  {row}", file=out)
    updates = subscription.pull()
    deltas = sum(1 for update in updates if update.kind == "delta")
    changed = sum(len(update.rows) for update in updates
                  if update.kind == "delta")
    print(
        f"subscription 'dashboard' on by_bucket: 1 snapshot + "
        f"{deltas} delta update(s), {changed} (row, weight) change(s)",
        file=out,
    )
    print(file=out)
    print(views.maintenance_report(), file=out)
    snapshot = service.profile_snapshot()
    if snapshot is not None:
        per_view = sum(s.samples for s in snapshot.views.values())
        print(
            f"\nprofiling: {snapshot.maintenance_samples} maintenance "
            f"samples ({per_view} attributed per-view), "
            f"{snapshot.maintenance_instructions:,} maintenance "
            f"instructions",
            file=out,
        )
    return 0


def _print_result(result, max_rows: int, out) -> None:
    print(" | ".join(result.columns), file=out)
    for row in result.rows[:max_rows]:
        print(" | ".join(str(v) for v in row), file=out)
    if len(result.rows) > max_rows:
        print(f"... ({len(result.rows)} rows total)", file=out)
    print(
        f"[{result.instructions:,} instructions, {result.cycles:,} cycles]",
        file=out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
