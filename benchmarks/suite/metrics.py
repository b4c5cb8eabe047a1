"""Every metric the suite reports: name, unit, clock, bound, meaning.

``BENCHMARK.json`` lists the same names; ``test_suite.py`` checks the two
agree.  Bounds here are the suite's own (``--compare`` on one seed):
simulated metrics and counts are deterministic, so their bound is 0 and
any change is a verdict.  The driver compares medians over different
seeds, so ``BENCHMARK.json`` carries wider bounds for the same names.
"""

from __future__ import annotations

from dataclasses import dataclass

HOST = "host"  # calibrated host seconds (see clock.py), or derived
SIM = "sim"  # simulated cycles / instructions: exact per seed
COUNT = "count"  # counts of the program's own events: exact per seed

TPCH = ("adhoc_cold", "repeat_warm", "profile_session")
COLD_PATHS = ("adhoc_cold", "profile_session")
ALL = TPCH + ("serve_steady", "views_maintain", "fleet_scatter")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str
    better: str  # "lower" | "higher"
    definition: str
    bound: float = 0.0
    #: per-layer only: (end-to-end metric, workloads) it should move
    moves: tuple = ()


def percentile(values, share: float):
    """Nearest-rank percentile; the suite's one definition."""
    ordered = sorted(values)
    if not ordered:
        return 0
    rank = -(-len(ordered) * share // 1)  # ceiling
    return ordered[max(1, int(rank)) - 1]


END_TO_END = [
    Metric("setup_s", "s", HOST, "lower",
           "child start to first timed op: import, data generation, "
           "finalize(), and for steady workloads warm-up to steady state",
           0.10),
    Metric("wall_s", "s", HOST, "lower",
           "host time of the fixed region, each op at the median over all "
           "its executions", 0.10),
    Metric("op_p50_ms", "ms", HOST, "lower",
           "median over distinct ops of each op's own median latency", 0.10),
    Metric("peak_rss_mb", "MB", HOST, "lower",
           "ru_maxrss of the child at exit (median over children)", 0.10),
    Metric("sim_cycles", "cycles", SIM, "lower",
           "simulated makespan of the fixed region"),
    Metric("sim_instructions", "instructions", SIM, "lower",
           "simulated instructions retired in the fixed region"),
    Metric("sim_latency_p50_cycles", "cycles", SIM, "lower",
           "median simulated latency of one op in the fixed region"),
    Metric("sim_latency_p90_cycles", "cycles", SIM, "lower",
           "90th-percentile simulated op latency in the fixed region"),
    Metric("ops", "count", COUNT, "higher",
           "ops attempted in the fixed region (a PR cannot get faster by "
           "doing less)"),
]
#: reported beside the metrics, as failed / attempted; must stay 0
FAILED_SHARE = Metric(
    "failed_share", "share", COUNT, "lower",
    "ops that raised, were shed, returned wrong rows or a wrong order, ran "
    "below the expected tier, or left >1% of samples unattributed, over "
    "ops attempted",
)


def _layer(name, unit, clock, better, definition, *moves):
    return Metric(name, unit, clock, better, definition, moves=moves)


_FUNNEL = ("wall_s", COLD_PATHS)
_WARM = ("wall_s", ("repeat_warm", "serve_steady"))

PER_LAYER = [
    # set-up
    _layer("import.s", "s", HOST, "lower", "importing repro",
           ("setup_s", ALL)),
    _layer("data.generate_s", "s", HOST, "lower",
           "generate_tpch / generate_example", ("setup_s", TPCH)),
    _layer("storage.build_s", "s", HOST, "lower", "StorageEngine.build",
           ("setup_s", TPCH)),
    _layer("setup.lowering_s", "s", HOST, "lower",
           "sql + plan + pipeline + codegen + backend self time in set-up",
           ("setup_s", ("repeat_warm", "serve_steady"))),
    _layer("setup.vm_init_s", "s", HOST, "lower",
           "Machine() self time in set-up (today: translation)",
           ("setup_s", ("repeat_warm", "serve_steady"))),
    # storage
    _layer("storage.bytes_touched", "bytes", SIM, "lower",
           "8 x simulated loads in the fixed region",
           ("sim_cycles", ("repeat_warm",))),
    _layer("storage.zone_skip_share", "share", COUNT, "higher",
           "segments pruned / considered (prune_stats)",
           ("sim_instructions", ("repeat_warm",))),
    _layer("storage.bytes_per_user_byte", "ratio", COUNT, "lower",
           "stored payload bytes / plain 8-byte words (space guard)",
           ("peak_rss_mb", TPCH)),
    _layer("storage.encoded_vs_plain_instructions", "ratio", SIM, "lower",
           "q1+q6 instructions, default layout / StorageConfig.plain() "
           "(traced repeat_warm only)",
           ("sim_instructions", ("repeat_warm",)),
           ("wall_s", ("repeat_warm",))),
    # the lowering funnel
    _layer("sql.parse_s", "s", HOST, "lower", "parse", _FUNNEL),
    _layer("sql.bind_s", "s", HOST, "lower", "Binder.bind", _FUNNEL),
    _layer("sql.calls", "count", COUNT, "lower",
           "parse calls in the fixed region; 0 on repeat_warm and "
           "serve_steady", _FUNNEL),
    _layer("plan.physical_s", "s", HOST, "lower", "plan_physical", _FUNNEL),
    _layer("plan.operators", "count", COUNT, "lower",
           "physical operators planned in the fixed region", _FUNNEL),
    _layer("pipeline.decompose_s", "s", HOST, "lower", "decompose", _FUNNEL),
    _layer("pipeline.tasks", "count", COUNT, "lower",
           "tasks in the pipelines built in the fixed region", _FUNNEL),
    _layer("codegen.query_ir_s", "s", HOST, "lower", "generate_query_ir",
           _FUNNEL),
    _layer("codegen.runtime_ir_s", "s", HOST, "lower",
           "build_runtime_module + build_syslib_module", _FUNNEL),
    _layer("codegen.ir_instructions", "count", COUNT, "lower",
           "IR instructions of the query modules generated in the region",
           _FUNNEL),
    _layer("backend.query_s", "s", HOST, "lower",
           "compile_module(QUERY region)", _FUNNEL),
    _layer("backend.runtime_s", "s", HOST, "lower",
           "compile_module(RUNTIME region)", _FUNNEL),
    _layer("backend.syslib_s", "s", HOST, "lower",
           "compile_module(SYSLIB region)", _FUNNEL),
    _layer("backend.code_words", "count", COUNT, "lower",
           "native code words placed in the fixed region", _FUNNEL),
    _layer("plancache.hit_share", "share", COUNT, "higher",
           "plan-cache hits / lookups in the timed region",
           ("wall_s", ("repeat_warm", "serve_steady", "fleet_scatter"))),
    _layer("plancache.evictions", "count", COUNT, "lower",
           "LRU evictions over the run",
           ("wall_s", ("repeat_warm", "serve_steady", "fleet_scatter"))),
    # the simulated machine
    _layer("vm.machine_init_s", "s", HOST, "lower",
           "Machine() self time in the fixed region (today: translation)",
           ("wall_s", COLD_PATHS + ("fleet_scatter",))),
    _layer("vm.run_s", "s", HOST, "lower",
           "Machine.call self time in the fixed region",
           _WARM),
    _layer("vm.cold_penalty_s", "s", HOST, "lower",
           "untraced repeat_warm: first execute of each query minus its "
           "median warm execute, summed",
           ("wall_s", COLD_PATHS + ("fleet_scatter",)),
           ("setup_s", ("serve_steady", "repeat_warm"))),
    _layer("vm.mips", "M/s", HOST, "higher",
           "simulated instructions / vm.run_s", _WARM),
    _layer("vm.tier", "count", COUNT, "higher",
           "highest execution tier a machine ran at", _WARM),
    _layer("vm.l1_miss_share", "share", SIM, "lower",
           "L1 misses / cache accesses",
           ("sim_cycles", ("repeat_warm",))),
    _layer("vm.l2_miss_share", "share", SIM, "lower",
           "L2 misses / cache accesses",
           ("sim_cycles", ("repeat_warm",))),
    _layer("vm.branch_miss_share", "share", SIM, "lower",
           "mispredicts / branches", ("sim_cycles", ("repeat_warm",))),
    _layer("vm.pmu.samples", "count", SIM, "higher",
           "PMU samples taken in the fixed region",
           ("sim_cycles", ("profile_session", "serve_steady"))),
    _layer("vm.pmu.sampling_cycles_share", "share", SIM, "lower",
           "state.sampling_cycles / cycles",
           ("sim_cycles", ("profile_session", "serve_steady")),
           ("sim_latency_p90_cycles", ("profile_session", "serve_steady"))),
    _layer("engine.decode_self_s", "s", HOST, "lower",
           "Database.execute/profile minus their children: row decode, glue",
           ("wall_s", ("repeat_warm",))),
    # the profiler
    _layer("profiling.attribute_s", "s", HOST, "lower",
           "SampleProcessor.attribute", ("wall_s", ("profile_session",))),
    _layer("profiling.samples_per_s", "1/s", HOST, "higher",
           "samples attributed / profiling.attribute_s",
           ("wall_s", ("profile_session",))),
    _layer("profiling.reports_s", "s", HOST, "lower",
           "the nine Profile reports", ("wall_s", ("profile_session",))),
    _layer("profiling.export_s", "s", HOST, "lower",
           "folded_stacks + perf_script + to_json",
           ("wall_s", ("profile_session",))),
    _layer("profiling.attributed_share", "share", SIM, "higher",
           "samples attributed to an operator or the kernel",
           ("ops", ("profile_session",))),
    _layer("profiling.dict_entries", "count", COUNT, "lower",
           "Tagging Dictionary entries (Log A + Log B) of one pass",
           ("peak_rss_mb", ("profile_session",))),
    # the serve tier
    _layer("serve.warm_s", "s", HOST, "lower", "QueryService.warm in set-up",
           ("setup_s", ("serve_steady",))),
    _layer("serve.ramp_s", "s", HOST, "lower", "the first untimed round",
           ("setup_s", ("serve_steady",))),
    _layer("serve.submit_s", "s", HOST, "lower",
           "QueryService.session + submit", ("wall_s", ("serve_steady",))),
    _layer("serve.drain_s", "s", HOST, "lower",
           "QueryService.drain self time: admission + scheduling",
           ("wall_s", ("serve_steady",)),
           ("sim_latency_p90_cycles", ("serve_steady",))),
    _layer("serve.snapshot_s", "s", HOST, "lower",
           "QueryService.profile_snapshot", ("wall_s", ("serve_steady",))),
    _layer("serve.context_switches", "count", SIM, "lower",
           "worker context switches in the timed region",
           ("sim_latency_p90_cycles", ("serve_steady",))),
    _layer("serve.shed", "count", COUNT, "lower", "submissions shed",
           ("ops", ("serve_steady",))),
    _layer("serve.samples", "count", SIM, "higher",
           "always-on samples in the timed region",
           ("sim_cycles", ("serve_steady",))),
    _layer("serve.tag_accuracy", "share", SIM, "higher",
           "samples whose (query, operator) tag resolved",
           ("ops", ("serve_steady",))),
    _layer("serve.tier2_promotions", "count", COUNT, "higher",
           "tier-2 promotions over the run", ("wall_s", ("serve_steady",))),
    _layer("serve.deopts", "count", COUNT, "lower",
           "tier-2 deoptimisations over the run",
           ("wall_s", ("serve_steady",))),
    # the fleet
    _layer("fleet.submit_s", "s", HOST, "lower",
           "Fleet.submit: route planning + scatter",
           ("wall_s", ("fleet_scatter",))),
    _layer("fleet.drain_s", "s", HOST, "lower",
           "Fleet.drain self time: gather and merge",
           ("wall_s", ("fleet_scatter",))),
    _layer("fleet.snapshot_merge_s", "s", HOST, "lower",
           "Fleet.profile_snapshot", ("wall_s", ("fleet_scatter",))),
    _layer("fleet.scattered_share", "share", COUNT, "lower",
           "queries that scattered to every shard",
           ("sim_cycles", ("fleet_scatter",))),
    _layer("fleet.shard_cycle_imbalance", "ratio", SIM, "lower",
           "max / mean shard clock", ("sim_cycles", ("fleet_scatter",))),
    _layer("fleet.shard_plancache_hit_share", "share", COUNT, "higher",
           "shard plan-cache hits / lookups in the timed region",
           ("wall_s", ("fleet_scatter",)),
           ("peak_rss_mb", ("fleet_scatter",))),
    # the view tier
    _layer("views.register_s", "s", HOST, "lower",
           "ViewService.register + subscribe in set-up",
           ("setup_s", ("views_maintain",))),
    _layer("views.apply_s", "s", HOST, "lower",
           "ViewService.apply in the fixed region",
           ("wall_s", ("views_maintain",)),
           ("op_p50_ms", ("views_maintain",))),
    _layer("views.pull_s", "s", HOST, "lower",
           "Subscription.pull in the fixed region",
           ("wall_s", ("views_maintain",))),
    _layer("views.op_p99_ms", "ms", HOST, "lower",
           "untraced 99th-percentile batch latency",
           ("op_p50_ms", ("views_maintain",))),
    _layer("views.maintenance_instructions_per_row", "instructions", SIM,
           "lower", "modelled maintenance instructions per delta row",
           ("sim_instructions", ("views_maintain",))),
    _layer("views.updates_delivered", "count", COUNT, "higher",
           "ViewUpdates pulled by subscribers",
           ("ops", ("views_maintain",))),
    # the trace itself
    _layer("trace.overhead_pct", "%", HOST, "lower",
           "traced wall_s over untraced, minus one",
           ("wall_s", ALL)),
    _layer("trace.self_time_share", "share", HOST, "higher",
           "sum of span self times / traced time of the timed region",
           ("wall_s", ALL)),
]

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}
