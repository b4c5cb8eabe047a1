"""Multi-executor differential oracle.

One query, many executors: the compiled backend single- and multi-worker
(on the template-translated fast VM), the same program on the block
interpreter (``fast_vm=False``), the reference interpreter, the
unoptimized backend, groupjoin fusion, join-order-hint permutations, the
PGO path (profile, cold execute, warm plan-cache execute), and the
concurrent query service (8 in-flight copies sharing 4 workers, checked
for per-query counter isolation against a single-query run).  All of
them must agree on the result bag —
with ordered-prefix semantics when the query carries ORDER BY, and
relative float tolerance for aggregate arithmetic whose evaluation order
legitimately differs across executors (morsel-parallel partial sums).

Frontend rejections (bind or plan errors on the reference path) mean the
query is uninteresting, not wrong; consistent *runtime* errors across all
executors count as agreement.  A config whose plan is impossible (a
disconnected join-order hint) is skipped, never compared.

Beyond result bags, the oracle holds the fast VM to a stronger contract,
translation-schedule invariance (``vm-parity``): with the PMU armed, the
translated engine must reproduce the interpreter's machine state
bit-for-bit — instruction/cycle/load/store counters, cache and
branch-predictor statistics, and the full PMU sample stream (ip, tsc,
branch_taken, memaddr per sample) — whatever schedule translation
follows.  A schedule is a heat threshold, 1 (``[fast]``: every block the
run reaches compiles on its first entry) or the default (``[mixed]``:
loops hand over mid-run, trees regrow), times armed roots that decode
long or stop short as fleet shards' do (``[fast-short]``,
``[mixed-short]``), under an event and a period drawn from the query
text (:func:`vm_parity_profiler`).  Any divergence is a disagreement.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field

from repro.errors import CatalogError, PlanError, ReproError, SqlError
from repro.plan.physical import PlannerOptions

REL_TOLERANCE = 1e-7
ABS_TOLERANCE = 1e-9
# compiled executions run under an instruction budget so a miscompiled
# loop cannot hang the fuzzer (the VM raises instead)
INSTRUCTION_LIMIT = 200_000_000


@dataclass
class Outcome:
    """What one executor config produced for one query."""

    config: str
    kind: str  # "rows" | "error" | "skipped"
    rows: list[tuple] | None = None
    error: str | None = None


@dataclass
class Disagreement:
    """A config whose outcome differs from the reference."""

    config: str
    reference: Outcome
    outcome: Outcome
    reason: str


@dataclass
class CheckResult:
    sql: str
    rejected: bool = False
    reject_reason: str | None = None
    outcomes: list[Outcome] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return not self.rejected and not self.disagreements


def canonical_row(row: tuple) -> tuple:
    """Round floats to 9 significant digits for exact-bag comparison."""
    return tuple(
        float(f"{v:.9g}") if isinstance(v, float) else v for v in row
    )


def _values_close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE)
    return a == b


def _rows_close(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        _values_close(x, y) for x, y in zip(a, b)
    )


def bags_equal(got: list[tuple], want: list[tuple]) -> bool:
    """Multiset equality with float tolerance.

    Exact comparison on canonicalized rows first; only on mismatch fall
    back to greedy tolerant matching (results here are small — tens of
    rows — so the quadratic fallback is cheap).
    """
    if len(got) != len(want):
        return False
    from collections import Counter

    if Counter(map(canonical_row, got)) == Counter(map(canonical_row, want)):
        return True
    remaining = list(want)
    for row in got:
        for i, candidate in enumerate(remaining):
            if _rows_close(row, candidate):
                del remaining[i]
                break
        else:
            return False
    return True


def _key_leq(a, b, ascending: bool) -> bool:
    """Is ``a`` ordered no later than ``b`` for one sort key?"""
    if _values_close(a, b):
        return True
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    return a <= b if ascending else a >= b


def is_sorted(rows: list[tuple], ordered_by: list[tuple[int, bool]]) -> bool:
    """Check rows respect the ORDER BY keys (ties break to later keys)."""
    for prev, row in zip(rows, rows[1:]):
        for index, ascending in ordered_by:
            if _values_close(prev[index], row[index]):
                continue
            if not _key_leq(prev[index], row[index], ascending):
                return False
            break
    return True


class DifferentialOracle:
    """Runs one query through every executor config and compares."""

    def __init__(
        self,
        db,
        *,
        max_hints: int = 4,
        check_pgo: bool = True,
        check_vm_parity: bool = True,
        check_serve: bool = True,
        inject_fault: str | None = None,
        instruction_limit: int = INSTRUCTION_LIMIT,
        storage_twins: dict | None = None,
        fleet_twins: dict | None = None,
    ):
        self.db = db
        self.max_hints = max_hints
        self.check_pgo = check_pgo
        self.check_vm_parity = check_vm_parity
        self.check_serve = check_serve
        # when set, the named fault is injected into the *reference*
        # compile — every healthy executor should then catch the damage
        self.inject_fault = inject_fault
        self.instruction_limit = instruction_limit
        # name -> Database over the same rows with a different physical
        # layout; "plain" and "pruned" (when both present) additionally
        # carry the counter-plausibility contract: identical bytes, so
        # zone-map skipping may only *save* instructions (modulo the
        # per-segment bookkeeping budget)
        self.storage_twins = storage_twins or {}
        # name -> repro.fleet.Fleet over the same rows sharded N ways;
        # every shard count must reproduce the single-node bag, and each
        # fleet's merged profile totals must equal the sum of its
        # per-shard totals (the "fleet-sharded" oracle)
        self.fleet_twins = fleet_twins or {}

    # -- executor configs ----------------------------------------------------

    def _run(self, config: str, thunk) -> Outcome:
        try:
            result = thunk()
        except PlanError as exc:
            if config.startswith("hint["):
                # a disconnected join order is the planner refusing the
                # config, not a wrong answer
                return Outcome(config, "skipped", error=str(exc))
            return Outcome(config, "error", error=f"PlanError: {exc}")
        except Exception as exc:  # noqa: BLE001 - any runtime failure counts
            return Outcome(config, "error", error=f"{type(exc).__name__}: {exc}")
        return Outcome(config, "rows", rows=list(result.rows))

    def outcomes_for(self, sql: str, aliases: list[str]) -> list[Outcome]:
        db = self.db
        fault = self.inject_fault
        limit = self.instruction_limit
        runs: list[tuple[str, object]] = [
            (
                "compiled-w1",
                lambda: db.execute(
                    sql, inject_fault=fault, instruction_limit=limit
                ),
            ),
            (
                "compiled-w4-m7",
                lambda: db.execute(
                    sql, workers=4, morsel_size=7,
                    inject_fault=fault, instruction_limit=limit,
                ),
            ),
            ("interpreted", lambda: db.execute_interpreted(sql)),
            (
                "compiled-novm",
                lambda: db.execute(
                    sql, fast_vm=False,
                    inject_fault=fault, instruction_limit=limit,
                ),
            ),
            (
                "unoptimized",
                lambda: db.execute(
                    sql, optimize_backend=False,
                    inject_fault=fault, instruction_limit=limit,
                ),
            ),
            (
                "groupjoin",
                lambda: db.execute(
                    sql,
                    planner_options=PlannerOptions(enable_groupjoin=True),
                    inject_fault=fault, instruction_limit=limit,
                ),
            ),
        ]
        if len(aliases) > 1:
            hints = list(itertools.permutations(aliases))[: self.max_hints]
            for i, hint in enumerate(hints):
                order = list(hint)
                runs.append((
                    f"hint[{','.join(order)}]",
                    lambda order=order: db.execute(
                        sql, join_order_hint=order,
                        inject_fault=fault, instruction_limit=limit,
                    ),
                ))
        outcomes = [self._run(config, thunk) for config, thunk in runs]
        if self.storage_twins and fault is None:
            outcomes.extend(self._storage_outcomes(sql))
        if self.fleet_twins and fault is None:
            outcomes.extend(self._fleet_outcomes(sql))
        if self.check_pgo and fault is None:
            outcomes.extend(self._pgo_outcomes(sql))
        if self.check_serve and fault is None:
            outcomes.append(self._serve_outcome(sql, "serve-concurrent"))
        return outcomes

    def _storage_outcomes(self, sql: str) -> list[Outcome]:
        """Physical-layout twins: every layout must produce the same bag,
        and the pruned twin (byte-identical to plain, zone-map branches
        added) must not execute more instructions than the plain twin
        beyond the per-segment bookkeeping budget — pruning that *costs*
        instructions means the skip logic is wrong even when the answer
        happens to agree."""
        outcomes = []
        results: dict[str, object] = {}
        for name, twin in self.storage_twins.items():

            def thunk(name=name, twin=twin):
                result = twin.execute(
                    sql, instruction_limit=self.instruction_limit
                )
                results[name] = result
                return result

            outcomes.append(self._run(f"storage-{name}", thunk))
        plain = results.get("plain")
        pruned = results.get("pruned")
        if plain is not None and pruned is not None:
            twin = self.storage_twins["pruned"]
            segments = max(
                (t.segment_count for t in twin.storage.tables.values()),
                default=0,
            )
            budget = 128 * (segments + 1)
            if pruned.instructions > plain.instructions + budget:
                outcomes.append(Outcome(
                    "storage-counters", "error",
                    error=(
                        "counter plausibility violated: pruned layout ran "
                        f"{pruned.instructions} instructions vs plain "
                        f"{plain.instructions} (budget +{budget})"
                    ),
                ))
        return outcomes

    def _fleet_outcomes(self, sql: str) -> list[Outcome]:
        """Sharded serving twins: the router's scatter/gather over N
        shards must reproduce the single-node bag for every shard count,
        and each fleet's merged profile snapshot must account for exactly
        the sum of its per-shard sample totals.  A router refusal (the
        statement cannot be distributed — e.g. the partitioned table
        inside a subquery) is a skip, not a wrong answer."""
        from repro.serve import COMPILE_ERROR, ServiceError

        outcomes = []
        for name, fleet in self.fleet_twins.items():
            config = f"fleet-{name}"
            try:
                ticket = fleet.submit(
                    sql, tenant="fuzz",
                    max_instructions=self.instruction_limit,
                )
                fleet.drain()
                result = fleet.result(ticket)
            except ServiceError as exc:
                if exc.code == COMPILE_ERROR:
                    # submit-time COMPILE_ERROR is the router refusing to
                    # distribute (the frontend gate already accepted the
                    # statement), so the config is impossible, not wrong
                    outcomes.append(Outcome(config, "skipped", error=str(exc)))
                else:
                    outcomes.append(Outcome(
                        config, "error", error=f"ServiceError: {exc.code}"
                    ))
                continue
            except Exception as exc:  # noqa: BLE001 - compared by kind
                outcomes.append(Outcome(
                    config, "error", error=f"{type(exc).__name__}: {exc}"
                ))
                continue
            if result.status == "ok":
                outcomes.append(Outcome(
                    config, "rows", rows=list(result.rows)
                ))
            elif result.status == "failed":
                outcomes.append(Outcome(
                    config, "error",
                    error=f"ServiceError: {result.error_code}",
                ))
            else:
                outcomes.append(Outcome(
                    config, "error",
                    error=f"unexpected fleet status {result.status!r}",
                ))
            snapshot = fleet.profile_snapshot()
            if snapshot is not None:
                shard_total = sum(
                    shard.profile_snapshot().samples
                    for shard in fleet.services
                )
                if snapshot.samples != shard_total:
                    outcomes.append(Outcome(
                        f"{config}-profile-totals", "error",
                        error=(
                            "fleet profile totals violated: merged "
                            f"{snapshot.samples} samples vs per-shard sum "
                            f"{shard_total}"
                        ),
                    ))
        return outcomes

    def _pgo_outcomes(self, sql: str) -> list[Outcome]:
        """Profile-feedback compiles: sampled run, cold plan, warm cache."""
        db = self.db
        saved_store = db.pgo_store
        db.enable_pgo()
        try:
            profiled = self._run(
                "pgo-profile", lambda: db.profile(sql, pgo=True).result
            )
            cold = self._run("pgo-cold", lambda: db.execute(sql, pgo=True))
            warm = self._run("pgo-warm", lambda: db.execute(sql, pgo=True))
            return [profiled, cold, warm]
        finally:
            db.pgo_store = saved_store
            db.plan_cache.clear()

    def _serve_outcome(self, sql: str, config: str) -> Outcome:
        """The concurrent query service: 8 in-flight copies on 4 workers.

        The service's per-query counters (instructions, loads, stores,
        tuple counters) and rows must be *interleaving-invariant*: all 8
        concurrent instances must report bit-identical values, and those
        values must match a single-query run of the same service config.
        Any isolation breach is folded into an "error" outcome so the
        generic kind comparison flags it against the rows reference."""
        from repro.serve import QueryService, ServiceConfig

        service_config = ServiceConfig(
            workers=4, max_inflight=8, morsel_size=97, profiling=True,
        )
        limit = self.instruction_limit

        def signature(result):
            return (
                result.instructions, result.loads, result.stores,
                tuple(sorted(result.task_counts.items())),
                tuple(map(tuple, result.rows or [])),
            )

        def run(copies: int):
            service = QueryService(self.db, service_config)
            tickets = [
                service.session(f"fuzz-{i}").submit(
                    sql, max_instructions=limit
                )
                for i in range(copies)
            ]
            service.drain()
            return service, [service.result(t) for t in tickets]

        try:
            service, concurrent = run(8)
            _, solo = run(1)
        except Exception as exc:  # noqa: BLE001 - any failure is an outcome
            return Outcome(
                config, "error", error=f"{type(exc).__name__}: {exc}"
            )

        statuses = {r.status for r in concurrent + solo}
        if statuses == {"failed"}:
            codes = {r.error_code for r in concurrent + solo}
            if len(codes) == 1:
                return Outcome(
                    config, "error", error=f"ServiceError: {codes.pop()}"
                )
            return Outcome(
                config, "error",
                error=f"inconsistent failure codes across instances: {codes}",
            )
        if statuses != {"ok"}:
            return Outcome(
                config, "error",
                error=f"mixed statuses across instances: {statuses}",
            )

        reference = signature(concurrent[0])
        for instance in concurrent[1:]:
            if signature(instance) != reference:
                return Outcome(
                    config, "error",
                    error=(
                        "per-query counter isolation violated: instance "
                        f"{instance.ticket} differs from instance 1"
                    ),
                )
        if signature(solo[0]) != reference:
            return Outcome(
                config, "error",
                error=(
                    "concurrent counters differ from the single-query run"
                ),
            )
        snapshot = service.profile_snapshot()
        if snapshot is not None and snapshot.accuracy < 0.99:
            return Outcome(
                config, "error",
                error=(
                    "sample attribution accuracy "
                    f"{snapshot.accuracy:.4f} below 0.99"
                ),
            )
        return Outcome(config, "rows", rows=list(concurrent[0].rows))

    def _vm_signature(
        self, sql: str, fast_vm: bool, config: str,
        hot_entries: int | None = None, long_armed_roots: bool = True,
    ) -> Outcome:
        """Run once armed and fold the complete machine state into rows.

        The "rows" of this outcome are the counter tuple followed by every
        PMU sample, so the generic bag comparison would be useless — the
        caller compares signatures for exact equality instead.
        ``hot_entries`` replaces the translation's heat threshold, and
        ``long_armed_roots`` picks the translation it runs."""
        from repro.vm.translate import translation_for

        db = self.db
        profiler = vm_parity_profiler(sql)
        try:
            compiled = db._compile(sql, profiler)
            if hot_entries is not None:
                translation_for(
                    compiled.program, profiler.pmu_config(), long_armed_roots
                ).hot_entries = hot_entries
            run = db._run_compiled(
                compiled, profiler, fast_vm=fast_vm,
                long_armed_roots=long_armed_roots,
            )
        except PlanError as exc:
            return Outcome(config, "error", error=f"PlanError: {exc}")
        except Exception as exc:  # noqa: BLE001 - compared against twin
            return Outcome(config, "error", error=f"{type(exc).__name__}: {exc}")
        result = run.result()
        machine = run.machines[0]
        signature = [(
            "counters", result.instructions, result.cycles,
            result.loads, result.stores,
            machine.caches.accesses, machine.caches.l1_misses,
            machine.predictor.branches, machine.predictor.mispredicts,
        )]
        signature.extend(
            (s.ip, s.tsc, s.branch_taken, s.memaddr) for _, s in run.samples
        )
        return Outcome(config, "rows", rows=signature)

    def _vm_parity(self, sql: str) -> list[Disagreement]:
        """Translation-schedule invariance: under an armed PMU, counters,
        cache/predictor state and the sample stream are the interpreter's
        whatever the heat threshold (1: every entered block compiles; the
        default: loops hand over mid-run) and whichever armed roots run
        (long, or short as on fleet shards)."""
        slow = self._vm_signature(sql, False, "vm-parity[interp]")
        signed = [
            self._vm_signature(
                sql, True, f"vm-parity[{heat}{roots}]",
                hot_entries=hot_entries, long_armed_roots=not roots,
            )
            for heat, hot_entries in (("fast", 1), ("mixed", None))
            for roots in ("", "-short")
        ]
        disagreements = []
        for fast in signed:
            if fast.kind != slow.kind:
                disagreements.append(Disagreement(
                    fast.config, slow, fast,
                    reason=(
                        f"interpreter {slow.kind} vs "
                        f"{fast.config} {fast.kind}"
                        + (f": {fast.error}" if fast.error else "")
                    ),
                ))
            elif fast.kind == "error" and fast.error != slow.error:
                disagreements.append(Disagreement(
                    fast.config, slow, fast, reason="error text differs",
                ))
            elif fast.kind == "rows" and fast.rows != slow.rows:
                disagreements.append(Disagreement(
                    fast.config, slow, fast,
                    reason="machine counters or PMU sample stream differ",
                ))
        return disagreements

    # -- comparison ----------------------------------------------------------

    def check(
        self, sql: str, aliases: list[str] | None = None,
        ordered_by: list[tuple[int, bool]] | None = None,
    ) -> CheckResult:
        result = CheckResult(sql=sql)
        aliases = aliases or []
        ordered_by = ordered_by or []

        # frontend gate: a query the binder/planner rejects is not a fuzz
        # finding, it is the generator missing a grammar rule
        try:
            self.db._plan(sql)
        except (SqlError, PlanError, CatalogError) as exc:
            result.rejected = True
            result.reject_reason = f"{type(exc).__name__}: {exc}"
            return result

        outcomes = self.outcomes_for(sql, aliases)
        result.outcomes = outcomes
        reference = outcomes[0]

        for outcome in outcomes[1:]:
            if outcome.kind == "skipped":
                continue
            if outcome.kind != reference.kind:
                result.disagreements.append(Disagreement(
                    outcome.config, reference, outcome,
                    reason=(
                        f"reference {reference.kind} vs "
                        f"{outcome.config} {outcome.kind}"
                    ),
                ))
                continue
            if outcome.kind == "rows" and not bags_equal(
                outcome.rows, reference.rows
            ):
                result.disagreements.append(Disagreement(
                    outcome.config, reference, outcome,
                    reason="result bags differ",
                ))

        if ordered_by:
            for outcome in outcomes:
                if outcome.kind == "rows" and not is_sorted(
                    outcome.rows, ordered_by
                ):
                    result.disagreements.append(Disagreement(
                        outcome.config, reference, outcome,
                        reason="ORDER BY violated",
                    ))

        if self.check_vm_parity and self.inject_fault is None:
            result.disagreements.extend(self._vm_parity(sql))
        return result


VM_PARITY_PERIODS = (128, 300, 700, 1_500, 5_000)


def vm_parity_profiler(sql: str):
    """The armed configuration ``vm-parity[*]`` runs ``sql`` under: one
    of five periods x the five sampled events, picked by a checksum of
    the text, so a corpus case replays under the one that found it.
    (The default period leaves every sampling window thousands of events
    of slack: an error in how a window *ends* shows at the short ones.)"""
    from repro.engine import ProfilerConfig
    from repro.vm.pmu import Event

    events, periods = list(Event), VM_PARITY_PERIODS
    draw = zlib.crc32(sql.encode()) % (len(events) * len(periods))
    return ProfilerConfig(
        event=events[draw % len(events)],
        period=periods[draw // len(events)], record_memaddr=True,
    )


def check_query(db, query, **kwargs) -> CheckResult:
    """Convenience wrapper for a :class:`GeneratedQuery`-shaped object."""
    oracle = DifferentialOracle(db, **kwargs)
    return oracle.check(
        query.sql, aliases=list(query.aliases),
        ordered_by=list(query.ordered_by),
    )


def operator_count(db, sql: str) -> int:
    """Logical-plan operator count — the shrinker's primary size metric."""
    try:
        bound, _physical = db._plan(sql)
    except ReproError:
        return 10**6
    plan = getattr(bound, "plan", None)
    if plan is None:
        return 10**6
    return sum(1 for _ in plan.walk())
