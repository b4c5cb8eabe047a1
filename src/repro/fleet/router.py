"""The fleet router: N sharded query services behind one front door.

A :class:`Fleet` splits one table's rows across N independent
:class:`~repro.serve.QueryService` shards (every other table replicated,
see :mod:`repro.fleet.partition`) and serves queries through
scatter/gather (:mod:`repro.fleet.scatter`).  Like the single service,
the whole fleet is simulated-time deterministic: the host stays
single-threaded, shard services drain in shard order, and every result
is a pure function of the submission sequence.

The router adds the fleet-level policies a single service cannot see:

* **tenant quotas** — a per-tenant cap on in-flight fleet queries,
  shed with the stable ``TENANT_QUOTA`` error code while other tenants
  proceed untouched;
* **partial failure** — a shard killed mid-scatter surfaces as a
  ``SHARD_FAILED`` error (or a ``degraded`` result built from the
  surviving shards when ``allow_partial`` is on) instead of a hang;
* **fleet-wide profiling** — per-shard continuous profiles merge into
  one cross-fleet :class:`~repro.serve.ProfileSnapshot` (sample totals
  are exactly the sum of shard totals), and a shared PGO store feeds
  every shard's profile back into one plan-optimization loop.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.catalog import DataType, StringDictionary
from repro.data.dataset import Dataset, build_database, extract_dataset
from repro.errors import ReproError
from repro.pgo.fingerprint import fingerprint
from repro.serve import (
    CANCELLED,
    COMPILE_ERROR,
    EXEC_ERROR,
    QUEUE_FULL,
    SHARD_FAILED,
    TENANT_QUOTA,
    ProfileSnapshot,
    QueryService,
    ServiceConfig,
    ServiceError,
    ServiceResult,
)
from repro.fleet.partition import PartitionSpec
from repro.fleet.profiling import merge_snapshots
from repro.fleet.scatter import (
    FleetPlanError,
    RoutePlan,
    gather_rows,
    plan_route,
)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the router tier; per-shard knobs pass through."""

    shards: int = 2
    scheme: str = "hash"  # "hash" | "range"
    workers: int = 2  # per shard
    max_inflight: int = 8
    max_queue: int = 32
    morsel_size: int = 256
    profiling: bool = True
    fast_vm: bool = True
    seed: int = 0
    # max in-flight fleet queries per tenant; None = unlimited
    tenant_quota: int | None = None
    # degrade to surviving shards on shard loss instead of failing
    allow_partial: bool = False

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            workers=self.workers,
            max_inflight=self.max_inflight,
            max_queue=self.max_queue,
            morsel_size=self.morsel_size,
            profiling=self.profiling,
            fast_vm=self.fast_vm,
            seed=self.seed,
        )


@dataclass
class FleetResult:
    """What a client gets back for one fleet ticket."""

    ticket: int
    tenant: str
    sql: str
    status: str  # "ok" | "failed" | "cancelled" | "degraded"
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] | None = None
    error: ServiceError | None = None
    scattered: bool = False
    shards: list[int] = field(default_factory=list)  # shards that ran it
    lost_shards: list[int] = field(default_factory=list)
    # sums / maxima over the per-shard sub-results
    instructions: int = 0
    samples: int = 0
    latency_cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")

    @property
    def error_code(self) -> str | None:
        return self.error.code if self.error is not None else None


@dataclass
class _FleetQuery:
    """Router-side bookkeeping for one in-flight fleet query."""

    ticket: int
    tenant: str
    sql: str
    plan: RoutePlan
    subtickets: dict[int, int]  # shard index -> shard ticket
    cancelled: bool = False


class Fleet:
    """Router tier over N partitioned :class:`QueryService` shards."""

    def __init__(self, database, config: FleetConfig | None = None,
                 spec: PartitionSpec | None = None, pgo_store=None):
        config = config or FleetConfig()
        if spec is None:
            spec = PartitionSpec.for_database(
                database, config.shards, scheme=config.scheme
            )
        self._init(extract_dataset(database), config, spec, pgo_store)

    @classmethod
    def from_dataset(cls, dataset: Dataset, config: FleetConfig | None = None,
                     spec: PartitionSpec | None = None,
                     pgo_store=None) -> "Fleet":
        fleet = cls.__new__(cls)
        config = config or FleetConfig()
        if spec is None:
            spec = PartitionSpec.for_dataset(
                dataset, config.shards, scheme=config.scheme
            )
        fleet._init(dataset, config, spec, pgo_store)
        return fleet

    def _init(self, dataset: Dataset, config: FleetConfig,
              spec: PartitionSpec, pgo_store) -> None:
        if config.tenant_quota is not None and config.tenant_quota < 1:
            # every submit would be refused
            raise ReproError("tenant_quota must be >= 1")
        if spec.shards != config.shards:
            raise ReproError(
                f"partition spec has {spec.shards} shards, "
                f"config wants {config.shards}"
            )
        self.config = config
        self.spec = spec
        self.pgo_store = pgo_store
        # one string dictionary for the whole fleet, the unsplit
        # dataset's: every shard and the gather give a string the id (and
        # an absent literal the rank) it has on a single node
        self.dictionary = StringDictionary()
        for table in dataset.tables.values():
            for name, dtype in table.columns:
                if dtype is DataType.STRING:
                    for value in table.values_of(name):
                        self.dictionary.collect(value)
        self.dictionary.freeze()
        service_config = config.service_config()
        self.services = [
            QueryService(
                build_database(slice_, dictionary=self.dictionary),
                service_config, pgo_store=pgo_store,
            )
            for slice_ in spec.split(dataset)
        ]
        self.dead: set[int] = set()
        self._pending: dict[int, _FleetQuery] = {}
        self.results: dict[int, FleetResult] = {}
        self._tickets = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.degraded = 0
        # per-tenant attribution for the fleet profile report
        self.tenant_stats: dict[str, dict] = {}

    @property
    def shards(self) -> int:
        return len(self.services)

    def live_shards(self) -> list[int]:
        return [i for i in range(self.shards) if i not in self.dead]

    # -- client API ----------------------------------------------------------

    def submit(self, sql: str, tenant: str = "default",
               priority: int = 0, timeout_cycles: int | None = None,
               max_instructions: int | None = None) -> int:
        """Queue a query fleet-wide; returns its fleet ticket.

        Raises :class:`ServiceError` with ``TENANT_QUOTA`` when the
        tenant is over its in-flight quota, ``QUEUE_FULL`` when any
        target shard sheds (already-accepted shard subqueries are rolled
        back, so a shed submit leaves no orphans), or ``COMPILE_ERROR``
        when the statement cannot be distributed."""
        quota = self.config.tenant_quota
        if quota is not None:
            inflight = sum(
                1 for query in self._pending.values()
                if query.tenant == tenant and not query.cancelled
            )
            if inflight >= quota:
                raise ServiceError(
                    TENANT_QUOTA,
                    f"tenant {tenant!r} has {inflight} queries in flight "
                    f"(quota {quota})",
                )
        try:
            plan = plan_route(sql, self.spec.table)
        except FleetPlanError as exc:
            raise ServiceError(COMPILE_ERROR, str(exc)) from exc

        if plan.scatter:
            targets = list(range(self.shards))
        else:
            # replicated-only query: complete on any one live shard;
            # spread load deterministically by statement fingerprint
            live = self.live_shards()
            pick = zlib.crc32(fingerprint(sql).encode())
            targets = [live[pick % len(live)]] if live else []

        self._tickets += 1
        ticket = self._tickets
        subtickets: dict[int, int] = {}
        for shard in targets:
            if shard in self.dead:
                continue  # gathered as a lost shard at drain
            try:
                subtickets[shard] = self.services[shard].submit(
                    plan.shard_sql,
                    session=tenant,
                    priority=priority,
                    timeout_cycles=timeout_cycles,
                    max_instructions=max_instructions,
                )
            except ServiceError as exc:
                if exc.code != QUEUE_FULL:
                    raise
                # roll back the scatter: cancel the shard subqueries
                # already accepted so a shed fleet submit is atomic
                for accepted, sub in subtickets.items():
                    self.services[accepted].cancel(sub)
                self._tickets -= 1
                raise
        self._pending[ticket] = _FleetQuery(
            ticket=ticket, tenant=tenant, sql=sql, plan=plan,
            subtickets=subtickets,
        )
        return ticket

    def cancel(self, ticket: int) -> bool:
        """Cancel a fleet query; propagates to every in-flight shard
        subquery.  False if already finished."""
        query = self._pending.get(ticket)
        if query is None or query.cancelled:
            return False
        query.cancelled = True
        for shard, sub in query.subtickets.items():
            self.services[shard].cancel(sub)
        return True

    def kill_shard(self, shard: int) -> None:
        """Simulate losing a shard: cancel its in-flight subqueries and
        stop routing to it.  Pending fleet queries gather without it."""
        if shard < 0 or shard >= self.shards:
            raise ReproError(f"no shard {shard}")
        self.dead.add(shard)
        for query in self._pending.values():
            sub = query.subtickets.get(shard)
            if sub is not None:
                self.services[shard].cancel(sub)

    def drain(self) -> list[FleetResult]:
        """Drain every live shard, then gather pending fleet queries in
        submission order.  Returns this call's results."""
        for shard in self.live_shards():
            self.services[shard].drain()
        out = []
        for ticket in sorted(self._pending):
            result = self._gather(self._pending[ticket])
            self.results[ticket] = result
            self._account(result)
            out.append(result)
        self._pending.clear()
        return out

    def result(self, ticket: int) -> FleetResult | None:
        return self.results.get(ticket)

    # -- gathering -----------------------------------------------------------

    def _gather(self, query: _FleetQuery) -> FleetResult:
        plan = query.plan
        subresults: dict[int, ServiceResult] = {}
        for shard, sub in query.subtickets.items():
            result = self.services[shard].result(sub)
            if result is not None:
                subresults[shard] = result
        result = FleetResult(
            ticket=query.ticket, tenant=query.tenant, sql=query.sql,
            status="ok", scattered=plan.scatter,
            shards=sorted(query.subtickets),
        )
        for sub in subresults.values():
            result.instructions += sub.instructions
            result.samples += sub.samples
            result.latency_cycles = max(result.latency_cycles,
                                        sub.latency_cycles)

        if query.cancelled:
            result.status = "cancelled"
            result.error = ServiceError(
                CANCELLED, f"fleet query {query.ticket} cancelled"
            )
            return result

        # a replicated-only statement that found no live shard at submit
        # wanted any of them
        wanted = (
            query.subtickets
            if query.subtickets and not plan.scatter
            else range(self.shards)
        )
        lost = sorted(
            set(wanted) & self.dead
            | {
                shard for shard, sub in subresults.items()
                if sub.status == "cancelled"
            }
        )
        result.lost_shards = lost
        survivors = [
            subresults[shard]
            for shard in sorted(subresults)
            if shard not in lost
        ]
        if lost:
            degradable = (
                plan.scatter and self.config.allow_partial and survivors
                and all(sub.ok for sub in survivors)
            )
            if not degradable:
                result.status = "failed"
                result.error = ServiceError(
                    SHARD_FAILED,
                    f"shard(s) {lost} lost while query {query.ticket} "
                    "was in flight",
                )
                return result
            result.status = "degraded"

        for sub in survivors:
            if sub.status == "failed":
                result.status = "failed"
                result.error = sub.error
                return result

        return self._merge(result, plan, survivors)

    def _merge(self, result: FleetResult, plan: RoutePlan,
               survivors: list[ServiceResult]) -> FleetResult:
        if not plan.scatter:
            sub = survivors[0]
            result.columns = list(sub.columns)
            result.rows = list(sub.rows or [])
            return result
        try:
            result.rows = gather_rows(
                plan, survivors[0].dtypes,
                [sub.rows or [] for sub in survivors], self.dictionary,
            )
        except ReproError as exc:
            # the engine's binder rejects the statement: what a single
            # node reports as a compile error, with the same message
            result.status = "failed"
            result.error = ServiceError(COMPILE_ERROR, str(exc))
        except (ArithmeticError, ValueError) as exc:
            # mirrors a shard-side runtime failure: e.g. a division the
            # gather evaluates that the shards never executed
            result.status = "failed"
            result.error = ServiceError(EXEC_ERROR, f"gather failed: {exc}")
        else:
            result.columns = list(plan.columns)
        return result

    def _account(self, result: FleetResult) -> None:
        if result.status == "failed":
            self.failed += 1
        elif result.status == "cancelled":
            self.cancelled += 1
        else:
            self.completed += 1
            if result.status == "degraded":
                self.degraded += 1
        stats = self.tenant_stats.setdefault(result.tenant, {
            "queries": 0, "ok": 0, "failed": 0, "cancelled": 0,
            "instructions": 0, "samples": 0, "latencies": [],
        })
        stats["queries"] += 1
        key = "ok" if result.ok else result.status
        stats[key] += 1
        stats["instructions"] += result.instructions
        stats["samples"] += result.samples
        if result.ok:
            stats["latencies"].append(result.latency_cycles)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        shard_stats = [service.stats() for service in self.services]
        return {
            "shards": self.shards,
            "dead_shards": sorted(self.dead),
            "partition": self.spec.describe(),
            "submitted": self._tickets,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "degraded": self.degraded,
            # fleet makespan: the slowest simulated worker clock across
            # every shard — shards run in parallel in simulated time
            "makespan_cycles": max(
                (max(s["worker_cycles"]) for s in shard_stats
                 if s["worker_cycles"]),
                default=0,
            ),
            "per_shard": shard_stats,
        }

    def profile_snapshot(self) -> ProfileSnapshot | None:
        """One fleet-wide profile: the merge of every shard's snapshot.

        Merged sample totals are exactly the sum of per-shard totals —
        the ``fleet-sharded`` fuzz oracle asserts this equality."""
        return merge_snapshots(
            service.profile_snapshot() for service in self.services
        )


def run_fleet_workload(fleet: Fleet, items) -> list:
    """Submit ``(tenant, sql)`` pairs, draining on back-pressure.

    A ``QUEUE_FULL`` shed triggers a drain and one resubmit; a
    ``TENANT_QUOTA`` shed records a failed-submit marker (the quota is
    a policy decision, not back-pressure).  Returns per-item
    :class:`FleetResult` (or the raised :class:`ServiceError` for
    quota sheds) in submission order."""
    tickets: list[tuple] = []  # ("ticket", n) | ("error", exc)
    for tenant, sql in items:
        try:
            tickets.append(("ticket", fleet.submit(sql, tenant=tenant)))
        except ServiceError as exc:
            if exc.code != QUEUE_FULL:
                tickets.append(("error", exc))
                continue
            fleet.drain()
            tickets.append(("ticket", fleet.submit(sql, tenant=tenant)))
    fleet.drain()
    return [
        fleet.result(value) if kind == "ticket" else value
        for kind, value in tickets
    ]
