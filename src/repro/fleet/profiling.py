"""Fleet-wide continuous profiling: merge shard profiles, attribute cost.

Each shard's :class:`~repro.serve.ContinuousProfiler` keeps attributing
PMU samples to (query, operator) exactly as in the single-service world;
the fleet layer adds the cross-shard view.  ``merge_snapshots`` folds
the per-shard :class:`~repro.serve.ProfileSnapshot`\\ s into one (merge
is associative and sample-exact: the merged total is the integer sum of
shard totals), and :func:`fleet_profile` wraps that merged snapshot with
the attribution only the router knows — which tenant submitted what,
and which shard burned the cycles.  The merged snapshot also feeds the
shared PGO store, closing the profile-guided-optimization loop across
the whole fleet rather than per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve import ProfileSnapshot
from repro.serve.profiler import percentile


def merge_snapshots(snapshots) -> ProfileSnapshot | None:
    """Fold any number of snapshots into one; None over an empty input."""
    merged: ProfileSnapshot | None = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged


@dataclass
class ShardAttribution:
    """One shard's slice of the fleet-wide sample stream."""

    shard: int
    dead: bool
    queries: int
    samples: int
    accuracy: float


@dataclass
class TenantAttribution:
    """One tenant's slice, as seen by the router."""

    tenant: str
    queries: int
    ok: int
    failed: int
    cancelled: int
    instructions: int
    samples: int
    p50_latency: int
    p95_latency: int


@dataclass
class FleetProfile:
    """The cross-fleet hotspot report: merged profile + attribution."""

    partition: str
    merged: ProfileSnapshot | None
    shards: list[ShardAttribution] = field(default_factory=list)
    tenants: list[TenantAttribution] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return self.merged.samples if self.merged is not None else 0

    def render(self, top_k: int = 10) -> str:
        lines = [
            "fleet profile",
            f"  partition           {self.partition}",
            f"  shards              {len(self.shards)}",
            f"  samples (merged)    {self.samples}",
        ]
        if self.shards:
            lines.append("  per shard:")
            for shard in self.shards:
                state = "dead" if shard.dead else "live"
                lines.append(
                    f"    shard {shard.shard}  {state:<4}  "
                    f"queries {shard.queries:>5}  "
                    f"samples {shard.samples:>7}  "
                    f"accuracy {shard.accuracy:.4f}"
                )
        if self.tenants:
            lines.append("  per tenant:")
            for tenant in self.tenants:
                lines.append(
                    f"    {tenant.tenant:<12} queries {tenant.queries:>5} "
                    f"(ok {tenant.ok}, failed {tenant.failed}, "
                    f"cancelled {tenant.cancelled})  "
                    f"samples {tenant.samples:>7}  "
                    f"p50/p95 {tenant.p50_latency}/{tenant.p95_latency}"
                )
        if self.merged is not None:
            lines.append("")
            lines.append(self.merged.render(top_k))
        return "\n".join(lines)


def fleet_profile(fleet) -> FleetProfile:
    """Build the fleet-wide report from a :class:`repro.fleet.Fleet`."""
    shards = []
    snapshots = []
    for index, service in enumerate(fleet.services):
        snapshot = service.profile_snapshot()
        snapshots.append(snapshot)
        shards.append(ShardAttribution(
            shard=index,
            dead=index in fleet.dead,
            queries=service.completed + service.failed + service.cancelled,
            samples=snapshot.samples if snapshot is not None else 0,
            accuracy=snapshot.accuracy if snapshot is not None else 1.0,
        ))
    tenants = []
    for name in sorted(fleet.tenant_stats):
        stats = fleet.tenant_stats[name]
        tenants.append(TenantAttribution(
            tenant=name,
            queries=stats["queries"],
            ok=stats["ok"],
            failed=stats["failed"],
            cancelled=stats["cancelled"],
            instructions=stats["instructions"],
            samples=stats["samples"],
            p50_latency=percentile(stats["latencies"], 0.50),
            p95_latency=percentile(stats["latencies"], 0.95),
        ))
    return FleetProfile(
        partition=fleet.spec.describe(),
        merged=merge_snapshots(snapshots),
        shards=shards,
        tenants=tenants,
    )
