"""Always-on workload profiling: the PMU never disarms between queries.

The service's workers keep sampling across query boundaries (the PMU
cursor travels with the worker, see :mod:`repro.serve.workers`); this
module turns that continuous sample stream into:

* a per-query :class:`~repro.profiling.profile.Profile` built at query
  completion — fed straight into the PGO feedback store when one is
  attached, closing the profile-guided-optimization loop for *every*
  production query instead of dedicated profiling runs;
* a rolling :class:`ProfileSnapshot`: per-template operator cost shares,
  top-K hot code regions, and latency percentiles across the workload;
* an attribution-accuracy metric: the scheduler knows ground truth (it
  observed which query each sample interrupted), the tag register's
  query-id half is the mechanism under test.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field

from repro.pgo.fingerprint import fingerprint
from repro.profiling.profile import Profile


def percentile(values: list[int], fraction: float) -> int:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


@dataclass
class TemplateStats:
    """Rolling aggregate for one query template (by SQL fingerprint)."""

    sql: str = ""
    queries: int = 0
    samples: int = 0
    instructions: int = 0
    latencies: list[int] = field(default_factory=list)
    operator_samples: Counter = field(default_factory=Counter)

    def operator_shares(self) -> dict[str, float]:
        total = sum(self.operator_samples.values())
        if total == 0:
            return {}
        return {
            label: count / total
            for label, count in self.operator_samples.most_common()
        }


@dataclass
class ViewMaintenanceStats:
    """Rolling maintenance cost of one materialized view (repro.views)."""

    name: str = ""
    batches: int = 0
    samples: int = 0
    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    operator_samples: Counter = field(default_factory=Counter)
    operator_instructions: Counter = field(default_factory=Counter)


def _merged(mine, other):
    """Fold two aggregates of one dataclass type into a fresh one.

    The one merge rule, applied field by field: counts add, lists
    concatenate, labels keep the first non-empty one, counters add
    key-preserving, and keyed sub-aggregates fold per key.  Nothing
    mutable is shared with either operand.
    """
    values = {}
    for f in dataclasses.fields(mine):
        a, b = getattr(mine, f.name), getattr(other, f.name)
        if isinstance(a, Counter):
            # not ``a + b``: that drops non-positive entries, which breaks
            # merge's identity and associativity whenever a zero-count key
            # is present on one side only
            value = Counter(a)
            value.update(b)
        elif isinstance(a, dict):
            value = {}
            for key, stats in (*a.items(), *b.items()):
                seen = value[key] if key in value else type(stats)()
                value[key] = _merged(seen, stats)
        elif isinstance(a, str):
            value = a or b
        else:
            value = a + b
        values[f.name] = value
    return type(mine)(**values)


@dataclass
class ProfileSnapshot:
    """The rolling workload aggregate — the one type that carries it.

    A :class:`ContinuousProfiler` owns a live one and mutates it in place;
    everything outside the profiler (tests, reports, the fleet tier's
    cross-shard merger) sees detached copies from ``profile_snapshot()``,
    which share no container with the live object.

    ``merge`` is associative and commutative up to list order (sample and
    latency totals are sums, region counts are counter sums, per-template
    and per-view stats combine field-wise), which is what lets a fleet
    fold N shard snapshots in any tree shape and always report the same
    totals; ``ProfileSnapshot()`` is its identity, exactly.
    """

    queries: int = 0
    samples: int = 0
    # accuracy bookkeeping: scheduler ground truth vs register tag
    attributed_samples: int = 0
    matched_samples: int = 0
    templates: dict[str, TemplateStats] = field(default_factory=dict)
    regions: Counter = field(default_factory=Counter)
    latencies: list[int] = field(default_factory=list)
    # materialized-view maintenance (repro.views): per-view rolling cost,
    # attributed through the tag register's view-id half
    maintenance_samples: int = 0
    maintenance_instructions: int = 0
    views: dict[int, ViewMaintenanceStats] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Share of register-carrying samples whose decoded query id
        matches the scheduler's ground truth (1.0 when nothing sampled)."""
        if self.attributed_samples == 0:
            return 1.0
        return self.matched_samples / self.attributed_samples

    def merge(self, other: "ProfileSnapshot") -> "ProfileSnapshot":
        """Combine two snapshots into a new one (sources untouched)."""
        return _merged(self, other)

    def render(self, top_k: int = 10) -> str:
        lines = [
            "workload profile",
            f"  queries profiled    {self.queries}",
            f"  samples             {self.samples}",
            f"  tag accuracy        {self.accuracy:.4f}",
            "  latency cycles      "
            f"p50={percentile(self.latencies, 0.50)} "
            f"p95={percentile(self.latencies, 0.95)} "
            f"p99={percentile(self.latencies, 0.99)}",
        ]
        if self.regions:
            lines.append("  hot regions")
            for name, count in self.regions.most_common(top_k):
                lines.append(f"    {count:6d}  {name}")
        for key, stats in sorted(
            self.templates.items(), key=lambda kv: -kv[1].samples
        ):
            lines.append(
                f"  template {key}  ({stats.queries} runs, "
                f"{stats.samples} samples)"
            )
            first = stats.sql.strip().splitlines()[0] if stats.sql else ""
            if first:
                lines.append(f"    {first[:72]}")
            for label, share in list(stats.operator_shares().items())[:6]:
                lines.append(f"    {share:6.1%}  {label}")
        if self.views:
            lines.append(
                f"  view maintenance    {self.maintenance_samples} samples"
            )
            for stats in sorted(
                self.views.values(), key=lambda s: -s.instructions
            ):
                lines.append(
                    f"    view {stats.name}  ({stats.batches} batches, "
                    f"{stats.instructions} instructions, "
                    f"{stats.samples} samples)"
                )
                for label, count in stats.operator_instructions.most_common(6):
                    lines.append(f"      {count:8d}  {label}")
        return "\n".join(lines)


class ContinuousProfiler:
    """Aggregates the always-on sample stream across queries."""

    def __init__(self, database, config, pgo_store=None):
        self.database = database
        self.config = config
        self.pgo_store = pgo_store
        # the live rolling aggregate; only profile_snapshot() leaves here
        self.total = ProfileSnapshot()

    # -- per-unit (called after every dispatched unit of work) --------------

    def observe_unit(self, truth: int, new_samples) -> None:
        """Count fresh samples and score each against ground truth.

        Whoever dispatched the work — the scheduler for a query's unit,
        the view tier for a maintenance charge — knows which query (or
        view) id it installed in the tag register's high half before the
        PMU fired; the register-decoded id is the mechanism being
        validated (§6.3-style accuracy, per query)."""
        total = self.total
        total.samples += len(new_samples)
        for sample in new_samples:
            if sample.registers is None:
                continue
            total.attributed_samples += 1
            if sample.query_id == truth:
                total.matched_samples += 1

    # -- per-view maintenance (called by repro.views after each charge) ----

    def _view_stats(self, view_id: int, name: str) -> ViewMaintenanceStats:
        stats = self.total.views.get(view_id)
        if stats is None:
            stats = self.total.views[view_id] = ViewMaintenanceStats(name=name)
        return stats

    def observe_view_unit(self, view_id: int, name: str, label: str,
                          new_samples, instructions: int, cycles: int,
                          loads: int = 0) -> None:
        """Fold one delta operator's metered maintenance work, plus any
        PMU samples it produced, into the view's rolling stats."""
        stats = self._view_stats(view_id, name)
        stats.samples += len(new_samples)
        stats.instructions += instructions
        stats.cycles += cycles
        stats.loads += loads
        stats.operator_samples[label] += len(new_samples)
        stats.operator_instructions[label] += instructions
        self.total.maintenance_samples += len(new_samples)
        self.total.maintenance_instructions += instructions
        self.observe_unit(view_id, new_samples)

    def note_view_batch(self, view_id: int, name: str) -> None:
        self._view_stats(view_id, name).batches += 1

    # -- per-query (called at completion) ----------------------------------

    def complete_query(self, execution) -> Profile:
        """Build the query's Profile, aggregate it, feed the PGO store."""
        compiled = execution.compiled
        profile = self.database.build_profile(self.config, execution)

        total = self.total
        total.queries += 1
        total.latencies.append(execution.cycles)
        key = fingerprint(compiled.sql)
        stats = total.templates.get(key)
        if stats is None:
            stats = total.templates[key] = TemplateStats(sql=compiled.sql)
        stats.queries += 1
        stats.samples += len(profile.attributions)
        stats.instructions += execution.instructions
        stats.latencies.append(execution.cycles)
        for attribution in profile.attributions:
            weight = attribution.weight_per_task
            for task in attribution.tasks:
                stats.operator_samples[task.operator.label] += weight
        for _, sample in execution.samples:
            info = compiled.program.function_at(sample.ip)
            name = info.name if info else f"ip:{sample.ip:#x}"
            total.regions[name] += 1

        if self.pgo_store is not None:
            self.pgo_store.record(profile)
        return profile

    def profile_snapshot(self) -> ProfileSnapshot:
        """The public point-in-time copy of the rolling aggregate."""
        return ProfileSnapshot().merge(self.total)
