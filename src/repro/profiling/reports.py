"""Tailored reports: each developer persona's view of the same samples.

- :func:`annotated_plan` — the domain expert's view (Fig. 6a / 9b): the
  query plan with per-operator cost percentages.
- :func:`annotated_ir` — the operator developer's view (Fig. 6b): the IR
  listing with per-instruction sample shares and owning operators.
- :func:`activity_timeline` — operator activity over time (Fig. 7 / 11).
- :func:`memory_profile` — per-operator memory access patterns (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.printer import format_instr
from repro.plan.physical import PhysicalOperator, explain_physical
from repro.profiling.postprocess import CATEGORY_OPERATOR


def annotated_plan(profile) -> str:
    """Physical plan annotated with per-operator sample percentages."""
    costs = profile.operator_costs()
    annotations = {
        op.op_id: f"{share * 100:.1f}%" for op, share in costs.items()
    }
    return explain_physical(profile.physical, annotations)


def plan_dot(profile) -> str:
    """The annotated plan as Graphviz DOT — the paper's Fig. 9 rendering.

    Node fill intensity tracks each operator's sample share."""
    costs = profile.operator_costs()
    lines = [
        "digraph plan {",
        "  rankdir=BT;",
        '  node [shape=box, style=filled, fontname="monospace"];',
    ]
    for op in profile.physical.walk():
        share = costs.get(op, 0.0)
        intensity = 255 - int(min(1.0, share * 1.6) * 160)
        color = f"#ff{intensity:02x}{intensity:02x}"
        label = op.label.replace('"', "'")
        lines.append(
            f'  n{op.op_id} [label="{label}\n{share * 100:.1f}%", '
            f'fillcolor="{color}"];'
        )
        for child in op.children():
            lines.append(f"  n{child.op_id} -> n{op.op_id};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def annotated_pipelines(profile) -> str:
    """The middle abstraction level: pipelines of tasks with cost shares.

    The dataflow graph (plan) is the top level, IR the bottom; this report
    serves anyone reasoning about materialization points and task placement
    — e.g. which pipeline a fused operator's time is actually spent in.
    """
    task_shares = profile.task_costs()
    lines = ["pipelines of tasks (share of operator-attributed samples):"]
    for pipeline in profile.pipelines:
        total = sum(task_shares.get(task, 0.0) for task in pipeline.tasks)
        lines.append(f"pipeline {pipeline.index}  ({total * 100:.1f}%)")
        for task in pipeline.tasks:
            share = task_shares.get(task, 0.0)
            lines.append(f"  {share * 100:5.1f}%  {task.label}")
    return "\n".join(lines)


def query_breakdown(profile) -> dict:
    """The query/tenant dimension (repro.serve): samples and operator
    shares per query id.

    Under concurrent serving one sample stream carries work from many
    in-flight queries; the tag register's high half says which.  Classic
    single-query profiles collapse to a single ``None`` bucket."""
    by_query: dict = {}
    for attribution in profile.attributions:
        by_query.setdefault(attribution.query_id, []).append(attribution)
    breakdown: dict = {}
    for query_id in sorted(
        by_query, key=lambda q: (q is None, q if q is not None else 0)
    ):
        attrs = by_query[query_id]
        weights = profile.processor.operator_weights(attrs)
        total = sum(weights.values())
        breakdown[query_id] = {
            "samples": len(attrs),
            "operators": (
                {op.label: w / total for op, w in weights.items()}
                if total
                else {}
            ),
        }
    return breakdown


def render_query_breakdown(profile) -> str:
    """Text rendering of :func:`query_breakdown`."""
    breakdown = query_breakdown(profile)
    lines = ["samples per query (tag-register high half):"]
    for query_id, info in breakdown.items():
        label = "unqualified" if query_id is None else f"query {query_id}"
        lines.append(f"{label}: {info['samples']} sample(s)")
        top = sorted(info["operators"].items(), key=lambda kv: -kv[1])[:5]
        for op_label, share in top:
            lines.append(f"  {share * 100:5.1f}%  {op_label}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def _ir_sample_counts(profile) -> tuple[dict[int, float], float]:
    counts: dict[int, float] = {}
    total = 0.0
    for attribution in profile.attributions:
        if attribution.ir_id is None:
            continue
        counts[attribution.ir_id] = counts.get(attribution.ir_id, 0.0) + 1.0
        total += 1.0
    return counts, total


def hot_instructions(profile, n: int = 10) -> list[tuple]:
    """The hottest IR instructions: (share, ir_id, text, owner labels).

    The Listing 1 view — which single lines absorb the most samples —
    usable programmatically (the annotated-IR report shows the same data
    in context)."""
    counts, total = _ir_sample_counts(profile)
    if not total:
        return []
    instr_by_id = {}
    for function in profile.ir_module.functions:
        for instr in function.all_instructions():
            instr_by_id[instr.id] = instr
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])[:n]
    out = []
    for ir_id, count in ranked:
        instr = instr_by_id.get(ir_id)
        text = format_instr(instr) if instr is not None else f"%{ir_id}"
        owners = tuple(
            t.operator.label for t in profile.tagging.tasks_of_instruction(ir_id)
        )
        out.append((count / total, ir_id, text, owners))
    return out


def annotated_ir(profile, pipeline_index: int | None = None) -> str:
    """IR listing with per-instruction shares and operator labels (Fig. 6b)."""
    counts, total = _ir_sample_counts(profile)
    lines: list[str] = []
    for function in profile.ir_module.functions:
        if pipeline_index is not None and function.name != f"pipeline_{pipeline_index}":
            continue
        lines.append(f"define @{function.name} {{")
        for block in function.blocks:
            block_share = sum(
                counts.get(i.id, 0.0) for i in block.instructions
            ) / total * 100 if total else 0.0
            lines.append(f"{block.name}: ({block_share:.1f}%)")
            for instr in block.instructions:
                share = counts.get(instr.id, 0.0) / total * 100 if total else 0.0
                tasks = profile.tagging.tasks_of_instruction(instr.id)
                owner = ", ".join(t.operator.label for t in tasks) or "-"
                lines.append(
                    f"  {share:5.1f}%  {format_instr(instr):60s} {owner}"
                )
        lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


@dataclass
class TimelineBin:
    """One time bucket of the operator-activity report."""

    start_tsc: int
    end_tsc: int
    total: int = 0
    by_operator: dict[PhysicalOperator, float] = field(default_factory=dict)

    def share_of(self, op: PhysicalOperator) -> float:
        if self.total == 0:
            return 0.0
        return self.by_operator.get(op, 0.0) / self.total


@dataclass
class Timeline:
    """Operator activity over the query runtime (Fig. 7)."""

    bins: list[TimelineBin]
    operators: list[PhysicalOperator]


def activity_timeline(profile, bins: int = 25) -> Timeline:
    """Bucket operator-attributed samples by timestamp (§4.3: "determine

    operator activity over the query runtime")."""
    attributions = [
        a for a in profile.attributions if a.category == CATEGORY_OPERATOR
    ]
    operators: list[PhysicalOperator] = []
    for op in profile.physical.walk():
        operators.append(op)
    if not attributions:
        return Timeline([], operators)
    lo = min(a.sample.tsc for a in attributions)
    hi = max(a.sample.tsc for a in attributions) + 1
    width = max(1, (hi - lo) // bins + (1 if (hi - lo) % bins else 0))
    buckets = [
        TimelineBin(start_tsc=lo + i * width, end_tsc=lo + (i + 1) * width)
        for i in range(bins)
    ]
    for attribution in attributions:
        index = min(bins - 1, (attribution.sample.tsc - lo) // width)
        bucket = buckets[index]
        bucket.total += 1
        share = attribution.weight_per_task
        for task in attribution.tasks:
            op = task.operator
            bucket.by_operator[op] = bucket.by_operator.get(op, 0.0) + share
    return Timeline([b for b in buckets if b.total], operators)


def render_timeline(profile, bins: int = 25, width: int = 60) -> str:
    """ASCII rendering of the activity timeline, one row per operator."""
    timeline = activity_timeline(profile, bins)
    if not timeline.bins:
        return "(no samples)"
    involved = sorted(
        {op for b in timeline.bins for op in b.by_operator},
        key=lambda op: op.op_id,
    )
    glyphs = " .:-=+*#%@"
    lines = []
    label_width = max(len(op.label) for op in involved) + 2
    for op in involved:
        cells = []
        for bucket in timeline.bins:
            share = bucket.share_of(op)
            cells.append(glyphs[min(len(glyphs) - 1, int(share * (len(glyphs) - 1)))])
        lines.append(f"{op.label:<{label_width}}|{''.join(cells)}|")
    span = timeline.bins[-1].end_tsc - timeline.bins[0].start_tsc
    lines.append(f"{'':<{label_width}} {span} cycles total")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# plan comparison (§6.1: the optimizer developer "can compare the profiling
# results of different query plans for the same query")


def compare_profiles(profile_a, profile_b,
                     label_a: str = "plan A", label_b: str = "plan B") -> str:
    """Side-by-side comparison of two profiles of the same query."""
    result_a, result_b = profile_a.result, profile_b.result
    lines = [
        f"{'':24} {label_a:>14} {label_b:>14}",
        f"{'cycles (wall)':24} {result_a.cycles:>14,} {result_b.cycles:>14,}",
        f"{'instructions':24} {result_a.instructions:>14,} "
        f"{result_b.instructions:>14,}",
        f"{'samples':24} {len(profile_a.samples):>14} "
        f"{len(profile_b.samples):>14}",
        "",
        f"{'operator kind':24} {label_a:>14} {label_b:>14}",
    ]

    def by_kind(profile):
        shares: dict[str, float] = {}
        for op, share in profile.operator_costs().items():
            shares[op.kind] = shares.get(op.kind, 0.0) + share
        return shares

    kinds_a, kinds_b = by_kind(profile_a), by_kind(profile_b)
    for kind in sorted(set(kinds_a) | set(kinds_b)):
        lines.append(
            f"{kind:24} {kinds_a.get(kind, 0) * 100:>13.1f}% "
            f"{kinds_b.get(kind, 0) * 100:>13.1f}%"
        )
    lines.append("")
    for label, profile in ((label_a, profile_a), (label_b, profile_b)):
        lines.append(f"{label} operators:")
        for op, share in sorted(
            profile.operator_costs().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {share * 100:5.1f}%  {op.label}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# iterative dataflow (§4.2.6)


@dataclass
class Iteration:
    """One detected iteration of an iterative dataflow execution."""

    index: int
    start_tsc: int
    end_tsc: int
    samples: int


def detect_iterations(profile) -> list[Iteration]:
    """Split the sample stream into dataflow iterations (§4.2.6).

    The Tagging Dictionary cannot distinguish iterations — the same
    generated code runs again — so post-processing uses the samples'
    *timestamps*: pipelines execute in ascending order within one
    iteration, so a sample from an earlier pipeline than its predecessor
    marks the start of the next iteration.
    """
    pipeline_of_task = {
        task.id: pipeline.index
        for pipeline in profile.pipelines
        for task in pipeline.tasks
    }
    ordered = [
        a for a in sorted(profile.attributions, key=lambda a: a.sample.tsc)
        if a.category == CATEGORY_OPERATOR and a.tasks
    ]
    if not ordered:
        return []
    iterations: list[Iteration] = []
    start = ordered[0].sample.tsc
    count = 0
    previous_pipeline = -1
    for attribution in ordered:
        pipeline = min(pipeline_of_task[t.id] for t in attribution.tasks)
        if pipeline < previous_pipeline:
            iterations.append(Iteration(
                len(iterations), start, attribution.sample.tsc, count
            ))
            start = attribution.sample.tsc
            count = 0
        previous_pipeline = pipeline
        count += 1
    iterations.append(Iteration(
        len(iterations), start, ordered[-1].sample.tsc + 1, count
    ))
    return iterations


def iteration_report(profile) -> str:
    """Per-iteration summary: span, samples, dominant operator."""
    iterations = detect_iterations(profile)
    if not iterations:
        return "(no samples)"
    lines = [
        f"{len(iterations)} iteration(s) detected",
        f"{'iter':>5} {'start tsc':>12} {'cycles':>10} {'samples':>8}  top operator",
    ]
    for iteration in iterations:
        zoomed = profile.zoom(iteration.start_tsc, iteration.end_tsc)
        costs = zoomed.operator_costs()
        top = max(costs, key=costs.get).label if costs else "-"
        lines.append(
            f"{iteration.index:>5} {iteration.start_tsc:>12,} "
            f"{iteration.end_tsc - iteration.start_tsc:>10,} "
            f"{iteration.samples:>8}  {top}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------


@dataclass
class MemoryAccessProfile:
    """Per-operator load addresses over time (Fig. 12)."""

    accesses: dict[PhysicalOperator, list[tuple[int, int]]]
    # maps an address to the physical structure it belongs to (a storage
    # part, or a 32 KiB page of non-storage memory): the bands
    band_of: "object"

    def address_range(self, op: PhysicalOperator) -> int:
        points = self.accesses.get(op, [])
        if not points:
            return 0
        addrs = [a for _, a in points]
        return max(addrs) - min(addrs)

    def linearity(self, op: PhysicalOperator) -> float:
        """Pearson correlation of (time, address) — ~1.0 for a linear scan,

        ~0 for scattered hash-table access."""
        points = self.accesses.get(op, [])
        return _pearson(points)

    def band_linearity(self, op: PhysicalOperator) -> float:
        """Linearity computed per address *band* and averaged by weight.

        A table scan touches several column arrays in lock-step; globally
        the addresses look like parallel bands (exactly the stripes of the
        paper's Fig. 12), so correlation is computed within each band —
        ~1.0 for sequential scans, ~0 for hash-table access.
        """
        points = self.accesses.get(op, [])
        if len(points) < 3:
            return 0.0
        # compressed layouts pack several small columns within one
        # address window, so bands are the resolved structures
        grouped: dict[object, list[tuple[int, int]]] = {}
        for point in sorted(points, key=lambda p: p[1]):
            grouped.setdefault(self.band_of(point[1]), []).append(point)
        weighted = 0.0
        counted = 0
        for band in grouped.values():
            if len(band) < 3:
                continue
            band.sort(key=lambda p: p[0])
            weighted += _pearson(band) * len(band)
            counted += len(band)
        return weighted / counted if counted else 0.0


def render_worker_timeline(profile, bins: int = 30) -> str:
    """Per-worker activity lanes for multicore profiles.

    Each lane shows one simulated core's sample density over time; gaps are
    barrier waits or morsel starvation — the scheduling view a multicore
    deployment of Tailored Profiling adds on top of the paper's reports.
    """
    attributions = [a for a in profile.attributions if a.category == CATEGORY_OPERATOR]
    if not attributions:
        return "(no samples)"
    lo = min(a.sample.tsc for a in attributions)
    hi = max(a.sample.tsc for a in attributions) + 1
    width = max(1, (hi - lo) // bins + (1 if (hi - lo) % bins else 0))
    workers = sorted({a.worker for a in attributions})
    counts = {w: [0] * bins for w in workers}
    for a in attributions:
        index = min(bins - 1, (a.sample.tsc - lo) // width)
        counts[a.worker][index] += 1
    peak = max(max(row) for row in counts.values()) or 1
    glyphs = " .:-=+*#%@"
    lines = []
    for worker in workers:
        cells = "".join(
            glyphs[min(len(glyphs) - 1, int(c / peak * (len(glyphs) - 1)))]
            for c in counts[worker]
        )
        lines.append(f"worker {worker}  |{cells}|")
    return "\n".join(lines)


def ipc_report(cycles_profile, instructions_profile) -> dict[PhysicalOperator, float]:
    """Per-operator IPC, the Figure 1 'IPC (15%)' style annotation.

    Combines two profiles of the *same* query: one sampled on cycles, one
    on retired instructions.  An operator's IPC is its instruction share
    scaled by total instructions over its cycle share scaled by total
    cycles — low IPC flags memory- or dependency-bound operators.
    """
    cycle_shares = cycles_profile.operator_costs()
    instr_shares = instructions_profile.operator_costs()
    total_cycles = cycles_profile.result.cycles
    total_instr = instructions_profile.result.instructions
    # the two profiles compiled the same SQL separately, so operators are
    # matched structurally (identical plan shape, different identities)
    counterpart = {
        a: b
        for a, b in zip(
            cycles_profile.physical.walk(), instructions_profile.physical.walk()
        )
    }
    out: dict[PhysicalOperator, float] = {}
    for op, cycle_share in cycle_shares.items():
        twin = counterpart.get(op)
        instr_share = instr_shares.get(twin, 0.0) if twin is not None else 0.0
        if cycle_share <= 0:
            continue
        out[op] = (instr_share * total_instr) / (cycle_share * total_cycles)
    return out


def render_ipc(cycles_profile, instructions_profile) -> str:
    ipc = ipc_report(cycles_profile, instructions_profile)
    lines = ["per-operator IPC (instructions per cycle):"]
    for op, value in sorted(ipc.items(), key=lambda kv: kv[0].op_id):
        lines.append(f"  {op.label:<22} {value:5.2f}")
    return "\n".join(lines)


def _pearson(points: list[tuple[int, int]]) -> float:
    if len(points) < 3:
        return 0.0
    n = len(points)
    ts = [t for t, _ in points]
    addrs = [a for _, a in points]
    mean_t = sum(ts) / n
    mean_a = sum(addrs) / n
    cov = sum((t - mean_t) * (a - mean_a) for t, a in points)
    var_t = sum((t - mean_t) ** 2 for t in ts)
    var_a = sum((a - mean_a) ** 2 for a in addrs)
    if var_t == 0 or var_a == 0:
        return 0.0
    return cov / (var_t**0.5 * var_a**0.5)


def memory_profile(profile) -> MemoryAccessProfile:
    """Group sampled load addresses by operator (requires MEM_LOADS

    sampling with address capture — §6.1's operator-developer use case).

    Accesses are classified like the paper's Fig. 12: a load that touches a
    base-table column is credited to that table's scan (its rows are
    labelled "orders"/"lineitem"), everything else (hash tables, sort
    buffers) stays with the operator that executed the load.  Stack traffic
    (register spill slots) is filtered out, as data-access profiling tools
    do.
    """
    # base-table column extents -> owning scan operator
    from repro.plan.physical import PhysicalScan

    scans_by_table: dict[str, PhysicalOperator] = {}
    for op in profile.physical.walk():
        if isinstance(op, PhysicalScan) and op.table.name not in scans_by_table:
            scans_by_table[op.table.name] = op
    storage = profile.database.storage

    def owner_by_address(addr: int) -> PhysicalOperator | None:
        # the storage engine knows every segment's extent (including
        # packed/dictionary/run data that has no flat column address)
        ref = storage.resolve(addr)
        return scans_by_table.get(ref.table) if ref is not None else None

    accesses: dict[PhysicalOperator, list[tuple[int, int]]] = {}
    stacks = [(m.stack_base, m.stack_end) for m in profile.machines]
    for attribution in profile.attributions:
        if attribution.category != CATEGORY_OPERATOR:
            continue
        addr = attribution.sample.memaddr
        if addr is None or any(lo <= addr < hi for lo, hi in stacks):
            continue
        scan = owner_by_address(addr)
        if scan is not None:
            accesses.setdefault(scan, []).append((attribution.sample.tsc, addr))
            continue
        for task in attribution.tasks:
            accesses.setdefault(task.operator, []).append(
                (attribution.sample.tsc, addr)
            )

    def band_of(addr):
        ref = storage.resolve(addr)
        if ref is not None:
            return (ref.table, ref.column, ref.part)
        return addr >> 15  # non-storage memory: 32 KiB pages

    return MemoryAccessProfile(accesses, band_of)


# ---------------------------------------------------------------------------


def storage_breakdown(profile) -> dict:
    """The storage dimension: memaddr samples grouped by the physical
    segment they touched (table, column, shard, segment, encoding, part).

    Requires memaddr-recording sampling and a storage-backed database.
    Returns ``{(table, column): {"samples": n, "encoding": name,
    "segments": {segment_index: count}, "parts": {part: count}}}`` sorted
    by sample count, so a developer can see not just *which column* is hot
    but which slice of it — and whether time goes to the data itself or
    to auxiliary structures (dictionaries, run directories)."""
    weights = profile.processor.storage_weights(profile.attributions)
    grouped: dict = {}
    for ref, count in weights.items():
        entry = grouped.setdefault(
            (ref.table, ref.column),
            {"samples": 0, "encoding": ref.encoding,
             "segments": {}, "parts": {}},
        )
        entry["samples"] += count
        segments = entry["segments"]
        segments[ref.segment] = segments.get(ref.segment, 0) + count
        parts = entry["parts"]
        parts[ref.part] = parts.get(ref.part, 0) + count
    return dict(
        sorted(grouped.items(), key=lambda kv: -kv[1]["samples"])
    )


def render_storage_report(profile) -> str:
    """Text rendering of :func:`storage_breakdown` plus the observed
    zone-map effect (segments considered vs skipped, from the generated
    scan loops' counters)."""
    breakdown = storage_breakdown(profile)
    lines = ["storage dimension (memaddr samples per column segment):"]
    if not breakdown:
        lines.append("  (no storage-attributable samples; "
                     "enable record_memaddr)")
    for (table, column), info in breakdown.items():
        segs = info["segments"]
        hot = sorted(segs.items(), key=lambda kv: -kv[1])[:4]
        seg_text = ", ".join(f"seg {s}: {n}" for s, n in hot)
        if len(segs) > len(hot):
            seg_text += f", ... ({len(segs)} segments total)"
        lines.append(
            f"  {table}.{column} [{info['encoding']}]: "
            f"{info['samples']} sample(s)  ({seg_text})"
        )
        aux = {p: n for p, n in info["parts"].items() if p != "data"}
        if aux:
            aux_text = ", ".join(f"{p}: {n}" for p, n in sorted(aux.items()))
            lines.append(f"    auxiliary structures: {aux_text}")
    storage = getattr(profile.database, "storage", None)
    if storage is not None and storage.prune_stats:
        lines.append("zone-map effect (segments skipped / considered):")
        for (table, index), stats in sorted(storage.prune_stats.items()):
            column = storage.tables[table].columns[index]
            lines.append(
                f"  {table}.{column.name}: {stats.skipped} / "
                f"{stats.considered}  ({stats.skip_share * 100:.1f}%)"
            )
        for line in storage.encoding_advice():
            lines.append(f"  advice: {line}")
    return "\n".join(lines)
