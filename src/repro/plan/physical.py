"""Physical plan operators and physical planning.

Physical planning chooses hash-join build sides by estimated cardinality and
optionally applies *dataflow-graph operator fusion*: a group-by whose keys
are exactly the probe-side join keys fuses with the join into a groupjoin
(Moerkotte & Neumann [31]; §5.4 of the paper), which the Abstraction
Trackers then attribute section-by-section (groupjoin-join vs
groupjoin-groupby).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.table import Table
from repro.errors import PlanError
from repro.numbering import draw
from repro.plan.cardinality import CardinalityModel
from repro.plan.expr import IU, AggCall, Expr, IURef
from repro.plan.logical import (
    LogicalFilter,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalMap,
    LogicalOperator,
    LogicalOutput,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSort,
)


@dataclass(eq=False)
class PhysicalOperator:
    """Base physical operator; these are the Tagging Dictionary's
    dataflow-graph-level components."""

    op_id: int = field(default_factory=lambda: draw("physical"), init=False)
    logical_id: int | None = field(default=None, init=False)
    # frontends with their own operator vocabulary (the streaming DSL) set
    # this so every profiling report speaks their language
    label_override: str | None = field(default=None, init=False)

    def children(self) -> list["PhysicalOperator"]:
        return []

    @property
    def kind(self) -> str:
        return type(self).__name__.removeprefix("Physical").lower()

    @property
    def label(self) -> str:
        return self.label_override or f"{self.kind}#{self.op_id}"

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(eq=False)
class PhysicalScan(PhysicalOperator):
    table: Table
    alias: str
    column_ius: dict[str, IU]

    @property
    def label(self) -> str:
        return self.label_override or f"scan {self.alias}"


@dataclass(eq=False)
class PhysicalSelect(PhysicalOperator):
    """Filter; fused into the surrounding pipeline by code generation."""

    child: PhysicalOperator
    condition: Expr

    def children(self):
        return [self.child]


@dataclass(eq=False)
class PhysicalMap(PhysicalOperator):
    child: PhysicalOperator
    computed: list[tuple[IU, Expr]]

    def children(self):
        return [self.child]


@dataclass(eq=False)
class PhysicalHashJoin(PhysicalOperator):
    """Build on ``build`` (left), probe with ``probe`` (right)."""

    build: PhysicalOperator
    probe: PhysicalOperator
    build_keys: list[Expr]
    probe_keys: list[Expr]
    residual: Expr | None
    build_payload: list[IU] = field(default_factory=list)

    def children(self):
        return [self.build, self.probe]

    @property
    def label(self) -> str:
        return self.label_override or f"join#{self.op_id}"


@dataclass(eq=False)
class PhysicalSemiJoin(PhysicalOperator):
    """Semi/anti hash join: build the subquery side (keys + any IUs the

    residual needs), probe with the outer side; a probe tuple passes when a
    matching entry exists (semi) or when none does (anti)."""

    build: PhysicalOperator
    probe: PhysicalOperator
    build_keys: list[Expr]
    probe_keys: list[Expr]
    anti: bool = False
    residual: Expr | None = None
    build_payload: list[IU] = field(default_factory=list)

    def children(self):
        return [self.build, self.probe]

    @property
    def label(self) -> str:
        return self.label_override or f"{'anti' if self.anti else 'semi'} join#{self.op_id}"


@dataclass(eq=False)
class PhysicalGroupBy(PhysicalOperator):
    child: PhysicalOperator
    keys: list[tuple[IU, Expr]]
    aggregates: list[AggCall]

    def children(self):
        return [self.child]

    @property
    def label(self) -> str:
        return self.label_override or f"group by#{self.op_id}"


@dataclass(eq=False)
class PhysicalGroupJoin(PhysicalOperator):
    """Fused group-by + join (dataflow-graph operator fusion)."""

    build: PhysicalOperator
    probe: PhysicalOperator
    build_keys: list[Expr]
    probe_keys: list[Expr]
    key_ius: list[IU]
    aggregates: list[AggCall]
    build_payload: list[IU] = field(default_factory=list)

    def children(self):
        return [self.build, self.probe]


@dataclass(eq=False)
class PhysicalSort(PhysicalOperator):
    child: PhysicalOperator
    keys: list[tuple[Expr, bool]]
    limit: int | None = None

    def children(self):
        return [self.child]


@dataclass(eq=False)
class PhysicalLimit(PhysicalOperator):
    child: PhysicalOperator
    count: int

    def children(self):
        return [self.child]


@dataclass(eq=False)
class PhysicalOutput(PhysicalOperator):
    child: PhysicalOperator
    columns: list[tuple[str, IU]]

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class PlannerOptions:
    """Physical planning knobs (swept by the ablation benchmarks)."""

    enable_groupjoin: bool = False


def plan_physical(
    root: LogicalOperator,
    model: CardinalityModel | None = None,
    options: PlannerOptions | None = None,
) -> PhysicalOperator:
    """Lower a logical plan to a physical plan."""
    model = model or CardinalityModel()
    options = options or PlannerOptions()

    def convert(node: LogicalOperator) -> PhysicalOperator:
        if isinstance(node, LogicalScan):
            phys: PhysicalOperator = PhysicalScan(node.table, node.alias, node.column_ius)
        elif isinstance(node, LogicalFilter):
            phys = PhysicalSelect(convert(node.child), node.condition)
        elif isinstance(node, LogicalMap):
            phys = PhysicalMap(convert(node.child), node.computed)
        elif isinstance(node, LogicalJoin):
            phys = _convert_join(node)
        elif isinstance(node, LogicalSemiJoin):
            # the subquery side is always built; residual-referenced inner
            # IUs become the entry payload
            residual_ius = node.residual.ius() if node.residual else set()
            payload = [iu for iu in node.right.output_ius() if iu in residual_ius]
            phys = PhysicalSemiJoin(
                build=convert(node.right),
                probe=convert(node.left),
                build_keys=node.right_keys,
                probe_keys=node.left_keys,
                anti=node.anti,
                residual=node.residual,
                build_payload=payload,
            )
        elif isinstance(node, LogicalGroupBy):
            phys = _convert_groupby(node)
        elif isinstance(node, LogicalSort):
            phys = PhysicalSort(convert(node.child), node.keys)
        elif isinstance(node, LogicalLimit):
            child = convert(node.child)
            if isinstance(child, PhysicalSort) and child.limit is None:
                child.limit = node.count
                phys = child
            else:
                phys = PhysicalLimit(child, node.count)
        elif isinstance(node, LogicalOutput):
            phys = PhysicalOutput(convert(node.child), node.columns)
        else:
            raise PlanError(f"cannot lower {type(node).__name__}")
        phys.logical_id = node.op_id
        return phys

    def _convert_join(node: LogicalJoin) -> PhysicalOperator:
        left_card = model.estimate(node.left)
        right_card = model.estimate(node.right)
        if left_card <= right_card:
            build, probe = node.left, node.right
            build_keys, probe_keys = node.left_keys, node.right_keys
        else:
            build, probe = node.right, node.left
            build_keys, probe_keys = node.right_keys, node.left_keys
        build_phys = convert(build)
        probe_phys = convert(probe)
        payload = [iu for iu in build.output_ius()]
        return PhysicalHashJoin(
            build_phys, probe_phys, build_keys, probe_keys, node.residual, payload
        )

    def _convert_groupby(node: LogicalGroupBy) -> PhysicalOperator:
        if options.enable_groupjoin:
            fused = _try_groupjoin(node)
            if fused is not None:
                return fused
        return PhysicalGroupBy(convert(node.child), node.keys, node.aggregates)

    def _try_groupjoin(node: LogicalGroupBy) -> PhysicalOperator | None:
        """Fuse ``groupby(join)`` when grouping exactly on the join key of a

        join whose build side is unique on that key and the aggregates only
        read probe-side values — the conditions for groupjoin correctness."""
        child = node.child
        if not isinstance(child, LogicalJoin):
            return None
        join = child
        key_exprs = [expr for _, expr in node.keys]
        if len(key_exprs) != len(join.left_keys) or join.residual is not None:
            return None

        def same_refs(a: list[Expr], b: list[Expr]) -> bool:
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if not (isinstance(x, IURef) and isinstance(y, IURef)):
                    return False
                if x.iu is not y.iu:
                    return False
            return True

        for build, probe, bkeys, pkeys in (
            (join.left, join.right, join.left_keys, join.right_keys),
            (join.right, join.left, join.right_keys, join.left_keys),
        ):
            if not (same_refs(key_exprs, bkeys) or same_refs(key_exprs, pkeys)):
                continue
            # build side must be unique on the key
            build_card = model.estimate(build)
            key_ndv = model.ndv(bkeys[0], 0.0)
            if key_ndv < build_card * 0.99:
                continue
            probe_ius = set(probe.output_ius())
            build_ius = set(build.output_ius())
            agg_ok = all(
                agg.arg is None or agg.arg.ius() <= probe_ius
                for agg in node.aggregates
            )
            if not agg_ok:
                continue
            key_ius = [iu for iu, _ in node.keys]
            # the group keys must resolve on the build side for HT layout
            keys_on_build = all(
                isinstance(e, IURef) and e.iu in build_ius for e in bkeys
            )
            if not keys_on_build:
                continue
            return PhysicalGroupJoin(
                convert(build),
                convert(probe),
                bkeys,
                pkeys,
                key_ius,
                node.aggregates,
                build_payload=list(build.output_ius()),
            )
        return None

    return convert(root)


def explain_physical(
    op: PhysicalOperator, annotations: dict[int, str] | None = None
) -> str:
    """Indented physical plan rendering, optionally annotated per operator."""
    lines: list[str] = []

    def walk(node: PhysicalOperator, depth: int) -> None:
        text = node.label
        if isinstance(node, PhysicalSelect):
            text += f" [{node.condition}]"
        elif isinstance(node, PhysicalSort):
            keys = ", ".join(f"{e}{'' if asc else ' desc'}" for e, asc in node.keys)
            text += f" [{keys}]"
        elif isinstance(node, (PhysicalHashJoin, PhysicalGroupJoin, PhysicalSemiJoin)):
            pairs = ", ".join(
                f"{b} = {p}" for b, p in zip(node.build_keys, node.probe_keys)
            )
            text += f" [{pairs}]"
            if getattr(node, "residual", None) is not None:
                text += f" residual [{node.residual}]"
        elif isinstance(node, PhysicalGroupBy):
            text += f" [{', '.join(str(e) for _, e in node.keys)}]"
        if annotations and node.op_id in annotations:
            text += f"  ({annotations[node.op_id]})"
        lines.append("  " * depth + text)
        for child in node.children():
            walk(child, depth + 1)

    walk(op, 0)
    return "\n".join(lines)
