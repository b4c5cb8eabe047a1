"""The Profile object: one profiled query run and its tailored reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.pipeline.tasks import Pipeline, Task
from repro.plan.physical import PhysicalOperator, PhysicalOutput
from repro.profiling import reports
from repro.profiling.postprocess import (
    Attribution,
    AttributionSummary,
    SampleProcessor,
)
from repro.profiling.tagging import TaggingDictionary
from repro.vm import Machine, Program

if TYPE_CHECKING:
    from repro.engine import Database, ProfilerConfig, QueryResult


@dataclass
class Profile:
    """Everything recorded while profiling one query, plus report entry
    points (implemented in :mod:`repro.profiling.reports`)."""

    database: "Database"
    config: "ProfilerConfig"
    physical: PhysicalOutput
    pipelines: list[Pipeline]
    ir_module: object
    program: Program
    machine: Machine
    tagging: TaggingDictionary
    processor: SampleProcessor
    attributions: list[Attribution]
    result: "QueryResult"
    machines: list[Machine] = field(default_factory=list)
    # PGO feedback inputs (repro.pgo): the profiled SQL text, per-task
    # observed tuple counts (when count_tuples was on), and the planner's
    # cardinality estimates keyed by physical op_id
    sql: str = ""
    task_counts: dict[int, int] = field(default_factory=dict)
    estimates: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.machines:
            self.machines = [self.machine]

    @property
    def workers(self) -> int:
        return len(self.machines)

    # -- aggregate views ----------------------------------------------------

    @property
    def samples(self):
        return [a.sample for a in self.attributions]

    def zoom(self, start_tsc: int, end_tsc: int) -> "Profile":
        """Restrict the profile to a time interval (§4.3: after spotting a

        temporal hotspot in the timeline, "narrow down on the next lower
        abstraction level, i.e., limit the results to the time interval of
        the hotspot").  All reports work on the zoomed profile."""
        import dataclasses

        filtered = [
            a for a in self.attributions if start_tsc <= a.sample.tsc < end_tsc
        ]
        return dataclasses.replace(self, attributions=filtered)

    def attribution_summary(self) -> AttributionSummary:
        return self.processor.summarize(self.attributions)

    def operator_costs(self) -> dict[PhysicalOperator, float]:
        """Fraction of operator-attributed samples per operator (Fig. 9b)."""
        weights = self.processor.operator_weights(self.attributions)
        total = sum(weights.values())
        if total == 0:
            return {}
        return {op: w / total for op, w in weights.items()}

    def task_costs(self) -> dict[Task, float]:
        weights = self.processor.task_weights(self.attributions)
        total = sum(weights.values())
        if total == 0:
            return {}
        return {task: w / total for task, w in weights.items()}

    # -- tailored reports: repro.profiling.reports, bound as methods ----------

    annotated_plan = reports.annotated_plan
    plan_dot = reports.plan_dot
    hot_instructions = reports.hot_instructions
    annotated_ir = reports.annotated_ir
    activity_timeline = reports.activity_timeline
    render_timeline = reports.render_timeline
    memory_profile = reports.memory_profile
    annotated_pipelines = reports.annotated_pipelines
    query_breakdown = reports.query_breakdown
    render_query_breakdown = reports.render_query_breakdown
    iterations = reports.detect_iterations
    iteration_report = reports.iteration_report
