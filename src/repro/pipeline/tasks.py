"""Tasks and pipelines — the abstraction level between plan and IR.

A *pipeline* processes tuples from a source to a materialization point
without copying them in between; a *task* is one operator's contribution to
a pipeline (a materializing operator contributes tasks to several pipelines,
e.g. a join's build and probe).  Tasks are the second abstraction level of
the Tagging Dictionary: Log A links each task to its operator, Log B links
IR instructions to tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.numbering import draw
from repro.plan.physical import PhysicalOperator


@dataclass(frozen=True, eq=False)
class Task:
    """One operator's role in one pipeline."""

    operator: PhysicalOperator
    role: str
    id: int = field(default_factory=lambda: draw("task"))

    @property
    def label(self) -> str:
        return f"{self.role}({self.operator.label})"

    def __repr__(self) -> str:
        return f"<Task {self.id} {self.label}>"


@dataclass
class Pipeline:
    """An ordered task list; the first task drives the tuple loop."""

    index: int
    tasks: list[Task]

    @property
    def driver(self) -> Task:
        return self.tasks[0]

    @staticmethod
    def morsels(total: int, morsel_size: int):
        """Split a tuple domain into ``(index, lo, hi)`` morsel ranges
        (the morsel units of :class:`repro.pipeline.run.PlanRun`)."""
        for index, lo in enumerate(range(0, total, morsel_size)):
            yield index, lo, min(total, lo + morsel_size)

    @property
    def label(self) -> str:
        return " -> ".join(t.label for t in self.tasks)

    def __repr__(self) -> str:
        return f"<Pipeline {self.index}: {self.label}>"
