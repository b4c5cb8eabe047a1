"""Code-generation context: query state layout, tuple contexts, hooks.

The :class:`CodegenContext` carries everything shared across one query's
pipelines: the IR module, the state-block layout, the Abstraction Tracker
for tasks, the Tagging Dictionary, and the data environment (table
storage, the year lookup table) provided by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import CodegenError
from repro.ir import IRBuilder, Instr, Module, Type
from repro.ir.nodes import Value
from repro.pipeline.tasks import Task
from repro.plan.expr import IU
from repro.profiling.tagging import TaggingDictionary
from repro.profiling.trackers import AbstractionTracker


class DataEnvironment(Protocol):
    """What the engine must provide for codegen to embed constant addresses."""

    def year_table(self) -> tuple[int, int]:
        """Returns (address, base_ordinal) of the day->year lookup table."""
        ...

    def register_sort(self, descriptor) -> int:
        """Register a kernel sort descriptor; returns its id."""
        ...

    def table_storage(self, table_name: str):
        """The table's :class:`repro.storage.TableStorage`."""
        ...


@dataclass
class HashTableSpec:
    """One hash table's state slot and geometry (sized at compile time
    from cardinality estimates, grown at runtime through the kernel)."""

    name: str
    state_offset: int
    directory_slots: int
    entry_words: int
    initial_entries: int
    key_count: int

    def key_offset(self, index: int) -> int:
        return 16 + index * 8  # after next + hash

    def payload_offset(self, index: int) -> int:
        return 16 + (self.key_count + index) * 8


@dataclass
class BufferSpec:
    """One materialization buffer's state slot and row layout."""

    name: str
    state_offset: int
    row_words: int
    initial_rows: int


class StateLayout:
    """Byte-offset registry for the per-query state block.

    ``constants`` are the plan's read-only data (membership bitmaps):
    word sequences the engine writes at their offset every time it
    initialises a state block, so compiled code owns no memory of its
    own and addresses its constants through the state pointer."""

    def __init__(self):
        self._offset = 0
        self.slots: dict[str, int] = {}
        self.constants: dict[tuple[int, ...], int] = {}  # words -> offset

    def reserve(self, name: str, words: int) -> int:
        if name in self.slots:
            raise CodegenError(f"state slot {name!r} reserved twice")
        offset = self._offset
        self.slots[name] = offset
        self._offset += words * 8
        return offset

    def constant(self, words: tuple[int, ...]) -> int:
        """The offset of a constant slot holding ``words`` (equal
        sequences share one slot)."""
        offset = self.constants.get(words)
        if offset is None:
            offset = self.reserve(f"constant_{len(self.constants)}", len(words))
            self.constants[words] = offset
        return offset

    @property
    def size_bytes(self) -> int:
        return max(self._offset, 8)


@dataclass
class CodegenContext:
    """Shared state for generating one query's IR module."""

    module: Module
    env: DataEnvironment
    tagging: TaggingDictionary
    task_tracker: AbstractionTracker
    state: StateLayout = field(default_factory=StateLayout)

    def install_tagging_listener(self, builder: IRBuilder) -> None:
        """Wire the emission funnel: every IR instruction links to the

        currently-active task (the paper's single-code-location hook)."""

        def listener(instr: Instr) -> None:
            task = self.task_tracker.current
            if task is not None:
                self.tagging.link_instruction(instr.id, task)

        builder.listeners.append(listener)

    def call_runtime(
        self, b: IRBuilder, task: Task, callee: str, args: list[Value],
        type: Type = Type.PTR,
    ) -> Instr:
        """Call a shared runtime function under Register Tagging (Listing 2):

        write the task's tag into the reserved register, call, restore."""
        old = b.settag(b.const(task.id))
        result = b.call(callee, args, type)
        b.settag(old)
        return result


class TupleContext:
    """The set of IUs available at the current point of a pipeline.

    IUs are materialized lazily: a provider emits the IR on first use,
    attributed to the task *requesting* the value — this matches Umbra's
    produce/consume attribution, visible in the paper's Fig. 6b, where the
    loads of the aggregation's input columns are tagged "group by" and the
    join-key column load is part of the hash join's 45.7 %, while the table
    scan keeps only its loop control (2.4 %).  When no task is active (the
    driver loop itself), the provider's owning task is used as fallback.
    """

    def __init__(self, ctx: CodegenContext):
        self._ctx = ctx
        self._values: dict[int, Value] = {}
        self._providers: dict[int, tuple[Task, Callable[[], Value]]] = {}

    def set(self, iu: IU, value: Value) -> None:
        self._values[iu.id] = value

    def provide(self, iu: IU, task: Task, emit: Callable[[], Value]) -> None:
        self._providers[iu.id] = (task, emit)

    def has(self, iu: IU) -> bool:
        return iu.id in self._values or iu.id in self._providers

    def get(self, iu: IU) -> Value:
        value = self._values.get(iu.id)
        if value is not None:
            return value
        entry = self._providers.get(iu.id)
        if entry is None:
            raise CodegenError(f"IU {iu} not available in tuple context")
        owner_task, emit = entry
        if self._ctx.task_tracker.current is not None:
            value = emit()  # attributed to the requesting task
        else:
            with self._ctx.task_tracker.active(owner_task):
                value = emit()
        self._values[iu.id] = value
        return value

    def fork(self) -> "TupleContext":
        """A copy for a nested scope (values emitted there stay there)."""
        child = TupleContext(self._ctx)
        child._values = dict(self._values)
        child._providers = dict(self._providers)
        return child
