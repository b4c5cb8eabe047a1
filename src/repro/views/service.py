"""The reactive serving tier: materialized views over a QueryService.

Clients register standing queries — SQL text or a sealed
:class:`~repro.streaming.flow.EventFlow` — as named materialized views.
The tier compiles each into a delta circuit (:mod:`repro.views.circuit`),
applies base-table delta batches to every registered circuit, and pushes
consolidated, decoded deltas to subscribers through the serve tier's
session manager.  One circuit amortizes over arbitrarily many
subscribers: maintenance cost is paid once per batch, not per client.

Maintenance runs *on the serve tier's VM workers*: every delta operator's
metered cost is replayed onto the least-loaded worker through a
maintenance machine (``Machine.advance_external``) whose tag register
carries ``(view_id, circuit_node_id)``, so the continuous profiler's
sample stream attributes maintenance per view and per delta operator —
the fifth abstraction level (view → circuit → operator → IR → VM) —
and per-view costs land in ``profile_snapshot()`` next to query costs.

Base tables are bags: a delta that would drive any row's weight negative
is rejected atomically (no partial application), so every circuit input
stays a non-negative Z-set and MIN/MAX retraction stays well-defined.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.catalog.schema import (
    DataType,
    decoder,
    encode_date,
    encode_decimal,
)
from repro.errors import CatalogError, ReproError, ViewError
from repro.profiling.tagging import TaggingDictionary
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.views.circuit import Circuit, CostMeter, build_circuit
from repro.views.zset import ZSet
from repro.vm.isa import REG_TAG, CodeRegion, Opcode, Program
from repro.vm.machine import Machine
from repro.vm.memory import Memory

#: view ids live far above any serve query id so the tag register's
#: query half can carry either without collision
VIEW_QUERY_ID_BASE = 1 << 20

#: NOP slots per maintenance pseudo-function: the address span fake
#: sample IPs rotate through (same trick as the kernel stubs)
_FN_SLOTS = 16


@dataclass
class ViewUpdate:
    """One message on a subscription's queue.

    ``kind`` is ``"snapshot"`` (rows are the full materialized state, in
    view order) or ``"delta"`` (rows are ``(row, ±weight)`` pairs).
    Versions are contiguous per view: a subscriber that has applied the
    snapshot at version V and every delta V+1..W holds exactly the
    maintained state at version W — no gaps, no duplicates.
    """

    view: str
    version: int
    kind: str
    rows: list


@dataclass
class Subscription:
    """A session's standing interest in one view."""

    view: str
    session: object
    updates: list[ViewUpdate] = field(default_factory=list)
    active: bool = True

    def pull(self) -> list[ViewUpdate]:
        """Drain the pending update queue."""
        drained, self.updates = self.updates, []
        return drained


class MaterializedView:
    """One registered standing query and its maintained state."""

    def __init__(self, name: str, query_id: int, sql: str | None,
                 circuit: Circuit, dictionary):
        self.name = name
        self.query_id = query_id
        self.sql = sql
        self.circuit = circuit
        self.state = ZSet()  # full result in the circuit root's layout
        self.version = 0
        self.visible: Counter = Counter()  # decoded projected bag
        self.subscribers: list[Subscription] = []
        self.batches = 0
        self.instructions = 0
        self.cycles = 0
        self.loads = 0
        self.samples = 0
        position = circuit.root.layout_ids.index
        self._decoders = [  # (position in a root row, value -> decoded)
            (position(iu.id), decoder(dictionary, iu.dtype))
            for _, iu in circuit.output_columns
        ]

    # -- read side -----------------------------------------------------------

    def _project_decode(self, row: tuple) -> tuple:
        return tuple([decode(row[index]) for index, decode in self._decoders])

    def _ordered_rows(self) -> list[tuple]:
        topk = self.circuit.topk
        if topk is not None:
            return topk.visible()
        rows = list(self.state.rows())
        sort_key = self.circuit.sort_key
        if sort_key is not None:
            rows.sort(key=lambda row: (sort_key(row), row))
        return rows

    def materialize(self) -> list[tuple]:
        """The current full result: decoded, projected, in view order."""
        return [self._project_decode(row) for row in self._ordered_rows()]

    @property
    def columns(self) -> list[str]:
        return [name for name, _ in self.circuit.output_columns]


class ViewService:
    """Registers, maintains, and serves materialized views."""

    def __init__(self, service):
        self.service = service
        self.db = service.db
        self.views: dict[str, MaterializedView] = {}
        self.tags = TaggingDictionary()
        self.batches = 0
        self.maintenance_instructions = 0
        # base-table contents as Z-sets (encoded rows, full schema layout),
        # seeded lazily from the catalog, advanced by every applied delta
        self._tables: dict[str, ZSet] = {}
        # maintenance machines: one per worker index, shared by all views,
        # stacks in a private arena so the service's execution epochs
        # (mark/release over db.memory) never see maintenance allocations
        self._machines: dict[int, Machine] = {}
        self._memory = Memory(1 << 18)
        self._program = Program()
        self._functions: dict[str, object] = {}
        self._next_view = 0

    def __len__(self) -> int:
        return len(self.views)

    # -- registration --------------------------------------------------------

    def register(self, name: str, query) -> MaterializedView:
        """Register ``query`` (SQL text or an EventFlow) as view ``name``.

        The view is populated immediately: the current base-table contents
        are pushed through the fresh circuit as its first delta batch, and
        that initial load is metered as maintenance like any other batch.
        """
        if name in self.views:
            raise ViewError(f"view {name!r} is already registered")
        labels: dict[int, str] = {}
        sql: str | None = None
        if isinstance(query, str):
            sql = query
            stmt = parse(query)
            if _has_scalar_subquery(stmt):
                raise ViewError(
                    "scalar subqueries freeze a point-in-time value and "
                    "cannot be maintained incrementally"
                )
            bound = Binder(self.db.catalog).bind(stmt)
            root = bound.plan
        else:
            root = query._seal()
            labels = query._labels
        circuit = build_circuit(root, labels)
        self._next_view += 1
        view = MaterializedView(
            name, VIEW_QUERY_ID_BASE + self._next_view, sql, circuit,
            self.db.catalog.dictionary,
        )
        self.views[name] = view
        self.tags.register_view(
            view.query_id, name,
            {node.node_id: node.label for node in circuit.nodes},
        )
        # initial load: current table contents as the first delta
        initial = {table: self._table_zset(table) for table in circuit.tables}
        try:
            self._maintain(view, initial)
        except (ValueError, ArithmeticError) as exc:
            del self.views[name]
            raise ViewError(
                f"view {name!r} fails on the current table contents "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        return view

    def view(self, name: str) -> MaterializedView:
        view = self.views.get(name)
        if view is None:
            raise ViewError(f"no view named {name!r}")
        return view

    def unregister(self, name: str) -> None:
        view = self.view(name)
        for subscription in view.subscribers:
            subscription.active = False
        del self.views[name]

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, name: str, session) -> Subscription:
        """Attach ``session`` to a view; the first queued update is a
        consistent snapshot at the view's current version, and every
        subsequent batch enqueues the delta with the next version."""
        view = self.view(name)
        if isinstance(session, str):
            session = self.service.sessions.open(session)
        if session.closed:
            raise ViewError(
                f"session {session.name!r} is closed; reopen it to subscribe"
            )
        subscription = Subscription(view.name, session)
        subscription.updates.append(
            ViewUpdate(view.name, view.version, "snapshot", view.materialize())
        )
        view.subscribers.append(subscription)
        return subscription

    def _push(self, view: MaterializedView, update: ViewUpdate) -> None:
        live = []
        manager = self.service.sessions
        for subscription in view.subscribers:
            session = subscription.session
            # a closed session — or one superseded by a reopen — stops
            # receiving; the reopened session must resubscribe and gets a
            # fresh snapshot (no gap, no duplicate)
            if session.closed or manager.sessions.get(session.name) is not session:
                subscription.active = False
                continue
            subscription.updates.append(update)
            live.append(subscription)
        view.subscribers = live

    # -- delta application ---------------------------------------------------

    def apply(self, deltas: dict[str, list]) -> int:
        """Apply one batch of base-table deltas to every registered view.

        ``deltas`` maps table name to a list of ``(row, weight)`` pairs
        with decoded values (strings as text, dates as ISO text, decimals
        as floats) in schema column order.  Returns the batch number.

        Validation is atomic: if any row of any table would end up with
        negative weight, the whole batch is rejected and no view moves.

        A view whose own expressions fail on a row (a zero divisor) fails
        alone: every other view and subscriber gets the batch, the failing
        view is unregistered, and one ``ViewError`` names it afterwards.
        """
        encoded: dict[str, ZSet] = {}
        for table_name, changes in deltas.items():
            try:
                table = self.db.catalog.table(table_name)
            except CatalogError as exc:
                raise ViewError(str(exc)) from exc
            zset = ZSet()
            encode_row = self._row_encoder(table)
            for row, weight in changes:
                if not isinstance(weight, int) or weight == 0:
                    raise ViewError(
                        f"delta weight must be a non-zero int, got {weight!r}"
                    )
                zset.add(encode_row(row), weight)
            encoded[table_name] = zset
        for table_name, zset in encoded.items():
            base = self._table_zset(table_name)
            for row, weight in zset.items():
                if base.weight(row) + weight < 0:
                    raise ViewError(
                        f"delta drives a {table_name} row below weight zero "
                        f"(base tables are bags): {row!r}"
                    )
        for table_name, zset in encoded.items():
            self._table_zset(table_name).merge(zset)
        self.batches += 1
        failed = []
        for view in list(self.views.values()):
            try:
                self._maintain(view, encoded)
            except (ValueError, ArithmeticError) as exc:
                # the circuit stopped mid-batch, so its state is behind
                # the table's for good: this view fails, not the batch
                self.unregister(view.name)
                failed.append(f"{view.name!r} ({type(exc).__name__}: {exc})")
        if failed:
            raise ViewError(
                f"batch {self.batches} is applied; unregistered the views "
                f"that failed on it: {', '.join(failed)}"
            )
        return self.batches

    def _maintain(self, view: MaterializedView,
                  encoded: dict[str, ZSet]) -> None:
        view.circuit.feed(encoded)
        meter = CostMeter()
        # an operator no delta reaches returns at once and charges nothing
        delta_out = view.circuit.process(meter)
        view.state.merge(delta_out)
        topk = view.circuit.topk
        if topk is not None:
            # view.visible is the window's decoded bag as of the last batch
            topk.update(delta_out, view.state, meter)
            new_bag = Counter(map(view._project_decode, topk.visible()))
            change = Counter(new_bag)
            change.subtract(view.visible)
            view.visible = new_bag
        else:
            change = Counter()
            for row, weight in delta_out.items():
                change[view._project_decode(row)] += weight
            view.visible.update(change)
            view.visible = +view.visible
        sub_delta = [(row, weight) for row, weight in change.items() if weight]
        view.version += 1
        view.batches += 1
        self._charge(view, meter)
        self._push(
            view, ViewUpdate(view.name, view.version, "delta", sub_delta)
        )

    # -- worker charging -----------------------------------------------------

    def _function(self, kind: str):
        info = self._functions.get(kind)
        if info is None:
            body = [(Opcode.NOP, 0, 0, 0)] * _FN_SLOTS
            info = self._program.append_function(
                f"ivm.{kind}", body, CodeRegion.RUNTIME
            )
            self._functions[kind] = info
        return info

    def _machine_for(self, worker) -> Machine:
        machine = self._machines.get(worker.index)
        if machine is None:
            config = self.service._profiler_config
            machine = Machine(
                self._program,
                self._memory,
                pmu_config=config.pmu_config() if config is not None else None,
                fast_vm=False,
            )
            self._machines[worker.index] = machine
        return machine

    def _charge(self, view: MaterializedView, meter: CostMeter) -> None:
        """Replay the metered maintenance cost onto real VM workers.

        Each circuit node's work goes to the currently least-loaded
        worker (the same policy the serve scheduler uses for query units)
        with the tag register carrying (view_id, node_id), so PMU samples
        taken during the charge attribute to the view and operator."""
        service = self.service
        profiler = service.profiler
        node_by_id = {node.node_id: node for node in view.circuit.nodes}
        for node_id in sorted(meter.instructions):
            node = node_by_id[node_id]
            instructions = meter.instructions[node_id]
            loads = meter.loads.get(node_id, 0)
            cycles = instructions  # the maintenance cost model is CPI 1
            worker = min(
                service.workers, key=lambda w: (w.state.cycles, w.index)
            )
            machine = self._machine_for(worker)
            worker.bind(machine)
            machine.regs[REG_TAG] = TaggingDictionary.encode_tag(
                view.query_id, node.node_id
            )
            machine.advance_external(
                self._function(node.kind), cycles, instructions, loads=loads
            )
            # the shared buffer holds this charge's samples only: every
            # unit of work takes its own out (see QueryService._dispatch)
            new_samples = worker.samples.samples
            view.instructions += instructions
            view.cycles += cycles
            view.loads += loads
            view.samples += len(new_samples)
            self.maintenance_instructions += instructions
            if profiler is not None:
                profiler.observe_view_unit(
                    view.query_id, view.name, node.label,
                    new_samples, instructions, cycles, loads=loads,
                )
            new_samples.clear()
        if profiler is not None:
            profiler.note_view_batch(view.query_id, view.name)

    # -- encoding ------------------------------------------------------------

    def _table_zset(self, name: str) -> ZSet:
        zset = self._tables.get(name)
        if zset is None:
            table = self.db.catalog.table(name)
            zset = self._tables[name] = ZSet.from_rows(zip(*table.columns))
        return zset

    def _row_encoder(self, table):
        """``decoded row -> encoded row`` for ``table``: what encodes each
        column is decided here, once, not per value."""
        by_dtype = {
            # the dictionary is frozen at finalize; deltas may only use
            # strings the database has seen
            DataType.STRING: self.db.catalog.dictionary.id_of,
            DataType.DATE: lambda value: (
                value if isinstance(value, int) else encode_date(value)
            ),
            DataType.DECIMAL: encode_decimal,
            DataType.BOOL: lambda value: int(bool(value)),
        }
        columns = table.schema.columns
        encoders = [by_dtype.get(column.dtype, _whole) for column in columns]

        def encode_row(row) -> tuple:
            if len(row) != len(columns):
                raise ViewError(
                    f"{table.name}: delta row has {len(row)} values, "
                    f"schema has {len(columns)}"
                )
            out = []
            for encode, value in zip(encoders, row):
                try:
                    out.append(encode(value))
                except ReproError as exc:
                    raise ViewError(
                        f"cannot encode {table.name}."
                        f"{columns[len(out)].name}={value!r}: {exc}"
                    ) from exc
            return tuple(out)

        return encode_row

    # -- reporting -----------------------------------------------------------

    def maintenance_report(self) -> str:
        """Per-view maintenance cost, resolved through the view dimension
        of the tagging dictionary."""
        lines = [
            "view maintenance",
            f"  batches applied     {self.batches}",
            f"  views registered    {len(self.views)}",
            f"  total instructions  {self.maintenance_instructions}",
        ]
        for view in sorted(
            self.views.values(), key=lambda v: -v.instructions
        ):
            lines.append(
                f"  view {view.name} (id {view.query_id})  "
                f"v{view.version}, {len(view.state)} rows, "
                f"{view.instructions} instructions, {view.samples} samples"
            )
            operators = self.tags.view_operators.get(view.query_id, {})
            profiler = self.service.profiler
            stats = (
                profiler.total.views.get(view.query_id)
                if profiler is not None else None
            )
            if stats is not None:
                for label, count in stats.operator_instructions.most_common():
                    lines.append(f"    {count:8d}  {label}")
            else:
                for node_id, label in sorted(operators.items()):
                    lines.append(f"    node {node_id:3d}  {label}")
        return "\n".join(lines)


def _whole(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ViewError("expects an int")
    return value


def _has_scalar_subquery(node) -> bool:
    """AST walk for ``(select ...)`` used as a scalar value — EXISTS/IN
    subqueries are fine (the binder unnests them to semi-joins)."""
    import dataclasses as _dc

    if isinstance(node, ast.ScalarSubquery):
        return True
    if isinstance(node, (list, tuple)):
        return any(_has_scalar_subquery(item) for item in node)
    if _dc.is_dataclass(node) and not isinstance(node, type):
        return any(
            _has_scalar_subquery(getattr(node, f.name))
            for f in _dc.fields(node)
        )
    return False
