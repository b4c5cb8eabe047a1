"""One run of a compiled plan: the phase protocol and the run record.

Morsel-driven execution (§5: Umbra's multicore execution model) is a
sequence of *phases* — ``query_setup``, then per pipeline an optional
``_prepare`` and the pipeline's morsels — each a list of independent
*units*, single function calls into the compiled query.  A phase starts
when the previous one has finished on every core.  :class:`PlanRun` is
that protocol and the record of what it did; a *driver* pops a unit off
``pending``, runs it with :meth:`step` on a machine of its choosing and
reports it with :meth:`unit_finished` before it pops the next (workers
execute serially in the host process, so shared hash tables need no
synchronization; contention is not modeled, see DESIGN.md).

What a driver decides is which core takes a unit and when that core
waits.  ``Database._run_compiled`` owns its cores, so all of them wait at
a phase end; ``QueryService`` shares them between queries, so only the
core picking up the next unit waits until ``ready_tsc``.

The run's counters are summed from per-unit deltas of the core's state
and are *interleaving-invariant*: a unit executes the same instruction
sequence no matter which core runs it or what ran before, because the
only state it reads is the table data and this run's own state block.
Cycles and sample counts are **not** invariant when cores are shared
(cache hierarchy and branch predictor carry over between queries by
design) — the differential oracles compare only the invariant set.
"""

from __future__ import annotations

import sys

from repro.codegen.runtime import BUF_COUNT
from repro.errors import ReproError
from repro.pipeline.tasks import Pipeline
from repro.vm.pmu import Sample

# unit kinds
SETUP = "setup"
PREPARE = "prepare"
MORSEL = "morsel"

#: a morsel size no domain exceeds: each pipeline runs as one morsel
WHOLE_DOMAIN = sys.maxsize


class Unit:
    """One schedulable piece of a run: a single function call."""

    __slots__ = ("kind", "entry", "args", "pipeline", "morsel")

    def __init__(self, kind, entry, args, pipeline=-1, morsel=-1):
        self.kind = kind
        self.entry = entry
        self.args = args
        self.pipeline = pipeline
        self.morsel = morsel

    def __repr__(self) -> str:
        if self.kind == MORSEL:
            return (
                f"<Unit morsel p{self.pipeline}#{self.morsel} "
                f"[{self.args[1]}:{self.args[2]})>"
            )
        return f"<Unit {self.kind} p{self.pipeline}>"


class PlanRun:
    """A compiled plan running over one state block, ``repeats`` times."""

    def __init__(
        self,
        database,
        compiled,
        state_addr: int,
        morsel_size: int,
        start_tsc: int = 0,
        repeats: int = 1,
    ):
        self.database = database
        self.compiled = compiled
        self.state_addr = state_addr
        self.morsel_size = morsel_size
        self.start_tsc = start_tsc
        # simulated time the pending phase may start at, and the latest
        # end of any unit so far
        self.ready_tsc = self._end_tsc = start_tsc
        # core index -> the machine that runs this plan on that core
        self.machines: dict[int, object] = {}
        # the plan's Translation.stats() as the latest unit left them;
        # tiers only rise, so it names the run's highest.  None at tier 0
        self.ran: dict | None = None
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        # busy (not invariant under shared cores) — reporting only
        self.busy_cycles = 0
        self.samples: list[tuple[int, Sample]] = []
        self.raw_morsels: list[tuple[int, int, list]] = []
        # decoded output and PGO tuple counters of the last iteration
        self.rows: list[tuple] | None = None
        self.task_counts: dict[int, int] = {}
        self._phases = self._protocol(repeats)
        self.pending: list[Unit] = next(self._phases)

    def _protocol(self, repeats: int):
        """The run's phases in order.  Resumed only when the previous
        phase has finished, so the state block holds what the next morsel
        domain reads (e.g. a buffer count)."""
        query = self.compiled.query
        state = (self.state_addr,)
        for _ in range(repeats):
            # iterative dataflow (§4.2.6): the same compiled pipelines run
            # again; per-iteration state is rebuilt by query_setup
            self.database._zero_state(
                self.state_addr, self.compiled.query_ir.state
            )
            self.raw_morsels = []
            yield [Unit(SETUP, query["query_setup"].info.start, state)]
            for pipeline in self.compiled.pipelines:
                index = pipeline.index
                prepare = query.get(f"pipeline_{index}_prepare")
                if prepare is not None:
                    yield [Unit(PREPARE, prepare.info.start, state, index)]
                entry = query[f"pipeline_{index}"].info.start
                units = [
                    Unit(MORSEL, entry, (self.state_addr, lo, hi), index, i)
                    for i, lo, hi in Pipeline.morsels(
                        self._domain_total(index), self.morsel_size
                    )
                ]
                # an empty domain (e.g. zero groups) schedules nothing
                if units:
                    yield units

    def _domain_total(self, pipeline_index: int) -> int:
        domain = self.compiled.query_ir.meta.pipeline_domains.get(
            pipeline_index
        )
        if domain is None:
            raise ReproError("pipeline without a morsel domain")
        kind = domain[0]
        if kind in ("rows", "slots"):
            return domain[1]
        if kind == "buffer":
            _, state_offset, limit = domain
            count = self.database.memory.read(
                self.state_addr + state_offset + BUF_COUNT
            )
            return count if limit is None else min(count, limit)
        raise ReproError(f"unknown pipeline domain {domain!r}")

    def step(self, unit: Unit, core: int, machine) -> None:
        """Run ``unit`` on ``machine``, the context of core ``core``, and
        account for it: counter deltas, the samples the core took, the
        rows the call emitted.  A faulting call is accounted up to the
        fault, which then propagates."""
        state = machine.state
        instructions, loads, stores, cycles = (
            state.instructions, state.loads, state.stores, state.cycles
        )
        buffered = len(machine.samples.samples)
        emitted = len(machine.output)
        self.machines[core] = machine
        try:
            machine.call(unit.entry, unit.args)
        finally:
            translation = machine.translation
            self.ran = translation.stats() if translation else None
            self.instructions += state.instructions - instructions
            self.loads += state.loads - loads
            self.stores += state.stores - stores
            self.busy_cycles += state.cycles - cycles
            self.samples.extend(
                (core, sample)
                for sample in machine.samples.samples[buffered:]
            )
        if unit.kind == MORSEL:
            self.raw_morsels.append(
                (unit.pipeline, unit.morsel, machine.output[emitted:])
            )

    def unit_finished(self, end_tsc: int) -> bool:
        """Count the unit just run, which ended at ``end_tsc``; True when
        it was its phase's last and the next phase (if any) is pending."""
        self._end_tsc = max(self._end_tsc, end_tsc)
        if self.pending:
            return False
        self.ready_tsc = self._end_tsc
        self.pending = next(self._phases, [])
        if not self.pending:
            self._finish()
        return True

    def _finish(self) -> None:
        """Read tuple counters (once, after the last iteration: they feed
        the storage engine's pruning statistics) and decode the rows in
        morsel order."""
        self.task_counts = self.database.read_task_counts(
            self.compiled.query_ir.meta, self.state_addr
        )
        ordered = sorted(self.raw_morsels, key=lambda m: (m[0], m[1]))
        self.rows = self.database.decode_rows(
            (raw for _, _, raws in ordered for raw in raws),
            self.compiled.physical.columns,
        )

    @property
    def cycles(self) -> int:
        """Simulated time from the run's start to its last counted unit."""
        return self._end_tsc - self.start_tsc

    def result(self):
        """The run as a :class:`~repro.engine.QueryResult`."""
        from repro.engine import QueryResult

        ran = self.ran
        return QueryResult(
            columns=[name for name, _ in self.compiled.physical.columns],
            rows=self.rows,
            cycles=self.cycles,
            instructions=self.instructions,
            tier=ran["tier"] if ran else 0,
            translation=ran,
            loads=self.loads,
            stores=self.stores,
        )
