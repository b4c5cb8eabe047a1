"""Parity suite for the template-translated fast VM.

The fast VM (``repro.vm.translate``) must be an *invisible* optimization:
for every program, every PMU configuration, and every failure mode, the
machine state it leaves behind — result values, instruction/cycle/load/
store counters, cache and branch-predictor statistics, error text and
faulting ip, and the complete sample stream — must be bit-identical to
the block interpreter's.  These tests run the same program through both
engines and compare everything observable.
"""

from pathlib import Path

import pytest

from repro.engine import Database, ProfilerConfig
from repro.errors import VMError
from repro.data.queries import ALL_QUERIES
from repro.fuzz import load_case, replay_case
from repro.vm import costs
from repro.vm.isa import (
    CodeRegion, Label, Opcode as Op, Program, assemble, rebase,
)
from repro.vm.kernel import Kernel, install_kernel_stubs
from repro.vm.machine import Machine
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig
from repro.vm.tiering import TieringController
from repro.vm.translate import Translation

CORPUS_DIR = Path(__file__).parent / "corpus"

ALL_EVENTS = [
    Event.INSTRUCTIONS, Event.CYCLES, Event.LOADS,
    Event.L1_MISS, Event.BRANCH_MISS,
]


# -- helpers ---------------------------------------------------------------


def build_program(items, name="f"):
    code, _ = assemble(items)
    program = Program()
    program.append_function(name, rebase(code, 0), CodeRegion.QUERY)
    return program


def machine_observables(machine):
    return {
        "instructions": machine.state.instructions,
        "cycles": machine.state.cycles,
        "loads": machine.state.loads,
        "stores": machine.state.stores,
        "cache_accesses": machine.caches.accesses,
        "l1_misses": machine.caches.l1_misses,
        "branches": machine.predictor.branches,
        "mispredicts": machine.predictor.mispredicts,
        "samples": [
            (s.ip, s.tsc, s.branch_taken, s.memaddr)
            for s in machine.samples.samples
        ],
    }


def run_pair(
    items, pmu=None, with_kernel=False, max_instructions=None, setup=None
):
    """Run the same program on both engines; returns (fast, slow) where
    each side is ``(result_or_error, observables)``."""
    sides = []
    for fast_vm in (True, False):
        program = build_program(items)
        memory = Memory(1 << 20)
        kernel = (
            Kernel(memory, install_kernel_stubs(program))
            if with_kernel else None
        )
        machine = Machine(
            program, memory, pmu_config=pmu, kernel=kernel, fast_vm=fast_vm
        )
        if max_instructions is not None:
            machine.state.max_instructions = max_instructions
        args = setup(machine) if setup else ()
        try:
            outcome = ("ok", machine.call(0, args))
        except VMError as exc:
            outcome = ("error", str(exc), exc.ip)
        sides.append((outcome, machine_observables(machine)))
    return sides


def assert_pair_identical(items, pmu=None, **kwargs):
    fast, slow = run_pair(items, pmu=pmu, **kwargs)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


LOOP_SUM = [
    # r0 = base, r1 = count: writes a[i] = i*i, sums back the odd ones —
    # a store, a load, and a data-dependent branch in every iteration
    (Op.MOVI, 2, 0, 0),        # sum
    (Op.MOVI, 3, 0, 0),        # i
    Label("loop"),
    (Op.CMPGE, 4, 3, 1),
    (Op.BRNZ, 4, "done", 0),
    (Op.SHLI, 5, 3, 3),
    (Op.ADD, 5, 0, 5),         # &a[i]
    (Op.MUL, 6, 3, 3),
    (Op.STORE, 5, 6, 0),       # a[i] = i*i
    (Op.LOAD, 6, 5, 0),
    (Op.ANDI, 7, 6, 1),
    (Op.BRZ, 7, "even", 0),
    (Op.ADD, 2, 2, 6),
    Label("even"),
    (Op.ADDI, 3, 3, 1),
    (Op.JMP, "loop", 0, 0),
    Label("done"),
    (Op.MOV, 0, 2, 0),
    (Op.RET, 0, 0, 0),
]

LOOP_COUNT = 50


def loop_setup(machine):
    base = machine.memory.alloc(LOOP_COUNT * 8)
    return (base, LOOP_COUNT)


# -- machine-level parity --------------------------------------------------


def test_loop_parity_unarmed():
    fast, slow = run_pair(LOOP_SUM, setup=loop_setup)
    assert fast == slow
    assert fast[0][0] == "ok"
    assert fast[0][1] == sum(i * i for i in range(LOOP_COUNT) if i % 2)


@pytest.mark.parametrize("event", ALL_EVENTS, ids=[e.name for e in ALL_EVENTS])
def test_loop_parity_every_event(event):
    pmu = PmuConfig(event=event, period=150, record_memaddr=True)
    assert_pair_identical(LOOP_SUM, pmu=pmu, setup=loop_setup)


def test_parity_at_minimum_fast_period():
    # the smallest period the fast engine still arms for: the sampling
    # windows are barely larger than a block, so the interpreter fallback
    # is exercised constantly
    pmu = PmuConfig(
        event=Event.INSTRUCTIONS, period=costs.FAST_VM_MIN_PERIOD,
        record_memaddr=True,
    )
    fast, slow = run_pair(LOOP_SUM, pmu=pmu, setup=loop_setup)
    assert fast == slow
    assert fast[1]["samples"], "expected samples at this period"


def test_fast_vm_disarms_below_minimum_period():
    pmu = PmuConfig(
        event=Event.INSTRUCTIONS, period=costs.FAST_VM_MIN_PERIOD - 1
    )
    program = build_program(LOOP_SUM)
    machine = Machine(program, Memory(1 << 20), pmu_config=pmu)
    assert machine.translation is None
    armed = Machine(
        program, Memory(1 << 20),
        pmu_config=PmuConfig(
            event=Event.INSTRUCTIONS, period=costs.FAST_VM_MIN_PERIOD
        ),
    )
    assert armed.translation is not None


def test_fast_vm_off_flag_disables_translation():
    program = build_program(LOOP_SUM)
    machine = Machine(program, Memory(1 << 20), fast_vm=False)
    assert machine.translation is None


def test_budget_error_parity():
    # the budget expires mid-loop: the fast engine must hand exactly the
    # remaining window to the interpreter so the error fires at the same
    # instruction with the same counters
    for limit in (37, 100, 333):
        fast, slow = run_pair(
            LOOP_SUM, max_instructions=limit, setup=loop_setup
        )
        assert fast == slow
        assert fast[0][0] == "error"
        assert "instruction budget exceeded" in fast[0][1]


def test_division_fault_parity():
    items = [
        (Op.MOVI, 0, 96, 0),
        (Op.MOVI, 1, 3, 0),
        Label("loop"),
        (Op.ADDI, 1, 1, -1),
        (Op.SDIV, 0, 0, 1),   # divides by 2, then 1, then faults on 0
        (Op.JMP, "loop", 0, 0),
        (Op.RET, 0, 0, 0),
    ]
    fast, slow = run_pair(items)
    assert fast == slow
    assert fast[0][0] == "error"
    assert "division by zero" in fast[0][1]


def test_kernel_call_parity():
    items = [
        (Op.MOVI, 0, 256, 0),
        (Op.KCALL, 0, 0, 0),            # kcall 0 = alloc(r0) -> ptr in r0
        (Op.MOVI, 1, 7, 0),
        (Op.STORE, 0, 1, 0),            # touch the allocation
        (Op.LOAD, 2, 0, 0),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    assert_pair_identical(items, with_kernel=True)
    assert_pair_identical(
        items, with_kernel=True,
        pmu=PmuConfig(event=Event.CYCLES, period=2000, record_memaddr=True),
    )


def test_translation_covers_loop_and_caches():
    program = build_program(LOOP_SUM)
    translation = Translation(program, None)
    assert 0 in translation.blocks
    assert translation.stats()["compiled"] == 0  # nothing compiles up front
    # per-block metadata: worst-case instruction count, event bound, and
    # the (armed-only) linear fallback variant
    fn, max_k, bound, fallback = translation.block(0)
    assert translation.blocks[0] == (fn, max_k, bound, fallback)
    assert callable(fn) and max_k >= 1 and bound >= 0
    assert fallback is None  # unarmed translations have no fallback
    # translations are cached per (program, event)
    m1 = Machine(program, Memory(1 << 20))
    m2 = Machine(program, Memory(1 << 20))
    assert m1.translation is m2.translation


# -- translation on first entry ----------------------------------------------


def fresh_machine(program, pmu=None, **kwargs):
    machine = Machine(program, Memory(1 << 20), pmu_config=pmu, **kwargs)
    return machine, loop_setup(machine)


def test_only_entered_blocks_compile():
    # LOOP_SUM plus a leader no run reaches: the target of a branch
    # that is never taken
    items = LOOP_SUM[:-2] + [
        (Op.MOVI, 7, 0, 0),
        (Op.BRNZ, 7, "dead", 0),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
        Label("dead"),
        (Op.MOVI, 2, -1, 0),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    program = build_program(items)
    dead = next(
        ip for ip, ins in enumerate(program.code)
        if ins[0] == Op.MOVI and ins[2] == -1
    )
    # under a controller the driver counts every block it enters into
    # the translation's entry profile (this one never promotes)
    controller = TieringController(hot_instructions=10**12)
    machine, args = fresh_machine(program, tiering=controller)
    translation = machine.translation
    assert dead in translation.blocks  # a leader, so it has a stub ...
    assert not translation.compiled
    machine.call(0, args)
    assert translation.compiled == set(translation.entries)
    assert dead not in translation.compiled  # ... that never compiled
    stats = translation.stats()
    assert 0 < stats["compiled"] < stats["leaders"]
    assert stats["source_lines"] > 0 and stats["compile_s"] > 0


def test_budget_exhausted_on_a_stub_leader():
    # the first iteration of LOOP_SUM reaches "even" after 11 retired
    # instructions: with the budget at exactly 11 the machine stands on a
    # leader that is still a stub with instructions == max_instructions.
    # The stub admits (it retires nothing), compiles the block and hands
    # the ip back; the real block then fails admission and the
    # interpreter raises the fault.
    even = 12
    outcomes = []
    for fast_vm in (True, False):
        program = build_program(LOOP_SUM)
        machine, args = fresh_machine(program, fast_vm=fast_vm)
        machine.state.max_instructions = 11
        with pytest.raises(VMError, match="instruction budget") as info:
            machine.call(0, args)
        assert info.value.ip == even
        outcomes.append((str(info.value), machine_observables(machine)))
        if fast_vm:
            # compiled during this call, i.e. entered through its stub
            assert even in machine.translation.compiled
    assert outcomes[0] == outcomes[1]
    # and on every other boundary of the first iterations, stub or not
    for limit in range(0, 40):
        fast, slow = run_pair(
            LOOP_SUM, max_instructions=limit, setup=loop_setup
        )
        assert fast == slow


@pytest.mark.parametrize(
    "event", [None] + ALL_EVENTS,
    ids=["unarmed"] + [e.name for e in ALL_EVENTS],
)
def test_first_run_matches_materialised_run(event):
    # one Program, two machines: the first run enters every block through
    # its stub, the second finds the map fully materialised — counters
    # and sample streams must not be able to tell
    pmu = (
        PmuConfig(event=event, period=150, record_memaddr=True)
        if event is not None else None
    )
    program = build_program(LOOP_SUM)
    first, args = fresh_machine(program, pmu)
    translation = first.translation
    first_result = first.call(0, args)
    compiled = set(translation.compiled)
    assert compiled
    second, args = fresh_machine(program, pmu)
    assert second.translation is translation
    assert second.call(0, args) == first_result
    assert translation.compiled == compiled  # nothing new to compile
    assert machine_observables(first) == machine_observables(second)
    assert first._countdown == second._countdown


# -- the fault epilogue ------------------------------------------------------


def faulting_loop(kind):
    """r0 = base, r1 = count, r8 = the iteration whose access goes to the
    bad address in r9 (every other iteration touches a[i])."""
    good, picked = 10, 5
    access = (
        [(Op.STORE, good, 3, 0), (Op.LOAD, 6, picked, 0)]
        if kind == "load"
        else [(Op.LOAD, 6, good, 0), (Op.STORE, picked, 3, 0)]
    )
    return [
        (Op.MOVI, 2, 0, 0),
        (Op.MOVI, 3, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.SHLI, good, 3, 3),
        (Op.ADD, good, 0, good),           # &a[i]
        (Op.CMPEQ, 7, 3, 8),
        (Op.SELECT, picked, 7, (9, good)),
        *access,
        (Op.ADD, 2, 2, 6),
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("done"),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]


FAULT_N = 2000
FAULT_AT = 1500
BAD_ADDRESSES = {
    "unaligned": lambda base: base + 4,
    "null": lambda base: 0,
    "out-of-bounds": lambda base: 1 << 40,
}


def run_faulting(program, bad, *, fault_at, pmu=None, **kwargs):
    machine = Machine(program, Memory(1 << 20), pmu_config=pmu, **kwargs)
    base = machine.memory.alloc(FAULT_N * 8)
    machine.regs[8] = fault_at
    machine.regs[9] = BAD_ADDRESSES[bad](base)
    try:
        outcome = ("ok", machine.call(0, (base, FAULT_N)))
    except VMError as exc:
        outcome = ("error", str(exc), exc.ip)
    return machine, outcome


def full_state(machine):
    from dataclasses import asdict

    return {
        **machine_observables(machine),
        "regs": list(machine.regs),
        "state": asdict(machine.state),
        "countdown": machine._countdown,
        "call_stack": list(machine.call_stack),
    }


@pytest.mark.parametrize("tier", [1, 2])
@pytest.mark.parametrize("bad", list(BAD_ADDRESSES))
@pytest.mark.parametrize("kind", ["load", "store"])
@pytest.mark.parametrize(
    "event", [None] + ALL_EVENTS,
    ids=["unarmed"] + [e.name for e in ALL_EVENTS],
)
def test_memory_fault_parity(event, kind, bad, tier):
    # every load/store error site funnels into the block function's one
    # fault epilogue; whatever the tier (tier-2 loops are deferred) and
    # the sampled event, the machine it leaves behind is the
    # interpreter's — registers, counters, the countdown
    pmu = (
        PmuConfig(event=event, period=2048, record_memaddr=True)
        if event is not None else None
    )
    program = build_program(faulting_loop(kind))
    controller = None
    if tier == 2:
        controller = TieringController(hot_instructions=100)
        warm, outcome = run_faulting(
            program, bad, fault_at=-1, pmu=pmu, tiering=controller
        )
        assert outcome[0] == "ok"
        assert controller.observe(warm, warm.state.instructions)
    fast, fast_outcome = run_faulting(
        program, bad, fault_at=FAULT_AT, pmu=pmu, tiering=controller
    )
    assert fast.tier == tier
    slow, slow_outcome = run_faulting(
        program, bad, fault_at=FAULT_AT, pmu=pmu, fast_vm=False
    )
    assert fast_outcome == slow_outcome
    assert fast_outcome[0] == "error" and kind in fast_outcome[1]
    assert full_state(fast) == full_state(slow)


def test_tier1_source_shrank():
    # the acceptance bar of the fault epilogue: q6's tier-1 source, every
    # block force-materialised, was 52,362 lines with the write-back
    # repeated at every error site
    db = Database.tpch(scale=0.001, seed=42)
    compiled = db._compile(ALL_QUERIES["q6"].sql, None)
    translation = Translation(compiled.program, None)
    pending = set(translation.blocks)
    while pending:
        for ip in pending:
            translation.block(ip)
        pending = set(translation.blocks) - translation.compiled - pending
    assert translation.stats()["source_lines"] <= 52_362 * 0.6


# -- engine-level parity (TPC-H) -------------------------------------------


def _query_observables(db, sql, event, fast_vm, period=None):
    if event is None:
        result = db.execute(sql, fast_vm=fast_vm)
        return (result.rows, result.cycles, result.instructions)
    config = (
        ProfilerConfig(event=event, record_memaddr=True)
        if period is None
        else ProfilerConfig(event=event, record_memaddr=True, period=period)
    )
    profile = db.profile(sql, config=config, fast_vm=fast_vm)
    return (profile.result.rows, machine_observables(profile.machine))


@pytest.mark.parametrize("name", ["q1", "q4", "q6", "q18"])
def test_tpch_plain_parity(name):
    db = Database.tpch(scale=0.001, seed=42)
    sql = ALL_QUERIES[name].sql
    assert _query_observables(db, sql, None, True) == \
        _query_observables(db, sql, None, False)


@pytest.mark.parametrize("event", ALL_EVENTS, ids=[e.name for e in ALL_EVENTS])
def test_tpch_sample_stream_parity(event):
    # q14: join + aggregation + conditional arithmetic in a few hundred
    # ms; the period is low enough that even the rare events (L1 misses,
    # branch misses) produce a stream while the fast engine stays armed.
    # L1 misses need the plain storage layout: compressed segments shrink
    # q14's scan footprint to near-L1-resident, below one sampling period
    from repro.storage import StorageConfig

    storage = StorageConfig.plain() if event is Event.L1_MISS else None
    db = Database.tpch(scale=0.001, seed=42, storage=storage)
    sql = ALL_QUERIES["q14"].sql
    fast = _query_observables(db, sql, event, True, period=200)
    slow = _query_observables(db, sql, event, False, period=200)
    assert fast == slow
    assert fast[1]["samples"], "expected a non-empty sample stream"


def test_tpch_parallel_parity():
    db = Database.tpch(scale=0.001, seed=42)
    sql = ALL_QUERIES["q6"].sql
    fast = db.execute(sql, workers=4, morsel_size=64)
    slow = db.execute(sql, workers=4, morsel_size=64, fast_vm=False)
    assert fast.rows == slow.rows
    assert (fast.cycles, fast.instructions) == (slow.cycles, slow.instructions)


# -- corpus parity ---------------------------------------------------------


@pytest.mark.parametrize(
    "stem", ["all-null-join-keys", "having-empty-aggregates"]
)
def test_corpus_sample_stream_parity(stem):
    # the full corpus runs through the oracle (with its vm-parity check)
    # in test_corpus_replay.py; here two cases get the explicit per-event
    # sample-stream comparison
    case = load_case(CORPUS_DIR / f"{stem}.json")
    from repro.fuzz.dataset import build_database

    for event in (Event.CYCLES, Event.LOADS):
        db = build_database(case.dataset)
        fast = _query_observables(db, case.sql, event, True)
        db = build_database(case.dataset)
        slow = _query_observables(db, case.sql, event, False)
        assert fast == slow


def test_oracle_flags_vm_divergence(monkeypatch):
    # the fuzz oracle's vm-parity check must actually bite: sabotage the
    # fast engine's cycle accounting and expect a disagreement
    case = load_case(CORPUS_DIR / "all-null-join-keys.json")
    result = replay_case(case, check_pgo=False)
    assert result.agreed

    from repro.vm.machine import Machine as M

    original = M._run_fast

    def skewed(self, entry_ip):
        result = original(self, entry_ip)
        self.state.cycles += 1
        return result

    monkeypatch.setattr(M, "_run_fast", skewed)
    result = replay_case(case, check_pgo=False)
    assert any(
        d.config.startswith("vm-parity") for d in result.disagreements
    )
