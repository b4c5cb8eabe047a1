"""Parity suite for the template-translated fast VM.

The fast VM (``repro.vm.translate``) must be an *invisible* optimization:
for every program, every PMU configuration, and every failure mode, the
machine state it leaves behind — result values, instruction/cycle/load/
store counters, cache and branch-predictor statistics, error text and
faulting ip, and the complete sample stream — must be bit-identical to
the block interpreter's.  These tests run the same program through both
engines and compare everything observable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database, ProfilerConfig, ProfilingMode
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
from repro.vm import translate
from repro.vm.tiering import TieringController
from repro.vm.translate import (
    Translation, _OPS, _Trace, _emit_settings, _event_bound, _grow, _measure,
    _side_target, _translatable, translation_for,
)
from tests.helpers import forgotten_address_facts, traces_of

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
    items, pmu=None, with_kernel=False, max_instructions=None, setup=None,
    hot_entries=None,
):
    """Run the same program on both engines; returns (fast, slow) where
    each side is ``(result_or_error, observables)``.  ``hot_entries``
    replaces the translation's heat threshold (1: every block compiles
    on its first entry)."""
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
        if fast_vm and hot_entries is not None:
            machine.translation.hot_entries = hot_entries
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
    # per-block metadata: the most instructions and static countdown
    # events a path through it retires
    fn, max_k, bound = translation.block(0)
    assert translation.blocks[0] == (fn, max_k, bound)
    assert callable(fn) and max_k >= 1 and bound == 0  # unarmed: no events
    # translations are cached per (program, event)
    m1 = Machine(program, Memory(1 << 20))
    m2 = Machine(program, Memory(1 << 20))
    assert m1.translation is m2.translation


# -- translation by heat -----------------------------------------------------


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
    # under a controller every block entry lands in the translation's
    # entry profile (this one never promotes)
    controller = TieringController(hot_instructions=10**12)
    machine, args = fresh_machine(program, tiering=controller)
    translation = machine.translation
    hot = translation.hot_entries
    assert hot == costs.FAST_VM_HOT_ENTRIES
    assert dead in translation.blocks  # a leader, so it has a stub ...
    assert not translation.compiled
    machine.call(0, args)
    # a block compiles once entries made it hot: the loop's blocks did,
    # the function entry and the exit path (entered once) ran interpreted
    assert translation.compiled
    assert translation.compiled <= {
        ip for ip, n in translation.heat.items() if n >= hot
    }
    assert translation.heat[0] == 1 and 0 not in translation.compiled
    assert set(translation.entries) == set(translation.heat)
    # ... and the dead one was never entered at all
    assert dead not in translation.heat and dead not in translation.compiled
    stats = translation.stats()
    assert 0 < stats["compiled"] < stats["leaders"]
    assert stats["interpreted"] == sum(
        min(n, hot - 1) for n in translation.heat.values()
    )
    assert stats["source_lines"] > 0 and stats["compile_s"] > 0

    # a run that enters no leader ``hot`` times compiles nothing
    cold = Machine(build_program(items), Memory(1 << 20))
    base = cold.memory.alloc(LOOP_COUNT * 8)
    cold.call(0, (base, hot - 2))  # the loop head sees one entry more
    stats = cold.translation.stats()
    assert max(cold.translation.heat.values()) == hot - 1
    assert stats["compiled"] == stats["source_lines"] == 0
    assert stats["interpreted"] == sum(cold.translation.heat.values())

    # compile-on-first-entry is the same rule at threshold 1: every
    # entered block compiles (and is a stub again only where a pruned
    # exit turning hot sent its root back), nothing interprets
    eager, args = fresh_machine(build_program(items), tiering=controller)
    eager.translation.hot_entries = 1
    eager.call(0, args)
    assert set(eager.translation.entries) == (
        eager.translation.compiled | set(eager.translation.regrown)
    )
    assert eager.translation.stats()["interpreted"] == 0
    assert dead not in eager.translation.compiled
    assert machine_observables(eager) == machine_observables(machine)


def test_budget_exhausted_on_a_stub_leader():
    # the first iteration of LOOP_SUM reaches "even" after 11 retired
    # instructions: with the budget at exactly 11 the machine stands on a
    # leader that is still a stub with instructions == max_instructions.
    # The stub admits (it retires nothing).  Below the heat threshold it
    # hands the entry to the interpreter, which raises the fault; at
    # threshold 1 it compiles the block and hands the ip back, the real
    # block fails admission and the interpreter raises the fault.
    even = 12
    for hot_entries in (1, costs.FAST_VM_HOT_ENTRIES):
        outcomes = []
        for fast_vm in (True, False):
            program = build_program(LOOP_SUM)
            machine, args = fresh_machine(program, fast_vm=fast_vm)
            machine.state.max_instructions = 11
            if fast_vm:
                machine.translation.hot_entries = hot_entries
            with pytest.raises(VMError, match="instruction budget") as info:
                machine.call(0, args)
            assert info.value.ip == even
            outcomes.append((str(info.value), machine_observables(machine)))
            if fast_vm:
                # compiled in this call exactly when one entry is enough
                assert (even in machine.translation.compiled) == (
                    hot_entries == 1
                )
        assert outcomes[0] == outcomes[1]
        # and on every other boundary of the first iterations
        for limit in range(0, 40):
            fast, slow = run_pair(
                LOOP_SUM, max_instructions=limit, setup=loop_setup,
                hot_entries=hot_entries,
            )
            assert fast == slow


@pytest.mark.parametrize(
    "event", [None] + ALL_EVENTS,
    ids=["unarmed"] + [e.name for e in ALL_EVENTS],
)
def test_first_run_matches_materialised_run(event):
    # one Program, two machines: the first run interprets every block
    # while it is cold and compiles the loop mid-run, the second finds
    # the hot blocks compiled — counters and sample streams must not be
    # able to tell
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
    # the loop stays compiled (a block the interpreter walks into after
    # a settle may only turn hot now)
    assert translation.compiled >= compiled
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
        "predictor": machine.predictor.state(),
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


# -- exactness of the heat gate, the line table and regrowth ------------------

HANDOVER_N = 24  # the default threshold hands the loop over in iteration 16


def handover_run(limit, pmu, hot_entries):
    """LOOP_SUM under an instruction limit; ``hot_entries`` None is the
    interpreter, else the fast VM compiling at that heat."""
    machine = Machine(
        build_program(LOOP_SUM), Memory(1 << 20), pmu_config=pmu,
        fast_vm=hot_entries is not None,
    )
    if hot_entries is not None:
        machine.translation.hot_entries = hot_entries
    machine.state.max_instructions = limit
    base = machine.memory.alloc(HANDOVER_N * 8)
    try:
        outcome = ("ok", machine.call(0, (base, HANDOVER_N)))
    except VMError as exc:
        outcome = (type(exc).__name__, str(exc), exc.ip)
    return machine, (outcome, full_state(machine))


@pytest.mark.parametrize(
    "event", [None] + ALL_EVENTS,
    ids=["unarmed"] + [e.name for e in ALL_EVENTS],
)
def test_handover_from_interpreted_to_compiled_is_exact(event):
    # Wherever a block's heat reaches the threshold — first entry, a few
    # iterations in, iteration 16, never — and wherever an instruction
    # limit then stops the run (stride 7 against a body of 11-12 lands
    # in every iteration), the machine left behind is the interpreter's.
    pmu = (
        PmuConfig(
            event=event, period=costs.FAST_VM_MIN_PERIOD, record_memaddr=True
        )
        if event is not None else None
    )
    whole, _ = handover_run(10**9, pmu, None)
    limits = range(1, whole.state.instructions + 7, 7)
    reference = {limit: handover_run(limit, pmu, None)[1] for limit in limits}
    assert {out[0] for out, _ in reference.values()} == {
        "ok", "InstructionBudgetExceeded"
    }
    for hot_entries in (1, 2, 3, costs.FAST_VM_HOT_ENTRIES, 10**9):
        for limit in limits:
            machine, observed = handover_run(limit, pmu, hot_entries)
            assert observed == reference[limit], (hot_entries, limit)
        # ``machine`` ran to completion: it mixed the engines as intended
        stats = machine.translation.stats()
        assert (stats["compiled"] > 0) == (hot_entries < 10**9)
        assert (stats["interpreted"] > 0) == (hot_entries > 1)


SITE_HELPER = 0  # ip of the callee of the "call" kind
SITE_ENTRY = 2
SITE_LOOP = 4
SITE_N = 64
SITE_FAULT_AT = 43  # an iteration that takes both side arms (i % 4 == 3)
SITE_KINDS = {
    # kind: the bad operand (given the array base), the error text
    "unaligned-load": (lambda base: base + 4, "unaligned or null load at"),
    "null-load": (lambda base: 0, "unaligned or null load at 0x0"),
    "oob-load": (lambda base: 1 << 40, "load out of bounds at"),
    "unaligned-store": (lambda base: base + 4, "unaligned or null store at"),
    "null-store": (lambda base: 0, "unaligned or null store at 0x0"),
    "oob-store": (lambda base: 1 << 40, "store out of bounds at"),
    "sdiv": (lambda base: 0, "division by zero"),
    "srem": (lambda base: 0, "remainder by zero"),
    "fdiv": (lambda base: 0, "fdiv by zero"),
    "call": (lambda base: 0, "call stack overflow"),
}
# where the fault is raised from: (site position, function it leaves)
SITE_CONTEXTS = {
    "cold": ("root", "_interp"),
    "root": ("root", f"_b{SITE_LOOP}"),
    "inlined": ("deep", f"_b{SITE_LOOP}"),
    "tier2": ("root", f"_b{SITE_LOOP}"),
    "linear": ("root", f"_b{SITE_LOOP}"),
}


def site_program(kind, where):
    """r0 = base, r1 = count, r8 = the faulting iteration, r9 = the bad
    operand.  The site runs on a good operand (&a[i]: a valid address, a
    non-zero divisor) except in iteration r8.  ``where`` puts it in the
    loop's root trace, or ("deep") in an arm two taken branches away
    from it that iterations with i % 4 == 3 run.  The "call" kind calls
    a helper, and overflows when the test deepened the call stack."""
    good, picked = 10, 5
    site = {
        "load": [(Op.STORE, good, 3, 0), (Op.LOAD, 6, picked, 0)],
        "store": [(Op.LOAD, 6, good, 0), (Op.STORE, picked, 3, 0)],
        "sdiv": [(Op.SDIV, 6, 3, picked)],
        "srem": [(Op.SREM, 6, 3, picked)],
        "fdiv": [(Op.CVTIF, 11, 3, 0), (Op.FDIV, 6, 11, picked)],
        "call": [(Op.CALL, SITE_HELPER, 0, 0)],
    }[kind.split("-")[-1]]
    items = [
        (Op.MOV, 6, 3, 0),                 # helper
        (Op.RET, 0, 0, 0),
        (Op.MOVI, 2, 0, 0),                # entry
        (Op.MOVI, 3, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.SHLI, good, 3, 3),
        (Op.ADD, good, 0, good),           # &a[i]
        (Op.CMPEQ, 7, 3, 8),
        (Op.SELECT, picked, 7, (9, good)),
        *(site if where == "root" else []),
        (Op.ANDI, 7, 3, 1),
        (Op.BRNZ, 7, "odd", 0),
        Label("back"),
        (Op.ADD, 2, 2, 6),
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("odd"),
        (Op.ANDI, 7, 3, 2),
        (Op.BRNZ, 7, "deep", 0),
        (Op.JMP, "back", 0, 0),
        Label("deep"),
        *(site if where == "deep" else []),
        (Op.JMP, "back", 0, 0),
        Label("done"),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    code, offsets = assemble(items)
    assert offsets["loop"] == SITE_LOOP
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    return program, offsets["deep"]


def raising_function(exc):
    """The name of the function whose frame raised ``exc``."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


def run_site(program, kind, fault_at, prepare=None, **kwargs):
    machine = Machine(program, Memory(1 << 20), **kwargs)
    base = machine.memory.alloc(SITE_N * 8)
    machine.regs[8] = fault_at
    machine.regs[9] = SITE_KINDS[kind][0](base)
    if kind == "call" and fault_at >= 0:
        # 255 frames and the run's own sentinel: the next CALL overflows
        machine.call_stack.extend([0] * 255)
    if prepare is not None:
        prepare(machine)
    raised_in = None
    try:
        outcome = ("ok", machine.call(SITE_ENTRY, (base, SITE_N)))
    except VMError as exc:
        outcome = ("error", str(exc), exc.ip)
        raised_in = raising_function(exc)
    return machine, outcome, raised_in


@pytest.mark.parametrize("context", list(SITE_CONTEXTS))
@pytest.mark.parametrize("kind", list(SITE_KINDS))
def test_every_fault_kind_from_every_kind_of_site(kind, context):
    # A fault site is a bare guard or a bare access; the function's one
    # handler finds out which by the raising line.  Whatever raised it —
    # the interpreter on a cold block, a compiled root, a sub-trace
    # inlined two arms deep, a tier-2 deferred loop, an armed root whose
    # own events reach its allowance and that therefore stays linear —
    # message, ip, registers, counters, predictor and countdown are the
    # interpreter's.
    where, function = SITE_CONTEXTS[context]
    if (kind, context) == ("call", "tier2"):
        where = "deep"  # keep the root a loop head, so tier 2 defers it
    pmu = PmuConfig(event=Event.CYCLES, period=8192, record_memaddr=True)
    program, deep = site_program(kind, where)
    controller = (
        TieringController(hot_instructions=100) if context == "tier2"
        else None
    )
    if context == "linear":
        program._vm_translations = {
            (pmu.event, pmu.period >> 3): Translation(program, pmu.event, 1)
        }
    if context != "cold":
        # compile what the faulting run will execute, on a clean input
        warm, outcome, _ = run_site(
            program, kind, -1, pmu_config=pmu, tiering=controller
        )
        assert outcome[0] == "ok"
        translation = warm.translation
        if context == "tier2":
            assert controller.observe(warm, warm.state.instructions)
            run_site(program, kind, -1, pmu_config=pmu, tiering=controller)
            code = translation.blocks[SITE_LOOP][0].__code__
            assert "_ins" in code.co_varnames  # a deferred loop
        if context == "linear":
            root = _grow(program.code, SITE_LOOP, **translation._emit)
            assert not root.treatment.tree
            # (a CALL ends the root before its back edge)
            assert _measure(root).loop == (kind != "call")

    def prepare(machine):
        if context == "cold" and machine.translation is not None:
            machine.translation.hot_entries = 10**9

    fast, fast_outcome, raised_in = run_site(
        program, kind, SITE_FAULT_AT, prepare, pmu_config=pmu,
        tiering=controller,
    )
    slow, slow_outcome, _ = run_site(
        program, kind, SITE_FAULT_AT, prepare, pmu_config=pmu, fast_vm=False
    )
    assert fast_outcome == slow_outcome
    assert fast_outcome[0] == "error" and SITE_KINDS[kind][1] in fast_outcome[1]
    assert full_state(fast) == full_state(slow)
    assert raised_in == function
    assert fast.tier == (2 if controller is not None else 1)
    if where == "deep":
        assert fast_outcome[2] >= deep  # the site sits in the inlined arm


def test_an_index_error_from_a_non_site_line_propagates_unchanged():
    # the block function has a site table (the LOAD) and catches
    # IndexError; one that comes out of the kernel call is not a site's
    # and leaves the function as it came
    class BrokenKernel:
        def call(self, machine, kid):
            raise IndexError("not a fault site")

    items = [
        (Op.LOAD, 2, 0, 0),
        (Op.KCALL, 0, 0, 0),
        (Op.RET, 0, 0, 0),
    ]
    states = []
    for fast_vm in (True, False):
        machine = Machine(
            build_program(items), Memory(1 << 20), kernel=BrokenKernel(),
            fast_vm=fast_vm,
        )
        if fast_vm:
            machine.translation.hot_entries = 1
        base = machine.memory.alloc(8)
        with pytest.raises(IndexError, match="not a fault site") as info:
            machine.call(0, (base,))
        states.append(full_state(machine))
        if fast_vm:
            assert 0 in machine.translation.compiled
            names = []
            tb = info.value.__traceback__
            while tb is not None:
                names.append(tb.tb_frame.f_code.co_name)
                tb = tb.tb_next
            assert "_b0" in names and names[-1] == "call"
    assert states[0] == states[1]


def phase_program(arms):
    """A counting loop with ``arms`` side arms; arm j first runs in
    iteration r8 * (j + 1) and in every one after it."""
    items = [
        (Op.MOVI, 2, 0, 0),
        (Op.MOVI, 3, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.MOVI, 9, 0, 0),
    ]
    for j in range(arms):
        items += [
            (Op.ADD, 9, 9, 8),
            (Op.CMPGE, 7, 3, 9),
            (Op.BRNZ, 7, f"arm{j}", 0),
            Label(f"back{j}"),
        ]
    items += [(Op.ADDI, 3, 3, 1), (Op.JMP, "loop", 0, 0)]
    for j in range(arms):
        items += [
            Label(f"arm{j}"),
            (Op.ADDI, 2, 2, j + 1),
            (Op.JMP, f"back{j}", 0, 0),
        ]
    items += [Label("done"), (Op.MOV, 0, 2, 0), (Op.RET, 0, 0, 0)]
    code, offsets = assemble(items)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    return program, offsets


def run_phases(program, count, phase, **kwargs):
    machine = Machine(program, Memory(1 << 20), **kwargs)
    machine.regs[8] = phase
    result = machine.call(0, (0, count))
    return machine, (result, full_state(machine))


def test_a_phase_change_regrows_the_tree(monkeypatch):
    # an arm that first runs after iteration 1,000 and is hot from then
    # on: the loop compiled without it, so at first every iteration
    # leaves through the driver; once the arm is hot itself the root is
    # compiled again with it inlined, and the loop stays inside
    program, offsets = phase_program(1)
    loop, arm = offsets["loop"], offsets["arm0"]
    back, done = offsets["back0"], offsets["done"]
    trees = grown_roots(monkeypatch)
    controller = TieringController(hot_instructions=10**12)
    machine, observed = run_phases(program, 1200, 1000, tiering=controller)
    translation = machine.translation
    assert translation.regrown == {loop: 1}
    # the tree itself, before and after: the arm goes from pruned exit to
    # inlined trace whose jump back into the loop body is inlined in turn
    # and closes the loop; the way out of the loop stays cold throughout
    before, after = trees[loop]
    assert side_exits(before.root) == {
        done: "pruned", arm: "pruned", loop: "loop",
    }
    assert side_exits(after.root) == {
        done: "pruned", arm: {back: {loop: "loop"}}, loop: "loop",
    }
    assert (before.pruned, after.pruned) == ([done, arm], [done])
    assert after.size == before.size + 4 and not after.treatment.deferred
    assert arm not in translation.pruned.get(loop, ())
    assert 1 <= translation.stats()["regrown"] <= costs.FAST_VM_REGROW_LIMIT
    assert loop in translation.compiled
    _, expected = run_phases(program, 1200, 1000, fast_vm=False)
    assert observed == expected
    # the same input again: the loop head is dispatched once, where the
    # pruned tree came back through the driver for every late iteration
    entries = translation.entries[loop]
    assert entries > translation.hot_entries
    _, observed = run_phases(program, 1200, 1000, tiering=controller)
    assert observed == expected
    assert translation.entries[loop] == entries + 1
    assert translation.regrown == {loop: 1}


def test_regrowth_stops_at_the_limit_with_the_unpruned_tree(monkeypatch):
    # LIMIT + 1 arms turn hot one after the other: the first LIMIT each
    # send the root back, and the LIMIT-th time it compiles whole — the
    # last arm is inlined before it ever ran, nothing of the root is left
    # pruned, and nothing regrows again
    limit = costs.FAST_VM_REGROW_LIMIT
    program, offsets = phase_program(limit + 1)
    loop = offsets["loop"]
    trees = grown_roots(monkeypatch)
    machine, observed = run_phases(program, 100 * (limit + 3), 100)
    translation = machine.translation
    assert translation.regrown == {loop: limit}
    assert not translation.pruned[loop]
    # the trees it went through: each regrowth inlines the arm that had
    # turned hot (wherever the tree reaches it — the pruned list repeats
    # an ip per site), the last tree every arm and the loop's exit
    assert len(trees[loop]) == limit + 1
    arms = [offsets[f"arm{j}"] for j in range(limit + 1)]
    for grown, tree in enumerate(trees[loop][:-1]):
        exits = side_exits(tree.root)
        assert [exits[arm] != "pruned" for arm in arms] == (
            [True] * grown + [False] * (limit + 1 - grown)
        )
        assert set(tree.pruned) == {offsets["done"], *arms[grown:]}
        assert len(tree.pruned) >= len(set(tree.pruned))
    whole = trees[loop][-1]
    assert not whole.pruned and "pruned" not in str(side_exits(whole.root))
    assert side_exits(whole.root)[offsets["done"]] == {}
    assert [t.size for t in trees[loop]] == sorted(t.size for t in trees[loop])
    for j in range(limit + 1):
        # an arm the tree had pruned was entered through its stub; the
        # one inlined while still cold never was
        assert (offsets[f"arm{j}"] in translation.heat) == (j < limit)
    _, expected = run_phases(program, 100 * (limit + 3), 100, fast_vm=False)
    assert observed == expected


# -- the trace tree, the treatment record, the opcode table ------------------


def side_exits(trace):
    """{target ip: what grow made of that side exit}; an inlined
    continuation shows as the same map of its own trace."""
    out = {}
    for index, what in trace.exits.items():
        target = _side_target(*trace.items[index])
        out[target] = side_exits(what) if isinstance(what, _Trace) else what
    return out


def depth_of(trace):
    children = [w for w in trace.exits.values() if isinstance(w, _Trace)]
    return 1 + max(map(depth_of, children), default=0)


def grown_roots(monkeypatch):
    """Record every tree the translator grows from here on, by root."""
    trees = {}
    real = translate._grow

    def recording(code, start, *args, **kwargs):
        tree = real(code, start, *args, **kwargs)
        if tree is not None:
            trees.setdefault(start, []).append(tree)
        return tree

    monkeypatch.setattr(translate, "_grow", recording)
    return trees


def test_the_loop_grows_into_a_tree_along_heat():
    code = build_program(LOOP_SUM).code
    loop, even, done = 2, 12, 14
    tier1 = _emit_settings("", 0, 1, {})
    # unpruned: the exit arm and the skip arm are inlined, and every way
    # round — the root's own jump, the skip arm's — is the loop edge
    tree = _grow(code, loop, **tier1)
    assert side_exits(tree.root) == {
        done: {}, even: {loop: "loop"}, loop: "loop",
    }
    assert (tree.pruned, tree.fallthroughs) == ([], [])
    assert tree.size == sum(len(t.items) for t in traces_of(tree.root)) == 16
    _measure(tree)
    assert tree.loop and tree.mem and tree.faults
    assert tree.max_k == len(tree.root.items) == 12
    assert tree.written <= tree.used == set(range(8))
    # while the loop runs nothing has reached the way out of it
    warm = dict.fromkeys((loop, 4, 11, even), 16)
    tree = _grow(code, loop, heat=warm, **tier1)
    assert side_exits(tree.root) == {
        done: "pruned", even: {loop: "loop"}, loop: "loop",
    }
    assert tree.pruned == [done]
    # a root that is no loop head grows nothing: exits to the driver,
    # its jump back to the loop included
    tree = _grow(code, 0, **tier1)
    assert set(side_exits(tree.root).values()) == {"exit"}
    assert not _measure(tree).loop


def test_the_treatment_of_a_root_is_decided_by_tier_and_shape():
    code = build_program(LOOP_SUM).code
    entries = {0: costs.TIER2_HOT_BLOCK_ENTRIES}

    def treatment(ip, tier, mode=""):
        settings = _emit_settings(mode, 512 if mode else 0, tier, entries)
        return _grow(code, ip, **settings).treatment

    def tier2_fields(t):
        return (t.tree, t.deferred, t.defer_cy)

    # a loop head is deferred at tier 2, not at tier 1
    assert tier2_fields(treatment(2, 1)) == (True, False, False)
    assert tier2_fields(treatment(2, 2)) == (True, True, True)
    # ... its ``cy`` rides across iterations unless the edge consumes a
    # per-iteration delta
    assert treatment(2, 2, "instr").defer_cy
    assert not treatment(2, 2, "cycles").defer_cy
    assert treatment(2, 2, "l1").defer_cy  # a miss is paid as it happens
    # a hot block that is no loop head grows a tree at tier 2, undeferred
    assert not treatment(0, 1).tree
    assert tier2_fields(treatment(0, 2)) == (True, False, False)
    assert not treatment(14, 2).tree  # neither hot nor a loop head
    # the accumulator follows the tree flag, not what got inlined
    assert not treatment(14, 1).has_dyn and treatment(2, 1, "l1").has_dyn


def test_growth_respects_bound_cap_budget_and_depth():
    program, offsets = phase_program(4)
    code, loop = program.code, offsets["loop"]
    whole = _grow(code, loop, **_emit_settings("", 0, 1, {}))
    assert depth_of(whole.root) > 4  # arm0 > back0 > arm1 > back1 > ...
    root_bound = len(whole.root.items)
    for bound_cap in (root_bound, root_bound + 1, 30, 60, 10_000):
        tree = _grow(code, loop, **_emit_settings("instr", bound_cap, 1, {}))
        assert tree.treatment.tree == (root_bound < bound_cap)
        # armed, the tree's static events, all arms summed, stay within
        # the allowance (a root alone may exceed it: it then stays linear)
        assert tree.events <= max(bound_cap, root_bound)
        assert tree.events == tree.size  # instr: one event an instruction
        # what admission compares the countdown with is the longest path
        assert _measure(tree).bound == tree.max_k <= tree.events
    assert tree.size == whole.size
    assert side_exits(tree.root) == side_exits(whole.root)
    settings = _emit_settings("instr", root_bound + 1, 1, {})
    cramped = _grow(code, loop, **settings)
    assert set(side_exits(cramped.root).values()) <= {"exit", "loop"}
    for budget in (root_bound, root_bound + 3, 40):
        settings = dict(_emit_settings("", 0, 1, {}), tree_budget=budget)
        tree = _grow(code, loop, **settings)
        assert tree.size <= budget
        assert "exit" in str(side_exits(tree.root))
    for depth in range(4):
        settings = dict(_emit_settings("", 0, 1, {}), tree_depth=depth)
        tree = _grow(code, loop, **settings)
        assert depth_of(tree.root) == depth + 1


def test_every_opcode_is_one_row_of_the_table():
    opcodes = {v for k, v in vars(Op).items() if not k.startswith("_")}
    untranslatable = set()  # today every opcode has a row
    assert set(_OPS) | untranslatable == opcodes
    assert not set(_OPS) & untranslatable
    settles = {
        Op.LOAD: ("cycles", "l1"),
        Op.BRZ: ("cycles", "brmiss"), Op.BRNZ: ("cycles", "brmiss"),
    }
    for op, row in _OPS.items():
        # an event bound counts what is static: the L1-hit latency, the
        # branch's one cycle; the miss and the mispredict settle
        static = {
            "instr": 1, "cycles": row.cycles, "loads": int(op == Op.LOAD),
            "l1": 0, "brmiss": 0,
        }
        assert set(static) | {""} == set(row.events)
        assert set(row.events) == set(translate._MODES.values())
        for mode, events in static.items():
            assert _event_bound([(0, (op, 1, 2, 3))], mode) == events
            assert row.events[mode] == events
        assert _event_bound([(0, (op, 1, 2, 3))], "") == 0
        assert row.settles == settles.get(op, ())
        # a fault site is a line of the instruction; straight-line rows
        # mark theirs in the template
        for offset, _ in row.faults:
            assert not row.lines or "raise _Fault" in row.lines[offset]
    # operands that do not fit a row stay with the interpreter
    assert _translatable((Op.MOVI, 0, 1.5, 0))
    for odd in [
        (99, 0, 0, 0), (Op.MOVI, 0, "label", 0), (Op.JMP, -1, 0, 0),
        (Op.BRZ, 0, "label", 0), (Op.LOAD, 0, 1, 0.5), (Op.SHLI, 0, 1, 2.0),
        (Op.SELECT, 0, 1, (2,)), (Op.ADDI, 0, 1, None), (Op.CALL, "f", 0, 0),
    ]:
        assert not _translatable(odd), odd


_Q6_SOURCES = """
import hashlib
from repro.data.queries import ALL_QUERIES
from repro.engine import Database, ProfilerConfig
from repro.vm.pmu import Event
from tests.helpers import compiled_sources

db = Database.tpch(0.001, 42)
with compiled_sources() as sources:
    db.execute(ALL_QUERIES["q6"].sql)
    db.profile(ALL_QUERIES["q6"].sql, ProfilerConfig(event=Event.CYCLES))
lines = sum(source.count("\\n") for source in sources)
digest = hashlib.sha256("\\0".join(sources).encode()).hexdigest()
print(len(sources), lines, digest)
"""


def test_generated_source_is_deterministic():
    # the generated text is a function of program, heat and settings — not
    # of hash order or anything else a process picks up — so a digest over
    # what translation hands to ``compile`` is an exact oracle for "emits
    # the same code" (how ISSUE 21's restructuring was held byte-identical).
    # Two fresh databases run q6 cold and CYCLES-armed, each in a process
    # of its own (profiled programs carry process-wide task ids) under a
    # different hash seed.
    root = Path(__file__).parent.parent
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _Q6_SOURCES], cwd=root, text=True,
            stdout=subprocess.PIPE,
            env={
                **os.environ, "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
            },
        )
        for seed in ("1", "77")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    compiles, lines, digest = outputs[0].split()
    assert int(compiles) > 10 and int(lines) > 1000 and len(digest) == 64
    assert outputs[0] == outputs[1]


def test_tier1_source_shrank():
    # q6's tier-1 source, every block force-materialised with every
    # leader hot (nothing pruned): 52,362 lines with the write-back
    # repeated at every error site, 24,283 with one ``raise _Fault(...)``
    # per site and a ``try`` per access, 17,310 with the sites in a table,
    # 15,668 with what a path already established left out
    db = Database.tpch(scale=0.001, seed=42)
    compiled = db._compile(ALL_QUERIES["q6"].sql, None)
    translation = Translation(compiled.program, None)
    translation.heat.update(
        dict.fromkeys(translation.blocks, translation.hot_entries)
    )
    pending = set(translation.blocks)
    while pending:
        for ip in pending:
            translation.block(ip)
        pending = set(translation.blocks) - translation.compiled - pending
    stats = translation.stats()
    assert stats["pruned_exits"] == 0
    assert stats["source_lines"] <= 16_500


def test_translation_volume_of_a_first_pass():
    # what a never-seen query pays for is gated on counts, not clocks
    # (deterministic per seed): the first execution of six TPC-H queries
    # generated 87,306 source lines when every entered block compiled
    # whole on its first entry, 37,857 with compilation earned by heat
    # and trees grown along executed paths, 32,019 without the guards
    # and L1 lookups a path has made redundant; the blocks and arms
    # that turn hot on a second execution add little
    db = Database.tpch(scale=0.001, seed=42)
    names = ("q1", "q4", "q6", "q13", "q14", "q19")
    first, second = (
        sum(
            db.execute(ALL_QUERIES[name].sql).translation["source_lines"]
            for name in names
        )
        for _ in range(2)
    )
    assert 0 < first <= 36_000
    assert first <= second < first * 1.15


def test_armed_translation_volume_of_a_profile_session():
    # the armed twin of the gate above: the four sessions the benchmark's
    # ``profile_session`` workload profiles cold generated 21,695 lines
    # while every armed tree came with a linear variant for the tail of
    # the sampling window, 15,867 since admission counts the static path
    # and a miss settles where it lands
    db = Database.tpch(scale=0.002, seed=42)
    lines = sum(
        db.profile(
            ALL_QUERIES[name].sql,
            ProfilerConfig(mode=mode, record_memaddr=True),
        ).result.translation["source_lines"]
        for name, mode in (
            ("q1", ProfilingMode.REGISTER_TAGGING),
            ("q6", ProfilingMode.REGISTER_TAGGING),
            ("q19", ProfilingMode.REGISTER_TAGGING),
            ("q19", ProfilingMode.CALLSTACK),
        )
    )
    assert 0 < lines <= 17_000


# -- what a trace knows: address facts ---------------------------------------

FACT_N = 25  # odd: the last iteration takes no detour
FACT_FRAME = 8192  # what the entry block takes off the stack pointer
MEMORY_END = 1 << 20


def fact_program(body=(), arm=(), rest=(), tail=(), frame=FACT_FRAME):
    """r0 = &a (16-byte records), r1 = count, r8 = the iteration that goes
    wrong, r9 = what goes wrong in it.  Every iteration: r10 = &a[i],
    r11 = 1 in iteration r8 (else 0), r5 = r9 in iteration r8 (else
    r10); ``body``; odd iterations detour through ``arm``; ``rest``.
    ``tail`` runs once on the way out, r12 = 1 there if r8 >= 0.  The
    entry block takes ``frame`` bytes off the stack pointer."""
    items = [
        (Op.ADDI, 15, 15, -frame),
        (Op.MOVI, 3, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.SHLI, 10, 3, 4),
        (Op.ADD, 10, 0, 10),
        (Op.CMPEQ, 11, 3, 8),
        (Op.SELECT, 5, 11, (9, 10)),
        *body,
        (Op.ANDI, 7, 3, 1),
        (Op.BRNZ, 7, "odd", 0),
        Label("back"),
        *rest,
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("odd"),
        *arm,
        (Op.JMP, "back", 0, 0),
        Label("done"),
        (Op.CMPGEI, 12, 8, 0),
        *tail,
        (Op.ADDI, 15, 15, frame),
        (Op.MOV, 0, 3, 0),
        (Op.RET, 0, 0, 0),
    ]
    code, offsets = assemble(items)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    return program, offsets


def known_of(trace):
    """What the path knew at each memory access of ``trace``, in order."""
    return [trace.known[index] for index in sorted(trace.known)]


def measured_loop(sections):
    """The loop of ``fact_program(**sections)`` as an unpruned, measured
    tier-1 tree, its source, and the traces its side exits inlined."""
    program, offsets = fact_program(**sections)
    tree = _measure(_grow(
        program.code, offsets["loop"], **_emit_settings("", 0, 1, {})
    ))
    inlined = {
        _side_target(*tree.root.items[index]): what
        for index, what in tree.root.exits.items()
        if isinstance(what, _Trace)
    }
    return tree, translate._emit(tree)[0], inlined, offsets


UNKNOWN, VALID, HIT = (False, False), (True, False), (True, True)

# name: the program's sections
FACT_SECTIONS = {
    # one base, rising offsets: one guard, then bare accesses; the last
    # load repeats an address nothing since could have displaced
    "rising": dict(body=[
        (Op.LOAD, 6, 5, 0), (Op.LOAD, 7, 5, 8), (Op.STORE, 5, 6, 16),
        (Op.LOAD, 6, 5, 8),
    ]),
    # an offset under the validated one needs its own guard
    "falling": dict(body=[
        (Op.LOAD, 6, 5, 16), (Op.LOAD, 7, 5, 8), (Op.LOAD, 6, 5, 0),
    ]),
    # a higher offset that is not a multiple of 8 away, in iteration r8
    "off-residue": dict(body=[
        (Op.LOAD, 6, 5, 8), (Op.BRZ, 11, "skip", 0), (Op.LOAD, 7, 5, 12),
        Label("skip"),
    ]),
    # the base moves by 4 in iteration r8 between two accesses
    "rewritten": dict(body=[
        (Op.LOAD, 6, 5, 0), (Op.SHLI, 12, 11, 2), (Op.ADD, 5, 5, 12),
        (Op.LOAD, 7, 5, 0),
    ]),
    # a load through its own destination: the pointer it fetched (r9 in
    # iteration r8) is a base nothing has validated
    "chased": dict(body=[
        (Op.STORE, 10, 5, 8), (Op.MOV, 4, 10, 0), (Op.LOAD, 4, 4, 8),
        (Op.LOAD, 6, 4, 8),
    ]),
    # the stack pointer moves every iteration (by -12, not -16, in
    # iteration r8): nothing of the frame is hoisted, and the slot read
    # at the top is the one the iteration before wrote
    "frame-moved": dict(
        body=[
            (Op.LOAD, 7, 15, 0), (Op.SHLI, 12, 11, 2), (Op.ADDI, 12, 12, -16),
            (Op.ADD, 15, 15, 12), (Op.STORE, 15, 3, 0), (Op.LOAD, 6, 15, 0),
        ],
        tail=[(Op.SHLI, 13, 3, 4), (Op.ADD, 15, 15, 13)],
    ),
    # ... or only on the way out (by 20, not 16, if r8 >= 0): the loop's
    # slots stay hoisted, the access behind the move is made by address
    "frame-left": dict(
        body=[(Op.STORE, 15, 3, 8), (Op.LOAD, 6, 15, 8)],
        tail=[
            (Op.SHLI, 12, 12, 2), (Op.ADDI, 12, 12, 16), (Op.ADD, 15, 15, 12),
            (Op.LOAD, 6, 15, -8), (Op.SUB, 15, 15, 12),
        ],
    ),
    # two registers, one L1 set: what one touched the other may displace,
    # and a base that moved on is another base
    "two-bases": dict(body=[
        (Op.ADDI, 12, 5, 4096), (Op.LOAD, 6, 5, 0), (Op.LOAD, 7, 12, 0),
        (Op.LOAD, 6, 5, 0), (Op.ADDI, 12, 12, 4096), (Op.LOAD, 7, 12, 0),
        (Op.ADDI, 12, 12, -4096), (Op.LOAD, 6, 12, 0),
    ]),
    # a stack pointer 4 off a word boundary: [sp + 4] is a fine address
    # but no slot of a frame indexed from sp >> 3
    "odd-frame": dict(
        body=[
            (Op.STORE, 15, 3, 4), (Op.MOV, 13, 15, 0), (Op.LOAD, 6, 13, 4),
            (Op.LOAD, 7, 15, 4),
        ],
        frame=FACT_FRAME + 4,
    ),
    # the arm validates a base; the fall-through does not inherit that
    "arm-first": dict(
        arm=[(Op.LOAD, 6, 5, 8)], rest=[(Op.LOAD, 7, 5, 8)],
    ),
    # a frame wider than an L1 way: [sp] and [sp + 4096] share a set, so
    # the third access is no known hit; the arm reaches further still
    "wide-frame": dict(
        body=[
            (Op.LOAD, 6, 15, 0), (Op.STORE, 15, 6, 8), (Op.LOAD, 7, 15, 4096),
            (Op.LOAD, 6, 15, 0), (Op.LOAD, 7, 15, 4032), (Op.LOAD, 6, 15, 0),
        ],
        arm=[(Op.LOAD, 6, 15, 4104)],
    ),
}


def test_what_each_access_of_a_trace_knows():
    reach = translate._L1_REACH
    l1 = Machine(build_program(LOOP_SUM), Memory(1 << 16)).caches.l1
    assert reach == l1.set_mask << l1.line_bits == 4032

    tree, source, _, _ = measured_loop(FACT_SECTIONS["rising"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN, VALID, VALID, HIT]
    assert not tree.slots  # a loop, but nothing of it is in the frame
    assert source.count("raise _Fault") == 1
    assert "r7 = words[(_x := r5 + 8) >> 3]" in source
    assert "words[(_x := r5 + 16) >> 3] = r6" in source
    assert "r6 = words[(r5 + 8) >> 3]" in source
    assert source.count("_tg[0] != _ln") == 3

    tree, source, _, _ = measured_loop(FACT_SECTIONS["falling"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN] * 3
    assert source.count("raise _Fault") == 3

    tree, _, _, _ = measured_loop(FACT_SECTIONS["rewritten"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN, UNKNOWN]
    tree, _, _, _ = measured_loop(FACT_SECTIONS["chased"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN] * 3

    tree, source, _, _ = measured_loop(FACT_SECTIONS["frame-moved"])
    assert known_of(tree.root) == [
        (False, False, 0), (False, False, None), (True, True, None),
    ]
    assert tree.loop and tree.slots == [] and "_w" not in source

    tree, source, inlined, offsets = measured_loop(FACT_SECTIONS["frame-left"])
    assert tree.slots == [8]
    assert known_of(tree.root) == [(False, False, 8), (True, True, 8)]
    assert known_of(inlined[offsets["done"]]) == [(False, False, None)]
    assert "_w = r15 >> 3" in source and "_n8 = (r15 + 8) >> _lb" in source
    assert "words[_w + 1] = r3" in source and "r6 = words[_w + 1]" in source
    assert "r6 = words[_x >> 3]" in source  # behind the move: by address
    assert "if _fo is None else r15 + _fo" in source

    tree, _, _, _ = measured_loop(FACT_SECTIONS["two-bases"])
    assert [k[:2] for k in known_of(tree.root)] == [
        UNKNOWN, UNKNOWN, VALID, UNKNOWN, UNKNOWN,
    ]

    tree, _, _, _ = measured_loop(FACT_SECTIONS["odd-frame"])
    assert known_of(tree.root) == [
        (False, False, None), (False, False, None), (True, False, None),
    ]
    tree, _, _, _ = measured_loop(FACT_SECTIONS["off-residue"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN, UNKNOWN]

    tree, _, inlined, offsets = measured_loop(FACT_SECTIONS["arm-first"])
    assert [k[:2] for k in known_of(tree.root)] == [UNKNOWN]
    arm = inlined[offsets["odd"]]
    assert [k[:2] for k in known_of(arm)] == [UNKNOWN]
    (back,) = (w for w in arm.exits.values() if isinstance(w, _Trace))
    assert [k[:2] for k in known_of(back)] == [HIT]

    tree, source, inlined, offsets = measured_loop(FACT_SECTIONS["wide-frame"])
    assert tree.slots == [0, 8, 4032, 4096, 4104]
    assert 4096 - 0 > reach >= 4032 - 0
    assert known_of(tree.root) == [
        (False, False, 0), (True, False, 8), (True, False, 4096),
        (True, False, 0),  # [sp + 4096] may have displaced it
        (True, False, 4032), (True, True, 0),  # [sp + 4032] cannot have
    ]
    assert known_of(inlined[offsets["odd"]]) == [(True, False, 4104)]
    assert "if not _t4096 or _t4096[0] != _n4096:" in source
    assert source.count("raise _Fault") == 1

    # what a path knows is no tier matter: the deferred loop has the
    # same slots and the same lookups
    program, offsets = fact_program(**FACT_SECTIONS["wide-frame"])
    tier2 = _measure(_grow(
        program.code, offsets["loop"], **_emit_settings("", 0, 2, {})
    ))
    assert tier2.treatment.deferred and tier2.slots == tree.slots
    assert known_of(tier2.root) == known_of(tree.root)
    assert "if not _t4096 or _t4096[0] != _n4096:" in translate._emit(tier2)[0]


# name: (sections, r9, r15 or None, the iteration, the error or None)
FACT_CASES = {
    "rising/unaligned": (
        "rising", lambda a: a + 4, None, 13,
        "unaligned or null load at",
    ),
    "rising/null": (
        "rising", lambda a: 0, None, 12,
        "unaligned or null load at 0x0",
    ),
    "rising/outside": (
        "rising", lambda a: 1 << 40, None, 13,
        "load out of bounds at 0x10000000000",
    ),
    "rising/load-past-the-end": (
        "rising", lambda a: MEMORY_END - 8, None, 12,
        "load out of bounds at 0x100000",
    ),
    "rising/store-past-the-end": (
        "rising", lambda a: MEMORY_END - 16, None, 13,
        "store out of bounds at 0x100000",
    ),
    "falling/null-below": (
        "falling", lambda a: -8, None, 13,
        "unaligned or null load at 0x0",
    ),
    "falling/null-at-the-base": (
        "falling", lambda a: 0, None, 12,
        "unaligned or null load at 0x0",
    ),
    "off-residue/unaligned": (
        "off-residue", lambda a: a, None, 12,
        "unaligned or null load at",
    ),
    "rewritten/unaligned": (
        "rewritten", lambda a: a, None, 13,
        "unaligned or null load at",
    ),
    "chased/unaligned": (
        "chased", lambda a: 4, None, 12,
        "unaligned or null load at 0xc",
    ),
    "chased/null": (
        "chased", lambda a: -8, None, 13,
        "unaligned or null load at 0x0",
    ),
    "frame-moved/unaligned": (
        "frame-moved", lambda a: a, None, 13,
        "unaligned or null store at",
    ),
    "frame-left/unaligned": (
        "frame-left", lambda a: a, None, 12,
        "unaligned or null load at",
    ),
    "two-bases/clean": (
        "two-bases", lambda a: a, None, 13,
        None,
    ),
    "two-bases/unaligned": (
        "two-bases", lambda a: a + 4, None, 13,
        "unaligned or null load at",
    ),
    "odd-frame/clean": (
        "odd-frame", lambda a: a, None, 12,
        None,
    ),
    "arm-first/fall-through": (
        "arm-first", lambda a: -8, None, 12,
        "unaligned or null load at 0x0",
    ),
    "arm-first/arm": (
        "arm-first", lambda a: -8, None, 13,
        "unaligned or null load at 0x0",
    ),
    "wide-frame/clean": (
        "wide-frame", lambda a: a, None, 13,
        None,
    ),
    "wide-frame/unaligned": (
        "wide-frame", lambda a: a, lambda sp: sp - 4, 0,
        "unaligned or null load at",
    ),
    "wide-frame/null": (
        "wide-frame", lambda a: a, lambda sp: FACT_FRAME, 0,
        "unaligned or null load at 0x0",
    ),
    "wide-frame/outside": (
        "wide-frame", lambda a: a, lambda sp: (1 << 40) + FACT_FRAME, 0,
        "load out of bounds at 0x10000000000",
    ),
    "wide-frame/store-past-the-end": (
        "wide-frame", lambda a: a, lambda sp: MEMORY_END - 8 + FACT_FRAME, 0,
        "store out of bounds at 0x100000",
    ),
    "wide-frame/load-past-the-end": (
        "wide-frame", lambda a: a, lambda sp: MEMORY_END - 4096 + FACT_FRAME, 0,
        "load out of bounds at 0x100000",
    ),
    "wide-frame/arm-past-the-end": (
        "wide-frame", lambda a: a, lambda sp: MEMORY_END - 4104 + FACT_FRAME, 0,
        "load out of bounds at 0x100000",
    ),
}


def run_fact_case(program, bad, stack, fault_at, pmu, tier):
    """Two clean runs — at ``hot_entries`` 1 the first compiles what it
    enters, the second runs the loop regrown with arms and way out
    inlined — then the run that goes wrong, twice (an arm only it
    takes is inlined the second time); ``tier`` 0 is the interpreter.
    Everything observable of all four."""
    observed = []
    for at in (-1, -1, fault_at, fault_at):
        machine = Machine(
            program, Memory(MEMORY_END), pmu_config=pmu, fast_vm=tier > 0
        )
        if tier:
            machine.translation.hot_entries = 1
            if machine.translation.tier < tier:
                machine.translation.promote()
        base = machine.memory.alloc(FACT_N * 16 + 2 * FACT_FRAME)
        assert machine.memory.size == MEMORY_END
        machine.regs[8], machine.regs[9] = at, bad(base)
        if stack is not None and at >= 0:
            machine.regs[15] = stack(machine.regs[15])
        raised_in = None
        try:
            outcome = ("ok", machine.call(0, (base, FACT_N)))
        except VMError as exc:
            outcome = ("error", str(exc), exc.ip)
            raised_in = raising_function(exc)
        caches = machine.caches
        observed.append((
            outcome, full_state(machine), caches.l1.sets, caches.l2.sets,
            caches.l2_misses,
        ))
    return observed, raised_in, machine


@pytest.mark.parametrize("tier", [1, 2])
@pytest.mark.parametrize("case", list(FACT_CASES))
def test_fault_paths_through_what_a_trace_knows(case, tier):
    # wherever a guard or a lookup went because the path had already
    # established what it checks — and wherever one had to come back —
    # the machine left behind is the interpreter's: message, ip, every
    # counter, both cache levels, the predictor, the countdown, the
    # samples; unarmed and under every sampled event
    sections, bad, stack, fault_at, error = FACT_CASES[case]
    for event in [None] + ALL_EVENTS:
        pmu = (
            PmuConfig(event=event, period=512, record_memaddr=True)
            if event is not None else None
        )
        sides = []
        for engine in (tier, 0):
            program, _ = fact_program(**FACT_SECTIONS[sections])
            sides.append(run_fact_case(program, bad, stack, fault_at, pmu, engine))
        (fast, raised_in, machine), (slow, _, _) = sides
        assert fast == slow, event
        clean, again, wrong, wrong_again = (outcome for outcome, *_ in fast)
        assert clean == again == ("ok", FACT_N) and wrong == wrong_again
        if error is None:
            assert wrong == clean
        else:
            assert wrong[0] == "error" and error in wrong[1], wrong
        assert machine.tier == tier
        if event is None and error is not None:
            assert raised_in.startswith("_b")  # compiled code raised it


_PARENT_DIGESTS = """
from tests.helpers import compiled_sources, forgotten_address_facts
import hashlib
from repro.data.queries import ALL_QUERIES
from repro.engine import Database, ProfilerConfig
from repro.serve import QueryService, ServiceConfig
from repro.vm.pmu import Event


def show(sources):
    digest = hashlib.sha256("\\0".join(sources).encode()).hexdigest()[:16]
    print(digest, len(sources), sum(s.count("\\n") for s in sources))


with forgotten_address_facts():
    for name in ("q1", "q3", "q6"):
        sql = ALL_QUERIES[name].sql
        db = Database.tpch(0.001, 42)
        with compiled_sources() as sources:  # A: a first execute
            db.execute(sql)
        show(sources)
        with compiled_sources() as sources:  # B: executions 2-3
            db.execute(sql)
            db.execute(sql)
        show(sources)
        db = Database.tpch(0.001, 42)
        with compiled_sources() as sources:  # C: armed
            db.profile(sql, ProfilerConfig(event=Event.CYCLES))
        show(sources)
        db = Database.tpch(0.001, 42)
        db.enable_tiering(hot_instructions=1)
        db.execute(sql)
        with compiled_sources() as sources:  # D: tier 2
            db.execute(sql)
            db.execute(sql)
        show(sources)
    db = Database.tpch(0.001, 42)
    service = QueryService(
        db, ServiceConfig(workers=2, tiering_hot_instructions=1)
    )
    with compiled_sources() as sources:  # E: serve, armed, tier 1 then 2
        for _ in range(3):
            service.submit(ALL_QUERIES["q6"].sql)
            service.drain()
    show(sources)
"""

# sha256[:16] over what translation handed to ``compile``, calls, lines —
# at 2ddfe78, the commit before any trace knew anything (recipes A-D per
# query, then E; ``.claude/skills/verify/SKILL.md``).  A-C are tier 1: the
# digests of ROADMAP item 3a.  D and E reach tier 2, whose same-line memo
# went with this change: those four are 2ddfe78 with the memo off its
# treatment (``_replace(memo=False)``; on: a02560679e01bae5
# 9c2ffe1717fa10b3 e2885bbe2e9d2b0d 626e5b5067d07206, which this tree
# reproduced too while it still had the memo).  Armed text (C, E) has
# changed on purpose since — admission on the static path, settle sites, no
# linear variant: those four pin what this tree writes with the facts
# forgotten, so a change to how an access is written still must not move
# them.
PARENT_DIGESTS = """
b0f840c3a9889175 5 2565
df0ee632fda75d64 7 4390
ec19522c747afc50 17 3450
5f23b26e6e5fe8be 5 4358
26f7851e0c9fcfe9 21 13502
b8361dce67f1d151 13 7221
8d44e522ae0381d3 43 13366
2ed361f89c719d33 17 22593
80a1156363c2ed9f 7 4732
7a6ec39676f5e779 3 348
adf5885d46081756 12 3719
d6284674a1b901b4 5 2718
916995c11bc9454c 19 8834
"""


def test_forgetting_the_facts_emits_the_text_of_the_commit_before_them():
    # the ablation is a value, not a flag: wipe what ``_measure`` noted at
    # the memory accesses and ``_emit`` writes, byte for byte, what the
    # parent commit wrote — the guarded, looked-up form is what an access
    # degrades to when nothing is known, not a second emitter
    root = Path(__file__).parent.parent
    run = subprocess.run(
        [sys.executable, "-c", _PARENT_DIGESTS], cwd=root, text=True,
        stdout=subprocess.PIPE, timeout=600,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
        },
    )
    assert run.returncode == 0
    assert run.stdout.split() == PARENT_DIGESTS.split()


FACT_QUERIES = (
    "q1", "q3", "q4", "q5", "q6", "q10", "q12", "q13", "q14", "q18", "q19",
)


@pytest.fixture(scope="module")
def facts_db():
    return Database.tpch(scale=0.0002, seed=42)


def everything_simulated(db, compiled, config, tier, hot_entries=None):
    """Run ``compiled`` on a translation of its own at ``tier`` (0: on
    the interpreter) — unarmed with every entered block compiled, armed
    with what heat picks (the loops: where trees grow and frames are
    hoisted) unless ``hot_entries`` says otherwise; what the machine is
    left holding."""
    vars(compiled.program).pop("_vm_translations", None)
    pmu = config.pmu_config() if config is not None else None
    translation = translation_for(compiled.program, pmu)
    if config is None or hot_entries is not None:
        translation.hot_entries = hot_entries or 1
    if tier == 2:
        translation.promote()
    run = db._run_compiled(compiled, config, fast_vm=tier > 0)
    (machine,) = run.machines.values()
    assert machine.tier == tier
    assert (translation.stats()["compiled"] > 0) == (tier > 0)
    caches = machine.caches
    return {
        **full_state(machine), "rows": run.rows,
        "l1": caches.l1.sets, "l2": caches.l2.sets,
        "l2_misses": caches.l2_misses,
        "samples": [
            (s.ip, s.tsc, s.branch_taken, s.memaddr, s.registers)
            for s in machine.samples.samples
        ],
    }, translation.source_lines


@pytest.mark.parametrize("name", FACT_QUERIES)
def test_address_facts_move_no_simulated_number(facts_db, name):
    # with the facts and with them forgotten: the same machine state,
    # both cache levels set by set, predictor and samples, at both tiers,
    # unarmed and under every sampled event — from less source
    sql = ALL_QUERIES[name].sql
    for event in [None] + ALL_EVENTS:
        config = (
            ProfilerConfig(event=event, record_memaddr=True, period=1009)
            if event is not None else None
        )
        compiled = facts_db._compile(sql, config)
        for tier in (1, 2):
            known, lines = everything_simulated(facts_db, compiled, config, tier)
            with forgotten_address_facts():
                forgotten, more = everything_simulated(
                    facts_db, compiled, config, tier
                )
            assert known == forgotten, (event, tier)
            assert lines < more


# -- admit on the static path, settle at the site ----------------------------

SETTLE_N = 48
SETTLE_FRAME = 64
SETTLE_SET = 4096  # lines this far apart share an L1 set


def settle_program():
    """r0 = &a (a 64-byte record per iteration), r1 = count, r9 = a line
    in the L1 set of frame slot [sp + 8].  Every iteration loads eight
    lines of the slot's set (``thrash``), a[i] (``stream``: a line never
    seen) and, last, the frame slot (``slot``: hoisted) — nine lines in
    eight ways, so all nine miss L1 for good and, once seen, hit L2; in
    between a BRZ and a BRNZ on bits of a[i], and two BRNZ deep an arm
    with a load of its own (``deep``).  Returns the program and its ips."""
    items = [
        (Op.ADDI, 15, 15, -SETTLE_FRAME),
        (Op.MOVI, 3, 0, 0),
        (Op.MOVI, 2, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.SHLI, 10, 3, 6),
        (Op.ADD, 10, 0, 10),
        Label("thrash"),
        *[(Op.LOAD, 12, 9, way * SETTLE_SET) for way in range(8)],
        Label("stream"),
        (Op.LOAD, 6, 10, 0),
        (Op.ANDI, 7, 6, 1),
        Label("brz"),
        (Op.BRZ, 7, "even", 0),
        (Op.ADD, 2, 2, 6),
        Label("even"),
        (Op.ANDI, 7, 6, 2),
        Label("brnz"),
        (Op.BRNZ, 7, "arm", 0),
        Label("back"),
        (Op.LOAD, 11, 15, 8),
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("arm"),
        (Op.ANDI, 7, 6, 4),
        (Op.BRNZ, 7, "deep", 0),
        (Op.JMP, "back", 0, 0),
        Label("deep"),
        (Op.LOAD, 8, 10, 8 * SETTLE_SET),
        (Op.JMP, "back", 0, 0),
        Label("done"),
        (Op.ADDI, 15, 15, SETTLE_FRAME),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    code, offsets = assemble(items)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    return program, offsets


def run_settle(program, pmu, countdown, tier):
    """One run from ``countdown``; ``tier`` 0 is the interpreter.
    Everything observable, and per sample the function that took it."""
    machine = Machine(
        program, Memory(1 << 20), pmu_config=pmu, fast_vm=tier > 0
    )
    memory = machine.memory
    base = memory.alloc(SETTLE_N * 64 + 9 * SETTLE_SET, align=SETTLE_SET)
    for i in range(SETTLE_N):
        memory.words[(base + 64 * i) >> 3] = (i * 2654435761 >> 5) & 0xFFFF
    thrash = memory.alloc(9 * SETTLE_SET, align=SETTLE_SET)
    slot = machine.regs[15] - SETTLE_FRAME + 8
    machine.regs[9] = thrash + (slot - thrash) % SETTLE_SET
    machine._countdown = countdown
    took, handed = [], []
    take_sample, interp = machine._take_sample, machine._interp

    def recording_sample(*args, **kwargs):
        took.append(sys._getframe(1).f_code.co_name)
        take_sample(*args, **kwargs)

    def recording_interp(ip, blocks):
        handed.append((ip, machine._countdown))
        return interp(ip, blocks)

    machine._take_sample, machine._interp = recording_sample, recording_interp
    result = machine.call(0, (base, SETTLE_N))
    caches = machine.caches
    observed = (
        result, full_state(machine), caches.l1.sets, caches.l2.sets,
        caches.l2_misses,
        [(s.registers, s.callstack) for s in machine.samples.samples],
    )
    return observed, took, handed, machine


SETTLE_SWEEPS = {
    # event: (period, the countdowns a run starts on).  In cycles an
    # iteration costs ~250: the sweep moves the sample across a whole one
    # cycle by cycle, so it falls due on every instruction of it in turn.
    # The other two count the settled event itself.
    Event.CYCLES: (1000, range(300, 560)),
    Event.L1_MISS: (128, range(1, 40)),
    Event.BRANCH_MISS: (128, range(1, 30)),
}


@pytest.mark.parametrize("tier", [1, 2])
@pytest.mark.parametrize(
    "event", list(SETTLE_SWEEPS), ids=[e.name for e in SETTLE_SWEEPS]
)
def test_a_sample_due_at_a_settle_site_is_taken_there(event, tier):
    # Admission covers the static path; what a miss or a mispredict costs
    # on top settles in the arm that finds it out.  Wherever the sample
    # falls due — on a load that missed to L2 or to memory, on a hoisted
    # frame slot, on either way of a mispredicted BRZ or BRNZ, two arms
    # deep, after an earlier miss of the same pass, mid-iteration of a
    # deferred loop — the compiled function takes it itself, on the
    # interpreter's state; and where it is not due but the rest of the
    # pass is no longer covered, it hands the next ip over.
    period, countdowns = SETTLE_SWEEPS[event]
    pmu = PmuConfig(
        event=event, period=period, record_registers=True,
        record_memaddr=True,
    )
    program, at = settle_program()
    translation = translation_for(program, pmu)
    translation.hot_entries = 1
    if tier == 2:
        translation.promote()
    for _ in range(3):  # compile, then regrow with the arms inlined
        run_settle(program, pmu, period, tier)
    loop = translation.blocks[at["loop"]]
    code = loop[0].__code__
    assert ("_ins" in code.co_varnames) == (tier == 2)  # deferred or not
    assert "_w" in code.co_varnames  # the frame slot is hoisted
    in_loop, compiled, not_due = set(), set(), 0
    for countdown in countdowns:
        fast, took, handed, machine = run_settle(program, pmu, countdown, tier)
        slow, _, _, _ = run_settle(program, pmu, countdown, 0)
        assert fast == slow, countdown
        assert machine.tier == tier
        samples = machine.samples.samples
        assert len(took) == len(samples) > 0
        for sample, name in zip(samples, took):
            site = (sample.ip, sample.branch_taken)
            if name == code.co_name:
                in_loop.add(site)
            if name.startswith("_b"):
                compiled.add(site)
        # handed a mid-trace ip (no block of its own) on a live countdown
        # the loop's bound no longer admits: a settle that was not due
        not_due += sum(
            ip not in translation.blocks and 0 < left <= loop[2]
            for ip, left in handed
        )
    thrash = {(at["thrash"] + way, None) for way in range(8)}
    stream, slot, deep = (
        (at[name], None) for name in ("stream", "back", "deep")
    )
    mispredicts = {
        (at[name], taken)
        for name in ("brz", "brnz") for taken in (True, False)
    }
    if event is Event.CYCLES:
        # a miss to memory, the second of its pass two arms deep, an L2
        # hit on the hoisted slot; a mispredict costs less than the
        # loop's static tail, so it settles due only in a shorter block
        assert {stream, deep, slot} <= in_loop
        assert compiled & mispredicts
        assert not_due > 0
    elif event is Event.L1_MISS:
        # the settle is the event: every load, and nothing else, sampled
        # by the loop — the ninth miss of a pass as well as the first
        assert thrash | {stream, deep, slot} == in_loop
    else:
        # either way of a BRZ and of a BRNZ
        assert mispredicts <= in_loop
        assert {ip for ip, _ in in_loop} <= {
            at["loop"] + 1, at["brz"], at["brnz"], at["arm"] + 1,
        }


_SETTLE_CASES = st.tuples(
    st.sampled_from(FACT_QUERIES), st.sampled_from(ALL_EVENTS),
    st.integers(128, 2000), st.sampled_from([1, 2]),
)


@given(_SETTLE_CASES)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
def test_any_period_samples_what_the_interpreter_samples(facts_db, case):
    # whatever the period makes of the windows — a settle at every other
    # miss, blocks barely admitted — state, both cache levels, predictor
    # and the sample stream are the interpreter's
    name, event, period, tier = case
    config = ProfilerConfig(event=event, record_memaddr=True, period=period)
    compiled = facts_db._compile(ALL_QUERIES[name].sql, config)
    fast, _ = everything_simulated(facts_db, compiled, config, tier, 1)
    slow, _ = everything_simulated(facts_db, compiled, config, 0)
    assert fast == slow


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


SHORT_PERIOD_REPROS = {
    # scale, seed, profiling mode, memaddr, CYCLES period: two streams the
    # fast VM got wrong while the segmented re-check of its armed linear
    # variant read ``m._countdown - cy + 15`` for ``- (cy + 15)`` (23 of
    # 7,601 samples from #5906 on, ip 447 for 445; 1 of 1,762) — the
    # worst-case slack of a default-period window hid it
    "tagging-700": (0.002, 42, ProfilingMode.REGISTER_TAGGING, True, 700),
    "callstack-1500": (0.001, 7, ProfilingMode.CALLSTACK, False, 1500),
}


@pytest.mark.parametrize("repro", list(SHORT_PERIOD_REPROS))
def test_short_period_sample_streams_are_the_interpreters(repro):
    # one compiled plan on both engines (component tags differ between two
    # compiles in one process, so r14 compares only within a plan)
    scale, seed, mode, memaddr, period = SHORT_PERIOD_REPROS[repro]
    db = Database.tpch(scale=scale, seed=seed)
    config = ProfilerConfig(
        mode=mode, event=Event.CYCLES, period=period, record_memaddr=memaddr
    )
    compiled = db._compile(ALL_QUERIES["q1"].sql, config)
    fast, slow = (
        [
            (s.ip, s.tsc, s.registers, s.callstack, s.memaddr, s.branch_taken)
            for _, s in db._run_compiled(
                compiled, config, fast_vm=fast_vm
            ).samples
        ]
        for fast_vm in (True, False)
    )
    assert len(fast) == len(slow) > 1000
    assert fast == slow


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
