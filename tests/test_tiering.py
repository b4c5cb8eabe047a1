"""Tiered adaptive execution (repro.vm.tiering).

Covers the full promotion lifecycle — tier-1 profile, hotness
threshold, promotion in place of the program's one translation — and
the exactness contract that makes tier choice a pure wall-clock
decision: tier-2 traces reproduce the interpreter's machine state
bit-for-bit, including when a deferred loop's edge check fails (a
sampling window or an instruction budget about to end) and the loop
flushes its deferred state — registers, counters, predictor, PMU
countdown — back to the machine mid-run.
"""

import warnings
from dataclasses import asdict

import pytest

from repro import Database
from repro.errors import VMError
from repro.vm import costs
from repro.vm.isa import (
    CodeRegion,
    Label,
    Opcode as Op,
    Program,
    assemble,
    rebase,
)
from repro.vm.machine import Machine
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig
from repro.vm.tiering import TieringController

# a hot loop exercising every deferred-state dimension: arithmetic,
# memory traffic (LOAD/STORE through the cache model), and a data-
# dependent branch for the predictor
LOOP_SUM = [
    (Op.MOVI, 2, 0, 0),
    (Op.MOVI, 3, 0, 0),
    Label("loop"),
    (Op.CMPGE, 4, 3, 1),
    (Op.BRNZ, 4, "done", 0),
    (Op.SHLI, 5, 3, 3),
    (Op.ADD, 5, 0, 5),
    (Op.MUL, 6, 3, 3),
    (Op.STORE, 5, 6, 0),
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
# enough iterations to cross several sampling windows when armed, so
# the deferred loop is re-entered with a live countdown
N = 2000


def build_program() -> Program:
    code, _ = assemble(LOOP_SUM)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    return program


def run_machine(program, *, pmu=None, fast_vm=True, tiering=None, n=N):
    machine = Machine(
        program, Memory(1 << 20), pmu_config=pmu,
        fast_vm=fast_vm, tiering=tiering,
    )
    base = machine.memory.alloc(n * 8)
    result = machine.call(0, (base, n))
    return machine, result


def observed_state(machine) -> dict:
    """Every machine-state dimension the exactness contract covers."""
    return {
        "state": asdict(machine.state),
        "regs": list(machine.regs),
        "cache_accesses": machine.caches.accesses,
        "l1_misses": machine.caches.l1_misses,
        "branches": machine.predictor.branches,
        "mispredicts": machine.predictor.mispredicts,
        "predictor_counters": machine.predictor.state(),
        "samples": [
            (s.ip, s.tsc, s.branch_taken, s.memaddr)
            for s in machine.samples.samples
        ],
        "countdown": machine._countdown,
    }


def promote(program, controller, pmu=None) -> Machine:
    """One tier-1 run under ``controller``, observed past the threshold.

    A translation is per PMU event mode, so the warm run must be armed
    the same way as the runs that should execute specialized.
    """
    machine, _ = run_machine(program, pmu=pmu, tiering=controller)
    assert machine.tier == 1
    promoted = controller.observe(machine, machine.state.instructions)
    assert promoted
    return machine


# -- promotion lifecycle -----------------------------------------------------


def test_promotion_crosses_the_hotness_threshold():
    program = build_program()
    controller = TieringController(hot_instructions=10**9)
    machine, _ = run_machine(program, tiering=controller)
    # far below threshold: observation accumulates, never promotes
    assert not controller.observe(machine, machine.state.instructions)
    assert machine.tier == 1
    assert machine.translation.retired == machine.state.instructions

    hot = TieringController(hot_instructions=100)
    blocks = machine.translation.blocks
    assert hot.observe(machine, machine.state.instructions)
    # promotion is a state change of the one translation: same object,
    # same block map, every entry a stub again
    assert machine.tier == 2
    assert machine.translation.blocks is blocks
    assert not machine.translation.compiled
    assert len(program._vm_translations) == 1
    # a second observation never re-promotes
    assert not hot.observe(machine, 10**6)
    assert hot.stats() == {"promotions": 1, "hot_programs": 1}
    stats = machine.translation.stats()
    assert stats["tier"] == 2 and stats["retired"] >= 100


def test_a_machine_on_a_promoted_program_starts_at_tier2():
    program = build_program()
    early = Machine(program, Memory(1 << 20))
    promote(program, TieringController(hot_instructions=100))
    # the tier is the program's: a machine built before the promotion
    # follows it, and one built afterwards starts promoted — with or
    # without a controller of its own
    assert early.tier == 2
    late = Machine(program, Memory(1 << 20))
    assert late.tier == 2
    assert late.translation is early.translation
    # ... per PMU event mode: an armed machine has its own translation
    armed = Machine(
        program, Memory(1 << 20),
        pmu_config=PmuConfig(event=Event.CYCLES, period=2048),
    )
    assert armed.tier == 1


def test_entry_counting_stops_after_promotion():
    program = build_program()
    controller = TieringController(hot_instructions=100)
    machine, _ = run_machine(program, tiering=controller)
    # tier-1 dispatches under a controller fill the translation's
    # per-block entry counts — the profile that places hot-block trees
    entries = machine.translation.entries
    assert entries
    # without a controller nothing counts
    frozen = dict(entries)
    run_machine(program)
    assert entries == frozen
    assert controller.observe(machine, machine.state.instructions)
    # promotion froze the counts: tier-2 runs no longer pay for counting
    run_machine(program, tiering=controller)
    assert entries == frozen


# every block of this program is one leader-to-leader stretch (calls and
# returns end a trace, and no side arm is ever inlined), so a run enters
# each leader the same number of times whichever engine runs the block
CALL_CHAIN = [
    (Op.MOVI, 3, 0, 0),
    Label("loop"),
    (Op.CALL, 6, 0, 0),        # a
    (Op.ADDI, 3, 3, 1),
    (Op.CMPLT, 4, 3, 1),
    (Op.BRNZ, 4, "loop", 0),
    (Op.RET, 0, 0, 0),
    Label("a"),
    (Op.CALL, 8, 0, 0),        # b
    (Op.RET, 0, 0, 0),
    Label("b"),
    (Op.ADDI, 2, 2, 1),
    (Op.RET, 0, 0, 0),
]


@pytest.mark.parametrize(
    "pmu", [None, PmuConfig(event=Event.CYCLES, period=2048)],
    ids=["unarmed", "armed"],
)
def test_stub_dispatches_are_not_block_entries(pmu):
    # The entry profile tier 2 reads counts one per block entry, however
    # the entry ran: interpreted while the leader is cold, through the
    # stub dispatch that compiles it (which hands the same ip back — the
    # extra dispatch is taken out again), or compiled.
    rows = 200
    code, offsets = assemble(CALL_CHAIN)
    assert (offsets["a"], offsets["b"]) == (6, 8)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    controller = TieringController(hot_instructions=10**12)

    def run():
        machine = Machine(
            program, Memory(1 << 20), pmu_config=pmu, tiering=controller
        )
        assert machine.call(0, (0, rows)) == 0
        return machine.translation

    # the first run interprets 15 entries of every per-row leader, then
    # compiles it; the entry and exit blocks stay cold
    translation = run()
    hot = translation.hot_entries
    per_row = {offsets["loop"] + 1, offsets["a"], offsets["a"] + 1,
               offsets["b"]}
    assert per_row <= translation.compiled
    assert translation.compiled <= {
        ip for ip, n in translation.heat.items() if n >= hot
    }
    first = dict(translation.entries)
    for ip in per_row:
        # armed, the tail of a sampling window interprets compiled
        # blocks, and those hand-overs were never entries
        assert first[ip] == rows or pmu and rows * 0.8 < first[ip] < rows
    assert first[0] == 1 and 0 not in translation.compiled
    # same program, same translation, the per-row blocks now compiled
    # from the start: the second run adds exactly what the first counted
    assert run() is translation
    assert translation.entries == {ip: 2 * n for ip, n in first.items()}


def test_promotion_drops_what_the_tier1_trees_pruned():
    # a tier-1 tree compiled while an arm was cold remembers the exit,
    # and is compiled again when the arm turns hot; that bookkeeping
    # belongs to the tier-1 map.  Left behind, a tier-1 exit turning hot
    # would send a tier-2 root — the expensive kind — back to a stub.
    items = [
        (Op.MOVI, 2, 0, 0),
        (Op.MOVI, 3, 0, 0),
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.CMPGE, 7, 3, 8),
        (Op.BRNZ, 7, "late", 0),   # taken from iteration r8 on
        Label("back"),
        (Op.CMPLTI, 7, 3, 0),
        (Op.BRNZ, 7, "never", 0),
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("late"),
        (Op.ADDI, 2, 2, 3),
        (Op.JMP, "back", 0, 0),
        Label("never"),
        (Op.MOVI, 2, -1, 0),
        Label("done"),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    code, offsets = assemble(items)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    loop, late, never = (offsets[name] for name in ("loop", "late", "never"))
    controller = TieringController(hot_instructions=10**9)

    def run(count, phase, **kwargs):
        machine = Machine(program, Memory(1 << 20), **kwargs)
        machine.regs[8] = phase
        return machine, machine.call(0, (0, count))

    # tier 1: one arm stays cold in the first run (pruned) and turns hot
    # in the second (regrown), the other is never taken
    warm, _ = run(400, 10**6, tiering=controller)
    translation = warm.translation
    assert {late, never} <= translation.pruned[loop]
    run(400, 100, tiering=controller)
    assert translation.regrown == {loop: 1}
    assert never in translation.pruned[loop]
    translation.promote()
    assert translation.tier == 2
    assert not translation.pruned and not translation.regrown
    stats = translation.stats()
    assert (stats["pruned_exits"], stats["regrown"]) == (0, 0)
    # tier 2 keeps the heat: the loop compiles on its first entry, with
    # the arm that is hot by now inlined, and nothing sends it back
    tiered, result = run(400, 100, tiering=controller)
    interp, expected = run(400, 100, fast_vm=False)
    assert result == expected
    assert observed_state(tiered) == observed_state(interp)
    assert loop in translation.compiled and not translation.regrown
    assert late not in translation.pruned[loop]


# -- the specializations tier 2 keeps are in effect ---------------------------

LOOP_HEAD = 2  # ip of LOOP_SUM's "loop" label

# a per-row probe chain: ``f`` calls ``probe`` once per iteration, and
# ``probe`` — a leader without a loop of its own — side-exits to a
# continuation on odd rows
PROBE = 9  # ip of the "probe" label (CALL takes an absolute target)
PROBE_CHAIN = [
    (Op.MOVI, 2, 0, 0),
    (Op.MOVI, 3, 0, 0),
    Label("loop"),
    (Op.CMPGE, 4, 3, 1),
    (Op.BRNZ, 4, "done", 0),
    (Op.CALL, PROBE, 0, 0),
    (Op.ADDI, 3, 3, 1),
    (Op.JMP, "loop", 0, 0),
    Label("done"),
    (Op.MOV, 0, 2, 0),
    (Op.RET, 0, 0, 0),
    Label("probe"),
    (Op.ANDI, 7, 3, 1),
    (Op.BRNZ, 7, "odd", 0),
    (Op.ADDI, 2, 2, 2),
    (Op.RET, 0, 0, 0),
    Label("odd"),
    (Op.ADDI, 2, 2, 1),
    (Op.ADDI, 2, 2, 1),
    (Op.ADDI, 2, 2, 1),
    (Op.RET, 0, 0, 0),
]


def probe_chain_blocks(rows: int):
    """The tier-1 and tier-2 entries of ``probe`` after a profiled run
    that entered it ``rows`` times."""
    code, offsets = assemble(PROBE_CHAIN)
    assert offsets["probe"] == PROBE
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    controller = TieringController(hot_instructions=100)
    machine = Machine(program, Memory(1 << 20), tiering=controller)
    profiled = machine.call(0, (0, rows))
    tier1 = machine.translation.block(PROBE)
    assert controller.observe(machine, machine.state.instructions)
    machine = Machine(program, Memory(1 << 20), tiering=controller)
    assert machine.tier == 2 and machine.call(0, (0, rows)) == profiled
    hot = machine.translation.stats()["hot_blocks"]
    assert hot == sum(
        n >= costs.TIER2_HOT_BLOCK_ENTRIES
        for n in machine.translation.entries.values()
    )
    return tier1, machine.translation.block(PROBE), hot


def test_hot_non_loop_block_grows_a_tree_at_tier2():
    tier1, tier2, hot = probe_chain_blocks(costs.TIER2_HOT_BLOCK_ENTRIES)
    assert hot >= 1
    # entry[1] is the most instructions one dispatch of the block can
    # retire: tier 1 hands the odd-row continuation back to the driver,
    # the hot-block tree inlines it
    assert tier2[1] > tier1[1]
    # one entry short of hot, the tier-2 block is the tier-1 trace
    tier1, tier2, _ = probe_chain_blocks(costs.TIER2_HOT_BLOCK_ENTRIES - 1)
    assert tier2[1] == tier1[1]


def loop_head_code(pmu=None):
    """LOOP_SUM's loop-head function at tier 1 and at tier 2 (armed like
    ``pmu``), each after a run that entered it."""
    program = build_program()
    controller = TieringController(hot_instructions=100)
    promote(program, controller, pmu=pmu)
    # a promoted translation has no tier-1 blocks left: read tier 1
    # from a twin program
    twin, _ = run_machine(build_program(), pmu=pmu)
    tiered, _ = run_machine(program, pmu=pmu, tiering=controller)
    assert (twin.tier, tiered.tier) == (1, 2)
    return (
        twin.translation.block(LOOP_HEAD)[0].__code__,
        tiered.translation.block(LOOP_HEAD)[0].__code__,
    )


def test_memory_accesses_are_written_alike_at_both_tiers():
    tier1, tier2 = loop_head_code()
    # the loop body has a STORE and a LOAD of the same address: one L1
    # lookup at either tier (the static facts of a path are not a tier
    # matter), and tier 2 keeps no same-line memo beside them
    for code in (tier1, tier2):
        assert {"_acc", "_ln", "_tg"} <= set(code.co_varnames)
        assert "_mln" not in code.co_varnames


def test_loop_head_defers_with_one_edge_shape_armed_or_not():
    _, unarmed = loop_head_code(None)
    _, armed = loop_head_code(PmuConfig(event=Event.INSTRUCTIONS, period=2048))
    # deferred sync: counters and predictor state live in locals
    deferred = {"_ins", "_cyt", "_ld", "_st", "_pb", "_pm", "_ib"}
    assert deferred <= set(unarmed.co_varnames)
    # the armed loop is the same function plus the countdown
    assert set(armed.co_varnames) == set(unarmed.co_varnames) | {"_cd"}
    assert set(armed.co_names) == set(unarmed.co_names) | {"_countdown"}


# -- exactness: tier 2 and its mid-run flush vs the interpreter --------------

ARMED = PmuConfig(event=Event.CYCLES, period=2048, record_memaddr=True)


def test_tier2_matches_interpreter_bit_for_bit():
    program = build_program()
    controller = TieringController(hot_instructions=100)
    promote(program, controller, pmu=ARMED)
    tiered, tiered_result = run_machine(
        program, pmu=ARMED, tiering=controller
    )
    assert tiered.tier == 2
    interp, interp_result = run_machine(program, pmu=ARMED, fast_vm=False)
    assert tiered_result == interp_result
    assert observed_state(tiered) == observed_state(interp)
    assert tiered.samples.samples, "the armed run must have sampled"


# periods small enough that the deferred loop's edge check also fails for
# the countdown, many times per run, on top of the budget stops below
SWEEP_N = 160
SWEEP_PMUS = {
    "unarmed": None,
    "cycles": PmuConfig(event=Event.CYCLES, period=512, record_memaddr=True),
    "instructions": PmuConfig(event=Event.INSTRUCTIONS, period=128),
}


@pytest.mark.parametrize("mode", list(SWEEP_PMUS))
def test_budget_stop_flushes_the_deferred_loop_exactly(mode):
    # An instruction limit that runs out inside the deferred loop fails
    # its edge check at some iteration: the loop flushes registers,
    # counters, predictor and countdown and hands the head back to the
    # driver, which interprets up to the fault.  Sweep the limit across
    # every iteration (stride 5 against a body of 11-12 instructions
    # lands in each at least twice): wherever the stop falls, the machine
    # left behind is the interpreter's.
    pmu = SWEEP_PMUS[mode]
    program = build_program()
    promote(program, TieringController(hot_instructions=100), pmu=pmu)

    def stopped(limit, **kwargs):
        machine = Machine(program, Memory(1 << 20), pmu_config=pmu, **kwargs)
        machine.state.max_instructions = limit
        base = machine.memory.alloc(SWEEP_N * 8)
        try:
            outcome = ("ok", machine.call(0, (base, SWEEP_N)))
        except VMError as exc:
            outcome = (type(exc).__name__, str(exc), exc.ip)
        return outcome, machine

    _, whole = stopped(10**9)
    assert whole.tier == 2
    total = whole.state.instructions
    if pmu is not None:
        assert len(whole.samples.samples) >= 8
    outcomes = set()
    for limit in range(1, total + 5, 5):
        out_t, tiered = stopped(limit)
        out_i, interp = stopped(limit, fast_vm=False)
        assert out_t == out_i, limit
        assert observed_state(tiered) == observed_state(interp), limit
        outcomes.add(out_t[0])
    assert outcomes == {"ok", "InstructionBudgetExceeded"}


# -- engine integration ------------------------------------------------------

SQL = (
    "SELECT p.category, SUM(s.price * s.vat_factor) "
    "FROM sales s, products p WHERE s.id = p.id GROUP BY p.category"
)


@pytest.fixture(scope="module")
def db():
    return Database.example(n_sales=1500, n_products=50)


def test_query_results_carry_the_effective_tier(db):
    db.plan_cache.clear()
    controller = TieringController(hot_instructions=1)
    baseline = db.execute(SQL)
    first = db.execute(SQL, tiering=controller)
    second = db.execute(SQL, tiering=controller)
    assert baseline.tier == 1
    assert first.tier == 1  # ran tier 1, promoted afterwards
    assert second.tier == 2
    assert sorted(second.rows) == sorted(baseline.rows)
    # tier choice is wall-clock only: simulated counters are identical
    assert (second.cycles, second.instructions) == (
        baseline.cycles, baseline.instructions
    )
    # ... and next to the tier, what that tier's translation cost: only
    # the blocks the runs entered compiled, at either tier
    for result in (baseline, second):
        cost = result.translation
        assert 0 < cost["compiled"] < cost["leaders"]
        assert cost["source_lines"] > 0 and cost["compile_s"] > 0
    assert db.execute(SQL, fast_vm=False).translation is None


def test_enable_tiering_and_plan_cache_supersession(db):
    db.plan_cache.clear()
    controller = db.enable_tiering(hot_instructions=1)
    try:
        assert db.enable_tiering() is controller  # idempotent
        db.execute(SQL)
        hits = db.plan_cache.hits
        result = db.execute(SQL)
        assert result.tier == 2
        # the tier-2 translation lives on the cached plan's Program: the
        # promotion is the controller's to report, the cache entry is
        # the same one, hit on the second run
        assert controller.stats() == {"promotions": 1, "hot_programs": 1}
        assert db.plan_cache.stats()["entries"] == 1
        assert db.plan_cache.hits == hits + 1
    finally:
        db.tiering = None
        db.plan_cache.clear()


def test_callers_sharing_a_cached_plan_share_its_tier(db):
    db.plan_cache.clear()
    try:
        assert db.execute(SQL).tier == 1
        controller = TieringController(hot_instructions=1)
        promoting = db.execute(SQL, tiering=controller)
        # the run that crossed the threshold itself executed at tier 1,
        # and its record shows what it had observed by then
        assert promoting.tier == promoting.translation["tier"] == 1
        # the next caller of the plan has no controller and runs tier 2
        follower = db.execute(SQL)
        assert follower.tier == follower.translation["tier"] == 2
        assert follower.translation["retired"] >= promoting.instructions
    finally:
        db.plan_cache.clear()


def test_fast_vm_auto_disable_warns():
    program = build_program()
    low = PmuConfig(
        event=Event.INSTRUCTIONS, period=costs.FAST_VM_MIN_PERIOD - 1
    )
    with pytest.warns(RuntimeWarning, match="fast VM disarmed"):
        machine = Machine(program, Memory(1 << 20), pmu_config=low)
    assert machine.tier == 0
    # explicit fast_vm=False is a choice, not an accident: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = Machine(
            program, Memory(1 << 20), pmu_config=low, fast_vm=False
        )
    assert quiet.tier == 0


# -- serve integration -------------------------------------------------------


def test_service_promotes_and_reports_tiers():
    from repro.serve import QueryService, ServiceConfig

    database = Database.example(n_sales=1500, n_products=50)
    baseline = database.execute(SQL)
    service = QueryService(database, ServiceConfig(
        workers=2, max_inflight=4, tiering_hot_instructions=1,
    ))
    session = service.session("tiering-test")
    tickets = [session.submit(SQL) for _ in range(4)]
    service.drain()
    results = [service.result(t) for t in tickets]
    assert all(r.status == "ok" for r in results)
    tiers = [r.tier for r in results]
    assert max(tiers) == 2, f"no query re-tiered: {tiers}"
    assert all(r.translation["compiled"] > 0 for r in results)
    for r in results:
        assert sorted(r.rows) == sorted(baseline.rows)
    stats = service.stats()
    assert stats["tiering"]["promotions"] >= 1


def test_inflight_query_follows_a_concurrent_promotion():
    from repro.serve import QueryService, ServiceConfig

    database = Database.example(n_sales=1500, n_products=50)
    baseline = database.execute(SQL)
    # two copies of one plan in flight, a threshold neither reaches alone
    # before the other has run: one of them promotes the shared
    # translation, the other finds tier 2 at its next unit
    service = QueryService(database, ServiceConfig(
        workers=2, max_inflight=2, morsel_size=64,
        tiering_hot_instructions=baseline.instructions // 2,
    ))
    unit_tiers: dict[int, list[int]] = {}
    dispatch = service._dispatch

    def traced(execution, unit):
        dispatch(execution, unit)
        unit_tiers.setdefault(execution.query_id, []).append(
            execution.ran["tier"]
        )

    service._dispatch = traced
    session = service.session("inflight")
    tickets = [session.submit(SQL) for _ in range(2)]
    service.drain()
    assert service.stats()["tiering"] == {"promotions": 1, "hot_programs": 1}
    assert len(unit_tiers) == 2
    for tiers in unit_tiers.values():
        assert len(tiers) > 4  # multi-morsel
        assert tiers == sorted(tiers) and {tiers[0], tiers[-1]} == {1, 2}
    results = [service.result(ticket) for ticket in tickets]
    for result in results:
        assert result.status == "ok" and result.tier == 2
        assert sorted(result.rows) == sorted(baseline.rows)
    # the copies switched tiers at different units; the counters agree
    assert results[0].instructions == results[1].instructions


def test_service_tiering_off_never_promotes():
    from repro.serve import QueryService, ServiceConfig

    database = Database.example(n_sales=1500, n_products=50)
    service = QueryService(database, ServiceConfig(
        workers=2, max_inflight=4, tiering=False,
    ))
    session = service.session("no-tiering")
    tickets = [session.submit(SQL) for _ in range(2)]
    service.drain()
    results = [service.result(t) for t in tickets]
    assert all(r.status == "ok" for r in results)
    assert all(r.tier <= 1 for r in results)
    assert "tiering" not in service.stats()
