"""Tiered adaptive execution (repro.vm.tiering).

Covers the full promotion lifecycle — rolling profile, hotness
threshold, tier-2 installation at commit points — and the two exactness
contracts that make tier choice a pure wall-clock decision: tier-2
traces reproduce the interpreter's machine state bit-for-bit, and a
guard-miss deoptimization flushes the deferred state (registers,
counters, PMU countdown, sample stream) exactly before demoting to
tier 1.
"""

import warnings

import pytest

from repro import Database
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


def run_machine(program, *, pmu=None, fast_vm=True, tiering=None):
    machine = Machine(
        program, Memory(1 << 20), pmu_config=pmu,
        fast_vm=fast_vm, tiering=tiering,
    )
    base = machine.memory.alloc(N * 8)
    result = machine.call(0, (base, N))
    return machine, result


def observed_state(machine) -> dict:
    """Every machine-state dimension the exactness contract covers."""
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
        "countdown": machine._countdown,
    }


def promote(program, controller, pmu=None) -> Machine:
    """One tier-1 run under ``controller``, observed past the threshold.

    Promotion compiles the tier-2 translation variant for the observing
    machine's PMU configuration, so the warm run must be armed the same
    way as the runs that should execute specialized.
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
    assert controller.tier_for(program) == 1
    assert machine.tier == 1

    hot = TieringController(hot_instructions=100)
    machine = promote(program, hot)
    # the observing machine re-tiers immediately (it is at a call
    # boundary); a second observation never re-promotes
    assert machine.tier == 2
    assert hot.tier_for(program) == 2
    assert not hot.observe(machine, 10**6)
    assert hot.stats()["promotions"] == 1
    assert hot.stats()["hot_programs"] == 1


def test_apply_installs_the_pending_map_on_other_machines():
    program = build_program()
    controller = TieringController(hot_instructions=100)
    promote(program, controller)
    # a machine that missed the promotion picks it up at a commit point
    late = Machine(program, Memory(1 << 20))
    assert late.tier == 1
    controller.apply(late)
    assert late.tier == 2
    # fresh machines constructed under the controller start promoted
    fresh, _ = run_machine(program, tiering=controller)
    assert fresh.tier == 2


def test_entry_counting_stops_after_promotion():
    program = build_program()
    controller = TieringController(hot_instructions=100)
    machine, _ = run_machine(program, tiering=controller)
    # tier-1 dispatches under a controller fill the per-block entry
    # counts — the profile dimension that places hot-block trees
    assert machine.block_entries
    assert controller.observe(machine, machine.state.instructions)
    # observation consumed the counts, and the promoted machine's
    # driver no longer pays for counting
    assert not machine.block_entries
    base = machine.memory.alloc(N * 8)
    machine.call(0, (base, N))
    assert not machine.block_entries


@pytest.mark.parametrize(
    "pmu", [None, PmuConfig(event=Event.CYCLES, period=2048)],
    ids=["unarmed", "armed"],
)
def test_stub_dispatches_are_not_block_entries(pmu):
    # blocks compile on first entry: the first machine reaches every
    # block through a stub that hands the same ip back, and that extra
    # dispatch must not show up in the entry profile tier 2 reads
    program = build_program()
    controller = TieringController(hot_instructions=10**12)
    first, _ = run_machine(program, pmu=pmu, tiering=controller)
    assert first.translation.compiled
    # same program, same translation, now fully materialised
    second, _ = run_machine(program, pmu=pmu, tiering=controller)
    assert second.translation is first.translation
    assert first.block_entries
    assert first.block_entries == second.block_entries
    assert set(first.block_entries) <= first.translation.compiled


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
    results = []
    for _ in range(2):  # the first run profiles and promotes
        machine = Machine(program, Memory(1 << 20), tiering=controller)
        results.append(machine.call(0, (0, rows)))
        controller.observe(machine, machine.state.instructions)
    assert machine.tier == 2 and results[0] == results[1]
    return machine._tier1.block(PROBE), machine.translation.block(PROBE)


def test_hot_non_loop_block_grows_a_tree_at_tier2():
    tier1, tier2 = probe_chain_blocks(costs.TIER2_HOT_BLOCK_ENTRIES)
    # entry[1] is the most instructions one dispatch of the block can
    # retire: tier 1 hands the odd-row continuation back to the driver,
    # the hot-block tree inlines it
    assert tier2[1] > tier1[1]
    # one entry short of hot, the tier-2 block is the tier-1 trace
    tier1, tier2 = probe_chain_blocks(costs.TIER2_HOT_BLOCK_ENTRIES - 1)
    assert tier2[1] == tier1[1]


def tier2_loop_machine(pmu=None) -> Machine:
    """A machine that ran LOOP_SUM at tier 2 (armed like ``pmu``)."""
    program = build_program()
    controller = TieringController(hot_instructions=100)
    promote(program, controller, pmu=pmu)
    tiered, _ = run_machine(program, pmu=pmu, tiering=controller)
    assert tiered.tier == 2
    return tiered


def test_same_line_memo_is_tier2_only():
    tiered = tier2_loop_machine()
    tier1 = tiered._tier1.block(LOOP_HEAD)[0].__code__
    tier2 = tiered.translation.block(LOOP_HEAD)[0].__code__
    # the loop body has a STORE and a LOAD of the same line
    assert "_acc" in tier1.co_varnames and "_acc" in tier2.co_varnames
    assert "_mln" in tier2.co_varnames
    assert "_mln" not in tier1.co_varnames


def test_loop_head_defers_with_one_edge_shape_armed_or_not():
    def loop_head_code(pmu):
        return tier2_loop_machine(pmu).translation.block(LOOP_HEAD)[0].__code__

    unarmed = loop_head_code(None)
    armed = loop_head_code(PmuConfig(event=Event.INSTRUCTIONS, period=2048))
    # deferred sync: counters and predictor state live in locals
    deferred = {"_ins", "_cyt", "_ld", "_st", "_pb", "_pm", "_ib"}
    assert deferred <= set(unarmed.co_varnames)
    # the armed loop is the same function plus the countdown
    assert set(armed.co_varnames) == set(unarmed.co_varnames) | {"_cd"}
    assert set(armed.co_names) == set(unarmed.co_names) | {"_countdown"}


# -- exactness: tier 2 and deoptimization vs the interpreter -----------------

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


def test_forced_deopt_restores_exact_state():
    program = build_program()
    controller = TieringController(
        hot_instructions=100, guard_hook=True, trip_guard=True,
    )
    promote(program, controller, pmu=ARMED)
    tripped, tripped_result = run_machine(
        program, pmu=ARMED, tiering=controller
    )
    # the guard tripped on the first specialized loop edge: deferred
    # registers, counters, predictor and PMU countdown were flushed and
    # the machine demoted mid-query
    assert tripped.deopt_events
    assert tripped.tier == 1
    assert controller.stats()["deopts"] >= 1
    interp, interp_result = run_machine(program, pmu=ARMED, fast_vm=False)
    assert tripped_result == interp_result
    assert observed_state(tripped) == observed_state(interp)


def test_deopt_under_instruction_budget():
    program = build_program()
    controller = TieringController(
        hot_instructions=100, guard_hook=True, trip_guard=True,
    )
    promote(program, controller)

    def budgeted(machine_kwargs, limit):
        machine = Machine(program, Memory(1 << 20), **machine_kwargs)
        machine.state.max_instructions = limit
        base = machine.memory.alloc(N * 8)
        try:
            machine.call(0, (base, N))
            outcome = "ok"
        except Exception as exc:  # noqa: BLE001 - compared against twin
            outcome = f"{type(exc).__name__}"
        return outcome, machine

    for limit in (37, 333):
        out_t, tiered = budgeted({"tiering": controller}, limit)
        out_i, interp = budgeted({"fast_vm": False}, limit)
        assert out_t == out_i
        state_t, state_i = observed_state(tiered), observed_state(interp)
        state_t.pop("countdown"), state_i.pop("countdown")
        assert state_t == state_i


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
        assert controller.stats() == {
            "promotions": 1, "deopts": 0, "hot_programs": 1,
        }
        assert db.plan_cache.stats()["entries"] == 1
        assert db.plan_cache.hits == hits + 1
    finally:
        db.tiering = None
        db.plan_cache.clear()


def test_forced_deopt_through_the_engine(db):
    db.plan_cache.clear()
    baseline = db.execute(SQL)
    controller = TieringController(
        hot_instructions=1, guard_hook=True, trip_guard=True,
    )
    db.execute(SQL, tiering=controller)
    tripped = db.execute(SQL, tiering=controller)
    assert controller.stats()["deopts"] >= 1
    assert tripped.tier == 1  # demoted mid-query
    assert sorted(tripped.rows) == sorted(baseline.rows)
    assert (tripped.cycles, tripped.instructions) == (
        baseline.cycles, baseline.instructions
    )


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
