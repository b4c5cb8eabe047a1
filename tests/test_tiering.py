"""The one treatment every root gets at its first compile.

Deferred sync at loop heads, armed trees of the plain shape with check
sites, one tree budget — and the exactness
contract that keeps the treatment a pure wall-clock matter: a deferred
loop reproduces the interpreter's machine state bit-for-bit, including
when its edge check fails (a sampling window or an instruction budget
about to end) and it flushes its deferred state — registers, counters,
predictor, PMU countdown — back to the machine mid-run.  Also the tier a
run reports: 2 once a root of its plan compiled a deferred loop.
"""

import warnings
from dataclasses import asdict

import pytest

from repro import Database, ExecOptions
from repro.errors import VMError
from repro.vm import costs, translate
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
from repro.vm.translate import translation_for

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


def run_machine(program, *, pmu=None, fast_vm=True, n=N):
    machine = Machine(program, Memory(), pmu_config=pmu, fast_vm=fast_vm)
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
    # Heat counts one per entry of a leader while it is a stub, however
    # the entry ran: interpreted while cold, or through the stub dispatch
    # that compiles it (which hands the same ip back — the driver's
    # re-dispatch is no second entry).  A compiled leader counts nothing
    # more, not even where the tail of a sampling window interprets it.
    rows = 200
    code, offsets = assemble(CALL_CHAIN)
    assert (offsets["a"], offsets["b"]) == (6, 8)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)

    def run():
        machine = Machine(program, Memory(), pmu_config=pmu)
        assert machine.call(0, (0, rows)) == 0
        return machine.translation

    # the first run interprets 15 entries of every per-row leader, then
    # compiles it; the entry and exit blocks stay cold
    translation = run()
    hot = translation.hot_entries
    per_row = {offsets["loop"] + 1, offsets["a"], offsets["a"] + 1,
               offsets["b"]}
    assert per_row <= translation.compiled
    first = dict(translation.heat)
    assert {first[ip] for ip in translation.compiled} == {hot}
    assert first[0] == 1 and 0 not in translation.compiled
    # same program, same translation, the per-row blocks now compiled
    # from the start: only the cold leaders count their entries again
    assert run() is translation
    assert translation.heat == {
        ip: n if ip in translation.compiled else 2 * n
        for ip, n in first.items()
    }


# -- the treatment in effect --------------------------------------------------

LOOP_HEAD = 2  # ip of LOOP_SUM's "loop" label

# LOOP_SUM's store and load of one address with no loop around them
ONE_PASS = [
    (Op.SHLI, 5, 1, 3),
    (Op.ADD, 5, 0, 5),
    (Op.MUL, 6, 1, 1),
    (Op.STORE, 5, 6, 0),
    (Op.LOAD, 6, 5, 0),
    (Op.MOV, 0, 6, 0),
    (Op.RET, 0, 0, 0),
]


def loop_head_code(pmu=None):
    """LOOP_SUM's loop-head function (armed like ``pmu``) after a run."""
    machine, _ = run_machine(build_program(), pmu=pmu)
    assert machine.tier == 2
    return machine.translation.block(LOOP_HEAD)[0].__code__


def test_memory_accesses_are_written_alike_at_both_tiers():
    code, _ = assemble(ONE_PASS)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    machine = Machine(program, Memory())
    machine.translation.hot_entries = 1
    base = machine.memory.alloc(8 * 8)
    machine.call(0, (base, 3))
    assert machine.tier == 1  # a root with no loop
    straight = machine.translation.block(0)[0].__code__
    # a STORE and a LOAD of the same address: one L1 lookup in the root
    # and in the deferred loop alike (the static facts of a path are no
    # matter of its treatment), and no same-line memo beside them
    for code in (straight, loop_head_code()):
        assert {"_acc", "_ln", "_tg"} <= set(code.co_varnames)
        assert "_mln" not in code.co_varnames


def test_loop_head_defers_with_one_edge_shape_armed_or_not():
    unarmed = loop_head_code(None)
    armed = loop_head_code(PmuConfig(event=Event.INSTRUCTIONS, period=2048))
    # deferred sync: counters and predictor state live in locals
    deferred = {"_ins", "_cyt", "_ld", "_st", "_pb", "_pm", "_ib"}
    assert deferred <= set(unarmed.co_varnames)
    # the armed loop is the same function plus the countdown
    assert set(armed.co_varnames) == set(unarmed.co_varnames) | {"_cd"}
    assert set(armed.co_names) == set(unarmed.co_names) | {"_countdown"}


# -- exactness: the deferred loop and its mid-run flush vs the interpreter ----

ARMED = PmuConfig(event=Event.CYCLES, period=2048, record_memaddr=True)


def test_tier2_matches_interpreter_bit_for_bit():
    # the first run hands the loop over mid-run, the second runs it
    # compiled from the start: both leave the interpreter's machine
    program = build_program()
    interp, interp_result = run_machine(program, pmu=ARMED, fast_vm=False)
    for _ in range(2):
        tiered, tiered_result = run_machine(program, pmu=ARMED)
        assert tiered.tier == 2
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

    def stopped(limit, **kwargs):
        machine = Machine(program, Memory(), pmu_config=pmu, **kwargs)
        machine.state.max_instructions = limit
        base = machine.memory.alloc(SWEEP_N * 8)
        try:
            outcome = ("ok", machine.call(0, (base, SWEEP_N)))
        except VMError as exc:
            outcome = (type(exc).__name__, str(exc), exc.ip)
        return outcome, machine

    # the whole run compiles the loop the sweep then stops inside
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
    translation = translation_for(db.compiled_for(SQL).program)
    # nothing hot enough to compile: the template VM ran, no deferred loop
    translation.hot_entries = 10**9
    cold = db.execute(SQL)
    assert cold.tier == cold.translation["tier"] == 1
    assert cold.translation["compiled"] == 0
    # the scan loop compiles in the first run at the default heat
    translation.hot_entries = costs.FAST_VM_HOT_ENTRIES
    first = db.execute(SQL)
    second = db.execute(SQL)
    assert first.tier == second.tier == 2
    interpreted = db.execute(SQL, ExecOptions(fast_vm=False))
    assert interpreted.tier == 0 and interpreted.translation is None
    # the treatment is wall-clock only: simulated counters are identical
    for result in (cold, first, second):
        assert sorted(result.rows) == sorted(interpreted.rows)
        assert (result.cycles, result.instructions) == (
            interpreted.cycles, interpreted.instructions
        )
    # ... and next to the tier, what translation cost: only the blocks
    # the runs entered compiled
    cost = second.translation
    assert 0 < cost["compiled"] < cost["leaders"]
    assert cost["source_lines"] > 0 and cost["compile_s"] > 0
    db.plan_cache.clear()


def test_fast_vm_auto_disable_warns():
    program = build_program()
    low = PmuConfig(
        event=Event.INSTRUCTIONS, period=costs.FAST_VM_MIN_PERIOD - 1
    )
    with pytest.warns(RuntimeWarning, match="fast VM disarmed"):
        machine = Machine(program, Memory(), pmu_config=low)
    assert machine.tier == 0
    # explicit fast_vm=False is a choice, not an accident: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = Machine(
            program, Memory(), pmu_config=low, fast_vm=False
        )
    assert quiet.tier == 0


# -- serve integration -------------------------------------------------------


def test_a_service_plan_compiles_each_leader_once_plus_its_regrowths(
    monkeypatch,
):
    # over a warm round and two more, every text ``compile`` sees is a
    # leader's first compile or a regrowth of a root: nothing translates
    # a plan a second time (a promotion re-stubbed every block)
    from repro.serve import QueryService, ServiceConfig, run_workload
    from repro.serve import SYNTHETIC_TEMPLATES, WorkloadItem
    from tests.helpers import compile_calls

    monkeypatch.setattr(translate, "_CODES", {})  # no text known yet
    database = Database.example(n_sales=1500, n_products=50)
    service = QueryService(database, ServiceConfig(workers=2))
    items = [
        WorkloadItem(sql=template.format(price=200.0, hi_price=450.0))
        for template in SYNTHETIC_TEMPLATES
    ] * 3
    with compile_calls() as sources:
        for warm in (True, False, False):
            summary = run_workload(service, items, warm=warm)
            assert summary.completed == len(items)
            assert {r.tier for r in summary.results} == {2}
    translations = [
        translation
        for entry in database.plan_cache._entries.values()
        for translation in entry.compiled.program._vm_translations.values()
    ]
    assert sources and len(translations) == len(SYNTHETIC_TEMPLATES)
    assert len(sources) <= sum(
        len(t.compiled) + sum(t.regrown.values()) for t in translations
    )
    assert "tiering" not in service.stats()


def test_a_fleet_shard_arms_the_translation_a_single_node_does(monkeypatch):
    # a shard's service is an ordinary one: its statement, run again on a
    # single-node service over the shard's own data, gets a translation
    # of the same key that grows armed roots of the same lengths
    from repro.fleet import Fleet, FleetConfig
    from repro.serve import (
        QueryService, ServiceConfig, SYNTHETIC_TEMPLATES,
    )

    roots = []
    grow = translate._grow

    def recording(code, start, cap, mode, *args, **kwargs):
        tree = grow(code, start, cap, mode, *args, **kwargs)
        if tree is not None and mode:
            roots.append((code, start, len(tree.root.items)))
        return tree

    def armed(service):
        (entry,) = service.db.plan_cache._entries.values()
        program = entry.compiled.program
        grown = [(start, n) for code, start, n in roots if code is program.code]
        return set(program._vm_translations), grown

    monkeypatch.setattr(translate, "_grow", recording)
    fleet = Fleet(
        Database.example(n_sales=1500, n_products=50),
        FleetConfig(shards=2, workers=2),
    )
    ticket = fleet.submit(SYNTHETIC_TEMPLATES[1])
    fleet.drain()
    assert fleet.result(ticket).status == "ok"
    shard = fleet.services[0]
    (result,) = shard.results.values()
    assert result.tier == 2
    keys, grown = armed(shard)
    assert keys == {Event.CYCLES} and grown

    shard.db.plan_cache.clear()
    single = QueryService(shard.db, ServiceConfig(workers=2))
    ticket = single.submit(result.sql)
    single.drain()
    assert single.result(ticket).ok
    assert armed(single) == (keys, grown)
