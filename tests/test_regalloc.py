"""The graph-colouring register allocator, checked from outside.

An independent checker (``tests.helpers.check_allocation``, with its own
per-instruction liveness) runs over every function the backend allocates
for the 22 TPC-H queries, the runtime and the syslib, with the full pool
and with the tag register reserved; q1's row loop keeps its counter in a
register; and the frame's share of q1's sampled loads is pinned.
"""

import pytest

from repro import Database, Event, ProfilerConfig, ProfilingMode
from repro.data.queries import ALL_QUERIES
from repro.profiling import reports
from repro.backend.regalloc import SCRATCH_A, SCRATCH_B, SCRATCH_C
from repro.vm.isa import REG_SP, Opcode

from tests.helpers import allocations, check_allocation


@pytest.fixture(scope="module")
def db():
    return Database.tpch(0.002, 42)


@pytest.mark.parametrize("reserve", [False, True], ids=["pool8", "pool7"])
def test_every_allocation_keeps_every_value(db, reserve):
    profiler = (
        ProfilerConfig(mode=ProfilingMode.REGISTER_TAGGING) if reserve else None
    )
    checked = 0
    for name in sorted(ALL_QUERIES, key=lambda q: int(q[1:])):
        with allocations() as seen:
            compiled = db._compile(ALL_QUERIES[name].sql, profiler)
        # the syslib and the runtime come first in every compile: check
        # them with the first query, then only each query's own functions
        for items, allocated in seen[-len(compiled.query) if checked else 0:]:
            check_allocation(items, allocated)
            checked += 1
    assert checked > 100


def test_q1_row_loop_keeps_its_counter_in_a_register(db):
    compiled = db.compiled_for(ALL_QUERIES["q1"].sql)
    function = next(
        f for f in compiled.query_ir.module.functions if f.name == "pipeline_0"
    )
    header = next(b for b in function.blocks if b.name == "loopTuples")
    counter = header.instructions[0]
    assert counter.op == "phi"
    users = {
        instr.id for instr in function.all_instructions()
        if instr.args and instr.args[0] is counter
    }
    back_edge = next(
        pred.terminator.id for _, pred in counter.incomings
        if pred.name == "contScan"
    )
    program = compiled.program
    info = compiled.query["pipeline_0"].info
    native = [
        (program.debug.get(ip), program.code[ip])
        for ip in range(info.start, info.end)
    ]
    # compare, offset and increment read the counter (operand b) from a
    # register of the pool, not from a scratch register it was loaded into
    reads = [
        code for ir_id, code in native
        if ir_id in users and code[0] not in (Opcode.LOAD, Opcode.STORE)
    ]
    assert len(reads) == 3
    assert all(code[2] not in (SCRATCH_A, SCRATCH_B, SCRATCH_C) for code in reads)
    # and the back edge's copies stay in registers
    assert not [
        code for ir_id, code in native
        if ir_id == back_edge and _touches_frame(code)
    ]


def _touches_frame(instruction) -> bool:
    op, a, b, _ = instruction
    return (op == Opcode.LOAD and b == REG_SP) or (op == Opcode.STORE and a == REG_SP)


def test_frame_share_of_q1_loads_is_shown_and_bounded(db):
    profile = db.profile(
        ALL_QUERIES["q1"].sql,
        ProfilerConfig(event=Event.LOADS, period=997, record_memaddr=True),
    )
    memory = profile.memory_profile()
    assert memory.sampled == len(
        [a for a in profile.attributions if a.sample.memaddr is not None]
    )
    # 434 of 718 under the linear scan
    assert memory.frame_samples / memory.sampled <= 337 / 642
    assert "frame (spill slots and call saves): " in memory.frame_line()
    assert memory.frame_line() in reports.render_storage_report(profile)
