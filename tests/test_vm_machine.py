"""Unit tests for the interpreter: semantics, costs, sampling, kernel."""

import pytest

from repro.errors import VMError
from repro.vm import costs
from repro.vm.isa import CodeRegion, Label, Opcode as Op, Program, assemble, rebase
from repro.vm.kernel import Kernel, SortDescriptor, SortKey, install_kernel_stubs
from repro.vm.machine import Machine, _sdiv
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig


def build_program(items, name="f"):
    code, _ = assemble(items)
    program = Program()
    program.append_function(name, rebase(code, 0), CodeRegion.QUERY)
    return program


def make_machine(items, pmu=None, with_kernel=False):
    program = build_program(items)
    memory = Memory()
    kernel = None
    if with_kernel:
        kernel = Kernel(memory, install_kernel_stubs(program))
    return Machine(program, memory, pmu_config=pmu, kernel=kernel)


def test_sdiv_truncates_toward_zero():
    assert _sdiv(7, 2) == 3
    assert _sdiv(-7, 2) == -3
    assert _sdiv(7, -2) == -3
    assert _sdiv(-7, -2) == 3


def test_arithmetic_and_return():
    m = make_machine([
        (Op.MOVI, 1, 21, 0),
        (Op.ADD, 0, 1, 1),
        (Op.RET, 0, 0, 0),
    ])
    assert m.call(0) == 42
    assert m.state.instructions == 3


def test_mul_wraps_to_64_bits():
    m = make_machine([
        (Op.MOVI, 1, 2685821657736338717, 0),
        (Op.MOVI, 2, 0x123456789, 0),
        (Op.MUL, 0, 1, 2),
        (Op.RET, 0, 0, 0),
    ])
    result = m.call(0)
    assert -(1 << 63) <= result < (1 << 63)


def test_loop_sums_array():
    # r0 = base, r1 = count; returns sum of words
    items = [
        (Op.MOVI, 2, 0, 0),        # sum
        (Op.MOVI, 3, 0, 0),        # i
        Label("loop"),
        (Op.CMPGE, 4, 3, 1),
        (Op.BRNZ, 4, "done", 0),
        (Op.SHLI, 5, 3, 3),
        (Op.ADD, 5, 0, 5),
        (Op.LOAD, 6, 5, 0),
        (Op.ADD, 2, 2, 6),
        (Op.ADDI, 3, 3, 1),
        (Op.JMP, "loop", 0, 0),
        Label("done"),
        (Op.MOV, 0, 2, 0),
        (Op.RET, 0, 0, 0),
    ]
    m = make_machine(items)
    base = m.memory.alloc(10 * 8)
    for i in range(10):
        m.memory.write(base + 8 * i, i + 1)
    assert m.call(0, (base, 10)) == 55
    assert m.state.loads == 10


def test_division_semantics_and_faults():
    m = make_machine([
        (Op.MOVI, 1, -7, 0),
        (Op.MOVI, 2, 2, 0),
        (Op.SDIV, 0, 1, 2),
        (Op.RET, 0, 0, 0),
    ])
    assert m.call(0) == -3

    m = make_machine([
        (Op.MOVI, 1, 1, 0),
        (Op.MOVI, 2, 0, 0),
        (Op.SDIV, 0, 1, 2),
        (Op.RET, 0, 0, 0),
    ])
    with pytest.raises(VMError):
        m.call(0)


def test_fdiv_and_conversions():
    m = make_machine([
        (Op.MOVI, 1, 7, 0),
        (Op.MOVI, 2, 2, 0),
        (Op.FDIV, 3, 1, 2),
        (Op.CVTFI, 0, 3, 0),
        (Op.RET, 0, 0, 0),
    ])
    assert m.call(0) == 3
    assert m.regs[3] == 3.5


def test_select_min_max():
    m = make_machine([
        (Op.MOVI, 1, 0, 0),
        (Op.MOVI, 2, 10, 0),
        (Op.MOVI, 3, 20, 0),
        (Op.SELECT, 4, 1, (2, 3)),
        (Op.MIN, 5, 2, 3),
        (Op.MAX, 6, 2, 3),
        (Op.ADD, 0, 4, 5),
        (Op.ADD, 0, 0, 6),
        (Op.RET, 0, 0, 0),
    ])
    assert m.call(0) == 20 + 10 + 20


def test_null_pointer_load_faults():
    m = make_machine([
        (Op.MOVI, 1, 0, 0),
        (Op.LOAD, 0, 1, 0),
        (Op.RET, 0, 0, 0),
    ])
    with pytest.raises(VMError):
        m.call(0)


def test_instruction_budget():
    m = make_machine([
        Label("loop"),
        (Op.JMP, "loop", 0, 0),
    ])
    m.state.max_instructions = 1000
    with pytest.raises(VMError):
        m.call(0)


def test_call_and_ret_across_functions():
    program = Program()
    callee, _ = assemble([
        (Op.ADDI, 0, 0, 5),
        (Op.RET, 0, 0, 0),
    ])
    caller_items = [
        (Op.MOVI, 0, 1, 0),
        (Op.CALL, "callee", 0, 0),
        (Op.ADDI, 0, 0, 100),
        (Op.RET, 0, 0, 0),
    ]
    caller, _ = assemble(caller_items)
    caller_info = program.append_function("caller", rebase(caller, 0), CodeRegion.QUERY)
    callee_info = program.append_function(
        "callee", rebase(callee, caller_info.end), CodeRegion.RUNTIME
    )
    # patch the symbolic call target
    patched = list(program.code)
    for i, ins in enumerate(patched):
        if ins[0] == Op.CALL:
            patched[i] = (Op.CALL, callee_info.start, 0, 0)
    program.code = patched
    m = Machine(program, Memory())
    assert m.call(caller_info.start) == 106
    assert program.region_at(callee_info.start) is CodeRegion.RUNTIME


def test_sampling_on_instructions_period():
    items = [(Op.MOVI, 1, 0, 0)]
    items += [(Op.ADDI, 1, 1, 1)] * 1000
    items += [(Op.MOV, 0, 1, 0), (Op.RET, 0, 0, 0)]
    pmu = PmuConfig(event=Event.INSTRUCTIONS, period=100)
    m = make_machine(items, pmu=pmu)
    m.call(0)
    # ~1003 instructions / period 100 -> 10 samples
    assert 9 <= len(m.samples.samples) <= 11
    tscs = [s.tsc for s in m.samples.samples]
    assert tscs == sorted(tscs)
    assert m.state.sampling_cycles > 0


def test_sampling_records_registers_and_costs_more():
    items = [(Op.ADDI, 1, 1, 1)] * 500 + [(Op.RET, 0, 0, 0)]
    base = make_machine(items, pmu=PmuConfig(period=50))
    base.call(0)
    with_regs = make_machine(items, pmu=PmuConfig(period=50, record_registers=True))
    with_regs.call(0)
    assert with_regs.samples.samples[0].registers is not None
    assert base.samples.samples[0].registers is None
    assert with_regs.state.sampling_cycles > base.state.sampling_cycles


def test_callstack_sampling_is_much_more_expensive():
    items = [(Op.ADDI, 1, 1, 1)] * 2000 + [(Op.RET, 0, 0, 0)]
    fast = make_machine(items, pmu=PmuConfig(period=50))
    fast.call(0)
    slow = make_machine(items, pmu=PmuConfig(period=50, record_callstack=True))
    slow.call(0)
    assert slow.state.sampling_cycles > 5 * fast.state.sampling_cycles
    assert slow.samples.samples[0].callstack is not None


def test_loads_event_sampling_captures_addresses():
    items = []
    for i in range(64):
        items.append((Op.LOAD, 1, 0, i * 8))
    items.append((Op.RET, 0, 0, 0))
    pmu = PmuConfig(event=Event.LOADS, period=4, record_memaddr=True)
    m = make_machine(items, pmu=pmu)
    base = m.memory.alloc(64 * 8)
    m.call(0, (base,))
    assert len(m.samples.samples) == 16
    addrs = [s.memaddr for s in m.samples.samples]
    assert all(a is not None and base <= a < base + 64 * 8 for a in addrs)


def test_kernel_alloc_and_output(tmp_path):
    items = [
        (Op.MOVI, 0, 64, 0),
        (Op.KCALL, 0, 0, 0),      # alloc 64 bytes
        (Op.MOVI, 1, 7, 0),
        (Op.STORE, 0, 1, 0),
        (Op.STORE, 0, 1, 8),
        (Op.MOVI, 1, 2, 0),
        (Op.KCALL, 2, 0, 0),      # output_row(ptr, 2)
        (Op.RET, 0, 0, 0),
    ]
    m = make_machine(items, with_kernel=True)
    m.call(0)
    assert m.output == [(7, 7)]
    assert m.state.kernel_cycles > 0


def test_kernel_sort_orders_rows():
    items = [
        (Op.KCALL, 1, 0, 0),
        (Op.RET, 0, 0, 0),
    ]
    m = make_machine(items, with_kernel=True)
    desc = SortDescriptor(row_words=2, keys=(SortKey(0, ascending=True),))
    desc_id = m.kernel.register_sort(desc)
    base = m.memory.alloc(3 * 2 * 8)
    for i, (k, v) in enumerate([(30, 1), (10, 2), (20, 3)]):
        m.memory.write(base + i * 16, k)
        m.memory.write(base + i * 16 + 8, v)
    m.call(0, (base, 3, desc_id))
    got = [(m.memory.read(base + i * 16), m.memory.read(base + i * 16 + 8)) for i in range(3)]
    assert got == [(10, 2), (20, 3), (30, 1)]


def test_kernel_sort_descending():
    items = [(Op.KCALL, 1, 0, 0), (Op.RET, 0, 0, 0)]
    m = make_machine(items, with_kernel=True)
    desc = SortDescriptor(row_words=1, keys=(SortKey(0, ascending=False),))
    desc_id = m.kernel.register_sort(desc)
    base = m.memory.alloc(3 * 8)
    for i, k in enumerate([10, 30, 20]):
        m.memory.write(base + i * 8, k)
    m.call(0, (base, 3, desc_id))
    assert [m.memory.read(base + i * 8) for i in range(3)] == [30, 20, 10]


def test_kernel_samples_attributed_to_kernel_region():
    items = [(Op.MOVI, 0, 1 << 16, 0), (Op.KCALL, 0, 0, 0), (Op.RET, 0, 0, 0)]
    pmu = PmuConfig(event=Event.INSTRUCTIONS, period=50)
    m = make_machine(items, pmu=pmu, with_kernel=True)
    m.call(0)
    kernel_samples = [
        s for s in m.samples.samples
        if m.program.region_at(s.ip) is CodeRegion.KERNEL
    ]
    assert kernel_samples, "big alloc should produce kernel samples"


def test_buffer_flush_costs_cycles():
    items = [(Op.ADDI, 1, 1, 1)] * 3000 + [(Op.RET, 0, 0, 0)]
    pmu = PmuConfig(period=1)
    m = make_machine(items, pmu=pmu)
    m.call(0)
    assert m.samples.flushes >= 1
    assert m.samples.flush_cycles > 0


def test_branch_cost_included_in_cycles():
    taken = [
        (Op.MOVI, 1, 0, 0),
        (Op.BRZ, 1, "t", 0),
        Label("t"),
        (Op.RET, 0, 0, 0),
    ]
    m = make_machine(taken)
    m.call(0)
    assert m.state.cycles >= 2 + costs.CYCLES_BRANCH


def test_store_cost_is_fixed_but_allocates():
    # A store retires at the fixed CYCLES_STORE — the store buffer absorbs
    # the write, so retirement never waits for the hierarchy — even when
    # the target line is stone cold (see the CYCLES_STORE note in costs.py).
    cold_store = make_machine([
        (Op.STORE, 0, 1, 0),
        (Op.RET, 0, 0, 0),
    ])
    base = cold_store.memory.alloc(64)
    cold_store.call(0, (base,))
    assert cold_store.state.stores == 1
    assert cold_store.caches.l1_misses == 1  # write-allocate touched cache
    assert cold_store.state.cycles == costs.CYCLES_STORE + costs.CYCLES_RET

    # ...yet the write *allocates*: a load from the just-stored line pays
    # only the L1 hit latency, not a miss to memory.
    store_then_load = make_machine([
        (Op.STORE, 0, 1, 0),
        (Op.LOAD, 2, 0, 0),
        (Op.RET, 0, 0, 0),
    ])
    base = store_then_load.memory.alloc(64)
    store_then_load.call(0, (base,))
    assert store_then_load.caches.l1_misses == 1  # only the store's miss
    assert store_then_load.state.cycles == (
        costs.CYCLES_STORE + costs.LAT_L1 + costs.CYCLES_RET
    )

    # a cold load, by contrast, pays the full miss latency
    cold_load = make_machine([
        (Op.LOAD, 2, 0, 0),
        (Op.RET, 0, 0, 0),
    ])
    base = cold_load.memory.alloc(64)
    cold_load.call(0, (base,))
    assert cold_load.state.cycles > costs.LAT_L2 + costs.CYCLES_RET
