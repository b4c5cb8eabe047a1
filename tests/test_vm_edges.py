"""Edge-case and failure-injection tests for the VM layer."""

import pytest

from repro.errors import BackendError, VMError
from repro.vm import costs
from repro.vm.isa import (
    CodeRegion,
    Label,
    Opcode as Op,
    Program,
    assemble,
    format_instruction,
    rebase,
)
from repro.vm.kernel import Kernel, SortDescriptor, SortKey, install_kernel_stubs
from repro.vm.machine import Machine
from repro.vm.memory import Memory
from repro.vm.pmu import Event, PmuConfig, SampleBuffer, Sample


def build(items, with_kernel=False, pmu=None):
    code, _ = assemble(items)
    program = Program()
    program.append_function("f", rebase(code, 0), CodeRegion.QUERY)
    memory = Memory()
    kernel = Kernel(memory, install_kernel_stubs(program)) if with_kernel else None
    return Machine(program, memory, pmu_config=pmu, kernel=kernel)


def test_kcall_without_kernel_faults():
    m = build([(Op.KCALL, 0, 0, 0), (Op.RET, 0, 0, 0)])
    with pytest.raises(VMError, match="kernel"):
        m.call(0)


def test_unknown_kernel_call_faults():
    m = build([(Op.KCALL, 99, 0, 0), (Op.RET, 0, 0, 0)], with_kernel=True)
    with pytest.raises(VMError, match="unknown kernel"):
        m.call(0)


def test_unknown_sort_descriptor_faults():
    m = build([(Op.KCALL, 1, 0, 0), (Op.RET, 0, 0, 0)], with_kernel=True)
    base = m.memory.alloc(16)
    with pytest.raises(VMError, match="descriptor"):
        m.call(0, (base, 1, 42))


def test_negative_alloc_faults():
    m = build([(Op.KCALL, 0, 0, 0), (Op.RET, 0, 0, 0)], with_kernel=True)
    with pytest.raises(VMError, match="negative"):
        m.call(0, (-8,))


def test_call_stack_overflow_detected():
    # a function that calls itself forever
    items = [(Op.CALL, 0, 0, 0), (Op.RET, 0, 0, 0)]
    m = build(items)
    with pytest.raises(VMError, match="stack overflow"):
        m.call(0)


def test_illegal_opcode_faults():
    m = build([(999, 0, 0, 0)])
    with pytest.raises(VMError, match="illegal opcode"):
        m.call(0)


def test_fetch_out_of_bounds_faults():
    m = build([(Op.NOP, 0, 0, 0)])  # falls off the end
    with pytest.raises(VMError):
        m.call(0)


def test_assemble_rejects_duplicate_and_missing_labels():
    with pytest.raises(BackendError, match="duplicate"):
        assemble([Label("a"), Label("a")])
    with pytest.raises(BackendError, match="undefined"):
        assemble([(Op.JMP, "nowhere", 0, 0)])


def test_program_function_named_missing():
    program = Program()
    with pytest.raises(BackendError):
        program.function_named("ghost")


def test_disassembler_smoke():
    items = [
        (Op.MOVI, 1, 5, 0),
        (Op.ADDI, 2, 1, 3),
        (Op.LOAD, 3, 2, 8),
        (Op.STORE, 2, 3, 0),
        (Op.BRZ, 3, 0, 0),
        (Op.RET, 0, 0, 0),
    ]
    program = Program()
    program.append_function("f", items, CodeRegion.QUERY)
    text = program.disassemble()
    assert "movi r1, 5" in text
    assert "load r3, [r2+8]" in text
    assert "f: ; [query]" in text
    for ins in items:
        assert format_instruction(ins)


def test_sample_buffer_flush_cycle_accounting():
    buffer = SampleBuffer(capacity=4)
    extra = 0
    for i in range(10):
        extra += buffer.record(Sample(ip=i, tsc=i))
    assert buffer.flushes == 2
    assert extra == buffer.flush_cycles
    assert buffer.pending == 2
    assert len(buffer.samples) == 10


def test_pmu_payload_costs_are_ordered():
    base = PmuConfig(period=100)
    regs = PmuConfig(period=100, record_registers=True)
    stack = PmuConfig(period=100, record_callstack=True)
    assert base.sample_cost() < regs.sample_cost() < stack.sample_cost(2)
    assert stack.sample_cost(10) > stack.sample_cost(2)
    assert base.sample_size_bytes() < regs.sample_size_bytes()
    assert regs.sample_size_bytes() == 54  # the paper's record size
    assert PmuConfig(period=100, record_callstack=True,
                     record_registers=True).sample_size_bytes() == 265


def test_sampling_jitter_is_deterministic_but_not_aliased():
    # a loop whose body has exactly 4 loads: an unjittered period of 8
    # would sample the same instruction forever
    items = [
        (Op.MOVI, 2, 0, 0),
        Label("loop"),
        (Op.LOAD, 3, 0, 0),
        (Op.LOAD, 3, 0, 8),
        (Op.LOAD, 3, 0, 16),
        (Op.LOAD, 3, 0, 24),
        (Op.ADDI, 2, 2, 1),
        (Op.CMPLTI, 4, 2, 2000),
        (Op.BRNZ, 4, "loop", 0),
        (Op.RET, 0, 0, 0),
    ]
    pmu = PmuConfig(event=Event.LOADS, period=64, record_memaddr=True)

    def run():
        m = build(items, pmu=pmu)
        base = m.memory.alloc(64)
        m.call(0, (base,))
        return [(s.ip, s.tsc) for s in m.samples.samples]

    first, second = run(), run()
    assert first == second  # deterministic
    ips = {ip for ip, _ in first}
    assert len(ips) >= 3, "jitter must spread samples across the loop body"


def test_zero_period_rejected():
    with pytest.raises(ValueError):
        PmuConfig(period=0)


def test_kernel_sort_with_limit_descriptor():
    desc = SortDescriptor(row_words=1, keys=(SortKey(0),), limit=2)
    assert desc.limit == 2  # carried through for the engine's domain clamp
