"""Unit tests for trackers, tagging dictionary, and sample attribution."""

import pytest

from repro.backend.opts import OptimizationResult
from repro.errors import ProfilingError
from repro.numbering import draw
from repro.pipeline.tasks import Task
from repro.plan.physical import PhysicalScan
from repro.profiling import AbstractionTracker, SampleProcessor, TaggingDictionary
from repro.profiling.postprocess import (
    CATEGORY_KERNEL,
    CATEGORY_OPERATOR,
    CATEGORY_UNATTRIBUTED,
)
from repro.vm.isa import REG_TAG, CodeRegion, Opcode, Program
from repro.vm.pmu import Sample

pytestmark = pytest.mark.usefixtures("numbering")


def make_task(label="t"):
    op = PhysicalScan.__new__(PhysicalScan)
    # minimal operator stand-in: only label/op_id are used by these tests
    op.op_id = draw("physical")
    op.logical_id = None
    op.table = None
    op.alias = label
    op.column_ius = {}
    return Task(op, "scan")


# -- tracker -------------------------------------------------------------


def test_tracker_stack_semantics():
    tracker = AbstractionTracker("op")
    assert tracker.current is None
    tracker.push("a")
    tracker.push("b")
    assert tracker.current == "b"
    assert tracker.pop() == "b"
    assert tracker.current == "a"


def test_tracker_active_context_is_balanced():
    tracker = AbstractionTracker("op")
    with tracker.active("x"):
        assert tracker.current == "x"
        with tracker.active("y"):
            assert tracker.current == "y"
        assert tracker.current == "x"
    assert tracker.current is None


def test_tracker_pop_empty_raises():
    with pytest.raises(ProfilingError):
        AbstractionTracker("op").pop()


def test_tracker_unbalanced_detected():
    tracker = AbstractionTracker("op")
    with pytest.raises(ProfilingError):
        with tracker.active("x"):
            tracker.pop()
            tracker.push("intruder")


# -- tagging dictionary ----------------------------------------------------


def test_dictionary_links_and_lookup():
    d = TaggingDictionary()
    task = make_task()
    d.register_task(task)
    d.link_instruction(7, task)
    assert d.tasks_of_instruction(7) == (task,)
    assert d.operator_of_task(task.id) is task.operator
    assert d.entry_count == 1
    assert d.size_bytes == 24


def test_dictionary_rejects_duplicate_task():
    d = TaggingDictionary()
    task = make_task()
    d.register_task(task)
    with pytest.raises(ProfilingError):
        d.register_task(task)


def test_dictionary_rejects_link_to_unknown_task():
    d = TaggingDictionary()
    with pytest.raises(ProfilingError):
        d.link_instruction(1, make_task())


def test_dictionary_optimization_removal():
    d = TaggingDictionary()
    task = make_task()
    d.register_task(task)
    d.link_instruction(1, task)
    d.link_instruction(2, task)
    result = OptimizationResult(removed={2})
    d.apply_optimizations(result)
    assert d.tasks_of_instruction(2) == ()
    assert d.tasks_of_instruction(1) == (task,)


def test_dictionary_merge_gains_multiple_parents():
    d = TaggingDictionary()
    t1, t2 = make_task("a"), make_task("b")
    d.register_task(t1)
    d.register_task(t2)
    d.link_instruction(1, t1)
    d.link_instruction(2, t2)
    result = OptimizationResult()
    result.record_merge(1, 2)
    d.apply_optimizations(result)
    assert set(d.tasks_of_instruction(1)) == {t1, t2}
    assert d.tasks_of_instruction(2) == ()


def test_dictionary_runtime_links():
    d = TaggingDictionary()
    d.link_runtime_instruction(5, "ht_insert")
    assert d.runtime_function_of(5) == "ht_insert"
    result = OptimizationResult(removed={5})
    d.apply_optimizations(result)
    assert d.runtime_function_of(5) is None


# -- sample processor -------------------------------------------------------


def build_program_with_regions():
    program = Program()
    program.append_function(
        "pipeline_0", [(Opcode.NOP, 0, 0, 0)] * 4, CodeRegion.QUERY
    )
    program.append_function(
        "ht_insert", [(Opcode.NOP, 0, 0, 0)] * 4, CodeRegion.RUNTIME
    )
    program.append_function(
        "memcpy", [(Opcode.NOP, 0, 0, 0)] * 4, CodeRegion.SYSLIB
    )
    program.append_function(
        "kernel_alloc", [(Opcode.NOP, 0, 0, 0)] * 4, CodeRegion.KERNEL
    )
    return program


def make_env():
    d = TaggingDictionary()
    task = make_task()
    d.register_task(task)
    d.link_instruction(100, task)
    program = build_program_with_regions()
    program.debug[0] = 100  # query ip 0 -> ir 100
    program.debug[4] = 900  # runtime ip
    d.link_runtime_instruction(900, "ht_insert")
    return SampleProcessor(program, d), task


def test_query_sample_attributed_via_dictionary():
    processor, task = make_env()
    a = processor.attribute(Sample(ip=0, tsc=1))
    assert a.category == CATEGORY_OPERATOR
    assert a.tasks == (task,)
    assert a.via == "dictionary"


def test_query_sample_without_debug_is_unattributed():
    processor, _ = make_env()
    a = processor.attribute(Sample(ip=1, tsc=1))
    assert a.category == CATEGORY_UNATTRIBUTED


def test_kernel_sample_goes_to_kernel_bucket():
    processor, _ = make_env()
    a = processor.attribute(Sample(ip=12, tsc=1))
    assert a.category == CATEGORY_KERNEL
    assert a.kernel_function == "kernel_alloc"


def test_syslib_sample_is_unattributed():
    processor, _ = make_env()
    a = processor.attribute(Sample(ip=8, tsc=1))
    assert a.category == CATEGORY_UNATTRIBUTED


def test_runtime_sample_register_tagging():
    processor, task = make_env()
    regs = [0] * 16
    regs[REG_TAG] = task.id
    a = processor.attribute(Sample(ip=4, tsc=1, registers=tuple(regs)))
    assert a.category == CATEGORY_OPERATOR
    assert a.via == "register-tag"
    assert a.tasks == (task,)
    assert a.runtime_function == "ht_insert"


def test_runtime_sample_with_bad_tag_is_unattributed():
    processor, _ = make_env()
    regs = [0] * 16
    regs[REG_TAG] = 999999
    a = processor.attribute(Sample(ip=4, tsc=1, registers=tuple(regs)))
    assert a.category == CATEGORY_UNATTRIBUTED


def test_runtime_sample_callstack_disambiguation():
    processor, task = make_env()
    a = processor.attribute(Sample(ip=4, tsc=1, callstack=(0,)))
    assert a.category == CATEGORY_OPERATOR
    assert a.via == "callstack"
    assert a.tasks == (task,)


def test_runtime_sample_without_either_is_unattributed():
    processor, _ = make_env()
    a = processor.attribute(Sample(ip=4, tsc=1))
    assert a.category == CATEGORY_UNATTRIBUTED


def test_summary_shares_sum_to_one():
    processor, task = make_env()
    regs = [0] * 16
    regs[REG_TAG] = task.id
    samples = [
        Sample(ip=0, tsc=1),
        Sample(ip=12, tsc=2),
        Sample(ip=8, tsc=3),
        Sample(ip=4, tsc=4, registers=tuple(regs)),
    ]
    attributions = processor.process(samples)
    summary = processor.summarize(attributions)
    assert summary.total_samples == 4
    assert summary.operator_share == 0.5
    assert summary.kernel_share == 0.25
    assert summary.unattributed_share == pytest.approx(0.25)


def test_multi_parent_sample_weight_split():
    d = TaggingDictionary()
    t1, t2 = make_task("a"), make_task("b")
    d.register_task(t1)
    d.register_task(t2)
    d.link_instruction(100, t1)
    d.link_instruction(101, t2)
    result = OptimizationResult()
    result.record_merge(100, 101)
    d.apply_optimizations(result)
    program = build_program_with_regions()
    program.debug[0] = 100
    processor = SampleProcessor(program, d)
    attributions = processor.process([Sample(ip=0, tsc=1)])
    weights = processor.operator_weights(attributions)
    assert weights[t1.operator] == pytest.approx(0.5)
    assert weights[t2.operator] == pytest.approx(0.5)
