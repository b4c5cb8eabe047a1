"""Unit tests for codegen internals: context, layout, runtime structures."""

import pytest

from repro.codegen.context import (
    CodegenContext,
    HashTableSpec,
    StateLayout,
    TupleContext,
)
from repro.codegen.hashing import emit_hash
from repro.codegen.runtime import (
    BUF_HEADER_WORDS,
    HT_HEADER_WORDS,
    build_runtime_module,
    build_syslib_module,
)
from repro.errors import CodegenError
from repro.ir import IRBuilder, Module, Type, verify_module
from repro.ir.nodes import Const
from repro.numbering import draw
from repro.plan.expr import IU
from repro.catalog.schema import DataType
from repro.pipeline.tasks import Task
from repro.profiling.tagging import TaggingDictionary
from repro.profiling.trackers import AbstractionTracker

pytestmark = pytest.mark.usefixtures("numbering")


def make_ctx():
    module = Module("t")
    return CodegenContext(
        module=module,
        env=None,
        tagging=TaggingDictionary(),
        task_tracker=AbstractionTracker("task"),
    )


def make_task(ctx):
    from repro.plan.physical import PhysicalScan

    op = PhysicalScan.__new__(PhysicalScan)
    op.op_id = draw("physical")
    op.logical_id = None
    op.table = None
    op.alias = "t"
    op.column_ius = {}
    task = Task(op, "scan")
    ctx.tagging.register_task(task)
    return task


# -- state layout ---------------------------------------------------------


def test_state_layout_offsets_and_size():
    layout = StateLayout()
    a = layout.reserve("a", 2)
    b = layout.reserve("b", 1)
    assert a == 0 and b == 16
    assert layout.size_bytes == 24
    with pytest.raises(CodegenError):
        layout.reserve("a", 1)


def test_empty_state_layout_still_allocatable():
    assert StateLayout().size_bytes >= 8


# -- hash table spec -------------------------------------------------------


def test_hash_table_spec_offsets():
    spec = HashTableSpec(
        name="ht", state_offset=0, directory_slots=8, entry_words=6,
        initial_entries=16, key_count=2,
    )
    # entry: [next][hash][key0][key1][payload0][payload1]
    assert spec.key_offset(0) == 16
    assert spec.key_offset(1) == 24
    assert spec.payload_offset(0) == 32
    assert spec.payload_offset(1) == 40


# -- tuple context ----------------------------------------------------------


def test_tuple_context_requires_provided_ius():
    ctx = make_ctx()
    tuples = TupleContext(ctx)
    with pytest.raises(CodegenError):
        tuples.get(IU("ghost", DataType.INT))


def test_tuple_context_caches_and_attributes_to_requester():
    ctx = make_ctx()
    fn = ctx.module.new_function("f", [])
    b = IRBuilder(fn)
    ctx.install_tagging_listener(b)
    b.set_block(b.block("entry"))
    tuples = TupleContext(ctx)
    owner = make_task(ctx)
    requester = make_task(ctx)
    iu = IU("x", DataType.INT)
    calls = []

    def emit():
        calls.append(1)
        return b.add(b.const(1), b.const(2))

    tuples.provide(iu, owner, emit)
    with ctx.task_tracker.active(requester):
        v1 = tuples.get(iu)
        v2 = tuples.get(iu)
    assert v1 is v2 and len(calls) == 1
    # attribution went to the requesting task
    (linked_tasks,) = {ctx.tagging.tasks_of_instruction(v1.id)}
    assert linked_tasks == (requester,)


def test_tuple_context_falls_back_to_owner_outside_tasks():
    ctx = make_ctx()
    fn = ctx.module.new_function("f", [])
    b = IRBuilder(fn)
    ctx.install_tagging_listener(b)
    b.set_block(b.block("entry"))
    tuples = TupleContext(ctx)
    owner = make_task(ctx)
    iu = IU("x", DataType.INT)
    tuples.provide(iu, owner, lambda: b.add(b.const(1), b.const(2)))
    value = tuples.get(iu)  # no active task
    assert ctx.tagging.tasks_of_instruction(value.id) == (owner,)


def test_tuple_context_fork_isolation():
    ctx = make_ctx()
    fn = ctx.module.new_function("f", [])
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    tuples = TupleContext(ctx)
    iu = IU("x", DataType.INT)
    fork = tuples.fork()
    owner = make_task(ctx)
    fork.provide(iu, owner, lambda: b.const(7))
    assert fork.has(iu)
    assert not tuples.has(iu)


# -- register tagging emission ------------------------------------------------


def test_call_runtime_wraps_with_settag():
    ctx = make_ctx()
    fn = ctx.module.new_function("f", [])
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    task = make_task(ctx)
    ptr = b.const(8, Type.PTR)
    result = ctx.call_runtime(b, task, "ht_insert", [ptr, b.const(1)])
    ops = [i.op for i in fn.blocks[0].instructions]
    assert ops == ["settag", "call", "settag"]
    first, call, second = fn.blocks[0].instructions
    assert isinstance(first.args[0], Const) and first.args[0].value == task.id
    assert second.args[0] is first  # restores the previous tag
    assert call is result


# -- hashing ------------------------------------------------------------------


def test_emit_hash_structure():
    module = Module("h")
    fn = module.new_function("f", [("a", Type.I64), ("b", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    h = emit_hash(b, [fn.params[0], fn.params[1]])
    b.ret(h)
    ops = [i.op for i in fn.blocks[0].instructions]
    # Listing 1's shape: two crc32 mixes + rotr + xor, a chain crc32 for
    # the second key, and a final multiply
    assert ops.count("crc32") == 3
    assert "rotr" in ops and "xor" in ops and "mul" in ops


# -- runtime library ------------------------------------------------------------


def test_runtime_module_verifies():
    module = build_runtime_module()
    verify_module(module)
    names = {fn.name for fn in module.functions}
    assert names == {"ht_insert", "buffer_grow"}
    assert HT_HEADER_WORDS == 6 and BUF_HEADER_WORDS == 4


def test_syslib_module_verifies():
    module = build_syslib_module()
    verify_module(module)
    assert module.functions[0].name == "memcpy"
