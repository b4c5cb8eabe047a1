"""Unit tests for the IR layer: builder, verifier, printer."""

import pytest

from repro.errors import IRError
from repro.ir import IRBuilder, Module, Type, print_function, verify_function

pytestmark = pytest.mark.usefixtures("numbering")


def make_fn(name="f", params=None, ret=Type.VOID):
    module = Module("test")
    fn = module.new_function(name, params or [], ret)
    return module, fn, IRBuilder(fn)


def test_builder_emits_into_current_block():
    _, fn, b = make_fn()
    entry = b.block("entry")
    b.set_block(entry)
    v = b.add(b.const(1), b.const(2))
    b.ret()
    assert entry.instructions[0] is v
    verify_function(fn)


def test_listener_sees_every_instruction():
    _, fn, b = make_fn()
    got = []
    b.listeners.append(got.append)
    b.set_block(b.block("entry"))
    b.add(b.const(1), b.const(2))
    b.ret()
    assert [i.op for i in got] == ["add", "ret"]


def test_duplicate_block_names_are_uniquified():
    _, fn, b = make_fn()
    b1 = b.block("loop")
    b2 = b.block("loop")
    assert b1.name != b2.name


def test_emit_after_terminator_rejected():
    _, fn, b = make_fn()
    b.set_block(b.block("entry"))
    b.ret()
    with pytest.raises(IRError):
        b.add(b.const(1), b.const(1))


def test_type_checks():
    _, fn, b = make_fn()
    b.set_block(b.block("entry"))
    with pytest.raises(IRError):
        b.load(b.const(8))  # not a pointer
    with pytest.raises(IRError):
        b.gep(b.const(8), None)
    ptr = b.const(8, Type.PTR)
    v = b.load(ptr)
    with pytest.raises(IRError):
        b.condbr(v, b.block("a"), b.block("b"))  # i64 cond
    cmp = b.cmp("cmpeq", v, b.const(0))
    assert cmp.type is Type.BOOL


def test_verifier_rejects_missing_terminator():
    _, fn, b = make_fn()
    b.set_block(b.block("entry"))
    b.add(b.const(1), b.const(2))
    with pytest.raises(IRError, match="terminator"):
        verify_function(fn)


def test_verifier_rejects_phi_after_nonphi():
    _, fn, b = make_fn()
    entry = b.block("entry")
    body = b.block("body")
    b.set_block(entry)
    b.br(body)
    b.set_block(body)
    b.add(b.const(1), b.const(1))
    phi = b.phi(Type.I64)
    b.add_incoming(phi, b.const(0), entry)
    b.ret()
    # the builder keeps phis first; force the malformed order by hand
    body.instructions.remove(phi)
    body.instructions.insert(1, phi)
    with pytest.raises(IRError, match="phi"):
        verify_function(fn)


def test_verifier_rejects_mismatched_phi_incomings():
    _, fn, b = make_fn()
    entry = b.block("entry")
    body = b.block("body")
    b.set_block(entry)
    b.br(body)
    b.set_block(body)
    phi = b.phi(Type.I64)
    # no incoming for entry
    b.ret()
    with pytest.raises(IRError, match="phi"):
        verify_function(fn)


def test_verifier_rejects_use_before_def():
    _, fn, b = make_fn("f", [("p", Type.I64)])
    entry = b.block("entry")
    other = b.block("other")
    join = b.block("join")
    b.set_block(entry)
    cond = b.cmp("cmpeq", fn.params[0], b.const(0))
    b.condbr(cond, other, join)
    b.set_block(other)
    v = b.add(b.const(1), b.const(1))
    b.br(join)
    b.set_block(join)
    b.add(v, b.const(1))  # v does not dominate join
    b.ret()
    with pytest.raises(IRError, match="dominated"):
        verify_function(fn)


def test_verifier_accepts_loop_with_phi():
    _, fn, b = make_fn("loop_fn", [("n", Type.I64)])
    entry = b.block("entry")
    loop = b.block("loop")
    exit_ = b.block("exit")
    n = fn.params[0]
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(Type.I64)
    next_i = b.add(i, b.const(1))
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(i, next_i, loop)
    done = b.cmp("cmpge", next_i, n)
    b.condbr(done, exit_, loop)
    b.set_block(exit_)
    b.ret()
    verify_function(fn)


def test_printer_shapes():
    _, fn, b = make_fn("pipeline_0", [("state", Type.PTR)])
    entry = b.block("entry")
    b.set_block(entry)
    state = fn.params[0]
    addr = b.gep(state, None, offset=320)
    v = b.load(addr, comment="directory lookup")
    b.store(addr, b.add(v, b.const(1)))
    b.ret()
    text = print_function(fn)
    assert "define void @pipeline_0(ptr %state)" in text
    assert "gep ptr %state, +320" in text
    assert "; directory lookup" in text


def test_module_unique_ids_and_counts():
    module = Module("m")
    f1 = module.new_function("a")
    f2 = module.new_function("b")
    b1, b2 = IRBuilder(f1), IRBuilder(f2)
    b1.set_block(b1.block("entry"))
    b2.set_block(b2.block("entry"))
    x = b1.add(b1.const(1), b1.const(1))
    y = b2.add(b2.const(2), b2.const(2))
    b1.ret()
    b2.ret()
    assert x.id != y.id
    assert module.instruction_count() == 4
    with pytest.raises(IRError):
        module.new_function("a")
