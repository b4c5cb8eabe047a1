"""End-to-end backend tests: IR functions compiled and executed on the VM."""

from collections import Counter

import pytest

from repro.backend import BackendOptions, compile_module, optimize_function
from repro.backend.isel import select_function
from repro.backend.minst import MCallSeq, MInst
from repro.codegen.runtime import build_runtime_module, build_syslib_module
from repro.data.queries import ALL_QUERIES
from repro.ir import IRBuilder, Module, Type, verify_function
from repro.vm import CodeRegion, Machine, Memory, Program
from repro.vm.isa import REG_SP, REG_TAG, Opcode

pytestmark = pytest.mark.usefixtures("numbering")


def compile_and_run(module, fn_name, args=(), options=None, memory=None, setup=None):
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY, options)
    memory = memory or Memory()
    machine = Machine(program, memory)
    if setup:
        setup(machine)
    result = machine.call(compiled[fn_name].info.start, args)
    return result, machine, compiled


def test_constant_expression():
    module = Module("m")
    fn = module.new_function("f", [], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    v = b.mul(b.add(b.const(3), b.const(4)), b.const(6))
    b.ret(v)
    result, _, compiled = compile_and_run(module, "f")
    assert result == 42
    # the whole expression should have been folded to a constant
    assert compiled["f"].opt_result.folded >= 2


def test_parameters_and_arithmetic():
    module = Module("m")
    fn = module.new_function("f", [("a", Type.I64), ("b", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    a, c = fn.params
    b.ret(b.sub(b.mul(a, c), b.const(1)))
    result, _, _ = compile_and_run(module, "f", (6, 7))
    assert result == 41


def test_loop_sum_with_phi():
    module = Module("m")
    fn = module.new_function("sum", [("base", Type.PTR), ("n", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, loop, body, done = (b.block(x) for x in ("entry", "loop", "body", "done"))
    base, n = fn.params
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(Type.I64)
    acc = b.phi(Type.I64)
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(acc, b.const(0), entry)
    in_range = b.cmp("cmplt", i, n)
    b.condbr(in_range, body, done)
    b.set_block(body)
    addr = b.gep(base, i, scale=8)
    value = b.load(addr)
    new_acc = b.add(acc, value)
    new_i = b.add(i, b.const(1))
    b.add_incoming(i, new_i, body)
    b.add_incoming(acc, new_acc, body)
    b.br(loop)
    b.set_block(done)
    b.ret(acc)

    memory = Memory()
    base_addr = memory.alloc(100 * 8)
    for k in range(100):
        memory.write(base_addr + 8 * k, k)
    result, machine, _ = compile_and_run(module, "sum", (base_addr, 100), memory=memory)
    assert result == sum(range(100))
    assert machine.state.loads >= 100


def test_branchy_max():
    module = Module("m")
    fn = module.new_function("mx", [("a", Type.I64), ("b", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, t, f, j = (b.block(x) for x in ("entry", "t", "f", "j"))
    a, c = fn.params
    b.set_block(entry)
    b.condbr(b.cmp("cmpgt", a, c), t, f)
    b.set_block(t)
    b.br(j)
    b.set_block(f)
    b.br(j)
    b.set_block(j)
    out = b.phi(Type.I64)
    b.add_incoming(out, a, t)
    b.add_incoming(out, c, f)
    b.ret(out)
    assert compile_and_run(module, "mx", (3, 9))[0] == 9
    assert compile_and_run(module, "mx", (9, 3))[0] == 9


def test_select_and_float_ops():
    module = Module("m")
    fn = module.new_function("f", [("a", Type.I64), ("b", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    a, c = fn.params
    ratio = b.fdiv(b.sitofp(a), b.sitofp(c))
    big = b.cmp("cmpgt", ratio, b.const_f64(2.0))
    picked = b.select(big, a, c)
    b.ret(picked)
    assert compile_and_run(module, "f", (10, 3))[0] == 10
    assert compile_and_run(module, "f", (4, 3))[0] == 3


def test_cross_function_call():
    module = Module("m")
    callee = module.new_function("callee", [("x", Type.I64)], Type.I64)
    cb = IRBuilder(callee)
    cb.set_block(cb.block("entry"))
    cb.ret(cb.add(callee.params[0], cb.const(5)))

    caller = module.new_function("caller", [("x", Type.I64)], Type.I64)
    b = IRBuilder(caller)
    b.set_block(b.block("entry"))
    r1 = b.call("callee", [caller.params[0]])
    r2 = b.call("callee", [r1])
    b.ret(r2)
    result, machine, _ = compile_and_run(module, "caller", (1,))
    assert result == 11


def test_call_against_prelinked_runtime():
    runtime_module = Module("rt")
    fn = runtime_module.new_function("double_it", [("x", Type.I64)], Type.I64)
    rb = IRBuilder(fn)
    rb.set_block(rb.block("entry"))
    rb.ret(rb.add(fn.params[0], fn.params[0]))

    program = Program()
    compile_module(runtime_module, program, CodeRegion.RUNTIME)

    query_module = Module("q")
    qfn = query_module.new_function("q", [("x", Type.I64)], Type.I64)
    qb = IRBuilder(qfn)
    qb.set_block(qb.block("entry"))
    qb.ret(qb.call("double_it", [qfn.params[0]]))
    compiled = compile_module(query_module, program, CodeRegion.QUERY)
    machine = Machine(program, Memory())
    assert machine.call(compiled["q"].info.start, (21,)) == 42


def test_value_live_across_call_is_preserved():
    module = Module("m")
    callee = module.new_function("clobber", [], Type.I64)
    cb = IRBuilder(callee)
    cb.set_block(cb.block("entry"))
    # lots of local pressure so the callee really uses registers
    acc = cb.const(1)
    vals = []
    for i in range(12):
        vals.append(cb.add(cb.const(i), acc))
    total = vals[0]
    for v in vals[1:]:
        total = cb.add(total, v)
    cb.ret(total)

    caller = module.new_function("caller", [("x", Type.I64)], Type.I64)
    b = IRBuilder(caller)
    b.set_block(b.block("entry"))
    x = caller.params[0]
    doubled = b.add(x, x)
    b.call("clobber", [])
    b.ret(doubled)  # doubled must survive the call
    result, _, _ = compile_and_run(module, "caller", (21,))
    assert result == 42


def test_high_register_pressure_spills_correctly():
    module = Module("m")
    fn = module.new_function("f", [("x", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    x = fn.params[0]
    # 20 simultaneously-live values force spilling with a 9-register pool
    values = [b.mul(x, b.const(i + 1)) for i in range(20)]
    total = values[0]
    for v in values[1:]:
        total = b.add(total, v)
    b.ret(total)
    result, _, compiled = compile_and_run(module, "f", (2,))
    assert result == 2 * sum(range(1, 21))
    assert compiled["f"].alloc_stats.spilled > 0


def test_reserving_tag_register_changes_code():
    def build():
        module = Module("m")
        fn = module.new_function("f", [("x", Type.I64)], Type.I64)
        b = IRBuilder(fn)
        b.set_block(b.block("entry"))
        x = fn.params[0]
        values = [b.mul(x, b.const(i + 1)) for i in range(12)]
        total = values[0]
        for v in values[1:]:
            total = b.add(total, v)
        b.ret(total)
        return module

    plain = compile_and_run(build(), "f", (1,))
    reserved = compile_and_run(
        build(), "f", (1,), options=BackendOptions(reserve_tag_register=True)
    )
    assert plain[0] == reserved[0]
    # fewer registers => at least as many spills, usually more native code
    assert (
        reserved[2]["f"].alloc_stats.spilled >= plain[2]["f"].alloc_stats.spilled
    )


def test_settag_lowers_to_tag_register_writes():
    module = Module("m")
    fn = module.new_function("f", [], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    old = b.settag(b.const(7))
    restored = b.settag(old)
    b.ret(b.const(0))
    program = Program()
    compiled = compile_module(
        module, program, CodeRegion.QUERY, BackendOptions(reserve_tag_register=True)
    )
    machine = Machine(program, Memory())
    machine.regs[REG_TAG] = 99
    machine.call(compiled["f"].info.start)
    assert machine.regs[REG_TAG] == 99  # restored
    info = compiled["f"].info
    tag_writes = [
        ins for ins in program.code[info.start:info.end]
        if ins[0] in (Opcode.MOVI, Opcode.MOV) and ins[1] == REG_TAG
    ]
    assert len(tag_writes) == 2


def test_settag_disappears_without_reservation():
    module = Module("m")
    fn = module.new_function("f", [], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    old = b.settag(b.const(7))
    b.settag(old)
    b.ret(b.const(0))
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    info = compiled["f"].info
    for ins in program.code[info.start:info.end]:
        assert not (ins[0] in (Opcode.MOVI, Opcode.MOV) and ins[1] == REG_TAG)


def test_debug_info_maps_native_to_ir():
    module = Module("m")
    fn = module.new_function("f", [("a", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    v = b.add(fn.params[0], b.const(1))
    w = b.mul(v, v)
    b.ret(w)
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    info = compiled["f"].info
    ir_ids = {program.debug.get(ip) for ip in range(info.start, info.end)}
    assert v.id in ir_ids and w.id in ir_ids


def test_dce_removes_unused_code():
    module = Module("m")
    fn = module.new_function("f", [("a", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    dead = b.mul(fn.params[0], b.const(123))
    b.ret(b.add(fn.params[0], b.const(1)))
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    assert dead.id in compiled["f"].opt_result.removed


def test_cse_merges_duplicates_and_records_parents():
    module = Module("m")
    fn = module.new_function("f", [("a", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    x1 = b.mul(fn.params[0], b.const(3))
    x2 = b.mul(fn.params[0], b.const(3))
    b.ret(b.add(x1, x2))
    opt = optimize_function(fn)
    verify_function(fn)
    assert opt.merged.get(x1.id) == {x2.id}
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY,
                              BackendOptions(optimize=False))
    machine = Machine(program, Memory())
    assert machine.call(compiled["f"].info.start, (5,)) == 30


def test_fold_keeps_divide_by_zero_fault():
    module = Module("m")
    fn = module.new_function("f", [], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    v = b.sdiv(b.const(1), b.const(0))
    b.ret(v)
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    machine = Machine(program, Memory())
    from repro.errors import VMError
    with pytest.raises(VMError):
        machine.call(compiled["f"].info.start)


def test_phi_swap_parallel_copy():
    """The classic lost-copy case: two phis exchange values each iteration.

    (a, b) = (b, a) repeated n times; a naive sequential copy would
    collapse both to one value."""
    module = Module("m")
    fn = module.new_function("swap", [("n", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, loop, body, done = (b.block(x) for x in ("entry", "loop", "body", "done"))
    n = fn.params[0]
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(Type.I64)
    x = b.phi(Type.I64)
    y = b.phi(Type.I64)
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(x, b.const(1), entry)
    b.add_incoming(y, b.const(2), entry)
    in_range = b.cmp("cmplt", i, n)
    b.condbr(in_range, body, done)
    b.set_block(body)
    next_i = b.add(i, b.const(1))
    b.add_incoming(i, next_i, body)
    b.add_incoming(x, y, body)  # swap!
    b.add_incoming(y, x, body)
    b.br(loop)
    b.set_block(done)
    combined = b.add(b.mul(x, b.const(10)), y)
    b.ret(combined)

    # odd iteration count: x=2, y=1 -> 21; even: x=1, y=2 -> 12
    assert compile_and_run(module, "swap", (3,))[0] == 21
    module2 = Module("m2")
    fn2 = module2.new_function("swap", [("n", Type.I64)], Type.I64)
    # rebuild for a fresh module (ids are global, functions are not reusable)
    b = IRBuilder(fn2)
    entry, loop, body, done = (b.block(x) for x in ("entry", "loop", "body", "done"))
    n = fn2.params[0]
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(Type.I64)
    x = b.phi(Type.I64)
    y = b.phi(Type.I64)
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(x, b.const(1), entry)
    b.add_incoming(y, b.const(2), entry)
    in_range = b.cmp("cmplt", i, n)
    b.condbr(in_range, body, done)
    b.set_block(body)
    next_i = b.add(i, b.const(1))
    b.add_incoming(i, next_i, body)
    b.add_incoming(x, y, body)
    b.add_incoming(y, x, body)
    b.br(loop)
    b.set_block(done)
    b.ret(b.add(b.mul(x, b.const(10)), y))
    assert compile_and_run(module2, "swap", (4,))[0] == 12


def test_select_with_spilled_operands():
    """SELECT is the only three-source instruction; force all its sources

    into spill slots and check the scratch-register plumbing."""
    module = Module("m")
    fn = module.new_function("f", [("x", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    x = fn.params[0]
    # enough simultaneously-live values to exhaust the pool
    live = [b.mul(x, b.const(i + 1)) for i in range(18)]
    cond = b.cmp("cmpgt", live[0], live[1])
    picked = b.select(cond, live[2], live[3])
    total = picked
    for v in live:
        total = b.add(total, v)
    b.ret(total)
    result, _, compiled = compile_and_run(module, "f", (3,))
    live_py = [3 * (i + 1) for i in range(18)]
    picked_py = live_py[2] if live_py[0] > live_py[1] else live_py[3]
    assert result == picked_py + sum(live_py)
    assert compiled["f"].alloc_stats.spilled > 0


# -- registers across calls, folded offsets, fall-through ---------------------


def cold_call_loop():
    """``f(base, n)`` sums ``n`` words at ``base``; a word equal to 7 goes
    through ``cold`` on an arm of its own, which takes every register of
    the pool.  Live across that call: ``base``, ``n``, ``i`` and ``acc``."""
    module = Module("m")
    cold = module.new_function("cold", [("x", Type.I64)], Type.I64)
    cb = IRBuilder(cold)
    cb.set_block(cb.block("entry"))
    x = cold.params[0]
    values = [cb.mul(x, cb.const(k + 2)) for k in range(10)]
    total = values[0]
    for value in values[1:]:
        total = cb.add(total, value)
    cb.ret(total)

    fn = module.new_function("f", [("base", Type.PTR), ("n", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, loop, body, call, join, done = (
        b.block(name) for name in ("entry", "loop", "body", "call", "join", "done")
    )
    base, n = fn.params
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i, acc = b.phi(Type.I64), b.phi(Type.I64)
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(acc, b.const(0), entry)
    b.condbr(b.cmp("cmplt", i, n), body, done)
    b.set_block(body)
    word = b.load(b.gep(base, i, scale=8))
    b.condbr(b.cmp("cmpeq", word, b.const(7)), call, join)
    b.set_block(call)
    called = b.call("cold", [word])
    b.br(join)
    b.set_block(join)
    term = b.phi(Type.I64)
    b.add_incoming(term, word, body)
    b.add_incoming(term, called, call)
    next_acc, next_i = b.add(acc, term), b.add(i, b.const(1))
    b.add_incoming(i, next_i, join)
    b.add_incoming(acc, next_acc, join)
    b.br(loop)
    b.set_block(done)
    b.ret(acc)
    return module


def test_a_cold_call_saves_at_its_site_and_the_hot_path_keeps_its_registers():
    for words in ([1, 2, 3, 4, 5, 6] * 5, [1, 7, 3, 7, 7, 2]):
        memory = Memory()
        base = memory.alloc(8 * len(words))
        for k, word in enumerate(words):
            memory.write(base + 8 * k, word)
        result, machine, compiled = compile_and_run(
            cold_call_loop(), "f", (base, len(words)), memory=memory
        )
        assert result == sum(w if w != 7 else 65 * w for w in words)
        if 7 not in words:
            # the hot path loads its words and nothing of the frame
            assert machine.state.loads == len(words)
    program = machine.program
    info = compiled["f"].info
    code = program.code[info.start:info.end]
    (call,) = [k for k, ins in enumerate(code) if ins[0] == Opcode.CALL]
    framed = [
        k for k, ins in enumerate(code)
        if ins[0] == Opcode.LOAD and ins[2] == REG_SP
        or ins[0] == Opcode.STORE and ins[1] == REG_SP
    ]
    # the call site: four saves, the argument move, the call, the result
    # move, four reloads — and nothing else of the frame in the function
    assert framed == [*range(call - 5, call - 1), *range(call + 2, call + 6)]
    saves = {(ins[2], ins[3]) for ins in code[call - 5:call - 1]}
    reloads = {(ins[1], ins[3]) for ins in code[call + 2:call + 6]}
    assert saves == reloads and len({reg for reg, _ in saves}) == 4
    assert compiled["f"].alloc_stats.call_crossings == 4
    assert compiled["f"].alloc_stats.spilled == 0


def test_a_kernel_call_saves_nothing():
    # the kernel writes only r0: values live across a KCALL keep their
    # registers with no store or reload around it
    module = Module("m")
    fn = module.new_function("f", [("x", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))
    x = fn.params[0]
    doubled = b.add(x, x)
    pointer = b.kcall(0, [b.const(64)], Type.PTR)
    b.store(pointer, doubled)
    b.ret(b.add(b.load(pointer), doubled))
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    info = compiled["f"].info
    code = program.code[info.start:info.end]
    assert not any(
        ins[0] == Opcode.STORE and ins[1] == REG_SP
        or ins[0] in (Opcode.LOAD, Opcode.ADDI) and ins[2] == REG_SP
        for ins in code
    )
    assert compiled["f"].alloc_stats.call_crossings == 0


@pytest.fixture(scope="module")
def tpch_compiled(tpch_db):
    """Every TPC-H query compiled: its program (which holds the runtime
    and syslib too) and the IR functions behind it."""
    return [tpch_db.compiled_for(q.sql) for q in ALL_QUERIES.values()]


def test_no_function_jumps_to_its_next_instruction(tpch_compiled):
    # a jump's target laid out next is reached by falling through
    regions = {CodeRegion.QUERY, CodeRegion.RUNTIME, CodeRegion.SYSLIB}
    seen = Counter()
    for compiled in tpch_compiled:
        program = compiled.program
        for info in program.functions:
            if info.region not in regions:
                continue
            seen[info.region] += 1
            for ip in range(info.start, info.end):
                op, target = program.code[ip][:2]
                assert not (op == Opcode.JMP and target == ip + 1), info.name
    assert min(seen.values()) >= len(ALL_QUERIES)


def _addis_feeding_only_a_bare_access(function) -> list:
    """The ADDIs of ``function``'s selected code whose value's one use is
    the address of a load or store at offset 0."""
    items = [
        item for item in select_function(function).items
        if isinstance(item, (MInst, MCallSeq))
    ]
    uses = Counter(v for item in items for v in item.uses())
    addis = {
        item.a: item for item in items
        if isinstance(item, MInst) and item.op == Opcode.ADDI
    }
    found = []
    for item in items:
        if isinstance(item, MInst) and item.op in (Opcode.LOAD, Opcode.STORE):
            base = item.b if item.op == Opcode.LOAD else item.a
            if base in addis and uses[base] == 1 and item.c == 0:
                found.append((function.name, addis[base].ir_id))
    return found


def test_no_addi_feeds_a_bare_access_as_its_only_use(tpch_compiled, numbering):
    # a gep whose users are the addresses of its block's accesses is
    # their immediate: ``load rD, [rB+k]``, no ``addi``
    functions = [
        fn for compiled in tpch_compiled
        for fn in compiled.query_ir.module.functions
    ]
    for module in (build_runtime_module(), build_syslib_module()):
        for fn in module.functions:
            optimize_function(fn)
            functions.append(fn)
    found = [f for fn in functions for f in _addis_feeding_only_a_bare_access(fn)]
    assert found == []


def test_every_query_and_runtime_instruction_has_an_ir_id(tpch_compiled):
    # a sample on an instruction without an IR id is unattributed: the
    # frame prologue and the parameter copies (and their spill stores)
    # carry the id of the entry block's first instruction, as a DWARF
    # prologue carries the function's first line
    for compiled in tpch_compiled:
        program = compiled.program
        missing = [
            (info.name, ip - info.start)
            for info in program.functions
            if info.region in (CodeRegion.QUERY, CodeRegion.RUNTIME)
            for ip in range(info.start, info.end)
            if ip not in program.debug
        ]
        assert missing == []
