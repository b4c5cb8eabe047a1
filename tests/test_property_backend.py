"""Property-based fuzzing of the backend: random IR vs Python evaluation.

Generates random straight-line arithmetic DAGs and random diamond control
flow over the IR builder, compiles them (with and without optimizations,
with and without the reserved tag register), and checks the machine's
result against direct Python evaluation.  This hammers instruction
selection, the register allocator's spilling, and the optimizer.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import BackendOptions, compile_module
from repro.ir import IRBuilder, Module, Type
from repro.numbering import lowering
from repro.vm import CodeRegion, Machine, Memory, Program
from repro.vm.machine import _sdiv, crc32_mix

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_MASK64 = (1 << 64) - 1

# (opcode, python semantics); operands drawn from previously-defined values
_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: _wrap(a * b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "min": min,
    "max": max,
    "crc32": crc32_mix,
    "shr": lambda a, b: (a & _MASK64) >> (b & 63),
    "cmplt": lambda a, b: 1 if a < b else 0,
}


def _wrap(v: int) -> int:
    v &= _MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


_STEP = st.tuples(
    st.sampled_from(sorted(_OPS)),
    st.integers(min_value=0, max_value=30),  # operand index a (mod defined)
    st.integers(min_value=0, max_value=30),  # operand index b
    st.booleans(),  # b is a small constant instead
    st.integers(min_value=-8, max_value=8),  # the constant
)


@lowering()
def _build_and_run(steps, args, options):
    module = Module("fuzz")
    fn = module.new_function("f", [("x", Type.I64), ("y", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    b.set_block(b.block("entry"))

    values = [fn.params[0], fn.params[1]]
    expected = list(args)

    for op_name, ia, ib, const_b, const in steps:
        a_index = ia % len(values)
        a_val = values[a_index]
        a_py = expected[a_index]
        if const_b:
            b_val = b.const(const)
            b_py = const
        else:
            b_index = ib % len(values)
            b_val = values[b_index]
            b_py = expected[b_index]
        if op_name == "shr" and not const_b:
            b_val = b.const(abs(b_py) & 63)
            b_py = abs(b_py) & 63
        if op_name == "cmplt":
            result = b.cmp("cmplt", a_val, b_val)
            # keep booleans usable as i64 operands downstream
            result = b.add(result, b.const(0))
        else:
            result = b.binary(op_name, a_val, b_val)
        values.append(result)
        expected.append(_OPS[op_name](a_py, b_py))

    b.ret(values[-1])
    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY, options)
    machine = Machine(program, Memory())
    got = machine.call(compiled["f"].info.start, tuple(args))
    return got, expected[-1]


@given(
    steps=st.lists(_STEP, min_size=1, max_size=40),
    x=st.integers(min_value=-(10**6), max_value=10**6),
    y=st.integers(min_value=-(10**6), max_value=10**6),
    reserve=st.booleans(),
    optimize=st.booleans(),
)
@RELAXED
def test_random_dag_matches_python(steps, x, y, reserve, optimize):
    options = BackendOptions(reserve_tag_register=reserve, optimize=optimize)
    got, want = _build_and_run(steps, (x, y), options)
    assert got == want


@given(
    steps=st.lists(_STEP, min_size=1, max_size=25),
    x=st.integers(min_value=-1000, max_value=1000),
    y=st.integers(min_value=-1000, max_value=1000),
)
@RELAXED
def test_optimized_equals_unoptimized(steps, x, y):
    plain, want = _build_and_run(steps, (x, y), BackendOptions(optimize=False))
    optimized, _ = _build_and_run(steps, (x, y), BackendOptions(optimize=True))
    assert plain == optimized == want


@given(
    x=st.integers(min_value=-(10**9), max_value=10**9),
    y=st.integers(min_value=1, max_value=10**6),
    take_left=st.booleans(),
)
@RELAXED
@lowering()
def test_diamond_control_flow(x, y, take_left):
    """Random diamond: condbr + phi merge, with division on one arm."""
    module = Module("fuzz")
    fn = module.new_function("f", [("x", Type.I64), ("y", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry = b.block("entry")
    left = b.block("left")
    right = b.block("right")
    join = b.block("join")
    px, py = fn.params
    b.set_block(entry)
    cond = b.cmp("cmplt", px, b.const(0) if take_left else py)
    b.condbr(cond, left, right)
    b.set_block(left)
    lv = b.sdiv(px, py)
    b.br(join)
    b.set_block(right)
    rv = b.mul(px, b.const(3))
    b.br(join)
    b.set_block(join)
    out = b.phi(Type.I64)
    b.add_incoming(out, lv, left)
    b.add_incoming(out, rv, right)
    b.ret(out)

    program = Program()
    compiled = compile_module(module, program, CodeRegion.QUERY)
    machine = Machine(program, Memory())
    got = machine.call(compiled["f"].info.start, (x, y))
    threshold = 0 if take_left else y
    want = _sdiv(x, y) if x < threshold else _wrap(x * 3)
    assert got == want


_LOOP_OPS = ("add", "sub", "xor", "mul", "min", "max", "crc32")

_LOOP_STEP = st.tuples(
    st.sampled_from(_LOOP_OPS),
    st.integers(min_value=0, max_value=13),  # the carried value updated
    st.integers(min_value=0, max_value=13),  # the other operand
)


@given(
    carried=st.integers(min_value=9, max_value=14),
    steps=st.lists(_LOOP_STEP, min_size=1, max_size=20),
    trips=st.integers(min_value=0, max_value=5),
    x=st.integers(min_value=-1000, max_value=1000),
    y=st.integers(min_value=-1000, max_value=1000),
    reserve=st.booleans(),
)
@RELAXED
@lowering()
def test_counted_loop_carrying_more_values_than_registers(
    carried, steps, trips, x, y, reserve
):
    """A counted loop whose phis carry more values than the pool holds:
    some must spill, and the loop-scaled spill costs pick which."""
    module = Module("fuzz")
    fn = module.new_function("f", [("x", Type.I64), ("y", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, header, body, done = (
        b.block(name) for name in ("entry", "header", "body", "done")
    )
    px, py = fn.params
    b.set_block(entry)
    inits = [b.add(px if j % 2 else py, b.const(j)) for j in range(carried)]
    b.br(header)
    b.set_block(header)
    counter = b.phi(Type.I64)
    phis = [b.phi(Type.I64) for _ in range(carried)]
    b.condbr(b.cmp("cmplt", counter, b.const(trips)), body, done)
    b.set_block(body)
    values = list(phis)
    for op_name, j, k in steps:
        values[j % carried] = b.binary(op_name, values[j % carried], values[k % carried])
    b.add_incoming(counter, b.const(0), entry)
    b.add_incoming(counter, b.add(counter, b.const(1)), body)
    for phi, init, value in zip(phis, inits, values):
        b.add_incoming(phi, init, entry)
        b.add_incoming(phi, value, body)
    b.br(header)
    b.set_block(done)
    total = phis[0]
    for phi in phis[1:]:
        total = b.binary("xor", total, phi)
    b.ret(total)

    program = Program()
    options = BackendOptions(reserve_tag_register=reserve)
    compiled = compile_module(module, program, CodeRegion.QUERY, options)
    got = Machine(program, Memory()).call(compiled["f"].info.start, (x, y))

    state = [(x if j % 2 else y) + j for j in range(carried)]
    for _ in range(trips):
        for op_name, j, k in steps:
            state[j % carried] = _OPS[op_name](state[j % carried], state[k % carried])
    want = state[0]
    for value in state[1:]:
        want ^= value
    assert compiled["f"].alloc_stats.spilled > 0
    assert got == want
