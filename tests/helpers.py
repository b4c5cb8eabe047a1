"""Shared test fixtures: tiny hand-built catalogs and query helpers."""

from __future__ import annotations

import builtins
import datetime
from contextlib import contextmanager

import repro.backend.compiler as backend_compiler
import repro.vm.translate as translate
from repro.backend.minst import MCallSeq, MInst, MLabel
from repro.catalog import Catalog, Column, DataType, Schema
from repro.errors import PlanError
from repro.numbering import lowering
from repro.plan.expr import (
    BinaryExpr,
    CaseExpr,
    CompareExpr,
    ConstExpr,
    FuncExpr,
    IURef,
    InSetExpr,
    LogicalExpr,
    NotExpr,
)
from repro.plan.interpret import Interpreter
from repro.plan.physical import PlannerOptions, plan_physical
from repro.sql import parse
from repro.sql.binder import Binder
from repro.vm.isa import REG_SP, Opcode


def small_catalog() -> Catalog:
    """Two small joinable tables with every data type."""
    catalog = Catalog()
    t = DataType
    items = catalog.create_table("items", Schema([
        Column("id", t.INT),
        Column("kind", t.STRING),
        Column("price", t.DECIMAL),
        Column("sold", t.DATE),
    ]))
    items.extend([
        (1, "apple", 1.50, "2020-01-01"),
        (2, "banana", 0.75, "2020-01-02"),
        (3, "apple", 2.00, "2020-02-01"),
        (4, "cherry", 5.25, "2020-02-15"),
        (5, "banana", 0.60, "2020-03-01"),
        (6, "apple", 1.80, "2021-01-01"),
    ])
    kinds = catalog.create_table("kinds", Schema([
        Column("name", t.STRING),
        Column("tasty", t.INT),
    ]))
    kinds.extend([
        ("apple", 1),
        ("banana", 0),
        ("cherry", 1),
    ])
    catalog.finalize()
    return catalog


@lowering()
def run_interpreted(catalog: Catalog, sql: str, hint=None, options=None):
    """parse -> bind -> physical plan -> reference interpreter."""
    bound = Binder(catalog).bind(parse(sql), join_order_hint=hint)
    physical = plan_physical(bound.plan, bound.model, options or PlannerOptions())
    interp = Interpreter()
    rows = interp.run(physical)
    return rows, physical, interp


def _sdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _natural(value, dtype: DataType) -> float:
    return value / 100 if dtype is DataType.DECIMAL else float(value)


def walk_expr(expr, env: dict[int, object]):  # noqa: C901
    """The reference for :func:`repro.plan.interpret.compile_expr`: the
    tree-walking evaluator the interpreter and the view tier ran per row
    until PR 24, kept as it was.  It decides every dtype rule at every
    visit, which is what made it slow and what makes it easy to read
    against :mod:`repro.plan.expr`."""
    if isinstance(expr, IURef):
        return env[expr.iu.id]
    if isinstance(expr, ConstExpr):
        return expr.value
    if isinstance(expr, BinaryExpr):
        lt, rt = expr.left.dtype, expr.right.dtype
        a = walk_expr(expr.left, env)
        b = walk_expr(expr.right, env)
        op = expr.op
        if op == "/":
            return _natural(a, lt) / _natural(b, rt)
        if expr.dtype is DataType.FLOAT:
            a, b = _natural(a, lt), _natural(b, rt)
            return a + b if op == "+" else a - b if op == "-" else a * b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "%":
            return a - b * _sdiv(a, b)
        # multiplication: two cents operands need rescaling
        if lt is DataType.DECIMAL and rt is DataType.DECIMAL:
            return _sdiv(a * b, 100)
        return a * b
    if isinstance(expr, CompareExpr):
        a = walk_expr(expr.left, env)
        b = walk_expr(expr.right, env)
        op = expr.op
        if op == "=":
            return 1 if a == b else 0
        if op == "<>":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        return 1 if a >= b else 0
    if isinstance(expr, LogicalExpr):
        if expr.op == "and":
            for operand in expr.operands:
                if not walk_expr(operand, env):
                    return 0
            return 1
        for operand in expr.operands:
            if walk_expr(operand, env):
                return 1
        return 0
    if isinstance(expr, NotExpr):
        return 0 if walk_expr(expr.operand, env) else 1
    if isinstance(expr, InSetExpr):
        return 1 if walk_expr(expr.operand, env) in expr.values else 0
    if isinstance(expr, CaseExpr):
        for cond, value in expr.whens:
            if walk_expr(cond, env):
                return walk_expr(value, env)
        return walk_expr(expr.default, env)
    if isinstance(expr, FuncExpr):
        value = walk_expr(expr.operand, env)
        if expr.func == "year":
            return datetime.date.fromordinal(value).year
        if expr.func == "float":
            return float(value)
        if expr.func == "to_cents":
            return value * 100
        raise PlanError(f"unknown function {expr.func}")
    raise PlanError(f"cannot evaluate {type(expr).__name__}")


@contextmanager
def compiled_sources():
    """Record every source string ``repro.vm.translate`` emits — what it
    hands to its code memo, compiled or found — in call order; yields the
    list they land in.

    The generated text is a function of program, heat and emit settings
    only, so a digest over this list is an exact oracle for "translation
    emits the same code"."""
    sources: list[str] = []
    code = translate._code

    def recording(source):
        sources.append(source)
        return code(source)

    translate._code = recording
    try:
        yield sources
    finally:
        translate._code = code


@contextmanager
def compile_calls():
    """Record every source string ``repro.vm.translate`` hands to
    ``compile`` itself: the texts its code memo did not hold."""
    sources: list[str] = []

    def recording(source, *args, **kwargs):
        sources.append(source)
        return builtins.compile(source, *args, **kwargs)

    translate.compile = recording  # shadows the builtin in that module
    try:
        yield sources
    finally:
        del translate.compile


def traces_of(trace):
    """``trace`` and every trace its side exits inlined, depth first."""
    yield trace
    for what in trace.exits.values():
        if isinstance(what, translate._Trace):
            yield from traces_of(what)


@contextmanager
def forgotten_address_facts():
    """Translate as if no trace knew anything about an address: what
    :func:`repro.vm.translate._measure` established at memory accesses
    is wiped before ``_emit`` reads it, so every LOAD and STORE degrades
    to its guarded, looked-up form — the ablation of the address facts,
    as a value (nothing in ``src/`` switches them off)."""
    measure = translate._measure

    def forgetful(tree):
        measure(tree)
        for trace in traces_of(tree.root):
            trace.known.clear()
        tree.slots = []
        return tree

    translate._measure = forgetful
    try:
        yield
    finally:
        translate._measure = measure


@contextmanager
def allocations():
    """Record ``(items, allocated)`` for every function the backend
    allocates: its virtual-register code and what the allocator made."""
    seen: list[tuple] = []
    allocate = backend_compiler.allocate_function

    def recording(items, *args, **kwargs):
        allocated = allocate(items, *args, **kwargs)
        seen.append((items, allocated))
        return allocated

    backend_compiler.allocate_function = recording
    try:
        yield seen
    finally:
        backend_compiler.allocate_function = allocate


def _live_after(items) -> list[set]:
    """Per-item live-out vregs, by plain iterative dataflow over items."""
    at = {item.name: i for i, item in enumerate(items) if isinstance(item, MLabel)}
    succs = []
    for i, item in enumerate(items):
        op = item.op if isinstance(item, MInst) else None
        following = [i + 1] if i + 1 < len(items) else []
        if op == Opcode.JMP:
            succs.append([at[item.a]])
        elif op in (Opcode.BRZ, Opcode.BRNZ):
            succs.append([at[item.b], *following])
        elif op in (Opcode.RET, Opcode.HALT):
            succs.append([])
        else:
            succs.append(following)
    live_in = [set() for _ in items]
    live_out = [set() for _ in items]
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1, -1, -1):
            out = set().union(*(live_in[s] for s in succs[i]))
            item = items[i]
            if isinstance(item, (MInst, MCallSeq)):
                now = (out - set(item.defs())) | set(item.uses())
            else:
                now = out
            if out != live_out[i] or now != live_in[i]:
                live_out[i], live_in[i] = out, now
                changed = True
    return live_out


def check_allocation(items, allocated) -> None:
    """Assert that an allocation keeps every value where its uses read it.

    Writing a register never destroys a live value: at each definition,
    no other vreg live after it holds the same register, unless the
    instruction copies that very vreg.  And each value live across a
    non-kernel call has its register stored before the argument moves
    and loaded back from the same slot after the result move."""
    registers = allocated.registers
    live_after = _live_after(items)
    for i, item in enumerate(items):
        if not isinstance(item, (MInst, MCallSeq)):
            continue
        copied = item.b if isinstance(item, MInst) and item.op == Opcode.MOV else None
        for d in item.defs():
            if d not in registers:
                continue
            clash = sorted(
                v for v in live_after[i]
                if v not in (d, copied) and registers.get(v) == registers[d]
            )
            assert not clash, f"item {i}: v{d} overwrites live {clash} in r{registers[d]}"
    calls = [
        i for i, item in enumerate(items)
        if isinstance(item, MCallSeq) and not item.is_kernel
    ]
    assert len(calls) == len(allocated.call_fixups)
    code = allocated.code
    for i, (ip, _) in zip(calls, allocated.call_fixups):
        item = items[i]
        saved, restored = {}, {}
        j = ip - len(item.args) - 1
        while j >= 0 and code[j][0] == Opcode.STORE and code[j][1] == REG_SP:
            saved.setdefault(code[j][2], code[j][3])
            j -= 1
        j = ip + 1 + (item.dst is not None)
        while j < len(code) and code[j][0] == Opcode.LOAD and code[j][2] == REG_SP:
            restored.setdefault(code[j][1], code[j][3])
            j += 1
        for v in live_after[i] - set(item.defs()):
            if v in registers:
                reg = registers[v]
                assert reg in saved and saved[reg] == restored.get(reg), (
                    f"item {i}: v{v} in r{reg} is not kept across the call"
                )
