"""Shared test fixtures: tiny hand-built catalogs and query helpers."""

from __future__ import annotations

import builtins
import datetime
from contextlib import contextmanager

import repro.vm.translate as translate
from repro.catalog import Catalog, Column, DataType, Schema
from repro.errors import PlanError
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
    """Record every source string ``repro.vm.translate`` hands to
    ``compile``, in call order; yields the list they land in.

    The generated text is a function of program, heat and emit settings
    only, so a digest over this list is an exact oracle for "translation
    emits the same code" (one process per side: task ids, which profiled
    programs load into the tag register, come from process-wide
    counters)."""
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
