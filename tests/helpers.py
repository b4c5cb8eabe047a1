"""Shared test fixtures: tiny hand-built catalogs and query helpers."""

from __future__ import annotations

import builtins
from contextlib import contextmanager

import repro.vm.translate as translate
from repro.catalog import Catalog, Column, DataType, Schema
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
