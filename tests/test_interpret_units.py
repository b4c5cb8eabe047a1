"""Unit tests for the reference interpreter's expression evaluation."""

import functools
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.schema import DataType
from repro.errors import PlanError
from repro.numbering import lowering
from repro.plan.expr import (
    IU,
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
from repro.plan.interpret import compile_expr, compile_exprs, evaluate

from tests.helpers import walk_expr

I = DataType.INT
D = DataType.DECIMAL
F = DataType.FLOAT
B = DataType.BOOL
T = DataType.DATE


def c(value, dtype=I):
    return ConstExpr(value, dtype)


def test_arithmetic_int():
    assert evaluate(BinaryExpr("+", c(2), c(3)), {}) == 5
    assert evaluate(BinaryExpr("-", c(2), c(3)), {}) == -1
    assert evaluate(BinaryExpr("*", c(4), c(3)), {}) == 12


def test_decimal_multiplication_rescales_and_truncates():
    # 1.50 * 0.33 = 0.495 -> 49 cents (truncated toward zero)
    assert evaluate(BinaryExpr("*", c(150, D), c(33, D)), {}) == 49
    # negative truncation toward zero, matching the VM's SDIV
    assert evaluate(BinaryExpr("*", c(-150, D), c(33, D)), {}) == -49


def test_decimal_by_int_keeps_cents():
    assert evaluate(BinaryExpr("*", c(150, D), c(2, I)), {}) == 300


def test_division_normalizes_to_natural_units():
    # 1.50 / 3 = 0.5 (not 50)
    assert evaluate(BinaryExpr("/", c(150, D), c(3, I)), {}) == pytest.approx(0.5)
    assert evaluate(BinaryExpr("/", c(7, I), c(2, I)), {}) == pytest.approx(3.5)


def test_float_result_normalizes_decimal_operands():
    expr = BinaryExpr("+", c(150, D), c(0.25, F))
    assert evaluate(expr, {}) == pytest.approx(1.75)


def test_comparisons_and_logic():
    assert evaluate(CompareExpr("<", c(1), c(2)), {}) == 1
    assert evaluate(CompareExpr("<>", c(1), c(1)), {}) == 0
    both = LogicalExpr("and", (CompareExpr("<", c(1), c(2)),
                               CompareExpr(">", c(1), c(2))))
    assert evaluate(both, {}) == 0
    either = LogicalExpr("or", (CompareExpr("<", c(1), c(2)),
                                CompareExpr(">", c(1), c(2))))
    assert evaluate(either, {}) == 1
    assert evaluate(NotExpr(CompareExpr("=", c(1), c(1))), {}) == 0


def test_in_set_and_case(numbering):
    iu = IU("x", I)
    member = InSetExpr(IURef(iu), frozenset({1, 5, 9}))
    assert evaluate(member, {iu.id: 5}) == 1
    assert evaluate(member, {iu.id: 4}) == 0
    case = CaseExpr(
        whens=((CompareExpr(">", IURef(iu), c(0)), c(10)),),
        default=c(20),
    )
    assert evaluate(case, {iu.id: 3}) == 10
    assert evaluate(case, {iu.id: -3}) == 20


def test_functions():
    import datetime

    day = datetime.date(1995, 7, 1).toordinal()
    assert evaluate(FuncExpr("year", c(day, DataType.DATE)), {}) == 1995
    assert evaluate(FuncExpr("to_cents", c(3)), {}) == 300
    assert evaluate(FuncExpr("float", c(3)), {}) == 3.0


# -- the builder against the tree walk -----------------------------------------

#: the columns a generated tree reads, and what a row holds for each
with lowering():
    COLUMNS = [IU("i", I), IU("j", I), IU("p", D), IU("q", D), IU("f", F),
               IU("d", T), IU("e", T)]
IDS = [iu.id for iu in COLUMNS]
VALUES = {
    I: st.integers(-40, 40),
    D: st.integers(-100_000, 100_000),  # cents
    F: st.integers(-4_000, 4_000).map(lambda n: n / 8),  # exact in binary
    T: st.integers(729_000, 731_000),  # day ordinals around 1997-2001
}
ROWS = st.tuples(*(VALUES[iu.dtype] for iu in COLUMNS))


def _binary(ops, left, right):
    return st.builds(BinaryExpr, st.sampled_from(ops), left, right)


@functools.cache
def _trees(dtype, depth):
    """Bound trees of ``dtype``: every Expr class, every dtype pair whose
    arithmetic branches (DECIMAL x DECIMAL, DECIMAL x INT, FLOAT with
    DECIMAL, DATE - DATE, ``%`` over negative operands, ``year``)."""
    leaves = st.one_of(
        st.sampled_from([IURef(iu) for iu in COLUMNS if iu.dtype is dtype]),
        st.builds(ConstExpr, VALUES[dtype], st.just(dtype)),
    ) if dtype is not B else st.builds(
        CompareExpr, st.sampled_from(["=", "<"]), st.just(IURef(COLUMNS[0])),
        st.builds(ConstExpr, VALUES[I], st.just(I)),
    )
    if depth == 0:
        return leaves

    def sub(of):
        return _trees(of, depth - 1)

    number = st.sampled_from([I, D, F]).flatmap(sub)
    grown = {
        I: [_binary("+-*%", sub(I), sub(I)), _binary("-", sub(T), sub(T)),
            _binary("%", sub(T), sub(I)), st.builds(FuncExpr, st.just("year"), sub(T))],
        D: [_binary("+-*%", sub(D), sub(D)), _binary("*", sub(D), sub(I)),
            _binary("*", sub(I), sub(D)),
            st.builds(FuncExpr, st.just("to_cents"), sub(I))],
        F: [_binary("/", number, number), _binary("+-*", sub(F), number),
            _binary("+-*", sub(D), sub(F)),
            st.builds(FuncExpr, st.just("float"), sub(I))],
        T: [_binary("+-", sub(T), sub(I))],
        B: [
            st.sampled_from([I, D, F, T]).flatmap(lambda of: st.builds(
                CompareExpr, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                sub(of), sub(of))),
            st.builds(LogicalExpr, st.sampled_from(["and", "or"]),
                      st.lists(sub(B), min_size=1, max_size=3).map(tuple)),
            st.builds(NotExpr, sub(B)),
            st.builds(InSetExpr, sub(I), st.frozensets(VALUES[I], max_size=5)),
        ],
    }[dtype]
    case = st.builds(
        CaseExpr,
        st.lists(st.tuples(sub(B), sub(dtype)), min_size=1, max_size=2).map(tuple),
        sub(dtype),
    )
    return st.one_of(leaves, case, *grown)


def _outcome(f, r):
    """``f(r)``, or the kind of failure: a zero divisor or a day ordinal
    outside the calendar must fail the same way on both sides."""
    try:
        value = f(r)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return value


@given(st.sampled_from([I, D, F, T, B]).flatmap(lambda of: _trees(of, 3)), ROWS)
@settings(max_examples=400, deadline=None)
def test_compiled_expressions_equal_the_tree_walk(expr, row):
    env = dict(zip(IDS, row))
    expected = _outcome(lambda r: walk_expr(expr, r), env)
    # both slot modes: the interpreter's dict environment, a view's tuple row
    for compiled, r in ((compile_expr(expr), env),
                        (compile_expr(expr, IDS.index), row)):
        got = _outcome(compiled, r)
        assert got == expected and type(got) is type(expected)
    if not isinstance(expected, type):
        assert compile_exprs([expr, IURef(COLUMNS[1]), expr], IDS.index)(row) \
            == (expected, row[1], expected)


def test_unreached_operands_are_not_called():
    boom = CompareExpr(">", BinaryExpr("/", c(1), c(0)), c(0))
    with pytest.raises(ZeroDivisionError):
        evaluate(boom, {})
    false, true = CompareExpr("=", c(1), c(2)), CompareExpr("=", c(1), c(1))
    assert evaluate(LogicalExpr("and", (false, boom)), {}) == 0
    assert evaluate(LogicalExpr("or", (true, boom)), {}) == 1
    untaken = CaseExpr(
        whens=((false, BinaryExpr("/", c(1), c(0))), (true, c(2.5, F))),
        default=BinaryExpr("%", c(1), c(0)),
    )
    assert evaluate(untaken, {}) == 2.5


def test_key_lists_compile_to_tuples():
    iu, ju = COLUMNS[0], COLUMNS[1]
    env = {iu.id: 7, ju.id: -3}
    assert compile_exprs([])(env) == ()
    assert compile_exprs([IURef(ju)])(env) == (-3,)
    assert compile_exprs([IURef(ju), IURef(iu)])(env) == (-3, 7)
    keys = [IURef(iu), BinaryExpr("%", IURef(ju), c(2)), c(1), IURef(ju)]
    assert compile_exprs(keys)(env) == (7, -1, 1, -3)
    assert compile_exprs(keys, [ju.id, iu.id].index)((-3, 7)) == (7, -1, 1, -3)


def test_src_evaluates_nothing_by_walking_a_tree():
    """One definition of expression semantics, called once per expression:
    ``evaluate`` is only the one-off spelling of ``compile_expr(e)(env)``,
    so nothing under ``src/repro`` may call it, and the per-row dict
    environment of the view tier (``_env``) is gone."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bevaluate\(|\b_env\b", line) and not (
                path.name == "interpret.py" and line.startswith("def evaluate(")
            ):
                offenders.append(f"{path.relative_to(root)}:{number}: {line}")
    assert not offenders, "\n".join(offenders)


def test_groupjoin_rejects_duplicate_build_keys(numbering):
    from repro.plan.interpret import Interpreter
    from repro.plan.physical import PlannerOptions, plan_physical
    from repro.sql import parse
    from repro.sql.binder import Binder

    from tests.helpers import small_catalog

    catalog = small_catalog()
    # group by kinds.name joined from items side with duplicate kinds rows
    catalog.tables["kinds"].encoded = True  # already encoded by fixture
    bound = Binder(catalog).bind(parse(
        "select i.kind, count(*) n from items i, items i2 "
        "where i.kind = i2.kind group by i.kind"
    ))
    physical = plan_physical(
        bound.plan, bound.model, PlannerOptions(enable_groupjoin=True)
    )
    from repro.plan.physical import PhysicalGroupJoin

    if any(isinstance(n, PhysicalGroupJoin) for n in physical.walk()):
        with pytest.raises(PlanError, match="unique"):
            Interpreter().run(physical)
