"""Property-based tests (hypothesis) for core invariants.

The heavyweight property is compiled-equals-interpreted over randomly
generated SQL — it sweeps the whole stack (binder, optimizer, codegen,
backend, VM) against the reference executor.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Column, Database, DataType, Schema
from repro.catalog.strings import StringDictionary
from repro.vm.cache import CacheHierarchy, CacheLevel
from repro.vm.isa import REG_SP
from repro.vm.memory import Memory
from repro.vm.translate import _Facts, _L1_REACH

from tests.conftest import rows_match

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# memory allocator


@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=30))
@RELAXED
def test_allocations_disjoint_aligned_zeroed(sizes):
    mem = Memory()
    regions = []
    for i, size in enumerate(sizes):
        addr = mem.alloc(size, f"r{i}")
        assert addr % 8 == 0
        rounded = (size + 7) & ~7
        for lo, hi in regions:
            assert addr >= hi or addr + rounded <= lo
        for off in range(0, rounded, 8):
            assert mem.read(addr + off) == 0
        regions.append((addr, addr + rounded))


@given(
    st.lists(st.integers(min_value=8, max_value=64), min_size=2, max_size=10),
    st.integers(min_value=0, max_value=9),
)
@RELAXED
def test_release_rewinds_to_mark(sizes, split):
    split = min(split, len(sizes) - 1)
    mem = Memory()
    for size in sizes[:split]:
        mem.alloc(size)
    mark = mem.mark()
    for size in sizes[split:]:
        mem.alloc(size)
    mem.release(mark)
    assert mem.mark() == mark


# ---------------------------------------------------------------------------
# cache model vs reference LRU


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200))
@RELAXED
def test_cache_level_matches_reference_lru(lines):
    level = CacheLevel(64 * 4 * 2, 4, 64)  # 2 sets, 4 ways
    reference: dict[int, list[int]] = {0: [], 1: []}
    for line in lines:
        got_hit = level.access(line)
        bucket = reference[line & 1]
        want_hit = line in bucket
        if want_hit:
            bucket.remove(line)
        bucket.insert(0, line)
        del bucket[4:]
        assert got_hit == want_hit


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=_L1_REACH),
)
@RELAXED
def test_an_accessed_line_is_first_in_its_set_and_near_lines_do_not_share_one(
    lines, address, apart
):
    # what the fast VM's resident-slot fact rests on: ``access`` leaves
    # the line it touched at the head of its set, hit or miss ...
    level = CacheHierarchy().l1
    for line in lines:
        level.access(line)
        assert level.sets[line & level.set_mask][0] == line
    # ... and two addresses no farther apart than a way less a line are
    # on one line or in two sets, wherever the first one lies
    near, far = address >> level.line_bits, (address + apart) >> level.line_bits
    assert near == far or near & level.set_mask != far & level.set_mask
    assert _L1_REACH == level.set_mask << level.line_bits


_FACT_REGS = (4, 5, REG_SP)
# register values and offsets that meet at the edges: null, a line, a way
_FACT_VALUES = st.sampled_from([0, 8, 16, 4096, 4100, 65536]) | st.integers(
    0, 1 << 14
).map(lambda w: w * 8)
_FACT_OFFSETS = st.sampled_from(
    [-16, -8, 0, 4, 8, 12, 56, 64, 4032, 4040, 4096, 4104, 8192]
) | st.integers(-8, 1200).map(lambda k: k * 8)
# (register, offset to access it at or None: it is rewritten, new value),
# or (None, None, k): ``addi sp, sp, k``, a frame pushed or popped
_FACT_STEPS = st.lists(
    st.tuples(
        st.sampled_from(_FACT_REGS), st.none() | _FACT_OFFSETS, _FACT_VALUES
    ) | st.tuples(
        st.none(), st.none(), st.sampled_from([-64, -32, -8, 4, 8, 32, 64])
    ),
    max_size=60,
)


@given(st.tuples(_FACT_VALUES, _FACT_VALUES, _FACT_VALUES), _FACT_STEPS)
@settings(RELAXED, max_examples=300)
def test_what_a_path_calls_known_holds_on_a_real_cache(values, steps):
    # drive ``_Facts`` and a real hierarchy with the same accesses along
    # one path: a validated access passes the guard, a resident one finds
    # its line first in its set, a frame slot is the word the entry stack
    # pointer indexes, however far the stack pointer has moved since
    regs = dict(zip(_FACT_REGS, values))
    frame = regs[REG_SP]
    facts, caches = _Facts(), CacheHierarchy()
    level = caches.l1
    for reg, offset, value in steps:
        if reg is None:
            regs[REG_SP] += value
            facts.move(value)
            continue
        if offset is None:
            regs[reg] = value
            facts.kill(reg)
            continue
        address = regs[reg] + offset
        faults = bool(address & 7 or address < 8)
        validated, resident, slot = facts.access(reg, offset)
        assert not (validated and faults)
        if faults:
            break  # the guard raises: the path ends here
        line = address >> level.line_bits
        if resident:
            assert level.sets[line & level.set_mask][0] == line
        if slot is not None:
            assert reg == REG_SP and slot == address - frame
            assert (frame >> 3) + (slot >> 3) == address >> 3
        caches.access(address)


# ---------------------------------------------------------------------------
# string dictionary


@given(st.sets(st.text(min_size=0, max_size=12), min_size=1, max_size=40))
@RELAXED
def test_dictionary_ids_agree_with_string_order(strings):
    d = StringDictionary()
    for s in strings:
        d.collect(s)
    d.freeze()
    ordered = sorted(strings)
    for a, b in zip(ordered, ordered[1:]):
        assert d.id_of(a) < d.id_of(b)


@given(
    st.sets(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=20),
    st.text(alphabet="abcd", min_size=1, max_size=6),
)
@RELAXED
def test_rank_is_bisect_consistent(strings, probe):
    d = StringDictionary()
    for s in strings:
        d.collect(s)
    d.freeze()
    rank = d.rank(probe)
    ordered = sorted(strings)
    assert all(s < probe for s in ordered[:rank])
    assert all(s >= probe for s in ordered[rank:])


# ---------------------------------------------------------------------------
# compiled == interpreted over random SQL

_ROW = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2000).map(lambda c: c / 100),
    st.sampled_from(["red", "green", "blue", "teal", "plum"]),
)


def _build_db(rows):
    db = Database()
    t = db.create_table("t", Schema([
        Column("a", DataType.INT),
        Column("g", DataType.INT),
        Column("m", DataType.DECIMAL),
        Column("s", DataType.STRING),
    ]))
    t.extend(rows)
    db.finalize()
    return db

_PREDICATES = [
    "a > 0",
    "a between -10 and 25",
    "g in (1, 3, 5, 7)",
    "s = 'red'",
    "s like '%e%'",
    "not (s = 'blue')",
    "m > 5.00 and a < 30",
    "a > g or m < 2.50",
    "m * 2 > 10.00",
    "a + g <= 20",
]


@given(
    rows=st.lists(_ROW, min_size=1, max_size=50),
    predicate=st.sampled_from(_PREDICATES),
    aggregate=st.booleans(),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_compiled_matches_interpreted_on_random_data(rows, predicate, aggregate):
    db = _build_db(rows)
    if aggregate:
        sql = (
            f"select g, count(*) n, sum(m) total, min(a) lo, max(a) hi "
            f"from t where {predicate} group by g order by g"
        )
    else:
        sql = f"select a, g, m, s from t where {predicate} order by a, g, m, s"
    compiled = db.execute(sql)
    oracle = db.execute_interpreted(sql)
    assert rows_match(compiled.rows, oracle.rows)


@given(
    rows=st.lists(_ROW, min_size=1, max_size=40),
    expr=st.sampled_from([
        "a + g * 2",
        "m * m",
        "m / 3.0",
        "a - g",
        "case when a > 0 then m else 0 end",
        "(m + 1) * (1 - 0.05)",
    ]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_expression_semantics_match(rows, expr):
    db = _build_db(rows)
    sql = f"select a, {expr} as v from t order by a, v"
    compiled = db.execute(sql)
    oracle = db.execute_interpreted(sql)
    assert rows_match(compiled.rows, oracle.rows)


@given(
    rows=st.lists(_ROW, min_size=2, max_size=40),
    descending=st.booleans(),
    limit=st.integers(min_value=1, max_value=10),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_sort_limit_semantics_match(rows, descending, limit):
    db = _build_db(rows)
    direction = "desc" if descending else "asc"
    sql = f"select a, g from t order by a {direction}, g {direction} limit {limit}"
    compiled = db.execute(sql)
    oracle = db.execute_interpreted(sql)
    assert compiled.rows == oracle.rows  # fully keyed: order must agree


@given(rows=st.lists(_ROW, min_size=1, max_size=30))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_join_semantics_match(rows):
    db = Database()
    t = db.create_table("t", Schema([
        Column("a", DataType.INT),
        Column("g", DataType.INT),
        Column("m", DataType.DECIMAL),
        Column("s", DataType.STRING),
    ]))
    t.extend(rows)
    dim = db.create_table("dim", Schema([
        Column("g", DataType.INT),
        Column("label", DataType.STRING),
    ]))
    dim.extend([(i, f"group-{i}") for i in range(10)])
    db.finalize()
    sql = (
        "select t.a, dim.label from t, dim where t.g = dim.g "
        "order by t.a, dim.label, t.m"
    )
    compiled = db.execute(sql)
    oracle = db.execute_interpreted(sql)
    assert rows_match(compiled.rows, oracle.rows)


@given(rows=st.lists(_ROW, min_size=1, max_size=35), negate=st.booleans())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_semi_join_semantics_match(rows, negate):
    db = Database()
    t = db.create_table("t", Schema([
        Column("a", DataType.INT),
        Column("g", DataType.INT),
        Column("m", DataType.DECIMAL),
        Column("s", DataType.STRING),
    ]))
    t.extend(rows)
    dim = db.create_table("dim", Schema([
        Column("g", DataType.INT),
        Column("label", DataType.STRING),
    ]))
    dim.extend([(i, f"group-{i}") for i in range(0, 10, 2)])  # even groups only
    db.finalize()
    keyword = "not in" if negate else "in"
    sql = (
        f"select a, g from t where g {keyword} "
        "(select dim.g from dim) order by a, g, m"
    )
    compiled = db.execute(sql)
    oracle = db.execute_interpreted(sql)
    assert rows_match(compiled.rows, oracle.rows)
