"""Property tests: aggregates are invariant under morsel scheduling.

Morsel-driven parallelism splits the scan into work units handed to
whichever simulated core is free, so partial aggregates merge in a
nondeterministic-looking (but seed-stable) order.  Whatever the worker
count or morsel size, the merged result must match the single-worker
reference — including on skewed partitions (all rows in one group) and
empty partitions (a filter that leaves nothing).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Column, DataType, Database, ExecOptions, Schema
from repro.errors import ReproError

from tests.conftest import rows_match

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _database(rows):
    db = Database()
    t = DataType
    table = db.create_table("t", Schema([
        Column("k", t.INT),
        Column("v", t.INT),
        Column("w", t.DECIMAL),
    ]))
    table.extend(rows)
    db.finalize()
    return db


# group keys drawn from a tiny domain force heavy skew; the weight column
# exercises decimal partial sums
row_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-999, max_value=999).map(lambda c: c / 100),
    ),
    min_size=0,
    max_size=60,
)


@_settings
@given(rows=row_lists, workers=st.sampled_from([2, 3, 4]),
       morsel=st.sampled_from([1, 3, 7, 1024]))
def test_grouped_aggregates_invariant_under_scheduling(rows, workers, morsel):
    db = _database(rows)
    sql = (
        "select t.k as c0, sum(t.v) as c1, count(*) as c2, avg(t.w) as c3 "
        "from t as t group by t.k"
    )
    reference = db.execute(sql).rows
    options = ExecOptions(workers=workers, morsel_size=morsel)
    parallel = db.execute(sql, options).rows
    assert rows_match(parallel, reference, rel=1e-7)


@_settings
@given(rows=row_lists, workers=st.sampled_from([2, 4]))
def test_scalar_aggregates_over_empty_filter(rows, workers):
    db = _database(rows)
    # v > 1000 is unsatisfiable for the generated domain: every morsel's
    # partial aggregate is empty
    sql = (
        "select count(*) as c0, sum(t.v) as c1 "
        "from t as t where t.v > 1000"
    )
    reference = db.execute(sql).rows
    options = ExecOptions(workers=workers, morsel_size=1)
    parallel = db.execute(sql, options).rows
    assert parallel == reference
    assert reference[0][0] == 0


@_settings
@given(rows=row_lists)
def test_single_hot_group_skew(rows):
    # force every row into one group on top of whatever hypothesis drew
    skewed = [(1, v, w) for _, v, w in rows]
    db = _database(skewed)
    sql = (
        "select t.k as c0, sum(t.v) as c1, avg(t.v) as c2 "
        "from t as t group by t.k"
    )
    reference = db.execute(sql).rows
    for workers, morsel in [(2, 1), (4, 3), (4, 1024)]:
        assert rows_match(
            db.execute(
                sql, ExecOptions(workers=workers, morsel_size=morsel)
            ).rows,
            reference,
            rel=1e-7,
        )


def test_morsel_size_must_be_positive():
    with pytest.raises(ReproError, match="morsel_size"):
        ExecOptions(morsel_size=0)
