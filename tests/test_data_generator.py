"""Tests for the TPC-H-like generator: sizes, integrity, distributions."""

import pytest

from repro.catalog import Catalog
from repro.catalog.schema import encode_date
from repro.data import generate_example, generate_tpch
from repro.data.queries import ALL_QUERIES
from repro.errors import ReproError


@pytest.fixture(scope="module")
def catalog():
    c = Catalog()
    generate_tpch(c, scale=0.001, seed=42)
    c.finalize()
    return c


def test_all_eight_tables_exist(catalog):
    for name in ("region", "nation", "supplier", "customer",
                 "part", "partsupp", "orders", "lineitem"):
        assert catalog.has_table(name)


def test_fixed_table_sizes(catalog):
    assert catalog.table("region").row_count == 5
    assert catalog.table("nation").row_count == 25


def test_scaled_sizes(catalog):
    assert catalog.table("orders").row_count == 1500
    assert catalog.table("customer").row_count == 150
    assert catalog.table("partsupp").row_count == 4 * catalog.table("part").row_count
    lineitem = catalog.table("lineitem").row_count
    assert 1500 * 1 <= lineitem <= 1500 * 7


@pytest.mark.parametrize("scale", [0, -3, float("nan")])
def test_a_scale_that_is_not_positive_is_refused(scale):
    with pytest.raises(ReproError, match="scale must be positive"):
        generate_tpch(Catalog(), scale=scale)


def test_foreign_keys_valid(catalog):
    n_cust = catalog.table("customer").row_count
    for custkey in catalog.table("orders").column_named("o_custkey"):
        assert 1 <= custkey <= n_cust
    n_part = catalog.table("part").row_count
    n_supp = catalog.table("supplier").row_count
    for partkey in catalog.table("lineitem").column_named("l_partkey"):
        assert 1 <= partkey <= n_part
    for suppkey in catalog.table("lineitem").column_named("l_suppkey"):
        assert 1 <= suppkey <= n_supp
    for nationkey in catalog.table("supplier").column_named("s_nationkey"):
        assert 0 <= nationkey <= 24


def test_lineitem_clustered_by_orderkey(catalog):
    orderkeys = catalog.table("lineitem").column_named("l_orderkey")
    assert orderkeys == sorted(orderkeys)


def test_orderdate_correlates_with_orderkey(catalog):
    """The clustering behind the Fig. 10/11 use case."""
    orders = catalog.table("orders")
    keys = orders.column_named("o_orderkey")
    dates = orders.column_named("o_orderdate")
    pairs = sorted(zip(keys, dates))
    first_quarter = [d for _, d in pairs[: len(pairs) // 4]]
    last_quarter = [d for _, d in pairs[-len(pairs) // 4 :]]
    assert max(first_quarter) < min(last_quarter) + 200  # strongly correlated
    assert sum(first_quarter) / len(first_quarter) < sum(last_quarter) / len(last_quarter)


def test_returnflag_linestatus_rules(catalog):
    lineitem = catalog.table("lineitem")
    dictionary = catalog.dictionary
    cutoff = encode_date("1995-06-17")
    flags = lineitem.column_named("l_returnflag")
    status = lineitem.column_named("l_linestatus")
    ship = lineitem.column_named("l_shipdate")
    receipt = lineitem.column_named("l_receiptdate")
    n_id = dictionary.id_of("N")
    o_id = dictionary.id_of("O")
    f_id = dictionary.id_of("F")
    for i in range(lineitem.row_count):
        if receipt[i] > cutoff:
            assert flags[i] == n_id
        assert status[i] == (o_id if ship[i] > cutoff else f_id)


def test_extendedprice_is_quantity_times_part_price(catalog):
    lineitem = catalog.table("lineitem")
    part = catalog.table("part")
    part_price = part.column_named("p_retailprice")
    quantity = lineitem.column_named("l_quantity")
    extended = lineitem.column_named("l_extendedprice")
    partkeys = lineitem.column_named("l_partkey")
    for i in range(0, lineitem.row_count, 97):
        expected = (quantity[i] // 100) * part_price[partkeys[i] - 1]
        assert extended[i] == expected


def test_dates_within_tpch_range(catalog):
    lo = encode_date("1992-01-01")
    hi = encode_date("1998-12-31")
    for d in catalog.table("orders").column_named("o_orderdate"):
        assert lo <= d <= hi


def test_generator_is_deterministic():
    a, b = Catalog(), Catalog()
    generate_tpch(a, scale=0.0005, seed=7)
    generate_tpch(b, scale=0.0005, seed=7)
    a.finalize()
    b.finalize()
    for name in ("orders", "lineitem", "part"):
        assert a.table(name).columns == b.table(name).columns


def test_different_seeds_differ():
    a, b = Catalog(), Catalog()
    generate_tpch(a, scale=0.0005, seed=1)
    generate_tpch(b, scale=0.0005, seed=2)
    a.finalize()
    b.finalize()
    assert a.table("lineitem").columns != b.table("lineitem").columns


def test_special_requests_comments_exist(catalog):
    """Q13's NOT LIKE '%special%requests%' must actually filter something."""
    dictionary = catalog.dictionary
    matching = dictionary.matching_ids("%special%requests%")
    comments = set(catalog.table("orders").column_named("o_comment"))
    assert matching & comments


def test_example_generator():
    catalog = Catalog()
    generate_example(catalog, n_sales=100, n_products=20, seed=1)
    catalog.finalize()
    assert catalog.table("sales").row_count == 100
    assert catalog.table("products").row_count == 20
    chip = catalog.dictionary.lookup("Chip")
    assert chip is not None


def test_query_suite_covers_22():
    assert len(ALL_QUERIES) == 22
    assert set(ALL_QUERIES) == {f"q{i}" for i in range(1, 23)}
    adapted = [q for q in ALL_QUERIES.values() if q.adaptation != "direct"]
    assert adapted, "adaptations must be documented"
