"""Deterministic TPC-H-like data generator (the dbgen substitute).

Generates all eight TPC-H tables at fractional scale factors with the value
distributions the adapted query suite depends on: date ranges and the
returnflag/linestatus rules, correlated ``extendedprice = quantity * part
price``, 150 composed part types for LIKE predicates, comment text seeded
with the phrases Q9/Q13-style predicates look for, and ``lineitem``
physically clustered by ``l_orderkey`` (which the paper's optimizer use case
relies on).

Absolute sizes are laptop-scale; the paper's relative results do not depend
on them (see DESIGN.md §1).
"""

from __future__ import annotations

import random

from repro.catalog import Catalog, Column, DataType, Schema
from repro.catalog.schema import encode_date
from repro.errors import ReproError

TPCH_TABLE_NAMES = (
    "region", "nation", "supplier", "customer",
    "part", "partsupp", "orders", "lineitem",
)

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
_TYPE_SYLL1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_TYPE_SYLL2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_TYPE_SYLL3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_CONTAINERS = [
    f"{size} {kind}"
    for size in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for kind in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_PART_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
]
_COMMENT_WORDS = [
    "carefully", "quickly", "furiously", "slyly", "blithely", "ironic",
    "final", "pending", "regular", "express", "bold", "even", "silent",
    "unusual", "packages", "deposits", "accounts", "theodolites", "pinto",
    "beans", "foxes", "ideas", "requests", "instructions", "dependencies",
]

_DATE_LO = encode_date("1992-01-01")
_DATE_HI = encode_date("1998-08-02")
_CUTOFF = encode_date("1995-06-17")


def _comment(rng: random.Random, special: bool = False,
             phrase: str = "special requests") -> str:
    words = rng.sample(_COMMENT_WORDS, rng.randint(3, 6))
    if special:
        words.insert(rng.randrange(len(words) + 1), phrase)
    return " ".join(words)


def _schemas() -> dict[str, Schema]:
    c = Column
    t = DataType
    return {
        "region": Schema([
            c("r_regionkey", t.INT), c("r_name", t.STRING), c("r_comment", t.STRING),
        ]),
        "nation": Schema([
            c("n_nationkey", t.INT), c("n_name", t.STRING),
            c("n_regionkey", t.INT), c("n_comment", t.STRING),
        ]),
        "supplier": Schema([
            c("s_suppkey", t.INT), c("s_name", t.STRING), c("s_address", t.STRING),
            c("s_nationkey", t.INT), c("s_phone", t.STRING),
            c("s_acctbal", t.DECIMAL), c("s_comment", t.STRING),
        ]),
        "customer": Schema([
            c("c_custkey", t.INT), c("c_name", t.STRING), c("c_address", t.STRING),
            c("c_nationkey", t.INT), c("c_phone", t.STRING),
            c("c_acctbal", t.DECIMAL), c("c_mktsegment", t.STRING),
            c("c_comment", t.STRING),
        ]),
        "part": Schema([
            c("p_partkey", t.INT), c("p_name", t.STRING), c("p_mfgr", t.STRING),
            c("p_brand", t.STRING), c("p_type", t.STRING), c("p_size", t.INT),
            c("p_container", t.STRING), c("p_retailprice", t.DECIMAL),
            c("p_comment", t.STRING),
        ]),
        "partsupp": Schema([
            c("ps_partkey", t.INT), c("ps_suppkey", t.INT),
            c("ps_availqty", t.INT), c("ps_supplycost", t.DECIMAL),
            c("ps_comment", t.STRING),
        ]),
        "orders": Schema([
            c("o_orderkey", t.INT), c("o_custkey", t.INT),
            c("o_orderstatus", t.STRING), c("o_totalprice", t.DECIMAL),
            c("o_orderdate", t.DATE), c("o_orderpriority", t.STRING),
            c("o_clerk", t.STRING), c("o_shippriority", t.INT),
            c("o_comment", t.STRING),
        ]),
        "lineitem": Schema([
            c("l_orderkey", t.INT), c("l_partkey", t.INT), c("l_suppkey", t.INT),
            c("l_linenumber", t.INT), c("l_quantity", t.DECIMAL),
            c("l_extendedprice", t.DECIMAL), c("l_discount", t.DECIMAL),
            c("l_tax", t.DECIMAL), c("l_returnflag", t.STRING),
            c("l_linestatus", t.STRING), c("l_shipdate", t.DATE),
            c("l_commitdate", t.DATE), c("l_receiptdate", t.DATE),
            c("l_shipinstruct", t.STRING), c("l_shipmode", t.STRING),
            c("l_comment", t.STRING),
        ]),
    }


def generate_tpch(catalog: Catalog, scale: float = 0.001, seed: int = 42) -> None:
    """Populate ``catalog`` with all eight tables at scale factor ``scale``."""
    if not scale > 0:
        raise ReproError(f"TPC-H scale must be positive, not {scale}")
    rng = random.Random(seed)
    schemas = _schemas()
    n_supplier = max(5, round(10_000 * scale))
    n_customer = max(10, round(150_000 * scale))
    n_part = max(10, round(200_000 * scale))
    n_orders = max(20, round(1_500_000 * scale))

    region = catalog.create_table("region", schemas["region"])
    for i, name in enumerate(_REGIONS):
        region.append((i, name, _comment(rng)))

    nation = catalog.create_table("nation", schemas["nation"])
    for i, (name, region_key) in enumerate(_NATIONS):
        nation.append((i, name, region_key, _comment(rng)))

    supplier = catalog.create_table("supplier", schemas["supplier"])
    for i in range(1, n_supplier + 1):
        supplier.append((
            i,
            f"Supplier#{i:09d}",
            f"addr-s{i}",
            rng.randrange(25),
            f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
            rng.uniform(-999.99, 9999.99),
            _comment(rng, special=(rng.random() < 0.1),
                     phrase="Customer Complaints"),
        ))

    customer = catalog.create_table("customer", schemas["customer"])
    for i in range(1, n_customer + 1):
        customer.append((
            i,
            f"Customer#{i:09d}",
            f"addr-c{i}",
            rng.randrange(25),
            f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
            rng.uniform(-999.99, 9999.99),
            rng.choice(_SEGMENTS),
            _comment(rng),
        ))

    part = catalog.create_table("part", schemas["part"])
    part_price: list[float] = [0.0] * (n_part + 1)
    for i in range(1, n_part + 1):
        price = (90000 + (i % 200001) * 100 % 20000 + 100 * (i % 1000)) / 100
        part_price[i] = price
        mfgr = rng.randint(1, 5)
        part.append((
            i,
            " ".join(rng.sample(_PART_COLORS, 3)),
            f"Manufacturer#{mfgr}",
            f"Brand#{mfgr}{rng.randint(1, 5)}",
            f"{rng.choice(_TYPE_SYLL1)} {rng.choice(_TYPE_SYLL2)} {rng.choice(_TYPE_SYLL3)}",
            rng.randint(1, 50),
            rng.choice(_CONTAINERS),
            price,
            _comment(rng),
        ))

    partsupp = catalog.create_table("partsupp", schemas["partsupp"])
    for i in range(1, n_part + 1):
        for j in range(4):
            suppkey = ((i + j * (n_supplier // 4 + 1)) % n_supplier) + 1
            partsupp.append((
                i,
                suppkey,
                rng.randint(1, 9999),
                rng.uniform(1.0, 1000.0),
                _comment(rng),
            ))

    orders = catalog.create_table("orders", schemas["orders"])
    lineitem = catalog.create_table("lineitem", schemas["lineitem"])
    date_span = _DATE_HI - 151 - _DATE_LO
    for okey in range(1, n_orders + 1):
        # order dates are correlated with order keys (orders are inserted
        # as time progresses); this clustering is what makes the paper's
        # optimizer-developer use case observable (Fig. 10/11): a date
        # filter on orders selects a contiguous orderkey range, so a probe
        # over orderkey-ordered lineitem flips from always-match to
        # never-match partway through the scan
        base_date = _DATE_LO + (okey - 1) * date_span // max(1, n_orders - 1)
        orderdate = min(
            _DATE_LO + date_span, max(_DATE_LO, base_date + rng.randint(-45, 45))
        )
        n_lines = rng.randint(1, 7)
        total = 0.0
        all_f = True
        any_f = False
        for line in range(1, n_lines + 1):
            partkey = rng.randint(1, n_part)
            suppkey = ((partkey + rng.randrange(4) * (n_supplier // 4 + 1)) % n_supplier) + 1
            quantity = rng.randint(1, 50)
            extendedprice = quantity * part_price[partkey]
            discount = rng.randint(0, 10) / 100
            tax = rng.randint(0, 8) / 100
            shipdate = orderdate + rng.randint(1, 121)
            commitdate = orderdate + rng.randint(30, 90)
            receiptdate = shipdate + rng.randint(1, 30)
            if receiptdate <= _CUTOFF:
                returnflag = rng.choice("RA")
            else:
                returnflag = "N"
            linestatus = "O" if shipdate > _CUTOFF else "F"
            if linestatus == "F":
                any_f = True
            else:
                all_f = False
            total += extendedprice * (1 + tax) * (1 - discount)
            lineitem.append((
                okey, partkey, suppkey, line,
                float(quantity), extendedprice, discount, tax,
                returnflag, linestatus,
                shipdate, commitdate, receiptdate,
                rng.choice(_SHIP_INSTRUCT), rng.choice(_SHIP_MODES),
                _comment(rng),
            ))
        status = "F" if all_f else ("O" if not any_f else "P")
        orders.append((
            okey,
            rng.randint(1, n_customer),
            status,
            total,
            orderdate,
            rng.choice(_PRIORITIES),
            f"Clerk#{rng.randint(1, max(2, n_orders // 100)):09d}",
            0,
            _comment(rng, special=(rng.random() < 0.02)),
        ))

    # declare the physical clustering keys for the storage engine: the
    # generators above already emit rows in this order, so the loader's
    # stable sort is the identity — lineitem keeps its l_orderkey
    # clustering (Fig. 10/11 depends on it), and because orderdate is
    # correlated with orderkey, date columns are *nearly* clustered too,
    # which is exactly what makes zone maps prune date-range scans
    region.sort_key = "r_regionkey"
    nation.sort_key = "n_nationkey"
    supplier.sort_key = "s_suppkey"
    customer.sort_key = "c_custkey"
    part.sort_key = "p_partkey"
    partsupp.sort_key = "ps_partkey"
    orders.sort_key = "o_orderkey"
    lineitem.sort_key = "l_orderkey"
    # fleet partition keys: the two fact tables split across service
    # shards on their clustering key (range partitioning can then reuse
    # the storage spine's per-shard key bounds); dimensions replicate
    orders.partition_key = "o_orderkey"
    lineitem.partition_key = "l_orderkey"
