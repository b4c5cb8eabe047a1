"""The 22 TPC-H queries, adapted to the engine's SQL subset.

Each adaptation is recorded next to its query.  The recurring rewrites
(DESIGN.md §4):

- EXISTS / NOT EXISTS / IN subqueries run natively as unnested semi/anti
  joins (Q4, Q16, Q18, Q20, Q21, Q22); *uncorrelated* scalar subqueries
  are evaluated first and inlined (Q11, Q15); correlated scalar aggregates
  are decorrelated by hand into grouped derived tables (Q2, Q15, Q17) —
  the standard unnesting a production optimizer would perform; Q13's left
  outer join becomes an inner join,
- ``interval`` date arithmetic is pre-computed into literals,
- ``substring(c_phone,1,2)`` becomes prefix LIKE predicates (Q22),
- ``count(distinct ...)`` becomes ``count(*)`` (Q16).

The workload *shape* — scan-heavy aggregation (Q1, Q6), selective
multi-way joins (Q2, Q5, Q8, Q9), big ORs of IN/BETWEEN (Q19), LIKE
anti-predicates (Q13, Q16) — is preserved, which is what the paper's
profiling evaluation depends on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkQuery:
    """One adapted query plus its provenance notes."""

    name: str
    sql: str
    adaptation: str = "direct"


Q1 = BenchmarkQuery("q1", """
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus
""")

Q2 = BenchmarkQuery("q2", """
select s_acctbal, s_name, n_name, p_partkey, p_mfgr
from part, supplier, partsupp, nation, region,
     (select ps_partkey as mpk, min(ps_supplycost) as mc
      from partsupp, supplier, nation, region
      where s_suppkey = ps_suppkey and s_nationkey = n_nationkey
        and n_regionkey = r_regionkey and r_name = 'EUROPE'
      group by ps_partkey) m
where p_partkey = ps_partkey and s_suppkey = ps_suppkey
  and p_size = 15 and p_type like '%BRASS'
  and s_nationkey = n_nationkey and n_regionkey = r_regionkey
  and r_name = 'EUROPE'
  and p_partkey = m.mpk and ps_supplycost = m.mc
order by s_acctbal desc, n_name, s_name, p_partkey
limit 100
""", adaptation="the correlated min-supplycost subquery is decorrelated "
                "into a grouped derived table (standard unnesting)")

Q3 = BenchmarkQuery("q3", """
select l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where c_mktsegment = 'BUILDING'
  and c_custkey = o_custkey and l_orderkey = o_orderkey
  and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10
""")

Q4 = BenchmarkQuery("q4", """
select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= date '1993-07-01' and o_orderdate < date '1993-10-01'
  and exists (select l_orderkey from lineitem
              where l_orderkey = o_orderkey
                and l_commitdate < l_receiptdate)
group by o_orderpriority
order by o_orderpriority
""")

Q5 = BenchmarkQuery("q5", """
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and l_suppkey = s_suppkey and c_nationkey = s_nationkey
  and s_nationkey = n_nationkey and n_regionkey = r_regionkey
  and r_name = 'ASIA'
  and o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01'
group by n_name
order by revenue desc
""")

Q6 = BenchmarkQuery("q6", """
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07 and l_quantity < 24
""")

Q7 = BenchmarkQuery("q7", """
select n1.n_name as supp_nation, n2.n_name as cust_nation,
       year(l_shipdate) as l_year,
       sum(l_extendedprice * (1 - l_discount)) as revenue
from supplier, lineitem, orders, customer, nation n1, nation n2
where s_suppkey = l_suppkey and o_orderkey = l_orderkey
  and c_custkey = o_custkey
  and s_nationkey = n1.n_nationkey and c_nationkey = n2.n_nationkey
  and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
       or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
  and l_shipdate between date '1995-01-01' and date '1996-12-31'
group by n1.n_name, n2.n_name, year(l_shipdate)
order by supp_nation, cust_nation, l_year
""")

Q8 = BenchmarkQuery("q8", """
select year(o_orderdate) as o_year,
       sum(case when n2.n_name = 'BRAZIL'
                then l_extendedprice * (1 - l_discount) else 0 end)
         / sum(l_extendedprice * (1 - l_discount)) as mkt_share
from part, supplier, lineitem, orders, customer, nation n1, nation n2, region
where p_partkey = l_partkey and s_suppkey = l_suppkey
  and l_orderkey = o_orderkey and o_custkey = c_custkey
  and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey
  and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey
  and o_orderdate between date '1995-01-01' and date '1996-12-31'
  and p_type = 'ECONOMY ANODIZED STEEL'
group by year(o_orderdate)
order by o_year
""")

Q9 = BenchmarkQuery("q9", """
select n_name as nation, year(o_orderdate) as o_year,
       sum(l_extendedprice * (1 - l_discount)
           - ps_supplycost * l_quantity) as sum_profit
from part, supplier, lineitem, partsupp, orders, nation
where s_suppkey = l_suppkey and ps_suppkey = l_suppkey
  and ps_partkey = l_partkey and p_partkey = l_partkey
  and o_orderkey = l_orderkey and s_nationkey = n_nationkey
  and p_name like '%green%'
group by n_name, year(o_orderdate)
order by nation, o_year desc
""")

Q10 = BenchmarkQuery("q10", """
select c_custkey, c_name,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       c_acctbal, n_name
from customer, orders, lineitem, nation
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and o_orderdate >= date '1993-10-01' and o_orderdate < date '1994-01-01'
  and l_returnflag = 'R' and c_nationkey = n_nationkey
group by c_custkey, c_name, c_acctbal, n_name
order by revenue desc
limit 20
""")

Q11 = BenchmarkQuery("q11", """
select ps_partkey, sum(ps_supplycost * ps_availqty) as value
from partsupp, supplier, nation
where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
  and n_name = 'GERMANY'
group by ps_partkey
having sum(ps_supplycost * ps_availqty) >
       (select sum(ps_supplycost * ps_availqty) as total
        from partsupp, supplier, nation
        where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
          and n_name = 'GERMANY') * 0.01
order by value desc
""", adaptation="the spec's fraction 0.0001/SF becomes 0.01 for the small "
                "scale factors; the scalar subquery itself runs natively")

Q12 = BenchmarkQuery("q12", """
select l_shipmode,
       sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH'
                then 1 else 0 end) as high_line_count,
       sum(case when o_orderpriority <> '1-URGENT'
                 and o_orderpriority <> '2-HIGH'
                then 1 else 0 end) as low_line_count
from orders, lineitem
where o_orderkey = l_orderkey
  and l_shipmode in ('MAIL', 'SHIP')
  and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
  and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01'
group by l_shipmode
order by l_shipmode
""")

Q13 = BenchmarkQuery("q13", """
select c_custkey, count(*) as c_count
from customer, orders
where c_custkey = o_custkey
  and o_comment not like '%special%requests%'
group by c_custkey
order by c_count desc, c_custkey
limit 20
""", adaptation="left outer join + distribution-of-counts becomes inner join top-k")

Q14 = BenchmarkQuery("q14", """
select 100.00 * sum(case when p_type like 'PROMO%'
                         then l_extendedprice * (1 - l_discount)
                         else 0 end)
       / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from lineitem, part
where l_partkey = p_partkey
  and l_shipdate >= date '1995-09-01' and l_shipdate < date '1995-10-01'
""")

Q15 = BenchmarkQuery("q15", """
select s_suppkey, s_name, r.total_revenue
from supplier,
     (select l_suppkey as rsk,
             sum(l_extendedprice * (1 - l_discount)) as total_revenue
      from lineitem
      where l_shipdate >= date '1996-01-01' and l_shipdate < date '1996-04-01'
      group by l_suppkey) r
where s_suppkey = r.rsk
  and r.total_revenue =
      (select max(total_revenue) as m from
       (select l_suppkey as rsk2,
               sum(l_extendedprice * (1 - l_discount)) as total_revenue
        from lineitem
        where l_shipdate >= date '1996-01-01'
          and l_shipdate < date '1996-04-01'
        group by l_suppkey) r2)
order by s_suppkey
""", adaptation="the revenue view becomes a derived table; the max() "
                "subquery runs natively as an inlined scalar subquery")

Q16 = BenchmarkQuery("q16", """
select p_brand, p_type, p_size, count(*) as supplier_cnt
from partsupp, part
where p_partkey = ps_partkey
  and p_brand <> 'Brand#45'
  and p_type not like 'MEDIUM POLISHED%'
  and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
  and ps_suppkey not in (select s_suppkey from supplier
                         where s_comment like '%Customer%Complaints%')
group by p_brand, p_type, p_size
order by supplier_cnt desc, p_brand, p_type, p_size
limit 40
""", adaptation="count(distinct ps_suppkey) -> count(*)")

Q17 = BenchmarkQuery("q17", """
select sum(l_extendedprice) / 7.0 as avg_yearly
from lineitem, part,
     (select l_partkey as apk, 0.2 * avg(l_quantity) as small_qty
      from lineitem group by l_partkey) t
where p_partkey = l_partkey
  and p_brand = 'Brand#23' and p_container = 'MED BOX'
  and l_partkey = t.apk
  and l_quantity < t.small_qty
""", adaptation="the correlated avg(l_quantity) subquery is decorrelated "
                "into a grouped derived table (standard unnesting)")

Q18 = BenchmarkQuery("q18", """
select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) as total_qty
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderkey in (select l_orderkey from lineitem
                     group by l_orderkey
                     having sum(l_quantity) > 250)
group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
order by o_totalprice desc, o_orderdate
limit 100
""", adaptation="threshold 250 instead of 300 for the small scale factors")

Q19 = BenchmarkQuery("q19", """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, part
where p_partkey = l_partkey
  and ((p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity >= 1 and l_quantity <= 11
        and p_size between 1 and 5
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON')
    or (p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity >= 10 and l_quantity <= 20
        and p_size between 1 and 10
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON')
    or (p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity >= 20 and l_quantity <= 30
        and p_size between 1 and 15
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON'))
""", adaptation="p_partkey = l_partkey is written once, not in each branch "
                "(the binder factors it out to the same plan); 1 + 10 is 11; "
                "the spec's 'AIR REG' is the generated 'REG AIR'")

Q20 = BenchmarkQuery("q20", """
select s_name, s_address
from supplier, nation
where s_suppkey in (select ps_suppkey from partsupp, part
                    where ps_partkey = p_partkey
                      and p_name like 'forest%'
                      and ps_availqty > 100)
  and s_nationkey = n_nationkey and n_name = 'CANADA'
order by s_name
limit 20
""", adaptation="the nested partkey IN-subquery is flattened into a join "
                "inside the suppkey subquery; the correlated 0.5*sum(qty) "
                "availability bound becomes a constant threshold")

Q21 = BenchmarkQuery("q21", """
select s_name, count(*) as numwait
from supplier, lineitem l1, orders, nation
where s_suppkey = l1.l_suppkey and o_orderkey = l1.l_orderkey
  and o_orderstatus = 'F' and l1.l_receiptdate > l1.l_commitdate
  and exists (select l2.l_orderkey from lineitem l2
              where l2.l_orderkey = l1.l_orderkey
                and l2.l_suppkey <> l1.l_suppkey)
  and not exists (select l3.l_orderkey from lineitem l3
                  where l3.l_orderkey = l1.l_orderkey
                    and l3.l_suppkey <> l1.l_suppkey
                    and l3.l_receiptdate > l3.l_commitdate)
  and s_nationkey = n_nationkey and n_name = 'SAUDI ARABIA'
group by s_name
order by numwait desc, s_name
limit 100
""")

Q22 = BenchmarkQuery("q22", """
select c_nationkey, count(*) as numcust, sum(c_acctbal) as totacctbal
from customer
where (c_phone like '13-%' or c_phone like '31-%' or c_phone like '23-%'
       or c_phone like '29-%' or c_phone like '30-%' or c_phone like '18-%'
       or c_phone like '17-%')
  and c_acctbal > 0.00
  and not exists (select o_orderkey from orders where o_custkey = c_custkey)
group by c_nationkey
order by c_nationkey
""", adaptation="substring(c_phone,1,2) becomes prefix LIKEs; the avg "
                "acctbal subquery becomes the constant 0; grouped by "
                "nationkey instead of the country code")

ALL_QUERIES: dict[str, BenchmarkQuery] = {
    q.name: q
    for q in (
        Q1, Q2, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q10, Q11,
        Q12, Q13, Q14, Q15, Q16, Q17, Q18, Q19, Q20, Q21, Q22,
    )
}

# The paper's running example (Fig. 3a): join sales with chip products and
# average a division-heavy expression per sale id.
EXAMPLE_QUERY = BenchmarkQuery("example", """
select s.id, avg(s.price / s.vat_factor / s.prod_costs) as a
from sales s, products p
where s.id = p.id and p.category = 'Chip'
group by s.id
order by s.id
""")

# The domain-expert use case (Fig. 9a).
FIG9_QUERY = BenchmarkQuery("fig9", """
select l_orderkey, avg(l_extendedprice) as avg_price
from lineitem, orders
where o_orderdate < date '1995-04-01' and o_orderkey = l_orderkey
group by l_orderkey
order by l_orderkey
""")
