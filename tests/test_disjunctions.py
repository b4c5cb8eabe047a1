"""The binder's OR rewrite: shared conjuncts factored out, implied filters.

Every top-level OR gives up what all its branches share, and for each
relation every remaining branch restricts, the OR of those restrictions is
pushed to that relation when the cardinality model finds it selective.  The
OR itself stays, so the conjuncts the binder classifies are exactly
equivalent to the WHERE clause as written.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.data.queries import ALL_QUERIES
from repro.numbering import lowering
from repro.plan.expr import CompareExpr, LogicalExpr, conjuncts
from repro.plan.logical import LogicalFilter
from repro.sql import ast, parse
from repro.sql.binder import Binder

from tests.helpers import small_catalog, walk_expr

# three relations over two tables, joined by the kind names so the graph is
# connected whatever the OR says; the OR draws on the integer columns
COLUMNS = ("i.id", "j.id", "k.tasty")
ENV_COLUMNS = ("i.kind", "j.kind", "k.name") + COLUMNS
JOINED = "i.kind = k.name and j.kind = k.name"

atoms = st.builds(
    "{} {} {}".format,
    st.sampled_from(COLUMNS),
    st.sampled_from(("=", "<>", "<", "<=")),
    st.sampled_from(COLUMNS + ("0", "1", "2")),
)


def _render(node) -> str:
    if isinstance(node, str):
        return node
    op, children = node
    return "(" + f" {op} ".join(_render(c) for c in children) + ")"


trees = st.recursive(
    atoms,
    lambda children: st.tuples(
        st.sampled_from(("and", "or")), st.lists(children, min_size=2, max_size=3)
    ),
    max_leaves=8,
).map(_render)


@st.composite
def disjunctions(draw) -> str:
    """An OR of conjunctions that may all hold a drawn set of conjuncts (a
    branch may then hold nothing else: the OR is implied by what is
    shared)."""
    conjunct = st.one_of(atoms, trees)
    shared = draw(st.lists(conjunct, max_size=2))
    branches = []
    for _ in range(draw(st.integers(2, 3))):
        own = draw(st.lists(conjunct, min_size=0 if shared else 1, max_size=3))
        at = draw(st.integers(0, len(own)))
        branches.append("(" + " and ".join(own[:at] + shared + own[at:]) + ")")
    return "(" + " or ".join(branches) + ")"


def _bind(catalog, sql):
    binder = Binder(catalog)
    stmt = parse(sql)
    return binder, stmt, binder.bind(stmt)


def _classified(graph) -> list:
    """Every conjunct the binder classified: pushed filters, join edges
    and residuals."""
    out = [r.condition for r in graph.residuals]
    out += [CompareExpr("=", e.left_expr, e.right_expr) for e in graph.edges]
    out += [
        c for rel in graph.relations if isinstance(rel, LogicalFilter)
        for c in conjuncts(rel.condition)
    ]
    return out


@given(
    st.one_of(trees, disjunctions()),
    st.lists(
        st.tuples(*[st.integers(0, 3)] * len(ENV_COLUMNS)),
        min_size=1, max_size=30,
    ),
)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_the_rewrite_is_exact_and_what_it_implies_holds(predicate, rows):
    catalog = small_catalog()
    with lowering():
        binder, stmt, bound = _bind(
            catalog,
            f"select count(*) n from items i, kinds k, items j "
            f"where {JOINED} and {predicate}",
        )
        original = binder.bind_scalar(stmt.where)
        ius = [
            binder.resolve_column(ast.Identifier(*name.split("."))).iu
            for name in ENV_COLUMNS
        ]
    rewritten = _classified(bound.graph)
    # the ORs the rewrite made: implied filters and what is left of an OR
    made = [
        c for c in rewritten
        if isinstance(c, LogicalExpr) and c.op == "or"
        and c not in conjuncts(original)
    ]
    for row in rows:
        env = {iu.id: value for iu, value in zip(ius, row)}
        holds = walk_expr(original, env)
        assert holds == all(walk_expr(c, env) for c in rewritten)
        assert not holds or all(walk_expr(c, env) for c in made)


@pytest.fixture(scope="module")
def graphs(tpch_db):
    """The query graph of q7, q19 and q22, by relation alias."""
    out = {}
    with lowering():
        for name in ("q7", "q19", "q22"):
            _, _, bound = _bind(tpch_db.catalog, ALL_QUERIES[name].sql)
            graph = bound.graph
            out[name] = dict(zip(graph.aliases, graph.relations))
    return out


def _ors(relation) -> list:
    assert isinstance(relation, LogicalFilter)
    return [
        c for c in conjuncts(relation.condition)
        if isinstance(c, LogicalExpr) and c.op == "or"
    ]


def test_q7_pushes_an_implied_filter_to_each_nation(graphs):
    for alias in ("n1", "n2"):
        (implied,) = _ors(graphs["q7"][alias])
        assert {iu.name for iu in implied.ius()} == {f"{alias}.n_name"}
        assert len(conjuncts(implied, "or")) == 2


def test_q19_pushes_the_part_restriction_and_not_the_quantities(graphs):
    (implied,) = _ors(graphs["q19"]["part"])
    assert len(conjuncts(implied, "or")) == 3
    lineitem = graphs["q19"]["lineitem"]
    # what the branches share reaches the scan; the OR of the quantity
    # ranges is estimated weaker than an unknown predicate, so it does not
    assert {iu.name for iu in lineitem.condition.ius()} == {
        "lineitem.l_shipmode", "lineitem.l_shipinstruct",
    }


def test_q22_keeps_its_or_as_written(graphs):
    # one relation, nothing shared: the parser's nested chain is untouched
    (chain,) = _ors(graphs["q22"]["customer"])
    assert len(chain.operands) == 2 and len(conjuncts(chain, "or")) == 7


# TPC-H Q19 as the specification writes it: the join inside every branch
# (the suite's text writes it once; see its adaptation note)
OFFICIAL_Q19 = """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, part
where (p_partkey = l_partkey
        and p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity >= 1 and l_quantity <= 1 + 10
        and p_size between 1 and 5
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON')
    or (p_partkey = l_partkey
        and p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity >= 10 and l_quantity <= 10 + 10
        and p_size between 1 and 10
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON')
    or (p_partkey = l_partkey
        and p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity >= 20 and l_quantity <= 20 + 10
        and p_size between 1 and 15
        and l_shipmode in ('AIR', 'REG AIR')
        and l_shipinstruct = 'DELIVER IN PERSON')
"""


@pytest.mark.parametrize("seed, revenue", [(42, 14410.2), (7, 123804.56)])
def test_the_official_q19_text_runs_as_the_suite_q19(seed, revenue):
    db = Database.tpch(scale=0.01, seed=seed)
    official = db.execute(OFFICIAL_Q19)
    suite = db.execute(ALL_QUERIES["q19"].sql)
    assert official.rows == suite.rows == [(pytest.approx(revenue),)]
    assert official.cycles == suite.cycles
    assert official.instructions == suite.instructions


def test_explain_shows_a_join_residual(tpch_db):
    text = tpch_db.explain(ALL_QUERIES["q19"].sql)
    (join,) = [line for line in text.splitlines() if "residual [" in line]
    assert "lineitem.l_quantity" in join and "part.p_brand" in join
