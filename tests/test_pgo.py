"""Tests for the profile-guided optimization subsystem (repro.pgo)."""

import json

import pytest

from repro import Database
from repro.backend.feedback import BackendFeedback
from repro.backend.isel import select_function
from repro.backend.regalloc import _vreg_weights, allocate_function
from repro.data.queries import ALL_QUERIES
from repro.errors import ReproError
from repro.ir import IRBuilder, Module, Type
from repro.pgo import (
    FeedbackCardinalityModel,
    ProfileStore,
    QueryFeedback,
    cardinality_key,
    extract_feedback,
    fingerprint,
    plan_signature,
)
from repro.pgo.feedback import BranchStats, CardinalityObservation, ir_position_keys
from repro.plan.interpret import Interpreter

# the Fig. 10/11 join-order pair: two hinted plans the default model cannot
# tell apart, ideal for exercising the feedback loop
PAIR_SQL = """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders, partsupp
where l_orderkey = o_orderkey and l_partkey = ps_partkey
  and l_suppkey = ps_suppkey
  and o_orderdate < date '1994-06-01'
"""
ORDERS_FIRST = ["lineitem", "orders", "partsupp"]
PARTSUPP_FIRST = ["lineitem", "partsupp", "orders"]


@pytest.fixture(scope="module")
def db():
    """A private TPC-H database: PGO mutates engine state (store, cache)."""
    return Database.tpch(scale=0.001, seed=42)


# -- stable keys ---------------------------------------------------------


def test_fingerprint_normalizes_whitespace_and_case():
    assert fingerprint("select  1") == fingerprint("  SELECT 1 ")
    assert fingerprint("select 1") != fingerprint("select 2")
    assert len(fingerprint("select 1")) == 16


def test_cardinality_keys_stable_across_recompiles(db):
    sql = ALL_QUERIES["q5"].sql

    def keys(physical):
        return sorted(
            key
            for key in (cardinality_key(op) for op in physical.walk())
            if key is not None
        )

    _, first = db._plan(sql)
    _, second = db._plan(sql)
    # fresh op/IU ids everywhere, identical structural keys
    assert keys(first) == keys(second)


def test_cardinality_key_invariant_under_join_order(db):
    _, a = db._plan(PAIR_SQL, join_order_hint=ORDERS_FIRST)
    _, b = db._plan(PAIR_SQL, join_order_hint=PARTSUPP_FIRST)

    def key_set(physical):
        return {
            cardinality_key(op)
            for op in physical.walk()
            if op.kind == "scan"
        }

    # scans keep their keys no matter how the joins above them are ordered
    assert key_set(a) == key_set(b)


def test_plan_signature_distinguishes_plans(db):
    _, a = db._plan(PAIR_SQL, join_order_hint=ORDERS_FIRST)
    _, b = db._plan(PAIR_SQL, join_order_hint=PARTSUPP_FIRST)
    _, a2 = db._plan(PAIR_SQL, join_order_hint=ORDERS_FIRST)
    assert plan_signature(a) != plan_signature(b)
    assert plan_signature(a) == plan_signature(a2)


# -- feedback extraction -------------------------------------------------


def test_extracted_cardinalities_match_interpreter(db):
    sql = ALL_QUERIES["q5"].sql
    store = db.enable_pgo()
    profile = db.profile(sql, pgo=True)
    feedback = store.feedback(sql)
    assert feedback is not None and feedback.cardinalities

    bound, physical = db._plan(sql)
    interpreter = Interpreter()
    interpreter.run(physical)
    truth = {}
    for op in physical.walk():
        key = cardinality_key(op)
        count = interpreter.tuple_counts.get(op.op_id)
        if key is not None and count is not None:
            truth[key] = max(count, truth.get(key, 0))

    for key, observation in feedback.cardinalities.items():
        assert key in truth
        assert observation.rows == truth[key]
    # the planner's estimate rides along for reporting
    assert any(o.estimate > 0 for o in feedback.cardinalities.values())


def test_feedback_merge_across_runs():
    first = QueryFeedback(
        sql="q", plan_signature="p", runs=1,
        cardinalities={"scan|t": CardinalityObservation(rows=10.0)},
        branches={"f|b|0": BranchStats(cond_true=5, total=10)},
        hotness={"f|b|1": 3.0},
    )
    second = QueryFeedback(
        sql="q", plan_signature="p", runs=1,
        cardinalities={"scan|t": CardinalityObservation(rows=20.0)},
        branches={"f|b|0": BranchStats(cond_true=10, total=10)},
        hotness={"f|b|1": 5.0},
    )
    merged = first.merge(second)
    assert merged.runs == 2
    assert merged.cardinalities["scan|t"].rows == 15.0  # run-weighted mean
    assert merged.branches["f|b|0"].total == 20
    assert merged.hotness["f|b|1"] == 8.0

    # a different plan invalidates plan-shaped feedback but keeps counts
    other_plan = QueryFeedback(
        sql="q", plan_signature="OTHER", runs=1,
        cardinalities={"scan|t": CardinalityObservation(rows=30.0)},
        branches={"f|b|9": BranchStats(cond_true=1, total=4)},
    )
    moved = merged.merge(other_plan)
    assert moved.plan_signature == "OTHER"
    assert set(moved.branches) == {"f|b|9"}
    assert moved.cardinalities["scan|t"].runs == 3


def test_feedback_json_roundtrip():
    feedback = QueryFeedback(
        sql="select 1", plan_signature="abc", runs=3,
        cardinalities={"scan|t": CardinalityObservation(rows=7.0, estimate=9.0)},
        branches={"f|b|2": BranchStats(cond_true=3, total=20, misses=2)},
        hotness={"f|b|0": 11.0},
    )
    restored = QueryFeedback.from_json(
        json.loads(json.dumps(feedback.to_json()))
    )
    assert restored == feedback


def test_branch_probabilities_require_evidence():
    feedback = QueryFeedback(branches={
        "few": BranchStats(cond_true=1, total=5),
        "many": BranchStats(cond_true=20, total=100),
    })
    probabilities = feedback.branch_probabilities()
    assert "few" not in probabilities
    assert probabilities["many"] == pytest.approx(0.2)


# -- the cardinality consumer (planner) ----------------------------------


def test_feedback_model_overrides_estimates(db):
    bound, _ = db._plan(ALL_QUERIES["q5"].sql)
    filters = [
        node for node in bound.plan.walk() if node.kind == "filter"
    ]
    target = next(f for f in filters if cardinality_key(f) == "filter|orders")
    model = FeedbackCardinalityModel({"filter|orders": 252.0})
    assert model.estimate(target) == 252.0
    assert model.hits >= 1
    # un-observed nodes fall back to the default model
    default = FeedbackCardinalityModel({})
    scan = next(n for n in bound.plan.walk() if n.kind == "scan")
    assert model.estimate(scan) == default.estimate(scan)


def test_cardinality_feedback_flips_join_order(db):
    sql = ALL_QUERIES["q8"].sql
    store = db.enable_pgo()
    db.profile(sql, pgo=True)
    feedback = store.feedback(sql)
    _, default_plan = db._plan(sql)
    _, informed_plan = db._plan(
        sql, model=FeedbackCardinalityModel(feedback.cardinality_overrides())
    )
    # q8's constant-false part filter is mis-estimated at 33% selectivity;
    # the observed count moves the part join to the bottom of the tree
    assert plan_signature(default_plan) != plan_signature(informed_plan)
    r_off = db.execute(sql)
    r_on = db.execute(sql, pgo=True)
    assert r_off.rows == r_on.rows


def test_pgo_picks_cheaper_plan_from_bad_hints_observations(db):
    store = db.enable_pgo()  # fresh store
    # profile ONLY the losing hinted plan of the Fig. 10/11 pair
    db.profile(PAIR_SQL, join_order_hint=PARTSUPP_FIRST, pgo=True)
    bad = db.execute(PAIR_SQL, join_order_hint=PARTSUPP_FIRST)
    good = db.execute(PAIR_SQL, join_order_hint=ORDERS_FIRST)
    informed = db.execute(PAIR_SQL, pgo=True)
    assert informed.rows == good.rows == bad.rows
    # observed cardinalities are plan-independent, so even the bad plan's
    # profile steers the planner to the cheaper join order
    assert informed.cycles == min(good.cycles, bad.cycles)


# -- the backend consumers (layout, spilling) ----------------------------


def _branchy_function():
    module = Module("m")
    fn = module.new_function("f", [("n", Type.I64)], Type.I64)
    b = IRBuilder(fn)
    entry, loop, body, odd, join, done = (
        b.block(x) for x in ("entry", "loop", "body", "odd", "join", "done")
    )
    (n,) = fn.params
    b.set_block(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(Type.I64)
    acc = b.phi(Type.I64)
    b.add_incoming(i, b.const(0), entry)
    b.add_incoming(acc, b.const(0), entry)
    b.condbr(b.cmp("cmplt", i, n), body, done)
    b.set_block(body)
    is_odd = b.cmp("cmpeq", b.and_(i, b.const(1)), b.const(1))
    b.condbr(is_odd, odd, join)
    b.set_block(odd)
    bumped = b.add(acc, i)
    b.br(join)
    b.set_block(join)
    merged = b.phi(Type.I64)
    b.add_incoming(merged, acc, body)
    b.add_incoming(merged, bumped, odd)
    new_i = b.add(i, b.const(1))
    b.add_incoming(i, new_i, join)
    b.add_incoming(acc, merged, join)
    b.br(loop)
    b.set_block(done)
    b.ret(acc)
    return module, fn


def test_branch_inversion_swaps_layout():
    _, fn = _branchy_function()
    condbrs = [
        i for i in fn.all_instructions() if i.op == "condbr"
    ]
    default = select_function(fn)
    inverted = select_function(
        fn, invert_branches={condbrs[0].id, condbrs[1].id}
    )

    def branch_ops(items):
        from repro.vm.isa import Opcode

        return [
            item.op
            for item in items
            if getattr(item, "op", None) in (Opcode.BRZ, Opcode.BRNZ)
        ]

    from repro.vm.isa import Opcode

    assert branch_ops(default.items) and all(
        op == Opcode.BRNZ for op in branch_ops(default.items)
    )
    assert Opcode.BRZ in branch_ops(inverted.items)


def test_branch_feedback_preserves_results(db):
    sql = ALL_QUERIES["q1"].sql
    baseline = db._compile(sql, None)
    # force-invert every conditional branch in the compiled query module
    branches = {
        key: BranchStats(cond_true=0, total=100)
        for instr_id, key in ir_position_keys(baseline.query_ir.module).items()
    }
    feedback = QueryFeedback(
        sql=sql, plan_signature=baseline.plan_signature, branches=branches
    )
    informed = db._compile(sql, None, feedback=feedback)
    assert informed.feedback_applied
    rows_base = db._run_compiled(baseline).rows
    rows_informed = db._run_compiled(informed).rows
    # layout changed, semantics did not
    assert rows_informed == rows_base


def test_hotness_weights_and_spill_equivalence(db):
    _, fn = _branchy_function()
    selected = select_function(fn)
    ids = [
        ir_id
        for ir_id in (
            getattr(item, "ir_id", None) for item in selected.items
        )
        if ir_id is not None
    ]
    hotness = {ir_id: 10.0 for ir_id in ids}
    weights = _vreg_weights(selected.items, hotness)
    assert weights and all(w > 0 for w in weights.values())
    # allocation with hotness must still produce working code end-to-end
    sql = ALL_QUERIES["q1"].sql
    baseline = db._compile(sql, None)
    hot = {
        key: 5.0
        for key in ir_position_keys(baseline.query_ir.module).values()
    }
    feedback = QueryFeedback(
        sql=sql, plan_signature=baseline.plan_signature, hotness=hot
    )
    informed = db._compile(sql, None, feedback=feedback)
    assert informed.feedback_applied
    rows_base = db._run_compiled(baseline).rows
    rows_informed = db._run_compiled(informed).rows
    assert rows_informed == rows_base


def test_stale_backend_feedback_is_ignored(db):
    sql = ALL_QUERIES["q1"].sql
    feedback = QueryFeedback(
        sql=sql, plan_signature="not-the-plan",
        branches={"f|b|0": BranchStats(cond_true=0, total=100)},
        hotness={"f|b|0": 9.0},
    )
    compiled = db._compile(sql, None, feedback=feedback)
    assert not compiled.feedback_applied


# -- the store -----------------------------------------------------------


def test_store_roundtrip_on_disk(db, tmp_path):
    store_dir = tmp_path / "pgo"
    store = db.enable_pgo(str(store_dir))
    sql = ALL_QUERIES["q5"].sql
    db.profile(sql, pgo=True)
    assert len(store) == 1
    key = fingerprint(sql)
    assert (store_dir / key / "feedback.json").exists()
    assert (store_dir / key / "runs" / "run_1" / "samples.jsonl").exists()

    reloaded = ProfileStore(directory=str(store_dir))
    assert reloaded.fingerprints() == [key]
    assert reloaded.feedback(sql) == store.feedback(sql)
    assert reloaded.version(sql) == 1

    db.profile(sql, pgo=True)
    assert store.version(sql) == 2
    assert (store_dir / key / "runs" / "run_2").exists()


def test_store_lookup_by_sql_or_fingerprint(db):
    store = db.enable_pgo()
    sql = ALL_QUERIES["q5"].sql
    db.profile(sql, pgo=True)
    assert store.feedback(sql) is store.feedback(fingerprint(sql))
    assert store.feedback("select nothing_recorded from lineitem") is None


# -- the plan cache ------------------------------------------------------


def test_plan_cache_hits_and_feedback_invalidation(db):
    db.enable_pgo()  # fresh store also clears the cache
    sql = "select count(*) c from lineitem where l_quantity > 25"
    hits, misses = db.plan_cache_hits, db.plan_cache_misses
    first = db.execute(sql, pgo=True)
    assert db.plan_cache_misses == misses + 1
    second = db.execute(sql, pgo=True)
    assert db.plan_cache_hits == hits + 1
    assert first.rows == second.rows
    # recording fresh feedback bumps the store version -> recompile
    db.profile(sql, pgo=True)
    third = db.execute(sql, pgo=True)
    assert db.plan_cache_misses == misses + 2
    assert third.rows == first.rows
    fourth = db.execute(sql, pgo=True)
    assert db.plan_cache_hits == hits + 2
    assert fourth.cycles == third.cycles  # cached plan replays identically


def test_cache_key_separates_hints_and_options(db):
    db.enable_pgo()
    misses = db.plan_cache_misses
    db.execute(PAIR_SQL, pgo=True)
    db.execute(PAIR_SQL, join_order_hint=PARTSUPP_FIRST, pgo=True)
    db.execute(PAIR_SQL, optimize_backend=False, pgo=True)
    assert db.plan_cache_misses == misses + 3


def test_pgo_requires_enable():
    bare = Database()
    with pytest.raises(ReproError, match="enable_pgo"):
        bare.execute("select 1", pgo=True)
    with pytest.raises(ReproError, match="enable_pgo"):
        bare.profile("select 1", pgo=True)


def test_pgo_execute_applies_the_instruction_budget():
    """Regression: the pgo branch of ``execute`` ran its own tail, which
    forwarded no ``instruction_limit`` — the budget was silently ignored."""
    from repro.errors import VMError

    small = Database.example(n_sales=400, n_products=20)
    small.enable_pgo()
    sql = "select count(*) from sales where price > 100.0"
    with pytest.raises(VMError, match="instruction budget"):
        small.execute(sql, instruction_limit=100)
    with pytest.raises(VMError, match="instruction budget"):
        small.execute(sql, pgo=True, instruction_limit=100)
    assert small.execute(sql, pgo=True).rows == small.execute(sql).rows


def test_pgo_execute_consults_the_tiering_controller():
    """Regression: same tail, same omission — pgo runs never fed the
    hotness profile, so a hot pgo plan stayed at tier 1 forever."""
    small = Database.example(n_sales=400, n_products=20)
    small.enable_pgo()
    small.enable_tiering(hot_instructions=1)
    sql = "select count(*) from sales where price > 100.0"
    plain = [small.execute(sql).tier for _ in range(2)]
    pgo = [small.execute(sql, pgo=True).tier for _ in range(2)]
    assert plain == pgo == [1, 2]


# -- tuple counters ------------------------------------------------------


def test_tuple_counters_only_when_requested(db):
    sql = ALL_QUERIES["q5"].sql
    plain = db.profile(sql)
    assert plain.task_counts == {}
    db.enable_pgo()
    counted = db.profile(sql, pgo=True)
    assert counted.task_counts
    # counters do not change the result
    assert plain.result.rows == counted.result.rows
