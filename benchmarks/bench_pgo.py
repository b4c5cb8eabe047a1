"""Profile-guided optimization: closing the loop the paper leaves open.

The Fig. 10/11 workflow has the optimizer developer *manually* compare two
hinted join orders and read the profiles.  With the ``repro.pgo`` subsystem
the same observations — per-operator tuple counts harvested from the task
counters, branch condition-truth rates, instruction hotness — flow back
into the planner and backend automatically:

- ``test_fig11_feedback_recovers_cheap_plan``: profile ONLY the bad hinted
  plan; ``execute(pgo=True)`` without any hint then lands on the cheap
  join order, because cardinality feedback keys are plan-independent.
- ``test_pgo_improves_hint_sensitive_query``: Q8's ``p_type`` predicate is
  estimated at 1/3 selectivity but observed near zero; feedback restructures
  the join tree for a >5% simulated-cycle win, with identical results.
- ``test_pgo_profile_still_attributes``: profiles taken from PGO-compiled
  plans keep full operator attribution (the tagging dictionary tracks the
  re-laid-out code), so the paper's methodology survives the feedback loop.

These use fresh Database instances rather than the shared session fixture:
PGO mutates engine state (plan cache, profile store) and must not perturb
the other benchmarks.
"""

from benchmarks._harness import BENCH_SCALE, BENCH_SEED, report

from repro import Database, ExecOptions
from repro.data.queries import ALL_QUERIES

# the Fig. 10/11 pair: two join orders the cardinality model cannot tell
# apart (see bench_fig11_plan_comparison.py for the phase-change analysis)
PAIR_SQL = """
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders, partsupp
where l_orderkey = o_orderkey and l_partkey = ps_partkey
  and l_suppkey = ps_suppkey
  and o_orderdate < date '1994-06-01'
"""

ORDERS_FIRST = ["lineitem", "orders", "partsupp"]
PARTSUPP_FIRST = ["lineitem", "partsupp", "orders"]
PGO = ExecOptions(pgo=True)


def _fresh_db():
    return Database.tpch(scale=BENCH_SCALE, seed=BENCH_SEED)


def test_fig11_feedback_recovers_cheap_plan(benchmark):
    db = _fresh_db()
    good = db.execute(PAIR_SQL, ExecOptions(join_order_hint=ORDERS_FIRST))
    bad = db.execute(PAIR_SQL, ExecOptions(join_order_hint=PARTSUPP_FIRST))
    assert good.rows == bad.rows
    cheap = min(good.cycles, bad.cycles)

    # feed back observations from ONLY the worse hinted plan — the
    # developer explored one wrong alternative and profiled it
    db.enable_pgo()
    db.profile(PAIR_SQL, options=ExecOptions(
        join_order_hint=PARTSUPP_FIRST, pgo=True
    ))

    informed = benchmark.pedantic(
        lambda: db.execute(PAIR_SQL, PGO), rounds=1, iterations=1,
    )
    assert informed.rows == good.rows

    lines = [
        "Fig 10/11 pair, closed-loop instead of manual hints:",
        "",
        f"hinted orders-first:   {good.cycles:>12,} cycles",
        f"hinted partsupp-first: {bad.cycles:>12,} cycles",
        f"pgo (no hint, trained on partsupp-first only): "
        f"{informed.cycles:>12,} cycles",
        "",
        "cardinality feedback is keyed by operator structure, not plan",
        "position, so observations from the bad plan still identify the",
        "cheap join order.",
    ]
    report("PGO recovers Fig 11 plan", "\n".join(lines))

    # the feedback-informed plan must match the cheaper hinted plan
    assert informed.cycles == cheap


def test_pgo_improves_hint_sensitive_query(benchmark):
    db = _fresh_db()
    sql = ALL_QUERIES["q8"].sql
    baseline = db.execute(sql)

    db.enable_pgo()
    db.profile(sql, options=PGO)
    tuned = benchmark.pedantic(
        lambda: db.execute(sql, PGO), rounds=1, iterations=1,
    )
    assert tuned.rows == baseline.rows
    win = (baseline.cycles - tuned.cycles) / baseline.cycles

    # second run replays the cached compiled plan
    again = db.execute(sql, PGO)
    assert again.cycles == tuned.cycles
    assert db.plan_cache_hits >= 1

    lines = [
        "Q8 with and without profile feedback:",
        "",
        f"default plan:      {baseline.cycles:>12,} cycles",
        f"feedback-informed: {tuned.cycles:>12,} cycles",
        f"improvement:       {win * 100:>11.1f}%",
        "",
        "the p_type predicate is estimated at 1/3 selectivity but observed",
        "near zero; feedback moves the part join to the bottom of the tree.",
        f"plan cache: {db.plan_cache_hits} hit(s), "
        f"{db.plan_cache_misses} miss(es)",
    ]
    report("PGO on-off delta (Q8)", "\n".join(lines))

    # acceptance: at least a 5% simulated-cycle improvement
    assert win >= 0.05


def test_pgo_profile_still_attributes():
    db = _fresh_db()
    sql = ALL_QUERIES["q5"].sql
    db.enable_pgo()
    first = db.profile(sql, options=PGO)
    second = db.profile(sql, options=PGO)  # compiled with feedback applied
    for profile in (first, second):
        summary = profile.attribution_summary()
        assert summary.total_samples > 0
        assert summary.operator_share > 0.5
    assert first.result.rows == second.result.rows
    feedback = db.pgo_store.feedback(sql)
    assert feedback is not None and feedback.runs == 2
