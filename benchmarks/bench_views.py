"""Materialized-view economics: incremental maintenance vs re-execution.

The serving-tier claim is that one maintained circuit amortizes a
standing query over arbitrarily many subscribers: after each delta batch
the view tier pays only for the delta flowing through the circuit, while
the batch alternative re-executes every standing query from scratch.
Both sides are measured in *simulated instructions* — the incremental
side from the maintenance cost meter (the same charges that land on the
VM workers and in the profiler), the re-execution side from the compiled
engine's instruction counter — so the ratio is deterministic and
machine-independent.  The per-view trajectory lands in
``BENCH_views.json`` run over run; the gate enforces the committed ≥3x
advantage (locally ~an order of magnitude or more).

Beside the simulated clock each view's row carries the host one:
``host_apply_ms_per_batch``, the wall time of ``ViewService.apply`` with
that view alone registered (encode and validate included), best of
``HOST_REPEATS`` passes over the schedule.  It is a trajectory, not a
gate: the host drifts by tens of percent between processes.
"""

from pathlib import Path
from random import Random
from time import perf_counter

from benchmarks._harness import geomean
from benchmarks.conftest import report

from repro import Database
from repro.serve import QueryService, ServiceConfig
from repro.views import ViewService
from repro.vmbench import append_trajectory

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_views.json"

# committed floor: maintaining the standing-query suite across the
# delta schedule must cost at least 3x fewer simulated instructions
# than re-executing the suite after every batch (measured headroom is
# far larger; the floor absorbs cost-model retuning)
MAINTENANCE_ADVANTAGE_FLOOR = 3.0

N_SALES = 4000
N_PRODUCTS = 200
BATCHES = 8
INSERTS_PER_BATCH = 24
RETRACTS_PER_BATCH = 12
SEED = 0
HOST_REPEATS = 3

#: the standing-query suite: grouped aggregation, selective aggregation
#: with HAVING, a join, and an ORDER BY/LIMIT top-K
STANDING_QUERIES = {
    "by_bucket": (
        "select id % 11 as bucket, sum(price) as total, count(*) as n "
        "from sales group by id % 11"
    ),
    "margin_watch": (
        "select id % 7 as b, sum(price) as revenue, sum(prod_costs) as costs "
        "from sales where price > 50 group by id % 7 "
        "having count(*) > 10"
    ),
    "by_category": (
        "select p.category as category, count(*) as n, sum(s.price) as total "
        "from sales s, products p where s.id % 200 = p.id "
        "group by p.category"
    ),
    "top_tickets": (
        "select id as sale, price as price from sales "
        "order by price desc, sale asc limit 10"
    ),
}


def _decoded_sales_rows(db):
    table = db.catalog.table("sales")
    rows = []
    for raw in zip(*table.columns):
        rows.append((raw[0], raw[1] / 100, raw[2] / 100, raw[3] / 100))
    return rows


def _delta_schedule(db, rng):
    """A deterministic schedule of BATCHES decoded sales delta batches."""
    live = _decoded_sales_rows(db)
    next_id = max(row[0] for row in live) + 1
    schedule = []
    for _ in range(BATCHES):
        changes = []
        for _ in range(INSERTS_PER_BATCH):
            row = (
                next_id,
                round(rng.uniform(1.0, 700.0), 2),
                round(rng.uniform(1.0, 1.4), 2),
                round(rng.uniform(1.0, 300.0), 2),
            )
            next_id += 1
            changes.append((row, 1))
            live.append(row)
        for _ in range(RETRACTS_PER_BATCH):
            victim = live.pop(rng.randrange(len(live)))
            changes.append((victim, -1))
        schedule.append({"sales": changes})
    return schedule


def _host_apply_ms_per_batch(service, sql, schedule):
    """Host milliseconds per batch to maintain ``sql`` alone."""
    best = float("inf")
    for _ in range(HOST_REPEATS):
        views = ViewService(service)  # its own table state: same schedule
        views.register("only", sql)
        started = perf_counter()
        for batch in schedule:
            views.apply(batch)
        best = min(best, perf_counter() - started)
    return round(best / len(schedule) * 1000, 3)


def test_views_incremental_vs_reexecute():
    db = Database.example(n_sales=N_SALES, n_products=N_PRODUCTS)
    service = QueryService(db, ServiceConfig(workers=2))
    views = ViewService(service)

    # re-execution baseline: instructions to run each standing query
    # once on the compiled engine (plan cached — compile cost excluded)
    baseline = {}
    for name, sql in STANDING_QUERIES.items():
        baseline[name] = db.execute(sql).instructions
        views.register(name, sql)
    initial_load = {
        name: views.view(name).instructions for name in STANDING_QUERIES
    }

    schedule = _delta_schedule(db, Random(SEED))
    before = {name: views.view(name).instructions for name in STANDING_QUERIES}
    for batch in schedule:
        views.apply(batch)

    per_view = {}
    for name in STANDING_QUERIES:
        view = views.view(name)
        incremental = view.instructions - before[name]
        reexecute = baseline[name] * BATCHES
        per_view[name] = {
            "initial_load_instructions": initial_load[name],
            "incremental_instructions": incremental,
            "reexecute_instructions": reexecute,
            "advantage": round(reexecute / max(1, incremental), 1),
            "host_apply_ms_per_batch": _host_apply_ms_per_batch(
                service, STANDING_QUERIES[name], schedule
            ),
        }
    advantage = geomean(
        [stats["advantage"] for stats in per_view.values()]
    )

    lines = [
        f"example db: {N_SALES} sales rows, {BATCHES} batches of "
        f"+{INSERTS_PER_BATCH}/-{RETRACTS_PER_BATCH} rows",
        f"{'view':>14} {'incremental':>12} {'re-execute':>12} {'ratio':>8} "
        f"{'host ms/batch':>14}",
    ]
    for name, stats in per_view.items():
        lines.append(
            f"{name:>14} {stats['incremental_instructions']:>12} "
            f"{stats['reexecute_instructions']:>12} "
            f"{stats['advantage']:>7.1f}x "
            f"{stats['host_apply_ms_per_batch']:>14.3f}"
        )
    lines.append(
        f"geomean maintenance advantage {advantage:.1f}x "
        f"(gate >= {MAINTENANCE_ADVANTAGE_FLOOR}x)"
    )
    text = "\n".join(lines)
    report("views: incremental maintenance vs re-execution", text)

    append_trajectory(
        {
            "n_sales": N_SALES,
            "batches": BATCHES,
            "inserts_per_batch": INSERTS_PER_BATCH,
            "retracts_per_batch": RETRACTS_PER_BATCH,
            "views": per_view,
            "geomean_advantage": round(advantage, 1),
        },
        TRAJECTORY_PATH,
    )

    assert advantage >= MAINTENANCE_ADVANTAGE_FLOOR, (
        f"incremental maintenance advantage {advantage:.1f}x below the "
        f"{MAINTENANCE_ADVANTAGE_FLOOR}x floor\n{text}"
    )
    # the acceptance bar for the recorded number is stricter than the gate
    assert advantage >= 5.0, text
