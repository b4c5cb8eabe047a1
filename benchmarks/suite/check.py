"""Correctness of results: canonical rows, bag comparison, order checks.

References never come from the compiled engine: query results compare
against ``Database.execute_interpreted`` on the unsharded database (or
against the reviewed hashes in ``expected/``), view contents against the
hand-written evaluation in :func:`evaluate_standing_queries`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FLOAT_TOLERANCE = 1e-6
#: digits kept when a float is canonicalised for hashing; coarser than
#: FLOAT_TOLERANCE would be pointless, finer would hash rounding noise
CANONICAL_DIGITS = 6


def _canonical_value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value == 0 or not math.isfinite(value):
            return repr(value + 0.0)
        return f"{value:.{CANONICAL_DIGITS - 1}e}"
    if isinstance(value, (int, str)):
        return value
    return str(value)  # dates


def canonical_rows(rows) -> list[list]:
    """Rows as JSON-able lists in a stable (bag) order."""
    canonical = [[_canonical_value(v) for v in row] for row in rows]
    canonical.sort(key=lambda row: json.dumps(row))
    return canonical


def digest(rows) -> dict:
    """What ``expected/`` stores per op: row count + hash of the bag."""
    blob = json.dumps(canonical_rows(rows), separators=(",", ":"))
    return {
        "rows": len(rows),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _values_match(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(
                a, b, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE
            )
        except TypeError:
            return False
    return a == b


def _sort_key(row) -> str:
    return json.dumps([_canonical_value(v) for v in row])


def rows_match(actual, reference) -> bool:
    """Bag equality with a relative float tolerance."""
    if len(actual) != len(reference):
        return False
    for a, b in zip(sorted(actual, key=_sort_key),
                    sorted(reference, key=_sort_key)):
        if len(a) != len(b):
            return False
        if not all(_values_match(x, y) for x, y in zip(a, b)):
            return False
    return True


def is_ordered(rows, order) -> bool:
    """Whether ``rows`` respect ``order``: [(column index, ascending)]."""
    if not order:
        return True

    def key(row):
        return tuple(row[index] for index, _ in order)

    def in_order(a, b) -> bool:
        for (index, ascending), x, y in zip(order, key(a), key(b)):
            if _values_match(x, y):
                continue
            return (x < y) == ascending
        return True

    return all(in_order(a, b) for a, b in zip(rows, rows[1:]))


def load_expected(workload: str, seed: int) -> dict | None:
    path = EXPECTED_DIR / f"{workload}.seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_expected(workload: str, seed: int, digests: dict) -> Path:
    """Check in the reference digests of one run.  Refuses to overwrite:
    with a file present the run was checked against it, so its digests
    are not independent; delete the file to regenerate it."""
    path = EXPECTED_DIR / f"{workload}.seed{seed}.json"
    if path.exists():
        raise FileExistsError(f"{path} exists; delete it to regenerate")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return path


def verdict(actual, order, reference_rows=None, expected=None) -> str | None:
    """None when ``actual`` is right, else a one-line reason.

    ``expected`` (a :func:`digest`) wins over ``reference_rows`` when both
    are given: the checked-in file is the reviewed answer."""
    if not is_ordered(actual, order):
        return "rows violate the ORDER BY"
    if expected is not None:
        if digest(actual) != expected:
            return (
                f"rows differ from expected/ ({len(actual)} rows vs "
                f"{expected['rows']})"
            )
        return None
    if not rows_match(actual, reference_rows):
        return (
            f"rows differ from the interpreter ({len(actual)} vs "
            f"{len(reference_rows)} rows)"
        )
    return None


# -- the views oracle ------------------------------------------------------


def evaluate_standing_queries(sales, products) -> dict[str, list[tuple]]:
    """The four standing queries of ``workloads.STANDING_QUERIES``,
    evaluated by hand over decoded rows.

    ``sales`` rows are ``(id, price, vat_factor, prod_costs)``, ``products``
    rows ``(id, category)``.  Written against the SQL text, not against
    any engine code, so it is an independent reference.  Money sums in
    whole cents, as DECIMAL columns do."""

    def cents(amount: float) -> int:
        return round(amount * 100)

    by_bucket: dict[int, list] = {}
    for sale_id, price, _, _ in sales:
        entry = by_bucket.setdefault(sale_id % 11, [0, 0])
        entry[0] += cents(price)
        entry[1] += 1

    margin: dict[int, list] = {}
    for sale_id, price, _, costs in sales:
        if price > 50:
            entry = margin.setdefault(sale_id % 7, [0, 0, 0])
            entry[0] += cents(price)
            entry[1] += cents(costs)
            entry[2] += 1

    categories: dict[int, list[str]] = {}
    for product_id, category in products:
        categories.setdefault(product_id, []).append(category)
    by_category: dict[str, list] = {}
    for sale_id, price, _, _ in sales:
        for category in categories.get(sale_id % 200, ()):
            entry = by_category.setdefault(category, [0, 0])
            entry[0] += 1
            entry[1] += cents(price)

    top = sorted(sales, key=lambda row: (-row[1], row[0]))[:10]
    return {
        "by_bucket": [(b, t / 100, n) for b, (t, n) in by_bucket.items()],
        "margin_watch": [
            (b, revenue / 100, costs / 100)
            for b, (revenue, costs, n) in margin.items() if n > 10
        ],
        "by_category": [(c, n, t / 100) for c, (n, t) in by_category.items()],
        "top_tickets": [(row[0], row[1]) for row in top],
    }
