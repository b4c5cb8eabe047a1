"""``--compare A.json B.json``: one row per workload x end-to-end metric.

Verdicts follow the rule every later PR is judged by: B is ``better`` or
``worse`` when its median differs from A's by more than the metric's
bound in that direction; ``same`` when it does not; ``unresolved`` when
either side's own spread (quartile range over median) is wider than the
bound, unless every sample of one side reads better than every sample of
the other.  Simulated metrics and counts have bound 0: any difference is
a verdict.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.suite.metrics import END_TO_END, FAILED_SHARE


def quartile_range(samples) -> float:
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    return high - low


def spread(samples) -> float:
    """Quartile range as a share of the median."""
    median = statistics.median(samples)
    return quartile_range(samples) / median if median else 0.0


def verdict(metric, a_samples, b_samples) -> str:
    a, b = statistics.median(a_samples), statistics.median(b_samples)
    lower_is_better = metric.better == "lower"
    if a == b:
        return "same"
    b_wins = (b < a) == lower_is_better
    if metric.bound == 0:
        return "better" if b_wins else "worse"
    if abs(b - a) <= metric.bound * abs(a):
        return "same"
    if max(spread(a_samples), spread(b_samples)) > metric.bound:
        separated = (
            max(b_samples) < min(a_samples) or min(b_samples) > max(a_samples)
        )
        if not separated:
            return "unresolved"
    return "better" if b_wins else "worse"


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload, a_result in a["workloads"].items():
        b_result = b["workloads"].get(workload)
        if b_result is None:
            continue
        for metric in END_TO_END + [FAILED_SHARE]:
            a_entry = a_result["end_to_end"][metric.name]
            b_entry = b_result["end_to_end"][metric.name]
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "a": a_entry["value"],
                "b": b_entry["value"],
                "a_quartile_range": quartile_range(a_entry["samples"]),
                "b_quartile_range": quartile_range(b_entry["samples"]),
                "verdict": verdict(
                    metric, a_entry["samples"], b_entry["samples"]
                ),
            })
    return rows


def render(rows) -> str:
    lines = [
        f"{'workload':<16}{'metric':<24}{'A median':>14} {'(IQR)':>10}"
        f"{'B median':>14} {'(IQR)':>10}  {'B/A':>7}  verdict"
    ]
    for row in rows:
        ratio = f"{row['b'] / row['a']:.3f}" if row["a"] else "-"
        lines.append(
            f"{row['workload']:<16}{row['metric']:<24}"
            f"{row['a']:>14.6g} {row['a_quartile_range']:>10.3g}"
            f"{row['b']:>14.6g} {row['b_quartile_range']:>10.3g}"
            f"  {ratio:>7}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    """Print the table; exit 1 when any row reads ``worse``."""
    with open(path_a) as fa, open(path_b) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
