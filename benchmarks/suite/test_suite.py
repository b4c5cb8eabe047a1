"""Checks of the benchmark itself.  Run explicitly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

import json
import re
import subprocess
import sys
import types
from time import perf_counter

import pytest

from benchmarks.suite import check, compare, runner
from benchmarks.suite.metrics import (
    END_TO_END, END_TO_END_BY_NAME, PER_LAYER, Metric,
)
from benchmarks.suite.trace import TraceError, Tracer
from benchmarks.suite.workloads import WORKLOADS

BENCHMARK_JSON = runner.REPO_ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_registry():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/suite"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert WORKLOADS[workload["name"]].why == workload["why"]
        names.append(workload["name"])
    assert sorted(names) == sorted(WORKLOADS)

    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        metric = END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    assert [e["name"] for e in spec["end_to_end"]] == [
        m.name for m in END_TO_END
    ]
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")

    for entry, metric in zip(spec["per_layer"], PER_LAYER, strict=True):
        assert entry == {
            "name": metric.name, "unit": metric.unit, "better": metric.better,
        }
        names.append(entry["name"])

    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def test_every_per_layer_metric_names_what_it_should_move():
    for metric in PER_LAYER:
        assert metric.moves, f"{metric.name} predicts nothing"
        for end_to_end, workloads in metric.moves:
            assert end_to_end in END_TO_END_BY_NAME, metric.name
            assert workloads and set(workloads) <= set(WORKLOADS), metric.name


def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--smoke", "--trace",
         "--out", str(out)],
        cwd=runner.REPO_ROOT, capture_output=True, text=True, timeout=300,
        env={**__import__("os").environ,
             "PYTHONPATH": f"{runner.SOURCE_DIR}:{runner.REPO_ROOT}"},
    )
    elapsed = perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, f"smoke run took {elapsed:.0f} s"
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, result in report["workloads"].items():
        assert result["failed"] == 0 and not result["violations"], name
        assert result["attempted"] >= 1
        for metric in END_TO_END:
            assert result["end_to_end"][metric.name]["value"] > 0, (
                name, metric.name,
            )
        assert set(result["per_layer"]) == {m.name for m in PER_LAYER}
        # the layers the trace names must explain the traced time
        assert result["per_layer"]["trace.self_time_share"] > 0.95, name
    for key in ("git_revision", "python", "platform", "nproc",
                "loadavg_start", "loadavg_end", "seed"):
        assert key in report["env"]


def test_a_missing_trace_target_is_a_hard_error():
    module = types.ModuleType("layer")
    module.present = lambda: 1
    tracer = Tracer()
    tracer.wrap(module, "present", "layer.present")
    with pytest.raises(TraceError, match="renamed_away"):
        tracer.wrap(module, "renamed_away", "layer.gone")
    tracer.uninstall()
    assert module.present() == 1


def test_row_checks():
    reference = [("a", 1.0, 3), ("b", 2.5, 4)]
    assert check.rows_match([("b", 2.5 * (1 + 1e-9), 4), ("a", 1.0, 3)],
                            reference)
    assert not check.rows_match([("a", 1.0, 3), ("b", 2.6, 4)], reference)
    assert not check.rows_match(reference[:1], reference)
    assert check.is_ordered(reference, [(0, True)])
    assert not check.is_ordered(reference, [(1, False)])
    assert check.verdict(reference, [(0, True)], reference) is None
    assert check.verdict(reference[::-1], [(0, True)], reference)
    expected = check.digest(reference)
    assert check.verdict(reference, [], expected=expected) is None
    assert check.verdict(reference[:1], [], expected=expected)


def test_the_views_oracle_by_hand():
    sales = [(1, 60.0, 1.1, 2.0)] * 11 + [(12, 10.0, 1.1, 1.0)]
    result = check.evaluate_standing_queries(sales, [(1, "Chip"), (12, "Fan")])
    assert sorted(result["by_bucket"]) == [(1, 670.0, 12)]
    assert result["margin_watch"] == [(1, 660.0, 22.0)]
    assert sorted(result["by_category"]) == [("Chip", 11, 660.0),
                                             ("Fan", 1, 10.0)]
    assert result["top_tickets"][0] == (1, 60.0)
    assert len(result["top_tickets"]) == 10


def test_compare_verdicts():
    host = Metric("wall_s", "s", "host", "lower", "", bound=0.10)
    exact = Metric("sim_cycles", "cycles", "sim", "lower", "")
    tight = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(host, tight, [x * 1.05 for x in tight]) == "same"
    assert compare.verdict(host, tight, [x * 1.30 for x in tight]) == "worse"
    assert compare.verdict(host, tight, [x * 0.70 for x in tight]) == "better"
    noisy = [0.8, 1.0, 1.3, 0.9, 1.25]
    slower = [x * 1.2 for x in noisy]
    assert compare.verdict(host, noisy, slower) == "unresolved"
    assert compare.verdict(exact, [100], [100]) == "same"
    assert compare.verdict(exact, [100], [101]) == "worse"
    assert compare.verdict(exact, [100], [99]) == "better"
