"""The parent side: start children one at a time, gate, aggregate.

The runner is a single-threaded process that only waits while a child
works, so every workload runs alone on the host.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from benchmarks.suite.metrics import END_TO_END, PER_LAYER
from benchmarks.suite.workloads import COLD, WORKLOADS

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SOURCE_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170
#: keys of a child's "region" that must repeat exactly
EXACT = ("ops", "sim_cycles", "sim_instructions", "sim_latency_p50_cycles",
         "sim_latency_p90_cycles")


class SuiteError(RuntimeError):
    """The benchmark cannot run here (no program, a child died)."""


def require_program() -> None:
    if not (SOURCE_DIR / "repro" / "__init__.py").exists():
        raise SuiteError(
            f"the program under test is missing: no {SOURCE_DIR}/repro"
        )


def run_child(workload: str, seed: int, seconds: float, *, traced=False,
              smoke=False, hash_seed=0, trace_stem=None) -> dict:
    """Run one child interpreter to completion and parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE_DIR), str(REPO_ROOT)])
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [
        sys.executable, "-m", "benchmarks.suite.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--smoke", str(int(smoke)),
    ]
    if trace_stem is not None:
        command += ["--trace-stem", str(trace_stem)]
    try:
        done = subprocess.run(
            command, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SuiteError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s"
        ) from exc
    if done.returncode != 0:
        raise SuiteError(
            f"{workload}: child exited {done.returncode}\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def region_wall_s(children) -> float:
    """Host time of the fixed region, each op's time replaced by the
    median over every execution of that op (in any pass of any child), so
    that one slow moment moves nothing and like is summed with like."""
    times: dict[str, list[float]] = {}
    for child in children:
        for regions in child["passes"]:
            for label, seconds, _ in regions:
                times.setdefault(label, []).append(seconds)
    first = children[0]
    return sum(
        statistics.median(times[label])
        for regions in first["passes"][:first["region"]["passes"]]
        for label, _, _ in regions
    )


@dataclass
class Measurement:
    """Everything the children of one workload reported."""

    workload: str
    seed: int
    children: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    run_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.children)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.children)

    @property
    def failures(self) -> list[str]:
        return [f for c in self.children for f in c["failures"]]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations

    def gate(self) -> None:
        """Simulated metrics and op counts must repeat exactly across
        children (each runs under another PYTHONHASHSEED)."""
        first = self.children[0]["region"]
        for child in self.children[1:]:
            for key in EXACT:
                if child["region"][key] != first[key]:
                    self.violations.append(
                        f"{self.workload}: {key} differs between children: "
                        f"{first[key]} vs {child['region'][key]}"
                    )

    def end_to_end(self) -> dict:
        """metric name -> value; host values are medians."""
        children = self.children
        latencies: dict[str, list[float]] = {}
        for child in children:
            for label, ms in child["op_ms"]:
                latencies.setdefault(label, []).append(ms)
        out = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "wall_s": region_wall_s(children),
            # the median op: each distinct op counts once, at its own
            # median, so a cheap op run often cannot drag the value down
            "op_p50_ms": statistics.median(
                statistics.median(v) for v in latencies.values()
            ),
            "peak_rss_mb": statistics.median(
                c["peak_rss_mb"] for c in children
            ),
        }
        out.update((key, children[0]["region"][key]) for key in EXACT)
        return out


def measure(workload: str, seed: int, seconds: float, *, smoke=False,
            first_hash_seed=1) -> Measurement:
    """One untraced run: ``MIN_CHILDREN`` fresh children one after
    another, and for a cold workload more until ``seconds`` of timed work
    are done.  Each child gets its own PYTHONHASHSEED, counted up from
    ``first_hash_seed``."""
    require_program()
    cls = WORKLOADS[workload]
    measurement = Measurement(workload, seed)
    started = perf_counter()
    cold = cls.kind == COLD
    children = 1 if smoke else cls.MIN_CHILDREN
    timed = 0.0
    while len(measurement.children) < children or (cold and timed < seconds):
        report = run_child(
            workload, seed, seconds, smoke=smoke,
            hash_seed=first_hash_seed + len(measurement.children),
        )
        measurement.children.append(report)
        timed += sum(
            seconds
            for regions in report["passes"] for _, seconds, _ in regions
        )
    measurement.gate()
    measurement.run_s = perf_counter() - started
    return measurement


def trace(workload: str, seed: int, *, smoke=False, write=True,
          baseline=None):
    """The traced run: one traced child, compared with untraced ones
    (``baseline``, when the caller already has children of the same seed
    and size; else one is run).

    Returns ``(measurement, per_layer)`` where ``measurement`` holds all
    these children (so the gate also proves tracing leaves the simulation
    alone) and ``per_layer`` has a value for every per-layer metric."""
    require_program()
    measurement = Measurement(workload, seed)
    started = perf_counter()
    stem = None
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    if baseline is None:
        baseline = [run_child(workload, seed, 0, smoke=smoke, hash_seed=1)]
    traced = run_child(workload, seed, 0, traced=True, smoke=smoke,
                       hash_seed=len(baseline) + 1, trace_stem=stem)
    measurement.children = [*baseline, traced]
    measurement.gate()
    per_layer = {metric.name: 0.0 for metric in PER_LAYER}
    per_layer.update(traced["layers"])
    for untraced_only in ("vm.cold_penalty_s", "views.op_p99_ms"):
        per_layer[untraced_only] = baseline[0]["layers"].get(
            untraced_only, 0.0
        )
    per_layer["trace.overhead_pct"] = 100 * (
        region_wall_s([traced]) / region_wall_s(baseline) - 1
    )
    unknown = set(per_layer) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise SuiteError(f"unregistered per-layer metrics: {sorted(unknown)}")
    measurement.run_s = perf_counter() - started
    return measurement, per_layer


def contract_line(measurement: Measurement, values: dict, units: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps({
        "correct": measurement.correct,
        "attempted": max(1, measurement.attempted),
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    })


END_TO_END_UNITS = {m.name: m.unit for m in END_TO_END}
PER_LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}
