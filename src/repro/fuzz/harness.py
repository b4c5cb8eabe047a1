"""The fuzzing loop: generate, check, shrink, persist.

``run_fuzz`` drives a seeded campaign: every ``rotate_every`` queries a
fresh random dataset is built (derived deterministically from the master
seed), each generated query runs through the full differential oracle,
and any disagreement is minimized by the shrinker and written to the
corpus directory as a self-contained JSON repro — dataset rows included —
that ``repro.fuzz.corpus`` can replay without the original seed.

With ``check_fleet`` on, every rotation also builds *fleet twins*: the
same dataset behind the :mod:`repro.fleet` router at 1, 2, and 4 shards
(hash and range partitioned).  The ``fleet-sharded`` oracle requires
bag-equality of the router's scatter/gather results against the
single-node reference at every shard count, and exact equality between
each fleet's merged profile sample total and the sum of its per-shard
totals.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.fuzz.dataset import Dataset, build_database, random_dataset
from repro.fuzz.generator import QueryGenerator
from repro.fuzz.oracle import CheckResult, DifferentialOracle
from repro.fuzz.shrink import Shrinker
from repro.storage import StorageConfig

#: storage twins use deliberately tiny segments so even fuzz-sized tables
#: split into many segments with live zone maps
TWIN_SEGMENT_ROWS = 16

# a per-dataset cap on consecutive binder rejections: the generator is
# ~99% valid, so hitting this means it has a systematic grammar gap
MAX_REJECTS_PER_QUERY = 25


@dataclass
class FuzzFailure:
    """One disagreement, in both original and minimized form."""

    seed: int
    index: int
    sql: str
    configs: list[str]
    reasons: list[str]
    shrunk_sql: str | None = None
    shrunk_dataset: Dataset | None = None
    shrunk_operators: int | None = None
    corpus_path: str | None = None


@dataclass
class FuzzReport:
    seed: int
    budget: int
    queries: int = 0
    executions: int = 0
    rejected: int = 0
    datasets: int = 0
    elapsed: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _persist_failure(
    corpus_dir: Path, failure: FuzzFailure, dataset: Dataset
) -> Path:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    name = f"fuzz-seed{failure.seed}-q{failure.index}"
    document = {
        "name": name,
        "description": (
            "minimized differential disagreement: "
            + "; ".join(failure.reasons[:3])
        ),
        "source": f"run_fuzz(seed={failure.seed}), query #{failure.index}",
        "sql": failure.shrunk_sql or failure.sql,
        "original_sql": failure.sql,
        "configs": failure.configs,
        "dataset": (failure.shrunk_dataset or dataset).to_json(),
    }
    path = corpus_dir / f"{name}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def run_fuzz(
    seed: int,
    budget: int,
    *,
    max_hints: int = 4,
    rotate_every: int = 25,
    check_pgo: bool = True,
    check_vm_parity: bool = True,
    check_serve: bool = True,
    check_storage: bool = True,
    check_fleet: bool = True,
    inject_fault: str | None = None,
    time_limit: float | None = None,
    corpus_dir: str | Path | None = None,
    shrink_failures: bool = True,
    log=None,
) -> FuzzReport:
    """Run ``budget`` generated queries through the differential oracle."""
    report = FuzzReport(seed=seed, budget=budget)
    emit = log or (lambda message: None)
    started = time.monotonic()
    master = Random(seed)

    dataset: Dataset | None = None
    db = None
    generator = None
    storage_twins: dict = {}
    fleet_twins: dict = {}

    for index in range(budget):
        if time_limit is not None and time.monotonic() - started > time_limit:
            emit(f"time limit reached after {index} queries")
            break
        if dataset is None or (rotate_every and index % rotate_every == 0):
            dataset_seed = master.randint(0, 2**31 - 1)
            dataset = random_dataset(dataset_seed)
            db = build_database(dataset)
            if check_storage:
                # the same rows under three physical layouts: flat,
                # zone-mapped (byte-identical to flat), and compressed
                storage_twins = {
                    "plain": build_database(
                        dataset,
                        storage=StorageConfig.plain(
                            segment_rows=TWIN_SEGMENT_ROWS
                        ),
                    ),
                    "pruned": build_database(
                        dataset,
                        storage=StorageConfig.pruned(
                            segment_rows=TWIN_SEGMENT_ROWS
                        ),
                    ),
                    "encoded": build_database(
                        dataset,
                        storage=StorageConfig(
                            segment_rows=TWIN_SEGMENT_ROWS
                        ),
                    ),
                }
            if check_fleet:
                # the same rows behind the fleet router at three shard
                # counts (1 exercises degenerate routing; 4 uses range
                # partitioning so both schemes stay covered)
                from repro.fleet import Fleet, FleetConfig

                fleet_twins = {
                    f"sharded-{n}": Fleet.from_dataset(
                        dataset,
                        FleetConfig(
                            shards=n, workers=2, morsel_size=64,
                            scheme="range" if n == 4 else "hash",
                        ),
                    )
                    for n in (1, 2, 4)
                }
            generator = QueryGenerator(dataset, Random(master.randint(0, 2**31 - 1)))
            report.datasets += 1
        oracle = DifferentialOracle(
            db, max_hints=max_hints, check_pgo=check_pgo,
            check_vm_parity=check_vm_parity, check_serve=check_serve,
            inject_fault=inject_fault, storage_twins=storage_twins,
            fleet_twins=fleet_twins,
        )

        result: CheckResult | None = None
        for _attempt in range(MAX_REJECTS_PER_QUERY):
            query = generator.generate()
            result = oracle.check(
                query.sql, aliases=query.aliases, ordered_by=query.ordered_by
            )
            if not result.rejected:
                break
            report.rejected += 1
        if result is None or result.rejected:
            emit(f"query {index}: generator kept producing rejected queries")
            continue

        report.queries += 1
        report.executions += sum(
            1 for o in result.outcomes if o.kind != "skipped"
        )

        if result.disagreements:
            failure = FuzzFailure(
                seed=seed,
                index=index,
                sql=query.sql,
                configs=[d.config for d in result.disagreements],
                reasons=[d.reason for d in result.disagreements],
            )
            emit(
                f"query {index}: DISAGREEMENT "
                f"({', '.join(failure.configs)}) — {query.sql}"
            )
            if shrink_failures:
                shrunk = Shrinker(
                    dataset, query.sql,
                    max_hints=min(max_hints, 2),
                    check_pgo=False,
                    # only pay for profiled shrink runs when the
                    # disagreement is itself a fast-VM parity break
                    check_vm_parity=any(
                        c.startswith("vm-parity") for c in failure.configs
                    ),
                    inject_fault=inject_fault,
                ).run()
                if shrunk is not None:
                    failure.shrunk_sql = shrunk.sql
                    failure.shrunk_dataset = shrunk.dataset
                    failure.shrunk_operators = shrunk.operators
                    emit(
                        f"  shrunk to {shrunk.operators} operators, "
                        f"{shrunk.row_total} rows: {shrunk.sql}"
                    )
            if corpus_dir is not None:
                path = _persist_failure(Path(corpus_dir), failure, dataset)
                failure.corpus_path = str(path)
                emit(f"  repro written to {path}")
            report.failures.append(failure)

    report.elapsed = time.monotonic() - started
    return report
