"""Workload input for the service: JSONL files and a synthetic generator.

A workload is a list of items ``{"sql": ..., "client": ..., "priority":
...}``.  The synthetic generator draws from a small pool of templates over
the example schema using each client session's seeded RNG, so the same
service seed always produces the same per-client query sequence — the
deterministic replay the interleaving tests and the benchmark rely on.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serve.errors import QUEUE_FULL, ServiceError

# templates over the example schema (Figure 3 tables); {} slots are
# filled from the session RNG
SYNTHETIC_TEMPLATES = [
    "SELECT category, SUM(price) FROM sales, products "
    "WHERE sales.id = products.id GROUP BY category ORDER BY category",
    "SELECT category, COUNT(*), AVG(price * vat_factor) "
    "FROM sales, products WHERE sales.id = products.id "
    "GROUP BY category ORDER BY category",
    "SELECT SUM(price - prod_costs) FROM sales WHERE price > {price}",
    "SELECT COUNT(*) FROM sales WHERE vat_factor > 1.1 "
    "AND price < {price}",
    "SELECT id, price FROM sales WHERE price > {hi_price} "
    "ORDER BY price DESC",
]


@dataclass(frozen=True)
class WorkloadItem:
    sql: str
    client: str = "default"
    priority: int = 0


@dataclass
class WorkloadSummary:
    """What ``run_workload`` reports back."""

    results: list = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0

    @property
    def clean(self) -> bool:
        return self.failed == 0 and self.shed == 0


def load_workload(path) -> list[WorkloadItem]:
    """Read a JSONL workload file (one ``{"sql": ...}`` object per line)."""
    items = []
    for line_no, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), 1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if "sql" not in doc:
            raise ReproError(f"{path}:{line_no}: missing 'sql' field")
        items.append(WorkloadItem(
            sql=doc["sql"],
            client=str(doc.get("client", "default")),
            priority=int(doc.get("priority", 0)),
        ))
    return items


def synthetic_workload(
    service, queries: int = 40, clients: int = 4
) -> list[WorkloadItem]:
    """Generate a deterministic multi-client workload from the templates.

    Each client's sequence is drawn from its *session* RNG (seeded from
    the service seed and the client name), so workloads replay exactly."""
    names = [f"client-{i}" for i in range(clients)]
    sessions = {name: service.session(name) for name in names}
    items = []
    for index in range(queries):
        name = names[index % clients]
        rng = sessions[name].rng
        template = rng.choice(SYNTHETIC_TEMPLATES)
        sql = template.format(
            price=round(rng.uniform(50.0, 450.0), 2),
            hi_price=round(rng.uniform(400.0, 490.0), 2),
        )
        items.append(WorkloadItem(
            sql=sql, client=name, priority=rng.choice([0, 0, 0, 1]),
        ))
    return items


def run_workload(service, items, warm: bool = True) -> WorkloadSummary:
    """Submit a workload with backpressure and drain it to completion.

    When the admission queue sheds a submission, the runner drains the
    service once (emptying the queue) and retries; a second shed counts
    the item as lost.  ``warm=True`` pre-compiles the distinct templates
    so no admission pays for lowering."""
    summary = WorkloadSummary()
    if warm:
        for sql in dict.fromkeys(item.sql for item in items):
            try:
                service.warm([sql])
            except ReproError:
                pass  # surfaces as a COMPILE_ERROR result at execution time
    for item in items:
        session = service.session(item.client)
        try:
            session.submit(item.sql, priority=item.priority)
        except ServiceError as exc:
            if exc.code != QUEUE_FULL:
                raise
            summary.results.extend(service.drain())
            try:
                session.submit(item.sql, priority=item.priority)
            except ServiceError as retry_exc:
                if retry_exc.code != QUEUE_FULL:
                    raise
                summary.shed += 1
                continue
        summary.submitted += 1
    summary.results.extend(service.drain())
    summary.completed = sum(1 for r in summary.results if r.ok)
    summary.failed = sum(1 for r in summary.results if r.status == "failed")
    return summary
