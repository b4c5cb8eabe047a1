"""Stable keys for profile-guided feedback.

Operator ids, IU ids, task ids, and IR instruction ids all come from global
counters — none survives a recompile.  Feedback therefore uses *structural*
keys only:

* the **query fingerprint** hashes the normalized SQL text, so profiles of
  the same query merge across runs (and across join-order hints: the hint
  changes the plan, not the query, so hinted exploration runs — the paper's
  Fig. 10/11 workflow — feed the same feedback pool);
* the **cardinality key** names a subplan by its logical kind plus the
  multiset of scanned aliases, which is invariant under join reordering of
  the surrounding plan;
* the **plan signature** hashes the physical tree shape, guarding
  plan-shape-dependent feedback (branch layout, hotness) against reuse
  after the planner flips to a different plan.
"""

from __future__ import annotations

import hashlib
import re

from repro.plan.logical import LogicalOperator, LogicalScan
from repro.plan.physical import PhysicalOperator, PhysicalScan

# physical kinds mapped onto the logical vocabulary used in cardinality keys
_PHYSICAL_TO_LOGICAL_KIND = {
    "scan": "scan",
    "select": "filter",
    "hashjoin": "join",
    "semijoin": "semijoin",
    "map": "map",
    "groupby": "groupby",
    "sort": "sort",
    "limit": "limit",
}


def fingerprint(sql: str) -> str:
    """Hash of the SQL text, whitespace- and case-normalized outside
    string literals (the odd pieces of a split on the quote character)."""
    normalized = "'".join(
        piece if index % 2 else re.sub(r"\s+", " ", piece.lower())
        for index, piece in enumerate(sql.split("'"))
    ).strip()
    return hashlib.sha256(normalized.encode()).hexdigest()[:16]


def _scan_aliases(op) -> list[str]:
    scan_type = LogicalScan if isinstance(op, LogicalOperator) else PhysicalScan
    return sorted(
        node.alias for node in op.walk() if isinstance(node, scan_type)
    )


def cardinality_key(op) -> str | None:
    """``kind|alias,alias,...`` for a logical or physical subplan.

    Aliases keep multiplicity (a subquery may rescan a relation), so the
    key distinguishes e.g. Q2's inner and outer partsupp subplans.  Returns
    ``None`` for operators whose output count is not a meaningful
    cardinality observation (output, groupjoin fusion).
    """
    kind = op.kind
    if isinstance(op, PhysicalOperator):
        kind = _PHYSICAL_TO_LOGICAL_KIND.get(kind)
        if kind is None:
            return None
    elif kind not in _PHYSICAL_TO_LOGICAL_KIND.values():
        return None
    return f"{kind}|{','.join(_scan_aliases(op))}"


def plan_signature(root: PhysicalOperator) -> str:
    """Structural hash of a physical plan tree (shape + scan aliases)."""

    def render(op: PhysicalOperator) -> str:
        name = op.kind
        if isinstance(op, PhysicalScan):
            name += f":{op.alias}"
        children = ",".join(render(child) for child in op.children())
        return f"{name}({children})"

    return hashlib.sha256(render(root).encode()).hexdigest()[:16]
