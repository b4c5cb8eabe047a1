"""The engine-level compiled-plan cache: a bounded LRU shared by every
execution path.

Plain ``execute`` calls, the PGO path, and every session of the concurrent
query service (repro.serve) share it, so identical SQL never recompiles.

Entries carry the feedback version they were compiled against (0 for
plans not steered by PGO); a lookup with a newer version misses, which is
how fresh profile feedback forces a recompile.

A cached plan is pure code — generated instructions, the Tagging
Dictionary that explains them, and a state layout — and owns no simulated
memory, so an entry lives until the LRU evicts it whatever memory epoch it
was compiled in, and eviction gives back everything the plan held.  The
cache knows nothing about execution tiers: a tier-2 translation lives on
the cached plan's ``Program``, so a promotion touches no entry (see
docs/TIERING.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class _Entry:
    compiled: object
    feedback_version: int


class PlanCache:
    """Bounded LRU of :class:`~repro.engine.CompiledQuery` objects."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple, feedback_version: int = 0):
        """The cached plan, or None on miss / stale feedback version."""
        entry = self._entries.get(key)
        if entry is None or entry.feedback_version != feedback_version:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.compiled

    def put(self, key: tuple, compiled, feedback_version: int = 0) -> None:
        self._entries[key] = _Entry(compiled, feedback_version)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
