"""The engine-level compiled-plan cache: a bounded LRU shared by every
execution path.

PGO introduced a fingerprint-keyed plan cache private to the feedback
loop; this generalizes it into one service-level structure: plain
``execute`` calls, the PGO path, and every session of the concurrent query
service (repro.serve) share it, so identical SQL never recompiles.

Entries carry the feedback version they were compiled against (0 for
non-PGO flavors); a lookup with a newer version misses, which is how fresh
profile feedback forces a recompile.  Each entry also records a monotonic
insertion serial: the serve loop uses ``evict_since`` to drop entries whose
compile-time memory lives inside an execution epoch about to be released
(the bump allocator frees LIFO arenas, so mid-epoch compiles cannot outlive
the epoch).

The cache knows nothing about execution tiers: a tier-2 translation
lives on the cached plan's ``Program``, so a promotion touches no entry
(see docs/TIERING.md).

Eviction drops the entry but not its compile-time allocations — the bump
allocator has no free list — so capacity bounds *recompilation*, not
memory; DESIGN note: long-running processes should size the capacity to
their working set of templates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class _Entry:
    compiled: object
    feedback_version: int
    serial: int


class PlanCache:
    """Bounded LRU of :class:`~repro.engine.CompiledQuery` objects."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._serial = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def serial(self) -> int:
        """Monotonic insertion counter (epoch watermarks, repro.serve)."""
        return self._serial

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
        self._entries[key] = _Entry(compiled, feedback_version, self._serial)
        self._serial += 1
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def evict_since(self, watermark: int) -> int:
        """Drop every entry inserted at or after ``watermark``.

        The serve loop compiles cache misses inside its execution epoch;
        when the epoch's memory is released those plans' compile-time
        allocations go with it, so the entries must not survive either.
        Returns the number of entries dropped."""
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.serial >= watermark
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

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
