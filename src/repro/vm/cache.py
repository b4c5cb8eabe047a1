"""Set-associative cache hierarchy used to cost memory accesses.

Two inclusive levels with LRU replacement.  The interpreter calls
:meth:`CacheHierarchy.access` for every load and store; the return value is
the load latency in cycles, and miss counters feed the PMU's cache events.
"""

from __future__ import annotations

from repro.vm import costs


class CacheLevel:
    """One set-associative, LRU cache level tracking tags only.  ``mru``
    holds each set's most recently used line (-1: the set is empty), so
    an MRU hit is one list read."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = costs.CACHE_LINE):
        self.line_bits = line_bytes.bit_length() - 1
        nsets = size_bytes // (line_bytes * ways)
        if nsets & (nsets - 1):
            raise ValueError("number of sets must be a power of two")
        self.set_mask = nsets - 1
        self.ways = ways
        self.sets: list[list[int]] = [[] for _ in range(nsets)]
        self.mru: list[int] = [-1] * nsets

    def access(self, line: int) -> bool:
        """Touch ``line``; return True on hit.  Misses allocate the line."""
        index = line & self.set_mask
        tags = self.sets[index]
        if line in tags:
            if tags[0] != line:
                tags.remove(line)
                tags.insert(0, line)
                self.mru[index] = line
            return True
        tags.insert(0, line)
        self.mru[index] = line
        if len(tags) > self.ways:
            tags.pop()
        return False


class CacheHierarchy:
    """L1 + L2 with miss counting; returns per-access latency."""

    def __init__(self):
        self.l1 = CacheLevel(costs.L1_SIZE, costs.L1_WAYS)
        self.l2 = CacheLevel(costs.L2_SIZE, costs.L2_WAYS)
        self.accesses = 0
        self.l1_misses = 0
        self.l2_misses = 0

    def access(self, addr: int) -> int:
        """Access byte address ``addr``; return latency in cycles."""
        self.accesses += 1
        return self.access_uncounted(addr)

    def access_uncounted(self, addr: int) -> int:
        """:meth:`access` without the ``accesses`` bump: the fast VM
        tests the L1 MRU line in line and batches ``accesses`` per block,
        so only its other accesses come through here.  The L1 half of
        :meth:`CacheLevel.access` is inlined; L2 is called on a miss."""
        l1 = self.l1
        line = addr >> l1.line_bits
        index = line & l1.set_mask
        tags = l1.sets[index]
        if line in tags:
            if tags[0] != line:
                tags.remove(line)
                tags.insert(0, line)
                l1.mru[index] = line
            return costs.LAT_L1
        tags.insert(0, line)
        l1.mru[index] = line
        if len(tags) > l1.ways:
            tags.pop()
        self.l1_misses += 1
        if self.l2.access(line):
            return costs.LAT_L2
        self.l2_misses += 1
        return costs.LAT_MEM
