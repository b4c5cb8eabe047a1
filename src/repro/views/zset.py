"""Z-sets: the weighted-bag algebra incremental view maintenance runs on.

A Z-set maps rows (tuples in some fixed column layout) to signed integer
weights.  A database table is a Z-set whose weights are all positive; a
*delta* is a Z-set whose positive entries are insertions and negative
entries retractions.  Applying a delta is plain addition, and every
DBSP-style maintenance rule in :mod:`repro.views.circuit` is phrased as
Z-set arithmetic, so consolidation (dropping zero-weight entries) is the
only normalization the tier ever needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class ZSet:
    """A mapping from row tuples to non-zero signed weights."""

    __slots__ = ("_weights",)

    def __init__(self, entries: Iterable[tuple[tuple, int]] = ()):
        self._weights: dict[tuple, int] = {}
        for row, weight in entries:
            self.add(row, weight)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ZSet":
        zset = cls()
        for row in rows:
            zset.add(row, 1)
        return zset

    def add(self, row: tuple, weight: int) -> None:
        """Accumulate ``weight`` for ``row``; zero entries consolidate away."""
        if weight == 0:
            return
        total = self._weights.get(row, 0) + weight
        if total == 0:
            self._weights.pop(row, None)
        else:
            self._weights[row] = total

    def merge(self, other: "ZSet") -> None:
        for row, weight in other.items():
            self.add(row, weight)

    # -- inspection ----------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple, int]]:
        return iter(self._weights.items())

    def weight(self, row: tuple) -> int:
        return self._weights.get(row, 0)

    def rows(self) -> Iterator[tuple]:
        """Every row expanded by its weight (bag semantics).

        Raises if any weight is negative: expanding a mixed delta into a
        bag is a bug, not a representable state.
        """
        for row, weight in self._weights.items():
            if weight < 0:
                raise ValueError(f"negative weight {weight} for {row!r}")
            for _ in range(weight):
                yield row

    def __len__(self) -> int:
        """Distinct rows (not the bag cardinality)."""
        return len(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSet):
            return NotImplemented
        return self._weights == other._weights

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{row!r}:{weight:+d}" for row, weight in self._weights.items()
        )
        return f"ZSet({{{entries}}})"

    @property
    def positive(self) -> bool:
        return all(weight > 0 for weight in self._weights.values())
