"""Flat simulated memory with a bump allocator.

The machine is a 64-bit word machine: every load/store moves one 8-byte,
8-byte-aligned word.  Addresses are byte addresses (so cache simulation and
memory-access profiles speak the same units as the paper) but storage is a
Python list of words for interpreter speed.  A word may hold a Python int
(i64 semantics) or a float (f64); the backend's type discipline guarantees
generated code never confuses the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VMError

WORD = 8
NULL = 0
CACHE_LINE = 64


@dataclass(frozen=True)
class Region:
    """A named allocation extent, used for debugging and report labels."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class Memory:
    """Word-addressable simulated memory with bump allocation.

    Address 0 is reserved as the null pointer: allocation starts at one word
    past zero so generated code can use ``0`` for "no entry" (e.g. empty hash
    chain slots) and any dereference of it faults.

    ``words`` holds what was allocated: it starts as the null word and
    :meth:`alloc` extends it to the new break.  :meth:`release` only
    rewinds the break, so the list is the high-water mark of allocations
    (growing it again for every query would cost host time), and an
    access past it faults out of bounds.
    """

    def __init__(self):
        self.words: list = [0]
        self._brk = WORD  # keep address 0 unmapped (null)
        self.regions: list[Region] = []

    # -- allocation ------------------------------------------------------

    def alloc(self, nbytes: int, name: str = "anon", align: int = WORD) -> int:
        """Bump-allocate ``nbytes`` (rounded up to words), zero-filled.

        ``align`` must be a power-of-two multiple of the word size.  Storage
        segments allocate with ``align=CACHE_LINE`` so every segment starts on
        a cache-line boundary and the L1/L2 set a scan maps to is a function
        of the layout alone, not of whatever was allocated before it.
        """
        if align < WORD or align & (align - 1):
            raise VMError(f"bad alignment {align}")
        nbytes = (nbytes + WORD - 1) & ~(WORD - 1)
        base = (self._brk + align - 1) & ~(align - 1)
        new_brk = base + nbytes
        # Below the high-water mark memory may hold stale data from a
        # released arena; zero the alignment gap as well so no stale word
        # stays readable.  The slice runs past the end of ``words`` when the
        # break rises above the mark, and then extends it.
        low, high = self._brk // WORD, new_brk // WORD
        self.words[low:high] = [0] * (high - low)
        self._brk = new_brk
        self.regions.append(Region(name, base, nbytes))
        return base

    def mark(self) -> int:
        """Return the current break, for arena-style release."""
        return self._brk

    def release(self, mark: int) -> None:
        """Release all allocations made after :meth:`mark` returned ``mark``."""
        if not WORD <= mark <= self._brk:
            raise VMError(f"bad release mark {mark}")
        self._brk = mark
        self.regions = [r for r in self.regions if r.base < mark]

    # -- access (checked; the interpreter fast path bypasses these) -------

    def read(self, addr: int):
        if addr & 7 or not WORD <= addr < self._brk:
            raise VMError(f"bad read at {addr:#x}")
        return self.words[addr // WORD]

    def write(self, addr: int, value) -> None:
        if addr & 7 or not WORD <= addr < self._brk:
            raise VMError(f"bad write at {addr:#x}")
        self.words[addr // WORD] = value

    def region_of(self, addr: int) -> Region | None:
        """Find the allocation containing ``addr`` (linear scan; debug only)."""
        for region in reversed(self.regions):
            if region.contains(addr):
                return region
        return None

    def used_bytes(self) -> int:
        return self._brk
