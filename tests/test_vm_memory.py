"""Unit tests for the simulated memory."""

import pytest

from repro.errors import VMError
from repro.vm.memory import CACHE_LINE, WORD, Memory


def test_alloc_is_word_aligned_and_zeroed():
    mem = Memory()
    a = mem.alloc(12, "a")
    assert a % WORD == 0
    b = mem.alloc(8, "b")
    assert b >= a + 16  # 12 rounded up to 16
    assert mem.read(a) == 0
    assert mem.read(b) == 0


def test_null_address_is_unmapped():
    mem = Memory()
    with pytest.raises(VMError):
        mem.read(0)
    with pytest.raises(VMError):
        mem.write(0, 1)


def test_read_write_roundtrip():
    mem = Memory()
    a = mem.alloc(32)
    mem.write(a + 8, -42)
    mem.write(a + 16, 3.5)
    assert mem.read(a + 8) == -42
    assert mem.read(a + 16) == 3.5


def test_unaligned_access_rejected():
    mem = Memory()
    a = mem.alloc(16)
    with pytest.raises(VMError):
        mem.read(a + 3)


def test_out_of_bounds_rejected():
    mem = Memory()
    mem.alloc(16)
    with pytest.raises(VMError):
        mem.read(1 << 20)


def test_grow_on_demand():
    # the words are what was allocated: the null word, then up to each
    # new break; a release rewinds the break and keeps the high-water
    mem = Memory()
    assert len(mem.words) * WORD == mem.used_bytes() == WORD
    mark = mem.mark()
    a = mem.alloc(1 << 12)
    high = a + (1 << 12)
    assert len(mem.words) * WORD == mem.used_bytes() == high
    mem.write(high - 8, 7)
    assert mem.read(high - 8) == 7
    mem.release(mark)
    assert mem.alloc(8) == a and len(mem.words) * WORD == high


def test_arena_release_and_reuse_zeroes():
    mem = Memory()
    mark = mem.mark()
    a = mem.alloc(16, "scratch")
    mem.write(a, 99)
    mem.release(mark)
    b = mem.alloc(16, "scratch2")
    assert b == a  # bump pointer rewound
    assert mem.read(b) == 0  # stale data not visible


def test_aligned_alloc_cache_line():
    mem = Memory()
    mem.alloc(12, "pad")  # misalign the bump pointer
    a = mem.alloc(40, "seg", align=CACHE_LINE)
    assert a % CACHE_LINE == 0
    b = mem.alloc(8, "next")
    assert b == a + 40  # word packing resumes after the aligned block
    # the alignment gap must be zeroed like any other fresh allocation
    mark = mem.mark()
    c = mem.alloc(256, "scratch")
    for off in range(0, 256, 8):
        mem.write(c + off, 0xDEAD)
    mem.release(mark)
    d = mem.alloc(8, "bump", align=CACHE_LINE)
    assert d % CACHE_LINE == 0
    for off in range(-(d - c), 8, 8):
        assert mem.read(d + off) == 0


def test_aligned_alloc_rejects_bad_alignment():
    mem = Memory()
    with pytest.raises(VMError):
        mem.alloc(8, align=48)  # not a power of two
    with pytest.raises(VMError):
        mem.alloc(8, align=4)  # below word size


def test_release_bad_mark_rejected():
    mem = Memory()
    with pytest.raises(VMError):
        mem.release(3)


def test_region_of_finds_named_allocation():
    mem = Memory()
    a = mem.alloc(64, "col.x")
    region = mem.region_of(a + 8)
    assert region is not None and region.name == "col.x"
    assert mem.region_of(a + 64) is None or mem.region_of(a + 64).name != "col.x"
