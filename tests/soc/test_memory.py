"""Tests for the sparse memory model."""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import Memory
from repro.soc.memory import _PAGE_SIZE


class TestSparseMemory:
    def test_unwritten_reads_zero(self):
        mem = Memory()
        assert mem.load_u(0x12345, 8) == 0

    def test_byte_roundtrip(self):
        mem = Memory()
        mem.store_bytes(100, b"hello")
        assert mem.load_bytes(100, 5) == b"hello"

    def test_cross_page_access(self):
        mem = Memory()
        data = bytes(range(1, 17))
        mem.store_bytes(4096 - 8, data)  # straddles a page boundary
        assert mem.load_bytes(4096 - 8, 16) == data

    @given(addr=st.integers(0, 2**20), value=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_signed_unsigned_views_consistent(self, addr, value):
        mem = Memory()
        mem.store_u(addr, 8, value)
        unsigned = mem.load_u(addr, 8)
        signed = mem.load_s(addr, 8)
        assert unsigned == value & (2**64 - 1)
        assert signed == (unsigned - 2**64 if unsigned >> 63 else unsigned)

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_double_roundtrip(self, value):
        mem = Memory()
        mem.store_double(64, value)
        assert mem.load_double(64) == value

    def test_touched_bytes_counts_pages(self):
        mem = Memory()
        assert mem.touched_bytes == 0
        mem.store_u(0, 1, 1)
        mem.store_u(100_000, 1, 1)
        assert mem.touched_bytes == 2 * 4096
        # Reads of untouched pages (one straddling two) see zeros and
        # allocate nothing; a flip allocates.
        assert mem.load_u(0x123456789, 8) == 0
        assert mem.load_bytes(3 * 4096 - 4, 8) == bytes(8)
        assert mem.touched_bytes == 2 * 4096
        mem.flip_bit(0x123456789, 0)
        assert mem.load_u(0x123456789, 8) == 1
        assert mem.touched_bytes == 3 * 4096

    def test_partial_overwrite(self):
        mem = Memory()
        mem.store_bytes(0, b"\xff" * 8)
        mem.store_u(2, 2, 0)
        assert mem.load_bytes(0, 8) == b"\xff\xff\x00\x00\xff\xff\xff\xff"


def _byte_by_byte(mem: Memory, addr: int, size: int) -> bytes:
    return bytes(mem.load_bytes(addr + k, 1)[0] for k in range(size))


@given(offset=st.integers(_PAGE_SIZE - 12, _PAGE_SIZE + 4),
       size=st.sampled_from([1, 2, 4, 8]),
       fill=st.binary(min_size=24, max_size=24),
       touched=st.sampled_from(["both", "low", "high", "none"]))
@settings(max_examples=200, deadline=None)
def test_typed_loads_equal_byte_by_byte(offset, size, fill, touched):
    """In-page and page-crossing loads, over written and untouched
    pages, read what the bytes say; reads allocate no page."""
    mem = Memory()
    start = _PAGE_SIZE - 12  # the 24 bytes around one page boundary
    if touched in ("both", "low"):
        mem.store_bytes(start, fill[:12])
    if touched in ("both", "high"):
        mem.store_bytes(_PAGE_SIZE, fill[12:])
    pages = dict(mem._pages)
    raw = _byte_by_byte(mem, offset, size)
    assert mem.load_u(offset, size) == int.from_bytes(raw, "little")
    assert mem.load_s(offset, size) == int.from_bytes(raw, "little",
                                                      signed=True)
    if size == 8:
        assert struct.pack("<d", mem.load_double(offset)) == raw
    assert mem._pages == pages


def test_writes_drop_decoded_records_of_their_pages():
    mem = Memory()
    mem.remember_decoded(0x1000, "a")
    mem.remember_decoded(0x2FFE, "b")  # straddles two pages
    mem.store_u(0x5000, 4, 1)             # another page: both survive
    assert mem.decoded == {0x1000: "a", 0x2FFE: "b"}
    mem.store_u(0x3000, 1, 1)             # the upper page of "b"
    assert mem.decoded == {0x1000: "a"}
    mem.flip_bit(0x1FFF, 0)
    assert mem.decoded == {}
    for write in (lambda: mem.store_bytes(0x1004, b"x"),
                  lambda: mem.store_double(0x1008, 1.0)):
        mem.remember_decoded(0x1000, "a")
        write()
        assert mem.decoded == {}
