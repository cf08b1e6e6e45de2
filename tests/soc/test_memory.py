"""Tests for the sparse memory model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import Memory


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
