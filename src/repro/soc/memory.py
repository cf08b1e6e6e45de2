"""Sparse byte-addressable memory for the ISS."""

from __future__ import annotations

import struct

__all__ = ["Memory"]

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_ZERO_PAGE = bytes(_PAGE_SIZE)


class Memory:
    """Paged sparse memory; unwritten bytes read as zero."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> tuple[bytearray, int]:
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[addr >> _PAGE_BITS] = page
        return page, addr & (_PAGE_SIZE - 1)

    # ------------------------------------------------------------------ #
    def load_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while size:
            # A read of an untouched page sees zeros and allocates nothing.
            page = self._pages.get(addr >> _PAGE_BITS, _ZERO_PAGE)
            offset = addr & (_PAGE_SIZE - 1)
            chunk = min(size, _PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def store_bytes(self, addr: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            page, offset = self._page(addr + pos)
            chunk = min(len(data) - pos, _PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    # Typed accessors ----------------------------------------------------- #
    def load_u(self, addr: int, size: int) -> int:
        return int.from_bytes(self.load_bytes(addr, size), "little")

    def load_s(self, addr: int, size: int) -> int:
        return int.from_bytes(self.load_bytes(addr, size), "little",
                              signed=True)

    def store_u(self, addr: int, size: int, value: int) -> None:
        self.store_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"))

    def load_double(self, addr: int) -> float:
        return struct.unpack("<d", self.load_bytes(addr, 8))[0]

    def store_double(self, addr: int, value: float) -> None:
        self.store_bytes(addr, struct.pack("<d", value))

    # Fault injection ----------------------------------------------------- #
    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of one byte -- the SEU primitive.

        ``bit`` is the bit index within the byte (0 = LSB).  Works on
        untouched pages too: they read as zero, so the flip sets the bit.
        """
        if not 0 <= bit < 8:
            raise ValueError("bit index must be in [0, 8)")
        page, offset = self._page(addr)
        page[offset] ^= 1 << bit

    @property
    def touched_bytes(self) -> int:
        """Allocated footprint (page granularity)."""
        return len(self._pages) * _PAGE_SIZE
