"""Sparse byte-addressable memory for the ISS.

Besides the bytes, a :class:`Memory` keeps the CPU's decoded
instructions, keyed by address (:attr:`Memory.decoded`).  Every write
path -- :meth:`~Memory.store_bytes`, :meth:`~Memory.store_u`,
:meth:`~Memory.store_double` and the SEU primitive
:meth:`~Memory.flip_bit` -- drops the entries of the pages it touches, so
an instruction that is stored over or struck decodes afresh.
"""

from __future__ import annotations

import struct

__all__ = ["Memory"]

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_OFFSET_MASK = _PAGE_SIZE - 1
_ZERO_PAGE = bytes(_PAGE_SIZE)
_DOUBLE = struct.Struct("<d")


class Memory:
    """Paged sparse memory; unwritten bytes read as zero."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        #: Address -> decoded instruction, valid until its page is written.
        self.decoded: dict[int, object] = {}
        self._decoded_at: dict[int, list[int]] = {}  # page -> its addresses

    def _page(self, addr: int) -> tuple[bytearray, int]:
        """The page of ``addr`` (allocated if new) and the offset, for a
        write: drops the decoded instructions the page holds."""
        number = addr >> _PAGE_BITS
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = bytearray(_PAGE_SIZE)
        if number in self._decoded_at:
            for at in self._decoded_at.pop(number):
                self.decoded.pop(at, None)
        return page, addr & _OFFSET_MASK

    def remember_decoded(self, addr: int, record) -> None:
        """Keep ``record``, decoded from the 4-byte word at ``addr``, in
        :attr:`decoded` until a write to a page that word lies on."""
        self.decoded[addr] = record
        for number in {addr >> _PAGE_BITS, (addr + 3) >> _PAGE_BITS}:
            self._decoded_at.setdefault(number, []).append(addr)

    # ------------------------------------------------------------------ #
    def load_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while size:
            # A read of an untouched page sees zeros and allocates nothing.
            page = self._pages.get(addr >> _PAGE_BITS, _ZERO_PAGE)
            offset = addr & _OFFSET_MASK
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

    # Typed accessors: a load inside one page reads the page in place. --- #
    def load_u(self, addr: int, size: int) -> int:
        offset = addr & _OFFSET_MASK
        if offset + size <= _PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_BITS, _ZERO_PAGE)
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.load_bytes(addr, size), "little")

    def load_s(self, addr: int, size: int) -> int:
        offset = addr & _OFFSET_MASK
        if offset + size <= _PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_BITS, _ZERO_PAGE)
            return int.from_bytes(page[offset : offset + size], "little",
                                  signed=True)
        return int.from_bytes(self.load_bytes(addr, size), "little",
                              signed=True)

    def store_u(self, addr: int, size: int, value: int) -> None:
        self.store_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"))

    def load_double(self, addr: int) -> float:
        offset = addr & _OFFSET_MASK
        if offset + 8 <= _PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_BITS, _ZERO_PAGE)
            return _DOUBLE.unpack_from(page, offset)[0]
        return _DOUBLE.unpack(self.load_bytes(addr, 8))[0]

    def store_double(self, addr: int, value: float) -> None:
        self.store_bytes(addr, _DOUBLE.pack(value))

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
