"""Sparse byte-addressable memory for the ISS.

Besides the bytes, a :class:`Memory` keeps what the CPU derived from
them, keyed by address: the decoded instructions (:attr:`Memory.decoded`)
and the translated basic blocks (:attr:`Memory.blocks`).  Every record
is registered on each page its bytes lie on, and every write path --
:meth:`~Memory.store_bytes`, :meth:`~Memory.store_u`,
:meth:`~Memory.store_double` and the SEU primitive
:meth:`~Memory.flip_bit` -- drops the records of the pages it touches, so
an instruction that is stored over or struck decodes (and translates)
afresh.
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
        #: Entry address -> translated block, valid until one of its
        #: pages is written; :meth:`blocks_for` keys it by cache geometry.
        self.blocks: dict[int, object] = {}
        self._blocks_key: object = None
        # page -> (table, address) of every record whose bytes it holds
        self._held_at: dict[int, list[tuple[dict, int]]] = {}

    def _page(self, addr: int) -> tuple[bytearray, int]:
        """The page of ``addr`` (allocated if new) and the offset, for a
        write: drops the decoded instructions the page holds."""
        number = addr >> _PAGE_BITS
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = bytearray(_PAGE_SIZE)
        if number in self._held_at:
            for table, at in self._held_at.pop(number):
                table.pop(at, None)
        return page, addr & _OFFSET_MASK

    def _remember(self, table: dict, addr: int, size: int, record) -> None:
        """Keep ``record``, derived from ``size`` bytes at ``addr``, in
        ``table`` until a write to a page those bytes lie on."""
        table[addr] = record
        for number in range(addr >> _PAGE_BITS,
                            ((addr + size - 1) >> _PAGE_BITS) + 1):
            self._held_at.setdefault(number, []).append((table, addr))

    def remember_decoded(self, addr: int, record) -> None:
        """Keep ``record``, decoded from the 4-byte word at ``addr``, in
        :attr:`decoded` until a write to a page that word lies on."""
        self._remember(self.decoded, addr, 4, record)

    def remember_block(self, addr: int, size: int, block) -> None:
        """Keep ``block``, translated from ``size`` bytes of text at
        ``addr``, in :attr:`blocks` until a write to one of their pages."""
        self._remember(self.blocks, addr, size, block)

    def blocks_for(self, key) -> dict:
        """:attr:`blocks` for CPUs whose caches match ``key`` (translated
        code embeds the line sizes); a new key starts an empty table."""
        if key != self._blocks_key:
            self._blocks_key = key
            self.blocks = {}
        return self.blocks

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
