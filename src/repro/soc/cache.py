"""Set-associative cache simulator with LRU replacement.

Models the paper's hierarchy: split 16 KiB L1I/L1D backed by a shared
512 KiB L2.  Timing is expressed as *additional* stall cycles on a miss;
hits are absorbed in the pipeline.  The effect the paper highlights --
"more qubits result in more cache misses increasing the number of clock
cycles" (Table 2) -- comes straight out of this model once the working
set outgrows the L1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Cache", "CacheHierarchy", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, name: str, size_bytes: int, line_bytes: int = 64,
                 associativity: int = 4):
        if size_bytes % (line_bytes * associativity):
            raise ValueError(f"{name}: size must be a multiple of "
                             "line_bytes * associativity")
        self.name = name
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = size_bytes // (line_bytes * associativity)
        # Per set: list of (tag, dirty), most-recently-used last.
        self._sets: list[list[tuple[int, bool]]] = [
            [] for _ in range(self.n_sets)
        ]
        self.stats = CacheStats()
        # The line of the last access: resident and MRU in its set, so
        # touching it again changes nothing but counters and its dirty bit.
        self._mru_line = None

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one address; returns True on hit.

        On a miss the line is filled (allocate-on-miss for both reads and
        writes) and the LRU victim evicted; a dirty victim counts one
        writeback.  Another access to the line of the last one is a hit
        that leaves the LRU order as it is (that line is already MRU).
        """
        line = addr // self.line_bytes
        self.stats.accesses += 1
        if line == self._mru_line:
            if write:
                ways = self._sets[line % self.n_sets]
                ways[-1] = (ways[-1][0], True)
            return True
        self._mru_line = line
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        for k, (t, dirty) in enumerate(ways):
            if t == tag:
                ways.pop(k)
                ways.append((tag, dirty or write))
                return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            _, dirty = ways.pop(0)
            if dirty:
                self.stats.writebacks += 1
        ways.append((tag, write))
        return False

    def flush(self) -> None:
        """Invalidate all lines (keeps statistics)."""
        self._mru_line = None
        for ways in self._sets:
            ways.clear()

    # Fault injection ----------------------------------------------------- #
    def resident(self, addr: int) -> bool:
        """True if the line containing ``addr`` is currently cached
        (without touching LRU order or statistics)."""
        set_idx, tag = self._locate(addr)
        return any(t == tag for t, _ in self._sets[set_idx])

    def lines(self) -> list[tuple[int, int, bool]]:
        """Snapshot of every valid line as (set, tag, dirty) -- the
        address space a tag-array SEU can strike."""
        out = []
        for set_idx, ways in enumerate(self._sets):
            for tag, dirty in ways:
                out.append((set_idx, tag, dirty))
        return out

    def corrupt_tag(self, set_idx: int, tag: int) -> bool:
        """Model a tag-array SEU on one valid line.

        The flipped tag no longer matches any lookup for the original
        address, so architecturally the line simply vanishes from the
        cache (the next access misses and refills).  A write-allocate
        write-back cache would additionally lose dirty data, which the
        injector models separately via the data array.  Returns True if
        the line was present.
        """
        ways = self._sets[set_idx]
        for k, (t, _dirty) in enumerate(ways):
            if t == tag:
                self._mru_line = None
                ways.pop(k)
                return True
        return False


@dataclass
class CacheHierarchy:
    """Split L1 + shared L2 with miss penalties in cycles.

    Geometry defaults match the paper's SoC; penalties are Rocket-class
    (pipelined L1, ~a dozen cycles to L2, ~80 to main memory which in the
    cryogenic setting lives in a warmer domain).
    """

    l1i: Cache = field(
        default_factory=lambda: Cache("l1i", 16 * 1024, 64, 4)
    )
    l1d: Cache = field(
        default_factory=lambda: Cache("l1d", 16 * 1024, 64, 4)
    )
    l2: Cache = field(
        default_factory=lambda: Cache("l2", 512 * 1024, 64, 8)
    )
    l2_hit_cycles: int = 24
    memory_cycles: int = 100

    def fetch(self, addr: int) -> int:
        """Instruction fetch; returns stall cycles."""
        if self.l1i.access(addr):
            return 0
        if self.l2.access(addr):
            return self.l2_hit_cycles
        return self.memory_cycles

    def data_access(self, addr: int, write: bool) -> int:
        """Load/store; returns stall cycles."""
        if self.l1d.access(addr, write):
            return 0
        if self.l2.access(addr, write):
            return self.l2_hit_cycles
        return self.memory_cycles

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
