"""Tests for the cache simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.cache import Cache, CacheHierarchy
from tests.soc.oracle import ReferenceCache


class TestSingleCache:
    def test_first_access_misses_second_hits(self):
        c = Cache("t", 1024, 64, 2)
        assert not c.access(0)
        assert c.access(0)
        assert c.stats.misses == 1
        assert c.stats.hits == 1

    def test_same_line_different_bytes_hit(self):
        c = Cache("t", 1024, 64, 2)
        c.access(0)
        assert c.access(63)
        assert not c.access(64)

    def test_lru_eviction(self):
        c = Cache("t", 2 * 64 * 2, 64, 2)  # 2 sets, 2 ways
        stride = c.n_sets * 64
        c.access(0)
        c.access(stride)      # same set, second way
        c.access(2 * stride)  # evicts line 0 (LRU)
        assert not c.access(0)

    def test_lru_refresh_on_hit(self):
        c = Cache("t", 2 * 64 * 2, 64, 2)
        stride = c.n_sets * 64
        c.access(0)
        c.access(stride)
        c.access(0)            # refresh line 0
        c.access(2 * stride)   # should evict line 'stride' instead
        assert c.access(0)

    def test_dirty_writeback_counted(self):
        c = Cache("t", 2 * 64 * 2, 64, 2)
        stride = c.n_sets * 64
        c.access(0, write=True)
        c.access(stride)
        c.access(2 * stride)  # evicts dirty line 0
        assert c.stats.writebacks == 1

    def test_flush_invalidates(self):
        c = Cache("t", 1024, 64, 2)
        c.access(0)
        c.flush()
        assert not c.access(0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            Cache("t", 1000, 64, 4)

    def test_miss_rate(self):
        c = Cache("t", 1024, 64, 2)
        c.access(0)
        c.access(0)
        assert c.stats.miss_rate == pytest.approx(0.5)
        assert Cache("e", 1024, 64, 2).stats.miss_rate == 0.0


class TestHierarchy:
    def test_paper_geometry_defaults(self):
        h = CacheHierarchy()
        # "split L1 cache for data and instructions, each with 16 [KiB]
        # and a shared L2 cache of 512 [KiB]".
        assert h.l1i.n_sets * h.l1i.line_bytes * h.l1i.associativity == 16 * 1024
        assert h.l1d.n_sets * h.l1d.line_bytes * h.l1d.associativity == 16 * 1024
        assert h.l2.n_sets * h.l2.line_bytes * h.l2.associativity == 512 * 1024

    def test_l1_hit_is_free(self):
        h = CacheHierarchy()
        h.fetch(0)
        assert h.fetch(0) == 0

    def test_l2_hit_cheaper_than_memory(self):
        h = CacheHierarchy()
        first = h.data_access(0, write=False)   # cold: memory
        h.l1d.flush()
        second = h.data_access(0, write=False)  # L2 hit
        assert first == h.memory_cycles
        assert second == h.l2_hit_cycles
        assert second < first

    def test_working_set_growth_increases_misses(self):
        """The Table-2 mechanism: larger qubit counts, more misses."""

        def misses_for(n_lines: int) -> float:
            h = CacheHierarchy()
            for _ in range(20):  # 20 sweeps over the working set
                for k in range(n_lines):
                    h.data_access(k * 64, write=False)
            return h.l1d.stats.miss_rate

        small = misses_for(100)   # ~6 KiB, fits L1D
        large = misses_for(1000)  # ~64 KiB, thrashes L1D
        assert small <= 0.06  # only compulsory misses
        assert large > 0.5


# Operations on a 4-set, 2-way cache of 16-byte lines: accesses over 12
# lines (so sets conflict and evict), flushes, and tag strikes on the
# k-th resident line.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 12 * 16 - 1), st.booleans()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("corrupt"), st.integers(0, 7)),
), max_size=120)


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_fast_path_equals_reference_cache(ops):
    """The MRU-line hit of ``Cache.access`` changes nothing observable:
    every hit/miss, the statistics and the lines (LRU order and dirty
    bits) equal a cache that scans its set on every access."""
    fast = Cache("fast", 4 * 2 * 16, 16, 2)
    ref = ReferenceCache("ref", 4 * 2 * 16, 16, 2)
    for op in ops:
        if op[0] == "access":
            assert fast.access(op[1], op[2]) == ref.access(op[1], op[2])
        elif op[0] == "flush":
            fast.flush()
            ref.flush()
        else:
            lines = ref.lines()
            if lines:
                set_idx, tag, _ = lines[op[1] % len(lines)]
                assert fast.corrupt_tag(set_idx, tag)
                assert ref.corrupt_tag(set_idx, tag)
        assert fast.stats == ref.stats
        assert fast.lines() == ref.lines()


def test_repeat_write_to_mru_line_marks_it_dirty():
    c = Cache("t", 2 * 64 * 2, 64, 2)
    stride = c.n_sets * 64
    c.access(0)
    c.access(8, write=True)  # same line as the last access
    assert c.lines() == [(0, 0, True)]
    c.access(stride)
    c.access(2 * stride)     # evicts the dirty line
    assert c.stats.writebacks == 1
