"""A single stream buffer's FIFO (Figure 2), observed through
StreamPrefetcher.window on a one-stream prefetcher."""

import pytest

from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import Lookup, StreamPrefetcher

BLOCK_BITS = 6


def addr(block):
    return block << BLOCK_BITS


def one_stream(depth=2, **overrides):
    return StreamPrefetcher(StreamConfig(n_streams=1, depth=depth, **overrides))


def allocate(start, stride=1, depth=2, **overrides):
    """One stream prefetching ``start``, +stride, ... (czone for stride != 1)."""
    if stride == 1:
        pf = one_stream(depth, **overrides)
        pf.handle_miss(addr(start - 1))
        return pf
    pf = one_stream(
        depth, unit_filter_entries=16, stride_detector=StrideDetector.CZONE, **overrides
    )
    for k in (3, 2, 1):
        pf.handle_miss(addr(start - k * stride))
    return pf


def blocks(pf):
    return [block for block, _ in pf.window(0)]


class TestAllocation:
    def test_inactive_until_allocated(self):
        pf = one_stream()
        assert pf.window(0) == []
        assert pf.handle_miss(addr(0)) is Lookup.MISS  # nothing to hit

    def test_allocate_fills_depth_entries(self):
        pf = allocate(100, depth=3)
        assert blocks(pf) == [100, 101, 102]
        assert pf.finalize().prefetches_issued == 3

    def test_strided_allocation(self):
        assert blocks(allocate(50, stride=10)) == [50, 60]

    def test_negative_stride(self):
        assert blocks(allocate(50, stride=-4)) == [50, 46]

    def test_zero_stride_rejected(self):
        # A sub-block stride verifies as zero blocks; no stream is built.
        pf = one_stream(unit_filter_entries=16, stride_detector=StrideDetector.CZONE)
        for offset in (0, 8, 16, 24):
            pf.handle_miss(addr(100) + offset)
        assert pf.window(0) == []
        assert pf.finalize().allocations == 0

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(n_streams=1, depth=0)

    def test_reallocation_discards_old_entries(self):
        pf = allocate(10)
        pf.handle_miss(addr(499))
        assert blocks(pf) == [500, 501]


class TestConsume:
    def test_consume_advances_fifo(self):
        pf = allocate(10)
        pf.handle_miss(addr(10))
        assert blocks(pf) == [11, 12]  # 12 issued to keep the FIFO `depth` deep

    def test_consume_counts_hits(self):
        pf = allocate(10)
        pf.handle_miss(addr(10))
        pf.handle_miss(addr(11))
        assert pf.finalize().lengths.hits_by_bucket[(1, 5)] == 2

    def test_consume_strided(self):
        pf = allocate(0 + 7 * 3, stride=7)
        pf.handle_miss(addr(21))
        assert blocks(pf) == [28, 35]
        pf.handle_miss(addr(28))
        assert blocks(pf) == [35, 42]

    def test_consume_inactive_raises(self):
        pf = one_stream()
        assert pf.handle_miss(addr(10)) is Lookup.MISS
        assert pf.finalize().prefetches_used == 0

    def test_head_matches_only_head(self):
        pf = allocate(10, depth=3)
        assert pf.handle_miss(addr(11)) is Lookup.MISS  # present, but not at head
        pf = allocate(10, depth=3)
        assert pf.handle_miss(addr(10)) is Lookup.HIT


class TestFlush:
    def test_flush_returns_discard_count(self):
        pf = allocate(10, depth=3)
        pf.handle_miss(addr(10))
        pf.handle_miss(addr(999))  # reallocation discards the 3 entries
        stats = pf.finalize()
        assert stats.prefetches_issued - stats.prefetches_used == 3 + 3

    def test_flush_resets_hit_counter(self):
        pf = allocate(10)
        pf.handle_miss(addr(10))
        pf.handle_miss(addr(999))
        lengths = pf.finalize().lengths
        assert lengths.hits_by_bucket[(1, 5)] == 1
        assert lengths.zero_length_streams == 1  # the new stream starts at 0


class TestInvalidate:
    def test_invalidate_marks_entry_stale(self):
        pf = allocate(10)
        assert pf.handle_writeback(addr(11)) == 1
        assert pf.window(0) == [(10, True), (11, False)]

    def test_invalidated_head_never_matches(self):
        pf = allocate(10)
        pf.handle_writeback(addr(10))
        assert pf.handle_miss(addr(10)) is Lookup.MISS

    def test_invalidate_absent_block(self):
        pf = allocate(10)
        assert pf.handle_writeback(addr(999)) == 0

    def test_issue_seq_recorded(self):
        # Under min_lead each entry is stamped with the miss that issued it.
        pf = one_stream(unit_filter_entries=16, min_lead=3)
        pf.handle_miss(addr(8))
        pf.handle_miss(addr(9))  # miss 2 allocates 10, 11
        for block in (5000, 6000, 7000):  # misses 3-5, filtered out
            pf.handle_miss(addr(block))
        assert pf.handle_miss(addr(10)) is Lookup.HIT
        assert pf.handle_miss(addr(11)) is Lookup.HIT
        # 12 was issued when 10 hit (miss 6), only two misses ago.
        assert pf.handle_miss(addr(12)) is Lookup.IN_FLIGHT
