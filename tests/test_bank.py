"""Multi-way stream buffers (Section 3) through StreamPrefetcher's event API:
head lookup, LRU reallocation, bandwidth accounting, invalidation, the
latency model and the length histogram."""

import pytest

from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import Lookup, StreamPrefetcher

BLOCK_BITS = 6


def addr(block):
    return block << BLOCK_BITS


def prefetcher(n_streams=4, depth=2, min_lead=0, detector=False):
    """Unfiltered streams, or czone stride detection behind a unit filter."""
    if detector:
        return StreamPrefetcher(
            StreamConfig(
                n_streams=n_streams,
                depth=depth,
                min_lead=min_lead,
                unit_filter_entries=16,
                stride_detector=StrideDetector.CZONE,
            )
        )
    return StreamPrefetcher(StreamConfig(n_streams=n_streams, depth=depth, min_lead=min_lead))


def with_stream(start=100, stride=1, **kwargs):
    """A prefetcher whose most recent allocation prefetches start, +stride..."""
    if stride == 1:
        pf = prefetcher(**kwargs)
        pf.handle_miss(addr(start - 1))
        return pf
    pf = prefetcher(detector=True, **kwargs)
    for k in (3, 2, 1):  # the third miss verifies the stride
        assert pf.handle_miss(addr(start - k * stride)) is Lookup.MISS
    assert pf.finalize().allocations == 1
    return pf


class TestLookup:
    def test_miss_on_empty_bank(self):
        pf = prefetcher(n_streams=2)
        assert pf.handle_miss(addr(5)) is Lookup.MISS
        assert pf.finalize().demand_misses == 1

    def test_hit_at_head(self):
        pf = with_stream(100)
        assert pf.handle_miss(addr(100)) is Lookup.HIT
        assert pf.finalize().stream_hits == 1

    def test_hit_advances_stream(self):
        pf = with_stream(100)
        pf.handle_miss(addr(100))
        assert pf.handle_miss(addr(101)) is Lookup.HIT
        assert pf.handle_miss(addr(102)) is Lookup.HIT

    def test_non_head_entry_is_a_miss(self):
        pf = with_stream(100, depth=4)
        assert pf.handle_miss(addr(102)) is Lookup.MISS

    def test_strided_stream_hits(self):
        pf = with_stream(100, stride=5)
        assert pf.handle_miss(addr(100)) is Lookup.HIT
        assert pf.handle_miss(addr(105)) is Lookup.HIT
        assert pf.handle_miss(addr(110)) is Lookup.HIT

    def test_parallel_streams(self):
        pf = prefetcher(n_streams=3)
        for block in (99, 499, 899):
            pf.handle_miss(addr(block))
        assert pf.handle_miss(addr(500)) is Lookup.HIT
        assert pf.handle_miss(addr(100)) is Lookup.HIT
        assert pf.handle_miss(addr(900)) is Lookup.HIT


class TestLRUReallocation:
    def test_allocate_replaces_least_recent(self):
        pf = prefetcher(n_streams=2)
        pf.handle_miss(addr(99))  # stream for 100, 101
        pf.handle_miss(addr(199))  # stream for 200, 201
        pf.handle_miss(addr(100))  # the 100-stream is now MRU
        pf.handle_miss(addr(299))  # must replace the stream holding 200
        assert pf.handle_miss(addr(101)) is Lookup.HIT  # 100-stream survived
        assert pf.handle_miss(addr(300)) is Lookup.HIT
        assert pf.handle_miss(addr(201)) is Lookup.MISS

    def test_lru_order_tracks_usage(self):
        pf = prefetcher(n_streams=3)
        pf.handle_miss(addr(9))  # allocates the LRU stream, 0
        pf.handle_miss(addr(19))  # then stream 1
        assert pf.lru_order() == [2, 0, 1]
        pf.handle_miss(addr(10))  # a hit on stream 0 makes it MRU
        assert pf.lru_order() == [2, 1, 0]

    def test_reallocation_records_stream_length(self):
        pf = with_stream(100, n_streams=1)
        for block in (100, 101, 102):
            pf.handle_miss(addr(block))
        pf.handle_miss(addr(499))  # closes the 3-hit stream
        stats = pf.finalize()
        assert stats.lengths.hits_by_bucket[(1, 5)] == 3
        assert stats.lengths.streams_by_bucket[(1, 5)] == 1

    def test_zero_length_streams_tracked(self):
        pf = with_stream(100, n_streams=1)
        pf.handle_miss(addr(499))
        assert pf.finalize().lengths.zero_length_streams == 2  # closed + active


class TestBandwidthAccounting:
    def test_allocation_issues_depth_prefetches(self):
        pf = with_stream(10, n_streams=2, depth=3)
        assert pf.finalize().prefetches_issued == 3

    def test_hit_issues_replacement_prefetch(self):
        pf = with_stream(100, depth=2)
        issued_before = pf.finalize().prefetches_issued
        pf.handle_miss(addr(100))
        stats = pf.finalize()
        assert stats.prefetches_issued == issued_before + 1
        assert stats.prefetches_used == 1

    def test_useless_prefetches(self):
        pf = with_stream(10, n_streams=1)
        pf.handle_miss(addr(10))
        pf.handle_miss(addr(98))  # flushes 2 outstanding entries
        stats = pf.finalize()
        assert stats.prefetches_issued == 5
        assert stats.bandwidth.useless_prefetches == stats.prefetches_issued - 1


class TestInvalidation:
    def test_writeback_invalidates_matching_entries(self):
        pf = with_stream(100, n_streams=2)
        assert pf.handle_writeback(addr(101)) == 1
        assert pf.finalize().invalidations == 1
        assert pf.window(0) == [(100, True), (101, False)]

    def test_invalidated_head_misses(self):
        pf = with_stream(100)
        pf.handle_writeback(addr(100))
        assert pf.handle_miss(addr(100)) is Lookup.MISS

    def test_invalidate_absent_block(self):
        pf = with_stream(100)
        assert pf.handle_writeback(addr(9999)) == 0


class TestMinLead:
    def test_fresh_prefetch_is_in_flight(self):
        pf = with_stream(100, min_lead=5)
        assert pf.handle_miss(addr(100)) is Lookup.IN_FLIGHT
        stats = pf.finalize()
        assert stats.stream_hits == 0
        # The entry is consumed (demand coalesces with the prefetch).
        assert stats.prefetches_used == 1

    def test_aged_prefetch_hits(self):
        pf = with_stream(100, min_lead=3)
        for block in (1000, 2000, 3000):  # three intervening misses
            pf.handle_miss(addr(block))
        assert pf.handle_miss(addr(100)) is Lookup.HIT

    def test_zero_min_lead_always_hits(self):
        pf = with_stream(100, min_lead=0)
        assert pf.handle_miss(addr(100)) is Lookup.HIT


class TestFinalize:
    def test_finalize_records_active_lengths(self):
        pf = with_stream(100, n_streams=2)
        pf.handle_miss(addr(100))
        assert pf.finalize().lengths.hits_by_bucket[(1, 5)] == 1

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_streams=0, depth=2)

    def test_properties(self):
        pf = prefetcher(n_streams=3, depth=4)
        assert pf.lru_order() == [0, 1, 2]
        assert [pf.window(i) for i in range(3)] == [[], [], []]
        pf.handle_miss(addr(9))
        assert len(pf.window(0)) == 4
