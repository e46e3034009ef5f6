"""Tests for the quasi-associative lookup extension (lookup_depth)."""

import numpy as np
import pytest

from repro.caches.cache import MissTrace
from repro.core.config import StreamConfig
from repro.core.prefetcher import Lookup, StreamPrefetcher


def make_mt(blocks):
    arr = np.asarray(blocks, dtype=np.int64) << 6
    return MissTrace(arr, np.zeros(len(blocks), dtype=np.uint8), 6)


def stream_at(start, depth=4, lookup_depth=4, n_streams=1):
    """A prefetcher with one stream prefetching ``start``, ``start + 1``..."""
    pf = StreamPrefetcher(
        StreamConfig(n_streams=n_streams, depth=depth, lookup_depth=lookup_depth)
    )
    pf.handle_miss((start - 1) << 6)
    return pf


def blocks(pf):
    return [block for block, _ in pf.window(0)]


class TestStreamBufferFindSkip:
    def test_find_positions(self):
        assert stream_at(100).handle_miss(100 << 6) is Lookup.HIT
        assert stream_at(100).handle_miss(102 << 6) is Lookup.HIT
        # Beyond the comparator window: a miss, which reallocates.
        assert stream_at(100, lookup_depth=2).handle_miss(102 << 6) is Lookup.MISS
        assert stream_at(100).handle_miss(999 << 6) is Lookup.MISS

    def test_find_skips_invalid_entries(self):
        pf = stream_at(100)
        pf.handle_writeback(101 << 6)
        assert pf.handle_miss(101 << 6) is Lookup.MISS

    def test_find_inactive(self):
        pf = StreamPrefetcher(StreamConfig(n_streams=1, depth=2, lookup_depth=2))
        assert pf.handle_miss(0) is Lookup.MISS

    def test_skip_drops_head_entries(self):
        pf = stream_at(100)
        pf.handle_miss(102 << 6)  # skips 100, 101, then consumes 102
        assert blocks(pf)[0] == 103

    def test_skip_bounds(self):
        # A match may sit at most lookup_depth - 1 entries behind the head.
        assert stream_at(100, lookup_depth=2).handle_miss(101 << 6) is Lookup.HIT
        assert stream_at(100, lookup_depth=2).handle_miss(102 << 6) is Lookup.MISS

    def test_refill_tops_up_to_depth(self):
        pf = stream_at(100)
        pf.handle_miss(103 << 6)  # skips 3, refills 104-106, consumes 103 (+107)
        assert blocks(pf) == [104, 105, 106, 107]
        assert pf.finalize().prefetches_issued == 4 + 3 + 1

    def test_refill_inactive_raises(self):
        pf = StreamPrefetcher(StreamConfig(n_streams=2, depth=4, lookup_depth=4))
        pf.handle_miss(0)  # the deep scan passes the inactive streams by
        assert pf.finalize().prefetches_issued == 4  # the allocation only


class TestBankDeepLookup:
    def test_head_only_misses_skipped_block(self):
        assert stream_at(100, lookup_depth=1).handle_miss(102 << 6) is Lookup.MISS

    def test_deep_lookup_skips_ahead(self):
        pf = stream_at(100)
        assert pf.handle_miss(102 << 6) is Lookup.HIT
        # The stream advanced past the skipped entries.
        assert pf.handle_miss(103 << 6) is Lookup.HIT

    def test_skipped_prefetches_counted_as_waste(self):
        pf = stream_at(100)
        pf.handle_miss(102 << 6)  # skips 100, 101
        assert pf.finalize().bandwidth.useless_prefetches >= 2

    def test_lookup_depth_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_streams=1, depth=2, lookup_depth=3)
        with pytest.raises(ValueError):
            StreamConfig(n_streams=1, depth=2, lookup_depth=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(depth=2, lookup_depth=3)


class TestGappyStreamRecovery:
    """The motivating case: lucky L1 hits punch holes in a sweep."""

    @staticmethod
    def gappy_blocks(n=600, hole_every=7):
        return [b for b in range(100, 100 + n) if b % hole_every != 0]

    def test_head_only_fragments(self):
        blocks = self.gappy_blocks()
        head_only = StreamPrefetcher(
            StreamConfig(n_streams=4, depth=4, lookup_depth=1)
        ).run(make_mt(blocks))
        deep = StreamPrefetcher(
            StreamConfig(n_streams=4, depth=4, lookup_depth=4)
        ).run(make_mt(blocks))
        # Every hole costs the head-only configuration a miss (the
        # reallocation restarts the stream); deep lookup skips over it.
        assert deep.hit_rate > head_only.hit_rate + 0.1
        assert deep.hit_rate > 0.99

    def test_deep_lookup_never_hurts_hit_rate(self):
        for blocks in (list(range(100, 200)), self.gappy_blocks(), [5, 900, 17, 4000]):
            shallow = StreamPrefetcher(
                StreamConfig(n_streams=4, depth=4, lookup_depth=1)
            ).run(make_mt(blocks))
            deep = StreamPrefetcher(
                StreamConfig(n_streams=4, depth=4, lookup_depth=4)
            ).run(make_mt(blocks))
            assert deep.stream_hits >= shallow.stream_hits
