"""Tests for repro.core.prefetcher (the assembled system)."""

import numpy as np
import pytest

from repro.caches.cache import MissEventKind, MissTrace
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import Lookup, StreamPrefetcher


def make_miss_trace(blocks, kinds=None, block_bits=6):
    blocks = np.asarray(blocks, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(blocks.shape[0], dtype=np.uint8)
    return MissTrace(blocks << block_bits, np.asarray(kinds, dtype=np.uint8), block_bits)


class TestUnfilteredPolicy:
    def test_every_stream_miss_allocates(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.handle_miss(100 << 6)
        pf.handle_miss(500 << 6)
        stats = pf.finalize()
        assert stats.allocations == 2

    def test_sequential_misses_hit_after_first(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        outcomes = [pf.handle_miss(block << 6) for block in range(100, 110)]
        assert outcomes[0] is Lookup.MISS
        assert all(o is Lookup.HIT for o in outcomes[1:])

    def test_run_over_miss_trace(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        stats = pf.run(make_miss_trace(range(100, 200)))
        assert stats.demand_misses == 100
        assert stats.stream_hits == 99
        assert stats.hit_rate == pytest.approx(0.99)

    def test_block_bits_mismatch_rejected(self):
        pf = StreamPrefetcher(StreamConfig.jouppi())
        with pytest.raises(ValueError):
            pf.run(make_miss_trace([1, 2], block_bits=7))


class TestFilteredPolicy:
    def test_isolated_misses_never_allocate(self):
        pf = StreamPrefetcher(StreamConfig.filtered(n_streams=2))
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 1 << 20, size=200)
        stats = pf.run(make_miss_trace(blocks))
        assert stats.allocations == 0
        assert stats.prefetches_issued == 0

    def test_two_consecutive_misses_start_stream(self):
        pf = StreamPrefetcher(StreamConfig.filtered(n_streams=2))
        assert pf.handle_miss(100 << 6) is Lookup.MISS
        assert pf.handle_miss(101 << 6) is Lookup.MISS  # allocates for 102+
        assert pf.handle_miss(102 << 6) is Lookup.HIT

    def test_filter_pays_two_miss_preamble(self):
        pf = StreamPrefetcher(StreamConfig.filtered(n_streams=2))
        stats = pf.run(make_miss_trace(range(100, 200)))
        assert stats.stream_hits == 98
        assert stats.unit_filter_hits == 1

    def test_filter_reduces_bandwidth_on_random_trace(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 1 << 20, size=500)
        plain = StreamPrefetcher(StreamConfig.jouppi()).run(make_miss_trace(blocks))
        filtered = StreamPrefetcher(StreamConfig.filtered()).run(make_miss_trace(blocks))
        assert filtered.bandwidth.eb_measured < plain.bandwidth.eb_measured / 5


class TestStrideDetection:
    def test_czone_catches_constant_stride(self):
        config = StreamConfig.non_unit(n_streams=2, czone_bits=16)
        pf = StreamPrefetcher(config)
        blocks = [1 << 14] * 1
        stats = pf.run(make_miss_trace(np.arange(100) * 16 + (1 << 14)))
        # After the three-miss FSM preamble everything hits.
        assert stats.stream_hits >= 96
        assert stats.detector_hits >= 1

    def test_min_delta_detector_variant(self):
        config = StreamConfig(
            n_streams=2,
            unit_filter_entries=16,
            stride_detector=StrideDetector.MIN_DELTA,
        )
        pf = StreamPrefetcher(config)
        stats = pf.run(make_miss_trace(np.arange(100) * 16 + (1 << 14)))
        assert stats.stream_hits >= 90

    def test_unit_filter_takes_priority(self):
        config = StreamConfig.non_unit(n_streams=2)
        pf = StreamPrefetcher(config)
        stats = pf.run(make_miss_trace(range(100, 130)))
        assert stats.unit_filter_hits == 1
        assert stats.detector_hits == 0


class TestWritebacks:
    def test_writeback_counts_and_invalidates(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.handle_miss(100 << 6)  # stream prefetching 101, 102
        assert pf.handle_writeback(101 << 6) == 1
        stats = pf.finalize()
        assert stats.writebacks == 1
        assert stats.invalidations == 1

    def test_stale_entry_does_not_hit(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.handle_miss(100 << 6)
        pf.handle_writeback(101 << 6)
        assert pf.handle_miss(101 << 6) is Lookup.MISS

    def test_run_routes_writeback_events(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        mt = make_miss_trace(
            [100, 101, 50],
            kinds=[0, 0, int(MissEventKind.WRITEBACK)],
        )
        stats = pf.run(mt)
        assert stats.demand_misses == 2
        assert stats.writebacks == 1


class TestPartitionedStreams:
    def test_ifetch_misses_use_their_own_bank(self):
        config = StreamConfig(n_streams=2, partitioned=True, i_streams=2)
        pf = StreamPrefetcher(config)
        pf.handle_miss(100 << 6, is_ifetch=False)  # data bank: 101, 102
        # An I-miss on 101 must NOT hit the data bank's prefetch.
        assert pf.handle_miss(101 << 6, is_ifetch=True) is Lookup.MISS
        stats = pf.finalize()
        assert stats.ifetch_misses == 1

    def test_unified_default_shares_one_bank(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.handle_miss(100 << 6, is_ifetch=False)
        assert pf.handle_miss(101 << 6, is_ifetch=True) is Lookup.HIT

    def test_partitioned_counts_both_lanes(self):
        config = StreamConfig(n_streams=2, partitioned=True, i_streams=1)
        pf = StreamPrefetcher(config)
        for block in range(100, 105):
            pf.handle_miss(block << 6, is_ifetch=False)
        for block in range(900, 905):
            pf.handle_miss(block << 6, is_ifetch=True)
        stats = pf.finalize()
        assert stats.demand_misses == 10
        assert stats.stream_hits == 8  # 4 per lane


class TestMinLeadExtension:
    def test_min_lead_depresses_hit_rate(self):
        plain = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        lagged = StreamPrefetcher(StreamConfig.jouppi(n_streams=2).with_(min_lead=3))
        mt = make_miss_trace(range(100, 200))
        fast = plain.run(mt)
        slow = lagged.run(make_miss_trace(range(100, 200)))
        assert slow.stream_hits < fast.stream_hits
        assert slow.in_flight_matches > 0

    def test_in_flight_matches_not_double_counted(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2).with_(min_lead=100))
        stats = pf.run(make_miss_trace(range(100, 150)))
        assert stats.stream_hits == 0
        assert stats.in_flight_matches == 49


class TestDemandOnlyFastPath:
    """``run`` takes a dispatch-free path for traces with no WB/ifetch
    events; it must be observationally identical to per-event driving."""

    def drive_manually(self, config, mt):
        pf = StreamPrefetcher(config)
        for addr in mt.addrs.tolist():
            pf.handle_miss(addr)
        return pf.finalize()

    @pytest.mark.parametrize(
        "config",
        [
            StreamConfig.jouppi(n_streams=2),
            StreamConfig.filtered(n_streams=2),
            StreamConfig.jouppi(n_streams=2).with_(min_lead=3),
        ],
        ids=["jouppi", "filtered", "min_lead"],
    )
    def test_fast_path_matches_event_api(self, config):
        rng = np.random.default_rng(3)
        blocks = np.concatenate(
            [np.arange(100, 150), rng.integers(0, 1 << 20, size=50)]
        )
        mt = make_miss_trace(blocks)
        assert not np.any(mt.kinds)  # demand-only: fast path taken
        assert StreamPrefetcher(config).run(mt) == self.drive_manually(config, mt)

    def test_single_writeback_disables_fast_path_consistently(self):
        # The same demand stream with one trailing WB must differ only in
        # the WB-related counters — the hit counters stay in agreement.
        blocks = list(range(100, 150))
        demand_only = StreamPrefetcher(StreamConfig.jouppi(n_streams=2)).run(
            make_miss_trace(blocks)
        )
        with_wb = StreamPrefetcher(StreamConfig.jouppi(n_streams=2)).run(
            make_miss_trace(blocks + [9999], kinds=[0] * 50 + [int(MissEventKind.WRITEBACK)])
        )
        assert with_wb.writebacks == 1
        assert with_wb.demand_misses == demand_only.demand_misses
        assert with_wb.stream_hits == demand_only.stream_hits


class TestStats:
    def test_stream_misses_property(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        stats = pf.run(make_miss_trace(range(100, 110)))
        assert stats.stream_misses == stats.demand_misses - stats.stream_hits

    def test_hit_rate_zero_when_no_misses(self):
        pf = StreamPrefetcher(StreamConfig.jouppi())
        stats = pf.finalize()
        assert stats.hit_rate == 0.0

    def test_finalize_idempotent(self):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.run(make_miss_trace(range(100, 110)))
        first = pf.finalize()
        second = pf.finalize()
        assert first.prefetches_issued == second.prefetches_issued
        assert first.lengths.total_hits == second.lengths.total_hits

    def test_finalize_is_a_read_only_snapshot(self):
        # A mid-run peek must not flush active streams: the rest of the
        # run, and the final statistics, are the same without it.
        config = StreamConfig.filtered(n_streams=4)
        blocks = list(range(100, 164))
        plain = StreamPrefetcher(config).run(make_miss_trace(blocks))
        peeked = StreamPrefetcher(config)
        for block in blocks[:20]:
            peeked.handle_miss(block << 6)
        mid = peeked.finalize()
        assert mid.lengths.total_streams == mid.allocations == 1
        for block in blocks[20:]:
            peeked.handle_miss(block << 6)
        first = peeked.finalize()
        assert first == plain
        assert peeked.finalize() == first
        assert (plain.stream_hits, plain.allocations) == (62, 1)
