"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.cache import Cache, CacheConfig
from repro.caches.replacement import make_policy
from repro.core.config import StreamConfig
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import bucket_of
from repro.core.prefetcher import StreamPrefetcher
from repro.core.stride_fsm import StrideFsm
from repro.mem.address import AddressSpace
from repro.trace.compress import compress_consecutive
from repro.trace.events import Trace
from repro.trace.sampling import TimeSampler

# Bounded address universe keeps the state spaces meaningful: a handful
# of sets and enough aliasing to exercise every eviction path.
block_ids = st.integers(min_value=0, max_value=255)
block_seqs = st.lists(block_ids, min_size=1, max_size=300)
addr_seqs = st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300)


class TestCacheInvariants:
    @given(blocks=block_seqs, policy=st.sampled_from(["lru", "fifo", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_geometry(self, blocks, policy):
        config = CacheConfig(capacity=512, assoc=2, block_size=64, policy=policy)
        cache = Cache(config)
        for block in blocks:
            cache.access_block(block, is_write=block % 3 == 0)
        resident = cache.resident_blocks()
        assert len(resident) <= config.n_sets * config.assoc
        assert len(set(resident)) == len(resident)  # no duplicates

    @given(blocks=block_seqs, policy=st.sampled_from(["lru", "fifo", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_last_accessed_block_always_resident(self, blocks, policy):
        cache = Cache(CacheConfig(capacity=512, assoc=2, block_size=64, policy=policy))
        for block in blocks:
            cache.access_block(block)
            assert cache.probe(block * 64)

    @given(blocks=block_seqs)
    @settings(max_examples=60, deadline=None)
    def test_stats_identities(self, blocks):
        cache = Cache(CacheConfig(capacity=512, assoc=2, block_size=64, policy="lru"))
        for block in blocks:
            cache.access_block(block)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.read_misses + stats.write_misses == stats.misses
        assert stats.writebacks <= stats.misses  # at most one per install

    @given(blocks=block_seqs)
    @settings(max_examples=40, deadline=None)
    def test_inlined_lru_matches_reference_policy(self, blocks):
        """The cache's inlined LRU must agree with the standalone policy."""
        config = CacheConfig(capacity=256, assoc=4, block_size=64, policy="lru")
        cache = Cache(config)
        references = [make_policy("lru", 4) for _ in range(config.n_sets)]
        for block in blocks:
            set_index = block % config.n_sets
            reference = references[set_index]
            expect_hit = block in reference
            hit, _ = cache.access_block(block)
            assert hit == expect_hit
            if expect_hit:
                reference.touch(block)
            else:
                reference.insert(block)

    @given(blocks=block_seqs)
    @settings(max_examples=40, deadline=None)
    def test_writeback_only_for_previously_written_blocks(self, blocks):
        cache = Cache(CacheConfig(capacity=256, assoc=2, block_size=64, policy="lru"))
        written = set()
        for block in blocks:
            is_write = block % 2 == 0
            _, wb = cache.access_block(block, is_write)
            if is_write:
                written.add(block)
            if wb is not None:
                assert wb in written


class TestCompressionProperty:
    @given(addrs=addr_seqs)
    @settings(max_examples=40, deadline=None)
    def test_compression_preserves_misses(self, addrs):
        trace = Trace.uniform(np.asarray(addrs, dtype=np.int64))
        config = CacheConfig(capacity=512, assoc=2, block_size=64, policy="lru")
        full = Cache(config)
        full.simulate(trace)
        compressed = compress_consecutive(trace, AddressSpace())
        partial = Cache(config)
        partial.simulate(compressed.trace, weights=compressed.weights)
        assert full.stats.misses == partial.stats.misses
        assert full.stats.accesses == partial.stats.accesses
        assert int(compressed.weights.sum()) == len(trace)
        assert compressed.weights.min() >= 1


class TestStreamBankInvariants:
    @given(blocks=block_seqs)
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_accounting_identity(self, blocks):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=3))
        for block in blocks:
            pf.handle_miss(block << 6)
        stats = pf.finalize()
        assert stats.prefetches_used == stats.stream_hits
        assert 0 <= stats.bandwidth.useless_prefetches <= stats.prefetches_issued
        # Every allocation issued a full window; every hit one more.
        assert stats.prefetches_issued == 2 * stats.allocations + stats.stream_hits
        # The snapshot flushed nothing: the active windows are intact.
        assert all(len(pf.window(i)) in (0, 2) for i in range(3))

    @given(blocks=block_seqs)
    @settings(max_examples=60, deadline=None)
    def test_lru_order_is_a_permutation(self, blocks):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=4))
        for block in blocks:
            pf.handle_miss(block << 6)
            assert sorted(pf.lru_order()) == [0, 1, 2, 3]

    @given(blocks=block_seqs)
    @settings(max_examples=60, deadline=None)
    def test_length_histogram_conserves_hits(self, blocks):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        for block in blocks:
            pf.handle_miss(block << 6)
        stats = pf.finalize()
        assert stats.lengths.total_hits == stats.stream_hits
        assert stats.lengths.total_streams == stats.allocations


class TestPrefetcherInvariants:
    @given(
        blocks=block_seqs,
        entries=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_filtered_never_issues_more_than_unfiltered(self, blocks, entries):
        from repro.caches.cache import MissTrace

        arr = np.asarray(blocks, dtype=np.int64) << 6
        kinds = np.zeros(len(blocks), dtype=np.uint8)
        mt = MissTrace(arr, kinds, 6)
        plain = StreamPrefetcher(StreamConfig.jouppi(n_streams=3)).run(mt)
        filtered = StreamPrefetcher(
            StreamConfig.filtered(n_streams=3, entries=entries)
        ).run(MissTrace(arr, kinds, 6))
        assert filtered.prefetches_issued <= plain.prefetches_issued
        assert filtered.allocations <= plain.allocations

    @given(blocks=block_seqs)
    @settings(max_examples=40, deadline=None)
    def test_stats_identities(self, blocks):
        from repro.caches.cache import MissTrace

        arr = np.asarray(blocks, dtype=np.int64) << 6
        mt = MissTrace(arr, np.zeros(len(blocks), dtype=np.uint8), 6)
        stats = StreamPrefetcher(StreamConfig.jouppi(n_streams=3)).run(mt)
        assert stats.demand_misses == len(blocks)
        assert stats.stream_hits + stats.stream_misses == stats.demand_misses
        assert stats.prefetches_used <= stats.prefetches_issued
        assert 0.0 <= stats.hit_rate <= 1.0


class TestFilterInvariants:
    @given(blocks=block_seqs, entries=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, blocks, entries):
        filt = UnitStrideFilter(entries)
        for block in blocks:
            filt.observe(block)
            assert len(filt) <= entries

    @given(blocks=block_seqs)
    @settings(max_examples=60, deadline=None)
    def test_hit_implies_prior_predecessor_miss(self, blocks):
        filt = UnitStrideFilter(64)  # big enough to never evict here
        seen = set()
        for block in blocks:
            allocated = filt.observe(block)
            if allocated:
                assert block - 1 in seen
            seen.add(block)


class TestFsmProperty:
    @given(
        start=st.integers(min_value=0, max_value=1 << 20),
        stride=st.integers(min_value=-4096, max_value=4096).filter(lambda s: s != 0),
    )
    @settings(max_examples=80, deadline=None)
    def test_three_strided_refs_always_verify(self, start, stride):
        fsm = StrideFsm()
        assert fsm.observe(start) is None
        assert fsm.observe(start + stride) is None
        assert fsm.observe(start + 2 * stride) == stride


class TestSamplerProperty:
    @given(
        n=st.integers(min_value=0, max_value=5000),
        on=st.integers(min_value=1, max_value=50),
        off=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_length_matches_mask(self, n, on, off):
        sampler = TimeSampler(on_window=on, off_window=off)
        trace = Trace.uniform(np.arange(n, dtype=np.int64))
        sampled = sampler.sample(trace)
        expected = int(sampler.mask(n).sum()) if n else 0
        assert len(sampled) == expected
        # Sampling keeps at least the ratio's floor share of accesses.
        assert len(sampled) >= int(n * sampler.sampling_ratio) - on


class TestBucketProperty:
    @given(length=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_length_has_exactly_one_bucket(self, length):
        low, high = bucket_of(length)
        assert low <= length
        if high:
            assert length <= high
