"""Tests for repro.sim.system (per-access MemorySystem)."""

import numpy as np
import pytest

from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.sim.system import MemorySystem, ServiceLevel
from repro.trace.events import AccessKind, Trace


def small_system(**stream_kwargs):
    l1 = CacheConfig(capacity=4096, assoc=2, block_size=64, policy="lru")
    return MemorySystem(l1, StreamConfig.jouppi(n_streams=4).with_(**stream_kwargs))


class TestServiceLevels:
    def test_cold_miss_goes_to_memory(self):
        system = small_system()
        assert system.access(0) is ServiceLevel.MEMORY

    def test_second_access_hits_l1(self):
        system = small_system()
        system.access(0)
        assert system.access(0) is ServiceLevel.L1

    def test_sequential_walk_hits_streams(self):
        system = small_system()
        levels = [system.access(block * 64) for block in range(64)]
        assert levels[0] is ServiceLevel.MEMORY
        assert all(level is ServiceLevel.STREAM for level in levels[1:])

    def test_stats_accumulate(self):
        system = small_system()
        for block in range(10):
            system.access(block * 64)
        stats = system.stats
        assert stats.references == 10
        assert stats.memory_fetches == 1
        assert stats.stream_hits == 9

    def test_serviced_on_chip_fraction(self):
        system = small_system()
        for block in range(100):
            system.access(block * 64)
        assert system.stats.serviced_on_chip_fraction > 0.9


class TestWritebackCoherence:
    def test_writeback_invalidates_stream_copies(self):
        system = small_system()
        n_sets = system.l1.config.n_sets
        # Prime a stream prefetching block 2 and 3.
        system.access(1 * 64)
        # Dirty a block that aliases ahead of the stream and force its
        # eviction so a write-back for block 2 travels to memory.
        system.access(2 * 64, AccessKind.WRITE)
        system.access((2 + n_sets) * 64)
        system.access((2 + 2 * n_sets) * 64)  # evicts dirty block 2
        assert system.stats.writebacks >= 1
        # Block 2's stream copy is now stale: a re-access must go to memory.
        level = system.access(2 * 64)
        assert level in (ServiceLevel.MEMORY, ServiceLevel.L1)

    def test_amat_monotone_in_memory_time(self):
        system = small_system()
        for block in range(50):
            system.access(block * 64)
        fast = system.stats.amat(memory_time=20.0)
        slow = system.stats.amat(memory_time=100.0)
        assert slow > fast

    def test_amat_empty(self):
        assert small_system().stats.amat() == 0.0


class TestRunTrace:
    def test_run_counts_every_reference(self):
        system = small_system()
        trace = Trace.uniform(np.arange(256, dtype=np.int64) * 8)
        stats = system.run(trace)
        assert stats.references == 256

    def test_stream_stats_accessible(self):
        system = small_system()
        system.run(Trace.uniform(np.arange(64, dtype=np.int64) * 64))
        stream_stats = system.stream_stats()
        assert stream_stats.demand_misses == system.stats.memory_fetches + system.stats.stream_hits

    def test_mid_run_stream_stats_do_not_change_the_run(self):
        def walk(peek_at=None):
            system = MemorySystem(stream_config=StreamConfig.filtered(n_streams=4))
            for block in range(64):
                if block == peek_at:
                    system.stream_stats()
                system.access(block * 64)
            return system.stream_stats()

        final = walk()
        assert (final.stream_hits, final.allocations) == (62, 1)
        assert walk(peek_at=20) == final


class TestConfigValidation:
    def test_block_bits_must_agree(self):
        l1 = CacheConfig(capacity=4096, assoc=2, block_size=128, policy="lru")
        with pytest.raises(ValueError):
            MemorySystem(l1, StreamConfig.jouppi())

    def test_defaults_are_paper(self):
        system = MemorySystem()
        assert system.l1.config.capacity == 64 * 1024
        assert system.prefetcher.config.has_unit_filter
