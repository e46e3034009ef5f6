"""Vectorized batch engine (repro.sim.vector) tests.

Support-envelope gating, batch-boundary edge cases (empty/single-event
traces, runs crossing set boundaries), bit-identity against the scalar
cache, stream replay through the one prefetcher engine (both of its
loops against the oracle), and the cached trace kind flags.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace
from repro.caches.secondary import simulate_secondary
from repro.check import differ
from repro.check import invariants as _inv
from repro.check.oracle import RefStreamPrefetcher
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import StreamPrefetcher
from repro.sim import vector
from repro.trace.events import AccessKind, Trace


def _trace(addrs, kinds=None):
    addrs = np.asarray(addrs, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return Trace(addrs, np.asarray(kinds, dtype=np.uint8))


def _miss_trace(addrs, kinds=None, block_bits=6):
    addrs = np.asarray(addrs, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return MissTrace(addrs, np.asarray(kinds, dtype=np.uint8), block_bits)


def _wb_config(**overrides):
    base = dict(
        capacity=4 * 1024,
        assoc=2,
        block_size=32,
        policy="lru",
        write_back=True,
        write_allocate=True,
        seed=7,
    )
    base.update(overrides)
    return CacheConfig(**base)


def _assert_l1_identical(config, trace):
    vectorized = vector.vector_simulate_cache(config, trace)
    assert vectorized is not None
    vec_trace, vec_stats = vectorized
    scalar = Cache(config)
    ref_trace = scalar.simulate(trace)
    assert np.array_equal(vec_trace.addrs, ref_trace.addrs)
    assert np.array_equal(vec_trace.kinds, ref_trace.kinds)
    assert vec_stats == scalar.stats


class TestL1Gating:
    def test_write_through_falls_back(self):
        config = _wb_config(write_back=False)
        assert vector.vector_simulate_cache(config, _trace([0, 32])) is None
        assert not vector.cache_vector_supported(config, _trace([0]))

    def test_no_write_allocate_falls_back(self):
        config = _wb_config(write_allocate=False)
        assert vector.vector_simulate_cache(config, _trace([0, 32])) is None

    def test_pc_carrying_trace_falls_back(self):
        addrs = np.asarray([0, 32], dtype=np.int64)
        trace = Trace(
            addrs,
            np.zeros(2, dtype=np.uint8),
            pcs=np.asarray([4, 8], dtype=np.int64),
        )
        assert vector.vector_simulate_cache(_wb_config(), trace) is None

    def test_repro_check_stand_down(self, monkeypatch):
        monkeypatch.setattr(_inv, "ENABLED", True)
        config = _wb_config()
        trace = _trace([0, 32, 64])
        assert vector.vector_simulate_cache(config, trace) is None
        assert not vector.cache_vector_supported(config, trace)
        # force=True (the differ's escape hatch) keeps the engine live.
        assert vector.vector_simulate_cache(config, trace, force=True) is not None


class TestL1EdgeCases:
    def test_empty_trace(self):
        vectorized = vector.vector_simulate_cache(_wb_config(), _trace([]))
        assert vectorized is not None
        miss_trace, stats = vectorized
        assert len(miss_trace) == 0
        assert stats.accesses == 0
        assert stats.misses == 0

    def test_single_access(self):
        config = _wb_config()
        _assert_l1_identical(config, _trace([0x1234]))
        vec_trace, stats = vector.vector_simulate_cache(config, _trace([0x1234]))
        assert stats.accesses == 1 and stats.misses == 1 and stats.hits == 0
        assert vec_trace.kinds.tolist() == [int(MissEventKind.READ_MISS)]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_run_crossing_set_boundary(self, policy):
        # A unit-stride walk whose same-set runs are length one but whose
        # block runs wrap across the set index boundary; consecutive
        # same-block accesses must still collapse, block transitions not.
        config = _wb_config(policy=policy, capacity=1024, assoc=1, block_size=32)
        step = 8
        addrs = [i * step for i in range(600)]  # crosses every set repeatedly
        kinds = [int(AccessKind.WRITE) if i % 5 == 0 else 0 for i in range(600)]
        _assert_l1_identical(config, _trace(addrs, kinds))

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_dirty_run_collapse(self, policy):
        # Reads then a write inside one same-block run: the run's install
        # must be dirty and produce exactly one eventual write-back.
        config = _wb_config(policy=policy, capacity=64, assoc=1, block_size=32)
        addrs = [0, 4, 8, 12, 64, 0]  # write at 8; 64 evicts set 0... (1 set? no)
        kinds = [0, 0, int(AccessKind.WRITE), 0, 0, 0]
        _assert_l1_identical(config, _trace(addrs, kinds))

    def test_ifetch_treated_as_read(self):
        config = _wb_config()
        addrs = [i * 32 for i in range(40)] * 2
        kinds = [int(AccessKind.IFETCH) if i % 3 == 0 else 0 for i in range(80)]
        _assert_l1_identical(config, _trace(addrs, kinds))

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_random_traces_identical(self, policy):
        rng = random.Random(1234)
        for seed in range(3):
            config = replace(
                differ.random_cache_config(random.Random(seed)),
                policy=policy,
                write_back=True,
                write_allocate=True,
            )
            trace = differ.random_trace(rng, 1500)
            _assert_l1_identical(config, trace)

    def test_seed_reproducibility(self):
        # Two invocations of the vector engine consume fresh, identical
        # RNG streams — bit-equal outputs, no hidden state.
        config = _wb_config(policy="random", seed=99)
        trace = differ.random_trace(random.Random(5), 2000)
        a_trace, a_stats = vector.vector_simulate_cache(config, trace)
        b_trace, b_stats = vector.vector_simulate_cache(config, trace)
        assert np.array_equal(a_trace.addrs, b_trace.addrs)
        assert np.array_equal(a_trace.kinds, b_trace.kinds)
        assert a_stats == b_stats


def _assert_matches_oracle(stats, config, miss_trace):
    ref = RefStreamPrefetcher(config).run(
        miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    )
    for name, got, expected in differ._stats_counter_pairs(stats, ref):
        assert got == expected, name


def _drive_per_event(config, miss_trace):
    prefetcher = StreamPrefetcher(config)
    for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
        if kind == int(MissEventKind.WRITEBACK):
            prefetcher.handle_writeback(addr)
        else:
            prefetcher.handle_miss(addr, is_ifetch=kind == int(MissEventKind.IFETCH_MISS))
    return prefetcher.finalize()


def _refuse(self, miss_trace):
    raise AssertionError("the flat loop ran")


class TestStreamReplay:
    """``replay_streams`` runs every configuration through
    :meth:`StreamPrefetcher.run`: its flat loop for one unified,
    head-only, zero-latency lane, the general lane loop otherwise."""

    def _flat_config(self, **overrides):
        base = StreamConfig.filtered(n_streams=4)
        return replace(base, **overrides) if overrides else base

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(partitioned=True, i_streams=2),
            dict(lookup_depth=2),
            dict(min_lead=1),
            dict(partitioned=True, lookup_depth=2, min_lead=2),
        ],
    )
    def test_unsupported_configs_fall_back(self, overrides, monkeypatch):
        config = self._flat_config(**overrides)
        mt = differ.random_miss_trace(random.Random(1), 1500)
        monkeypatch.setattr(StreamPrefetcher, "_run_flat", _refuse)
        stats = vector.replay_streams(config, mt)
        _assert_matches_oracle(stats, config, mt)

    @pytest.mark.parametrize("detector", [StrideDetector.CZONE, StrideDetector.MIN_DELTA])
    def test_stride_detectors_take_the_flat_loop(self, detector, monkeypatch):
        config = self._flat_config(stride_detector=detector)
        mt = differ.random_miss_trace(random.Random(2), 1500)
        monkeypatch.setattr(StreamPrefetcher, "_run_general", _refuse)
        stats = vector.replay_streams(config, mt)
        assert stats.detector_hits > 0
        _assert_matches_oracle(stats, config, mt)

    def test_block_bits_mismatch_raises(self):
        config = self._flat_config()
        with pytest.raises(ValueError, match="block_bits"):
            vector.replay_streams(config, _miss_trace([0], block_bits=7))

    def test_empty_and_single_event(self):
        config = self._flat_config()
        for mt in (_miss_trace([]), _miss_trace([0x1000])):
            assert vector.replay_streams(config, mt) == _drive_per_event(config, mt)

    def test_mixed_writeback_ifetch_stream(self):
        # Sequential run, an ifetch miss inside it, then a write-back
        # invalidating a prefetched block mid-window.
        config = self._flat_config()
        block = 64
        addrs = [i * block for i in range(8)]
        kinds = [int(MissEventKind.READ_MISS)] * 8
        kinds[3] = int(MissEventKind.IFETCH_MISS)
        addrs.append(5 * block)  # invalidate an in-window block
        kinds.append(int(MissEventKind.WRITEBACK))
        addrs += [i * block for i in range(8, 14)]
        kinds += [int(MissEventKind.READ_MISS)] * 6
        mt = _miss_trace(addrs, kinds)
        stats = vector.replay_streams(config, mt)
        assert stats == _drive_per_event(config, mt)
        assert stats.writebacks == 1 and stats.ifetch_misses == 1

    @pytest.mark.parametrize("n_streams,depth", [(1, 1), (4, 4), (10, 2)])
    def test_random_miss_traces_identical(self, n_streams, depth):
        config = StreamConfig.jouppi(n_streams=n_streams, depth=depth)
        for seed in range(3):
            mt = differ.random_miss_trace(random.Random(seed), 1200)
            _assert_matches_oracle(vector.replay_streams(config, mt), config, mt)

    def test_repro_check_stand_down(self, monkeypatch):
        # Under REPRO_CHECK the bulk run stands down to the general loop,
        # whose lane operations run the per-operation invariants.
        config = self._flat_config()
        mt = differ.random_miss_trace(random.Random(3), 800)
        unchecked = vector.replay_streams(config, mt)
        monkeypatch.setattr(_inv, "ENABLED", True)
        monkeypatch.setattr(StreamPrefetcher, "_run_flat", _refuse)
        assert vector.replay_streams(config, mt) == unchecked


class TestSecondaryProbe:
    def test_unsupported_policy_domain_falls_back(self):
        assert (
            vector.vector_simulate_secondary(
                _miss_trace([0]), _wb_config(write_back=False)
            )
            is None
        )

    def test_bad_sample_every_raises(self):
        with pytest.raises(ValueError, match="sample_every"):
            vector.vector_simulate_secondary(
                _miss_trace([0]), _wb_config(), sample_every=0
            )

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("sample_every", [1, 4])
    def test_identical_to_scalar(self, policy, sample_every):
        config = _wb_config(policy=policy, capacity=16 * 1024, assoc=2, block_size=64)
        for seed in range(3):
            mt = differ.random_miss_trace(random.Random(seed), 1500)
            vec = vector.vector_simulate_secondary(mt, config, sample_every=sample_every)
            ref = simulate_secondary(mt, config, sample_every=sample_every)
            assert vec == ref

    def test_empty_miss_trace(self):
        config = _wb_config()
        vec = vector.vector_simulate_secondary(_miss_trace([]), config)
        ref = simulate_secondary(_miss_trace([]), config)
        assert vec == ref


class TestCachedKindFlags:
    def test_trace_has_ifetch(self):
        assert not _trace([0, 4]).has_ifetch
        assert _trace([0, 4], [0, int(AccessKind.IFETCH)]).has_ifetch

    def test_miss_trace_flags(self):
        mt = _miss_trace(
            [0, 64, 128],
            [
                int(MissEventKind.READ_MISS),
                int(MissEventKind.WRITEBACK),
                int(MissEventKind.IFETCH_MISS),
            ],
        )
        assert mt.has_writebacks and mt.has_ifetch_misses
        plain = _miss_trace([0, 64])
        assert not plain.has_writebacks and not plain.has_ifetch_misses

    def test_flags_cached_per_instance(self):
        mt = _miss_trace([0, 64])
        assert mt.has_writebacks is mt.has_writebacks  # cached bool, no rescan
        assert "_kind_flags" in mt.__dict__
