"""Runtime-invariant machinery plus the bugfix-satellite regressions:
thread-safe trace cache, canonical scale keys/digests, and zero-length
edge cases."""

import threading

import numpy as np
import pytest

from repro.caches.cache import Cache, CacheConfig, MissTrace
from repro.check import invariants
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamPrefetcher
from repro.sim.runner import MissTraceCache, default_cache, resolve_workload_ref
from repro.trace.events import Trace
from repro.trace.store import canonical_scale, trace_digest


@pytest.fixture
def checking():
    previous = invariants.set_enabled(True)
    yield
    invariants.set_enabled(previous)


class TestInvariantMachinery:
    def test_disabled_by_default_without_env(self):
        # conftest doesn't set REPRO_CHECK; the suite runs with checks off.
        assert isinstance(invariants.ENABLED, bool)

    def test_set_enabled_round_trip(self):
        previous = invariants.set_enabled(True)
        assert invariants.ENABLED is True
        invariants.set_enabled(previous)
        assert invariants.ENABLED is previous

    def test_invariant_raises_with_formatting(self):
        with pytest.raises(invariants.InvariantError, match="depth 3 > 2"):
            invariants.invariant(False, "depth %d > %d", 3, 2)
        invariants.invariant(True, "never evaluated %d", 1)

    def test_invariant_error_is_assertion_error(self):
        assert issubclass(invariants.InvariantError, AssertionError)


class TestGatedChecks:
    def test_cache_simulate_checks_pass(self, checking):
        rng = np.random.default_rng(0)
        trace = Trace(
            rng.integers(0, 1 << 14, size=400, dtype=np.int64),
            rng.integers(0, 2, size=400).astype(np.uint8),
        )
        cache = Cache(CacheConfig(capacity=1024, assoc=2, block_size=64))
        cache.simulate(trace)  # must not raise

    def test_cache_detects_corrupted_slots(self, checking):
        cache = Cache(CacheConfig(capacity=1024, assoc=2, block_size=64, policy="random"))
        cache.access_block(1)
        cache._slots[1].append(999)  # corrupt the slot mirror
        with pytest.raises(invariants.InvariantError, match="slot list"):
            cache.check_set_invariants(1)

    def test_bank_checks_pass_and_detect_corruption(self, checking):
        pf = StreamPrefetcher(StreamConfig.jouppi(n_streams=2))
        pf.handle_miss(9 << 6)  # every lane operation runs the checks
        pf.handle_miss(10 << 6)
        pf.handle_writeback(11 << 6)
        lane = pf._data_lane
        lane.lru[:] = [0, 0]  # corrupt the LRU list
        with pytest.raises(invariants.InvariantError, match="LRU"):
            pf.handle_miss(500 << 6)
        lane.lru[:] = [1, 0]
        lane.check_invariants()
        lane.head_count[12] = 2  # a head counted twice
        with pytest.raises(invariants.InvariantError, match="head multiset"):
            lane.check_invariants()
        del lane.head_count[12]
        lane.heads[1] = 77  # a head cache that is not the window head
        with pytest.raises(invariants.InvariantError, match="head cache"):
            lane.check_invariants()

    def test_prefetcher_run_checks_pass(self, checking):
        addrs = np.arange(64, dtype=np.int64) * 64
        miss = MissTrace(addrs, np.zeros(64, dtype=np.uint8), 6)
        StreamPrefetcher(StreamConfig.filtered(n_streams=4)).run(miss)


class TestThreadSafety:
    """Satellite: MissTraceCache / default_cache under concurrent use."""

    def test_concurrent_get_hammering(self):
        cache = MissTraceCache(max_entries=4)
        errors = []
        results = []

        def worker(seed):
            try:
                for i in range(12):
                    trace, summary = cache.get(
                        "stride", scale=0.02, seed=(seed + i) % 3
                    )
                    results.append((len(trace), summary.misses))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Determinism across threads: every (seed) result is identical.
        assert len(set(results)) <= 3
        assert len(cache) <= 4

    def test_default_cache_single_instance_across_threads(self):
        import repro.sim.runner as runner_mod

        original = runner_mod._DEFAULT_CACHE
        runner_mod._DEFAULT_CACHE = None
        try:
            instances = []
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait()
                instances.append(default_cache())

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(instance) for instance in instances}) == 1
        finally:
            runner_mod._DEFAULT_CACHE = original


class TestCanonicalScale:
    """Satellite: float-noise scales must share keys and digests."""

    def test_float_noise_collapses(self):
        noisy = 0.1 + 0.1 + 0.1  # 0.30000000000000004
        assert noisy != 0.3
        assert canonical_scale(noisy) == canonical_scale(0.3) == 0.3

    def test_idempotent(self):
        for value in (0.3, 1.0, 0.05, 2.5, 1e-6, 123.456):
            assert canonical_scale(canonical_scale(value)) == canonical_scale(value)

    def test_distinct_scales_stay_distinct(self):
        assert canonical_scale(0.3) != canonical_scale(0.31)
        assert canonical_scale(1.0) != canonical_scale(2.0)

    def test_key_and_digest_agree_for_aliases(self):
        noisy = 0.1 + 0.1 + 0.1
        config = CacheConfig.paper_l1()
        assert trace_digest("cgm", noisy, 0, config) == trace_digest("cgm", 0.3, 0, config)
        name_a, scale_a, _, _ = resolve_workload_ref("cgm", noisy, 0)
        name_b, scale_b, _, _ = resolve_workload_ref("cgm", 0.3, 0)
        assert (name_a, scale_a) == (name_b, scale_b)

    def test_cache_shares_entry_across_aliases(self):
        cache = MissTraceCache()
        cache.get("stride", scale=0.3, seed=0)
        cache.get("stride", scale=0.1 + 0.1 + 0.1, seed=0)
        assert len(cache) == 1


class TestZeroLengthEdgeCases:
    """Satellite: empty traces return 0.0 ratios, never divide by zero."""

    def test_stream_stats_hit_rate_empty(self):
        config = StreamConfig.filtered(n_streams=4)
        empty = MissTrace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 6
        )
        stats = StreamPrefetcher(config).run(empty)
        assert stats.demand_misses == 0
        assert stats.hit_rate == 0.0
        assert stats.hit_rate_percent == 0.0
        assert stats.stream_hits == 0
        assert stats.prefetches_issued == 0
        assert stats.bandwidth.eb_measured == 0.0
        assert stats.bandwidth.eb_estimate == 0.0
        assert stats.bandwidth.traffic_ratio == 1.0
        assert stats.lengths.total_hits == 0

    def test_cache_stats_empty(self):
        cache = Cache(CacheConfig(capacity=1024, assoc=2, block_size=64))
        miss = cache.simulate(Trace.empty())
        assert len(miss) == 0
        assert cache.stats.hit_rate == 0.0
        assert cache.stats.miss_rate == 0.0

    def test_l1_summary_empty_trace(self):
        from repro.check.differ import _FixedWorkload
        from repro.sim.runner import simulate_l1

        miss, summary = simulate_l1(_FixedWorkload(Trace.empty()))
        assert len(miss) == 0
        assert summary.accesses == 0
        assert summary.misses == 0
        assert summary.miss_rate == 0.0

    def test_length_histogram_percentages_empty(self):
        from repro.core.lengths import StreamLengthHistogram

        histogram = StreamLengthHistogram()
        assert all(value == 0.0 for value in histogram.percent_hits().values())
