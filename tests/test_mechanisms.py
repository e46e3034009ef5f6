"""Tests for the secondary-mechanism zoo (repro.mechanisms).

Covers the config surface (validation, spec parsing, dict round-trips),
the victim/miss-cache/hybrid semantics pinned by docs/mechanisms.md,
the engine/runner/store/wire plumbing that threads mechanism identity
through the stack, the shared protocol edge cases (empty, single-miss
and all-writeback traces — also exercised through every
``baselines/base.py`` prefetch baseline), and the replay dispatcher's
agreement with the online paths for every mechanism shape.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.caches.cache import MissEventKind, MissTrace
from repro.check.differ import (
    diff_hybrid,
    diff_misscache,
    diff_victim,
    random_hybrid_config,
    random_miss_trace,
)
from repro.core.config import StreamConfig
from repro.mechanisms import (
    HybridStack,
    MechanismConfig,
    MechStats,
    MissCache,
    VictimCache,
    build_mechanism,
    mechanism_from_dict,
    mechanism_label,
    mechanism_to_dict,
    parse_mechanism_spec,
)
from repro.sim.vector import replay_secondary


def _trace(events, block_bits=6):
    """Build a MissTrace from (addr, kind) pairs."""
    addrs = np.asarray([addr for addr, _ in events], dtype=np.int64)
    kinds = np.asarray([int(kind) for _, kind in events], dtype=np.uint8)
    return MissTrace(addrs, kinds, block_bits)


READ = MissEventKind.READ_MISS
WB = MissEventKind.WRITEBACK


class TestMechanismConfig:
    def test_constructors_and_labels(self):
        assert mechanism_label(MechanismConfig.for_streams()) == "streams"
        assert mechanism_label(MechanismConfig.victim(8)) == "victim:8"
        assert mechanism_label(MechanismConfig.misscache(4)) == "misscache:4"
        hybrid = MechanismConfig.hybrid(
            MechanismConfig.victim(8), MechanismConfig.for_streams()
        )
        assert mechanism_label(hybrid) == "victim:8+streams"

    def test_validation(self):
        with pytest.raises(ValueError):
            MechanismConfig.victim(0)
        with pytest.raises(ValueError):
            MechanismConfig.misscache(-1)
        with pytest.raises(ValueError):
            MechanismConfig.victim(4, shadow_sets=3)  # not a power of two
        with pytest.raises(ValueError):
            MechanismConfig.hybrid(MechanismConfig.victim(4))  # < 2 members
        with pytest.raises(ValueError):  # stream member must be last
            MechanismConfig.hybrid(
                MechanismConfig.for_streams(), MechanismConfig.victim(4)
            )
        with pytest.raises(ValueError):  # at most one stream member
            MechanismConfig.hybrid(
                MechanismConfig.for_streams(), MechanismConfig.for_streams()
            )
        with pytest.raises(ValueError):  # no nested hybrids
            MechanismConfig.hybrid(
                MechanismConfig.hybrid(
                    MechanismConfig.victim(4), MechanismConfig.misscache(4)
                ),
                MechanismConfig.misscache(4),
            )
        with pytest.raises(ValueError):  # members share block_bits
            MechanismConfig.hybrid(
                MechanismConfig.victim(4, block_bits=5),
                MechanismConfig.misscache(4, block_bits=6),
            )

    def test_spec_parsing_round_trip(self):
        for spec in ("streams", "victim:16", "misscache:4", "victim:4+streams",
                     "misscache:8+streams", "victim:4+misscache:4"):
            config = parse_mechanism_spec(spec)
            assert mechanism_label(config) == spec
        assert parse_mechanism_spec("sb") == MechanismConfig.for_streams()
        assert parse_mechanism_spec("vc:4") == MechanismConfig.victim(4)
        assert parse_mechanism_spec("mc") == MechanismConfig.misscache(16)
        with pytest.raises(ValueError):
            parse_mechanism_spec("bogus")
        with pytest.raises(ValueError):
            parse_mechanism_spec("streams:4")

    def test_dict_round_trip_is_json_safe(self):
        configs = [
            MechanismConfig.for_streams(StreamConfig.non_unit(czone_bits=18)),
            MechanismConfig.victim(8, shadow_sets=64, shadow_assoc=2),
            MechanismConfig.misscache(4),
            parse_mechanism_spec("victim:4+misscache:4+streams"),
        ]
        for config in configs:
            payload = json.loads(json.dumps(mechanism_to_dict(config)))
            assert mechanism_from_dict(payload) == config


class TestVictimCache:
    def test_conflict_misses_hit_the_buffer(self):
        # Direct-mapped single-set shadow: two blocks ping-pong, so
        # after the cold pass every re-reference is a victim-buffer hit.
        config = MechanismConfig.victim(4, shadow_sets=1, shadow_assoc=1)
        mech = build_mechanism(config)
        a, b = 0 << 6, 1 << 6
        outcomes = [mech.handle_miss(addr) for addr in (a, b, a, b, a)]
        stats = mech.finalize()
        assert outcomes == [False, False, True, True, True]
        assert stats.demand_misses == 5 and stats.hits == 3
        assert stats.allocations == 4  # every displaced victim inserted
        assert stats.evictions == 0 and stats.writebacks_out == 0

    def test_dirty_victim_writes_back_on_buffer_overflow(self):
        config = MechanismConfig.victim(1, shadow_sets=1, shadow_assoc=1)
        mech = build_mechanism(config)
        mech.handle_miss(0 << 6)
        mech.handle_writeback(0 << 6)  # block 0 leaves L1 dirty
        mech.handle_miss(1 << 6)
        mech.handle_miss(2 << 6)  # victim(1) displaced -> dirty 0 evicted
        stats = mech.finalize()
        assert stats.writebacks == 1
        assert stats.evictions == 1
        assert stats.writebacks_out == 1
        assert stats.invalidations == 0

    def test_geometry_mismatch_raises(self):
        mech = VictimCache(MechanismConfig.victim(4, block_bits=6))
        with pytest.raises(ValueError):
            mech.run(_trace([(0, READ)], block_bits=7))


class TestMissCache:
    def test_repeat_misses_hit(self):
        mech = MissCache(MechanismConfig.misscache(2))
        assert mech.handle_miss(0) is False
        assert mech.handle_miss(0) is True
        assert mech.handle_miss(1 << 6) is False
        assert mech.handle_miss(2 << 6) is False  # evicts LRU (block 0)
        assert mech.handle_miss(0) is False
        stats = mech.finalize()
        assert stats.hits == 1
        assert stats.allocations == 4 and stats.evictions == 2
        assert stats.writebacks_out == 0

    def test_writeback_invalidates(self):
        mech = MissCache(MechanismConfig.misscache(4))
        mech.handle_miss(0)
        mech.handle_writeback(0)
        assert mech.handle_miss(0) is False  # invalidated, not a hit
        stats = mech.finalize()
        assert stats.invalidations == 1 and stats.writebacks == 1


class TestHybridStack:
    def test_front_member_shields_the_back(self):
        config = MechanismConfig.hybrid(
            MechanismConfig.misscache(4), MechanismConfig.misscache(4)
        )
        mech = HybridStack(config)
        mech.handle_miss(0)
        assert mech.handle_miss(0) is True  # front member hit
        stats = mech.finalize()
        assert stats.member_hits == (1, 0)  # back member never saw it
        assert stats.hits == 1

    def test_writebacks_reach_every_member(self):
        config = MechanismConfig.hybrid(
            MechanismConfig.misscache(4), MechanismConfig.misscache(4)
        )
        mech = HybridStack(config)
        mech.handle_miss(0)
        mech.handle_writeback(0)
        stats = mech.finalize()
        assert stats.writebacks == 1
        # The miss propagated through both members, so both installed
        # the block and both invalidate it on the writeback.
        assert stats.invalidations == 2

    def test_two_phase_residual_matches_online(self):
        rng = random.Random(7)
        for _ in range(5):
            config = random_hybrid_config(rng)
            trace = random_miss_trace(rng, 1200, block_bits=config.block_bits)
            online = HybridStack(config).run(trace)
            residual = replay_secondary(config, trace)
            assert online == residual

    def test_stream_member_embeds_full_stats(self):
        config = parse_mechanism_spec("victim:4+streams")
        trace = random_miss_trace(random.Random(3), 800)
        stats = build_mechanism(config).run(trace)
        assert stats.streams is not None
        assert stats.streams.stream_hits == stats.member_hits[1]
        assert stats.prefetches_issued == stats.streams.prefetches_issued


ZOO_SPECS = ("streams", "victim:4", "misscache:4", "victim:4+streams",
             "misscache:4+streams", "victim:4+misscache:4")


class TestProtocolEdgeCases:
    """Satellite: empty / single-miss / all-writeback traces through
    every mechanism — 0.0 rates, no division by zero."""

    @pytest.mark.parametrize("spec", ZOO_SPECS)
    def test_empty_trace(self, spec):
        stats = build_mechanism(parse_mechanism_spec(spec)).run(_trace([]))
        assert stats.demand_misses == 0
        assert stats.hit_rate == 0.0
        assert stats.hit_rate_percent == 0.0
        assert math.isfinite(stats.bandwidth.eb_measured)
        assert math.isfinite(stats.bandwidth.eb_estimate)

    @pytest.mark.parametrize("spec", ZOO_SPECS)
    def test_single_miss_trace(self, spec):
        stats = build_mechanism(parse_mechanism_spec(spec)).run(
            _trace([(0x40, READ)])
        )
        assert stats.demand_misses == 1
        assert stats.hits == 0
        assert stats.hit_rate == 0.0
        assert math.isfinite(stats.bandwidth.eb_measured)

    @pytest.mark.parametrize("spec", ZOO_SPECS)
    def test_all_writeback_trace(self, spec):
        trace = _trace([(i << 6, WB) for i in range(8)])
        stats = build_mechanism(parse_mechanism_spec(spec)).run(trace)
        assert stats.demand_misses == 0
        assert stats.writebacks == 8
        assert stats.hit_rate == 0.0
        assert math.isfinite(stats.bandwidth.eb_measured)

    def test_baselines_share_the_edge_cases(self):
        """The baselines/base.py protocol handles the same degenerate
        traces without dividing by zero."""
        from repro.baselines import (
            OneBlockLookahead,
            PrefetchingCache,
            ReferencePredictionTable,
        )

        for build in (
            lambda: OneBlockLookahead(entries=4),
            lambda: PrefetchingCache(blocks=4),
            ReferencePredictionTable,
        ):
            for events in ([], [(0x40, READ)], [(i << 6, WB) for i in range(4)]):
                stats = build().run(_trace(events))
                assert stats.hit_rate == 0.0 or events == [(0x40, READ)]
                assert math.isfinite(stats.bandwidth.eb_measured)
                assert stats.writebacks == sum(
                    1 for _, kind in events if kind == WB
                )


class TestEngineDispatch:
    """Satellite: the replay dispatcher of repro.sim.vector serves every
    mechanism shape and agrees with the mechanisms' online event paths."""

    def test_vector_env_hybrid_bit_identical(self):
        config = parse_mechanism_spec("victim:4+streams")
        trace = random_miss_trace(random.Random(11), 1500)
        assert replay_secondary(config, trace) == HybridStack(config).run(trace)

    @pytest.mark.parametrize("spec", ("victim:4", "misscache:4"))
    def test_vector_engine_never_errors_on_buffers(self, spec):
        config = parse_mechanism_spec(spec)
        trace = random_miss_trace(random.Random(5), 600)
        stats = replay_secondary(config, trace)
        assert stats.demand_misses == int(trace.n_misses)

    def test_explicit_vector_matches_scalar_for_streams_kind(self):
        # The bulk loop behind replay_secondary vs the adapter's per-event
        # handle_miss/handle_writeback path.
        config = MechanismConfig.for_streams(StreamConfig.filtered())
        trace = random_miss_trace(random.Random(4), 1500)
        assert replay_secondary(config, trace) == build_mechanism(config).run(trace)


class TestRunnerAndSweep:
    def test_run_streams_is_a_run_secondary_wrapper(self):
        from repro.sim.runner import MissTraceCache, run_secondary, run_streams

        cache = MissTraceCache()
        config = StreamConfig.non_unit()
        streams = run_streams("stride", config, scale=0.05, cache=cache)
        mech = run_secondary(
            "stride", MechanismConfig.for_streams(config), scale=0.05, cache=cache
        )
        assert mech.streams == streams
        assert mech.hits == streams.stream_hits

    def test_sweep_mechanisms_serial_matches_parallel(self, tmp_path):
        from repro.sim.runner import MissTraceCache
        from repro.sim.sweep import sweep_mechanisms
        from repro.trace.store import TraceStore

        zoo = {
            spec: parse_mechanism_spec(spec)
            for spec in ("streams", "victim:4", "misscache:4+streams")
        }
        store = TraceStore(tmp_path / "store")
        serial = sweep_mechanisms(
            "stride", zoo, scale=0.05, cache=MissTraceCache(store=store)
        )
        parallel = sweep_mechanisms(
            "stride", zoo, scale=0.05, jobs=2,
            cache=MissTraceCache(store=store), store=store,
        )
        assert serial == parallel

    def test_match_result_records_mechanism(self):
        from repro.sim.compare import min_matching_l2_size

        sizes = (64 * 1024, 128 * 1024)
        plain = min_matching_l2_size("stride", scale=0.05, sizes=sizes)
        assert plain.mechanism == "streams"
        mech = min_matching_l2_size(
            "stride", scale=0.05, sizes=sizes,
            mechanism=parse_mechanism_spec("misscache:4"),
        )
        assert mech.mechanism == "misscache:4"
        with pytest.raises(ValueError):
            min_matching_l2_size(
                "stride", scale=0.05, sizes=sizes,
                stream_config=StreamConfig.jouppi(),
                mechanism=parse_mechanism_spec("misscache:4"),
            )

    def test_analytic_screen_accepts_mechanism(self):
        from repro.analytic import min_matching_l2_size_analytic
        from repro.sim.compare import min_matching_l2_size

        mech = parse_mechanism_spec("victim:4")
        brute = min_matching_l2_size("stride", scale=0.05, mechanism=mech)
        screened = min_matching_l2_size_analytic("stride", scale=0.05, mechanism=mech)
        assert screened.matched_size == brute.matched_size
        assert screened.mechanism == brute.mechanism == "victim:4"


class TestStore:
    def test_mech_result_round_trip(self, tmp_path):
        from repro.trace.store import TraceStore, mech_result_digest

        store = TraceStore(tmp_path / "store")
        config = parse_mechanism_spec("victim:4+streams")
        trace = random_miss_trace(random.Random(2), 900)
        stats = replay_secondary(config, trace)
        digest = mech_result_digest("trace-key", config)
        assert store.load_mech_result(digest, config) is None
        store.save_mech_result(digest, stats)
        assert store.load_mech_result(digest, config) == stats

    def test_streams_kind_interchangeable_with_plain_results(self, tmp_path):
        """Stream-mechanism results share digests and payloads with the
        plain run_streams store path, so warm stores serve both."""
        from repro.mechanisms.streams import mech_stats_from_streams
        from repro.sim.vector import replay_streams
        from repro.trace.store import TraceStore, mech_result_digest, result_digest

        store = TraceStore(tmp_path / "store")
        stream_config = StreamConfig.filtered()
        config = MechanismConfig.for_streams(stream_config)
        trace = random_miss_trace(random.Random(6), 700)
        stream_stats = replay_streams(stream_config, trace)

        digest = result_digest("trace-key", stream_config)
        assert mech_result_digest("trace-key", config) == digest
        store.save_result(digest, stream_stats)
        loaded = store.load_mech_result(digest, config)
        assert loaded == mech_stats_from_streams(config, stream_stats)

    def test_digests_distinguish_mechanisms(self):
        from repro.trace.store import mech_result_digest

        digests = {
            mech_result_digest("trace-key", parse_mechanism_spec(spec))
            for spec in ZOO_SPECS
        }
        assert len(digests) == len(ZOO_SPECS)
        assert mech_result_digest(
            "other-trace", parse_mechanism_spec("victim:4")
        ) != mech_result_digest("trace-key", parse_mechanism_spec("victim:4"))


class TestWire:
    def test_mech_stats_dict_round_trip(self):
        from repro.trace.store import mech_stats_from_dict, mech_stats_to_dict

        for spec in ZOO_SPECS:
            config = parse_mechanism_spec(spec)
            trace = random_miss_trace(random.Random(8), 600)
            stats = build_mechanism(config).run(trace)
            payload = json.loads(json.dumps(mech_stats_to_dict(stats)))
            assert mech_stats_from_dict(payload) == stats

    def test_run_request_with_mechanism(self):
        from repro.service import api

        request = api.parse_run_request(
            {"workload": "stride", "mechanism": "victim:4+streams"}
        )
        cell = request.cells[0]
        assert cell.key == ("stride", "victim:4+streams")
        assert isinstance(cell.config, MechanismConfig)
        with pytest.raises(api.ValidationError):
            api.parse_run_request(
                {"workload": "stride", "mechanism": "victim:4", "config": {}}
            )
        with pytest.raises(api.ValidationError):
            api.parse_run_request({"workload": "stride", "mechanism": "bogus"})

    def test_sweep_request_with_mechanisms(self):
        from repro.service import api

        request = api.parse_sweep_request(
            {"workloads": ["stride", "random"], "mechanisms": ["streams", "mc:4"]}
        )
        assert [cell.key for cell in request.cells] == [
            ("stride", "streams"), ("stride", "misscache:4"),
            ("random", "streams"), ("random", "misscache:4"),
        ]
        with pytest.raises(api.ValidationError):
            api.parse_sweep_request(
                {"workloads": ["stride"], "mechanisms": ["streams"],
                 "n_streams": [1, 2]}
            )

    def test_chunk_and_result_round_trip(self):
        from repro.service import api
        from repro.sim.results import RunResult
        from repro.sim.runner import MissTraceCache, run_secondary

        config = parse_mechanism_spec("misscache:4+streams")
        chunk = api.parse_chunk_request(
            {"cells": [{
                "key": ["stride", "misscache:4+streams"],
                "workload": "stride",
                "scale": 0.05,
                "mechanism": mechanism_to_dict(config),
            }]}
        )
        cell = chunk.cells[0]
        assert cell.config == config

        cache = MissTraceCache()
        stats = run_secondary("stride", config, scale=0.05, cache=cache)
        _, summary = cache.get("stride", scale=0.05)
        result = RunResult(
            workload="stride", scale=0.05, seed=0, l1=summary, streams=stats
        )
        payload = json.loads(json.dumps(api.encode_cell_result(cell, result)))
        assert "mech" in payload and "stats" not in payload
        assert api.decode_cell_result(payload) == result

    def test_fleet_encode_cells_is_mechanism_aware(self):
        from repro.fleet.dispatch import FleetDispatcher
        from repro.service import api
        from repro.sim.parallel import SweepTask

        config = parse_mechanism_spec("victim:4")
        encoded = FleetDispatcher._encode_cells(
            [SweepTask(key=("stride", "victim:4"), workload="stride",
                       config=config, scale=0.05, seed=0)]
        )
        assert encoded[0]["mechanism"] == mechanism_to_dict(config)
        assert "config" not in encoded[0]
        parsed = api.parse_chunk_request({"cells": encoded})
        assert parsed.cells[0].config == config


class TestDifferStages:
    def test_generators_produce_valid_configs(self):
        from repro.check.differ import (
            random_misscache_config,
            random_victim_config,
        )

        rng = random.Random(1)
        for _ in range(50):
            random_victim_config(rng)
            random_misscache_config(rng)
            random_hybrid_config(rng)  # __post_init__ validates

    def test_stage_slice_clean_and_deterministic(self):
        for stage in (diff_victim, diff_misscache, diff_hybrid):
            for seed in range(4):
                assert stage(seed, n_events=700) is None
            assert stage(2, n_events=700) == stage(2, n_events=700)

    def test_stages_registered(self):
        from repro.check.differ import DEFAULT_STAGES, STAGE_FUNCTIONS

        for name in ("victim", "misscache", "hybrid"):
            assert name in STAGE_FUNCTIONS
            assert name in DEFAULT_STAGES

    def test_victim_oracle_detects_injected_bug(self, monkeypatch):
        """Detection power: corrupting the production victim cache's
        LRU insertion must surface as a divergence."""
        original = VictimCache._insert_victim

        def broken(self, block, dirty):
            original(self, block, dirty=False)  # drop the dirty bit

        monkeypatch.setattr(VictimCache, "_insert_victim", broken)
        found = [diff_victim(seed, n_events=1500) for seed in range(10)]
        assert any(d is not None for d in found)


class TestCli:
    def test_sweep_mechanism(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--workloads", "stride", "--scale", "0.05",
            "--mechanism", "streams", "victim:4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "hit% streams" in out and "hit% victim:4" in out

    def test_sweep_mechanism_rejects_bad_spec(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--workloads", "stride", "--mechanism", "bogus:1",
        ])
        assert code == 2
        assert "bad --mechanism" in capsys.readouterr().err

    def test_compare_mechanism(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "stride", "--scale", "0.05",
            "--mechanism", "misscache:4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "misscache:4" in out and "min matching L2" in out

    def test_exhibit_mechzoo_listed(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["exhibit", "mechzoo"])
        assert args.name == "mechzoo"


class TestMechzooExhibit:
    def test_small_slice_witnessed(self):
        from repro.reporting.experiments import mechzoo, render_mechzoo

        rows = mechzoo(names=["stride"], scales={"stride": (0.05,)})
        labels = {row.mechanism for row in rows}
        assert labels == {
            "streams", "victim:16", "misscache:16",
            "victim:16+streams", "misscache:16+streams",
        }
        rendered = render_mechzoo(rows)
        assert "Mechanism zoo" in rendered
        assert "witnessed by sampled simulation" in rendered
        for row in rows:
            # A reported match is always backed by a real probe.
            if row.match.matched_size is not None:
                assert any(
                    point.size == row.match.matched_size
                    for point in row.match.l2_hit_rates
                )
