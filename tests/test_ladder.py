"""The one-pass stream ladder: run_ladder, replay_stream_ladder and the
run_grid routing of unfiltered n_streams groups."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.parallel as parallel
import repro.sim.vector as vector
from repro.caches.cache import MissEventKind, MissTrace
from repro.check import invariants
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import (
    INHERITED_INVALIDATION,
    MERGE,
    TIE,
    StreamPrefetcher,
    ladder_supported,
    run_ladder,
)
from repro.obs.metrics import engine_registry
from repro.obs.spans import set_tracing, validate_chrome_events
from repro.sim.parallel import LADDER_MIN_CELLS, SweepTask, run_grid
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore, stats_to_dict

R = int(MissEventKind.READ_MISS)
WB = int(MissEventKind.WRITEBACK)
ALL_N = tuple(range(1, 11))


def miss_trace(events, block_bits: int = 6) -> MissTrace:
    """A miss trace from ``(block, kind)`` pairs."""
    blocks = [block for block, _ in events]
    kinds = [kind for _, kind in events]
    return MissTrace(
        np.asarray(blocks, dtype=np.int64) << block_bits,
        np.asarray(kinds, dtype=np.uint8),
        block_bits,
    )


def replayed(config: StreamConfig, trace: MissTrace) -> dict:
    return stats_to_dict(StreamPrefetcher(config).run(trace))


def assert_exact(stats, trace, base=StreamConfig.jouppi()):
    for n, derived in stats.items():
        assert stats_to_dict(derived) == replayed(base.with_(n_streams=n), trace), n


def tie_trace():
    """Windows with heads 11, 21, 31, 41, then a second window with head
    11 (position 0, the first one now at 4), then a miss on 11."""
    return miss_trace([(10, R), (20, R), (30, R), (40, R), (10, R), (11, R)])


def inherited_trace():
    """A window [11, 12] loses 12 to a write-back, three fresh windows
    push it to stack position 3, then 11 hits it there."""
    return miss_trace(
        [(10, R), (12, WB), (100, R), (200, R), (300, R), (11, R), (12, R)]
    )


def workload_trace(name="sweep", scale=0.25):
    return MissTraceCache().get(name, scale=scale)[0]


def assert_all_exact(stats, trace, n_values=ALL_N, base=StreamConfig.jouppi()):
    assert sorted(stats) == sorted(set(n_values))
    assert_exact(stats, trace, base)


class TestRunLadder:
    def test_empty_trace(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), ALL_N, miss_trace([]))
        assert replayed == {} and moves == {}
        assert_all_exact(stats, miss_trace([]))

    def test_writebacks_only(self):
        trace = miss_trace([(5, WB), (6, WB), (5, WB)])
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), ALL_N, trace)
        assert replayed == {} and moves == {}
        assert all(s.writebacks == 3 and s.demand_misses == 0 for s in stats.values())
        assert_all_exact(stats, trace)

    def test_single_n(self):
        trace = workload_trace()
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), [7], trace)
        assert replayed == {} and moves == {}
        assert_all_exact(stats, trace, [7])

    def test_hand_built_tie_forks_the_banks_above_the_second_match(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), ALL_N, tie_trace())
        # The matches sit at stack positions 0 and 4.  Banks of 1-4 see
        # only the first; banks of 5+ see both and take slot 0, the
        # deeper one, so they continue together on a fork of the stack.
        assert moves == {TIE: 1} and replayed == {}
        assert_all_exact(stats, tie_trace())

    def test_tie_sends_banks_left_alone_to_the_engine(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), [3, 5, 6], tie_trace())
        assert moves == {TIE: 1} and replayed == {3: TIE}
        assert_all_exact(stats, tie_trace(), [3, 5, 6])

    def test_tie_that_moves_every_bank_forks_the_whole_stack(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), [6, 8], tie_trace())
        assert moves == {TIE: 1} and replayed == {}
        assert_all_exact(stats, tie_trace(), [6, 8])

    def test_hand_built_inherited_invalidation_forks_up_to_position(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), ALL_N, inherited_trace())
        # Banks of 1-3 allocate the window clean, 4+ carry the write-back.
        assert moves == {INHERITED_INVALIDATION: 1} and replayed == {}
        assert_all_exact(stats, inherited_trace())

    def test_inherited_invalidation_sends_banks_left_alone_to_the_engine(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), [3, 4], inherited_trace())
        assert moves == {INHERITED_INVALIDATION: 1}
        assert replayed == {3: INHERITED_INVALIDATION, 4: INHERITED_INVALIDATION}
        assert_all_exact(stats, inherited_trace(), [3, 4])

    def test_diverges_only_for_requested_counts(self):
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), [4, 9], inherited_trace())
        assert replayed == {} and moves == {}
        assert_all_exact(stats, inherited_trace(), [4, 9])

    def test_non_contiguous_counts_on_a_real_trace(self):
        trace = workload_trace("interleaved")
        base = StreamConfig.jouppi(depth=3)
        stats, _, _ = run_ladder(base, [10, 1, 4], trace)
        assert_all_exact(stats, trace, [1, 4, 10], base)

    @pytest.mark.parametrize("chunk", [16, 1024, 1 << 30])
    def test_converging_streams_fork_and_merge_back(self, chunk):
        # cgm's streams run into each other: ties fork the banks of 4+,
        # and the forks see the same windows again soon after.
        trace = workload_trace("cgm")
        stats, replayed, moves = run_ladder(StreamConfig.jouppi(), ALL_N, trace, chunk=chunk)
        assert moves[TIE] > 0 and replayed
        assert (moves[MERGE] > 0) == (chunk < len(trace))
        assert_all_exact(stats, trace)

    def test_lone_banks_continue_through_replay_in_chunks(self):
        trace = workload_trace("cgm")
        calls = []

        def replay(config, events, prefetcher):
            calls.append((config.n_streams, len(events)))
            return prefetcher.run(events)

        stats, replayed, _ = run_ladder(
            StreamConfig.jouppi(), ALL_N, trace, replay, chunk=256
        )
        assert {n for n, _ in calls} == set(replayed)
        assert all(size <= 256 for _, size in calls)
        assert_all_exact(stats, trace)

    def test_merge_condition(self):
        from repro.core.prefetcher import _fits

        w = [(11, 12, None), (21, 22, None), (31, 32, frozenset({31}))]
        # Same windows: any banks fit.
        assert _fits(w, 10, w, 10)
        # A full shallower stack fits a deeper one's prefix ...
        assert _fits(w[:2], 2, w, 5)
        # ... a filling one does not: its banks would see more windows.
        assert not _fits(w[:2], 3, w, 5)
        # A deeper one extends a full shallower stack, not a filling one.
        assert _fits(w, 5, w[:2], 2)
        assert not _fits(w, 5, w[:2], 3)
        # Any difference in a shared window (head, next or dead entries).
        assert not _fits([(11, 12, None), (21, 22, None), (31, 32, None)], 3, w, 3)

    @pytest.mark.parametrize(
        "config",
        [
            StreamConfig.filtered(),
            StreamConfig.non_unit(),
            StreamConfig(unit_filter_entries=16, stride_detector=StrideDetector.MIN_DELTA),
            StreamConfig(lookup_depth=2),
            StreamConfig(min_lead=1),
            StreamConfig(partitioned=True),
        ],
    )
    def test_ineligible_configs_are_refused(self, config):
        assert not ladder_supported(config)
        with pytest.raises(ValueError):
            run_ladder(config, ALL_N, miss_trace([]))

    def test_block_geometry_checked(self):
        with pytest.raises(ValueError, match="block_bits"):
            run_ladder(StreamConfig.jouppi(), ALL_N, miss_trace([], block_bits=5))

    def test_conservation_checks_run_on_every_derived_count(self, monkeypatch):
        checked = []
        monkeypatch.setattr(
            StreamPrefetcher, "_check_invariants", staticmethod(checked.append)
        )
        trace = workload_trace()
        previous = invariants.set_enabled(True)
        try:
            stats, replayed, _ = run_ladder(StreamConfig.jouppi(), ALL_N, trace)
        finally:
            invariants.set_enabled(previous)
        assert replayed == {}
        assert checked == [stats[n] for n in sorted(stats)]

    def test_lone_bank_state_passes_the_runtime_invariants(self):
        # REPRO_CHECK=1 replays event by event, checking the lane
        # structure after every operation, from each state the pass
        # builds for the one-bank engine.
        trace = workload_trace("cgm")
        previous = invariants.set_enabled(True)
        try:
            stats, replayed, _ = run_ladder(StreamConfig.jouppi(), ALL_N, trace, chunk=256)
        finally:
            invariants.set_enabled(previous)
        assert replayed
        assert_all_exact(stats, trace)


class TestReplayStreamLadder:
    def test_lone_banks_continue_through_the_module_global(self, monkeypatch):
        calls = []
        real = vector.replay_streams

        def spy(config, trace, prefetcher=None):
            calls.append((config.n_streams, len(trace), prefetcher is not None))
            return real(config, trace, prefetcher)

        monkeypatch.setattr(vector, "replay_streams", spy)
        configs = [StreamConfig.jouppi(n_streams=n) for n in (3, 5, 6)]
        stats, flagged, moves = vector.replay_stream_ladder(configs, tie_trace())
        # Bank 3 leaves at the tie, the trace's sixth and last event.
        assert calls == [(3, 1, True)]
        assert flagged == {3: TIE} and moves == {TIE: 1}
        for config, derived in zip(configs, stats):
            assert stats_to_dict(derived) == replayed(config, tie_trace())

    def test_configs_must_differ_only_in_n_streams(self):
        configs = [StreamConfig.jouppi(n_streams=2), StreamConfig.jouppi(n_streams=3, depth=3)]
        with pytest.raises(ValueError, match="n_streams"):
            vector.replay_stream_ladder(configs, tie_trace())


def ladder_tasks(workload="sweep", n_values=ALL_N, config=StreamConfig.jouppi(), **extra):
    return [
        SweepTask(key=(workload, n), workload=workload,
                  config=config.with_(n_streams=n), scale=0.25, **extra)
        for n in n_values
    ]


@pytest.fixture
def ladder_calls(monkeypatch):
    """The stream counts of every ladder pass run_grid starts."""
    calls = []
    real = parallel.replay_stream_ladder

    def spy(configs, trace):
        calls.append(sorted(c.n_streams for c in configs))
        return real(configs, trace)

    monkeypatch.setattr(parallel, "replay_stream_ladder", spy)
    return calls


def assert_results_exact(tasks, results):
    cache = MissTraceCache()
    for task, result in zip(tasks, results):
        trace = cache.get(task.workload, scale=task.scale)[0]
        assert stats_to_dict(result.streams) == replayed(task.config, trace), task.key


class TestRunGridRouting:
    def test_group_takes_one_pass(self, ladder_calls):
        tasks = ladder_tasks() + ladder_tasks("stride")
        results = run_grid(tasks, jobs=1)
        assert ladder_calls == [list(ALL_N), list(ALL_N)]
        assert {r.source for r in results} == {"replayed"}
        assert_results_exact(tasks, results)

    @pytest.mark.parametrize(
        "config",
        [
            StreamConfig.filtered(),
            StreamConfig.non_unit(),
            StreamConfig(unit_filter_entries=16, stride_detector=StrideDetector.MIN_DELTA),
            StreamConfig(lookup_depth=2),
            StreamConfig(min_lead=1),
            StreamConfig(partitioned=True),
        ],
    )
    def test_ineligible_configs_replay_cell_by_cell(self, ladder_calls, config):
        tasks = ladder_tasks(n_values=(1, 2, 4, 8), config=config)
        results = run_grid(tasks, jobs=1)
        assert ladder_calls == []
        assert_results_exact(tasks, results)

    def test_groups_under_the_crossover_replay_cell_by_cell(self, ladder_calls):
        small = tuple(range(1, LADDER_MIN_CELLS))
        tasks = ladder_tasks(n_values=small) + ladder_tasks("stride", n_values=small)
        # Repeating a count adds cells but no distinct stream count.
        tasks += ladder_tasks("interleaved", n_values=small + (1,))
        results = run_grid(tasks, jobs=1)
        assert ladder_calls == []
        assert_results_exact(tasks, results)

    def test_partially_warm_store_computes_only_the_missing_counts(
        self, tmp_path, ladder_calls
    ):
        store = TraceStore(tmp_path)
        run_grid(ladder_tasks(n_values=(2, 5, 9)), jobs=1, store=store)
        tasks = ladder_tasks()
        results = run_grid(tasks, jobs=1, store=store)
        assert ladder_calls == [[1, 3, 4, 6, 7, 8, 10]]
        sources = {task.config.n_streams: r.source for task, r in zip(tasks, results)}
        assert {n for n, source in sources.items() if source == "store"} == {2, 5, 9}
        assert_results_exact(tasks, results)
        # Each cell kept its own store entry: a rerun is all store hits.
        rerun = run_grid(tasks, jobs=1, store=store)
        assert {r.source for r in rerun} == {"store"}
        assert ladder_calls == [[1, 3, 4, 6, 7, 8, 10]]

    def test_mostly_warm_store_falls_back_to_single_cells(self, tmp_path, ladder_calls):
        store = TraceStore(tmp_path)
        run_grid(ladder_tasks(n_values=range(1, 9)), jobs=1, store=store)
        ladder_calls.clear()
        results = run_grid(ladder_tasks(), jobs=1, store=store)
        assert ladder_calls == []
        assert [r.source for r in results] == ["store"] * 8 + ["replayed"] * 2

    def test_jobs_1_equals_jobs_2(self, tmp_path):
        # Interleaved workloads: chunks must keep each group together
        # and still assemble results in task order.
        tasks = [
            task
            for pair in zip(ladder_tasks(), ladder_tasks("stride"))
            for task in pair
        ] + ladder_tasks("interleaved", n_values=(1, 2))
        serial = run_grid(tasks, jobs=1)
        pooled = run_grid(tasks, jobs=2, store=TraceStore(tmp_path), chunk_size=1)
        assert [r.streams for r in serial] == [r.streams for r in pooled]
        assert [stats_to_dict(r.streams) for r in serial] == [
            stats_to_dict(r.streams) for r in pooled
        ]

    def test_chunks_keep_groups_whole(self):
        tasks = ladder_tasks() + ladder_tasks("stride", config=StreamConfig.filtered())
        units = parallel._plan(tasks)
        assert units[0] == list(range(10))
        assert units[1:] == [[i] for i in range(10, 20)]

    def test_different_request_traces_are_separate_groups(self, ladder_calls):
        tasks = ladder_tasks(n_values=(1, 2, 3), trace_id="a" * 16)
        tasks += ladder_tasks(n_values=(4, 5, 6), trace_id="b" * 16)
        run_grid(tasks, jobs=1)
        assert ladder_calls == []

    def test_table4_and_mechzoo_never_take_the_ladder(self, monkeypatch):
        from repro.reporting import experiments

        def refuse(*args, **kwargs):
            raise AssertionError("the stream ladder ran")

        monkeypatch.setattr(parallel, "replay_stream_ladder", refuse)
        monkeypatch.setattr(vector, "run_ladder", refuse)
        cache = MissTraceCache()
        rows = experiments.table4(scales={"buk": (0.25,)}, cache=cache)
        assert rows
        assert experiments.mechzoo(
            names=["stride"], scales={"stride": (0.05,)}, cache=cache
        )


class TestLadderObservability:
    def test_spans_counters_and_cells(self):
        registry = engine_registry()
        groups = registry.counter("engine_ladder_groups_total").value
        replays = registry.counter("engine_ladder_replayed_total").value
        cells = registry.counter("engine_cells_replayed_total").value
        tracer = set_tracing(True)
        tracer.clear()
        try:
            tasks = ladder_tasks("interleaved") + ladder_tasks(n_values=(1, 2))
            results = run_grid(tasks, jobs=1)
            events = tracer.events()
        finally:
            set_tracing(False)
            tracer.clear()
        validate_chrome_events(events)
        (ladder,) = [e for e in events if e["name"] == "stream.ladder"]
        args = ladder["args"]
        assert args["engine"] == "ladder"
        assert args["n_values"] == list(ALL_N)
        assert set(args["fallback"]) == {str(n) for n in args["replayed"]}
        assert set(args["fallback"].values()) <= {TIE, INHERITED_INVALIDATION}
        assert set(args["moves"]) <= {TIE, INHERITED_INVALIDATION, MERGE}
        cell_spans = [e for e in events if e["name"] == "cell"]
        assert len(cell_spans) == len(tasks)
        # The group's wall time is split evenly across its ten cells.
        group = [e for e in cell_spans if e["args"]["workload"] == "interleaved"]
        assert len({e["dur"] for e in group}) == 1
        walls = {r.wall_time_s for r in results[:10]}
        assert len(walls) == 1 and walls.pop() > 0
        assert {r.source for r in results} == {"replayed"}
        assert registry.counter("engine_ladder_groups_total").value == groups + 1
        assert registry.counter("engine_ladder_replayed_total").value == replays + len(
            args["replayed"]
        )
        assert registry.counter("engine_cells_replayed_total").value == cells + len(tasks)

    def test_failed_group_tags_every_cell(self, monkeypatch):
        def broken(configs, trace):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "replay_stream_ladder", broken)
        tasks = ladder_tasks()
        results = run_grid(tasks, jobs=1)
        assert [r.key for r in results] == [t.key for t in tasks]
        assert all(isinstance(r, parallel.TaskError) for r in results)
        assert all("RuntimeError: boom" in r.error and r.wall_time_s > 0 for r in results)


class TestLadderDifferStage:
    def test_corpus_is_consistent_and_fires_every_path(self):
        from repro.check import differ

        report = differ.run_corpus(seeds=5, registry=False, stages=("ladder",))
        assert report.ok, report.divergences
        assert report.ladder_flags[TIE] > 0
        assert report.ladder_flags[INHERITED_INVALIDATION] > 0
        assert report.ladder_flags[MERGE] > 0

    def test_corpus_fails_when_a_path_never_fires(self, monkeypatch):
        from repro.check import differ

        monkeypatch.setattr(
            differ, "random_ladder_trace", lambda *args, **kwargs: miss_trace([])
        )
        report = differ.run_corpus(seeds=3, registry=False, stages=("ladder",))
        assert {d.what for d in report.divergences} == {
            f"ladder path {TIE!r} coverage",
            f"ladder path {INHERITED_INVALIDATION!r} coverage",
            f"ladder path {MERGE!r} coverage",
        }

    def test_stage_reports_a_wrong_derived_count(self, monkeypatch):
        from repro.check import differ

        real = differ.run_ladder

        def off_by_one(*args, **kwargs):
            stats, replayed, moves = real(*args, **kwargs)
            for derived in stats.values():
                derived.stream_hits += 1
            return stats, replayed, moves

        monkeypatch.setattr(differ, "run_ladder", off_by_one)
        divergence = differ.diff_ladder(0)
        assert divergence.what == "stream_hits"
        assert f"--replay ladder:{divergence.seed}" in str(divergence)
