"""Differential testing: optimized simulators vs the golden oracles.

Every check is driven by one integer seed: the seed generates a random
trace and a random configuration, both sides simulate it, and any
mismatch is reported as a :class:`Divergence` carrying the first
diverging event and the seed that replays it
(``repro check --replay l1:SEED`` / ``streams:SEED``).

Three stages:

* :func:`diff_l1` — a random access trace through a random cache
  geometry via the production :func:`~repro.sim.runner.simulate_l1` path
  (compression, fast paths, split I+D included) vs
  :func:`~repro.check.oracle.ref_simulate_l1`;
* :func:`diff_streams` — a synthetic miss-event stream through a random
  :class:`~repro.core.config.StreamConfig`, both per-event (first
  diverging outcome) and via the bulk ``run()`` fast path, vs
  :class:`~repro.check.oracle.RefStreamPrefetcher`;
* :func:`diff_registry_workload` — a real registry workload at small
  scale through the full L1 + streams pipeline vs both oracles;
* :func:`diff_analytic` — the stack-distance profiler's fully-associative
  LRU hit counts (:mod:`repro.analytic.profile`) vs driving a
  one-set :class:`~repro.check.oracle.RefCache` with L2 semantics over
  the same trace — Mattson's theorem, checked bit-for-bit;
* :func:`diff_analytic_streams` — the miss-spectrum extraction
  (:mod:`repro.trace.spectrum`) vs its naive O(n^2) reference,
  bit-for-bit, and the closed-form stream-buffer model
  (:mod:`repro.analytic.streams`) vs
  :class:`~repro.check.oracle.RefStreamPrefetcher`, within each
  prediction's declared error bound;
* :func:`diff_vector` — the batch engines of :mod:`repro.sim.vector`
  (L1, sampled L2 probe) vs their scalar counterparts on
  configurations coerced into the vector support envelope
  (``repro check --replay vector:SEED``);
* :func:`diff_ladder` — the one-pass ``n_streams`` ladder
  (:func:`~repro.core.prefetcher.run_ladder`) vs replaying each stream
  count by itself, on traces built to force its two divergences and
  with frequent merge points (``repro check --replay ladder:SEED``);
* :func:`diff_victim` / :func:`diff_misscache` / :func:`diff_hybrid` —
  the production secondary mechanisms of :mod:`repro.mechanisms`
  (victim cache, miss cache, serial hybrid stacks) vs the golden models
  of :mod:`repro.check.mech_oracle`, per-event and via the bulk
  ``run()`` and :func:`~repro.sim.vector.replay_secondary` paths (for
  hybrids the latter proves the two-phase residual formulation equal to
  the oracle's online composition).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace
from repro.caches.secondary import simulate_secondary
from repro.check import mech_oracle, oracle
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import (
    INHERITED_INVALIDATION,
    MERGE,
    TIE,
    Lookup,
    StreamPrefetcher,
    StreamStats,
    run_ladder,
)
from repro.mechanisms import MechanismConfig, build_mechanism
from repro.sim.runner import simulate_l1
from repro.sim.vector import (
    replay_secondary,
    replay_streams,
    vector_simulate_cache,
    vector_simulate_secondary,
)
from repro.trace.events import Trace
from repro.workloads.base import BenchmarkInfo, Workload, get_workload

__all__ = [
    "Divergence",
    "CheckReport",
    "random_trace",
    "random_cache_config",
    "random_stream_config",
    "random_miss_trace",
    "random_victim_config",
    "random_misscache_config",
    "random_hybrid_config",
    "random_ladder_trace",
    "diff_l1",
    "diff_streams",
    "diff_victim",
    "diff_misscache",
    "diff_hybrid",
    "diff_analytic",
    "diff_analytic_streams",
    "diff_vector",
    "diff_ladder",
    "diff_registry_workload",
    "check_seed",
    "run_corpus",
    "DEFAULT_REGISTRY_WORKLOADS",
    "DEFAULT_STAGES",
]


@dataclass(frozen=True)
class Divergence:
    """One optimized-vs-oracle mismatch, pinned to a replayable seed.

    Attributes:
        stage: ``"l1"`` / ``"streams"`` / ``"registry:<name>"``.
        seed: the seed that regenerates trace + config.
        what: which quantity diverged (e.g. ``"event[17].kind"``).
        optimized: the optimized simulator's value, rendered.
        expected: the oracle's value, rendered.
        context: extra detail (config repr, neighbouring events).
    """

    stage: str
    seed: int
    what: str
    optimized: str
    expected: str
    context: str = ""

    def __str__(self) -> str:
        lines = [
            f"DIVERGENCE [{self.stage}] seed={self.seed}: {self.what}",
            f"  optimized: {self.optimized}",
            f"  oracle:    {self.expected}",
        ]
        if self.context:
            lines.append(f"  context:   {self.context}")
        lines.append(f"  replay:    repro check --replay {self.stage.split(':')[0]}:{self.seed}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Outcome of a corpus run."""

    seeds_checked: int = 0
    stages_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: How often the ladder forked, by reason, and merged (``ladder`` stage only).
    ladder_flags: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences


# -- generators -------------------------------------------------------------


def random_trace(rng: random.Random, n_events: int, with_ifetch: bool = True) -> Trace:
    """A seeded access trace mixing the patterns the simulators care about.

    Segments of unit-stride walks (same-block runs for the compression
    path), constant non-unit strides (ascending and descending), tight
    same-block read/write bursts, and uniform random jumps; reads, writes
    and (optionally) instruction fetches interleaved.
    """
    addrs: List[int] = []
    kinds: List[int] = []
    base_span = 1 << 22  # 4 MB address playground
    while len(addrs) < n_events:
        pattern = rng.randrange(5)
        length = rng.randrange(4, 40)
        start = rng.randrange(base_span)
        if pattern == 0:  # word-granular unit walk (compressible runs)
            step = rng.choice([4, 8])
            for i in range(length):
                addrs.append(start + i * step)
                kinds.append(oracle.ACCESS_WRITE if rng.random() < 0.2 else oracle.ACCESS_READ)
        elif pattern == 1:  # constant non-unit stride, either direction
            stride = rng.choice([3, 5, 68, 132, 260, 516, 1028]) * rng.choice([1, -1])
            start = max(start, abs(stride) * length + 1)
            for i in range(length):
                addrs.append(start + i * stride)
                kinds.append(oracle.ACCESS_READ)
        elif pattern == 2:  # same-block burst with a write in the middle
            for i in range(length):
                addrs.append(start + (i % 8) * 4)
                kinds.append(
                    oracle.ACCESS_WRITE if i == length // 2 else oracle.ACCESS_READ
                )
        elif pattern == 3:  # random jumps
            for _ in range(length):
                addrs.append(rng.randrange(base_span))
                kinds.append(oracle.ACCESS_WRITE if rng.random() < 0.3 else oracle.ACCESS_READ)
        else:  # instruction-fetch walk (exercises the split L1)
            if not with_ifetch:
                continue
            for i in range(length):
                addrs.append(start + i * 4)
                kinds.append(oracle.ACCESS_IFETCH)
    del addrs[n_events:], kinds[n_events:]
    return Trace(
        np.asarray(addrs, dtype=np.int64), np.asarray(kinds, dtype=np.uint8)
    )


def random_cache_config(rng: random.Random) -> CacheConfig:
    """A random valid cache geometry/policy point."""
    block_size = rng.choice([16, 32, 64, 128])
    assoc = rng.choice([1, 2, 4, 8])
    n_sets = 1 << rng.randrange(2, 7)
    write_back = rng.random() < 0.7
    return CacheConfig(
        capacity=n_sets * assoc * block_size,
        assoc=assoc,
        block_size=block_size,
        policy=rng.choice(["lru", "fifo", "random"]),
        write_back=write_back,
        write_allocate=rng.random() < 0.7,
        seed=rng.randrange(1 << 16),
    )


def random_stream_config(rng: random.Random, block_bits: int = 6) -> StreamConfig:
    """A random valid stream-system configuration point."""
    depth = rng.randrange(1, 5)
    unit_entries = rng.choice([0, 4, 16])
    detector = StrideDetector.NONE
    if unit_entries:
        detector = rng.choice(StrideDetector.ALL)
    return StreamConfig(
        n_streams=rng.randrange(1, 11),
        depth=depth,
        block_bits=block_bits,
        unit_filter_entries=unit_entries,
        stride_detector=detector,
        czone_filter_entries=rng.choice([2, 8, 16]),
        czone_bits=rng.randrange(block_bits, block_bits + 14),
        min_delta_entries=rng.choice([2, 8, 16]),
        allow_negative_strides=rng.random() < 0.5,
        min_lead=rng.choice([0, 0, 1, 2, 4]),
        partitioned=rng.random() < 0.3,
        i_streams=rng.randrange(1, 4),
        lookup_depth=rng.randrange(1, depth + 1),
    )


def random_miss_trace(
    rng: random.Random, n_events: int, block_bits: int = 6
) -> MissTrace:
    """A synthetic L1 miss-event stream for the stream-buffer differ.

    Mixes block-sequential runs (both directions), strided runs, random
    misses, write misses, instruction-fetch misses, and write-backs
    aimed near recent addresses so stream-entry invalidation triggers.
    """
    block = 1 << block_bits
    addrs: List[int] = []
    kinds: List[int] = []
    base_span = 1 << 24
    while len(addrs) < n_events:
        pattern = rng.randrange(6)
        length = rng.randrange(3, 30)
        start = rng.randrange(base_span)
        if pattern == 0:  # ascending unit-stride miss run
            for i in range(length):
                addrs.append(start + i * block)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 1:  # descending unit-stride run
            start = max(start, length * block)
            for i in range(length):
                addrs.append(start - i * block)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 2:  # constant non-unit stride (czone fodder)
            stride = rng.choice([2, 3, 5, 9]) * block * rng.choice([1, -1])
            start = max(start, abs(stride) * length + 1)
            for i in range(length):
                addrs.append(start + i * stride)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 3:  # random misses, some writes
            for _ in range(length):
                addrs.append(rng.randrange(base_span))
                kinds.append(
                    oracle.EV_WRITE_MISS if rng.random() < 0.3 else oracle.EV_READ_MISS
                )
        elif pattern == 4:  # ifetch miss run (partitioned-lane fodder)
            for i in range(length):
                addrs.append(start + i * block)
                kinds.append(oracle.EV_IFETCH_MISS)
        else:  # write-backs near recent addresses (invalidation fodder)
            for _ in range(min(length, 6)):
                if addrs and rng.random() < 0.8:
                    victim = addrs[rng.randrange(max(0, len(addrs) - 20), len(addrs))]
                    victim += rng.choice([0, block, 2 * block])
                else:
                    victim = rng.randrange(base_span)
                addrs.append((victim >> block_bits) << block_bits)
                kinds.append(oracle.EV_WRITEBACK)
    del addrs[n_events:], kinds[n_events:]
    return MissTrace(
        np.asarray(addrs, dtype=np.int64),
        np.asarray(kinds, dtype=np.uint8),
        block_bits,
    )


def random_victim_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid victim-cache configuration point.

    Small shadow geometries are deliberately over-represented so the
    shadow tag array actually overflows and produces victims within a
    2000-event trace.
    """
    return MechanismConfig.victim(
        entries=rng.randrange(1, 33),
        shadow_sets=rng.choice([4, 16, 64, 256]),
        shadow_assoc=rng.randrange(1, 5),
        block_bits=block_bits,
    )


def random_misscache_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid miss-cache configuration point."""
    return MechanismConfig.misscache(entries=rng.randrange(1, 33), block_bits=block_bits)


def random_hybrid_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid hybrid stack: 1-2 buffer members, usually + streams."""
    members = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.5:
            members.append(random_victim_config(rng, block_bits))
        else:
            members.append(random_misscache_config(rng, block_bits))
    if rng.random() < 0.7 or len(members) < 2:
        members.append(
            MechanismConfig.for_streams(random_stream_config(rng, block_bits))
        )
    return MechanismConfig.hybrid(*members)


class _FixedWorkload(Workload):
    """Adapter presenting a pre-built trace through the Workload API."""

    info = BenchmarkInfo(name="differ-fixed", suite="micro", description="differ input")

    def __init__(self, trace: Trace, seed: int = 0):
        super().__init__(scale=1.0, seed=seed)
        self._fixed = trace

    def build(self) -> Trace:
        return self._fixed


# -- comparisons ------------------------------------------------------------


def _compare_events(
    stage: str,
    seed: int,
    opt_addrs: Sequence[int],
    opt_kinds: Sequence[int],
    ref_events: Sequence[Tuple[int, int]],
    context: str,
) -> Optional[Divergence]:
    """First diverging (addr, kind) event between the two streams."""
    n = min(len(opt_addrs), len(ref_events))
    for i in range(n):
        ref_addr, ref_kind = ref_events[i]
        if opt_addrs[i] != ref_addr or opt_kinds[i] != ref_kind:
            window = ", ".join(
                f"#{j}:({opt_addrs[j]:#x},{opt_kinds[j]})"
                for j in range(max(0, i - 2), min(n, i + 3))
            )
            return Divergence(
                stage=stage,
                seed=seed,
                what=f"event[{i}]",
                optimized=f"addr={opt_addrs[i]:#x} kind={opt_kinds[i]}",
                expected=f"addr={ref_addr:#x} kind={ref_kind}",
                context=f"{context}; optimized events around: {window}",
            )
    if len(opt_addrs) != len(ref_events):
        return Divergence(
            stage=stage,
            seed=seed,
            what="event count",
            optimized=str(len(opt_addrs)),
            expected=str(len(ref_events)),
            context=context,
        )
    return None


def _compare_counters(
    stage: str,
    seed: int,
    pairs: Sequence[Tuple[str, object, object]],
    context: str,
) -> Optional[Divergence]:
    for name, opt_value, ref_value in pairs:
        if opt_value != ref_value:
            return Divergence(
                stage=stage,
                seed=seed,
                what=name,
                optimized=repr(opt_value),
                expected=repr(ref_value),
                context=context,
            )
    return None


def diff_l1(seed: int, n_events: int = 3000) -> Optional[Divergence]:
    """One seeded L1 differential check; None when bit-identical."""
    rng = random.Random(seed * 2654435761 % (1 << 31))
    config = random_cache_config(rng)
    trace = random_trace(rng, n_events)
    context = f"config={config}"

    workload = _FixedWorkload(trace, seed=seed)
    miss_trace, summary = simulate_l1(workload, config)

    ref_events, ref_summary = oracle.ref_simulate_l1(
        trace.addrs.tolist(),
        trace.kinds.tolist(),
        capacity=config.capacity,
        assoc=config.assoc,
        block_size=config.block_size,
        policy=config.policy,
        write_back=config.write_back,
        write_allocate=config.write_allocate,
        seed=config.seed,
    )
    divergence = _compare_events(
        "l1",
        seed,
        miss_trace.addrs.tolist(),
        miss_trace.kinds.tolist(),
        ref_events,
        context,
    )
    if divergence is not None:
        return divergence
    return _compare_counters(
        "l1",
        seed,
        [
            ("summary.accesses", summary.accesses, ref_summary["accesses"]),
            ("summary.misses", summary.misses, ref_summary["misses"]),
            ("summary.writebacks", summary.writebacks, ref_summary["writebacks"]),
            ("summary.ifetch_misses", summary.ifetch_misses, ref_summary["ifetch_misses"]),
        ],
        context,
    )


_OUTCOME_BY_LOOKUP = {
    Lookup.HIT: "hit",
    Lookup.MISS: "miss",
    Lookup.IN_FLIGHT: "in_flight",
}


def _run_optimized_streams_per_event(
    config: StreamConfig, miss_trace: MissTrace
) -> Tuple[List[str], StreamStats]:
    """Drive the optimized prefetcher event by event, recording outcomes."""
    prefetcher = StreamPrefetcher(config)
    outcomes: List[str] = []
    wb = int(MissEventKind.WRITEBACK)
    ifetch = int(MissEventKind.IFETCH_MISS)
    for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
        if kind == wb:
            prefetcher.handle_writeback(addr)
            outcomes.append("writeback")
        else:
            result = prefetcher.handle_miss(addr, is_ifetch=kind == ifetch)
            outcomes.append(_OUTCOME_BY_LOOKUP[result])
    return outcomes, prefetcher.finalize()


def _stats_counter_pairs(stats, ref: dict) -> List[Tuple[str, object, object]]:
    pairs = [
        ("demand_misses", stats.demand_misses, ref["demand_misses"]),
        ("stream_hits", stats.stream_hits, ref["stream_hits"]),
        ("in_flight_matches", stats.in_flight_matches, ref["in_flight_matches"]),
        ("ifetch_misses", stats.ifetch_misses, ref["ifetch_misses"]),
        ("writebacks", stats.writebacks, ref["writebacks"]),
        ("invalidations", stats.invalidations, ref["invalidations"]),
        ("prefetches_issued", stats.prefetches_issued, ref["prefetches_issued"]),
        ("prefetches_used", stats.prefetches_used, ref["prefetches_used"]),
        ("allocations", stats.allocations, ref["allocations"]),
        ("unit_filter_hits", stats.unit_filter_hits, ref["unit_filter_hits"]),
        ("unit_filter_misses", stats.unit_filter_misses, ref["unit_filter_misses"]),
        ("detector_hits", stats.detector_hits, ref["detector_hits"]),
        (
            "lengths.hits_by_bucket",
            dict(stats.lengths.hits_by_bucket),
            ref["lengths"]["hits_by_bucket"],
        ),
        (
            "lengths.streams_by_bucket",
            dict(stats.lengths.streams_by_bucket),
            ref["lengths"]["streams_by_bucket"],
        ),
        (
            "lengths.zero_length_streams",
            stats.lengths.zero_length_streams,
            ref["lengths"]["zero_length_streams"],
        ),
        # Bandwidth accounting: identical integer inputs must yield
        # identical floats (same formula, same operand order).
        ("bandwidth.useless", stats.bandwidth.useless_prefetches, ref["useless_prefetches"]),
        ("bandwidth.eb_measured", stats.bandwidth.eb_measured, ref["eb_measured"]),
        ("bandwidth.eb_estimate", stats.bandwidth.eb_estimate, ref["eb_estimate"]),
    ]
    return pairs


def diff_streams(seed: int, n_events: int = 2000) -> Optional[Divergence]:
    """One seeded stream-prefetcher differential check."""
    rng = random.Random(seed * 2246822519 % (1 << 31))
    config = random_stream_config(rng)
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)
    context = f"config={config}"

    opt_outcomes, opt_stats = _run_optimized_streams_per_event(config, miss_trace)

    ref = oracle.RefStreamPrefetcher(config).run(
        miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    )
    ref_outcomes = ref["outcomes"]
    for i, (opt_outcome, ref_outcome) in enumerate(zip(opt_outcomes, ref_outcomes)):
        if opt_outcome != ref_outcome:
            return Divergence(
                stage="streams",
                seed=seed,
                what=f"outcome[{i}] (addr={miss_trace.addrs[i]:#x}, kind={miss_trace.kinds[i]})",
                optimized=opt_outcome,
                expected=ref_outcome,
                context=context,
            )
    divergence = _compare_counters(
        "streams", seed, _stats_counter_pairs(opt_stats, ref), context
    )
    if divergence is not None:
        return divergence

    # The bulk run() path (demand-only fast path included) must agree
    # with the per-event drive above.
    bulk_stats = StreamPrefetcher(config).run(miss_trace)
    return _compare_counters(
        "streams",
        seed,
        [
            (f"run() vs per-event: {name}", bulk, per_event)
            for (name, per_event, _), (_, bulk, _) in zip(
                _stats_counter_pairs(opt_stats, ref),
                _stats_counter_pairs(bulk_stats, ref),
            )
        ],
        context,
    )


def _run_optimized_mechanism_per_event(
    config: MechanismConfig, miss_trace: MissTrace
) -> Tuple[List[str], object]:
    """Drive a production mechanism event by event, recording outcomes."""
    mechanism = build_mechanism(config)
    outcomes: List[str] = []
    wb = int(MissEventKind.WRITEBACK)
    for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
        if kind == wb:
            mechanism.handle_writeback(addr)
            outcomes.append("writeback")
        else:
            outcomes.append("hit" if mechanism.handle_miss(addr, kind) else "miss")
    return outcomes, mechanism.finalize()


def _mech_counter_pairs(stats, ref: dict) -> List[Tuple[str, object, object]]:
    pairs = [
        (name, getattr(stats, name), ref[name]) for name in mech_oracle.MECH_COUNTERS
    ]
    if "member_hits" in ref:
        pairs.append(("member_hits", list(stats.member_hits), ref["member_hits"]))
    return pairs


def _diff_mechanism(
    stage: str, seed: int, config: MechanismConfig, miss_trace: MissTrace
) -> Optional[Divergence]:
    """Shared body of the mechanism-zoo differ stages.

    Per-event outcomes vs the golden model, then the full counter
    surface, then two production cross-checks: the bulk ``run()`` loop
    and the :func:`~repro.sim.vector.replay_secondary` dispatcher (for
    hybrids the latter is the two-phase residual formulation, so its
    agreement with the oracle's *online* composition is the equivalence
    proof for the composition rules in docs/mechanisms.md).
    """
    context = f"config={config}"
    opt_outcomes, opt_stats = _run_optimized_mechanism_per_event(config, miss_trace)

    ref = mech_oracle.build_ref_mechanism(config).run(
        miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    )
    for i, (opt_outcome, ref_outcome) in enumerate(zip(opt_outcomes, ref["outcomes"])):
        if opt_outcome != ref_outcome:
            return Divergence(
                stage=stage,
                seed=seed,
                what=f"outcome[{i}] (addr={miss_trace.addrs[i]:#x}, kind={miss_trace.kinds[i]})",
                optimized=opt_outcome,
                expected=ref_outcome,
                context=context,
            )
    divergence = _compare_counters(
        stage, seed, _mech_counter_pairs(opt_stats, ref), context
    )
    if divergence is not None:
        return divergence
    if opt_stats.streams is not None and "streams" in ref:
        divergence = _compare_counters(
            stage,
            seed,
            [
                (f"streams.{name}", opt_value, ref_value)
                for name, opt_value, ref_value in _stats_counter_pairs(
                    opt_stats.streams, ref["streams"]
                )
            ],
            context,
        )
        if divergence is not None:
            return divergence

    # The bulk run() loop must agree with the per-event drive above.
    bulk_stats = build_mechanism(config).run(miss_trace)
    divergence = _compare_counters(
        stage,
        seed,
        [
            (f"run() vs per-event: {name}", getattr(bulk_stats, name), getattr(opt_stats, name))
            for name in mech_oracle.MECH_COUNTERS
        ]
        + [
            (
                "run() vs per-event: member_hits",
                list(bulk_stats.member_hits),
                list(opt_stats.member_hits),
            )
        ],
        context,
    )
    if divergence is not None:
        return divergence

    # The store/sweep dispatcher — two-phase residual for hybrids.
    replayed = replay_secondary(config, miss_trace)
    return _compare_counters(
        stage,
        seed,
        [
            (
                f"replay_secondary vs per-event: {name}",
                getattr(replayed, name),
                getattr(opt_stats, name),
            )
            for name in mech_oracle.MECH_COUNTERS
        ]
        + [
            (
                "replay_secondary vs per-event: member_hits",
                list(replayed.member_hits),
                list(opt_stats.member_hits),
            )
        ],
        context,
    )


def diff_victim(seed: int, n_events: int = 2000) -> Optional[Divergence]:
    """One seeded victim-cache differential check."""
    rng = random.Random(seed * 3266489917 % (1 << 31))
    config = random_victim_config(rng)
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)
    return _diff_mechanism("victim", seed, config, miss_trace)


def diff_misscache(seed: int, n_events: int = 2000) -> Optional[Divergence]:
    """One seeded miss-cache differential check."""
    rng = random.Random(seed * 668265263 % (1 << 31))
    config = random_misscache_config(rng)
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)
    return _diff_mechanism("misscache", seed, config, miss_trace)


def diff_hybrid(seed: int, n_events: int = 2000) -> Optional[Divergence]:
    """One seeded hybrid-stack differential check."""
    rng = random.Random(seed * 374761393 % (1 << 31))
    config = random_hybrid_config(rng)
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)
    return _diff_mechanism("hybrid", seed, config, miss_trace)


#: Fully-associative capacities (in blocks) the analytic differ checks.
#: Small enough that the oracle's O(assoc) scans stay cheap, spread wide
#: enough to cover empty-, partial- and full-histogram prefixes.
_ANALYTIC_CAPACITIES = (1, 2, 4, 16, 64, 256)


def diff_analytic(seed: int, n_events: int = 2500) -> Optional[Divergence]:
    """One seeded analytic-vs-oracle check of the locality profiler.

    Profiles a random miss trace at 64B and 128B blocks, then drives a
    fully-associative (one-set) LRU :class:`~repro.check.oracle.RefCache`
    over the same trace with L2 semantics — write-backs install but do
    not count — and demands bit-identical demand/hit counts at every
    capacity in :data:`_ANALYTIC_CAPACITIES` (Mattson's theorem makes the
    profile's prefix sums *exact*, so any mismatch is a bug).
    """
    from repro.analytic.model import fa_hit_count
    from repro.analytic.profile import profile_miss_trace

    rng = random.Random(seed * 3266489917 % (1 << 31))
    miss_trace = random_miss_trace(rng, n_events)
    profiles = profile_miss_trace(miss_trace, (64, 128))

    addrs = miss_trace.addrs.tolist()
    kinds = miss_trace.kinds.tolist()
    for block_size, profile in profiles.items():
        for capacity_blocks in _ANALYTIC_CAPACITIES:
            ref = oracle.RefCache(
                capacity=capacity_blocks * block_size,
                assoc=capacity_blocks,
                block_size=block_size,
                policy="lru",
                write_back=True,
                write_allocate=True,
                seed=0,
            )
            sink: List[Tuple[int, int]] = []
            demand = 0
            hits = 0
            for addr, kind in zip(addrs, kinds):
                if kind == oracle.EV_WRITEBACK:
                    ref.access(addr, oracle.ACCESS_WRITE, sink)
                    continue
                demand += 1
                is_write = kind == oracle.EV_WRITE_MISS
                if ref.access(
                    addr, oracle.ACCESS_WRITE if is_write else oracle.ACCESS_READ, sink
                ):
                    hits += 1
            context = f"block_size={block_size} capacity_blocks={capacity_blocks}"
            divergence = _compare_counters(
                "analytic",
                seed,
                [
                    ("demand_accesses", profile.demand_accesses, demand),
                    ("fa_hit_count", fa_hit_count(profile, capacity_blocks * block_size), hits),
                ],
                context,
            )
            if divergence is not None:
                return divergence
    return None


def diff_analytic_streams(seed: int, n_events: int = 2000) -> Optional[Divergence]:
    """One seeded check of the closed-form stream-buffer model.

    Two sub-checks share the seed.  First the one-pass spectrum
    extraction (:func:`~repro.trace.spectrum.extract_spectrum`) is
    compared bit-for-bit against the naive O(n^2) reference on a
    truncated prefix of the trace — every scalar and every per-run array
    must match exactly.  Then the full trace's spectrum feeds
    :func:`~repro.analytic.streams.predict_streams` for a random
    envelope configuration, and the predicted hit rate must sit within
    the prediction's *declared* error bound of the golden
    :class:`~repro.check.oracle.RefStreamPrefetcher` — the same contract
    the analytic sweep path relies on when it prunes cells without
    replaying them.
    """
    from repro.analytic.streams import predict_streams, stream_envelope_config
    from repro.trace.spectrum import extract_spectrum, naive_spectrum

    rng = random.Random(seed * 3266489917 % (1 << 31))
    config = stream_envelope_config(random_stream_config(rng))
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)

    # -- spectrum extraction vs naive reference (truncated prefix) -----
    prefix_len = min(400, len(miss_trace.addrs))
    prefix = MissTrace(
        addrs=miss_trace.addrs[:prefix_len],
        kinds=miss_trace.kinds[:prefix_len],
        block_bits=miss_trace.block_bits,
    )
    fast = extract_spectrum(prefix)
    naive = naive_spectrum(prefix)
    if fast != naive:
        for name in (
            "n_events",
            "demand_misses",
            "writebacks",
            "ifetch_misses",
            "lone_misses",
            "seed_events",
            "alloc_events",
        ):
            fast_value = getattr(fast, name)
            naive_value = getattr(naive, name)
            if fast_value != naive_value:
                return Divergence(
                    stage="analytic-streams",
                    seed=seed,
                    what=f"spectrum.{name}",
                    optimized=str(fast_value),
                    expected=str(naive_value),
                    context=f"prefix_len={prefix_len}",
                )
        for name in (
            "run_start_addr",
            "run_stride_bytes",
            "run_length",
            "run_wb_next",
            "run_wb_window",
            "run_primer_age",
            "run_kind",
            "run_byte_uniform",
            "run_gaps_ge",
            "run_conc_ge",
        ):
            fast_value = getattr(fast, name)
            naive_value = getattr(naive, name)
            if not np.array_equal(fast_value, naive_value):
                return Divergence(
                    stage="analytic-streams",
                    seed=seed,
                    what=f"spectrum.{name}",
                    optimized=np.array2string(fast_value, threshold=24),
                    expected=np.array2string(naive_value, threshold=24),
                    context=f"prefix_len={prefix_len}",
                )
        return Divergence(
            stage="analytic-streams",
            seed=seed,
            what="spectrum equality",
            optimized=repr(fast),
            expected=repr(naive),
            context=f"prefix_len={prefix_len}",
        )

    # -- closed-form prediction vs golden oracle, within bound ---------
    spectrum = extract_spectrum(miss_trace)
    prediction = predict_streams(spectrum, config)
    ref = oracle.RefStreamPrefetcher(config).run(
        miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    )
    demand = ref["demand_misses"]
    truth = ref["stream_hits"] / demand if demand else 0.0
    error = abs(prediction.hit_rate - truth)
    if error > prediction.bound:
        return Divergence(
            stage="analytic-streams",
            seed=seed,
            what="hit_rate out of declared bound",
            optimized=f"{prediction.hit_rate:.6f} (bound {prediction.bound:.6f})",
            expected=f"{truth:.6f} (|error| {error:.6f})",
            context=f"config={config}",
        )
    if spectrum.demand_misses != demand:
        return Divergence(
            stage="analytic-streams",
            seed=seed,
            what="spectrum.demand_misses",
            optimized=str(spectrum.demand_misses),
            expected=str(demand),
            context=f"config={config}",
        )
    return None


def diff_vector(seed: int, n_events: int = 2500) -> Optional[Divergence]:
    """One seeded vector-vs-scalar engine check (:mod:`repro.sim.vector`).

    Two sub-checks share the seed: the batch L1 engine vs the scalar
    :class:`~repro.caches.cache.Cache` over a random write-back,
    write-allocate geometry, and the sampled vector L2 probe vs
    :func:`~repro.caches.secondary.simulate_secondary`.  Random
    configurations are coerced *into* each engine's support envelope —
    anything outside it falls back to scalar in production, so only the
    envelope needs differential coverage.  ``force=True`` keeps the
    vector engines live even under ``REPRO_CHECK=1``, where they
    normally stand down in favour of the instrumented scalar paths.
    """
    rng = random.Random(seed * 2246822507 % (1 << 31))

    # -- L1: batch engine vs scalar Cache ------------------------------
    config = replace(random_cache_config(rng), write_back=True, write_allocate=True)
    trace = random_trace(rng, n_events)
    context = f"l1 config={config}"
    vectorized = vector_simulate_cache(config, trace, force=True)
    if vectorized is None:
        return Divergence(
            stage="vector",
            seed=seed,
            what="l1 engine gate",
            optimized="None (engine refused a supported configuration)",
            expected="(miss_trace, stats)",
            context=context,
        )
    vec_trace, vec_stats = vectorized
    scalar = Cache(config)
    ref_trace = scalar.simulate(trace)
    divergence = _compare_events(
        "vector",
        seed,
        vec_trace.addrs.tolist(),
        vec_trace.kinds.tolist(),
        list(zip(ref_trace.addrs.tolist(), ref_trace.kinds.tolist())),
        context,
    )
    if divergence is not None:
        return divergence
    ref_stats = scalar.stats
    divergence = _compare_counters(
        "vector",
        seed,
        [
            ("l1.accesses", vec_stats.accesses, ref_stats.accesses),
            ("l1.hits", vec_stats.hits, ref_stats.hits),
            ("l1.misses", vec_stats.misses, ref_stats.misses),
            ("l1.read_misses", vec_stats.read_misses, ref_stats.read_misses),
            ("l1.write_misses", vec_stats.write_misses, ref_stats.write_misses),
            ("l1.writebacks", vec_stats.writebacks, ref_stats.writebacks),
        ],
        context,
    )
    if divergence is not None:
        return divergence

    # Stream replay has a single engine, checked against the oracle by
    # the ``streams`` stage; its miss-event generator feeds the L2 probe.
    miss_trace = random_miss_trace(rng, n_events)

    # -- secondary: sampled vector probe vs simulate_secondary ---------
    l2_config = replace(random_cache_config(rng), write_back=True, write_allocate=True)
    sample_every = rng.choice([1, 2, 4, 8])
    context = f"l2 config={l2_config} sample_every={sample_every}"
    vec_l2 = vector_simulate_secondary(
        miss_trace, l2_config, sample_every=sample_every, force=True
    )
    if vec_l2 is None:
        return Divergence(
            stage="vector",
            seed=seed,
            what="secondary engine gate",
            optimized="None (engine refused a supported configuration)",
            expected="SecondaryResult",
            context=context,
        )
    ref_l2 = simulate_secondary(miss_trace, l2_config, sample_every=sample_every)
    return _compare_counters(
        "vector",
        seed,
        [
            ("l2.demand_accesses", vec_l2.demand_accesses, ref_l2.demand_accesses),
            ("l2.demand_hits", vec_l2.demand_hits, ref_l2.demand_hits),
            (
                "l2.writebacks_received",
                vec_l2.writebacks_received,
                ref_l2.writebacks_received,
            ),
            ("l2.sampled_sets", vec_l2.sampled_sets, ref_l2.sampled_sets),
        ],
        context,
    )


def random_ladder_trace(
    rng: random.Random, n_events: int, depth: int, n_values: Sequence[int],
    block_bits: int = 6,
) -> MissTrace:
    """A miss-event stream built to exercise the stream ladder's divergences.

    The body interleaves a few ascending block runs, so hits land at
    every LRU-stack position; at per-seed rates it re-misses the block
    behind a run (a second window with the same head: a tie), aims
    write-backs at a run's next blocks (invalidations that a later hit
    carries forward), restarts runs, and mixes in write, instruction
    fetch and random misses.  The tail then constructs one inherited
    invalidation at stack position ``min(n_values)`` and one tie, so
    both divergences fire wherever the stream counts allow them.
    """
    blocks: List[int] = []
    kinds: List[int] = []
    span = 1 << 20
    cursors = [rng.randrange(span) for _ in range(rng.randrange(1, 13))]
    tie_rate = rng.choice([0.0, 0.002, 0.01])
    wb_rate = rng.choice([0.05, 0.15, 0.3])
    body = max(0, n_events - 24)
    while len(blocks) < body:
        c = rng.randrange(len(cursors))
        roll = rng.random()
        if roll < tie_rate:
            blocks.append(cursors[c] - 1)
            kinds.append(rng.choice([oracle.EV_READ_MISS, oracle.EV_WRITE_MISS]))
        elif roll < tie_rate + wb_rate:
            blocks.append(cursors[c] + rng.randrange(depth + 1))
            kinds.append(oracle.EV_WRITEBACK)
        elif roll < 0.9:
            blocks.append(cursors[c])
            kinds.append(
                oracle.EV_IFETCH_MISS if rng.random() < 0.05 else oracle.EV_READ_MISS
            )
            cursors[c] += 1
        elif roll < 0.95:
            cursors[c] = rng.randrange(span)
        else:
            blocks.append(rng.randrange(span))
            kinds.append(rng.choice([oracle.EV_READ_MISS, oracle.EV_WRITE_MISS]))
    del blocks[body:], kinds[body:]
    # Inherited invalidation: invalidate the second entry of a fresh
    # window, push it down min(n_values) positions, then hit its head.
    base = span + rng.randrange(span)
    pushes = min(n_values)
    tail = [(base, oracle.EV_READ_MISS), (base + 2, oracle.EV_WRITEBACK)]
    tail += [(base + 16 * (k + 1), oracle.EV_READ_MISS) for k in range(pushes)]
    tail.append((base + 1, oracle.EV_READ_MISS))
    # Tie: two windows with the same head, then a miss on that head.
    base += 1 << 12
    tail += [(base, oracle.EV_READ_MISS)] * 2 + [(base + 1, oracle.EV_READ_MISS)]
    for block, kind in tail:
        blocks.append(block)
        kinds.append(kind)
    return MissTrace(
        np.asarray(blocks, dtype=np.int64) << block_bits,
        np.asarray(kinds, dtype=np.uint8),
        block_bits,
    )


def _stream_stats_pairs(
    stats: StreamStats, expected: StreamStats
) -> List[Tuple[str, object, object]]:
    """Every :class:`StreamStats` field of two runs, side by side."""
    pairs = []
    for item in fields(StreamStats):
        if item.name == "lengths":
            for part in ("hits_by_bucket", "streams_by_bucket", "zero_length_streams"):
                pairs.append(
                    (
                        f"lengths.{part}",
                        getattr(stats.lengths, part),
                        getattr(expected.lengths, part),
                    )
                )
        else:
            pairs.append(
                (item.name, getattr(stats, item.name), getattr(expected, item.name))
            )
    return pairs


def diff_ladder(
    seed: int, n_events: int = 2000, flags: Optional[Counter] = None
) -> Optional[Divergence]:
    """One seeded stream-ladder check (:func:`run_ladder`).

    A random subset of stream counts (contiguous or not, in any order)
    at a random depth 1-4, on :func:`random_ladder_trace`, with merge
    points every 16 to 1024 events; every :class:`StreamStats` field of
    every count must equal a replay of that count by itself through
    :func:`replay_streams`.  ``flags``, if given, tallies the ladder's
    forks by reason and its merges.
    """
    rng = random.Random(seed * 2246822519 % (1 << 31) + 7)
    depth = rng.randrange(1, 5)
    n_values = rng.sample(range(1, 11), rng.randrange(1, 11))
    miss_trace = random_ladder_trace(rng, n_events, depth, n_values)
    chunk = rng.choice([16, 64, 256, 1024])
    base = StreamConfig(n_streams=n_values[0], depth=depth)
    ladder_stats, replayed, moves = run_ladder(base, n_values, miss_trace, chunk=chunk)
    if flags is not None:
        flags.update(moves)
    for n in n_values:
        config = base.with_(n_streams=n)
        divergence = _compare_counters(
            "ladder",
            seed,
            _stream_stats_pairs(ladder_stats[n], replay_streams(config, miss_trace)),
            f"n_values={sorted(n_values)} depth={depth} n={n} chunk={chunk} "
            f"replayed={replayed} moves={dict(moves)}",
        )
        if divergence is not None:
            return divergence
    return None


#: Small, structurally diverse slice of the registry for corpus runs.
DEFAULT_REGISTRY_WORKLOADS = ("cgm", "mgrid", "trfd")


def diff_registry_workload(
    name: str, scale: float = 0.05, seed: int = 0
) -> Optional[Divergence]:
    """Full-pipeline check of one real workload model at small scale."""
    stage = f"registry:{name}"
    workload = get_workload(name, scale=scale, seed=seed)
    config = CacheConfig.paper_l1()
    miss_trace, summary = simulate_l1(workload, config)

    trace = workload.trace()
    ref_events, ref_summary = oracle.ref_simulate_l1(
        trace.addrs.tolist(),
        trace.kinds.tolist(),
        capacity=config.capacity,
        assoc=config.assoc,
        block_size=config.block_size,
        policy=config.policy,
        write_back=config.write_back,
        write_allocate=config.write_allocate,
        seed=config.seed,
    )
    context = f"workload={name} scale={scale} seed={seed}"
    divergence = _compare_events(
        stage,
        seed,
        miss_trace.addrs.tolist(),
        miss_trace.kinds.tolist(),
        ref_events,
        context,
    )
    if divergence is not None:
        return divergence
    divergence = _compare_counters(
        stage,
        seed,
        [
            ("summary.misses", summary.misses, ref_summary["misses"]),
            ("summary.writebacks", summary.writebacks, ref_summary["writebacks"]),
        ],
        context,
    )
    if divergence is not None:
        return divergence

    # Streams over the real miss trace, one filtered and one czone config.
    for stream_config in (
        StreamConfig.filtered(n_streams=8),
        StreamConfig.non_unit(n_streams=8, czone_bits=16),
    ):
        opt_stats = StreamPrefetcher(stream_config).run(miss_trace)
        ref = oracle.RefStreamPrefetcher(stream_config).run(
            miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
        )
        divergence = _compare_counters(
            stage,
            seed,
            _stats_counter_pairs(opt_stats, ref),
            f"{context}; stream config={stream_config}",
        )
        if divergence is not None:
            return divergence
    return None


# -- corpus driver ----------------------------------------------------------


#: Per-seed stage registry: name -> diff function.  ``--replay`` and the
#: corpus driver both dispatch through this table.
STAGE_FUNCTIONS = {
    "l1": diff_l1,
    "streams": diff_streams,
    "victim": diff_victim,
    "misscache": diff_misscache,
    "hybrid": diff_hybrid,
    "analytic": diff_analytic,
    "analytic-streams": diff_analytic_streams,
    "vector": diff_vector,
    "ladder": diff_ladder,
}

#: Stages a default corpus run exercises per seed, in order.
DEFAULT_STAGES = (
    "l1",
    "streams",
    "victim",
    "misscache",
    "hybrid",
    "analytic",
    "analytic-streams",
    "vector",
)


def check_seed(
    seed: int,
    n_events: int = 2500,
    stages: Sequence[str] = DEFAULT_STAGES,
    ladder_flags: Optional[Counter] = None,
) -> List[Divergence]:
    """Run the random-trace stages for one seed.

    ``ladder_flags``, if given, tallies the ``ladder`` stage's forks and merges.
    """
    found = []
    for stage in stages:
        if stage == "ladder":
            divergence = diff_ladder(seed, n_events=n_events, flags=ladder_flags)
        else:
            divergence = STAGE_FUNCTIONS[stage](seed, n_events=n_events)
        if divergence is not None:
            found.append(divergence)
    return found


def run_corpus(
    seeds: int = 50,
    seed_start: int = 0,
    n_events: int = 2500,
    registry: bool = True,
    registry_scale: float = 0.05,
    registry_workloads: Sequence[str] = DEFAULT_REGISTRY_WORKLOADS,
    stages: Sequence[str] = DEFAULT_STAGES,
    progress=None,
) -> CheckReport:
    """Run the full differential corpus; collect every divergence."""
    unknown = [stage for stage in stages if stage not in STAGE_FUNCTIONS]
    if unknown:
        raise ValueError(
            f"unknown stages {unknown}; choose from {sorted(STAGE_FUNCTIONS)}"
        )
    report = CheckReport()
    fired: Counter = Counter()
    for seed in range(seed_start, seed_start + seeds):
        report.divergences.extend(
            check_seed(seed, n_events=n_events, stages=stages, ladder_flags=fired)
        )
        report.seeds_checked += 1
        report.stages_run += len(stages)
        if progress is not None and (seed - seed_start + 1) % 25 == 0:
            progress(f"  {seed - seed_start + 1}/{seeds} seeds checked")
    if "ladder" in stages and seeds:
        report.ladder_flags = {
            reason: fired[reason] for reason in (TIE, INHERITED_INVALIDATION, MERGE)
        }
        for reason, count in report.ladder_flags.items():
            if not count:
                # A fork or merge path the corpus never reaches is untested.
                report.divergences.append(
                    Divergence(
                        stage="ladder",
                        seed=seed_start,
                        what=f"ladder path {reason!r} coverage",
                        optimized="never fired",
                        expected="fired at least once over the corpus",
                        context=f"{seeds} seeds from {seed_start}",
                    )
                )
    if registry:
        for name in registry_workloads:
            divergence = diff_registry_workload(name, scale=registry_scale)
            report.stages_run += 1
            if divergence is not None:
                report.divergences.append(divergence)
    return report
