"""Vectorized batch engines for the primary and sampled secondary caches,
plus the secondary-replay dispatch.

The scalar :class:`~repro.caches.cache.Cache` steps access-by-access
through a Python loop; profiling (``l1.simulate`` spans) shows that
loop dominating every executed sweep cell.  This module
rebuilds the cache hot paths as batch engines that stay
**bit-identical** to the scalar code — same miss events in the same
order, same statistics, same RNG draws — so results are interchangeable
and the differential harness can prove equivalence (the ``vector`` stage
of ``repro check``).

Design (see docs/vectorized.md for the full argument):

* **Set-local collapse (L1).**  An access is a *guaranteed hit* whenever
  the previous access to the same cache set touched the same block: no
  other block intervened in that set, so no replacement policy can have
  evicted it, and servicing it changes no replacement state (for LRU the
  block is already most-recent; hit-dirtiness is carried as a per-run
  flag).  The whole trace is segmented set-locally with numpy (stable
  argsort by set index, adjacent same-block comparison), collapsing
  70-95% of accesses on the paper's workloads.  Only the residue — the
  first access of each set-local run — is replayed through a tight
  per-policy Python loop that mirrors :meth:`Cache.simulate` exactly,
  including the shared-RNG victim draws of random replacement.  This is
  strictly stronger than the *globally* consecutive collapse of
  :func:`repro.trace.compress.compress_consecutive` and subsumes it.

* **Sampled L2 probes.**  :func:`vector_simulate_secondary` applies the
  set-sampling filter as one vectorized mask (the scalar loop pays full
  loop cost even for skipped accesses) and then runs the same set-local
  collapse; only hit/miss membership matters for the L2's counters, so
  the residue loop is even leaner than L1's.

Each batch engine answers None outside its domain (other write
policies, PC-carrying traces) and the caller falls back to the scalar
cache.  Under ``REPRO_CHECK=1`` they stand down too, so the scalar
cache's per-access invariants keep their coverage; the differ's
``vector`` stage drives them directly (``force=True``) so they stay
differentially tested even then.

Stream buffers have a single engine, the flat-window
:class:`~repro.core.prefetcher.StreamPrefetcher`; :func:`replay_streams`
and :func:`replay_secondary` are the entry points every layer replays a
miss trace through.  :func:`replay_stream_ladder` serves a whole
``n_streams`` ladder of unfiltered configs from one LRU-stack pass
(:func:`~repro.core.prefetcher.run_ladder`), continuing through
:func:`replay_streams` the stream counts a divergence leaves alone.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import CacheConfig, CacheStats, MissEventKind, MissTrace
from repro.caches.secondary import SecondaryResult
from repro.check import invariants as _inv
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamPrefetcher, StreamStats, run_ladder
from repro.trace.events import AccessKind, Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.mechanisms import MechanismConfig, MechStats

__all__ = [
    "cache_vector_supported",
    "vector_simulate_cache",
    "replay_streams",
    "replay_stream_ladder",
    "replay_secondary",
    "secondary_vector_supported",
    "vector_simulate_secondary",
]

_WRITE = int(AccessKind.WRITE)
_WB = int(MissEventKind.WRITEBACK)


# ---------------------------------------------------------------------------
# Shared set-local segmentation
# ---------------------------------------------------------------------------


def _collapse_set_local(
    blocks: np.ndarray, set_mask: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment a block stream into set-local same-block runs.

    Returns ``(kept, starts_sorted, order)`` where ``kept`` holds the
    original indices of each run's first access in original trace order,
    ``order`` is the stable set-grouping permutation and ``starts_sorted``
    the run starts within that permutation (for ``reduceat`` folds).
    Callers fold per-run payloads (dirtiness, demand counts) with
    :func:`_fold_runs`.
    """
    sets = blocks & set_mask
    if set_mask <= 0xFFFF:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sorted_blocks = blocks[order]
    # Within one set's stable subsequence, an adjacent equal block means
    # the previous access to this set was the same block: a guaranteed
    # hit.  Across set boundaries blocks always differ (the set index is
    # a function of the block), so no mask on set equality is needed.
    dup = np.empty(len(sorted_blocks), dtype=bool)
    if len(dup):
        dup[0] = False
        np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=dup[1:])
    starts_sorted = np.flatnonzero(~dup)
    kept = np.sort(order[starts_sorted])
    return kept, starts_sorted, order


def _fold_runs(
    payload_sorted: np.ndarray,
    starts_sorted: np.ndarray,
    order: np.ndarray,
    kept: np.ndarray,
    reducer,
) -> np.ndarray:
    """Reduce a per-access payload over set-local runs, in ``kept`` order."""
    per_run = reducer(payload_sorted, starts_sorted)
    full = np.empty(order.shape[0], dtype=per_run.dtype)
    full[order[starts_sorted]] = per_run
    return full[kept]


# ---------------------------------------------------------------------------
# L1 / generic set-associative cache
# ---------------------------------------------------------------------------


def cache_vector_supported(config: CacheConfig, trace: Trace) -> bool:
    """Can :func:`vector_simulate_cache` replace ``Cache.simulate`` here?

    The batch engine covers the dirty-collapse domain (write-back +
    write-allocate; see :mod:`repro.trace.compress`) for all three
    replacement policies.  PC-carrying traces keep the scalar path (miss
    events would need per-event PC tracking), as does ``REPRO_CHECK=1``
    so the per-access invariant hooks retain coverage.
    """
    return (
        config.write_back
        and config.write_allocate
        and config.policy in ("random", "lru", "fifo")
        and not trace.has_pcs
        and not _inv.ENABLED
    )


def vector_simulate_cache(
    config: CacheConfig, trace: Trace, force: bool = False
) -> Optional[Tuple[MissTrace, CacheStats]]:
    """Batch-simulate a set-associative cache over a raw trace.

    Bit-identical to feeding ``trace`` through
    :meth:`repro.caches.cache.Cache.simulate` (with the runner's
    compression applied for WB+WA): same miss/write-back event stream,
    same statistics, same RNG consumption for random replacement.

    Returns:
        ``(miss_trace, stats)``, or None when the configuration/trace is
        outside the engine's domain (``force`` only bypasses the
        ``REPRO_CHECK`` stand-down, for the differ's vector stage).
    """
    if not (
        config.write_back
        and config.write_allocate
        and config.policy in ("random", "lru", "fifo")
        and not trace.has_pcs
    ):
        return None
    if _inv.ENABLED and not force:
        return None

    n = len(trace)
    block_bits = config.block_bits
    if n == 0:
        return (
            MissTrace(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), block_bits
            ),
            CacheStats(),
        )

    set_mask = config.n_sets - 1
    blocks = trace.addrs >> block_bits
    kept, starts_sorted, order = _collapse_set_local(blocks, set_mask)

    is_write = trace.kinds == _WRITE
    run_dirty = _fold_runs(
        is_write[order], starts_sorted, order, kept, np.logical_or.reduceat
    )
    kept_write = is_write[kept].view(np.uint8)
    # One small int per residue access: bit 0 = the miss-event kind
    # (READ_MISS=0 / WRITE_MISS=1 == is_write), bit 1 = run dirtiness.
    flag_col = (kept_write + 2 * (kept_write | run_dirty.view(np.uint8))).tolist()
    block_col = blocks[kept].tolist()
    addr_col = trace.addrs[kept].tolist()

    out_addrs: List[int] = []
    out_kinds: List[int] = []
    if config.policy == "random":
        _residue_random(
            config, set_mask, block_col, flag_col, addr_col, out_addrs, out_kinds
        )
    else:
        _residue_ordered(
            config, set_mask, block_col, flag_col, addr_col, out_addrs, out_kinds
        )

    kinds_arr = np.asarray(out_kinds, dtype=np.uint8)
    addrs_arr = np.asarray(out_addrs, dtype=np.int64)
    read_misses = int(np.count_nonzero(kinds_arr == int(MissEventKind.READ_MISS)))
    write_misses = int(np.count_nonzero(kinds_arr == int(MissEventKind.WRITE_MISS)))
    misses = read_misses + write_misses
    stats = CacheStats(
        accesses=n,
        hits=n - misses,
        misses=misses,
        read_misses=read_misses,
        write_misses=write_misses,
        writebacks=int(np.count_nonzero(kinds_arr == _WB)),
    )
    return MissTrace(addrs_arr, kinds_arr, block_bits), stats


def _residue_random(
    config: CacheConfig,
    set_mask: int,
    block_col: List[int],
    flag_col: List[int],
    addr_col: List[int],
    out_addrs: List[int],
    out_kinds: List[int],
) -> None:
    """Residue replay, random replacement (mirrors _simulate_fast_random).

    Blocks embed their set index, so one global residency dict stands in
    for the per-set dicts; victim draws consume ``Random(config.seed)``
    in the same order as the scalar cache.
    """
    assoc = config.assoc
    block_bits = config.block_bits
    rng = random.Random(config.seed)
    # randrange(assoc) is exactly _randbelow(assoc) for positive ints;
    # binding the inner method skips the argument-parsing wrapper.
    randbelow = getattr(rng, "_randbelow", None) or rng.randrange
    resident: dict = {}
    slots: List[List[int]] = [[] for _ in range(set_mask + 1)]
    append_addr = out_addrs.append
    append_kind = out_kinds.append
    wb_kind = _WB
    for block, flags, addr in zip(block_col, flag_col, addr_col):
        if block in resident:
            if flags > 1:
                resident[block] = 1
            continue
        append_addr(addr)
        append_kind(flags & 1)
        set_slots = slots[block & set_mask]
        if len(set_slots) >= assoc:
            slot = randbelow(assoc)
            victim = set_slots[slot]
            if resident.pop(victim):
                append_addr(victim << block_bits)
                append_kind(wb_kind)
            set_slots[slot] = block
        else:
            set_slots.append(block)
        resident[block] = flags >> 1


def _residue_ordered(
    config: CacheConfig,
    set_mask: int,
    block_col: List[int],
    flag_col: List[int],
    addr_col: List[int],
    out_addrs: List[int],
    out_kinds: List[int],
) -> None:
    """Residue replay for LRU/FIFO (mirrors the general scalar loop)."""
    assoc = config.assoc
    block_bits = config.block_bits
    lru = config.policy == "lru"
    sets: List["OrderedDict[int, int]"] = [
        OrderedDict() for _ in range(set_mask + 1)
    ]
    append_addr = out_addrs.append
    append_kind = out_kinds.append
    wb_kind = _WB
    for block, flags, addr in zip(block_col, flag_col, addr_col):
        entries = sets[block & set_mask]
        if block in entries:
            if lru:
                entries.move_to_end(block)
            if flags > 1:
                entries[block] = 1
            continue
        append_addr(addr)
        append_kind(flags & 1)
        if len(entries) >= assoc:
            victim, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                append_addr(victim << block_bits)
                append_kind(wb_kind)
        entries[block] = flags >> 1


# ---------------------------------------------------------------------------
# Secondary replay dispatch
# ---------------------------------------------------------------------------


def replay_streams(
    config: StreamConfig,
    miss_trace: MissTrace,
    prefetcher: Optional[StreamPrefetcher] = None,
) -> StreamStats:
    """Replay a miss trace through stream buffers.

    The single entry point used by the runner, the parallel sweep workers
    and the Table 4 search; :meth:`StreamPrefetcher.run` picks its loop
    from the configuration.  ``prefetcher``, if given, is a bank of
    ``config`` already part-way through a longer trace (a stream ladder's
    lone bank): the replay continues it over ``miss_trace``, the next
    events of that trace, and the statistics cover all of them so far.
    """
    if prefetcher is None:
        prefetcher = StreamPrefetcher(config)
    return prefetcher.run(miss_trace)


def replay_stream_ladder(
    configs: Sequence[StreamConfig], miss_trace: MissTrace
) -> Tuple[List[StreamStats], Dict[int, str], Counter]:
    """Replay configs that differ only in ``n_streams`` in one pass.

    Bit-identical to :func:`replay_streams` on each config:
    :func:`~repro.core.prefetcher.run_ladder` serves every stream count
    from LRU stacks, except while a divergence leaves a count alone;
    that count's bank then continues through :func:`replay_streams` (looked
    up as a module global on every call), one chunk of miss events at a
    time.

    Returns:
        The statistics in ``configs`` order, the reason each stream count
        that went through :func:`replay_streams` first left a stack, and
        the ladder's forks by reason and merges.

    Raises:
        ValueError: if the configs differ in anything but ``n_streams``,
            or lie outside :func:`~repro.core.prefetcher.ladder_supported`.
    """
    base = configs[0]
    if any(config.with_(n_streams=base.n_streams) != base for config in configs):
        raise ValueError("a stream ladder's configs may differ only in n_streams")
    stats, replayed, moves = run_ladder(
        base,
        [c.n_streams for c in configs],
        miss_trace,
        lambda config, events, prefetcher: replay_streams(config, events, prefetcher),
    )
    return [stats[config.n_streams] for config in configs], replayed, moves


def replay_secondary(mechanism: "MechanismConfig", miss_trace: MissTrace) -> "MechStats":
    """Replay a miss trace through any secondary mechanism.

    The mechanism-generic sibling of :func:`replay_streams` and the single
    entry point for the runner/sweep/compare layers:

    * ``streams`` delegates to :func:`replay_streams`;
    * ``victim``/``misscache`` run their mechanism's bulk loop;
    * ``hybrid`` runs front members through the two-phase residual
      composition and replays the trailing member (usually streams)
      through this dispatcher.
    """
    from repro.mechanisms import build_mechanism
    from repro.mechanisms.hybrid import combine_member_stats
    from repro.mechanisms.streams import mech_stats_from_streams

    if mechanism.kind == "streams":
        assert mechanism.streams is not None
        return mech_stats_from_streams(
            mechanism, replay_streams(mechanism.streams, miss_trace)
        )
    if mechanism.kind == "hybrid":
        member_stats = []
        residual = miss_trace
        last = len(mechanism.members) - 1
        for i, member in enumerate(mechanism.members):
            if i == last:
                member_stats.append(replay_secondary(member, residual))
            else:
                stats, residual = build_mechanism(member).run_filter(residual)
                member_stats.append(stats)
        return combine_member_stats(mechanism, member_stats)
    return build_mechanism(mechanism).run(miss_trace)


# ---------------------------------------------------------------------------
# Sampled secondary-cache probes
# ---------------------------------------------------------------------------


def secondary_vector_supported(config: CacheConfig) -> bool:
    """Can the batch engine answer :func:`simulate_secondary` queries?"""
    return (
        config.write_back
        and config.write_allocate
        and config.policy in ("random", "lru", "fifo")
        and not _inv.ENABLED
    )


def vector_simulate_secondary(
    miss_trace: MissTrace,
    config: CacheConfig,
    sample_every: int = 1,
    force: bool = False,
) -> Optional[SecondaryResult]:
    """Batch equivalent of :func:`repro.caches.secondary.simulate_secondary`.

    The set-sampling filter becomes one vectorized mask (the scalar loop
    still pays per-event dispatch for skipped accesses), then the same
    set-local collapse as the L1 engine resolves guaranteed hits.  Only
    residency matters for the L2 counters — dirty state never surfaces in
    a :class:`SecondaryResult` — so the residue loop tracks membership
    and recency only.  RNG draws for random replacement match the scalar
    cache's order exactly.
    """
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    if not (
        config.write_back
        and config.write_allocate
        and config.policy in ("random", "lru", "fifo")
    ):
        return None
    if _inv.ENABLED and not force:
        return None

    block_bits = config.block_bits
    set_mask = config.n_sets - 1
    blocks = miss_trace.addrs >> block_bits
    kinds = miss_trace.kinds
    if sample_every > 1:
        sampled = ((blocks & set_mask) % sample_every) == 0
        blocks = blocks[sampled]
        kinds = kinds[sampled]

    is_demand = kinds != _WB
    demand_total = int(np.count_nonzero(is_demand))
    wb_total = int(kinds.shape[0]) - demand_total
    n_sets = config.n_sets
    sampled_sets = (
        (n_sets + sample_every - 1) // sample_every if sample_every > 1 else n_sets
    )

    hits = 0
    if blocks.shape[0]:
        kept, starts_sorted, order = _collapse_set_local(blocks, set_mask)
        demand_per_run = _fold_runs(
            is_demand[order].astype(np.int64), starts_sorted, order, kept, np.add.reduceat
        )
        block_col = blocks[kept].tolist()
        demand_col = demand_per_run.tolist()
        first_demand_col = is_demand[kept].view(np.uint8).tolist()
        assoc = config.assoc
        if config.policy == "random":
            rng = random.Random(config.seed)
            randbelow = getattr(rng, "_randbelow", None) or rng.randrange
            resident: set = set()
            slots: List[List[int]] = [[] for _ in range(n_sets)]
            for block, run_demand, first_demand in zip(
                block_col, demand_col, first_demand_col
            ):
                if block in resident:
                    hits += run_demand
                    continue
                hits += run_demand - first_demand
                set_slots = slots[block & set_mask]
                if len(set_slots) >= assoc:
                    slot = randbelow(assoc)
                    resident.discard(set_slots[slot])
                    set_slots[slot] = block
                else:
                    set_slots.append(block)
                resident.add(block)
        else:
            is_lru = config.policy == "lru"
            sets: List["OrderedDict[int, None]"] = [
                OrderedDict() for _ in range(n_sets)
            ]
            for block, run_demand, first_demand in zip(
                block_col, demand_col, first_demand_col
            ):
                entries = sets[block & set_mask]
                if block in entries:
                    hits += run_demand
                    if is_lru:
                        entries.move_to_end(block)
                    continue
                hits += run_demand - first_demand
                if len(entries) >= assoc:
                    entries.popitem(last=False)
                entries[block] = None

    return SecondaryResult(
        config=config,
        demand_accesses=demand_total,
        demand_hits=hits,
        writebacks_received=wb_total,
        sampled_sets=sampled_sets,
    )
