"""The complete stream-buffer prefetch system.

:class:`StreamPrefetcher` wires the pieces of Sections 3, 6 and 7 together
and consumes the primary cache's miss stream:

* every demand miss is compared against the stream heads;
* on a stream miss, the allocation policy decides whether to reallocate
  the LRU stream: unconditionally (Section 5), after the unit-stride
  filter confirms two consecutive-block misses (Section 6), or — for
  references the unit filter rejects — after the non-unit stride detector
  verifies a constant stride (Section 7);
* write-backs bypass the streams and invalidate stale copies.

The paper's MacroTek-style *partitioned* variant routes instruction-fetch
misses to a separate lane with its own filters.

A stream buffer (Figure 2) is a next-address adder, a stride and a FIFO
of prefetched blocks, so its FIFO is always the strided block window
``next - depth*stride, ..., next - stride`` (head first).  Each lane
therefore keeps a few flat per-stream values instead of entry objects:
``next``, ``stride``, the set of window blocks a write-back invalidated,
the hit count since allocation and — only under the ``min_lead`` latency
model — each entry's issue sequence number.  A multiset of valid head
blocks makes a head miss a single dict probe.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace
from repro.check import invariants as _inv
from repro.core.bandwidth import BandwidthReport
from repro.core.config import StreamConfig, StrideDetector
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import StreamLengthHistogram, bucket_of
from repro.core.min_delta import MinDeltaDetector
from repro.core.nonunit import CzoneFilter

__all__ = [
    "Lookup",
    "StreamStats",
    "StreamPrefetcher",
    "TIE",
    "INHERITED_INVALIDATION",
    "MERGE",
    "LADDER_CHUNK",
    "ladder_supported",
    "run_ladder",
]

_WB = int(MissEventKind.WRITEBACK)
_IFETCH_MISS = int(MissEventKind.IFETCH_MISS)


class Lookup(enum.IntEnum):
    """Outcome of presenting a miss address to the stream buffers."""

    MISS = 0
    HIT = 1
    #: The head matched but, under the ``min_lead`` latency model, the
    #: prefetched data has not returned yet.  The demand fetch coalesces
    #: with the in-flight prefetch: the stream advances and the prefetch
    #: counts as used bandwidth, but the reference is *not* a stream hit
    #: and no stream should be (re)allocated for it.
    IN_FLIGHT = 2


@dataclass
class StreamStats:
    """Counters produced by one prefetcher run.

    ``demand_misses`` are the primary-cache misses presented (the paper's
    hit-rate denominator); ``stream_hits`` the subset serviced by a stream
    head (the numerator).
    """

    config: StreamConfig
    demand_misses: int = 0
    stream_hits: int = 0
    in_flight_matches: int = 0
    ifetch_misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    allocations: int = 0
    unit_filter_hits: int = 0
    unit_filter_misses: int = 0
    detector_hits: int = 0
    lengths: StreamLengthHistogram = field(default_factory=StreamLengthHistogram)

    @property
    def stream_misses(self) -> int:
        """Demand misses not serviced by a stream."""
        return self.demand_misses - self.stream_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of demand misses that hit in the streams (0..1)."""
        if not self.demand_misses:
            return 0.0
        return self.stream_hits / self.demand_misses

    @property
    def hit_rate_percent(self) -> float:
        return 100.0 * self.hit_rate

    @property
    def bandwidth(self) -> BandwidthReport:
        """Extra-bandwidth accounting for this run."""
        return BandwidthReport(
            prefetches_issued=self.prefetches_issued,
            prefetches_used=self.prefetches_used,
            l1_misses=self.demand_misses,
            allocations=self.allocations,
            depth=self.config.depth,
        )


def _drop(counts: Dict[int, int], block: int) -> None:
    """Remove one ``block`` from a head multiset."""
    count = counts[block]
    if count == 1:
        del counts[block]
    else:
        counts[block] = count - 1


class _FlatLane:
    """``n`` stream buffers as flat windows, plus their allocation policy.

    Stream ``i`` is active once allocated; its FIFO is the window
    ``nxt[i] - k*stride[i]`` for ``k = depth..1`` minus the blocks in
    ``invs[i]``.  ``heads[i]`` caches the head block (None when inactive
    or invalidated), ``head_count`` counts the valid heads, ``lru`` lists
    stream indices least recent first, and ``seqs[i]`` holds the entries'
    issue sequence numbers (only when ``min_lead`` > 0).
    """

    def __init__(self, config: StreamConfig, n_streams: int):
        self.n_streams = n_streams
        self.depth = config.depth
        self.lookup_depth = config.lookup_depth
        self.min_lead = config.min_lead
        self.nxt = [0] * n_streams
        self.stride = [1] * n_streams
        self.active = [False] * n_streams
        self.hits_since = [0] * n_streams
        self.invs: List[Optional[set]] = [None] * n_streams
        self.seqs: List[Optional[deque]] = [None] * n_streams
        self.heads: List[Optional[int]] = [None] * n_streams
        self.head_count: Dict[int, int] = {}
        self.lru = list(range(n_streams))
        self.seq = 0  # demand lookups, counted only for the min_lead model
        self.issued = 0
        self.used = 0
        self.allocations = 0
        self.invalidations = 0
        self.closed: Counter = Counter()  # hits of each closed stream
        self.unit_filter: Optional[UnitStrideFilter] = (
            UnitStrideFilter(config.unit_filter_entries) if config.has_unit_filter else None
        )
        self.detector = None
        if config.stride_detector == StrideDetector.CZONE:
            self.detector = CzoneFilter(
                entries=config.czone_filter_entries,
                czone_bits=config.czone_bits,
                block_bits=config.block_bits,
                allow_negative=config.allow_negative_strides,
            )
        elif config.stride_detector == StrideDetector.MIN_DELTA:
            self.detector = MinDeltaDetector(
                entries=config.min_delta_entries,
                block_bits=config.block_bits,
                allow_negative=config.allow_negative_strides,
            )

    # -- operations -------------------------------------------------------

    def handle_miss(self, addr: int, block: int) -> Lookup:
        """Run one demand miss through lookup + allocation policy."""
        result = self.lookup(block)
        if result is not Lookup.MISS:
            return result
        if self.unit_filter is None or self.unit_filter.observe(block):
            # Section 5 allocates on every stream miss; Section 6 once
            # the filter saw the consecutive pair.
            self.allocate(block + 1, 1)
        elif self.detector is not None:
            hit = self.detector.observe(addr)
            if hit is not None:
                self.allocate(hit.start_block, hit.stride_blocks)
        return result

    def lookup(self, block: int) -> Lookup:
        """Compare ``block`` with the heads (and, for ``lookup_depth`` > 1,
        the entries behind them); on a match consume it and top the
        stream back up.  Allocation on a miss is the caller's decision."""
        if self.min_lead:
            self.seq += 1
        if block in self.head_count:
            i = self.heads.index(block)
        else:
            i = self._deep_find(block) if self.lookup_depth > 1 else -1
            if i < 0:
                return Lookup.MISS
        result = Lookup.HIT
        if self.min_lead:
            seqs = self.seqs[i]
            if self.seq - seqs.popleft() < self.min_lead:
                result = Lookup.IN_FLIGHT
            seqs.append(self.seq)
        # Either way the entry's data is consumed (for IN_FLIGHT, the
        # demand fetch coalesces with the prefetch), so the prefetch was
        # not wasted bandwidth and the stream advances.
        self.used += 1
        self.issued += 1
        self.hits_since[i] += 1
        _drop(self.head_count, block)
        stride = self.stride[i]
        self.nxt[i] += stride
        self._set_head(i, block + stride)
        self.lru.remove(i)
        self.lru.append(i)
        if _inv.ENABLED:
            self.check_invariants()
        return result

    def allocate(self, start_block: int, stride: int) -> None:
        """Reallocate the LRU stream to prefetch ``start_block``, +stride..."""
        i = self.lru.pop(0)
        if self.active[i]:
            self._close(i)
        self.active[i] = True
        self.stride[i] = stride
        self.hits_since[i] = 0
        self.invs[i] = None
        self.nxt[i] = start_block + self.depth * stride
        if self.min_lead:
            self.seqs[i] = deque([self.seq] * self.depth)
        self._set_head(i, start_block)
        self.issued += self.depth
        self.allocations += 1
        self.lru.append(i)
        if _inv.ENABLED:
            self.check_invariants()

    def invalidate(self, block: int) -> int:
        """Invalidate stale copies of ``block`` in every stream window.

        Returns the number of entries invalidated.
        """
        count = 0
        depth = self.depth
        for i in range(self.n_streams):
            if not self.active[i]:
                continue
            delta = self.nxt[i] - block
            stride = self.stride[i]
            if stride == 1:
                if not 0 < delta <= depth:
                    continue
            elif delta % stride or not 0 < delta // stride <= depth:
                continue
            inv = self.invs[i]
            if inv is None:
                inv = self.invs[i] = set()
            elif block in inv:
                continue
            inv.add(block)
            count += 1
            if self.heads[i] == block:
                self.heads[i] = None
                _drop(self.head_count, block)
        self.invalidations += count
        if _inv.ENABLED:
            self.check_invariants()
        return count

    # -- inspection -------------------------------------------------------

    def window(self, i: int) -> List[Tuple[int, bool]]:
        """Stream ``i``'s FIFO head first as ``(block, valid)``; [] if inactive."""
        if not self.active[i]:
            return []
        stride = self.stride[i]
        inv = self.invs[i] or ()
        blocks = [self.nxt[i] - k * stride for k in range(self.depth, 0, -1)]
        return [(block, block not in inv) for block in blocks]

    def check_invariants(self) -> None:
        """Structural self-checks (``REPRO_CHECK=1`` runs these per op).

        Verified: every head cache entry equals its window head (None
        when inactive or invalidated), the head multiset counts exactly
        the valid heads, the LRU list is a permutation of the stream
        indices, and an active stream is exactly ``depth`` deep.
        """
        for i in range(self.n_streams):
            window = self.window(i)
            expected = window[0][0] if window and window[0][1] else None
            _inv.invariant(
                self.heads[i] == expected,
                "head cache for stream %d (%r) disagrees with the window (%r)",
                i,
                self.heads[i],
                expected,
            )
            if self.active[i]:
                _inv.invariant(
                    self.stride[i] != 0
                    and (not self.min_lead or len(self.seqs[i]) == self.depth),
                    "active stream %d is not %d entries deep",
                    i,
                    self.depth,
                )
        valid = Counter(head for head in self.heads if head is not None)
        _inv.invariant(
            valid == Counter(self.head_count),
            "head multiset %r disagrees with the valid heads %r",
            self.head_count,
            dict(valid),
        )
        _inv.invariant(
            sorted(self.lru) == list(range(self.n_streams)),
            "LRU list %r is not a permutation of the stream indices",
            self.lru,
        )

    # -- internals --------------------------------------------------------

    def _set_head(self, i: int, block: int) -> None:
        inv = self.invs[i]
        if inv is not None and block in inv:
            self.heads[i] = None
        else:
            self.heads[i] = block
            self.head_count[block] = self.head_count.get(block, 0) + 1

    def _close(self, i: int) -> None:
        """Record an active stream's length and drop its head."""
        self.closed[self.hits_since[i]] += 1
        if self.heads[i] is not None:
            _drop(self.head_count, self.heads[i])

    def _deep_find(self, block: int) -> int:
        """Quasi-associative lookup past the head (``lookup_depth`` > 1).

        On a valid match at position p > 0 the p entries ahead of it are
        skipped (their prefetches were wasted) and p new ones are issued;
        the matched block is then the head.  Returns the stream index, or
        -1.
        """
        depth = self.depth
        for i in range(self.n_streams):
            if not self.active[i]:
                continue
            stride = self.stride[i]
            delta = self.nxt[i] - block
            if delta % stride:
                continue
            position = depth - delta // stride
            if not 0 < position < self.lookup_depth:
                continue
            inv = self.invs[i]
            if inv is not None and block in inv:
                continue
            if self.heads[i] is not None:
                _drop(self.head_count, self.heads[i])
            self.nxt[i] += position * stride
            self.issued += position
            if self.min_lead:
                seqs = self.seqs[i]
                for _ in range(position):
                    seqs.popleft()
                    seqs.append(self.seq)
            self._set_head(i, block)
            return i
        return -1


class StreamPrefetcher:
    """Stream buffers + filters, driven by a primary-cache miss stream."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self._data_lane = _FlatLane(config, config.n_streams)
        self._ifetch_lane = (
            _FlatLane(config, config.i_streams) if config.partitioned else self._data_lane
        )
        self._demand_misses = 0
        self._stream_hits = 0
        self._in_flight_matches = 0
        self._ifetch_misses = 0
        self._writebacks = 0

    def _lanes(self) -> List[_FlatLane]:
        if self._ifetch_lane is self._data_lane:
            return [self._data_lane]
        return [self._data_lane, self._ifetch_lane]

    # -- event API ---------------------------------------------------------

    def handle_miss(self, addr: int, is_ifetch: bool = False) -> Lookup:
        """Present one demand miss; returns the lookup outcome."""
        self._demand_misses += 1
        if is_ifetch:
            self._ifetch_misses += 1
        lane = self._ifetch_lane if is_ifetch else self._data_lane
        result = lane.handle_miss(addr, addr >> self.config.block_bits)
        if result is Lookup.HIT:
            self._stream_hits += 1
        elif result is Lookup.IN_FLIGHT:
            self._in_flight_matches += 1
        return result

    def handle_writeback(self, addr: int) -> int:
        """A dirty block travelling to memory; invalidate stale copies."""
        self._writebacks += 1
        block = addr >> self.config.block_bits
        return sum(lane.invalidate(block) for lane in self._lanes())

    def window(self, stream: int, is_ifetch: bool = False) -> List[Tuple[int, bool]]:
        """One stream's FIFO head first as ``(block, valid)`` pairs.

        Empty while the stream is inactive; ``is_ifetch`` selects the
        instruction lane of a partitioned configuration.
        """
        lane = self._ifetch_lane if is_ifetch else self._data_lane
        return lane.window(stream)

    def lru_order(self, is_ifetch: bool = False) -> List[int]:
        """Stream indices of one lane, least recently used first."""
        return list((self._ifetch_lane if is_ifetch else self._data_lane).lru)

    # -- bulk API ------------------------------------------------------------

    def run(self, miss_trace: MissTrace) -> StreamStats:
        """Consume a whole miss trace and return the statistics so far.

        Raises:
            ValueError: if the miss trace's block geometry disagrees with
                the prefetcher configuration.
        """
        config = self.config
        if miss_trace.block_bits != config.block_bits:
            raise ValueError(
                f"miss trace block_bits {miss_trace.block_bits} != "
                f"config block_bits {config.block_bits}"
            )
        if (
            not config.partitioned
            and config.lookup_depth == 1
            and config.min_lead == 0
            and not _inv.ENABLED
        ):
            self._run_flat(miss_trace)
        else:
            self._run_general(miss_trace)
        return self.finalize()

    def _run_general(self, miss_trace: MissTrace) -> None:
        """Any configuration, one event-API call per event."""
        handle_miss = self.handle_miss
        handle_writeback = self.handle_writeback
        for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
            if kind == _WB:
                handle_writeback(addr)
            else:
                handle_miss(addr, kind == _IFETCH_MISS)

    def _run_flat(self, miss_trace: MissTrace) -> None:
        """One unified lane, head-only lookup, zero prefetch latency.

        The paper's own configurations, stride detectors included.  The
        lane state lives in locals for the loop and is written back at
        the end; without a detector every stride is 1 and write-backs
        are tested inline.
        """
        lane = self._data_lane
        n_streams = lane.n_streams
        depth = lane.depth
        nxt = lane.nxt
        stride = lane.stride
        active = lane.active
        hits_since = lane.hits_since
        invs = lane.invs
        heads = lane.heads
        head_count = lane.head_count
        head_count_get = head_count.get
        lru = lane.lru
        invalidate = lane.invalidate
        observe = lane.unit_filter.observe if lane.unit_filter is not None else None
        detect = lane.detector.observe if lane.detector is not None else None
        # Only a stride detector allocates strides other than 1.
        strided = detect is not None
        block_bits = self.config.block_bits
        closed: List[int] = []
        hits = 0
        allocations = 0
        invalidations = 0
        writebacks = 0
        for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
            block = addr >> block_bits
            if kind == _WB:
                writebacks += 1
                if strided:
                    invalidate(block)
                    continue
                # Every stride is 1: block is in window i iff
                # nxt[i] - depth <= block < nxt[i].  Inlined because about
                # 30% of the paper workloads' miss events are write-backs.
                for i in range(n_streams):
                    if active[i] and nxt[i] - depth <= block < nxt[i]:
                        inv = invs[i]
                        if inv is None:
                            inv = invs[i] = set()
                        elif block in inv:
                            continue
                        inv.add(block)
                        invalidations += 1
                        if heads[i] == block:
                            heads[i] = None
                            count = head_count[block]
                            if count == 1:
                                del head_count[block]
                            else:
                                head_count[block] = count - 1
                continue
            count = head_count_get(block)
            if count:
                # Head hit on the lowest-indexed matching stream.
                i = heads.index(block)
                hits += 1
                if count == 1:
                    del head_count[block]
                else:
                    head_count[block] = count - 1
                hits_since[i] += 1
                step = stride[i]
                nxt[i] += step
                block += step
                inv = invs[i]
                if inv is not None and block in inv:
                    heads[i] = None
                else:
                    heads[i] = block
                    head_count[block] = head_count_get(block, 0) + 1
                lru.remove(i)
                lru.append(i)
                continue
            if observe is None or observe(block):
                block += 1
                step = 1
            elif detect is not None:
                found = detect(addr)
                if found is None:
                    continue
                block = found.start_block
                step = found.stride_blocks
            else:
                continue
            i = lru.pop(0)
            if active[i]:
                closed.append(hits_since[i])
                old_head = heads[i]
                if old_head is not None:
                    count = head_count[old_head]
                    if count == 1:
                        del head_count[old_head]
                    else:
                        head_count[old_head] = count - 1
            active[i] = True
            hits_since[i] = 0
            invs[i] = None
            stride[i] = step
            nxt[i] = block + depth * step
            heads[i] = block
            head_count[block] = head_count_get(block, 0) + 1
            allocations += 1
            lru.append(i)

        lane.closed.update(closed)
        lane.used += hits
        lane.issued += hits + depth * allocations
        lane.allocations += allocations
        lane.invalidations += invalidations
        self._writebacks += writebacks
        self._demand_misses += len(miss_trace) - writebacks
        if miss_trace.has_ifetch_misses:
            self._ifetch_misses += int((miss_trace.kinds == _IFETCH_MISS).sum())
        self._stream_hits += hits

    # -- results -------------------------------------------------------------

    def finalize(self) -> StreamStats:
        """A snapshot of the statistics so far.

        Still-active streams count toward the length histogram as if they
        ended now, but nothing is flushed: a mid-run snapshot leaves the
        rest of the run unchanged, and repeated calls agree.
        """
        stats = StreamStats(
            config=self.config,
            demand_misses=self._demand_misses,
            stream_hits=self._stream_hits,
            in_flight_matches=self._in_flight_matches,
            ifetch_misses=self._ifetch_misses,
            writebacks=self._writebacks,
        )
        lengths: Counter = Counter()
        for lane in self._lanes():
            # Still-active streams count as if they ended now.
            lengths.update(lane.closed)
            lengths.update(h for h, on in zip(lane.hits_since, lane.active) if on)
            stats.prefetches_issued += lane.issued
            stats.prefetches_used += lane.used
            stats.allocations += lane.allocations
            stats.invalidations += lane.invalidations
            if lane.unit_filter is not None:
                stats.unit_filter_hits += lane.unit_filter.hits
                stats.unit_filter_misses += lane.unit_filter.misses
            if lane.detector is not None:
                stats.detector_hits += lane.detector.hits
        for length, times in lengths.items():
            if length == 0:
                stats.lengths.zero_length_streams += times
            else:
                bucket = bucket_of(length)
                stats.lengths.hits_by_bucket[bucket] += length * times
                stats.lengths.streams_by_bucket[bucket] += times
        if _inv.ENABLED:
            self._check_invariants(stats)
        return stats

    @staticmethod
    def _check_invariants(stats: StreamStats) -> None:
        """Conservation checks on a statistics snapshot (``REPRO_CHECK=1``).

        Every consumed prefetch serviced either a stream hit or an
        in-flight coalesce, each consumption advanced exactly one
        stream's length counter (so the Table 3 histogram conserves),
        and nothing is consumed that was never issued.
        """
        _inv.invariant(
            stats.prefetches_used == stats.stream_hits + stats.in_flight_matches,
            "prefetches_used %d != stream_hits %d + in_flight_matches %d",
            stats.prefetches_used,
            stats.stream_hits,
            stats.in_flight_matches,
        )
        _inv.invariant(
            stats.lengths.total_hits == stats.prefetches_used,
            "length histogram holds %d hits but %d prefetches were consumed",
            stats.lengths.total_hits,
            stats.prefetches_used,
        )
        _inv.invariant(
            stats.prefetches_used <= stats.prefetches_issued,
            "prefetches_used %d exceeds prefetches_issued %d",
            stats.prefetches_used,
            stats.prefetches_issued,
        )
        _inv.invariant(
            stats.stream_hits + stats.in_flight_matches <= stats.demand_misses,
            "stream hits %d + in-flight %d exceed demand misses %d",
            stats.stream_hits,
            stats.in_flight_matches,
            stats.demand_misses,
        )
        _inv.invariant(
            stats.lengths.total_streams == stats.allocations,
            "streams %d (closed + active) != allocations %d",
            stats.lengths.total_streams,
            stats.allocations,
        )


# ---------------------------------------------------------------------------
# One pass for a whole n_streams ladder
# ---------------------------------------------------------------------------

#: Why :func:`run_ladder` forked a stack: two valid heads matched one miss
#: and some banks' lowest slot holds a deeper match ...
TIE = "tie"
#: ... or a hit advanced a window carrying invalidations into its new
#: window, which the smaller banks allocate clean (see docs/vectorized.md).
INHERITED_INVALIDATION = "inherited-invalidation"
#: Bank sizes whose states became equal again went back on one stack.
MERGE = "merge"
#: Miss events between the points where :func:`run_ladder` merges stacks
#: and lone banks whose states have become equal again.
LADDER_CHUNK = 1024


def ladder_supported(config: StreamConfig) -> bool:
    """Can :func:`run_ladder` serve ``config`` at any ``n_streams``?

    Only unfiltered, detector-free, head-only, zero-latency unified banks
    are LRU stack algorithms over the stream count: a unit filter or a
    stride detector sees misses that depend on ``n``, ``lookup_depth`` > 1
    matches past the head, ``min_lead`` > 0 turns hits into in-flight
    coalesces, and partitioned lanes split the stack.
    """
    return (
        not config.has_unit_filter
        and config.stride_detector == StrideDetector.NONE
        and config.lookup_depth == 1
        and config.min_lead == 0
        and not config.partitioned
    )


def _ahead(inv: Optional[set], nxt: int, depth: int) -> Optional[frozenset]:
    """The invalidated blocks still inside the window ending at ``nxt``."""
    if not inv:
        return None
    return frozenset(block for block in inv if block >= nxt - depth) or None


class _Member:
    """One bank size's accounting while it rides a stack.

    Everything before it joined the stack: the lengths of its closed
    streams, its hits, allocations and invalidations, and the hits of
    each stream it had open, keyed by the stack's window id.  Then where
    the stack stood: its hit records (``r0``), windows created (``w0``)
    and invalidations below ``n`` (``inv0``).
    """

    __slots__ = ("closed", "hits", "allocations", "invalidations", "open", "r0", "w0", "inv0")

    def __init__(
        self, closed: Counter, hits: int, allocations: int, invalidations: int,
        open_streams: Dict[int, int], r0: int = 0, w0: int = 0, inv0: int = 0,
    ):
        self.closed = closed
        self.hits = hits
        self.allocations = allocations
        self.invalidations = invalidations
        self.open = open_streams
        self.r0 = r0
        self.w0 = w0
        self.inv0 = inv0


class _Stack:
    """One LRU stack of flat windows serving the bank sizes in ``members``.

    Parallel lists, most recent window first: the valid head (None once
    invalidated), the next block to prefetch, the blocks write-backs
    invalidated, and a window id (windows created here count up from 0,
    windows taken over at a merge down from -1).  ``slots[n]`` holds the
    slot each of the top ``n`` windows occupies in the bank of ``n``
    streams, which breaks ties by lowest slot.  ``hit_pos``/``hit_win``
    record the stack position of every hit and the window it advanced,
    ``inv_at`` counts invalidations by stack position.  ``at`` is the
    next miss event to replay; ``forced``, if set, the stack position
    that event hits (a fork's choice at a tie).
    """

    def __init__(self, members: Dict[int, _Member], at: int = 0):
        self.members = members
        self.live = sorted(members)
        self.heads: List[Optional[int]] = []
        self.nxts: List[int] = []
        self.invs: List[Optional[set]] = []
        self.wids: List[int] = []
        self.slots: Dict[int, List[int]] = {n: [] for n in self.live}
        self.hit_pos: List[int] = []
        self.hit_win: List[int] = []
        self.inv_at = [0] * (self.live[-1] if self.live else 0)
        self.windows = 0
        self.taken = 0
        self.at = at
        self.forced: Optional[int] = None

    def split(self, banks: List[int], forced: Optional[int]) -> "_Stack":
        """A copy serving only ``banks``, at most ``max(banks)`` deep."""
        top = banks[-1]
        other = _Stack({n: self.members[n] for n in banks}, self.at)
        other.heads = self.heads[:top]
        other.nxts = self.nxts[:top]
        other.invs = [None if inv is None else set(inv) for inv in self.invs[:top]]
        other.wids = self.wids[:top]
        other.slots = {n: list(self.slots[n]) for n in banks}
        other.hit_pos = list(self.hit_pos)
        other.hit_win = list(self.hit_win)
        other.inv_at = self.inv_at[:top]
        other.windows = self.windows
        other.taken = self.taken
        other.forced = forced
        return other

    def drop(self, banks: List[int]) -> None:
        """Stop serving ``banks``."""
        for n in banks:
            del self.slots[n], self.members[n]
        self.live = [n for n in self.live if n not in banks]

    def key(self, depth: int) -> list:
        """What a bank sees: each window's head, next block and dead entries."""
        return [
            (head, nxt, _ahead(inv, nxt, depth))
            for head, nxt, inv in zip(self.heads, self.nxts, self.invs)
        ]

    def admit(
        self, n: int, slots: List[int], windows: list, closed: Counter, hits: int,
        allocations: int, invalidations: int, open_lengths: List[int],
    ) -> None:
        """Take on the bank of ``n`` streams, whose windows, MRU first, are
        ``windows`` (``(head, next, invalidated)``; those beyond this
        stack's depth extend it) with ``open_lengths`` hits so far."""
        for head, nxt, inv in windows[len(self.heads):]:
            self.heads.append(head)
            self.nxts.append(nxt)
            self.invs.append(None if inv is None else set(inv))
            self.taken += 1
            self.wids.append(-self.taken)
        top = max(n, self.live[-1] if self.live else 0)
        self.inv_at.extend([0] * (top - len(self.inv_at)))
        self.members[n] = _Member(
            closed, hits, allocations, invalidations,
            dict(zip(self.wids, open_lengths)),
            len(self.hit_pos), self.windows, sum(self.inv_at[:n]),
        )
        self.slots[n] = list(slots)
        self.live = sorted(self.members)


def _fits(inner: list, inner_top: int, outer: list, outer_top: int) -> bool:
    """Can banks that see ``inner`` (and need at most ``inner_top``
    windows) ride a stack holding ``outer`` (for banks up to
    ``outer_top``), extending it if ``inner`` is deeper?"""
    depth = min(len(inner), len(outer))
    if inner[:depth] != outer[:depth]:
        return False
    if len(inner) < len(outer):
        return len(inner) >= inner_top
    return len(outer) >= outer_top or len(inner) == len(outer)


def _account(stack: _Stack, n: int):
    """The bank of ``n`` streams so far: every stream length (closed and
    open), the hits of each open stream by window id, and its hits,
    allocations and invalidations.

    Since it joined, a bank of ``n`` starts a stream at each window
    created and at every hit at a stack position ``>= n`` (a miss there,
    which reallocates); each stream's length counts the window's hits
    below ``n`` until the next start.  A window already on the stack
    when it joined continues the bank's open stream in it, if it had one.
    """
    member = stack.members[n]
    positions = np.asarray(stack.hit_pos[member.r0:], dtype=np.int64)
    owners = np.asarray(stack.hit_win[member.r0:], dtype=np.int64)
    below = int(np.count_nonzero(positions < n))
    created = stack.windows - member.w0
    hits = member.hits + below
    allocations = member.allocations + created + len(positions) - below
    invalidations = member.invalidations + sum(stack.inv_at[:n]) - member.inv0
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    positions = positions[order]
    first = np.ones(len(owners), dtype=np.int64)
    first[1:] = owners[1:] != owners[:-1]
    breaks = positions >= n
    stream = np.cumsum(first + breaks) - 1
    lengths = np.bincount(stream[~breaks], minlength=int(first.sum()) + int(breaks.sum()))
    starts = np.flatnonzero(first)
    hit_windows = owners[starts]
    last_stream = stream[np.append(starts[1:], len(owners))[: len(starts)] - 1]
    # Windows that predate the join sort first (ids below w0).
    joined = int(np.searchsorted(hit_windows, member.w0))
    keep = np.ones(len(lengths), dtype=bool)
    continued = set()
    for window, index in zip(
        hit_windows[:joined].tolist(), (stream[starts] - breaks[starts])[:joined].tolist()
    ):
        base = member.open.get(window)
        if base is None:
            keep[index] = False  # its stream started before, in other banks
        else:
            lengths[index] += base
            continued.add(window)
    streams = member.closed.copy()
    values, times = np.unique(lengths[keep], return_counts=True)
    streams.update(dict(zip(values.tolist(), times.tolist())))
    for window, base in member.open.items():
        if window not in continued:
            streams[base] += 1
    streams[0] += created - (len(hit_windows) - joined)
    open_now: Dict[int, int] = {}
    for window in stack.wids[:n]:
        k = int(np.searchsorted(hit_windows, window))
        if k < len(hit_windows) and hit_windows[k] == window:
            open_now[window] = int(lengths[last_stream[k]])
        else:
            open_now[window] = member.open.get(window, 0)
    return streams, open_now, hits, allocations, invalidations


def _finish(
    config: StreamConfig, stack: _Stack, n: int, miss_trace: MissTrace, writebacks: int
) -> StreamStats:
    """The statistics of a bank that rode ``stack`` to the end of the trace."""
    streams, _, hits, allocations, invalidations = _account(stack, n)
    ifetch = 0
    if miss_trace.has_ifetch_misses:
        ifetch = int((miss_trace.kinds == _IFETCH_MISS).sum())
    result = StreamStats(
        config=config.with_(n_streams=n),
        demand_misses=len(miss_trace) - writebacks,
        stream_hits=hits,
        ifetch_misses=ifetch,
        writebacks=writebacks,
        invalidations=invalidations,
        prefetches_issued=hits + config.depth * allocations,
        prefetches_used=hits,
        allocations=allocations,
    )
    histogram = result.lengths
    for length, count in streams.items():
        if length == 0:
            histogram.zero_length_streams += count
        elif count:
            bucket = bucket_of(length)
            histogram.hits_by_bucket[bucket] += length * count
            histogram.streams_by_bucket[bucket] += count
    if _inv.ENABLED:
        StreamPrefetcher._check_invariants(result)
    return result


def _bank(
    config: StreamConfig, stack: _Stack, n: int, start: int, miss_trace: MissTrace
) -> StreamPrefetcher:
    """The bank of ``n`` streams on ``stack``, exactly as it stands before
    miss event ``start``, as a one-bank engine."""
    streams, open_now, hits, allocations, invalidations = _account(stack, n)
    prefetcher = StreamPrefetcher(config.with_(n_streams=n))
    lane = prefetcher._data_lane
    slots = stack.slots[n] if n > 1 else [0][: len(stack.heads)]
    for j, slot in enumerate(slots):
        lane.active[slot] = True
        lane.hits_since[slot] = open_now[stack.wids[j]]
        lane.nxt[slot] = stack.nxts[j]
        inv = stack.invs[j]
        lane.invs[slot] = None if inv is None else set(inv)
        head = stack.heads[j]
        lane.heads[slot] = head
        if head is not None:
            lane.head_count[head] = lane.head_count.get(head, 0) + 1
    lane.closed = streams - Counter(open_now.values())
    # Unused slots are taken in index order; the rest least recent first.
    lane.lru = list(range(len(slots), n)) + slots[::-1]
    lane.used = hits
    lane.allocations = allocations
    lane.issued = hits + config.depth * allocations
    lane.invalidations = invalidations
    kinds = miss_trace.kinds[:start]
    writebacks = int(np.count_nonzero(kinds == _WB))
    prefetcher._stream_hits = hits
    prefetcher._writebacks = writebacks
    prefetcher._demand_misses = start - writebacks
    prefetcher._ifetch_misses = int(np.count_nonzero(kinds == _IFETCH_MISS))
    return prefetcher


def _bank_view(prefetcher: StreamPrefetcher, depth: int) -> Tuple[List[int], list]:
    """A one-bank engine's active slots, most recent first, and what it sees."""
    lane = prefetcher._data_lane
    slots = [i for i in reversed(lane.lru) if lane.active[i]]
    return slots, [
        (lane.heads[i], lane.nxt[i], _ahead(lane.invs[i], lane.nxt[i], depth)) for i in slots
    ]


class _Ladder:
    """The state of one :func:`run_ladder` call: its stacks, the banks
    that are alone on the one-bank engine (``engines``: prefetcher and
    next event), and the tallies it reports."""

    def __init__(self, config: StreamConfig, miss_trace: MissTrace, replay):
        self.config = config
        self.miss_trace = miss_trace
        self.replay = replay
        self.events = (miss_trace.addrs.tolist(), miss_trace.kinds.tolist())
        self.stacks: List[_Stack] = []
        self.engines: Dict[int, list] = {}
        self.results: Dict[int, StreamStats] = {}
        self.reasons: Dict[int, str] = {}
        self.moves: Counter = Counter()

    def divert(
        self, stack: _Stack, banks: List[int], reason: str, start: int, forced: Optional[int]
    ) -> None:
        """Take ``banks`` off ``stack`` before event ``start``: a lone bank
        goes to the one-bank engine, several onto a fork of their own
        whose first event hits position ``forced`` (None: wherever)."""
        if len(banks) == 1:
            n = banks[0]
            self.engines[n] = [_bank(self.config, stack, n, start, self.miss_trace), start]
            self.reasons.setdefault(n, reason)
        else:
            fork = stack.split(banks, forced)
            fork.at = start
            self.stacks.append(fork)
        stack.drop(banks)

    def run_engines(self, end: int) -> None:
        """Replay every lone bank up to event ``end``."""
        trace = self.miss_trace
        for n in sorted(self.engines):
            prefetcher, at = self.engines[n]
            if at < end:
                rest = MissTrace(trace.addrs[at:end], trace.kinds[at:end], trace.block_bits)
                self.results[n] = self.replay(self.config.with_(n_streams=n), rest, prefetcher)
                self.engines[n][1] = end

    def merge(self) -> None:
        """Put banks whose states have become equal back on one stack."""
        depth = self.config.depth
        stacks = sorted(self.stacks, key=lambda s: -len(s.heads))
        keys = [s.key(depth) for s in stacks]
        for b in range(len(stacks) - 1, 0, -1):
            inner = stacks[b]
            for a in range(b):
                outer = stacks[a]
                if outer.live and _fits(keys[b], inner.live[-1], keys[a], outer.live[-1]):
                    for n in list(inner.live):
                        streams, open_now, hits, allocations, invalidations = _account(inner, n)
                        outer.admit(
                            n, inner.slots[n], keys[b][:n], streams - Counter(open_now.values()),
                            hits, allocations, invalidations,
                            [open_now[w] for w in inner.wids[:n]],
                        )
                    keys[a] = outer.key(depth)
                    inner.drop(list(inner.live))
                    self.moves[MERGE] += 1
                    break
        self.stacks = [s for s in stacks if s.live]
        views = {n: _bank_view(engine[0], depth) for n, engine in self.engines.items()}
        for n in sorted(self.engines, reverse=True):
            slots, view = views[n]
            host = next(
                (s for s in self.stacks if _fits(view, n, s.key(depth), s.live[-1])), None
            )
            if host is None and any(
                _fits(views[m][1], m, view, n) for m in self.engines if m < n
            ):
                host = _Stack({}, self.engines[n][1])
                self.stacks.append(host)
            if host is not None:
                lane = self.engines.pop(n)[0]._data_lane
                host.admit(
                    n, slots, view, Counter(lane.closed), lane.used, lane.allocations,
                    lane.invalidations, [lane.hits_since[i] for i in slots],
                )
                self.results.pop(n, None)
                self.moves[MERGE] += 1


def _run_stack(ladder: _Ladder, stack: _Stack, end: int) -> None:
    """Replay events ``stack.at`` up to ``end`` through ``stack``.

    At a divergence the banks that leave go through :meth:`_Ladder.divert`
    and ``moves`` counts it by reason.  A stack left with one bank hands
    it off too: the one-bank engine replays faster.
    """
    config = ladder.config
    depth = config.depth
    block_bits = config.block_bits
    moves = ladder.moves
    live = stack.live
    top = live[-1]
    low = live[0]
    heads, nxts, invs, wids = stack.heads, stack.nxts, stack.invs, stack.wids
    hit_pos, hit_win, inv_at = stack.hit_pos, stack.hit_win, stack.inv_at
    slots = stack.slots
    # A bank of one stream never holds two matches: it needs no slots.
    banks = [(n, slots[n]) for n in live if n > 1]
    windows = stack.windows
    forced, stack.forced = stack.forced, None
    head_count: Dict[int, int] = {}
    for head in heads:
        if head is not None:
            head_count[head] = head_count.get(head, 0) + 1
    head_count_get = head_count.get

    def drop_head(block: Optional[int]) -> None:
        if block is not None:
            count = head_count[block]
            if count == 1:
                del head_count[block]
            else:
                head_count[block] = count - 1

    addrs, kinds = ladder.events
    start = stack.at
    for i, addr, kind in zip(range(start, end), addrs[start:end], kinds[start:end]):
        block = addr >> block_bits
        if kind == _WB:
            for q, nxt in enumerate(nxts):
                if nxt - depth <= block < nxt:
                    inv = invs[q]
                    if inv is None:
                        inv = invs[q] = set()
                    elif block in inv:
                        continue
                    inv.add(block)
                    inv_at[q] += 1
                    if heads[q] == block:
                        heads[q] = None
                        drop_head(block)
            continue
        count = head_count_get(block)
        if count:
            p = heads.index(block)
            if count > 1:
                if forced is not None and i == start:
                    # A fork's first event: every bank here chose this match.
                    p = forced
                else:
                    # Each bank that holds two matches takes its lowest slot.
                    matches = [q for q, head in enumerate(heads) if head == block]
                    chosen: Dict[int, List[int]] = {}
                    for n, order in banks:
                        if n > matches[1]:
                            c = min((q for q in matches if q < n), key=order.__getitem__)
                            if c != p:
                                chosen.setdefault(c, []).append(n)
                    if chosen:
                        moves[TIE] += 1
                        stack.windows = windows
                        for c, group in chosen.items():
                            ladder.divert(stack, group, TIE, i, c)
                        live = stack.live
                        if len(live) < 2:
                            if live:
                                ladder.divert(stack, live, TIE, i, None)
                            return
                        banks = [(n, slots[n]) for n in live if n > 1]
                        top = live[-1]
                        low = live[0]
                        for gone in heads[top:]:
                            drop_head(gone)
                        del heads[top:], nxts[top:], invs[top:], wids[top:]
            if p < top:
                inv = invs[p]
                if inv is not None:
                    if not any(x > block for x in inv):
                        inv = None  # every entry lies behind the new window
                    elif p >= low:
                        # Banks of n <= p allocate this window clean.
                        moves[INHERITED_INVALIDATION] += 1
                        stack.windows = windows
                        ladder.divert(
                            stack, [n for n in live if n <= p], INHERITED_INVALIDATION, i, None
                        )
                        live = stack.live
                        if len(live) < 2:
                            ladder.divert(stack, live, INHERITED_INVALIDATION, i, None)
                            return
                        banks = [(n, slots[n]) for n in live if n > 1]
                        low = live[0]
                if p:
                    # The window moves to the top: banks above p keep its
                    # slot, the smaller ones reuse their LRU slot.
                    for n, order in banks:
                        order.insert(0, order.pop(p if p < n else -1))
                del heads[p]
                drop_head(block)
                nxt = nxts.pop(p) + 1
                del invs[p]
                wid = wids.pop(p)
                block += 1
                if inv is not None and block in inv:
                    heads.insert(0, None)
                else:
                    heads.insert(0, block)
                    head_count[block] = head_count_get(block, 0) + 1
                nxts.insert(0, nxt)
                invs.insert(0, inv)
                wids.insert(0, wid)
                hit_pos.append(p)
                hit_win.append(wid)
                continue
        # A miss at every live bank size: a fresh window on top, in each
        # bank's LRU slot (a free one while it fills), and the bottom
        # window falls off a full stack.
        for n, order in banks:
            order.insert(0, order.pop() if len(order) == n else len(order))
        if len(heads) == top:
            drop_head(heads.pop())
            nxts.pop()
            invs.pop()
            wids.pop()
        block += 1
        heads.insert(0, block)
        head_count[block] = head_count_get(block, 0) + 1
        nxts.insert(0, block + depth)
        invs.insert(0, None)
        wids.insert(0, windows)
        windows += 1
    stack.windows = windows
    stack.at = end


def _continue(config: StreamConfig, miss_trace: MissTrace, prefetcher) -> StreamStats:
    return prefetcher.run(miss_trace)


def run_ladder(
    config: StreamConfig, n_values, miss_trace: MissTrace, replay=None,
    chunk: int = LADDER_CHUNK,
) -> Tuple[Dict[int, StreamStats], Dict[int, str], Counter]:
    """Replay one miss trace for every stream count in ``n_values`` at once.

    An unfiltered LRU bank of ``n`` streams holds the ``n`` most recent
    windows of one LRU stack (Mattson's inclusion property): a miss
    allocates the same window at every bank size, and a hit at stack
    position ``p`` is a hit for every ``n > p`` while the banks with
    ``n <= p`` allocate a fresh window equal to the advanced one.  The
    pass keeps that stack, at most ``max(n)`` flat windows deep, and
    records the position of every hit and invalidation; each ``n``'s
    counters and stream lengths follow from those positions.

    Two events make bank sizes disagree, and the pass forks the stack
    there, one copy per group of banks that act alike, each going on
    from that event:

    * :data:`TIE` — two valid heads match.  A bank takes its lowest slot,
      so the pass tracks every bank's slot of each window, and the banks
      whose lowest slot holds a deeper match fork, grouped by match;
    * :data:`INHERITED_INVALIDATION` — a hit at position ``p`` advances a
      window whose invalidation set overlaps its new window; the banks
      ``n <= p`` allocate that window clean, and fork.

    A bank left alone by a divergence goes to the one-bank engine: its
    exact state, continued through ``replay(config, events, prefetcher)``
    (default: :meth:`StreamPrefetcher.run`) one ``chunk`` of events at a
    time.  Divergences rarely last: the duplicate window
    dies, and every ``chunk`` events the stacks and lone banks that see
    the same windows again merge (:data:`MERGE`), each bank keeping its
    own slots and counts.

    Returns:
        ``(stats, replayed, moves)``: bit-identical :class:`StreamStats`
        for every ``n``, the reason each ``n`` that ran on the one-bank
        engine first left a stack, and the forks by reason and merges.

    Raises:
        ValueError: for a configuration outside :func:`ladder_supported`
            or a miss trace whose block geometry disagrees with it.
    """
    if not ladder_supported(config):
        raise ValueError(f"no ladder pass for {config}")
    if miss_trace.block_bits != config.block_bits:
        raise ValueError(
            f"miss trace block_bits {miss_trace.block_bits} != "
            f"config block_bits {config.block_bits}"
        )
    live = sorted(set(n_values))
    ladder = _Ladder(config, miss_trace, replay or _continue)
    if not live:
        return {}, {}, ladder.moves
    ladder.stacks.append(
        _Stack({n: _Member(Counter(), 0, 0, 0, {}) for n in live})
    )
    total = len(miss_trace)
    for end in range(chunk, total + chunk, chunk):
        end = min(end, total)
        k = 0
        while k < len(ladder.stacks):  # forks join the list as they happen
            stack = ladder.stacks[k]
            if stack.live:
                _run_stack(ladder, stack, end)
            k += 1
        ladder.stacks = [s for s in ladder.stacks if s.live]
        ladder.run_engines(end)
        if end < total and len(ladder.stacks) + len(ladder.engines) > 1:
            ladder.merge()
    writebacks = int(np.count_nonzero(miss_trace.kinds == _WB))
    for stack in ladder.stacks:
        for n in stack.live:
            ladder.results[n] = _finish(config, stack, n, miss_trace, writebacks)
    for n, (prefetcher, _) in ladder.engines.items():
        if n not in ladder.results:
            ladder.results[n] = prefetcher.finalize()
    return ladder.results, ladder.reasons, ladder.moves
