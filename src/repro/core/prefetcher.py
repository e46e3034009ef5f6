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

from repro.caches.cache import MissEventKind, MissTrace
from repro.check import invariants as _inv
from repro.core.bandwidth import BandwidthReport
from repro.core.config import StreamConfig, StrideDetector
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import StreamLengthHistogram, bucket_of
from repro.core.min_delta import MinDeltaDetector
from repro.core.nonunit import CzoneFilter

__all__ = ["Lookup", "StreamStats", "StreamPrefetcher"]

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
