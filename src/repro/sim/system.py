"""Per-access composition of the paper's memory system (Figure 1).

:class:`MemorySystem` is the library's "live" front door: a primary cache
backed by stream buffers backed by main memory, stepped one processor
reference at a time.  The bulk experiment path
(:mod:`repro.sim.runner`) is faster for sweeps; this class exists for
interactive use, examples and tests that want to observe where each
reference was serviced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.caches.cache import Cache, CacheConfig
from repro.core.config import StreamConfig
from repro.core.prefetcher import Lookup, StreamPrefetcher, StreamStats
from repro.trace.events import Access, AccessKind, Trace

__all__ = ["ServiceLevel", "SystemStats", "MemorySystem"]


class ServiceLevel(enum.Enum):
    """Where a reference was serviced."""

    L1 = "l1"
    STREAM = "stream"
    MEMORY = "memory"


@dataclass
class SystemStats:
    """End-to-end reference accounting."""

    references: int = 0
    l1_hits: int = 0
    stream_hits: int = 0
    memory_fetches: int = 0
    writebacks: int = 0

    @property
    def serviced_on_chip_fraction(self) -> float:
        """Fraction serviced without a demand memory fetch."""
        if not self.references:
            return 0.0
        return (self.l1_hits + self.stream_hits) / self.references

    def amat(
        self,
        l1_time: float = 1.0,
        stream_time: float = 3.0,
        memory_time: float = 50.0,
    ) -> float:
        """Average memory access time under a simple latency model.

        The paper deliberately avoids timing; this helper exists for
        examples that want a feel for the hit rates' impact.  Stream
        hits are cheaper than memory because the prefetch already
        covered (most of) the latency; the defaults are illustrative,
        not calibrated.
        """
        if not self.references:
            return 0.0
        total = (
            self.l1_hits * l1_time
            + self.stream_hits * stream_time
            + self.memory_fetches * memory_time
        )
        return total / self.references


class MemorySystem:
    """L1 + stream buffers + main memory, stepped per reference."""

    def __init__(
        self,
        l1_config: Optional[CacheConfig] = None,
        stream_config: Optional[StreamConfig] = None,
    ):
        self.l1 = Cache(l1_config if l1_config is not None else CacheConfig.paper_l1())
        config = stream_config if stream_config is not None else StreamConfig.filtered()
        if config.block_bits != self.l1.config.block_bits:
            raise ValueError(
                f"stream block_bits {config.block_bits} != L1 block bits "
                f"{self.l1.config.block_bits}"
            )
        self.prefetcher = StreamPrefetcher(config)
        self.stats = SystemStats()

    def access(self, addr: int, kind: AccessKind = AccessKind.READ) -> ServiceLevel:
        """Issue one processor reference; returns the servicing level."""
        self.stats.references += 1
        is_write = kind is AccessKind.WRITE
        hit, writeback = self.l1.access(addr, is_write)
        if writeback is not None:
            # Write-backs bypass the streams and invalidate stale copies.
            self.stats.writebacks += 1
            self.prefetcher.handle_writeback(writeback << self.l1.config.block_bits)
        if hit:
            self.stats.l1_hits += 1
            return ServiceLevel.L1
        outcome = self.prefetcher.handle_miss(addr, is_ifetch=kind is AccessKind.IFETCH)
        if outcome is Lookup.HIT:
            self.stats.stream_hits += 1
            return ServiceLevel.STREAM
        self.stats.memory_fetches += 1
        return ServiceLevel.MEMORY

    def run(self, trace: Trace) -> SystemStats:
        """Feed a whole trace through :meth:`access`."""
        for access in trace:
            self.access(access.addr, access.kind)
        return self.stats

    def stream_stats(self) -> StreamStats:
        """A snapshot of the stream-buffer statistics (the run continues
        unchanged)."""
        return self.prefetcher.finalize()
