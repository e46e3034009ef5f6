"""Stream buffers adapted to the :class:`SecondaryMechanism` protocol.

The adapter wraps a :class:`StreamPrefetcher` and reports the same
hit-rate the paper does: only :data:`Lookup.HIT` services a miss
(``in_flight_matches`` are tracked inside the embedded
:class:`StreamStats` but do not count as mechanism hits).  The full
stream statistics survive on ``MechStats.streams`` so bandwidth/EB
reporting keeps its depth-aware accounting.
"""

from __future__ import annotations

from repro.caches.cache import MissEventKind
from repro.core.prefetcher import Lookup, StreamPrefetcher, StreamStats
from repro.mechanisms.base import MechanismConfig, MechStats, SecondaryMechanism

__all__ = ["StreamMechanism", "mech_stats_from_streams"]


def mech_stats_from_streams(config: MechanismConfig, stream_stats: StreamStats) -> MechStats:
    """Wrap a finished :class:`StreamStats` as mechanism statistics.

    Used both by the adapter's ``finalize`` and by the replay dispatcher
    when :meth:`StreamPrefetcher.run` produced the stream stats — the
    wrapping must be identical either way for store round-trips to be
    bit-exact.
    """
    return MechStats(
        config=config,
        demand_misses=stream_stats.demand_misses,
        hits=stream_stats.stream_hits,
        ifetch_misses=stream_stats.ifetch_misses,
        writebacks=stream_stats.writebacks,
        invalidations=stream_stats.invalidations,
        allocations=stream_stats.allocations,
        prefetches_issued=stream_stats.prefetches_issued,
        prefetches_used=stream_stats.prefetches_used,
        streams=stream_stats,
    )


class StreamMechanism(SecondaryMechanism):
    """A :class:`StreamPrefetcher` behind the mechanism protocol."""

    def __init__(self, config: MechanismConfig):
        if config.kind != "streams":
            raise ValueError(f"StreamMechanism requires kind='streams', got {config.kind!r}")
        super().__init__(config)
        assert config.streams is not None
        self._prefetcher = StreamPrefetcher(config.streams)

    def _probe(self, addr: int, block: int, kind: int) -> bool:
        result = self._prefetcher.handle_miss(
            addr, is_ifetch=kind == int(MissEventKind.IFETCH_MISS)
        )
        return result is Lookup.HIT

    def _writeback(self, block: int) -> None:
        # The prefetcher keys on byte addresses; reconstruct one.
        self._prefetcher.handle_writeback(block << self.config.block_bits)

    def finalize(self) -> MechStats:
        stream_stats = self._prefetcher.finalize()
        stats = mech_stats_from_streams(self.config, stream_stats)
        # The base class counted events as they were presented; the two
        # views must agree or the adapter dropped an event.
        if stats.demand_misses != self.stats.demand_misses or stats.hits != self.stats.hits:
            raise AssertionError("stream adapter counters diverged from prefetcher")
        self.stats = stats
        return stats
