"""Serial hybrid stacks: mechanism in front of mechanism (VC+SB, MC+SB).

Jouppi's combined designs place a small associative buffer in front of
the stream buffers: a demand miss probes the members front to back and is
serviced by the first that hits; members behind never observe it.
Write-backs pass *every* member (each must keep its state coherent with
memory traffic).

Two production formulations exist and are proven equivalent:

* **online** — :class:`HybridStack` presents each event to the members in
  order as it arrives (this module);
* **two-phase residual** — each front member filters the trace via
  ``run_filter`` and the next member replays the residual (unserviced
  demand misses plus all write-backs, original order); used by
  ``replay_secondary`` so a trailing stream member replays through
  :meth:`StreamPrefetcher.run`'s bulk loop.

They agree because a front member's state never depends on the members
behind it, and the residual preserves exactly the event subsequence a
back member would see online.  The ``hybrid`` differ stage checks both
against :class:`RefHybridStack` over the 200-seed corpus.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mechanisms.base import MechanismConfig, MechStats, SecondaryMechanism
from repro.mechanisms.misscache import MissCache
from repro.mechanisms.streams import StreamMechanism
from repro.mechanisms.victim import VictimCache

__all__ = ["HybridStack", "build_mechanism", "combine_member_stats"]


def build_mechanism(config: MechanismConfig) -> SecondaryMechanism:
    """Instantiate the mechanism described by ``config``."""
    if config.kind == "streams":
        return StreamMechanism(config)
    if config.kind == "victim":
        return VictimCache(config)
    if config.kind == "misscache":
        return MissCache(config)
    if config.kind == "hybrid":
        return HybridStack(config)
    raise ValueError(f"unknown mechanism kind {config.kind!r}")


def combine_member_stats(
    config: MechanismConfig, member_stats: Sequence[MechStats]
) -> MechStats:
    """Fold per-member statistics into the stack's combined view.

    The front member saw every event, so it owns the trace-level counters;
    hits and resource counters sum across members.  Works identically for
    the online and two-phase formulations.
    """
    front = member_stats[0]
    streams = next((ms.streams for ms in member_stats if ms.streams is not None), None)
    return MechStats(
        config=config,
        demand_misses=front.demand_misses,
        hits=sum(ms.hits for ms in member_stats),
        ifetch_misses=front.ifetch_misses,
        writebacks=front.writebacks,
        invalidations=sum(ms.invalidations for ms in member_stats),
        allocations=sum(ms.allocations for ms in member_stats),
        evictions=sum(ms.evictions for ms in member_stats),
        writebacks_out=sum(ms.writebacks_out for ms in member_stats),
        prefetches_issued=sum(ms.prefetches_issued for ms in member_stats),
        prefetches_used=sum(ms.prefetches_used for ms in member_stats),
        member_hits=tuple(ms.hits for ms in member_stats),
        streams=streams,
    )


class HybridStack(SecondaryMechanism):
    """Online serial composition of member mechanisms."""

    def __init__(self, config: MechanismConfig):
        if config.kind != "hybrid":
            raise ValueError(f"HybridStack requires kind='hybrid', got {config.kind!r}")
        super().__init__(config)
        self.members: List[SecondaryMechanism] = [
            build_mechanism(member) for member in config.members
        ]

    def _probe(self, addr: int, block: int, kind: int) -> bool:
        for member in self.members:
            if member.handle_miss(addr, kind):
                return True
        return False

    def _writeback(self, block: int) -> None:
        addr = block << self.config.block_bits
        for member in self.members:
            member.handle_writeback(addr)

    def finalize(self) -> MechStats:
        combined = combine_member_stats(
            self.config, [member.finalize() for member in self.members]
        )
        if (
            combined.demand_misses != self.stats.demand_misses
            or combined.hits != self.stats.hits
        ):
            raise AssertionError("hybrid member counters diverged from the stack's")
        self.stats = combined
        return combined
