"""Output checks: pinned fingerprints and golden-oracle re-simulation.

For the default seed each workload's simulated results hash to the
fingerprint pinned in ``golden.json``.  For every seed a seed-chosen
sample of cells is re-simulated, untimed, by the deliberately simple
reference models of ``repro.check`` and compared exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def fingerprint(payload) -> str:
    """sha256 of a canonical JSON rendering (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def golden(workload: str):
    """The pinned fingerprint for ``workload`` at the default seed."""
    return json.loads(GOLDEN_PATH.read_text()).get(workload)


def match_payload(match) -> dict:
    """The parts of a ``MatchResult`` the fingerprint pins."""
    return {
        "workload": match.workload,
        "scale": repr(match.scale),
        "mechanism": match.mechanism,
        "target": repr(match.stream_stats.hit_rate),
        "matched_size": match.matched_size,
        "points": [[p.size, repr(p.hit_rate), p.assoc, p.block_size]
                   for p in match.l2_hit_rates],
        "configs_simulated": match.configs_simulated,
        "sizes_pruned": match.sizes_pruned,
    }


# -- golden oracles ----------------------------------------------------------


def oracle_streams(config, miss_trace) -> dict:
    """Reference stream-buffer counters for one (config, miss trace)."""
    from repro.check.oracle import RefStreamPrefetcher

    return RefStreamPrefetcher(config).run(miss_trace.addrs.tolist(),
                                           miss_trace.kinds.tolist())


def stream_mismatches(stats, ref: dict, what: str) -> List[str]:
    """Compare a production ``StreamStats`` with oracle counters."""
    out = []
    for field in ("demand_misses", "stream_hits", "prefetches_issued",
                  "prefetches_used", "allocations", "writebacks"):
        got = getattr(stats, field)
        if got != ref[field]:
            out.append(f"{what}: {field} {got} != oracle {ref[field]}")
    return out


def oracle_l1(workload, miss_trace, summary) -> List[str]:
    """Re-simulate a workload's L1 with the reference cache."""
    from repro.caches.cache import CacheConfig
    from repro.check.oracle import ref_simulate_l1

    config = CacheConfig.paper_l1()
    trace = workload.trace()
    events, ref = ref_simulate_l1(
        trace.addrs.tolist(), trace.kinds.tolist(), capacity=config.capacity,
        assoc=config.assoc, block_size=config.block_size, policy=config.policy,
        write_back=config.write_back, write_allocate=config.write_allocate,
        seed=config.seed,
    )
    what = f"l1 {workload.name}@{workload.scale:g}"
    out = []
    if list(zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist())) != events:
        out.append(f"{what}: miss events differ from oracle")
    for field in ("accesses", "misses", "writebacks"):
        if getattr(summary, field) != ref[field]:
            out.append(f"{what}: {field} {getattr(summary, field)} != oracle {ref[field]}")
    return out


def oracle_mechanism(mechanism, miss_trace, stats, what: str) -> List[str]:
    """Reference hybrid/victim/miss-cache counters vs production."""
    from repro.check.mech_oracle import build_ref_mechanism

    ref = build_ref_mechanism(mechanism).run(miss_trace.addrs.tolist(),
                                             miss_trace.kinds.tolist())
    out = []
    for field in ("demand_misses", "hits"):
        got = getattr(stats, field)
        if got != ref[field]:
            out.append(f"{what}: {field} {got} != oracle {ref[field]}")
    return out


def oracle_probe(miss_trace, point, sample_every: int) -> List[str]:
    """Re-simulate the witness configuration of one probed L2 size.

    Replays the set-sampled miss events through the reference cache with
    the same sampling rule as ``caches.sampling.sampled_hit_rate``.
    """
    from repro.caches.secondary import candidate_configs
    from repro.check.oracle import ACCESS_READ, ACCESS_WRITE, EV_WRITE_MISS, \
        EV_WRITEBACK, RefCache

    config = next(c for c in candidate_configs(point.size)
                  if c.assoc == point.assoc and c.block_size == point.block_size)
    while sample_every > 1 and config.n_sets // sample_every < 4:
        sample_every //= 2
    cache = RefCache(config.capacity, config.assoc, config.block_size, config.policy,
                     True, True, config.seed)
    set_mask = config.n_sets - 1
    demand = hits = 0
    sink: list = []
    for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
        block = addr >> config.block_bits
        if sample_every > 1 and (block & set_mask) % sample_every:
            continue
        if kind == EV_WRITEBACK:
            cache.access(addr, ACCESS_WRITE, sink)
        else:
            demand += 1
            hits += cache.access(addr, ACCESS_WRITE if kind == EV_WRITE_MISS else ACCESS_READ,
                                 sink)
        sink.clear()
    rate = hits / demand if demand else 0.0
    if rate != point.hit_rate:
        return [f"l2 probe {point.size}B {point.assoc}-way {point.block_size}B: "
                f"hit rate {point.hit_rate!r} != oracle {rate!r}"]
    return []
