"""Set sampling (Kessler, Hill & Wood), used by the paper for Table 4.

Simulating a multi-megabyte L2 over a long miss trace is expensive; set
sampling simulates only a deterministic subset of the cache's sets and
estimates the hit rate from the accesses that map to those sets.  Because
set mapping is a pure function of the block address, the sampled sets see
exactly the accesses the full cache's same sets would see, so per-set
behaviour is exact and only the cross-set mix is estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.caches.cache import CacheConfig, MissTrace
from repro.caches.secondary import SecondaryResult, simulate_secondary

__all__ = [
    "SamplingPlan",
    "sampled_hit_rate",
    "sampling_error_bound",
    "sampling_halfwidth",
]


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample sets of a cache.

    Attributes:
        sample_every: keep sets whose index is a multiple of this.
    """

    sample_every: int = 16

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {self.sample_every}")

    def sets_sampled(self, n_sets: int) -> int:
        """Number of sets simulated for a cache with ``n_sets`` sets."""
        return (n_sets + self.sample_every - 1) // self.sample_every


def sampled_hit_rate(
    miss_trace: MissTrace,
    config: CacheConfig,
    plan: SamplingPlan = SamplingPlan(),
) -> SecondaryResult:
    """Estimate an L2's local hit rate via set sampling.

    Falls back to full simulation when the cache has fewer sets than the
    sampling factor would leave meaningful (at least 4 sampled sets).

    Where the batch engine of :mod:`repro.sim.vector` covers the
    configuration, the sampling mask and the guaranteed-hit collapse run
    vectorized, bit-identical to the scalar
    :func:`~repro.caches.secondary.simulate_secondary`, which answers
    everything else.
    """
    from repro.sim.vector import vector_simulate_secondary

    sample_every = plan.sample_every
    while sample_every > 1 and config.n_sets // sample_every < 4:
        sample_every //= 2
    result = vector_simulate_secondary(miss_trace, config, sample_every=sample_every)
    if result is not None:
        return result
    return simulate_secondary(miss_trace, config, sample_every=sample_every)


def sampling_halfwidth(
    sampled_demand_accesses: int,
    hit_rate: float = 0.5,
    z: float = 3.0,
    population: int = None,
) -> float:
    """A-priori confidence half-width of a set-sampled hit-rate estimate.

    The forward-looking companion of
    :meth:`~repro.caches.secondary.SecondaryResult.hit_rate_halfwidth`:
    given how many demand accesses a sampling plan would leave (roughly
    ``total demand / sample_every``), bound how far the sampled estimate
    can sit from the full-cache value *before* running any simulation.
    The analytic screen widens its pruning margin by this amount so
    sampling noise cannot flip a match decision it skipped simulating.

    Degenerate cases are pinned rather than extrapolated: a sample that
    covers the whole population is an exact measurement (half-width 0.0,
    not a positive band that would loosen the screen), and an empty
    *population* has nothing to mis-estimate (0.0 again, matching the
    PR 3 convention of pinning empty-trace hit rates to 0.0).  Only an
    empty sample drawn from a non-empty population is genuinely
    uninformative and returns the vacuous band 1.0.

    Args:
        sampled_demand_accesses: demand accesses the sampled sets see.
        hit_rate: anticipated hit rate; the default 0.5 maximises
            ``p*(1-p)`` and therefore the band (a safe worst case).
        z: sigma multiplier (3 by default, matching the screen).
        population: total demand accesses the full cache would see, when
            known.  Enables the exact-measurement and empty-population
            pins above; ``None`` preserves the bare binomial band.

    Returns:
        The half-width: 0.0 for exact or vacuously-exact measurements,
        1.0 when a non-empty population is entirely unsampled, else the
        ``z * sqrt(p(1-p)/n)`` binomial band.
    """
    if population is not None and population <= 0:
        return 0.0
    if sampled_demand_accesses <= 0:
        return 1.0
    if population is not None and sampled_demand_accesses >= population:
        return 0.0
    return z * float(np.sqrt(hit_rate * (1.0 - hit_rate) / sampled_demand_accesses))


def sampling_error_bound(
    full: Sequence[float],
    sampled: Sequence[float],
) -> float:
    """Maximum absolute hit-rate discrepancy between paired estimates.

    A validation helper for tests and EXPERIMENTS.md: given hit rates from
    full and sampled simulation of the same (trace, config) pairs, return
    the worst-case absolute difference.
    """
    if len(full) != len(sampled):
        raise ValueError("full and sampled sequences must pair up")
    if not full:
        return 0.0
    return float(np.max(np.abs(np.asarray(full) - np.asarray(sampled))))
