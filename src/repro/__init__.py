"""repro — a reproduction of Palacharla & Kessler, "Evaluating Stream
Buffers as a Secondary Cache Replacement" (ISCA 1994).

The package simulates the paper's memory system — an on-chip cache backed
only by Jouppi-style stream buffers and main memory — over synthetic
models of the paper's fifteen NAS/PERFECT benchmarks, and regenerates
every table and figure of its evaluation.

Quick start::

    from repro import StreamConfig, run_result

    result = run_result("mgrid", StreamConfig.filtered())
    print(result.hit_rate_percent, result.eb_percent)

Public layers:

* :mod:`repro.core` — stream buffers, allocation filters, stride detection
* :mod:`repro.caches` — L1/L2 cache simulators (the substrate)
* :mod:`repro.workloads` — benchmark models and microbenchmarks
* :mod:`repro.trace` — traces, sampling, compression
* :mod:`repro.sim` — runners, sweeps, the L2 comparison
* :mod:`repro.analytic` — stack-distance profiles and the screened search
* :mod:`repro.reporting` — the paper's tables and figures
"""

from repro.analytic import (
    LocalityProfile,
    min_matching_l2_size_analytic,
    profile_miss_trace,
)
from repro.baselines import (
    OneBlockLookahead,
    PrefetchingCache,
    ReferencePredictionTable,
)
from repro.caches import Cache, CacheConfig, MissTrace, SplitL1
from repro.core import (
    Lookup,
    StreamConfig,
    StreamPrefetcher,
    StreamStats,
    StrideDetector,
)
from repro.sim import (
    MemorySystem,
    RunResult,
    ServiceLevel,
    min_matching_l2_size,
    run_result,
    run_streams,
    sweep_czone_bits,
    sweep_n_streams,
)
from repro.timing import TimingModel, compare_designs
from repro.trace import Access, AccessKind, Trace, TraceBuilder
from repro.workloads import (
    PAPER_BENCHMARKS,
    Workload,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "AccessKind",
    "Cache",
    "CacheConfig",
    "LocalityProfile",
    "Lookup",
    "MemorySystem",
    "MissTrace",
    "OneBlockLookahead",
    "PAPER_BENCHMARKS",
    "PrefetchingCache",
    "ReferencePredictionTable",
    "RunResult",
    "ServiceLevel",
    "SplitL1",
    "StreamConfig",
    "StreamPrefetcher",
    "StreamStats",
    "StrideDetector",
    "TimingModel",
    "Trace",
    "TraceBuilder",
    "Workload",
    "__version__",
    "compare_designs",
    "get_workload",
    "min_matching_l2_size",
    "min_matching_l2_size_analytic",
    "profile_miss_trace",
    "run_result",
    "run_streams",
    "sweep_czone_bits",
    "sweep_n_streams",
    "workload_names",
]
