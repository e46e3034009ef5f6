"""Vector engine gate: scalar vs batch simulation on the replication grid.

Two measurements against the warm replication grid (the same 40 cells
as ``bench_quick``) —

* **L1 simulation time**: each workload's trace is built once, then the
  scalar path (consecutive-same-block compression plus the per-access
  ``Cache.simulate`` loop, as ``simulate_l1`` runs it for the
  configurations the batch engine does not cover) and
  ``vector_simulate_cache`` (the set-local collapse plus the residue
  loop, see docs/vectorized.md) are timed directly (min over repeats)
  and must produce bit-identical miss traces and statistics.
* **warm jobs=1 sweep wall time**: miss traces hydrated in memory,
  every cell's stream replay running for real.  Stream replay has a
  single engine, so there is no scalar sweep to time against; the
  speedup is taken against the scalar anchor pinned below (the same
  sweep on the scalar engines, 6.4 s).

Both speedups must clear the gate floors below.  The original aim was a
10x L1 speedup; the measured ceiling of this trace family is lower
because the replacement-state residue is RNG-serialized (every set
shares one ``random.Random`` stream, so draw order is a global
sequential dependency) — the gate pins the robustly reproducible floor
and ``BENCH_PR6.json`` records both the target and what was achieved;
the irreducibility argument lives in docs/vectorized.md.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_vector.py``
or ``make vector-bench``) or as the sixth phase of ``make bench-quick``.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.caches.cache import Cache, CacheConfig
from repro.mem.address import AddressSpace
from repro.sim.parallel import TaskError, run_grid
from repro.sim.runner import MissTraceCache
from repro.sim.vector import vector_simulate_cache
from repro.trace.compress import compress_consecutive
from repro.trace.events import Trace
from repro.trace.store import TraceStore
from repro.workloads import get_workload

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"

#: The PR 5 trajectory anchor: BENCH_PR5.json's ``disabled_min`` as
#: committed by PR 5 (scalar engines).  Pinned rather than read from the
#: live file, which later bench runs rewrite with current-engine times.
PR5_BASELINE_S = 6.3921

#: Gate floors: robustly reproducible on the replication grid (the
#: measured ratios sit well above these; see module docstring for why
#: the ISSUE's 10x aspiration is not the gate).
MIN_L1_SPEEDUP = 1.8
MIN_SWEEP_SPEEDUP = 1.8
ISSUE_TARGET_L1_SPEEDUP = 10.0
REPEATS = 3


def _scalar_l1(config: CacheConfig, trace):
    """The scalar Cache path of ``simulate_l1`` under write-back + allocate."""
    cache = Cache(config)
    compressed = compress_consecutive(trace, AddressSpace(block_size=config.block_size))
    miss_trace = cache.simulate(
        compressed.trace, weights=compressed.weights, dirty=compressed.dirty
    )
    return miss_trace, cache.stats


def _best_ms(fn, *args) -> float:
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn(*args)
        elapsed = 1e3 * (time.perf_counter() - started)
        best = elapsed if best is None else min(best, elapsed)
    return best


def l1_probe(workload_names) -> dict:
    """Per-workload scalar-vs-vector L1 simulation times (warm)."""
    config = CacheConfig.paper_l1()
    per_workload = {}
    scalar_total = 0.0
    vector_total = 0.0
    for name in workload_names:
        # Built once, outside the timing; synthetic PCs stripped as
        # simulate_l1 strips them.
        full = get_workload(name).trace()
        trace = Trace(full.addrs, full.kinds)
        scalar_trace, scalar_stats = _scalar_l1(config, trace)
        vectorized = vector_simulate_cache(config, trace)
        if vectorized is None:
            raise SystemExit(f"bench_vector: batch engine refused workload {name}")
        vector_trace, vector_stats = vectorized
        if not (
            np.array_equal(scalar_trace.addrs, vector_trace.addrs)
            and np.array_equal(scalar_trace.kinds, vector_trace.kinds)
            and scalar_stats == vector_stats
        ):
            raise SystemExit(f"bench_vector: engines diverge on workload {name}")

        scalar_ms = _best_ms(_scalar_l1, config, trace)
        vector_ms = _best_ms(vector_simulate_cache, config, trace)
        per_workload[name] = {
            "scalar_ms": round(scalar_ms, 1),
            "vector_ms": round(vector_ms, 1),
            "speedup": round(scalar_ms / vector_ms, 2),
        }
        scalar_total += scalar_ms
        vector_total += vector_ms
    return {
        "per_workload": per_workload,
        "scalar_total_ms": round(scalar_total, 1),
        "vector_total_ms": round(vector_total, 1),
        "speedup": round(scalar_total / vector_total, 2),
    }


def _hydrated_cache(tasks, store: TraceStore) -> MissTraceCache:
    """Every task's miss trace in memory, store detached (as bench_obs)."""
    cache = MissTraceCache(store=store)
    for task in tasks:
        cache.get(task.workload, scale=task.scale, seed=task.seed)
    cache.store = None
    return cache


def _sweep_pass(tasks, cache: MissTraceCache) -> tuple:
    started = time.perf_counter()
    results = run_grid(tasks, jobs=1, cache=cache)
    elapsed = time.perf_counter() - started
    errors = [r for r in results if isinstance(r, TaskError)]
    if errors:
        raise SystemExit(f"bench_vector: {len(errors)} cells failed: {errors[0]}")
    return elapsed, [r.streams for r in results]


def sweep_probe(tasks, store: TraceStore) -> dict:
    """Warm jobs=1 sweep wall time against the pinned scalar anchor."""
    cache = _hydrated_cache(tasks, store)
    _sweep_pass(tasks, cache)  # warm the replay path once
    best = None
    first = None
    for _ in range(REPEATS):
        elapsed, streams = _sweep_pass(tasks, cache)
        best = elapsed if best is None else min(best, elapsed)
        if first is None:
            first = streams
        elif streams != first:
            raise SystemExit("bench_vector: sweep stream stats differ between passes")
    return {
        "cells": len(tasks),
        "s": round(best, 3),
        "pr5_baseline_s": PR5_BASELINE_S,
        "speedup": round(PR5_BASELINE_S / best, 2),
    }


def vector_probe(tasks, store: TraceStore) -> dict:
    """Run both probes, print the gate verdict, write ``BENCH_PR6.json``."""
    workload_names = sorted({task.workload for task in tasks})
    l1 = l1_probe(workload_names)
    sweep = sweep_probe(tasks, store)

    ok = l1["speedup"] >= MIN_L1_SPEEDUP and sweep["speedup"] >= MIN_SWEEP_SPEEDUP
    print(
        f"{'L1 simulation':24s} {l1['scalar_total_ms']:7.0f}ms scalar ->"
        f" {l1['vector_total_ms']:5.0f}ms vector  ({l1['speedup']:.1f}x,"
        f" gate >= {MIN_L1_SPEEDUP}x, issue target {ISSUE_TARGET_L1_SPEEDUP:.0f}x)"
    )
    print(
        f"{'warm sweep jobs=1':24s} {sweep['pr5_baseline_s']:7.2f}s scalar anchor ->"
        f" {sweep['s']:5.2f}s now  ({sweep['speedup']:.1f}x,"
        f" gate >= {MIN_SWEEP_SPEEDUP}x)"
    )
    print(f"vector engine gate: {'PASS' if ok else 'FAIL'} (bit-identical: True)")

    payload = {
        "pr": 6,
        "benchmark": "bench_vector: scalar vs batch L1 (repro.sim.vector); warm sweep vs the pinned scalar anchor",
        "grid": {"cells": len(tasks), "workloads": workload_names, "repeats": REPEATS},
        "l1_simulate_span": l1,
        "warm_sweep_jobs1": sweep,
        "gates": {
            "min_l1_speedup": MIN_L1_SPEEDUP,
            "min_sweep_speedup": MIN_SWEEP_SPEEDUP,
            "issue_target_l1_speedup": ISSUE_TARGET_L1_SPEEDUP,
        },
        "bit_identical": True,
        "notes": (
            "L1 residue loop is RNG-serialized (one shared random.Random "
            "across all sets), bounding the honest l1.simulate speedup below "
            "the issue's 10x aspiration; see docs/vectorized.md."
        ),
        "pass": ok,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return payload


def main() -> int:
    from bench_quick import build_tasks  # same replication grid as PR 1's gate

    tasks = build_tasks()
    with tempfile.TemporaryDirectory(prefix="repro-bench-vector-") as store_dir:
        store = TraceStore(store_dir)
        print(f"grid: {len(tasks)} cells; populating store ...")
        run_grid(tasks, jobs=4, store=store)
        payload = vector_probe(tasks, store)
    if not payload["pass"]:
        print(
            "FAIL: vector engine speedup below gate "
            f"(l1 {payload['l1_simulate_span']['speedup']}x, "
            f"sweep {payload['warm_sweep_jobs1']['speedup']}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
