"""Telemetry overhead probe: traced vs untraced replication sweeps.

The obs subsystem's core promise is that it can stay compiled into
every layer because it is nearly free: counter bumps always-on, spans
only when tracing is enabled.  This probe prices both states on real
sweep work — every cell's stream replay actually runs, against an
in-memory miss-trace cache, so the measured ratio is what a figure
replication would pay —

* **disabled** (the default): tracer off, no manifest; the only
  telemetry cost is engine-registry counter bumps;
* **enabled**: tracer on (with a bound trace context, so every span
  pays the trace-id auto-tag), structured logging at INFO, plus the
  full artifact path (ManifestBuilder construction, per-cell records,
  manifest build from the drained spans).

The states are timed in ``PAIRS`` adjacent pairs (untraced, then
traced), and the gate takes the median of the per-pair ratios: a host
that drifts slower or faster during the probe moves both halves of a
pair alike, so drift cancels in each ratio, and the median ignores the
odd pair a neighbour's burst landed on.  The gate: the median traced
pass within ``MAX_OVERHEAD`` (5%) of its untraced partner.  Results
land in ``BENCH_PR5.json``.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_obs.py``) or
as the final phase of ``make bench-quick``, hydrating its in-memory
cache from the already-warm store.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from contextlib import nullcontext

import numpy as np

from repro.obs.context import trace_scope
from repro.obs.log import INFO, get_level, set_level
from repro.obs.manifest import ManifestBuilder
from repro.obs.spans import set_tracing
from repro.sim.parallel import TaskError, run_grid
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"
MAX_OVERHEAD = 0.05
PAIRS = 7


def replay_cache(tasks, store: TraceStore) -> MissTraceCache:
    """An in-memory cache holding every task's miss trace, store detached.

    Hydrating from the warm store is cheap; detaching it afterwards
    makes each probe pass replay every cell for real instead of
    loading memoised results — replay work is what the overhead ratio
    must be measured against.
    """
    cache = MissTraceCache(store=store)
    for task in tasks:
        cache.get(task.workload, scale=task.scale, seed=task.seed)
    cache.store = None
    return cache


def _one_pass(tasks, cache: MissTraceCache, enabled: bool) -> float:
    tracer = set_tracing(enabled)
    tracer.clear()
    previous_level = get_level()
    if enabled:
        set_level(INFO)  # structured logging on: part of the priced state
    builder = ManifestBuilder("bench_obs") if enabled else None
    started = time.perf_counter()
    with trace_scope() if enabled else nullcontext():
        results = run_grid(tasks, jobs=1, cache=cache)
    if builder is not None:
        builder.add_results(tasks, results)
        builder.build(span_events=tracer.events())
    elapsed = time.perf_counter() - started
    set_level(previous_level)
    tracer.enabled = False
    tracer.clear()
    errors = [r for r in results if isinstance(r, TaskError)]
    if errors:
        raise SystemExit(f"bench_obs: {len(errors)} cells failed: {errors[0]}")
    return elapsed


def paired_overhead(one_pass: Callable[[bool], float], pairs: int = PAIRS) -> Dict:
    """Time ``pairs`` adjacent (untraced, traced) passes and gate the
    median paired ratio.

    ``one_pass(enabled)`` runs one pass and returns its seconds.  The
    result carries both series, every ratio, the overhead (median ratio
    minus one) and the verdict against ``MAX_OVERHEAD``.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be positive, got {pairs}")
    untraced: List[float] = []
    traced: List[float] = []
    for _ in range(pairs):
        untraced.append(one_pass(False))
        traced.append(one_pass(True))
    ratios = [t / u for u, t in zip(untraced, traced)]
    overhead = statistics.median(ratios) - 1.0
    return {
        "untraced": untraced,
        "traced": traced,
        "ratios": ratios,
        "overhead": overhead,
        "pass": overhead <= MAX_OVERHEAD,
    }


def overhead_probe(tasks, store: TraceStore, pairs: int = PAIRS) -> dict:
    """Time traced vs untraced replay sweeps and write ``BENCH_PR5.json``."""
    cache = replay_cache(tasks, store)
    _one_pass(tasks, cache, enabled=False)  # warm the replay path once
    probe = paired_overhead(lambda enabled: _one_pass(tasks, cache, enabled), pairs)
    overhead, ok = probe["overhead"], probe["pass"]
    for label, series in (("telemetry disabled", probe["untraced"]),
                          ("telemetry enabled", probe["traced"])):
        median = statistics.median(series)
        print(
            f"{label:24s} {median:7.3f}s  "
            f"({len(tasks) / median:6.1f} cells/s, median of {pairs})"
        )
    print(
        f"telemetry overhead: {100 * overhead:+.1f}% "
        f"(median of {pairs} paired ratios, gate <= {100 * MAX_OVERHEAD:.0f}%)"
        f"  ->  {'PASS' if ok else 'FAIL'}"
    )

    payload = {
        "pr": 5,
        "benchmark": "bench_obs: traced vs untraced warm sweep (repro.obs)",
        "grid": {"cells": len(tasks), "jobs": 1, "pairs": pairs},
        "seconds": {
            "untraced_all": [round(s, 4) for s in probe["untraced"]],
            "traced_all": [round(s, 4) for s in probe["traced"]],
        },
        "paired_ratios": [round(r, 4) for r in probe["ratios"]],
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD,
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
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as store_dir:
        store = TraceStore(store_dir)
        print(f"grid: {len(tasks)} cells; populating store ...")
        run_grid(tasks, jobs=4, store=store)
        payload = overhead_probe(tasks, store)
    if not payload["pass"]:
        print(
            f"FAIL: telemetry overhead {100 * payload['overhead_fraction']:.1f}% "
            f"> {100 * MAX_OVERHEAD:.0f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
