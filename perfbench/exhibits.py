"""The two exhibit workloads: ``fig3-cold`` and ``l2-match``.

Both run in the benchmark's own process through
``repro.reporting.experiments`` at ``jobs=1``.  One *pass* is one run of
the exhibit over the workload's fixed subset; a *request* is one driver
call for one benchmark (``figure3``) or one (benchmark, scale) pair
(``table4``, ``mechzoo``), as a ``repro exhibit`` caller would make it.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import checks
import hostref
import inputs


@dataclass
class Pass:
    """One timed pass of an exhibit workload."""

    wall_s: float
    window: Tuple[float, float]
    latencies_s: List[float]
    cpu_s: List[float]
    traced: bool
    #: Per request: wall and CPU time of one reference chunk around it
    #: (empty in traced runs, which run no reference).
    ref_s: List[float] = field(default_factory=list)
    ref_cpu_s: List[float] = field(default_factory=list)
    payload: object = field(repr=False, default=None)


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed(calls, ctx) -> Tuple[Pass, list]:
    """Run ``calls`` (zero-argument callables) back to back, timing each.

    Outside traced runs, a block of host-reference chunks
    (``hostref.block``) runs just before and just after every call, sized
    by the call's time (before it: its time in the previous pass).
    A call's reference is the pooled chunk time of its two blocks, so it
    is centred on the call even when the host's speed drifts.
    """
    reference = not ctx.trace
    expected = ctx.request_s or [0.0] * len(calls)
    start = time.perf_counter()
    result = Pass(0.0, (start, start), [], [], ctx.recorder.enabled)
    results = []
    for call, guess in zip(calls, expected):
        if reference:
            before = hostref.block(guess)
        t0, c0 = time.perf_counter(), _cpu()
        results.append(call())
        result.latencies_s.append(time.perf_counter() - t0)
        result.cpu_s.append(_cpu() - c0)
        if reference:
            after = hostref.block(result.latencies_s[-1])
            wall, cpu = hostref.per_chunk((before, after))
            result.ref_s.append(wall)
            result.ref_cpu_s.append(cpu)
    end = time.perf_counter()
    result.wall_s, result.window = end - start, (start, end)
    ctx.request_s = result.latencies_s
    return result, results


# -- fig3-cold ---------------------------------------------------------------


def fig3_pass(ctx, index: int) -> Pass:
    """Figure 3's unfiltered n=1..10 ladder into a fresh empty store."""
    from repro.reporting import experiments
    from repro.sim.runner import MissTraceCache
    from repro.trace.store import TraceStore
    from repro.workloads import get_workload

    root = ctx.work / f"fig3-pass{index}"
    store = TraceStore(root)
    cache = MissTraceCache(store=store)
    instances = [get_workload(name, scale=inputs.FIG3_SCALE, seed=ctx.seed)
                 for name in inputs.FIG3_NAMES]
    calls = [
        (lambda w=w: experiments.figure3(names=[w], cache=cache, jobs=1, store=store))
        for w in instances
    ]
    result, data = _timed(calls, ctx)
    result.payload = {w.name: {str(n): repr(hit) for n, hit in series[w].items()}
                      for w, series in zip(instances, data)}
    ctx.last_cache = (cache, instances)
    shutil.rmtree(root, ignore_errors=True)
    return result


def fig3_paper_err(matrix) -> float:
    from repro.reporting import paper_data

    errors = [abs(float(series["10"]) - paper_data.FIGURE3_HIT_AT_10[name])
              for name, series in matrix.items()]
    return statistics.fmean(errors)


def fig3_oracles(ctx, matrix, outcome) -> None:
    """Re-simulate one (benchmark, n) cell and one L1 with the oracles."""
    from repro.core.config import StreamConfig

    cache, instances = ctx.last_cache
    (workload,) = inputs.oracle_sample(ctx.seed, instances, 1)
    n = inputs.oracle_sample(ctx.seed, range(1, 11), 1)[0]
    miss_trace, summary = cache.get(workload)
    ref = checks.oracle_streams(StreamConfig.jouppi(n_streams=n), miss_trace)
    expected = repr(100.0 * (ref["stream_hits"] / ref["demand_misses"]))
    got = matrix[workload.name][str(n)]
    outcome.check(got == expected,
                  f"fig3 {workload.name} n={n}: hit % {got} != oracle {expected}")
    problems = checks.oracle_l1(workload, miss_trace, summary)
    outcome.check(not problems, "; ".join(problems))


# -- l2-match ----------------------------------------------------------------


def l2_pass(ctx, index: int) -> Pass:
    """Table 4 (brute force) and the victim+streams zoo column, warm store."""
    from repro.reporting import experiments
    from repro.sim.runner import MissTraceCache
    from repro.workloads import get_workload

    cache = MissTraceCache(store=ctx.store)
    zoo = {inputs.ZOO_COLUMN: experiments.default_zoo()[inputs.ZOO_COLUMN]}
    instances = [get_workload(name, scale=scale, seed=ctx.seed)
                 for name, scale in inputs.l2_pairs()]
    calls = []
    for w in instances:
        calls.append(lambda w=w: experiments.table4(scales={w: (w.scale,)}, cache=cache))
        calls.append(lambda w=w: experiments.mechzoo(
            names=[w], scales={w: (w.scale,)}, cache=cache, mechanisms=zoo))
    result, data = _timed(calls, ctx)
    rows = [row for call_rows in data for row in call_rows]
    ctx.last_cache = (cache, instances, rows)
    result.payload = [checks.match_payload(row.match) for row in rows]
    return result


def l2_paper_err(rows) -> float:
    """Mean |stream hit % - Table 4 hit %| over the Table 4 rows."""
    from repro.reporting import paper_data
    from repro.reporting.experiments import Table4Row
    from repro.workloads import TABLE4_SCALES

    errors = []
    for row in rows:
        if not isinstance(row, Table4Row):
            continue
        name = row.match.workload
        index = TABLE4_SCALES[name].index(row.scale)
        errors.append(abs(row.stream_hit_pct - paper_data.TABLE4[name][index][1]))
    return statistics.fmean(errors)


def l2_oracles(ctx, outcome) -> None:
    """Oracle re-simulation of one pair: L1, czone streams, hybrid, a probe."""
    from repro.core.config import StreamConfig
    from repro.reporting.experiments import Table4Row, default_zoo
    from repro.sim.compare import min_matching_l2_size

    cache, instances, rows = ctx.last_cache
    (workload,) = inputs.oracle_sample(ctx.seed, instances, 1)
    miss_trace, summary = cache.get(workload)
    what = f"{workload.name}@{workload.scale:g}"
    problems = checks.oracle_l1(workload, miss_trace, summary)
    outcome.check(not problems, "; ".join(problems))
    for row in rows:
        if row.match.workload != workload.name or row.scale != workload.scale:
            continue
        match = row.match
        if isinstance(row, Table4Row):
            ref = checks.oracle_streams(StreamConfig.non_unit(), miss_trace)
            problems = checks.stream_mismatches(match.stream_stats, ref, f"table4 {what}")
            outcome.check(not problems, "; ".join(problems))
            point = inputs.oracle_sample(ctx.seed, match.l2_hit_rates, 1)[0]
            problems = checks.oracle_probe(miss_trace, point, sample_every=8)
            outcome.check(not problems, "; ".join(problems))
        else:
            mech = default_zoo()[inputs.ZOO_COLUMN]
            problems = checks.oracle_mechanism(mech, miss_trace, match.stream_stats,
                                               f"mechzoo {what}")
            outcome.check(not problems, "; ".join(problems))
            # The analytic screen must agree with the brute-force search.
            brute = min_matching_l2_size(workload, cache=cache, mechanism=mech)
            outcome.check(brute.matched_size == match.matched_size,
                          f"mechzoo {what}: screen matched {match.matched_size} "
                          f"!= brute force {brute.matched_size}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(passes: List[Pass], outcome, golden_key: str, ctx) -> str:
    """Check every pass against the first (and the pin); returns its fingerprint."""
    prints = [checks.fingerprint(p.payload) for p in passes]
    for i, fp in enumerate(prints):
        outcome.check(fp == prints[0], f"pass {i} results differ from pass 0")
    if ctx.seed == inputs.DEFAULT_SEED:
        pinned = checks.golden(golden_key)
        outcome.check(pinned == prints[0],
                      f"{golden_key}: fingerprint {prints[0]} != pinned {pinned}")
    return prints[0]
