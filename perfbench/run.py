"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig3-cold|l2-match|service-zipf \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records layer spans from the benchmark's side and
prints the per-layer metrics.  Every output is checked (see
``checks.py``); any mismatch makes the result ``"correct": false`` and
the exit code 1.  The last line of standard output is the JSON result;
the lines before it print every metric by name and unit and the run
record.  See README.md in this directory for the workloads and the
metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import refserver  # noqa: E402

WORKLOADS = ("fig3-cold", "l2-match", "service-zipf")
#: Fresh-process set-ups per run (``setup_s`` is their median): at least
#: ``SETUP_MIN``, more while they total under ``SETUP_BUDGET_S``.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
#: Timed passes (exhibits) or rounds (service) per run: at least
#: ``MIN_PASSES``, more until they total ``--seconds``.
MIN_PASSES = 3
#: Reference-service requests just before and just after each service
#: round (``refserver``).
REF_REQUESTS = 150
#: Where runs keep scratch stores (removed on exit) and span/record files.
OUT_DIR = ROOT / ".perfbench"


def declared_metrics(key: str) -> Dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@dataclass
class Outcome:
    """Checked outputs: every check is one attempt; mismatches fail it."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


class Context:
    """State of one run, passed to the workload functions."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path):
        self.root = ROOT
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.recorder = layers.SpanRecorder()
        self.store = None
        self.last_cache = None
        #: Each request's time in the last exhibit pass (sizes reference blocks).
        self.request_s = None

    def set_traced(self, on: bool) -> None:
        self.recorder.phase = "timed"
        self.recorder.enabled = on


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_setups(ctx: Context, workload: str):
    """Fresh-process store builds.

    Returns their times, each one's host-reference chunk time (none in
    traced runs), the last store and the span files.
    """
    times, refs, stores, spans = [], [], [], []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        i = len(times)
        store = ctx.work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "setup_store.py"), "--workload", workload,
               "--seed", str(ctx.seed), "--store", str(store)]
        if ctx.trace:
            spans.append(ctx.work / f"setup-spans{i}.json")
            cmd += ["--spans", str(spans[-1]), "--run-id", ctx.recorder.run_id]
        before = None if ctx.trace else hostref.block(times[-1] if times else 0.0)
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ctx.root, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (rc={proc.returncode}):\n{proc.stderr[-3000:]}")
        if before is not None:
            refs.append(hostref.per_chunk((before, hostref.block(times[-1])))[0])
        stores.append(store)
    for store in stores[:-1]:
        shutil.rmtree(store, ignore_errors=True)
    return times, refs, stores[-1], spans


def setup_seconds(times: List[float], refs: List[float]) -> float:
    """Median set-up time in refs, reported in seconds (``hostref.SECONDS_PER_REF``)."""
    return hostref.SECONDS_PER_REF * statistics.median(t / r for t, r in zip(times, refs))


def run_passes(ctx: Context, one_pass) -> list:
    """Passes until ``--seconds`` of timed work (alternating when traced)."""
    passes = []
    timed = 0.0
    while timed < ctx.seconds or len(passes) < MIN_PASSES:
        # Free the previous pass before the next one, outside the timing,
        # so peak RSS is one pass's footprint whatever the pass count.
        ctx.last_cache = None
        gc.collect()
        ctx.set_traced(ctx.trace and len(passes) % 2 == 1)
        result = one_pass(ctx, len(passes))
        ctx.set_traced(False)
        passes.append(result)
        timed += result.wall_s
    return passes


# -- per-layer reduction -------------------------------------------------------


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """Map span totals onto the per-layer metric names."""
    t = totals.get

    def ratio(num, den, scale=1.0):
        den = t(den, 0.0)
        return scale * t(num, 0.0) / den if den else 0.0

    return {
        "workloads.calls": t("workloads.calls", 0.0),
        "workloads.trace_s": t("workloads.s", 0.0),
        "workloads.accesses": t("workloads.accesses", 0.0),
        "l1.calls": t("l1.calls", 0.0),
        "l1.simulate_s": t("l1.s", 0.0),
        "l1.ns_per_access": ratio("l1.s", "l1.accesses", 1e9),
        "l1.miss_events": t("l1.miss_events", 0.0),
        "streams.calls": t("streams.calls", 0.0),
        "streams.replay_s": t("streams.s", 0.0),
        "streams.events": t("streams.events", 0.0),
        "streams.ns_per_event": ratio("streams.s", "streams.events", 1e9),
        "streams.scalar_calls": t("streams.scalar.calls", 0.0),
        "streams.scalar_s": t("streams.scalar.s", 0.0),
        "streams.prefetch_useful_frac": ratio("streams.used", "streams.issued"),
        "mech.calls": t("mech.calls", 0.0),
        "mech.replay_s": t("mech.s", 0.0),
        "mech.events": t("mech.events", 0.0),
        "mech.ns_per_event": ratio("mech.s", "mech.events", 1e9),
        "l2.probes": t("l2.calls", 0.0),
        "l2.probe_s": t("l2.s", 0.0),
        "l2.configs_simulated": t("l2.config.calls", 0.0),
        "l2.ms_per_config": ratio("l2.config.s", "l2.config.calls", 1e3),
        "analytic.calls": t("analytic.calls", 0.0),
        "analytic.search_self_s": t("analytic.self_s", 0.0),
        "analytic.sizes_pruned": t("analytic.sizes_pruned", 0.0),
        "analytic.configs_simulated": t("analytic.configs_simulated", 0.0),
        "store.reads": t("store.read.calls", 0.0),
        "store.read_s": t("store.read.s", 0.0),
        "store.read_bytes": t("store.read.bytes", 0.0),
        "store.writes": t("store.write.calls", 0.0),
        "store.write_s": t("store.write.s", 0.0),
        "store.write_bytes": t("store.write.bytes", 0.0),
        "grid.calls": t("grid.calls", 0.0),
        "grid.cells": t("grid.cells", 0.0),
        "grid.self_s": t("grid.self_s", 0.0),
        "exhibit.calls": t("exhibit.calls", 0.0),
        "exhibit.self_s": t("exhibit.self_s", 0.0),
    }


def service_layer_metrics(rounds) -> Dict[str, float]:
    """Service metrics from the servers' ``/v1/debug`` and ``/metrics.json``.

    Without rounds (the exhibit workloads) every value is 0.
    """
    n = max(1, len(rounds))
    counters = [r.debug.get("counters", {}) for r in rounds]

    def total(key):
        return float(sum(c.get(key, 0) for c in counters))

    def metric(r, name):
        for key, value in r.metrics.get("counters", {}).items():
            if key.endswith(name):
                return float(value)
        return 0.0

    requested = total("cells_requested")
    coalesced = sum(r.debug.get("coalescer", {}).get("hits", 0) for r in rounds)
    batches = sum(metric(r, "batches_total") for r in rounds)

    def frac(key):
        return total(key) / requested if requested else 0.0

    def median_of(section, pct):
        if not rounds:
            return 0.0
        return statistics.median(r.debug.get(section, {}).get(pct, 0.0) for r in rounds)

    return {
        "service.requests": total("requests") / n,
        "service.queue_wait_p50_ms": median_of("queue_wait_ms", "p50"),
        "service.queue_wait_p99_ms": median_of("queue_wait_ms", "p99"),
        "service.admission_wait_p99_ms": median_of("admission_wait_ms", "p99"),
        "service.coalesce_hit_frac": coalesced / requested if requested else 0.0,
        "service.result_cache_hit_frac": frac("result_cache_hits"),
        "service.store_fastpath_frac": frac("store_fastpath_hits"),
        "service.cells_executed": total("cells_executed") / n,
        "service.batches": batches / n,
        "service.cells_per_batch": total("cells_executed") / batches if batches else 0.0,
        "service.rejected": total("rejected") / n,
    }


# -- workloads ---------------------------------------------------------------------


def run_exhibit(ctx: Context, workload: str, outcome: Outcome):
    import exhibits

    if ctx.trace:
        layers.install(ctx.recorder)
    setup_times, setup_refs, store, setup_spans = run_setups(ctx, workload)
    if workload == "l2-match":
        from repro.trace.store import TraceStore

        ctx.store = TraceStore(store)
        passes = run_passes(ctx, exhibits.l2_pass)
    else:
        passes = run_passes(ctx, exhibits.fig3_pass)
    # Before the checks: the oracles hold whole traces as Python lists.
    peak_rss_mb = exhibits.peak_rss_mb()
    fp = exhibits.summarize(passes, outcome, workload, ctx)
    checks_started = time.perf_counter()
    if workload == "l2-match":
        paper_err = exhibits.l2_paper_err(ctx.last_cache[2])
        exhibits.l2_oracles(ctx, outcome)
    else:
        paper_err = exhibits.fig3_paper_err(passes[0].payload)
        exhibits.fig3_oracles(ctx, passes[0].payload, outcome)

    info = {"passes": len(passes), "setups": len(setup_times),
            "requests": len(passes[0].latencies_s) * len(passes), "fingerprint": fp,
            "pass_wall_s": [p.wall_s for p in passes],
            "check_s": time.perf_counter() - checks_started}
    end_to_end = {}
    if not ctx.trace:
        # Every pass makes the same requests.  A request's time is its
        # median over the passes of its time in ref units (over the host
        # reference timed around it), and a pass is the sum of them.
        n_requests = len(passes[0].latencies_s)

        def per_request(times: str, refs: str) -> List[float]:
            return [statistics.median(getattr(p, times)[i] / getattr(p, refs)[i]
                                      for p in passes)
                    for i in range(n_requests)]

        latencies = per_request("latencies_s", "ref_s")
        wall = sum(latencies)
        end_to_end = {
            "setup_s": setup_seconds(setup_times, setup_refs),
            "wall_ref": wall,
            "cpu_ref": sum(per_request("cpu_s", "ref_cpu_s")),
            "peak_rss_mb": peak_rss_mb,
            "requests_per_ref": n_requests / wall,
            "latency_p50_ref": percentile(latencies, 50),
            "latency_p99_ref": percentile(latencies, 99),
            "paper_err_pct": paper_err,
        }
        info.update(host_info([r for p in passes for r in p.ref_s],
                              [x for p in passes for x in p.latencies_s], len(passes)))
        info["request_ref"] = latencies
        info["raw_setup_s"] = statistics.median(setup_times)
    per_layer = {}
    if ctx.trace:
        traced = [p for p in passes if p.traced]
        spans = list(ctx.recorder.spans)
        for path in setup_spans:
            spans += layers.load_spans(path)
        per_layer = traced_metrics(workload, spans, len(setup_spans), len(traced), outcome)
        per_layer.update(service_layer_metrics([]))
        per_layer["trace.coverage_frac"] = layers.coverage(
            spans, [p.window for p in traced])
        per_layer["trace.overhead_frac"] = _overhead(passes)
        _dump_spans(ctx, workload, spans)
    return end_to_end, per_layer, info


def run_service(ctx: Context, outcome: Outcome):
    import service

    setup_times, setup_refs, template, setup_spans = run_setups(ctx, "service-zipf")
    rounds, start_times = [], []
    timed = 0.0
    reference = None if ctx.trace else refserver.RefService(inputs.CLIENTS)
    try:
        while timed < ctx.seconds or len(rounds) < MIN_PASSES:
            index = len(rounds)
            traced = ctx.trace and index % 2 == 1
            server, start_s, spans_path = service.start_server(ctx, template, index, traced)
            try:
                if reference:
                    ref_started = time.perf_counter()
                    blocks = [hostref.block(rounds[-1].wall_s if rounds else 0.0)]
                    ref_latencies = reference.measure(REF_REQUESTS)
                ctx.set_traced(traced)
                rnd = service.run_round(ctx, server, index, traced, ctx.recorder)
                ctx.set_traced(False)
                if reference:
                    ref_latencies += reference.measure(REF_REQUESTS)
                    blocks.append(hostref.block(rnd.wall_s))
                    rnd.ref_s = statistics.fmean(ref_latencies)
                    rnd.chunk_s, rnd.chunk_cpu_s = hostref.per_chunk(blocks)
                    timed += time.perf_counter() - ref_started - rnd.wall_s
            finally:
                server.stop()
            shutil.rmtree(ctx.work / f"service-round{index}", ignore_errors=True)
            rnd.spans_path = spans_path
            rounds.append(rnd)
            start_times.append(start_s)
            timed += rnd.wall_s
    finally:
        if reference:
            reference.stop()

    checks_started = time.perf_counter()
    wire, stats, cache = service.direct_results(ctx.seed)
    service.compare_responses(rounds, wire, outcome)
    service_oracles(ctx, stats, cache, outcome)
    import checks

    fp = checks.fingerprint({f"{c.workload}/{c.n_streams}/{int(c.filtered)}": w["stats"]
                             for c, w in sorted(wire.items(), key=lambda kv: repr(kv[0]))})
    if ctx.seed == inputs.DEFAULT_SEED:
        pinned = checks.golden("service-zipf")
        outcome.check(pinned == fp, f"service-zipf: fingerprint {fp} != pinned {pinned}")

    from repro.reporting import paper_data

    paper_err = statistics.fmean(
        abs(stats[inputs.Cell(name, 10, False)].hit_rate_percent
            - paper_data.FIGURE3_HIT_AT_10[name])
        for name in inputs.SERVICE_NAMES)
    info = {"rounds": len(rounds), "setups": len(setup_times),
            "requests": sum(len(r.latencies_s) for r in rounds),
            "fingerprint": fp,
            "check_s": time.perf_counter() - checks_started,
            "round_wall_s": [r.wall_s for r in rounds],
            "store_build_s": statistics.median(setup_times),
            "server_start_s": statistics.median(start_times)}
    end_to_end = {}
    if not ctx.trace:
        # A round's wall times over the reference service's mean latency,
        # and its server CPU over the chunk's CPU time, both measured just
        # before and just after the round.
        walls = [r.wall_s / r.ref_s for r in rounds]
        latencies = [x / r.ref_s for r in rounds for x in r.latencies_s]
        start = statistics.median(s / r.chunk_s for s, r in zip(start_times, rounds))
        end_to_end = {
            "setup_s": setup_seconds(setup_times, setup_refs) + hostref.SECONDS_PER_REF * start,
            "wall_ref": statistics.median(walls),
            "cpu_ref": statistics.median(r.cpu_s / r.chunk_cpu_s for r in rounds),
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            "requests_per_ref": len(latencies) / sum(walls),
            "latency_p50_ref": percentile(latencies, 50),
            "latency_p99_ref": percentile(latencies, 99),
            "paper_err_pct": paper_err,
        }
        info.update(host_info([r.chunk_s for r in rounds],
                              [r.wall_s for r in rounds], len(rounds)))
        info["ref_request_ms"] = 1e3 * statistics.median(r.ref_s for r in rounds)
        info["round_ref_ms"] = [1e3 * r.ref_s for r in rounds]
        info["round_chunk_ms"] = [1e3 * r.chunk_s for r in rounds]
        info["round_p50_ms"] = [1e3 * percentile(r.latencies_s, 50) for r in rounds]
        info["raw_setup_s"] = statistics.median(setup_times) + statistics.median(start_times)
    per_layer = {}
    if ctx.trace:
        traced = [r for r in rounds if r.traced]
        spans = list(ctx.recorder.spans)
        for path in setup_spans:
            spans += layers.load_spans(path)
        for r in traced:
            spans += layers.load_spans(r.spans_path)
        per_layer = traced_metrics("service-zipf", spans, len(setup_spans), len(traced),
                                   outcome)
        per_layer.update(service_layer_metrics(traced))
        per_layer["trace.coverage_frac"] = layers.coverage(
            spans, [r.window for r in traced], outer=("service", "grid"))
        per_layer["trace.overhead_frac"] = _overhead(rounds)
        _dump_spans(ctx, "service-zipf", spans)
    return end_to_end, per_layer, info


def service_oracles(ctx: Context, stats, cache, outcome: Outcome) -> None:
    """Re-simulate a seed-chosen sample of service cells with the oracle."""
    import checks
    from repro.workloads import get_workload

    for cell in inputs.oracle_sample(ctx.seed, inputs.service_cells(ctx.seed), 3):
        miss_trace, _ = cache.get(get_workload(cell.workload, inputs.SERVICE_SCALE, ctx.seed))
        ref = checks.oracle_streams(cell.config(), miss_trace)
        problems = checks.stream_mismatches(stats[cell], ref, f"service {cell}")
        outcome.check(not problems, "; ".join(problems))


def host_info(ref_s: List[float], times_s: List[float], n_units: int) -> dict:
    """The raw host times behind the ref-unit metrics, for the run record."""
    return {"ref_chunk_ms": 1e3 * statistics.median(ref_s),
            "raw_wall_s": sum(times_s) / n_units}


def _overhead(items) -> float:
    traced = [i.wall_s for i in items if i.traced]
    untraced = [i.wall_s for i in items if not i.traced]
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def traced_metrics(workload: str, spans, n_setups: int, n_passes: int,
                   outcome: Outcome) -> Dict[str, float]:
    """Per-layer metrics of one pass (and ``setup.*`` of one set-up).

    Also the benchmark's own wiring test: every layer that
    ``layers.EXPECTED_LAYERS`` assigns to this workload must have
    recorded calls in its phase, or the run fails.
    """
    totals = {
        "setup": layers.reduce_spans(spans, "setup", n_setups),
        "timed": layers.reduce_spans(spans, "timed", n_passes),
    }
    for phase, expected in layers.EXPECTED_LAYERS[workload].items():
        for layer in expected:
            outcome.check(totals[phase].get(f"{layer}.calls", 0.0) > 0,
                          f"{workload}: layer {layer} recorded zero calls ({phase})")
    per_layer = layer_metrics(totals["timed"])
    setup = totals["setup"].get
    per_layer.update({
        "setup.workloads_trace_s": setup("workloads.s", 0.0),
        "setup.l1_calls": setup("l1.calls", 0.0),
        "setup.l1_simulate_s": setup("l1.s", 0.0),
        "setup.profile_s": setup("analytic.profile.s", 0.0),
        "setup.streams_calls": setup("streams.calls", 0.0),
        "setup.streams_replay_s": setup("streams.s", 0.0),
        "setup.store_writes": setup("store.write.calls", 0.0),
        "setup.store_write_s": setup("store.write.s", 0.0),
        "setup.store_write_bytes": setup("store.write.bytes", 0.0),
    })
    return per_layer


def _dump_spans(ctx: Context, workload: str, spans) -> None:
    layers.write_spans(OUT_DIR / f"spans-{workload}-seed{ctx.seed}.json",
                       ctx.recorder.run_id, spans)


# -- run record -------------------------------------------------------------------


def run_record(workload: str, args, info: dict) -> dict:
    """Machine, program version and ``src/`` size beside the measurements."""
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    # A checkout without git metadata is still identified by its sources.
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        src_lines += len(data.splitlines())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        **info,
    }


def run_all(args) -> int:
    """``--workload all``: every workload untraced, then traced, one process each."""
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("record:")))
            failed += proc.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    ctx = Context(args.seed, args.seconds, bool(args.trace), work)
    outcome = Outcome()
    try:
        if args.workload == "service-zipf":
            end_to_end, per_layer, info = run_service(ctx, outcome)
        else:
            end_to_end, per_layer, info = run_exhibit(ctx, args.workload, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = outcome.failed / max(1, outcome.attempted)
    for problem in outcome.problems[:20]:
        print(f"MISMATCH: {problem}")
    measured = per_layer if args.trace else end_to_end
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    for name in sorted(declared.keys() ^ measured.keys()):
        outcome.check(False, f"metric {name}: declared and measured sets differ")
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} checks)")
    record = run_record(args.workload, args, info)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "failed_frac": failed_frac},
                   indent=1))
    print("record: " + json.dumps(record, sort_keys=True))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
