"""Process-pool sweep executor over (workload x config) grids.

Every figure in the paper is a grid: replay one set of miss traces under
a family of stream configurations.  :func:`run_grid` fans such a grid out
over ``concurrent.futures.ProcessPoolExecutor`` workers:

* each worker process owns a :class:`~repro.sim.runner.MissTraceCache`
  hydrated from a shared persistent
  :class:`~repro.trace.store.TraceStore`, so the L1 simulation of each
  workload is computed (at most) once *across the whole fleet* — and not
  at all when the store is warm;
* replayed :class:`~repro.core.prefetcher.StreamStats` are themselves
  memoised in the store (replays are deterministic), so a warm store
  turns a whole figure sweep into pure loads;
* cells that share a miss trace and differ only in ``n_streams`` (an
  unfiltered stream ladder, Figure 3's x-axis) replay in one LRU-stack
  pass (:func:`~repro.sim.vector.replay_stream_ladder`) once at least
  :data:`LADDER_MIN_CELLS` of them are uncached;
* tasks are scheduled in chunks to amortise IPC (a ladder group stays in
  one chunk), a failed cell returns a tagged :class:`TaskError` instead
  of killing the sweep, and results are assembled in task order
  regardless of completion order.

With ``jobs=1`` the grid runs in-process (no pool, no pickling) through
exactly the same code path, which is what the equivalence tests compare
against: serial and parallel execution produce bit-identical statistics.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, List, Optional, Sequence, Union

from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamStats, ladder_supported
from repro.mechanisms import MechanismConfig, MechStats
from repro.obs.context import bind_trace, current_trace_id
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.sim.results import RunResult
from repro.sim.runner import MissTraceCache, resolve_workload_ref
from repro.sim.vector import replay_secondary, replay_stream_ladder, replay_streams
from repro.trace.store import TraceStore, mech_result_digest, result_digest
from repro.workloads.base import Workload

__all__ = [
    "SweepTask",
    "TaskError",
    "SweepExecutionError",
    "make_pool",
    "run_grid",
    "grid_stats",
]

WorkloadRef = Union[str, Workload]

#: Distinct uncached stream counts a ladder group needs before one pass
#: beats replaying each cell (the measured crossover, docs/vectorized.md).
LADDER_MIN_CELLS = 4


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid.

    Attributes:
        key: caller-chosen label the result is reported under (e.g. the
            swept parameter value, or a ``(workload, n)`` pair).
        workload: registered workload name, or an instance.  Names are
            preferred for ``jobs > 1`` — instances are pickled to the
            workers wholesale, including any already-built trace.
        config: stream configuration to replay, or any
            :class:`~repro.mechanisms.MechanismConfig` (a mechanism cell's
            ``RunResult.streams`` then holds :class:`MechStats`).
        scale: input scale (ignored if ``workload`` is an instance).
        seed: workload seed (ignored if ``workload`` is an instance).
        trace_id: optional request trace the cell belongs to
            (:mod:`repro.obs.context`).  Pickled with the task, so the
            trace crosses the spawn boundary into pool workers and tags
            their spans/results.  Provenance only — excluded from
            equality like the matching fields on
            :class:`~repro.sim.results.RunResult`.
    """

    key: Hashable
    workload: WorkloadRef
    config: Union[StreamConfig, MechanismConfig]
    scale: float = 1.0
    seed: int = 0
    trace_id: Optional[str] = field(default=None, compare=False)


def _json_key(key: Hashable):
    """Render a task key as a JSON-safe value (tuples become lists)."""
    if isinstance(key, tuple):
        return [_json_key(part) for part in key]
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    return repr(key)


@dataclass(frozen=True)
class TaskError:
    """A failed grid cell, reported in place of its :class:`RunResult`.

    ``wall_time_s``/``worker`` record how long the cell burned before
    failing and which process ran it — without them failed cells are
    invisible in any timing analysis (a sweep stuck on one pathological
    cell used to look idle).  Excluded from equality, like the matching
    fields on :class:`~repro.sim.results.RunResult`.
    """

    key: Hashable
    workload: str
    error: str
    details: str = field(default="", repr=False)
    wall_time_s: float = field(default=0.0, compare=False)
    worker: int = field(default=0, compare=False)
    trace_id: str = field(default="", compare=False)

    def to_payload(self) -> dict:
        """JSON-safe rendering carrying the full traceback.

        Service responses and structured logs use this so a failed cell
        is diagnosable from the payload alone — nothing is dropped.
        """
        return {
            "key": _json_key(self.key),
            "workload": self.workload,
            "error": self.error,
            "traceback": self.details,
            "wall_time_s": self.wall_time_s,
            "worker": self.worker,
            "trace_id": self.trace_id,
        }


class SweepExecutionError(RuntimeError):
    """Raised by :func:`grid_stats` when any grid cell failed.

    ``errors`` keeps every :class:`TaskError` (tracebacks included);
    :meth:`payload` renders them for JSON error responses.
    """

    def __init__(self, errors: Sequence[TaskError]):
        self.errors = list(errors)
        lines = ", ".join(f"{e.key!r}: {e.error}" for e in self.errors[:5])
        more = "" if len(self.errors) <= 5 else f" (+{len(self.errors) - 5} more)"
        hint = ""
        if self.errors and self.errors[0].details:
            last = self.errors[0].details.strip().splitlines()[-1]
            hint = f" [first traceback ends: {last}]"
        super().__init__(f"{len(self.errors)} sweep task(s) failed: {lines}{more}{hint}")

    def payload(self) -> List[dict]:
        """Every failed cell as a JSON-safe dict (key, error, traceback)."""
        return [error.to_payload() for error in self.errors]


def _run_one(task: SweepTask, cache: MissTraceCache) -> Union[RunResult, TaskError]:
    """Execute one cell against a (possibly store-backed) cache.

    Every cell — success or failure — is timed and tagged with the pid
    of the process that ran it, wrapped in a ``cell`` span, and counted
    in the engine registry under its outcome (``store``/``replayed``/
    ``error``).  Manifests and traces are built entirely from these
    per-cell records, so they work identically in serial and pooled
    runs.
    """
    name, scale, seed, _ = resolve_workload_ref(task.workload, task.scale, task.seed)
    registry = engine_registry()
    trace_id = task.trace_id or current_trace_id() or ""
    started = time.perf_counter()
    try:
        with bind_trace(task.trace_id), get_tracer().span(
            "cell", key=str(task.key), workload=name
        ):
            miss_trace, summary = cache.get(task.workload, scale=scale, seed=seed)
            store = cache.store
            config = task.config
            stats: Optional[Union[StreamStats, MechStats]] = None
            digest = None
            if isinstance(config, MechanismConfig):
                if store is not None:
                    digest = mech_result_digest(
                        cache.trace_key(name, scale, seed), config
                    )
                    stats = store.load_mech_result(digest, config)
                source = "store"
                if stats is None:
                    source = "replayed"
                    with get_tracer().span("mech.replay", workload=name):
                        stats = replay_secondary(config, miss_trace)
                    if store is not None:
                        store.save_mech_result(digest, stats)
            else:
                if store is not None:
                    digest = result_digest(cache.trace_key(name, scale, seed), config)
                    stats = store.load_result(digest)
                source = "store"
                if stats is None:
                    source = "replayed"
                    with get_tracer().span("stream.replay", workload=name):
                        stats = replay_streams(config, miss_trace)
                    if store is not None:
                        store.save_result(digest, stats)
        wall = time.perf_counter() - started
        _count_cell(registry, source, wall)
        return RunResult(
            workload=name,
            scale=scale,
            seed=seed,
            l1=summary,
            streams=stats,
            wall_time_s=wall,
            worker=os.getpid(),
            source=source,
            trace_id=trace_id,
        )
    except Exception as exc:  # tagged, not fatal: one bad cell must not kill a sweep
        wall = time.perf_counter() - started
        _count_cell(registry, "error", wall)
        return TaskError(
            key=task.key,
            workload=name,
            error=f"{type(exc).__name__}: {exc}",
            details=traceback.format_exc(),
            wall_time_s=wall,
            worker=os.getpid(),
            trace_id=trace_id,
        )


def _ladder_key(task: SweepTask) -> Optional[tuple]:
    """Cells with equal keys share a miss trace (and a request trace) and
    have configs that differ only in ``n_streams``; None if ineligible."""
    config = task.config
    if not isinstance(config, StreamConfig) or not ladder_supported(config):
        return None
    name, scale, seed, _ = resolve_workload_ref(task.workload, task.scale, task.seed)
    fields = tuple(value for field, value in vars(config).items() if field != "n_streams")
    return (name, scale, seed, task.trace_id, fields)


def _plan(tasks: Sequence[SweepTask]) -> List[List[int]]:
    """Task indices in execution units, ordered by their first index.

    Cells sharing a :func:`_ladder_key` with at least
    :data:`LADDER_MIN_CELLS` distinct stream counts form one unit (a
    ladder group); every other cell is a unit of its own.
    """
    if len(tasks) < LADDER_MIN_CELLS:
        return [[i] for i in range(len(tasks))]
    keys = [_ladder_key(task) for task in tasks]
    members: Dict[tuple, List[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            members.setdefault(key, []).append(i)
    grouped = {
        group[0]: group
        for group in members.values()
        if len({tasks[j].config.n_streams for j in group}) >= LADDER_MIN_CELLS
    }
    in_group = {i for group in grouped.values() for i in group}
    return [
        grouped[i] if i in grouped else [i]
        for i in range(len(tasks))
        if i in grouped or i not in in_group
    ]


def _run_cells(
    tasks: Sequence[SweepTask], cache: MissTraceCache
) -> List[Union[RunResult, TaskError]]:
    """Execute cells in process, ladder groups together; results in task order."""
    results: List[Union[RunResult, TaskError, None]] = [None] * len(tasks)
    for unit in _plan(tasks):
        if len(unit) == 1:
            results[unit[0]] = _run_one(tasks[unit[0]], cache)
        else:
            group = _run_group([tasks[i] for i in unit], cache)
            for i, result in zip(unit, group):
                results[i] = result
    return results  # type: ignore[return-value]


def _run_group(
    tasks: List[SweepTask], cache: MissTraceCache
) -> List[Union[RunResult, TaskError]]:
    """Execute one ladder group: cells of one miss trace whose configs
    differ only in ``n_streams``.

    Stored cells load one by one through :func:`_run_one`.  If at least
    :data:`LADDER_MIN_CELLS` distinct stream counts are left, one
    :func:`~repro.sim.vector.replay_stream_ladder` pass computes them
    under a ``stream.ladder`` span; each keeps its own store entry,
    ``cell`` span and counters, with the group's wall time split evenly
    across its cells.  Otherwise every cell runs by itself.
    """
    first = tasks[0]
    name, scale, seed, _ = resolve_workload_ref(first.workload, first.scale, first.seed)
    store = cache.store
    digests: List[Optional[str]] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    if store is not None:
        trace_key = cache.trace_key(name, scale, seed)
        digests = [result_digest(trace_key, task.config) for task in tasks]
        pending = [i for i, d in enumerate(digests) if not store.result_path(d).exists()]
    n_values = sorted({tasks[i].config.n_streams for i in pending})
    if len(n_values) < LADDER_MIN_CELLS:
        return [_run_one(task, cache) for task in tasks]
    uncached = set(pending)
    results: List[Union[RunResult, TaskError, None]] = [
        None if i in uncached else _run_one(task, cache) for i, task in enumerate(tasks)
    ]

    registry = engine_registry()
    tracer = get_tracer()
    trace_id = first.trace_id or current_trace_id() or ""
    error: Optional[TaskError] = None
    failure: Dict[str, str] = {}
    with bind_trace(first.trace_id):
        since = tracer.checkpoint()
        started = time.perf_counter_ns()
        try:
            miss_trace, summary = cache.get(first.workload, scale=scale, seed=seed)
            with tracer.span(
                "stream.ladder", workload=name, engine="ladder", n_values=n_values
            ) as span:
                stats, flagged, moves = replay_stream_ladder(
                    [tasks[i].config for i in pending], miss_trace
                )
                span.set(
                    replayed=sorted(flagged),
                    fallback={str(n): reason for n, reason in sorted(flagged.items())},
                    moves=dict(sorted(moves.items())),
                )
            if store is not None:
                for i, cell_stats in zip(pending, stats):
                    store.save_result(digests[i], cell_stats)
        except Exception as exc:  # tagged per cell, as in _run_one
            error = TaskError(
                key=None,
                workload=name,
                error=f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc(),
                worker=os.getpid(),
                trace_id=trace_id,
            )
            failure = {"error": type(exc).__name__}
        share = (time.perf_counter_ns() - started) // len(pending)
        for k, i in enumerate(pending):
            with bind_trace(tasks[i].trace_id):
                tracer.record(
                    "cell",
                    started + k * share,
                    started + (k + 1) * share,
                    since,
                    key=str(tasks[i].key),
                    workload=name,
                    **failure,
                )
    wall = share / 1e9
    if error is not None:
        for i in pending:
            _count_cell(registry, "error", wall)
            results[i] = replace(error, key=tasks[i].key, wall_time_s=wall)
        return results  # type: ignore[return-value]
    registry.counter(
        "engine_ladder_groups_total", "stream ladder groups replayed in one pass"
    ).inc()
    registry.counter(
        "engine_ladder_replayed_total",
        "stream counts a ladder pass ran on the one-bank engine for a while",
    ).inc(len(flagged))
    for i, cell_stats in zip(pending, stats):
        _count_cell(registry, "replayed", wall)
        results[i] = RunResult(
            workload=name,
            scale=scale,
            seed=seed,
            l1=summary,
            streams=cell_stats,
            wall_time_s=wall,
            worker=os.getpid(),
            source="replayed",
            trace_id=trace_id,
        )
    return results  # type: ignore[return-value]


def _count_cell(registry, source: str, wall: float) -> None:
    """Tally one finished cell in the engine registry."""
    registry.counter("engine_cells_total", "grid cells executed").inc()
    registry.counter(
        f"engine_cells_{source}_total", f"grid cells with outcome {source!r}"
    ).inc()
    registry.histogram("engine_cell_wall_ms", "wall time of one grid cell").observe(
        1e3 * wall
    )


# -- worker-process state ---------------------------------------------------

_WORKER_CACHE: Optional[MissTraceCache] = None


def _init_worker(
    l1_config: CacheConfig,
    keep_pcs: bool,
    store_root: Optional[str],
    trace_enabled: bool = False,
) -> None:
    """Build this worker's cache once (executor ``initializer``).

    ``trace_enabled`` carries the parent's tracer state across the
    spawn boundary: spawned workers start with a fresh (disabled)
    module tracer, so the parent snapshots ``get_tracer().enabled`` at
    pool-creation time and replays it here.
    """
    global _WORKER_CACHE
    store = TraceStore(store_root) if store_root is not None else None
    _WORKER_CACHE = MissTraceCache(l1_config, keep_pcs=keep_pcs, store=store)
    # Fork-started workers inherit the parent's registry contents and
    # span buffer; shipping those back would double-count them.  Every
    # worker starts from zero telemetry.
    engine_registry().drain()
    tracer = get_tracer()
    tracer.clear()
    tracer.enabled = trace_enabled


def _run_chunk(index: int, chunk: List[SweepTask]):
    """Run one chunk of tasks in a worker; never raises.

    Besides the per-task results, each chunk ships back the telemetry
    the worker accumulated while running it: a drained (snapshot +
    reset) engine-registry delta, and any span events.  Draining means
    repeated chunks from the same worker never double-count, so the
    parent can merge every payload unconditionally.
    """
    assert _WORKER_CACHE is not None, "worker initializer did not run"
    tracer = get_tracer()
    with tracer.span("grid.chunk", index=index, tasks=len(chunk)):
        results = _run_cells(chunk, _WORKER_CACHE)
    telemetry = {
        "metrics": engine_registry().drain(),
        "spans": tracer.drain() if tracer.enabled else [],
    }
    return index, results, telemetry


def _worker_ready() -> bool:
    """No-op task used to force worker spin-up (see :func:`make_pool`)."""
    return _WORKER_CACHE is not None


# -- the executor -----------------------------------------------------------


def make_pool(
    jobs: int,
    l1_config: Optional[CacheConfig] = None,
    keep_pcs: bool = False,
    store: Optional[TraceStore] = None,
    warm: bool = True,
) -> ProcessPoolExecutor:
    """A worker pool reusable across many :func:`run_grid` calls.

    :func:`run_grid` builds (and tears down) a pool per invocation,
    which is right for one-shot sweeps but wasteful for a long-lived
    caller such as ``repro.service`` that dispatches many small batches.
    This constructs the same initialized pool once; pass it to
    :func:`run_grid` via ``executor=``.  The ``l1_config``/``keep_pcs``/
    ``store`` baked in here must match what later ``run_grid`` calls
    assume — workers are initialized exactly once.

    Workers use the ``spawn`` start method: a long-lived caller holds
    sockets and threads that fork-started children would silently
    inherit (an accepted connection duplicated into a worker never
    reaches EOF at the client), and spawn is immune by construction.
    ``warm=True`` additionally forces every worker to spin up *now*, so
    the first real batch does not pay the spawn+import latency.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if l1_config is None:
        l1_config = CacheConfig.paper_l1()
    store_root = str(store.root) if store is not None else None
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker,
        initargs=(l1_config, keep_pcs, store_root, get_tracer().enabled),
    )
    if warm:
        for future in [pool.submit(_worker_ready) for _ in range(jobs)]:
            future.result()
    return pool


def run_grid(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    cache: Optional[MissTraceCache] = None,
    store: Optional[TraceStore] = None,
    l1_config: Optional[CacheConfig] = None,
    keep_pcs: bool = False,
    chunk_size: Optional[int] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> List[Union[RunResult, TaskError]]:
    """Execute a sweep grid, serially or across a process pool.

    Args:
        tasks: grid cells; results come back in the same order.
        jobs: worker processes (``<= 1`` runs in-process, no pool).
        cache: in-process cache for the serial path; for ``jobs > 1`` its
            ``l1_config``/``keep_pcs``/``store`` seed the workers (whose
            entries cannot be shared back).
        store: persistent trace store shared by all workers; defaults to
            ``cache.store``.  Without one, each worker recomputes the L1
            simulations it needs — correct, but the store is what makes
            parallel and repeated runs fast.
        l1_config: primary cache geometry (defaults to ``cache``'s, or
            the paper L1).
        keep_pcs: propagate PCs into the miss traces.
        chunk_size: tasks per scheduling unit (default: enough for ~4
            chunks per worker, amortising task pickling).
        executor: an already-initialized pool from :func:`make_pool`,
            reused across calls and **not** shut down here.  Its baked-in
            ``l1_config``/``keep_pcs``/``store`` take precedence over the
            arguments above, which only shape chunking.

    Returns:
        One :class:`RunResult` per task, with :class:`TaskError` standing
        in for any cell whose simulation raised.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if cache is not None:
        if l1_config is None:
            l1_config = cache.l1_config
        keep_pcs = keep_pcs or cache.keep_pcs
        if store is None:
            store = cache.store
    if l1_config is None:
        l1_config = CacheConfig.paper_l1()

    if executor is None and (jobs <= 1 or len(tasks) <= 1):
        if cache is None:
            cache = MissTraceCache(l1_config, keep_pcs=keep_pcs, store=store)
        with get_tracer().span("grid.run", cells=len(tasks), jobs=1):
            return _run_cells(tasks, cache)

    workers = jobs
    if executor is not None:
        workers = max(1, executor._max_workers)
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(tasks) / (workers * 4)))
    # Chunks hold whole execution units, so a ladder group stays together.
    chunks: List[List[int]] = [[]]
    for unit in _plan(tasks):
        if len(chunks[-1]) >= chunk_size:
            chunks.append([])
        chunks[-1].extend(unit)
    store_root = str(store.root) if store is not None else None
    results: List[Union[RunResult, TaskError, None]] = [None] * len(tasks)
    pool = executor
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(l1_config, keep_pcs, store_root, get_tracer().enabled),
        )
    try:
        with get_tracer().span("grid.run", cells=len(tasks), jobs=workers):
            futures = [
                pool.submit(_run_chunk, i, [tasks[j] for j in chunk])
                for i, chunk in enumerate(chunks)
            ]
            for future in as_completed(futures):
                index, chunk_results, telemetry = future.result()
                for j, result in zip(chunks[index], chunk_results):
                    results[j] = result
                # Fold each worker's drained telemetry into this process
                # so sweeps observe one registry and one trace no matter
                # how many processes did the work.
                engine_registry().merge(telemetry.get("metrics") or {})
                get_tracer().extend(telemetry.get("spans") or [])
    finally:
        if executor is None:
            pool.shutdown()
    return results  # type: ignore[return-value]


def grid_stats(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    cache: Optional[MissTraceCache] = None,
    store: Optional[TraceStore] = None,
    **kwargs: Any,
) -> Dict[Hashable, Union[StreamStats, MechStats]]:
    """Like :func:`run_grid`, keyed by task key and reduced to stats.

    Raises:
        SweepExecutionError: if any cell failed (the sweep helpers want
            a complete dict or nothing).
    """
    results = run_grid(tasks, jobs=jobs, cache=cache, store=store, **kwargs)
    errors = [r for r in results if isinstance(r, TaskError)]
    if errors:
        raise SweepExecutionError(errors)
    return {
        task.key: result.streams
        for task, result in zip(tasks, results)
        if isinstance(result, RunResult)
    }
