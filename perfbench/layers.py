"""Layer spans recorded from the benchmark's side of each call.

The benchmark does not rely on the program's own telemetry.  Instead it
wraps the public functions of each layer at the attribute the caller
looks up (a name imported with ``from x import f`` is looked up in the
importing module, so every such module gets its own wrapper), records
one span per call with its start, end and parent, and reduces the spans
to per-layer metrics.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

class SpanRecorder:
    """In-memory span list shared by every thread of one process.

    A span is ``[id, parent, layer, start, end, attrs]`` with times from
    ``time.perf_counter()``; parents are tracked per thread.  ``phase``
    tags each span with the part of the run it belongs to (``setup`` or
    ``timed``), and ``enabled`` lets the same wrappers run untraced
    passes at almost no cost.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans: List[list] = []
        self.enabled = False
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][2] if stack else None

    @contextmanager
    def span(self, layer: str, **attrs):
        """Record one call into ``layer``; yields the mutable attrs dict."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][0] if stack else None
        record = [span_id, parent, layer, time.perf_counter(), None, attrs]
        attrs["phase"] = self.phase
        stack.append(record)
        try:
            yield attrs
        finally:
            record[4] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (called once, at the end of a run)."""
        write_spans(path, self.run_id, self.spans)


def write_spans(path: Path, run_id: str, spans: List[list]) -> None:
    """Spans as a JSON list of ``{run_id, id, parent, name, start, end, attrs}``."""
    rows = [{"run_id": run_id, "id": s[0], "parent": s[1], "name": s[2],
             "start": s[3], "end": s[4], "attrs": s[5]} for s in spans]
    Path(path).write_text(json.dumps(rows))


def load_spans(path: Path) -> List[list]:
    """Read spans written by :meth:`SpanRecorder.dump`.

    Ids are made unique per file (``<file>:<id>``); times need no shift,
    because ``perf_counter`` reads the same monotonic clock in every
    process.
    """
    rows = json.loads(Path(path).read_text())
    tag = str(path)
    return [
        [f"{tag}:{r['id']}", None if r["parent"] is None else f"{tag}:{r['parent']}",
         r["name"], r["start"], r["end"], r["attrs"]]
        for r in rows
    ]


# -- wrappers ---------------------------------------------------------------


def _wrap(recorder: SpanRecorder, layer: str, fn: Callable, after=None,
          skip=None) -> Callable:
    """A timing wrapper around ``fn`` recording one ``layer`` span per call.

    A call made while the same layer is already the innermost open span
    (a recursive call, or one public function delegating to another of
    the same layer) is passed straight through, so each layer counts the
    calls made into it from outside.  ``skip(args, kwargs)`` passes a
    call through untraced; ``after`` fills span attributes.
    """

    def wrapper(*args, **kwargs):
        if (
            not recorder.enabled
            or recorder.current_layer() == layer
            or (skip is not None and skip(args, kwargs))
        ):
            return fn(*args, **kwargs)
        with recorder.span(layer) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer)
    return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _events(attrs, args, kwargs, result):
    """Miss events replayed: the length of the trace argument."""
    attrs["events"] = int(_arg(args, kwargs, 1, "miss_trace").addrs.shape[0])


def _after_trace(attrs, args, kwargs, trace):
    attrs["accesses"] = len(trace)


def _after_l1(attrs, args, kwargs, result):
    miss_trace, summary = result
    attrs["accesses"] = int(summary.accesses)
    attrs["miss_events"] = int(miss_trace.addrs.shape[0])


def _after_streams(attrs, args, kwargs, stats):
    _events(attrs, args, kwargs, stats)
    attrs["issued"] = int(stats.prefetches_issued)
    attrs["used"] = int(stats.prefetches_used)


def _streams_kind(args, kwargs) -> bool:
    return _arg(args, kwargs, 0, "mechanism").kind == "streams"


def _after_analytic(attrs, args, kwargs, match):
    attrs["sizes_pruned"] = int(match.sizes_pruned)
    attrs["configs_simulated"] = int(match.configs_simulated)


def _after_grid(attrs, args, kwargs, results):
    attrs["cells"] = len(results)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _store_read(path_method: str):
    """Bytes of the entry a ``TraceStore.load_*`` call found (0 on a miss)."""

    def after(attrs, args, kwargs, result):
        store, digest = args[0], args[1]
        attrs["bytes"] = 0 if result is None else _size(getattr(store, path_method)(digest))

    return after


def _after_store_write(attrs, args, kwargs, path):
    attrs["bytes"] = _size(path)


#: ``TraceStore`` loads, each with the method naming its entry's file.
_STORE_READS = {
    "load_trace": "trace_path",
    "load_result": "result_path",
    "load_mech_result": "result_path",
    "load_profiles": "profile_path",
    "load_spectrum": "spectrum_path",
}
_STORE_WRITES = ("save_trace", "save_result", "save_mech_result", "save_profiles",
                 "save_spectrum")


def _sites() -> List[Tuple[str, str, str, dict]]:
    """``(layer, module, attribute, hooks)``: one entry per place a caller
    looks the function up."""
    sites = [
        ("workloads", "repro.workloads.base", "Workload.trace",
         {"after": _after_trace, "skip": lambda a, k: a[0]._trace is not None}),
        ("l1", "repro.sim.runner", "simulate_l1", {"after": _after_l1}),
        ("streams.scalar", "repro.core.prefetcher", "StreamPrefetcher.run",
         {"after": _events}),
        ("l2", "repro.sim.compare", "probe_size", {}),
        ("l2", "repro.analytic.screen", "probe_size", {}),
        ("l2.config", "repro.sim.compare", "sampled_hit_rate", {}),
        ("analytic", "repro.analytic", "min_matching_l2_size_analytic",
         {"after": _after_analytic}),
        ("analytic.profile", "repro.analytic.screen", "profile_miss_trace", {}),
        ("grid", "repro.sim.parallel", "run_grid", {"after": _after_grid}),
        ("grid", "repro.service.server", "run_grid", {"after": _after_grid}),
    ]
    for module in ("repro.sim.parallel", "repro.sim.compare", "repro.analytic.screen",
                   "repro.sim.runner", "repro.sim.vector"):
        sites.append(("streams", module, "replay_streams", {"after": _after_streams}))
        sites.append(("mech", module, "replay_secondary",
                      {"after": _events, "skip": _streams_kind}))
    for name in ("figure3", "table4", "mechzoo"):
        sites.append(("exhibit", "repro.reporting.experiments", name, {}))
    for method, path_method in _STORE_READS.items():
        sites.append(("store.read", "repro.trace.store", f"TraceStore.{method}",
                      {"after": _store_read(path_method)}))
    for method in _STORE_WRITES:
        sites.append(("store.write", "repro.trace.store", f"TraceStore.{method}",
                      {"after": _after_store_write}))
    return sites


def install(recorder: SpanRecorder) -> None:
    """Install every layer wrapper, recording into ``recorder``.

    Raises:
        RuntimeError: when a call site no longer exists (a renamed or
            removed function would otherwise silently zero its layer).
    """
    sites = _sites()
    # Import every module before wrapping any: a module imported later
    # would copy an already-installed wrapper into its own namespace.
    modules = {name: importlib.import_module(name) for _, name, _, _ in sites}
    for layer, module_name, path, hooks in sites:
        owner = modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        # A method must be defined on the class itself, not inherited.
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            raise RuntimeError(f"layer {layer}: call site {module_name}.{path} not found")
        setattr(owner, attr, _wrap(recorder, layer, fn, **hooks))


# -- reduction --------------------------------------------------------------

#: Layers each workload's traced run must reach, by phase: a layer that
#: records zero calls means a call site moved out from under its wrapper
#: (or the workload stopped exercising it).
EXPECTED_LAYERS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "fig3-cold": {
        "timed": ("exhibit", "grid", "workloads", "l1", "streams", "store.read",
                  "store.write"),
    },
    "l2-match": {
        "setup": ("workloads", "l1", "analytic.profile", "store.write"),
        "timed": ("exhibit", "streams", "streams.scalar", "mech", "l2", "l2.config",
                  "analytic", "store.read"),
    },
    "service-zipf": {
        "setup": ("workloads", "l1", "grid", "streams", "store.write"),
        "timed": ("service", "grid", "streams", "store.read", "store.write"),
    },
}


def _self_times(spans: List[list]) -> Dict[object, float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[object, List[list]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    result = {}
    for s in spans:
        covered = _union_length(
            [(max(c[3], s[3]), min(c[4], s[4])) for c in children.get(s[0], ())]
        )
        result[s[0]] = max(0.0, (s[4] - s[3]) - covered)
    return result


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def coverage(spans: List[list], windows: List[Tuple[float, float]],
             outer: Iterable[str] = ("exhibit", "grid")) -> float:
    """Share of the timed windows covered by spans of the inner layers.

    ``outer`` layers frame a whole call (the exhibit driver) and would
    cover everything trivially; coverage counts what the layers beneath
    them account for.
    """
    outer = set(outer)
    wall = sum(hi - lo for lo, hi in windows)
    if wall <= 0:
        return 0.0
    covered = 0.0
    for lo, hi in windows:
        covered += _union_length(
            [(max(s[3], lo), min(s[4], hi)) for s in spans if s[2] not in outer]
        )
    return covered / wall


def reduce_spans(spans: List[list], phase: str, n: int) -> Dict[str, float]:
    """Per-layer totals of one ``phase``, divided by its ``n`` repetitions.

    Keys are ``<layer>.calls``, ``<layer>.s`` (time inside the layer),
    ``<layer>.self_s`` (minus its child spans) and ``<layer>.<attr>`` for
    the counts the wrappers attach.
    """
    self_time = _self_times(spans)
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for s in spans:
        layer, attrs = s[2], s[5]
        if attrs.get("phase") != phase:
            continue
        add(f"{layer}.calls", 1)
        add(f"{layer}.s", s[4] - s[3])
        add(f"{layer}.self_s", self_time[s[0]])
        for key, value in attrs.items():
            if key != "phase":
                add(f"{layer}.{key}", value)
    return {key: value / max(1, n) for key, value in totals.items()}
