"""Low-overhead span tracing with Chrome trace-event / Perfetto export.

A *span* is one timed operation — an L1 simulation, a store lookup, a
stream replay, one whole grid cell.  Spans are recorded as completed
Chrome trace-event ``"X"`` (complete) events: monotonic microsecond
start, duration, process id, thread id, name, optional args.  A trace
file written by :func:`write_chrome_trace` loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, giving a sweep a
single zoomable timeline across the parent and every worker process.

Design constraints, in order:

1. **Near-zero cost when disabled.**  ``tracer.span(...)`` on a
   disabled tracer returns a shared no-op context manager — one
   attribute read, no allocation — and the :func:`traced` decorator
   calls straight through.  Telemetry must be free enough to leave
   compiled in everywhere.
2. **Mergeable across processes.**  Workers record into their own
   process-global tracer and ship drained events back with each chunk
   (:mod:`repro.sim.parallel`); ``pid`` disambiguates, and
   ``perf_counter`` is CLOCK_MONOTONIC-based on Linux so timestamps
   from processes on one machine share a timebase.
3. **Dependency-free.**  Plain dicts and ``json``; nothing here
   imports the rest of ``repro`` beyond the stdlib-only trace context
   (:mod:`repro.obs.context`).

Span naming convention (see docs/observability.md): dotted
``layer.operation`` — ``grid.run``, ``grid.chunk``, ``cell``,
``l1.simulate``, ``stream.replay``, ``store.load_trace``,
``analytic.profile``, ``l2.probe``, ``request.admit``,
``fleet.dispatch``, ``coalesce.join`` …

When a trace id is bound (:func:`repro.obs.context.trace_scope`),
every recorded span is tagged with ``args.trace_id``; at export time
:func:`flow_events` derives Chrome flow (``"s"``/``"f"``) arrows that
connect each trace's root span to its first span on every other
``(pid, tid)``, rendering one causally-linked timeline across the
frontend and all workers in Perfetto.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.context import current_trace_id

__all__ = [
    "Tracer",
    "get_tracer",
    "set_tracing",
    "traced",
    "chrome_trace",
    "flow_events",
    "write_chrome_trace",
    "validate_chrome_events",
]


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times itself and reports to its tracer on exit."""

    __slots__ = ("_tracer", "name", "args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def set(self, **attrs) -> None:
        """Add attributes known only once the operation has run."""
        self.args = {**(self.args or {}), **attrs}

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        args = self.args
        if exc_type is not None:
            args = dict(args or {})
            args["error"] = exc_type.__name__
        self._tracer._record(self.name, self._start_ns, end_ns, args)
        return False


class Tracer:
    """Collects completed span events; thread safe; off by default.

    Events accumulate in memory as JSON-safe dicts until drained or
    exported.  One process-global tracer (:func:`get_tracer`) serves
    the engine; independent instances work too (tests use them).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._events: List[dict] = []
        self._lock = threading.Lock()

    def span(self, name: str, **args):
        """A context manager timing one operation (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args or None)

    def checkpoint(self) -> Tuple[List[dict], int]:
        """The current end of the event buffer, for :meth:`record`."""
        with self._lock:
            return self._events, len(self._events)

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        since: Tuple[List[dict], int],
        **args,
    ) -> None:
        """Record a span the caller timed itself (no-op when disabled).

        This lets one piece of shared work be reported as several spans,
        such as one stream-ladder pass split evenly across the grid cells
        it computed.  Such a span may end before spans this thread
        recorded after ``since`` (a :meth:`checkpoint`), so those events
        are re-sorted into completion order together with the new one.
        """
        if not self.enabled:
            return
        self._record(name, start_ns, end_ns, args or None)
        buffer, position = since
        thread = (os.getpid(), threading.get_native_id())
        with self._lock:
            events = self._events
            if events is not buffer:  # drained since the checkpoint
                position = 0
            tail = events[position:]
            mine = [e for e in tail if (e.get("pid"), e.get("tid")) == thread]
            others = [e for e in tail if (e.get("pid"), e.get("tid")) != thread]
            mine.sort(key=lambda e: e["ts"] + e["dur"])
            events[position:] = others + mine

    def _record(
        self, name: str, start_ns: int, end_ns: int, args: Optional[dict]
    ) -> None:
        trace_id = current_trace_id()
        if trace_id is not None and (args is None or "trace_id" not in args):
            args = dict(args or {})
            args["trace_id"] = trace_id
        event = {
            "name": name,
            "ph": "X",
            "ts": start_ns // 1000,
            "dur": max(0, (end_ns - start_ns) // 1000),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def extend(self, events: Iterable[dict]) -> None:
        """Merge foreign (e.g. worker-shipped) events into this tracer."""
        events = list(events)
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def events(self) -> List[dict]:
        """A copy of everything recorded so far."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[dict]:
        """Recorded events, handing off ownership (the buffer empties)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def clear(self) -> None:
        with self._lock:
            self._events = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer the engine records into."""
    return _TRACER


def set_tracing(enabled: bool) -> Tracer:
    """Enable/disable the global tracer; returns it for chaining."""
    _TRACER.enabled = enabled
    return _TRACER


def traced(name: str) -> Callable:
    """Decorator recording a span per call on the global tracer.

    Checks ``enabled`` at call time, so decorated functions stay
    zero-overhead until tracing is switched on.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _TRACER
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- Chrome trace-event export ----------------------------------------------


def flow_events(events: Iterable[dict]) -> List[dict]:
    """Derive Chrome flow (``"s"``/``"f"``) arrows from trace-tagged spans.

    Spans sharing an ``args.trace_id`` form one trace.  For each trace
    spanning more than one ``(pid, tid)``, the earliest-starting span is
    taken as the root (frontend admission, in the service) and one
    ``"s"``→``"f"`` arrow pair is emitted from the root to the first
    span on every other thread, so Perfetto draws the causal fan-out
    from the request to each worker that executed part of it.
    """
    by_trace: Dict[str, List[dict]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        trace_id = (event.get("args") or {}).get("trace_id")
        if trace_id:
            by_trace.setdefault(str(trace_id), []).append(event)
    flows: List[dict] = []
    sequence = 0
    for trace_id in sorted(by_trace):
        spans = sorted(by_trace[trace_id], key=lambda e: e["ts"])
        root = spans[0]
        root_thread = (root["pid"], root["tid"])
        entries: Dict[tuple, dict] = {}
        for span in spans:
            entries.setdefault((span["pid"], span["tid"]), span)
        for thread, entry in entries.items():
            if thread == root_thread:
                continue
            sequence += 1
            flow_id = f"{trace_id}:{sequence}"
            flows.append(
                {
                    "name": "trace",
                    "cat": "trace",
                    "ph": "s",
                    "id": flow_id,
                    "ts": root["ts"],
                    "pid": root["pid"],
                    "tid": root["tid"],
                    "args": {"trace_id": trace_id},
                }
            )
            flows.append(
                {
                    "name": "trace",
                    "cat": "trace",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    # Clamp: worker clocks share a timebase on one machine,
                    # but never let an arrow point backwards in the file.
                    "ts": max(entry["ts"], root["ts"]),
                    "pid": entry["pid"],
                    "tid": entry["tid"],
                    "args": {"trace_id": trace_id},
                }
            )
    return flows


def chrome_trace(
    events: Iterable[dict],
    process_labels: Optional[Dict[int, str]] = None,
    flows: bool = True,
) -> dict:
    """Wrap span events as a Chrome trace-event JSON object.

    Adds ``process_name`` metadata records so Perfetto's track headers
    read ``parent`` / ``worker-<pid>`` instead of bare pids;
    ``process_labels`` overrides those names per pid.  Unless ``flows``
    is False, cross-thread flow arrows derived by :func:`flow_events`
    are appended for every trace-tagged span group.
    """
    events = list(events)
    labels = dict(process_labels or {})
    metadata = []
    for pid in sorted({event["pid"] for event in events if "pid" in event}):
        name = labels.get(pid) or (
            "parent" if pid == os.getpid() else f"worker-{pid}"
        )
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    arrows = flow_events(events) if flows else []
    return {"traceEvents": metadata + events + arrows, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, os.PathLike],
    events: Iterable[dict],
    process_labels: Optional[Dict[int, str]] = None,
) -> Path:
    """Write events as a Perfetto-loadable ``.json`` trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(events, process_labels)) + "\n")
    return path


def validate_chrome_events(events: Iterable[dict]) -> None:
    """Assert the trace-event schema this module promises.

    Checks every event for the required ``ph``/``ts``/``pid``/``tid``/
    ``name`` keys and non-negative times, that within each ``(pid, tid)``
    the ``"X"`` events appear in completion order (non-decreasing
    ``ts + dur`` — spans are recorded as they finish), and that flow
    events pair up: every ``"s"``/``"f"`` carries ``id`` and ``cat``,
    each flow id has exactly one start and one finish, and the finish
    does not precede the start.  Raises ``ValueError`` on the first
    defect; tests and the obs-smoke gate call this on real trace files.
    """
    last_end: Dict[tuple, int] = {}
    flow_starts: Dict[str, dict] = {}
    flow_finishes: Dict[str, dict] = {}
    for i, event in enumerate(events):
        for key in ("ph", "ts", "pid", "tid", "name"):
            if key not in event:
                raise ValueError(f"event {i} missing required key {key!r}: {event}")
        if event["ts"] < 0:
            raise ValueError(f"event {i} has negative ts: {event}")
        if event["ph"] in ("s", "f"):
            for key in ("id", "cat"):
                if key not in event:
                    raise ValueError(
                        f"flow event {i} missing required key {key!r}: {event}"
                    )
            side = flow_starts if event["ph"] == "s" else flow_finishes
            if event["id"] in side:
                raise ValueError(
                    f"flow event {i} duplicates {event['ph']!r} for id "
                    f"{event['id']!r}: {event}"
                )
            side[event["id"]] = event
            continue
        if event["ph"] != "X":
            continue
        if event.get("dur", 0) < 0:
            raise ValueError(f"event {i} has negative dur: {event}")
        thread = (event["pid"], event["tid"])
        end = event["ts"] + event.get("dur", 0)
        if end < last_end.get(thread, 0):
            raise ValueError(
                f"event {i} out of completion order on thread {thread}: {event}"
            )
        last_end[thread] = end
    for flow_id, start in flow_starts.items():
        finish = flow_finishes.get(flow_id)
        if finish is None:
            raise ValueError(f"flow id {flow_id!r} has a start but no finish")
        if finish["ts"] < start["ts"]:
            raise ValueError(
                f"flow id {flow_id!r} finishes (ts={finish['ts']}) before it "
                f"starts (ts={start['ts']})"
            )
    for flow_id in flow_finishes:
        if flow_id not in flow_starts:
            raise ValueError(f"flow id {flow_id!r} has a finish but no start")
