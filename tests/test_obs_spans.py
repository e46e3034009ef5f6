"""Tests for repro.obs.spans and repro.obs.events.

Covers the three contracts the tentpole depends on: the Chrome
trace-event schema (required keys, per-thread completion order), the
disabled-path no-op guarantee (shared null span, nothing recorded), and
the str-compatibility of typed StoreEvents with PR 2's name-only hooks.
"""

import json

import pytest

from repro.obs.events import StoreEvent, as_legacy_hook, record_event
from repro.obs.metrics import engine_registry
from repro.obs.spans import (
    _NULL_SPAN,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracing,
    traced,
    validate_chrome_events,
    write_chrome_trace,
)


class TestSpanRecording:
    def test_span_records_complete_event(self):
        tracer = Tracer(enabled=True)
        with tracer.span("l1.simulate", workload="sweep"):
            pass
        (event,) = tracer.events()
        assert event["name"] == "l1.simulate"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"workload": "sweep"}
        validate_chrome_events(tracer.events())

    def test_exception_tagged_and_propagated(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(KeyError):
            with tracer.span("cell"):
                raise KeyError("boom")
        (event,) = tracer.events()
        assert event["args"]["error"] == "KeyError"

    def test_nested_spans_complete_in_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("grid.run"):
            with tracer.span("cell"):
                pass
        names = [event["name"] for event in tracer.events()]
        assert names == ["cell", "grid.run"]  # inner finishes first
        validate_chrome_events(tracer.events())

    def test_drain_hands_off_ownership(self):
        tracer = Tracer(enabled=True)
        with tracer.span("cell"):
            pass
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0


class TestCallerTimedSpans:
    def test_record_files_spans_in_completion_order(self):
        tracer = Tracer(enabled=True)
        tracer._record("before", 0, 1_000, None)
        since = tracer.checkpoint()
        with tracer.span("inner"):  # finishes after the first recorded span
            pass
        (inner,) = [e for e in tracer.events() if e["name"] == "inner"]
        start = inner["ts"] * 1000 - 2_000
        tracer.record("cell", start, start + 1_000, since, key="a")
        tracer.record("cell", start + 1_000, inner["ts"] * 1000 + 10**6, since, key="b")
        names = [(e["name"], (e.get("args") or {}).get("key")) for e in tracer.events()]
        assert names == [("before", None), ("cell", "a"), ("inner", None), ("cell", "b")]
        validate_chrome_events(tracer.events())

    def test_record_survives_a_drain_since_the_checkpoint(self):
        tracer = Tracer(enabled=True)
        since = tracer.checkpoint()
        with tracer.span("inner"):
            pass
        tracer.drain()
        tracer.record("cell", 0, 1_000, since)
        assert [e["name"] for e in tracer.events()] == ["cell"]

    def test_disabled_record_is_a_no_op(self):
        tracer = Tracer(enabled=False)
        tracer.record("cell", 0, 1_000, tracer.checkpoint())
        assert tracer.events() == []


class TestDisabledPath:
    def test_disabled_span_is_the_shared_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", key=1) is _NULL_SPAN
        assert tracer.span("other") is _NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("cell"):
            pass
        assert tracer.events() == []

    def test_traced_decorator_follows_global_toggle(self):
        calls = []

        @traced("decorated.op")
        def fn(x):
            calls.append(x)
            return x * 2

        tracer = get_tracer()
        before = len(tracer)
        assert fn(2) == 4  # disabled: straight call-through
        assert len(tracer) == before
        set_tracing(True)
        try:
            assert fn(3) == 6
            assert any(e["name"] == "decorated.op" for e in tracer.events())
        finally:
            set_tracing(False)
            tracer.clear()
        assert calls == [2, 3]


class TestL1SpanPath:
    """``l1.simulate`` records the path that actually ran as ``engine``."""

    @staticmethod
    def _span_engine(config, kinds):
        import numpy as np

        from repro.check.differ import _FixedWorkload
        from repro.sim.runner import simulate_l1
        from repro.trace.events import Trace

        rng = np.random.default_rng(0)
        trace = Trace(
            rng.integers(0, 1 << 16, size=300, dtype=np.int64),
            np.asarray(kinds, dtype=np.uint8),
        )
        tracer = set_tracing(True)
        tracer.clear()
        try:
            simulate_l1(_FixedWorkload(trace), config)
            events = [e for e in tracer.events() if e["name"] == "l1.simulate"]
        finally:
            set_tracing(False)
            tracer.clear()
        (event,) = events
        return event["args"]["engine"]

    def test_each_path_is_named(self):
        from repro.caches.cache import CacheConfig
        from repro.trace.events import AccessKind

        config = CacheConfig(capacity=4096, assoc=2, block_size=64)
        data = [int(AccessKind.READ), int(AccessKind.WRITE)] * 150
        with_ifetch = [int(AccessKind.IFETCH)] + data[1:]
        assert self._span_engine(config, data) == "vector"
        no_allocate = CacheConfig(
            capacity=4096, assoc=2, block_size=64, write_allocate=False
        )
        assert self._span_engine(no_allocate, data) == "scalar"
        assert self._span_engine(config, with_ifetch) == "split"


class TestChromeExport:
    def test_trace_document_shape_and_metadata(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("cell"):
            pass
        path = write_chrome_trace(tmp_path / "t.json", tracer.events())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        phases = [event["ph"] for event in doc["traceEvents"]]
        assert phases.count("M") == 1  # one process_name record for this pid
        assert phases.count("X") == 1
        meta = doc["traceEvents"][0]
        assert meta["name"] == "process_name"
        assert meta["args"]["name"] == "parent"
        validate_chrome_events(doc["traceEvents"])

    def test_process_labels_override(self):
        events = [{"name": "cell", "ph": "X", "ts": 0, "dur": 1, "pid": 7, "tid": 1}]
        doc = chrome_trace(events, process_labels={7: "replayer"})
        assert doc["traceEvents"][0]["args"]["name"] == "replayer"

    @pytest.mark.parametrize(
        "bad",
        [
            {"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},  # no name
            {"name": "x", "ph": "X", "ts": -1, "dur": 1, "pid": 1, "tid": 1},
            {"name": "x", "ph": "X", "ts": 0, "dur": -2, "pid": 1, "tid": 1},
        ],
    )
    def test_validator_rejects_malformed_events(self, bad):
        with pytest.raises(ValueError):
            validate_chrome_events([bad])

    def test_validator_rejects_out_of_completion_order(self):
        events = [
            {"name": "a", "ph": "X", "ts": 100, "dur": 50, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 10, "dur": 5, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="completion order"):
            validate_chrome_events(events)

    def test_validator_allows_interleaved_threads(self):
        events = [
            {"name": "a", "ph": "X", "ts": 100, "dur": 50, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 10, "dur": 5, "pid": 2, "tid": 1},
        ]
        validate_chrome_events(events)


class TestStoreEvents:
    def test_typed_event_is_its_name(self):
        event = StoreEvent("trace_hit", digest="abc123", nbytes=512, duration_s=0.25)
        assert event == "trace_hit"
        assert hash(event) == hash("trace_hit")
        assert {"trace_hit": 1}[event] == 1  # dict dispatch, as the service does
        assert event.digest == "abc123"
        assert event.nbytes == 512

    def test_legacy_name_only_hooks_receive_plain_str(self):
        seen = []
        hook = as_legacy_hook(seen.append)
        hook(StoreEvent("result_saved", nbytes=9))
        assert seen == ["result_saved"]
        assert type(seen[0]) is str

    def test_record_event_splits_byte_direction(self):
        registry = engine_registry()

        def counter(name):
            return registry.counter(name).value

        read0 = counter("engine_store_read_bytes_total")
        written0 = counter("engine_store_written_bytes_total")
        record_event(StoreEvent("trace_hit", nbytes=100, duration_s=0.001))
        record_event(StoreEvent("result_saved", nbytes=40))
        assert counter("engine_store_read_bytes_total") == read0 + 100
        assert counter("engine_store_written_bytes_total") == written0 + 40
