"""Unit tests for the service building blocks.

Covers the pieces in isolation: wire-format validation and lossless
encoding (api), counter/histogram accounting and renderings (metrics),
admission backpressure and deadline expiry (queue), in-flight
coalescing (coalesce) and micro-batch flushing (batcher).  The
end-to-end behaviour of the assembled service lives in
``test_service_e2e.py``.

No pytest-asyncio dependency: async cases run through ``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.config import StreamConfig
from repro.service import api
from repro.service.batcher import MicroBatcher
from repro.service.coalesce import Coalescer
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.service.queue import (
    AdmissionQueue,
    DeadlineExceeded,
    QueueFullError,
    with_deadline,
)
from repro.sim.parallel import SweepTask, TaskError
from repro.sim.runner import run_result
from repro.trace.store import stats_from_dict


# -- api --------------------------------------------------------------------


class TestConfigFromPayload:
    def test_none_is_paper_default(self):
        assert api.config_from_payload(None) == StreamConfig.jouppi()

    def test_fields(self):
        config = api.config_from_payload({"n_streams": 4, "depth": 3})
        assert config.n_streams == 4 and config.depth == 3

    def test_preset_with_overrides(self):
        config = api.config_from_payload({"preset": "non_unit", "czone_bits": 20})
        assert config.stride_detector == "czone"
        assert config.czone_bits == 20

    def test_unknown_field_rejected(self):
        with pytest.raises(api.ValidationError, match="unknown config field"):
            api.config_from_payload({"n_stream": 4})  # typo must not pass

    def test_unknown_preset_rejected(self):
        with pytest.raises(api.ValidationError, match="unknown config preset"):
            api.config_from_payload({"preset": "bogus"})

    def test_invariant_violation_becomes_validation_error(self):
        with pytest.raises(api.ValidationError, match="invalid config"):
            api.config_from_payload({"n_streams": 0})


class TestParseRequests:
    def test_run_request(self):
        request = api.parse_run_request(
            {"workload": "sweep", "scale": 0.5, "config": {"n_streams": 3}}
        )
        assert request.kind == "run"
        (cell,) = request.cells
        assert cell.workload == "sweep"
        assert cell.scale == 0.5
        assert cell.config.n_streams == 3

    def test_unknown_workload(self):
        with pytest.raises(api.ValidationError, match="unknown workload"):
            api.parse_run_request({"workload": "not-a-benchmark"})

    def test_wire_version_checked(self):
        with pytest.raises(api.ValidationError, match="unsupported wire version"):
            api.parse_run_request({"v": 99, "workload": "sweep"})

    def test_sweep_grid_and_dedup(self):
        request = api.parse_sweep_request(
            {"workloads": ["sweep", "stride"], "n_streams": [4, 1, 4]}
        )
        assert request.kind == "sweep"
        assert [cell.key for cell in request.cells] == [
            ("sweep", 1), ("sweep", 4), ("stride", 1), ("stride", 4),
        ]

    def test_sweep_cell_cap(self):
        huge = list(range(1, api.MAX_CELLS_PER_REQUEST + 2))
        with pytest.raises(api.ValidationError, match="per-request cap"):
            api.parse_sweep_request({"workloads": ["sweep"], "n_streams": huge})

    def test_sweep_rejects_bad_n(self):
        with pytest.raises(api.ValidationError, match="positive integers"):
            api.parse_sweep_request({"workloads": ["sweep"], "n_streams": [0]})

    def test_bad_timeout(self):
        with pytest.raises(api.ValidationError, match="timeout_s"):
            api.parse_run_request({"workload": "sweep", "timeout_s": -1})

    def test_exhibit_request(self):
        request = api.parse_exhibit_request({"name": "table1", "benchmarks": ["mgrid"]})
        assert request.name == "table1"
        assert request.benchmarks == ("mgrid",)

    def test_exhibit_unknown_name(self):
        with pytest.raises(api.ValidationError, match="unknown exhibit"):
            api.parse_exhibit_request({"name": "figure99"})


class TestEncoding:
    def test_cell_result_roundtrips_stats_exactly(self):
        config = StreamConfig.jouppi(n_streams=3)
        result = run_result("sweep", config, scale=0.25)
        cell = api.CellSpec(key=("sweep", 3), workload="sweep", config=config, scale=0.25)
        payload = api.encode_cell_result(cell, result)
        assert payload["key"] == ["sweep", 3]
        assert stats_from_dict(payload["stats"]) == result.streams
        assert payload["l1"]["misses"] == result.l1.misses

    def test_task_error_payload_keeps_traceback(self):
        error = TaskError(
            key=("buk", 2), workload="buk", error="ValueError: boom",
            details="Traceback (most recent call last):\n  ...\nValueError: boom",
        )
        payload = api.encode_task_error(error)
        assert payload["key"] == ["buk", 2]
        assert "Traceback" in payload["traceback"]
        assert payload["error"] == "ValueError: boom"

    def test_envelopes(self):
        ok = api.ok_envelope("sweep", results=[])
        assert ok["ok"] and ok["v"] == api.WIRE_VERSION
        err = api.error_envelope("bad_request", "nope")
        assert not err["ok"] and err["error"]["code"] == "bad_request"


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(5050.0)
        assert histogram.percentile(50) == pytest.approx(50, abs=2)
        assert histogram.percentile(95) == pytest.approx(95, abs=2)
        assert Histogram("empty").percentile(95) == 0.0

    def test_histogram_window_bounded(self):
        histogram = Histogram("h", max_samples=8)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000  # exact even though sampled
        assert histogram.percentile(50) >= 992 - 8  # window holds the tail

    def test_registry_snapshot_and_text(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "help text").inc(3)
        registry.gauge("queue_depth").set(2)
        registry.histogram("latency_ms").observe(12.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests_total"] == 3
        assert snapshot["gauges"]["queue_depth"] == 2
        assert snapshot["histograms"]["latency_ms"]["count"] == 1
        text = registry.render_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert 'repro_latency_ms{quantile="0.5"}' in text

    def test_registry_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        assert registry.counter("x") is a
        with pytest.raises(TypeError):
            registry.gauge("x")


# -- queue ------------------------------------------------------------------


class TestAdmissionQueue:
    def test_backpressure(self):
        depths = []
        queue = AdmissionQueue(2, on_depth=depths.append)
        queue.acquire()
        queue.acquire()
        with pytest.raises(QueueFullError) as excinfo:
            queue.acquire()
        assert excinfo.value.limit == 2
        queue.release()
        queue.acquire()  # slot freed, admission resumes
        assert depths == [1, 2, 1, 2]

    def test_slot_releases_on_error(self):
        queue = AdmissionQueue(1)

        async def scenario():
            with pytest.raises(RuntimeError):
                async with queue.slot():
                    assert queue.depth == 1
                    raise RuntimeError("boom")
            assert queue.depth == 0

        asyncio.run(scenario())

    def test_deadline_expiry(self):
        async def scenario():
            with pytest.raises(DeadlineExceeded):
                await with_deadline(asyncio.sleep(5), 0.01)

        asyncio.run(scenario())

    def test_deadline_none_means_unbounded(self):
        async def scenario():
            return await with_deadline(asyncio.sleep(0, result=7), None)

        assert asyncio.run(scenario()) == 7


# -- coalescer --------------------------------------------------------------


class TestCoalescer:
    def test_joins_inflight_and_clears_on_done(self):
        async def scenario():
            coalescer = Coalescer()
            started = 0

            async def compute():
                nonlocal started
                started += 1
                await asyncio.sleep(0.01)
                return "value"

            factory = lambda: asyncio.ensure_future(compute())
            fut_a, coalesced_a = coalescer.admit("k", factory)
            fut_b, coalesced_b = coalescer.admit("k", factory)
            assert fut_a is fut_b
            assert (coalesced_a, coalesced_b) == (False, True)
            assert len(coalescer) == 1
            results = await asyncio.gather(asyncio.shield(fut_a), asyncio.shield(fut_b))
            assert results == ["value", "value"] and started == 1
            await asyncio.sleep(0)  # let the done callback run
            assert len(coalescer) == 0
            _, coalesced_again = coalescer.admit("k", factory)
            assert coalesced_again is False  # fresh flight after completion

        asyncio.run(scenario())

    def test_waiter_cancellation_leaves_flight_alive(self):
        async def scenario():
            coalescer = Coalescer()

            async def compute():
                await asyncio.sleep(0.05)
                return 42

            fut, _ = coalescer.admit("k", lambda: asyncio.ensure_future(compute()))
            waiter = asyncio.ensure_future(asyncio.shield(fut))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert await fut == 42  # shared flight unharmed

        asyncio.run(scenario())


# -- batcher ----------------------------------------------------------------


def _task(n):
    return SweepTask(key=n, workload="sweep", config=StreamConfig.jouppi(n_streams=n))


class TestMicroBatcher:
    def test_batches_and_resolves_in_order(self):
        async def scenario():
            batches = []

            async def run_batch(tasks):
                batches.append(len(tasks))
                return [f"r{task.key}" for task in tasks]

            batcher = MicroBatcher(run_batch, max_batch=10, window_s=0.01)
            await batcher.start()
            futures = [batcher.submit(_task(n)) for n in (1, 2, 3)]
            results = await asyncio.gather(*futures)
            await batcher.close()
            assert results == ["r1", "r2", "r3"]
            assert batches == [3]  # one flush, not three

        asyncio.run(scenario())

    def test_max_batch_splits_flushes(self):
        async def scenario():
            batches = []

            async def run_batch(tasks):
                batches.append(len(tasks))
                return [task.key for task in tasks]

            batcher = MicroBatcher(run_batch, max_batch=2, window_s=0.05)
            await batcher.start()
            futures = [batcher.submit(_task(n)) for n in (1, 2, 3, 4, 5)]
            await asyncio.gather(*futures)
            await batcher.close()
            assert sum(batches) == 5
            assert max(batches) <= 2

        asyncio.run(scenario())

    def test_machinery_failure_rejects_batch(self):
        async def scenario():
            async def run_batch(tasks):
                raise OSError("pool died")

            batcher = MicroBatcher(run_batch, max_batch=4, window_s=0.01)
            await batcher.start()
            future = batcher.submit(_task(1))
            with pytest.raises(OSError, match="pool died"):
                await future
            await batcher.close()

        asyncio.run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            async def run_batch(tasks):
                return [None for _ in tasks]

            batcher = MicroBatcher(run_batch)
            await batcher.start()
            await batcher.close()
            with pytest.raises(RuntimeError, match="not running"):
                batcher.submit(_task(1))

        asyncio.run(scenario())

    def test_result_count_mismatch_is_error(self):
        async def scenario():
            async def run_batch(tasks):
                return []  # broken runner

            batcher = MicroBatcher(run_batch, window_s=0.0)
            await batcher.start()
            future = batcher.submit(_task(1))
            with pytest.raises(RuntimeError, match="results for"):
                await future
            await batcher.close()

        asyncio.run(scenario())
