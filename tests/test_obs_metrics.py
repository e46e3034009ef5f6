"""Tests for repro.obs.metrics: the mergeable metrics substrate.

The cross-process collection protocol rests on two properties proved
here: merging is *associative* (any grouping of worker snapshots yields
the same totals) and *loss-free* for counters and histogram count/sum
(exact integer and same-observation float sums).  The service-facing
snapshot shape is pinned separately in tests/test_service.py.
"""

import importlib

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    engine_registry,
    merge_snapshots,
    render_snapshot_text,
    strip_samples,
)


def registry_with(counts, gauges=(), observations=()) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in dict(counts).items():
        registry.counter(name).inc(value)
    for name, value in dict(gauges).items():
        registry.gauge(name).set(value)
    for name, values in dict(observations).items():
        for value in values:
            registry.histogram(name).observe(value)
    return registry


class TestMergeSnapshots:
    def test_counters_sum_exactly(self):
        a = registry_with({"cells": 3, "hits": 1}).snapshot()
        b = registry_with({"cells": 4}).snapshot()
        merged = merge_snapshots(a, b)
        assert merged["counters"]["cells"] == 7
        assert merged["counters"]["hits"] == 1

    def test_histogram_count_sum_exact_and_quantiles_from_union(self):
        a = registry_with({}, observations={"ms": [1.0, 2.0]}).snapshot(
            include_samples=True
        )
        b = registry_with({}, observations={"ms": [3.0, 4.0, 5.0]}).snapshot(
            include_samples=True
        )
        merged = merge_snapshots(a, b)
        entry = merged["histograms"]["ms"]
        assert entry["count"] == 5
        assert entry["sum"] == pytest.approx(15.0)
        # Quantiles are recomputed over the union of both windows, not
        # interpolated between per-process values.
        assert entry["p50"] == 3.0
        assert entry["p99"] == 5.0

    def test_merge_is_associative(self):
        # Integer-valued gauges so float rounding cannot cloud equality.
        parts = [
            registry_with({"c": i + 1}, gauges={"g": i}, observations={"h": [float(i)]})
            .snapshot(include_samples=True)
            for i in range(4)
        ]
        left = merge_snapshots(merge_snapshots(parts[0], parts[1]), parts[2], parts[3])
        right = merge_snapshots(parts[0], merge_snapshots(parts[1], parts[2], parts[3]))
        assert left == right

    def test_inputs_without_samples_still_merge_count_sum(self):
        bare = {"counters": {}, "gauges": {}, "histograms": {"h": {"count": 2, "sum": 9.0}}}
        merged = merge_snapshots(bare, bare)
        assert merged["histograms"]["h"]["count"] == 4
        assert merged["histograms"]["h"]["sum"] == pytest.approx(18.0)


class TestDrainAndMerge:
    def test_drain_resets_to_zero(self):
        registry = registry_with({"c": 5}, observations={"h": [1.0]})
        first = registry.drain()
        assert first["counters"]["c"] == 5
        assert first["histograms"]["h"]["count"] == 1
        second = registry.drain()
        assert second["counters"]["c"] == 0
        assert second["histograms"]["h"]["count"] == 0

    def test_repeated_drains_never_double_count(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        for chunk in range(3):
            worker.counter("cells").inc(2)
            parent.merge(worker.drain())
        assert parent.counter("cells").value == 6

    def test_merge_creates_unknown_instruments(self):
        parent = MetricsRegistry()
        parent.merge(
            registry_with({"new_c": 1}, gauges={"new_g": 2.0}).snapshot()
        )
        assert parent.counter("new_c").value == 1
        assert parent.gauge("new_g").value == 2.0


class TestDiffSnapshots:
    def test_attributes_one_interval(self):
        registry = registry_with({"c": 10}, observations={"h": [1.0, 2.0]})
        before = registry.snapshot()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(9.0)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["counters"]["c"] == 5
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(9.0)


class TestRenderings:
    def test_render_snapshot_text_matches_registry_rendering(self):
        registry = registry_with({"c": 3}, gauges={"g": 1.5}, observations={"h": [2.0]})
        assert render_snapshot_text(registry.snapshot()) in registry.render_text()

    def test_strip_samples_drops_only_samples(self):
        snapshot = registry_with({}, observations={"h": [1.0]}).snapshot(
            include_samples=True
        )
        stripped = strip_samples(snapshot)
        assert "samples" not in stripped["histograms"]["h"]
        assert stripped["histograms"]["h"]["count"] == 1


class TestEngineRegistry:
    def test_is_a_process_singleton(self):
        assert engine_registry() is engine_registry()

    def test_service_shim_reexports(self):
        # The old ``repro.service.metrics`` shim is gone; the service
        # package re-exports the one registry class from repro.obs.
        import repro.obs.metrics as obs_metrics
        import repro.service as service

        assert service.MetricsRegistry is obs_metrics.MetricsRegistry
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.metrics")
