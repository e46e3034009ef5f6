"""The telemetry-overhead gate of ``benchmarks/bench_obs.py``: the median
of adjacent (untraced, traced) pass ratios, robust to host drift."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_obs():
    spec = importlib.util.spec_from_file_location("bench_obs", BENCHMARKS / "bench_obs.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def fake_passes(host_speeds, traced_slowdown: float):
    """A pass timer on a simulated host: each pass takes the next host
    speed factor, and a traced pass is ``traced_slowdown`` slower."""
    speeds = iter(host_speeds)

    def one_pass(enabled: bool) -> float:
        return next(speeds) * (1.0 + traced_slowdown if enabled else 1.0)

    return one_pass


def drifting_host(passes: int, step: float = 0.01):
    """A host that gets 1% slower every pass."""
    return [1.0 + step * k for k in range(passes)]


class TestPairedGate:
    def test_default_runs_at_least_seven_pairs(self, bench_obs):
        assert bench_obs.PAIRS >= 7
        assert bench_obs.MAX_OVERHEAD == 0.05

    @pytest.mark.parametrize("slowdown", [0.10, 0.15, 0.30])
    def test_fails_on_injected_traced_slowdown(self, bench_obs, slowdown):
        probe = bench_obs.paired_overhead(
            fake_passes(drifting_host(14), slowdown), pairs=7
        )
        assert not probe["pass"]
        assert probe["overhead"] >= slowdown

    def test_fails_on_slowdown_even_when_the_host_speeds_up(self, bench_obs):
        probe = bench_obs.paired_overhead(
            fake_passes(drifting_host(14, step=-0.01), 0.10), pairs=7
        )
        assert not probe["pass"]
        assert probe["overhead"] > 0.05

    def test_passes_without_slowdown_despite_drift_and_an_outlier(self, bench_obs):
        # One untraced pass ran 20% fast (a quiet moment on a shared host):
        # a min-vs-min comparison would read that as 20% overhead.
        speeds = drifting_host(14)
        speeds[4] *= 0.8
        probe = bench_obs.paired_overhead(fake_passes(speeds, 0.0), pairs=7)
        assert min(probe["traced"]) / min(probe["untraced"]) - 1 > bench_obs.MAX_OVERHEAD
        assert probe["pass"]
        assert len(probe["ratios"]) == 7

    def test_pairs_alternate_untraced_then_traced(self, bench_obs):
        order = []
        counter = itertools.count(1)

        def one_pass(enabled):
            order.append(enabled)
            return float(next(counter))

        bench_obs.paired_overhead(one_pass, pairs=7)
        assert order == [False, True] * 7

    def test_rejects_no_pairs(self, bench_obs):
        with pytest.raises(ValueError):
            bench_obs.paired_overhead(fake_passes([], 0.0), pairs=0)
