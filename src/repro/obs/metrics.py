"""Shared counter/gauge/histogram registry with mergeable snapshots.

This is the whole system's metrics substrate.  It began life in the
service, but every layer wants the same three instrument shapes — monotonic counters
(cells executed, store hits, bytes written), point-in-time gauges
(queue depth) and latency histograms with quantiles — dependency-free
and cheap enough to bump on every event.  Promoting it out of the
service adds the piece cross-process collection needs: a **mergeable
snapshot format**.

* :meth:`MetricsRegistry.snapshot` — a plain dict for ``/metrics.json``
  and for assertions in tests/benchmarks; ``include_samples=True``
  yields the *mergeable* form (histograms carry their sample windows,
  so merged quantiles are computed from real observations).
* :meth:`MetricsRegistry.drain` — snapshot-and-reset, which is how a
  sweep worker ships its counters back with each completed chunk
  without ever double-counting.
* :func:`merge_snapshots` — fold any number of snapshots into one.
  Counters and histogram count/sum add exactly (they are integers and
  float sums of the same observations), so the merge is associative and
  loss-free; gauges add (a fleet-wide gauge is the sum of its workers').
* :meth:`MetricsRegistry.merge` — absorb a snapshot into live
  instruments (the parent side of worker ship-back).
* :meth:`MetricsRegistry.render_text` / :func:`render_snapshot_text` —
  Prometheus-style text exposition, so standard scrape tooling works
  against a dev deployment unchanged.

All instruments are thread safe: the asyncio loop, the batcher's worker
threads and the store/runner hook callbacks may all bump them
concurrently.

The process-global **engine registry** (:func:`engine_registry`) is
where the simulation engine's own instruments live — cell wall times,
store hit/miss/bytes, analytic pruned-vs-probed counts.  Its
instruments are namespaced ``engine_*`` so merging it with a service
registry (``GET /metrics`` does exactly that) can never collide.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "engine_registry",
    "merge_snapshots",
    "diff_snapshots",
    "strip_samples",
    "render_snapshot_text",
]


class Counter:
    """A monotonically increasing integer."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that goes up and down (queue depth, in-flight cells)."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _percentile(data: List[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 if empty)."""
    if not data:
        return 0.0
    rank = max(0, min(len(data) - 1, round(pct / 100 * (len(data) - 1))))
    return data[rank]


class Histogram:
    """Observations with cumulative count/sum and sampled quantiles.

    Quantiles come from a bounded ring of the most recent
    ``max_samples`` observations — a deliberate trade: exact for any
    test-sized series, sliding-window-recent for a long-lived server,
    and O(1) memory either way.  ``count``/``sum`` stay exact forever,
    and they are what merging across processes preserves exactly.
    """

    def __init__(self, name: str, help: str = "", max_samples: int = 2048):
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.name = name
        self.help = help
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._next = 0
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self._push(value)

    def _push(self, value: float) -> None:
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._max_samples

    def absorb(self, count: int, total: float, samples: Iterable[float]) -> None:
        """Fold another histogram's drained state in (count/sum exact)."""
        if count < 0:
            raise ValueError(f"absorbed count must be >= 0, got {count}")
        with self._lock:
            self.count += count
            self.sum += total
            for value in samples:
                self._push(value)

    def samples(self) -> List[float]:
        """The sampled window in observation order (oldest first)."""
        with self._lock:
            if len(self._samples) < self._max_samples:
                return list(self._samples)
            return self._samples[self._next :] + self._samples[: self._next]

    def percentile(self, pct: float) -> float:
        """The ``pct``-th percentile of the sampled window (0 if empty)."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        with self._lock:
            data = sorted(self._samples)
        return _percentile(data, pct)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self._samples = []
            self._next = 0


class MetricsRegistry:
    """Named instruments, created on first use and rendered on demand.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent,
    so independent components (queue, coalescer, batcher, store hooks)
    can each grab the instruments they bump without wiring order
    mattering.  Re-registering a name as a different instrument type is
    a bug and raises.
    """

    #: Quantiles rendered in the text exposition and JSON snapshot.
    QUANTILES = (50.0, 95.0, 99.0)

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", max_samples: int = 2048
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, max_samples=max_samples)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._instruments.get(name)

    # -- renderings --------------------------------------------------------

    def snapshot(self, include_samples: bool = False) -> dict:
        """All instruments as one JSON-safe dict.

        ``include_samples=True`` produces the *mergeable* form: each
        histogram carries its sampled window, so
        :func:`merge_snapshots` can recompute quantiles over the union
        of observations instead of guessing between per-process ones.
        """
        with self._lock:
            instruments = dict(self._instruments)
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            elif isinstance(instrument, Histogram):
                entry = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    **{
                        f"p{pct:g}": instrument.percentile(pct)
                        for pct in self.QUANTILES
                    },
                }
                if include_samples:
                    entry["samples"] = instrument.samples()
                histograms[name] = entry
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def drain(self) -> dict:
        """Mergeable snapshot of everything, then reset to zero.

        This is the worker side of cross-process collection: drain after
        each completed chunk and ship the delta; repeated drains never
        double-count because every instrument restarts from zero.
        """
        with self._lock:
            instruments = dict(self._instruments)
        snapshot = self.snapshot(include_samples=True)
        for instrument in instruments.values():
            instrument.reset()
        return snapshot

    def merge(self, snapshot: dict) -> None:
        """Absorb a (mergeable) snapshot into this registry's instruments.

        Counters add, gauges add, histograms fold in count/sum exactly
        plus whatever samples the snapshot carried.  Unknown names are
        created on the fly, so a parent can merge worker snapshots
        without pre-declaring the instrument set.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).add(float(value))
        for name, entry in snapshot.get("histograms", {}).items():
            self.histogram(name).absorb(
                int(entry.get("count", 0)),
                float(entry.get("sum", 0.0)),
                entry.get("samples", ()),
            )

    def render_text(self) -> str:
        """Prometheus-style text exposition (for ``GET /metrics``)."""
        with self._lock:
            instruments = dict(self._instruments)
        lines: List[str] = []
        for name, instrument in sorted(instruments.items()):
            full = f"{self.prefix}_{name}"
            if instrument.help:
                lines.append(f"# HELP {full} {instrument.help}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full} {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {instrument.value:g}")
            elif isinstance(instrument, Histogram):
                lines.append(f"# TYPE {full} summary")
                for pct in self.QUANTILES:
                    lines.append(
                        f'{full}{{quantile="{pct / 100:g}"}} '
                        f"{instrument.percentile(pct):g}"
                    )
                lines.append(f"{full}_count {instrument.count}")
                lines.append(f"{full}_sum {instrument.sum:g}")
        return "\n".join(lines) + "\n"


# -- snapshot algebra -------------------------------------------------------


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold snapshots into one (associative; exact for counters/count/sum).

    Histogram quantiles in the result are recomputed from the union of
    whatever sample windows the inputs carried (the mergeable form of
    :meth:`MetricsRegistry.snapshot`); inputs without samples still
    merge their exact ``count``/``sum``.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, entry in snapshot.get("histograms", {}).items():
            merged = histograms.setdefault(
                name, {"count": 0, "sum": 0.0, "samples": []}
            )
            merged["count"] += int(entry.get("count", 0))
            merged["sum"] += float(entry.get("sum", 0.0))
            merged["samples"].extend(entry.get("samples", ()))
    for entry in histograms.values():
        data = sorted(entry["samples"])
        for pct in MetricsRegistry.QUANTILES:
            entry[f"p{pct:g}"] = _percentile(data, pct)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def diff_snapshots(after: dict, before: dict) -> dict:
    """What happened between two snapshots of the *same* registry.

    Counters and histogram count/sum subtract; gauges report their
    ``after`` value (a point-in-time reading has no meaningful delta).
    Run manifests use this to attribute store hits, bytes moved and
    cell counts to one invocation.
    """
    counters = {
        name: int(value) - int(before.get("counters", {}).get(name, 0))
        for name, value in after.get("counters", {}).items()
    }
    gauges = dict(after.get("gauges", {}))
    histograms = {}
    for name, entry in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name, {})
        histograms[name] = {
            "count": int(entry.get("count", 0)) - int(prior.get("count", 0)),
            "sum": float(entry.get("sum", 0.0)) - float(prior.get("sum", 0.0)),
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def strip_samples(snapshot: dict) -> dict:
    """Drop raw histogram sample windows (for compact JSON renderings)."""
    histograms = {
        name: {key: value for key, value in entry.items() if key != "samples"}
        for name, entry in snapshot.get("histograms", {}).items()
    }
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": histograms,
    }


def render_snapshot_text(snapshot: dict, prefix: str = "repro") -> str:
    """Prometheus-style text exposition of a snapshot dict.

    The instrument-level :meth:`MetricsRegistry.render_text` covers a
    single live registry; this renders *merged* views (service registry
    + engine registry) where only the snapshot exists.
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        full = f"{prefix}_{name}"
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {int(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        full = f"{prefix}_{name}"
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {float(value):g}")
    for name, entry in sorted(snapshot.get("histograms", {}).items()):
        full = f"{prefix}_{name}"
        lines.append(f"# TYPE {full} summary")
        for pct in MetricsRegistry.QUANTILES:
            quantile = entry.get(f"p{pct:g}", 0.0)
            lines.append(f'{full}{{quantile="{pct / 100:g}"}} {quantile:g}')
        lines.append(f"{full}_count {int(entry.get('count', 0))}")
        lines.append(f"{full}_sum {float(entry.get('sum', 0.0)):g}")
    return "\n".join(lines) + "\n"


# -- the process-global engine registry -------------------------------------

_ENGINE: Optional[MetricsRegistry] = None
_ENGINE_LOCK = threading.Lock()


def engine_registry() -> MetricsRegistry:
    """The process-global registry the simulation engine records into.

    Every instrument the engine creates here is namespaced ``engine_*``
    so the service can merge this registry into its own ``/metrics``
    exposition without name collisions.  Sweep workers drain theirs
    back to the parent with each completed chunk
    (:mod:`repro.sim.parallel`), so after a parallel grid this registry
    holds the whole fleet's counts.
    """
    global _ENGINE
    if _ENGINE is None:
        with _ENGINE_LOCK:
            if _ENGINE is None:
                _ENGINE = MetricsRegistry()
    return _ENGINE
