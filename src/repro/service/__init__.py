"""``repro.service`` — the always-on simulation serving layer.

Turns the sweep substrate (``repro.sim.parallel`` + the persistent
``TraceStore``) into an asyncio JSON-over-HTTP service with request
coalescing, micro-batching, bounded admission with backpressure,
per-request deadlines and a ``/metrics`` registry.  See
``docs/service.md`` for the wire format and deployment knobs, and
``repro serve --help`` for the CLI entry point.
"""

from repro.service.api import (
    MAX_CELLS_PER_REQUEST,
    WIRE_VERSION,
    ValidationError,
)
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient, arequest
from repro.service.coalesce import Coalescer
from repro.obs.metrics import MetricsRegistry
from repro.service.queue import (
    AdmissionQueue,
    DeadlineExceeded,
    QueueFullError,
    with_deadline,
)
from repro.service.server import (
    ServiceConfig,
    ServiceServer,
    SimulationService,
    run_server,
)

__all__ = [
    "AdmissionQueue",
    "Coalescer",
    "DeadlineExceeded",
    "MAX_CELLS_PER_REQUEST",
    "MetricsRegistry",
    "MicroBatcher",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "SimulationService",
    "ValidationError",
    "WIRE_VERSION",
    "arequest",
    "run_server",
    "with_deadline",
]
