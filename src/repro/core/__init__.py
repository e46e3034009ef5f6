"""The paper's contribution: stream buffers, filters and stride detection."""

from repro.core.bandwidth import (
    BandwidthReport,
    extra_bandwidth_estimate,
    extra_bandwidth_measured,
)
from repro.core.config import StreamConfig, StrideDetector
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import LENGTH_BUCKETS, StreamLengthHistogram, bucket_label, bucket_of
from repro.core.min_delta import MinDeltaDetector
from repro.core.nonunit import CzoneFilter, StrideHit
from repro.core.prefetcher import Lookup, StreamPrefetcher, StreamStats
from repro.core.stride_fsm import FsmState, StrideFsm

__all__ = [
    "BandwidthReport",
    "CzoneFilter",
    "FsmState",
    "LENGTH_BUCKETS",
    "Lookup",
    "MinDeltaDetector",
    "StreamConfig",
    "StreamLengthHistogram",
    "StreamPrefetcher",
    "StreamStats",
    "StrideDetector",
    "StrideFsm",
    "StrideHit",
    "UnitStrideFilter",
    "bucket_label",
    "bucket_of",
    "extra_bandwidth_estimate",
    "extra_bandwidth_measured",
]
