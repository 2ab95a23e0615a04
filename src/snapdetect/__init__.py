"""Concurrent-event detection over snapshot, vector and physical clocks,
with a deterministic asynchronous-workload simulator and sweep harness."""

__version__ = "0.1.0"

from .detectors import (  # noqa: F401
    ContextReading,
    EventId,
    SnapshotDetector,
    Violation,
    pair_key,
    physical_detect,
    vector_detect,
    violation_filter,
)
from .metrics import AccuracyReport, OpCounters, complexity_fit, score, trend  # noqa: F401
from .simulate import (  # noqa: F401
    DetectorFamily,
    GroundTruth,
    RunResult,
    SimConfig,
    Trace,
    generate_trace,
    ground_truth,
    run_trace,
)
