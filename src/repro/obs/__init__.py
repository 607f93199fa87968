"""Observability: task timelines, trace exporters, metrics, telemetry.

The subsystem every performance claim in this repo reports through:

* :mod:`.timeline` — :class:`TraceSink` / :class:`TimelineSink`: the
  scheduler's structured event stream (tasks, transfers, barriers,
  lookahead-gate stalls).  Opt-in; zero overhead when detached.
* :mod:`.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``) and a terminal ASCII Gantt, plus the shared
  post-mortem aggregates (kernel breakdown, rank utilization).
* :mod:`.metrics` — a tiny process-wide registry (Counter / Gauge /
  Histogram) the scheduler, eager runtime, and comm layer publish to.
* :mod:`.qdwh_log` — per-iteration QDWH telemetry (variant, weights,
  convergence, condition estimate, flops).
* :mod:`.critical_path` — profiler views over *measured* runs:
  executed critical chain, CPM slack, worker-lane occupancy.
"""

from .critical_path import (
    CriticalPathReport,
    LaneStats,
    PathSegment,
    critical_path,
    critical_path_kinds,
    occupancy,
    slack,
)
from .export import (
    ascii_gantt,
    chrome_trace,
    kernel_breakdown,
    rank_utilization,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
    reset_metrics,
)
from .qdwh_log import IterationLog, IterationRecord
from .timeline import (
    FAULT_CHECKPOINT,
    FAULT_CRASH,
    FAULT_REPLAY,
    FAULT_SPECULATE,
    FAULT_TRANSIENT,
    STALL_DEPENDENCY,
    STALL_GATE,
    STALL_LINK,
    AnalysisEvent,
    BarrierEvent,
    FaultEvent,
    SanitizerEvent,
    StallEvent,
    TaskEvent,
    TimelineSink,
    TraceSink,
    TransferEvent,
)

__all__ = [
    "CriticalPathReport",
    "LaneStats",
    "PathSegment",
    "critical_path",
    "critical_path_kinds",
    "occupancy",
    "slack",
    "ascii_gantt",
    "chrome_trace",
    "kernel_breakdown",
    "rank_utilization",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "get_registry",
    "reset_metrics",
    "IterationLog",
    "IterationRecord",
    "FAULT_CHECKPOINT",
    "FAULT_CRASH",
    "FAULT_REPLAY",
    "FAULT_SPECULATE",
    "FAULT_TRANSIENT",
    "FaultEvent",
    "STALL_DEPENDENCY",
    "STALL_GATE",
    "STALL_LINK",
    "AnalysisEvent",
    "BarrierEvent",
    "SanitizerEvent",
    "StallEvent",
    "TaskEvent",
    "TimelineSink",
    "TraceSink",
    "TransferEvent",
]
