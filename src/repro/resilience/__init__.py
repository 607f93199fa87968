"""Resilience: fault injection, lineage replay, checkpoint/restart.

The robustness track of the reproduction: production runs of QDWH on
Summit/Frontier-class machines must survive node failures, soft
errors, degraded links, and stragglers.  This package supplies

* :mod:`.faults` — deterministic, seed-driven fault plans
  (:class:`FaultPlan`) the scheduler injects into a simulated run;
* :mod:`.recovery` — the scheduler-side recovery state: transient
  retry with backoff and rank-crash lineage replay
  (:func:`lineage_replay_set`);
* :mod:`.checkpoint` — QDWH checkpoint/restart: a real ``.npz``
  round-trip for the dense and tiled numeric paths and the Young/Daly
  cost model for the simulator;
* :mod:`.live` — live execution: the same :class:`FaultPlan`
  transients plus worker stalls and tile corruption fired inside real
  worker threads or forked workers, and the :class:`RecoveryPolicy`
  (retries, timeouts, write scrubbing) the executor survives them
  with.

See ``docs/resilience.md`` for the full model.
"""

from .checkpoint import (
    DEFAULT_IO_BANDWIDTH,
    CheckpointPolicy,
    QdwhCheckpointer,
    checkpoint_write_cost,
    expected_overhead,
    input_fingerprint,
    optimal_interval,
    recovery_overhead_curve,
)
from .faults import (
    FaultPlan,
    LinkDegradation,
    RankCrash,
    RecoveryStats,
    StragglerSlot,
    TileCorruption,
    TransientFaults,
    WorkerStall,
    plan_from_spec,
)
from .live import (
    InjectedTransientError,
    LiveFaultInjector,
    RecoveryPolicy,
    TileAccessor,
    TileCorruptionDetected,
)
from .net import (
    BackoffSchedule,
    ConnectionCut,
    FrameCorrupt,
    FrameDelay,
    FrameDrop,
    FrameDuplicate,
    LinkStall,
    NetFaultPlan,
    NetPartition,
    PhiAccrualDetector,
    default_chaos_plan,
)
from .recovery import (
    AllRanksDead,
    FaultToleranceExceeded,
    ResilienceState,
    lineage_replay_set,
)

__all__ = [
    "DEFAULT_IO_BANDWIDTH",
    "CheckpointPolicy",
    "QdwhCheckpointer",
    "checkpoint_write_cost",
    "expected_overhead",
    "input_fingerprint",
    "optimal_interval",
    "recovery_overhead_curve",
    "FaultPlan",
    "LinkDegradation",
    "RankCrash",
    "RecoveryStats",
    "StragglerSlot",
    "TileCorruption",
    "TransientFaults",
    "WorkerStall",
    "plan_from_spec",
    "BackoffSchedule",
    "ConnectionCut",
    "FrameCorrupt",
    "FrameDelay",
    "FrameDrop",
    "FrameDuplicate",
    "LinkStall",
    "NetFaultPlan",
    "NetPartition",
    "PhiAccrualDetector",
    "default_chaos_plan",
    "InjectedTransientError",
    "LiveFaultInjector",
    "RecoveryPolicy",
    "TileAccessor",
    "TileCorruptionDetected",
    "AllRanksDead",
    "FaultToleranceExceeded",
    "ResilienceState",
    "lineage_replay_set",
]
