"""Task-timeline capture: structured events from the schedule simulator.

The scheduler (:func:`repro.runtime.scheduler.simulate`) accepts an
optional :class:`TraceSink`; when one is attached it receives every
scheduling decision as a structured event — task executions, tile
transfers, barriers, and lookahead-gate stalls.  With no sink attached
the scheduler emits nothing (every emit site is guarded by
``if sink is not None``), so tracing is strictly opt-in and free.

:class:`TimelineSink` is the standard collector: it records the events
in order and offers the aggregations the exporters
(:mod:`repro.obs.export`) and reports are built on.  Custom sinks
(streaming to a file, sampling, filtering by rank) subclass
:class:`TraceSink` and override the callbacks they care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Stall causes attributed by the scheduler.
STALL_DEPENDENCY = "dependency"
STALL_GATE = "lookahead-gate"
STALL_LINK = "link-busy"


@dataclass(frozen=True)
class TaskEvent:
    """One task execution on one slot of one rank."""

    tid: int
    kind: str          # kernel class (TaskKind.value)
    rank: int
    slot: str          # execution slot, e.g. "cpu0" or "gpu2"
    phase: int         # program phase (panel step)
    flops: float
    start: float
    end: float
    #: Duration as charged by the machine model.  Kept explicitly so
    #: exporters reproduce the scheduler's busy-time accounting bit for
    #: bit (``end - start`` re-derives it only up to roundoff).
    duration: float
    label: str = ""
    #: False for simulated schedules (machine-model durations); True
    #: when the event carries real wall-clock timestamps captured by
    #: the threaded backend (:mod:`repro.runtime.parallel`).  Same
    #: schema either way, so every exporter works on both.
    measured: bool = False
    #: Thread CPU seconds the payload burned (measured runs only;
    #: 0.0 for simulated events and payload-less tasks).  The gap
    #: ``duration - cpu`` is blocked time inside the task.
    cpu: float = 0.0


@dataclass(frozen=True)
class TransferEvent:
    """One tile movement over a modelled link."""

    src: int           # sending rank
    dst: int           # receiving rank (== src for H2D/D2H staging)
    nbytes: int
    leg: str           # "intra_node" | "inter_node" | "h2d" | "d2h"
    start: float
    end: float


@dataclass(frozen=True)
class BarrierEvent:
    """A fork-join barrier charged when the phase window advanced."""

    time: float        # when the last task of the phase completed
    until: float       # barrier floor imposed on subsequent tasks
    phase: int         # the phase that just completed


#: Fault/recovery event kinds emitted by the resilience subsystem.
FAULT_CRASH = "crash"
FAULT_TRANSIENT = "transient"
FAULT_REPLAY = "replay"
FAULT_CHECKPOINT = "checkpoint"
#: Live-backend (ParallelExecutor) recovery events.
FAULT_RETRY = "retry"
FAULT_TIMEOUT = "timeout"
FAULT_STALL = "stall"
FAULT_CORRUPTION = "corruption"
#: Algorithm-level numerical health interventions (tiled_qdwh guards).
FAULT_HEALTH = "health"
#: Network-chaos events (processes backend: ChaosComm / ReliableComm /
#: heartbeat failure detection).  Rendered on their own chaos lane in
#: chrome traces.
FAULT_NET_DROP = "net-drop"
FAULT_NET_CORRUPT = "net-corrupt"
FAULT_NET_PARTITION = "net-partition"
FAULT_HEARTBEAT_SUSPECT = "heartbeat-suspect"

#: Fault kinds that belong to the chaos/net lane.
NET_FAULT_KINDS = frozenset({
    FAULT_NET_DROP, FAULT_NET_CORRUPT, FAULT_NET_PARTITION,
    FAULT_HEARTBEAT_SUSPECT,
})


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection or recovery action (resilience subsystem).

    ``kind`` is one of the FAULT_* constants; ``tid`` is -1 for
    rank-level events (crashes).  ``detail`` carries the kind-specific
    payload: revoked/replayed counts for a crash, failed attempts for
    a transient.
    """

    kind: str
    time: float
    rank: int
    tid: int = -1
    detail: str = ""


@dataclass(frozen=True)
class StallEvent:
    """A task held back by the scheduler (not by hardware occupancy)."""

    tid: int
    cause: str         # one of the STALL_* constants
    start: float       # when the task became DAG-ready
    end: float         # when it was finally dispatched


@dataclass(frozen=True)
class SanitizerEvent:
    """One TileSan footprint finding (analysis subsystem).

    ``kind`` is a finding kind from :mod:`repro.analysis.sanitizer`
    (undeclared-read / undeclared-write / phantom-declaration /
    sync-in-payload); ``ref`` is the offending tile.
    """

    kind: str
    tid: int
    task_kind: str
    label: str
    ref: tuple
    detail: str = ""
    #: Trace-time placement; the sanitizer itself is timebase-agnostic
    #: and leaves 0.0 (findings render at the trace origin).
    time: float = 0.0


@dataclass(frozen=True)
class AnalysisEvent:
    """One DistSan finding (distributed-runtime analysis).

    ``checker`` names the producing pass (``explore`` / ``hb`` /
    ``protocol`` / ``refcount``); ``kind`` is the checker-specific
    finding kind (an invariant name, a race kind, a protocol rule).
    """

    checker: str
    kind: str
    tid: int = -1
    detail: str = ""
    #: Trace-time placement; analysis is post-hoc and leaves 0.0
    #: (findings render at the trace origin).
    time: float = 0.0


class TraceSink:
    """Callback interface the scheduler drives.  All no-ops here."""

    def on_task(self, ev: TaskEvent) -> None:  # pragma: no cover
        pass

    def on_transfer(self, ev: TransferEvent) -> None:  # pragma: no cover
        pass

    def on_barrier(self, ev: BarrierEvent) -> None:  # pragma: no cover
        pass

    def on_stall(self, ev: StallEvent) -> None:  # pragma: no cover
        pass

    def on_fault(self, ev: FaultEvent) -> None:  # pragma: no cover
        pass

    def on_sanitizer(self, ev: SanitizerEvent) -> None:  # pragma: no cover
        pass

    def on_analysis(self, ev: AnalysisEvent) -> None:  # pragma: no cover
        pass


class TimelineSink(TraceSink):
    """Collects every event in arrival order.

    The scheduler dispatches tasks out of program order, so
    ``tasks`` is ordered by *dispatch decision*, not by start time;
    use :meth:`sorted_tasks` for time order.
    """

    def __init__(self) -> None:
        self.tasks: List[TaskEvent] = []
        self.transfers: List[TransferEvent] = []
        self.barriers: List[BarrierEvent] = []
        self.stalls: List[StallEvent] = []
        self.faults: List[FaultEvent] = []
        self.sanitizer: List[SanitizerEvent] = []
        self.analysis: List[AnalysisEvent] = []

    # -- collection ----------------------------------------------------

    def on_task(self, ev: TaskEvent) -> None:
        self.tasks.append(ev)

    def on_transfer(self, ev: TransferEvent) -> None:
        self.transfers.append(ev)

    def on_barrier(self, ev: BarrierEvent) -> None:
        self.barriers.append(ev)

    def on_stall(self, ev: StallEvent) -> None:
        self.stalls.append(ev)

    def on_fault(self, ev: FaultEvent) -> None:
        self.faults.append(ev)

    def on_sanitizer(self, ev: SanitizerEvent) -> None:
        self.sanitizer.append(ev)

    def on_analysis(self, ev: AnalysisEvent) -> None:
        self.analysis.append(ev)

    # -- aggregations --------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def span(self) -> float:
        """Latest task end time (the captured makespan)."""
        return max((t.end for t in self.tasks), default=0.0)

    def sorted_tasks(self) -> List[TaskEvent]:
        return sorted(self.tasks, key=lambda t: (t.start, t.rank, t.slot))

    def per_rank_busy(self) -> Dict[int, float]:
        """Summed task durations per rank, in dispatch order.

        Matches ``ScheduleResult.per_rank_busy`` exactly (same addends,
        same order) — the exporter honesty checks rely on this.
        """
        busy: Dict[int, float] = {}
        for t in self.tasks:
            busy[t.rank] = busy.get(t.rank, 0.0) + t.duration
        return busy

    def per_kind_busy(self) -> Dict[str, float]:
        busy: Dict[str, float] = {}
        for t in self.tasks:
            busy[t.kind] = busy.get(t.kind, 0.0) + t.duration
        return busy

    def slots(self) -> List[Tuple[int, str]]:
        """All (rank, slot) pairs that executed work, sorted."""
        return sorted({(t.rank, t.slot) for t in self.tasks})

    def stall_seconds(self) -> Dict[str, float]:
        """Total stalled seconds by cause."""
        out: Dict[str, float] = {}
        for s in self.stalls:
            out[s.cause] = out.get(s.cause, 0.0) + (s.end - s.start)
        return out

    def transfer_bytes(self) -> Dict[str, int]:
        """Total transferred bytes by link leg."""
        out: Dict[str, int] = {}
        for x in self.transfers:
            out[x.leg] = out.get(x.leg, 0) + x.nbytes
        return out

    def fault_counts(self) -> Dict[str, int]:
        """Fault/recovery events by kind."""
        out: Dict[str, int] = {}
        for f in self.faults:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def sanitizer_counts(self) -> Dict[str, int]:
        """TileSan findings by kind."""
        out: Dict[str, int] = {}
        for s in self.sanitizer:
            out[s.kind] = out.get(s.kind, 0) + 1
        return out

    def analysis_counts(self) -> Dict[str, int]:
        """DistSan findings by ``checker:kind``."""
        out: Dict[str, int] = {}
        for a in self.analysis:
            key = f"{a.checker}:{a.kind}"
            out[key] = out.get(key, 0) + 1
        return out
