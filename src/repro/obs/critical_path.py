"""Critical-path analysis over *executed* task graphs.

:meth:`repro.runtime.graph.TaskGraph.critical_path_seconds` bounds a
schedule from *modeled* durations; this module works the other way
round — it explains a **measured** run.  Given the recorded
:class:`~repro.runtime.graph.TaskGraph` and the measured
:class:`~repro.obs.timeline.TaskEvent` stream the threaded backend
emitted, it answers the profiler questions:

* :func:`critical_path` — the longest *executed* chain: walk backwards
  from the last-finishing task, at each step to whichever predecessor
  released it last (a dependency, or the previous task on the same
  worker lane).  Each chain segment carries the task's measured
  duration plus the *wait* before it started, so
  ``task_seconds + wait_seconds`` telescopes to the measured makespan
  exactly — the reconciliation invariant the bench harness gates on.
* :func:`slack` — classic CPM slack per task under measured durations:
  how much a task could slip without stretching the dependency-only
  critical path.  Zero-slack tasks are the ones worth optimizing.
* :func:`occupancy` — per-worker-lane busy/idle attribution for real
  threaded runs (the measured analogue of the simulator's stall
  attribution).
* :func:`critical_path_kinds` — the one view over modeled durations:
  which kernel kinds make up the DAG's longest path.

Everything here is pure post-processing: no runtime hooks, no
overhead on the execution path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..runtime.graph import TaskGraph
from ..runtime.task import Task
from .timeline import TaskEvent

__all__ = ["PathSegment", "CriticalPathReport", "LaneStats",
           "critical_path", "critical_path_kinds", "slack", "occupancy"]

#: How a chain segment was released: by a dataflow dependency, by the
#: previous task occupying the same worker lane, or by run start.
BLOCKED_DEPENDENCY = "dependency"
BLOCKED_WORKER = "worker"
BLOCKED_START = "start"


@dataclass(frozen=True)
class PathSegment:
    """One task on the executed critical chain (chronological order)."""

    tid: int
    kind: str
    label: str
    start: float
    end: float
    duration: float
    #: Seconds between the releasing predecessor's end and this task's
    #: start (chain root: seconds after the timeline origin).
    wait: float
    #: tid of the releasing predecessor (None for the chain root).
    blocker: Optional[int]
    #: One of BLOCKED_DEPENDENCY / BLOCKED_WORKER / BLOCKED_START.
    blocked_by: str


@dataclass
class CriticalPathReport:
    """The executed critical chain and its accounting."""

    #: Measured span: latest task end minus the timeline origin.
    makespan: float
    #: Timeline origin (earliest task start) the timestamps are
    #: reported against.
    origin: float
    segments: List[PathSegment]
    #: Summed measured durations of chain tasks.
    task_seconds: float
    #: Summed waits (dependency release gaps + lane contention).
    wait_seconds: float
    #: Chain task seconds by kernel kind, descending.
    per_kind: Dict[str, float]
    #: Chain wait seconds by release cause (dependency/worker/start).
    wait_by_cause: Dict[str, float]

    @property
    def total(self) -> float:
        """``task_seconds + wait_seconds``; telescopes to the makespan."""
        return self.task_seconds + self.wait_seconds

    @property
    def reconciliation(self) -> float:
        """Relative |total - makespan| (0.0 on an empty report).

        The chain construction makes this exact up to float roundoff;
        the bench harness gates it at 1%.
        """
        if self.makespan <= 0.0:
            return 0.0
        return abs(self.total - self.makespan) / self.makespan

    def format(self, max_rows: int = 12) -> str:
        """Human-readable report (the ``repro polar --critical-path``
        rendering)."""
        from ..bench.tables import format_table
        if not self.segments:
            return "critical path: empty timeline\n"
        lines = [
            f"critical path: {len(self.segments)} task(s), "
            f"{self.task_seconds:.4f} s on task, "
            f"{self.wait_seconds:.4f} s waiting "
            f"({self.total:.4f} s total vs {self.makespan:.4f} s "
            f"makespan, {self.reconciliation * 100:.2f}% off)"]
        rows = [[k, f"{v:.4f}", f"{v / self.makespan * 100:.1f}%"]
                for k, v in sorted(self.per_kind.items(),
                                   key=lambda kv: -kv[1])]
        lines.append(format_table("chain time by kernel kind",
                                  ["kind", "seconds", "of makespan"], rows))
        if any(v > 0.0 for v in self.wait_by_cause.values()):
            rows = [[c, f"{v:.4f}"]
                    for c, v in sorted(self.wait_by_cause.items(),
                                       key=lambda kv: -kv[1]) if v > 0.0]
            lines.append(format_table("chain wait by cause",
                                      ["cause", "seconds"], rows))
        heavy = sorted(self.segments, key=lambda s: -s.duration)[:max_rows]
        rows = [[s.tid, s.kind, s.label or "-", f"{s.duration * 1e3:.2f}",
                 f"{s.wait * 1e3:.2f}", s.blocked_by]
                for s in heavy]
        lines.append(format_table(
            f"heaviest chain segments (top {len(heavy)})",
            ["tid", "kind", "label", "ms", "wait ms", "released by"], rows))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LaneStats:
    """Busy/idle attribution for one worker lane of a measured run."""

    rank: int
    slot: str
    tasks: int
    busy_seconds: float
    #: Idle seconds over the full measured span (startup + gaps + tail).
    idle_seconds: float
    utilization: float


def _winning_events(events: Iterable[TaskEvent]) -> Dict[int, TaskEvent]:
    """One event per tid (last wins — the executor emits only winning
    attempts, so duplicates only appear in hand-built timelines)."""
    return {e.tid: e for e in events}


def critical_path(graph: TaskGraph,
                  events: Iterable[TaskEvent]) -> CriticalPathReport:
    """Extract the executed critical chain from a measured timeline.

    ``events`` are the measured :class:`TaskEvent`s of one run (e.g.
    ``TimelineSink.tasks`` after a threads-backend execution); tasks of
    ``graph`` without an event (eager prefix, payload-less metadata
    tasks executed before deferral) are treated as instantaneous and
    never appear on the chain.
    """
    ev = _winning_events(events)
    if not ev:
        return CriticalPathReport(0.0, 0.0, [], 0.0, 0.0, {}, {})
    origin = min(e.start for e in ev.values())
    horizon = max(e.end for e in ev.values())

    # Previous task on the same worker lane, by start time.
    lane_prev: Dict[int, Optional[int]] = {}
    by_lane: Dict[Tuple[int, str], List[TaskEvent]] = {}
    for e in ev.values():
        by_lane.setdefault((e.rank, e.slot), []).append(e)
    for lane in by_lane.values():
        lane.sort(key=lambda e: (e.start, e.tid))
        prev = None
        for e in lane:
            lane_prev[e.tid] = prev
            prev = e.tid

    tasks = graph.tasks
    segments: List[PathSegment] = []
    cur = max(ev.values(), key=lambda e: (e.end, e.tid)).tid
    while cur is not None:
        e = ev[cur]
        blocker: Optional[int] = None
        cause = BLOCKED_START
        best_end = -float("inf")
        deps = tasks[cur].deps if cur < len(tasks) else ()
        for d in deps:
            de = ev.get(d)
            if de is not None and de.end > best_end:
                blocker, cause, best_end = d, BLOCKED_DEPENDENCY, de.end
        lp = lane_prev.get(cur)
        if lp is not None and ev[lp].end > best_end:
            blocker, cause, best_end = lp, BLOCKED_WORKER, ev[lp].end
        released = best_end if blocker is not None else origin
        wait = max(0.0, e.start - released)
        segments.append(PathSegment(
            tid=e.tid, kind=e.kind, label=e.label, start=e.start,
            end=e.end, duration=e.duration, wait=wait, blocker=blocker,
            blocked_by=cause))
        cur = blocker
    segments.reverse()

    per_kind: Dict[str, float] = {}
    wait_by_cause: Dict[str, float] = {}
    task_s = wait_s = 0.0
    for s in segments:
        per_kind[s.kind] = per_kind.get(s.kind, 0.0) + s.duration
        wait_by_cause[s.blocked_by] = (
            wait_by_cause.get(s.blocked_by, 0.0) + s.wait)
        task_s += s.duration
        wait_s += s.wait
    return CriticalPathReport(
        makespan=horizon - origin, origin=origin, segments=segments,
        task_seconds=task_s, wait_seconds=wait_s, per_kind=per_kind,
        wait_by_cause=wait_by_cause)


def slack(graph: TaskGraph,
          events: Iterable[TaskEvent]) -> Dict[int, float]:
    """CPM slack per measured task under measured durations.

    Forward/backward pass over the dependency graph with each task's
    measured duration (0.0 for tasks without an event).  Returns
    ``tid -> slack seconds`` for tasks that have an event; zero-slack
    tasks lie on the dependency-only critical path (the lower bound a
    perfect scheduler could reach).
    """
    ev = _winning_events(events)
    tasks = graph.tasks
    n = len(tasks)
    dur = [ev[t.tid].duration if t.tid in ev else 0.0 for t in tasks]
    earliest = [0.0] * n
    for t in tasks:
        start = max((earliest[d] + dur[d] for d in t.deps), default=0.0)
        earliest[t.tid] = start
    horizon = max((earliest[i] + dur[i] for i in range(n)), default=0.0)
    latest = [horizon - dur[i] for i in range(n)]
    for t in reversed(tasks):
        for d in t.deps:
            latest[d] = min(latest[d], latest[t.tid] - dur[d])
    return {tid: max(0.0, latest[tid] - earliest[tid]) for tid in ev
            if tid < n}


def occupancy(events: Iterable[TaskEvent]) -> List[LaneStats]:
    """Per-worker-lane busy/idle attribution for a measured run.

    Idle time is charged over the *global* measured span (earliest
    start to latest end across all lanes), so lanes that start late or
    drain early show the idle their stall represents.
    """
    ev = list(_winning_events(events).values())
    if not ev:
        return []
    origin = min(e.start for e in ev)
    horizon = max(e.end for e in ev)
    span = horizon - origin
    lanes: Dict[Tuple[int, str], List[TaskEvent]] = {}
    for e in ev:
        lanes.setdefault((e.rank, e.slot), []).append(e)
    out: List[LaneStats] = []
    for (rank, slot), lane in sorted(lanes.items()):
        busy = sum(e.duration for e in lane)
        out.append(LaneStats(
            rank=rank, slot=slot, tasks=len(lane),
            busy_seconds=busy,
            idle_seconds=max(0.0, span - busy),
            utilization=busy / span if span > 0.0 else 0.0))
    return out


def critical_path_kinds(graph: TaskGraph,
                        duration: Callable[[Task], float]
                        ) -> List[Tuple[str, float]]:
    """Time per kind along one critical path of the DAG.

    Walks the longest path under ``duration(task) -> seconds`` and
    attributes its length to kernel kinds — shows *what* serializes the
    algorithm (panels, in QDWH's case).
    """
    tasks = graph.tasks
    if not tasks:
        return []
    finish = [0.0] * len(tasks)
    best_pred = [-1] * len(tasks)
    for t in tasks:
        s, p = 0.0, -1
        for d in t.deps:
            if finish[d] > s:
                s, p = finish[d], d
        finish[t.tid] = s + duration(t)
        best_pred[t.tid] = p
    tid = max(range(len(tasks)), key=lambda i: finish[i])
    acc: Dict[str, float] = {}
    while tid != -1:
        t = tasks[tid]
        acc[t.kind.value] = acc.get(t.kind.value, 0.0) + duration(t)
        tid = best_pred[tid]
    return sorted(acc.items(), key=lambda r: -r[1])
