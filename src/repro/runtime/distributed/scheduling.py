"""Dynamic, event-driven task scheduling for both real backends.

The driver (:class:`~repro.runtime.window.WindowExecutor`) holds the
recorded :class:`~repro.runtime.graph.TaskGraph` for one execution
window and hands *ready* tasks (dependency count reached zero) to
lanes as completions stream back.  The processes backend registers one
lane per forked worker; the threads backend registers a single lane
over its whole pool; on both the driver is one more lane unless it has
a transport to watch.  As under OpenMP ``task depend``, a ready task is
not placed: the worker-eligible ready set is one min-heap of tids, and
every lane, the helping driver included, takes the lowest tid on it
when it has room, so the heap key (the tid, i.e. program order) is
the one place the hand-out order is decided.  Two policies live here:

* **Dependency counting** — each task carries the number of
  unfinished in-window predecessors; a completion decrements its
  successors and readiness is O(out-degree), never a graph rescan.
* **The driver helps** — with ``driver_helps`` the thread that
  dispatches is itself an execution lane (OpenMP ``taskwait``
  semantics: the waiting thread works).  :meth:`next_driver` then also
  pops the lowest ready worker-eligible tid, so a dependency chain
  never leaves the driver thread.  The dispatch loop asks for the
  driver's task first and runs it last: it is deaf to completions
  while inside a payload, so every lane is fed before the payload
  starts.

A lane holds at most ``pipeline_depth`` tids in flight, and a lane the
failure detector suspects gets nothing new.  The scheduler is pure
bookkeeping — it never touches comms, processes or tiles — which is
what makes it unit-testable in isolation and reusable when a worker
dies: :meth:`remove_worker` returns the dead worker's in-flight tids
so the executor can snapshot-restore and replay them.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..task import Task

__all__ = ["WorkerState", "DynamicScheduler"]


class WorkerState:
    """Scheduler-side view of one lane."""

    __slots__ = ("wid", "inflight", "alive", "suspected")

    def __init__(self, wid: int):
        self.wid = wid
        #: Dispatched, completion pending.
        self.inflight: Set[int] = set()
        self.alive = True
        #: Failure-detector suspicion (phi over the suspect threshold):
        #: the worker still runs what it holds but gets nothing new
        #: until its heartbeats recover — losing a task to a truly hung
        #: worker costs a full replay, so new work goes elsewhere.
        self.suspected = False


class DynamicScheduler:
    """Ready-set bookkeeping for one ``[start, end)`` window.

    ``worker_ok`` marks tasks eligible for lanes; the rest ("driver
    tasks": scalar reductions and other tasks touching driver-local
    state) surface through :meth:`next_driver` and run inline in the
    parent.  ``driver_helps`` makes the driver a lane:
    :meth:`next_driver` also hands out worker-eligible tasks.
    """

    def __init__(self, tasks: Sequence[Task], start: int, end: int,
                 worker_ok: Dict[int, bool],
                 pipeline_depth: int = 2,
                 driver_helps: bool = False):
        self.start = start
        self.end = end
        self.pipeline = max(1, pipeline_depth)
        self.driver_helps = driver_helps
        self.workers: Dict[int, WorkerState] = {}
        self._worker_ok = worker_ok
        #: tid -> number of unfinished in-window dependencies.
        self.indeg: Dict[int, int] = {}
        #: tid -> in-window successors.
        self.succ: Dict[int, List[int]] = {}
        self.done: Set[int] = set()
        self._driver_ready: List[int] = []  # ready driver tasks (heap)
        self._ready: List[int] = []         # ready lane tasks (heap)
        for t in tasks[start:end]:
            deps = [d for d in t.deps if start <= d < end]
            self.indeg[t.tid] = len(deps)
            for d in deps:
                self.succ.setdefault(d, []).append(t.tid)
            if not deps:
                self._make_ready(t.tid)

    # -- workers ---------------------------------------------------------

    def add_worker(self, wid: int) -> WorkerState:
        ws = WorkerState(wid)
        self.workers[wid] = ws
        return ws

    def remove_worker(self, wid: int) -> List[int]:
        """Mark ``wid`` dead; returns the tids it had in flight, for
        the executor to requeue or fail."""
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
            return []
        ws.alive = False
        inflight = sorted(ws.inflight)
        ws.inflight.clear()
        return inflight

    def mark_suspect(self, wid: int, suspected: bool = True) -> None:
        """Flag/unflag ``wid`` as suspected hung (heartbeat phi over
        threshold).  In-flight work stays put — the kill decision
        belongs to the executor."""
        ws = self.workers.get(wid)
        if ws is not None:
            ws.suspected = suspected

    def alive_workers(self) -> List[WorkerState]:
        return [w for w in self.workers.values() if w.alive]

    # -- readiness -------------------------------------------------------

    def _make_ready(self, tid: int) -> None:
        if self._worker_ok.get(tid, False):
            heapq.heappush(self._ready, tid)
        else:
            heapq.heappush(self._driver_ready, tid)

    def requeue(self, tids: Iterable[int]) -> None:
        """Put previously handed-out (e.g. revoked) tasks back in the
        ready set."""
        for tid in tids:
            self._make_ready(tid)

    def next_driver(self) -> Optional[int]:
        """Next tid for the driver to run inline: the lowest ready
        driver task, else — when the driver helps — the lowest ready
        worker-eligible tid."""
        if self._driver_ready:
            return heapq.heappop(self._driver_ready)
        if self.driver_helps and self._ready:
            return heapq.heappop(self._ready)
        return None

    def next_for(self, wid: int) -> Optional[int]:
        """Next tid for ``wid`` to execute: the lowest ready
        worker-eligible tid, while the lane is alive, not suspected and
        below its pipeline depth.  Caller dispatches it; the tid moves
        to in-flight."""
        ws = self.workers.get(wid)
        if (ws is None or not ws.alive or ws.suspected
                or len(ws.inflight) >= self.pipeline or not self._ready):
            return None
        tid = heapq.heappop(self._ready)
        ws.inflight.add(tid)
        return tid

    def on_done(self, tid: int, wid: Optional[int] = None) -> List[int]:
        """Record completion; returns the tids whose last dependency
        this was (ready now)."""
        self.done.add(tid)
        if wid is not None:
            ws = self.workers.get(wid)
            if ws is not None:
                ws.inflight.discard(tid)
        newly = []
        for s in self.succ.get(tid, ()):
            self.indeg[s] -= 1
            if self.indeg[s] == 0:
                self._make_ready(s)
                newly.append(s)
        return newly

    @property
    def pending(self) -> int:
        """Tasks in the window not yet completed."""
        return (self.end - self.start) - len(self.done)
