"""Dynamic, event-driven task scheduling for both real backends.

The model is dask-style central scheduling: the driver
(:class:`~repro.runtime.window.WindowExecutor`) holds the recorded
:class:`~repro.runtime.graph.TaskGraph` for one execution window and
hands *ready* tasks (dependency count reached zero) to lanes as
completions stream back.  The processes backend registers one lane per
forked worker; the threads backend registers a single lane over its
whole pool (shared memory needs no placement or stealing); on both the
driver is one more lane unless it has a transport to watch.  Five
policies live here:

* **Dependency counting** — each task carries the number of
  unfinished in-window predecessors; a completion decrements its
  successors and readiness is O(out-degree), never a graph rescan.
* **Lookahead gate** — with ``lookahead=k`` a dependency-free task
  enters the ready set only while its program phase (panel step) is at
  most ``k`` past the oldest phase with unfinished tasks (SLATE's
  bounded lookahead panels); later phases park and are released as the
  completed prefix advances.  ``None`` keeps no phase state at all.
* **Locality-aware placement** — each worker tracks the set of tile
  refs it has touched this window ("resident": warm in its cache).
  A newly-ready task goes to the alive worker whose resident set
  overlaps its reads most, with queue length as a penalty and the
  lowest tid as the final tie-break (keeps replay deterministic).
* **Steal-on-idle** — placement is a plan, not a commitment.  A
  worker that drains its own queue steals from the *back* of the
  longest queue (the victim's least-local work), so load imbalance
  from skewed tile costs self-corrects.
* **The driver helps** — with ``driver_helps`` the thread that
  dispatches is itself an execution lane (OpenMP ``taskwait``
  semantics: the waiting thread works).  :meth:`next_driver` then also
  hands out the lowest ready worker-eligible tid, taken from the pool
  or from the head of a lane's queue, so a dependency chain never
  leaves the driver thread.  The dispatch loop asks for the driver's
  task first and runs it last: it is deaf to completions while inside
  a payload, so every lane is fed before the payload starts.

The scheduler is pure bookkeeping — it never touches comms, processes
or tiles — which is what makes it unit-testable in isolation and
reusable when a worker dies: :meth:`remove_worker` returns everything
the dead worker held so the executor can snapshot-restore and replay
onto survivors (PR 5 recovery loop).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..task import Task, TileRef

__all__ = ["WorkerState", "DynamicScheduler"]


class WorkerState:
    """Scheduler-side view of one worker process."""

    __slots__ = ("wid", "queue", "inflight", "resident", "alive",
                 "suspected", "tasks_done", "steals")

    def __init__(self, wid: int):
        self.wid = wid
        #: Planned (assigned but not yet dispatched) tids, FIFO.
        self.queue: Deque[int] = deque()
        #: Dispatched, completion pending.
        self.inflight: Set[int] = set()
        #: Tile refs this worker has read or written this window.
        self.resident: Set[TileRef] = set()
        self.alive = True
        #: Failure-detector suspicion (phi over the suspect threshold):
        #: the worker still runs what it holds, but placement avoids it
        #: until its heartbeats recover — losing a task to a truly hung
        #: worker costs a full replay, so new work goes elsewhere first.
        self.suspected = False
        self.tasks_done = 0
        self.steals = 0

    @property
    def load(self) -> int:
        return len(self.queue) + len(self.inflight)


class DynamicScheduler:
    """Ready-set bookkeeping for one ``[start, end)`` window.

    ``worker_ok`` marks tasks eligible for worker processes; the rest
    ("driver tasks": scalar reductions and other tasks touching
    driver-local state) surface through :meth:`next_driver` and run
    inline in the parent.  ``lookahead`` bounds how many phases past
    the completed prefix may be ready (``None`` = dataflow order).
    ``driver_helps`` makes the driver a lane: :meth:`next_driver` also
    hands out worker-eligible tasks.
    """

    def __init__(self, tasks: Sequence[Task], start: int, end: int,
                 worker_ok: Dict[int, bool],
                 pipeline_depth: int = 2,
                 lookahead: Optional[int] = None,
                 driver_helps: bool = False):
        self.start = start
        self.end = end
        self.pipeline = max(1, pipeline_depth)
        self.lookahead = lookahead
        self.driver_helps = driver_helps
        self.workers: Dict[int, WorkerState] = {}
        self._worker_ok = worker_ok
        #: tid -> number of unfinished in-window dependencies.
        self.indeg: Dict[int, int] = {}
        #: tid -> in-window successors.
        self.succ: Dict[int, List[int]] = {}
        self.done: Set[int] = set()
        self._driver_ready: List[int] = []
        self._pool: List[int] = []          # ready, unassigned (heap)
        self._reads: Dict[int, Tuple[TileRef, ...]] = {}
        if lookahead is not None:
            #: Phase gate: tid -> phase, unfinished tasks per phase, the
            #: window's phases in order, the index of the oldest open
            #: one, and dependency-free tasks parked beyond the gate.
            self._phase = {t.tid: t.phase for t in tasks[start:end]}
            self._phase_left: Dict[int, int] = {}
            for p in self._phase.values():
                self._phase_left[p] = self._phase_left.get(p, 0) + 1
            self._phases = sorted(self._phase_left)
            self._prefix = 0
            self._parked: Dict[int, List[int]] = {}
        for t in tasks[start:end]:
            deps = [d for d in t.deps if start <= d < end]
            self.indeg[t.tid] = len(deps)
            for d in deps:
                self.succ.setdefault(d, []).append(t.tid)
            self._reads[t.tid] = tuple(t.reads) + tuple(t.writes)
            if not deps:
                self._make_ready(t.tid)

    # -- workers ---------------------------------------------------------

    def add_worker(self, wid: int) -> WorkerState:
        ws = WorkerState(wid)
        self.workers[wid] = ws
        return ws

    def remove_worker(self, wid: int) -> Tuple[List[int], List[int]]:
        """Mark ``wid`` dead; returns ``(queued, inflight)`` — the tids
        it held — for the executor to requeue or fail."""
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
            return [], []
        ws.alive = False
        queued = list(ws.queue)
        inflight = sorted(ws.inflight)
        ws.queue.clear()
        ws.inflight.clear()
        return queued, inflight

    def mark_suspect(self, wid: int, suspected: bool = True) -> None:
        """Flag/unflag ``wid`` as suspected hung (heartbeat phi over
        threshold).  Placement-only: queued and in-flight work stays
        put — the kill decision belongs to the executor."""
        ws = self.workers.get(wid)
        if ws is not None:
            ws.suspected = suspected

    def alive_workers(self) -> List[WorkerState]:
        return [w for w in self.workers.values() if w.alive]

    # -- readiness -------------------------------------------------------

    def _make_ready(self, tid: int) -> None:
        if self.lookahead is not None:
            p = self._phase[tid]
            if p > self._gate(p):
                self._parked.setdefault(p, []).append(tid)
                return
        if self._worker_ok.get(tid, False):
            heapq.heappush(self._pool, tid)
        else:
            heapq.heappush(self._driver_ready, tid)

    def _gate(self, p: int) -> int:
        """Latest phase currently admitted (``p`` itself once every
        phase of the window has drained)."""
        if self._prefix < len(self._phases):
            return self._phases[self._prefix] + self.lookahead
        return p

    def _advance(self, tid: int) -> None:
        """``tid`` finished: when that drains its phase, move the
        completed prefix forward and release what the gate now admits."""
        p = self._phase[tid]
        self._phase_left[p] -= 1
        if self._phase_left[p]:
            return
        while (self._prefix < len(self._phases)
               and not self._phase_left[self._phases[self._prefix]]):
            self._prefix += 1
        limit = self._gate(p)
        for q in [q for q in self._parked if q <= limit]:
            for parked in self._parked.pop(q):
                self._make_ready(parked)

    def requeue(self, tids: Iterable[int]) -> None:
        """Put previously-assigned (e.g. revoked) tasks back in the
        ready pool."""
        for tid in tids:
            self._make_ready(tid)

    def next_driver(self) -> Optional[int]:
        """Next tid for the driver to run inline: a driver-lane task,
        else — when the driver helps — the lowest ready worker-eligible
        tid, whether it still waits in the pool or at the head of a
        lane's queue."""
        if self._driver_ready:
            return heapq.heappop(self._driver_ready)
        if not self.driver_helps:
            return None
        heads = [w.queue for w in self.alive_workers() if w.queue]
        if self._pool and all(self._pool[0] < q[0] for q in heads):
            return heapq.heappop(self._pool)
        if heads:
            return min(heads, key=lambda q: q[0]).popleft()
        return None

    def on_done(self, tid: int, wid: Optional[int] = None) -> List[int]:
        """Record completion; returns the tids whose last dependency
        this was (ready now, or parked behind the lookahead gate)."""
        self.done.add(tid)
        if wid is not None:
            ws = self.workers.get(wid)
            if ws is not None:
                ws.inflight.discard(tid)
                ws.tasks_done += 1
                if len(self.workers) > 1:  # locality only ranks lanes
                    ws.resident.update(self._reads.get(tid, ()))
        newly = []
        for s in self.succ.get(tid, ()):
            self.indeg[s] -= 1
            if self.indeg[s] == 0:
                self._make_ready(s)
                newly.append(s)
        if self.lookahead is not None:
            self._advance(tid)
        return newly

    @property
    def pending(self) -> int:
        """Tasks in the window not yet completed."""
        return (self.end - self.start) - len(self.done)

    # -- placement -------------------------------------------------------

    def _score(self, ws: WorkerState, tid: int) -> Tuple[int, int, int]:
        reads = self._reads.get(tid, ())
        hits = sum(1 for r in reads if r in ws.resident)
        # Healthy workers first, then higher locality, lighter load.
        return (1 if ws.suspected else 0, -hits, ws.load)

    def assign_ready(self) -> None:
        """Drain the ready pool into per-worker queues (locality-aware,
        lowest tid first)."""
        if not self._pool:
            return
        alive = self.alive_workers()
        if not alive:
            return
        if len(alive) == 1:  # nothing to choose between
            queue = alive[0].queue
            while self._pool:
                queue.append(heapq.heappop(self._pool))
            return
        while self._pool:
            tid = heapq.heappop(self._pool)
            ws = min(alive, key=lambda w: self._score(w, tid) + (w.wid,))
            ws.queue.append(tid)

    def next_for(self, wid: int) -> Optional[int]:
        """Next tid for ``wid`` to execute, stealing if its own queue
        is empty.  Caller dispatches it; the tid moves to in-flight."""
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
            return None
        if ws.suspected:
            # No new dispatches to a suspected-hung worker: anything it
            # holds will be replayed wholesale if the suspicion proves
            # out, so don't grow the loss.
            return None
        if len(ws.inflight) >= self.pipeline:
            return None
        self.assign_ready()
        if ws.queue:
            tid = ws.queue.popleft()
        else:
            victim = max(
                (w for w in self.alive_workers()
                 if w.wid != wid and w.queue),
                key=lambda w: len(w.queue), default=None)
            if victim is None:
                return None
            tid = victim.queue.pop()        # least-local end
            ws.steals += 1
        ws.inflight.add(tid)
        return tid

    def stats(self) -> Dict[str, int]:
        return {
            "steals": sum(w.steals for w in self.workers.values()),
            "workers": len(self.workers),
        }
