"""The thread-pool transport: real threaded execution of task graphs.

Everything else in :mod:`repro.runtime` *simulates* concurrency; this
module actually runs it.  A :class:`ParallelExecutor` is the
:class:`~repro.runtime.window.WindowExecutor` driver over a
``concurrent.futures.ThreadPoolExecutor``.  The driver owns the
dispatch loop, the sweep, retries, accounting and the drain guarantee;
a window's :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`
owns readiness — exactly the dataflow execution SLATE gets from OpenMP
``task depend``.  Every task is worker-eligible
(threads share tile memory, so there is nothing to keep on a driver
lane) and, as in OpenMP, the thread that waits works: with
``workers=W`` the pool holds ``W - 1`` threads behind one scheduler
lane and the driver is the W-th lane — each turn of the dispatch loop
it keeps the lowest ready tid for itself, feeds the pool, then runs its
task (slot ``drv``) through ``_inline``, the pool threads' attempt
body.  A window with no lane besides the driver — every window at
``workers=1``, and any window none of whose tasks is worth a hand-off
(:meth:`~repro.runtime.window.WindowExecutor._pays`) — is a sweep
(:meth:`~repro.runtime.window.WindowExecutor._sweep`): program order
through ``_inline``, with no pool, no thread, no scheduler and no
report queue.  Tile ordering is checked by the driver, and the attempt
body (arm the retry ledger, run the attempt) is the window driver's,
for every transport alike; a pool thread only adds its report.
NumPy/BLAS kernels release the GIL, so independent tiles genuinely
overlap on multicore hosts.

* **Dependency order** — a task starts only after every recorded
  dependency finished, lowest tid first among tasks released together,
  so a single-worker run is bit-identical to eager execution.
* **Measured timeline** — with a ``sink``
  (:class:`repro.obs.timeline.TraceSink`) attached, every execution
  emits a :class:`~repro.obs.timeline.TaskEvent` carrying *real*
  ``perf_counter`` start/finish timestamps, flagged ``measured=True``,
  on slots ``drv`` and ``thr0..``.
* **Watched drivers only dispatch** — a *watched* executor (one with
  a fault injector or a ``task_timeout``) exercises its transport: its
  driver runs no payload, all ``W`` lanes are pool threads, and every
  window gets them.  Any other driver works, and blocks only when
  nothing is ready for it.
* **One live attempt per task** — as under OpenMP, a task has at most
  one attempt running at a time; the next one (a retry) is handed out
  only after the last one reported.  With a ``task_timeout``,
  ``_send`` records each attempt's hand-out time and ``_tick`` counts
  an attempt that runs past it, once (``RecoveryStats.timeouts`` and a
  ``FAULT_TIMEOUT`` event).  A thread cannot be killed, so that is all
  it does: the attempt runs on and reports like any other.  (The
  processes transport kills the worker and replays its tasks.)
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .attempt import Attempt
from .distributed.scheduling import DynamicScheduler
from .graph import TaskGraph
from .window import ExecutionStats, Report, WindowExecutor, default_workers

__all__ = ["ParallelExecutor", "ExecutionStats", "default_workers"]

#: Attempts out per pool thread while the driver is a lane: one running
#: and one queued behind it, so a thread that finishes while the driver
#: is inside a payload already has its next task.
LANE_DEPTH = 2


class ParallelExecutor(WindowExecutor):
    """Replay a recorded task graph on a thread pool.

    Parameters
    ----------
    graph:
        The (append-only) task graph.  Windows of it are executed by
        successive :meth:`run` calls; tasks before a window's start are
        assumed already executed (eagerly or by a previous window).
    fns:
        ``tid -> payload closure``.  Tasks without a payload (symbolic
        graphs, pure-metadata tasks) are ordering no-ops: they respect
        and propagate dependencies but execute nothing and publish no
        kernel metrics — replaying an eagerly-executed or symbolic
        graph never double-counts kernel invocations.
    workers:
        Execution lanes (default: one per core): the driver plus
        ``workers - 1`` pool threads, or ``workers`` pool threads behind
        a dispatch-only driver when the executor is watched.  Only a
        window holding a task of at least
        :data:`~repro.runtime.window.LANE_MIN_FLOPS` (or one that
        declares no cost) uses them; any other is swept on the driver.
    sink:
        Optional :class:`repro.obs.timeline.TraceSink` receiving
        measured :class:`TaskEvent`s (and, under recovery,
        :class:`FaultEvent`s for retries and timeouts).
    validate:
        Run :meth:`TaskGraph.validate` over each window before
        executing it (cycle/forward-edge/concurrent-writer checks).
    sanitizer:
        Optional :class:`repro.analysis.sanitizer.TileSanitizer`; each
        payload runs inside a sanitizer frame on its worker thread, so
        actual tile accesses are diffed against the declared footprint
        exactly as in eager mode.
    recovery:
        Optional :class:`repro.resilience.live.RecoveryPolicy`
        (retries, backoff, timeouts, scrubbing).  ``None`` is the
        zero-budget policy: the first payload failure is final.
    injector:
        Optional :class:`repro.resilience.live.LiveFaultInjector`
        evaluating a :class:`FaultPlan`'s live faults inside workers.
        (``Runtime`` pairs a plan with a default policy through
        :func:`repro.runtime.attempt.resolve_recovery`.)
    tiles:
        Optional :class:`repro.resilience.live.TileAccessor` used for
        write-tile snapshots (restore-on-retry), corruption injection,
        and non-finite scrubbing.  Without it, retries re-run payloads
        without restoring — only safe for idempotent payloads.
    """

    def __init__(self, graph: TaskGraph,
                 fns: Optional[Dict[int, Callable[[], None]]] = None, *,
                 workers: Optional[int] = None,
                 sink=None,
                 validate: bool = True,
                 sanitizer=None,
                 recovery=None,
                 injector=None,
                 tiles=None) -> None:
        super().__init__(graph, fns, workers=workers, sink=sink,
                         validate=validate, sanitizer=sanitizer,
                         recovery=recovery, injector=injector, tiles=tiles)
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Worker reports.
        self._resq: "queue.SimpleQueue[Report]" = queue.SimpleQueue()
        #: With a ``task_timeout``: ``tid -> (attempt, hand-out time)``
        #: of each attempt on a pool thread that has not reported or
        #: been counted as timed out yet.
        self._sent: Dict[int, Tuple[int, float]] = {}

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _open(self, start: int, end: int, lanes: int) -> DynamicScheduler:
        """One scheduler lane over the whole pool, as deep as ``lanes``
        threads, and the driver as one more lane unless it is
        watched."""
        helps = self.driver_helps
        if self._pool is None:
            # Sized for the widest window, not the first one that pays.
            self._pool = ThreadPoolExecutor(
                max_workers=self._lanes(self.workers),
                thread_name_prefix="repro-exec")
        sched = DynamicScheduler(
            self.graph.tasks, start, end,
            dict.fromkeys(range(start, end), True),
            pipeline_depth=lanes * LANE_DEPTH if helps else lanes,
            driver_helps=helps)
        sched.add_worker(0)
        return sched

    def _send(self, lane: int, tid: int, attempt: int) -> bool:
        if self.recovery_policy.task_timeout is not None:
            self._sent[tid] = (attempt, self.clock())
        self._pool.submit(self._work, tid, attempt, lane)
        return True

    def _recv(self, timeout: Optional[float]) -> List[Report]:
        """Unwatched, ``timeout`` is ``None`` unless a retry is pending
        (0 right after the driver ran an attempt itself): the loop
        blocks until a lane reports."""
        try:
            items = [self._resq.get(True, timeout)]
        except queue.Empty:
            return []
        for _ in range(self._resq.qsize()):
            items.append(self._resq.get_nowait())
        if self._sent:
            for report in items:
                self._sent.pop(report.tid, None)
        return items

    def _tick(self, now: float) -> Optional[float]:
        """With a ``task_timeout``: count each attempt that runs past
        it, once (a thread cannot be killed, so it runs on and reports
        as usual), and poll at ``poll_interval``."""
        limit = self.recovery_policy.task_timeout
        if limit is None:
            return None
        from ..obs.timeline import FAULT_TIMEOUT
        for tid, (attempt, sent) in list(self._sent.items()):
            age = now - sent
            if age > limit:
                del self._sent[tid]
                self.stats.recovery.timeouts += 1
                self._fault_event(
                    FAULT_TIMEOUT, tid,
                    f"attempt {attempt} over {limit:.3f}s (age {age:.3f}s)",
                    rank=self.graph.tasks[tid].rank)
        return self.recovery_policy.poll_interval

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _work(self, tid: int, attempt: int, lane: int) -> None:
        """A pool thread: one attempt of one task, then exactly one
        report to the dispatch loop.  The pool keeps whatever a
        submitted call raises in a future nobody reads, so anything
        that escapes the attempt body is reported first, as a final
        failure of the window — a lost report would leave the driver
        blocked in ``_recv`` for ever."""
        t_in = perf_counter()
        try:
            res = self._inline(self.graph.tasks[tid], attempt)
        except BaseException as exc:
            self._put(tid, lane,
                      Attempt(t_in, perf_counter(), 0.0, [], exc, False))
            raise
        self._put(tid, lane, res)

    def _put(self, tid: int, lane: int, res: Attempt) -> None:
        # Pool threads are named ``repro-exec_<n>``: slot ``thr<n>``.
        slot = "thr" + threading.current_thread().name.rpartition("_")[2]
        self._resq.put(Report(tid, lane, res, slot, -self._epoch))
