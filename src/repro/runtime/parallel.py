"""The thread-pool transport: real threaded execution of task graphs.

Everything else in :mod:`repro.runtime` *simulates* concurrency; this
module actually runs it.  A :class:`ParallelExecutor` is the
:class:`~repro.runtime.window.WindowExecutor` driver over a
``concurrent.futures.ThreadPoolExecutor``.  The driver owns the
dispatch loop, the sweep, retries, accounting and the drain guarantee;
a window's :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`
owns readiness and the lookahead gate — exactly the dataflow execution
SLATE gets from OpenMP ``task depend``.  Every task is worker-eligible
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
report queue.  Tile ordering is checked by the driver, for every
transport alike (the window module's *Ordering* part), so an attempt
body here only arms the retry ledger and runs the attempt.  NumPy/BLAS
kernels release the GIL, so independent tiles genuinely overlap on
multicore hosts.

* **Dependency order** — a task starts only after every recorded
  dependency finished, lowest tid first among tasks released together,
  so a single-worker run is bit-identical to eager execution.
* **Measured timeline** — with a ``sink``
  (:class:`repro.obs.timeline.TraceSink`) attached, every execution
  emits a :class:`~repro.obs.timeline.TaskEvent` carrying *real*
  ``perf_counter`` start/finish timestamps, flagged ``measured=True``,
  on slots ``drv`` and ``thr0..``.
* **Watched drivers only dispatch** — per-task attempt state, cancel
  events, pool headroom and polling exist only on a *watched* executor
  (one with a fault injector or a ``task_timeout``), the only kind
  whose attempts can stall, time out or be duplicated.  Its driver
  must keep scanning, so it runs no payload: all ``W`` lanes are pool
  threads.  Any other driver works, and blocks only when nothing is
  ready for it.
* **Timeouts & stragglers** (watched) — ``_tick`` scans running
  attempts every ``poll_interval``; one exceeding the wall-clock
  ``task_timeout``, or running ``straggler_factor`` x the rolling mean
  duration of its kind, is flagged (FaultEvent + RecoveryStats) and,
  if its payload has not started yet (it is still inside an injected
  stall), a speculative backup attempt launches — straight to the
  pool, bypassing the scheduler, since the task already holds its slot.
* **Speculation, first-claimer-wins** (watched) — threads share tile
  memory, so two attempts of one task must never run the payload
  concurrently.  Each attempt *claims* the payload under the executor
  lock before touching any tile (and then arms the retry ledger:
  snapshot the write tiles, or restore them if an earlier attempt
  ran); the loser wakes from its (interruptible) stall, sees the
  claim, and reports itself lost without making any writes.  That
  claim is the only thing the executor lock guards.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from .attempt import Attempt, run_attempt
from .distributed.scheduling import DynamicScheduler
from .graph import TaskGraph
from .task import Task
from .window import ExecutionStats, Report, WindowExecutor, default_workers

__all__ = ["ParallelExecutor", "ExecutionStats", "default_workers"]

#: Attempts out per pool thread while the driver is a lane: one running
#: and one queued behind it, so a thread that finishes while the driver
#: is inside a payload already has its next task.
LANE_DEPTH = 2


class _TaskState:
    """Attempt bookkeeping of one task on a *watched* executor — the
    only kind where a task can have more than one live attempt."""

    __slots__ = ("claimed", "finished", "backup", "cancel", "started",
                 "flagged")

    def __init__(self) -> None:
        self.claimed: Optional[int] = None
        self.finished = False
        self.backup: Optional[int] = None   # attempt number of the backup
        self.cancel: Dict[int, threading.Event] = {}
        #: attempt -> entry time, while the attempt is running.
        self.started: Dict[int, float] = {}
        self.flagged: Set[Tuple[str, int]] = set()


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
    lookahead:
        Optional phase-window bound on the ready set (``None`` =
        unbounded dataflow order, like SLATE's default).
    sink:
        Optional :class:`repro.obs.timeline.TraceSink` receiving
        measured :class:`TaskEvent`s (and, under recovery,
        :class:`FaultEvent`s for retries/timeouts/speculation).
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
        (retries, timeouts, straggler speculation).  ``None`` is the
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
                 lookahead: Optional[int] = None,
                 sink=None,
                 validate: bool = True,
                 sanitizer=None,
                 recovery=None,
                 injector=None,
                 tiles=None) -> None:
        super().__init__(graph, fns, workers=workers, lookahead=lookahead,
                         sink=sink, validate=validate, sanitizer=sanitizer,
                         recovery=recovery, injector=injector, tiles=tiles)
        #: Watched: attempts may stall, time out or be speculatively
        #: duplicated, so the transport tracks per-attempt state, the
        #: loop polls and every window gets lanes.
        self._watch = self.exercises_transport
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Guards the payload claims of a watched executor's attempts.
        self._lock = threading.Lock()
        #: Worker reports, with the attempt number they answer.
        self._resq: "queue.SimpleQueue[Tuple[Report, int]]" = \
            queue.SimpleQueue()
        #: Watched executors only: per-task attempt state of the
        #: current window, completed-sample counts per kind (the
        #: straggler mean is ``stats.per_kind_seconds / count``), and
        #: when the monitor scans next.
        self._states: Dict[int, _TaskState] = {}
        self._kind_n: Dict[str, int] = {}
        self._next_scan = 0.0

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
            size = self._lanes(self.workers)
            if self._watch:
                # Headroom so speculative backups and retries are not
                # queued behind stall-sleeping originals: primaries are
                # still gated at `workers` by the scheduler, the extra
                # threads only soak recovery attempts.
                size += max(2, self.workers)
            self._pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-exec")
        self._states.clear()
        sched = DynamicScheduler(
            self.graph.tasks, start, end,
            dict.fromkeys(range(start, end), True),
            pipeline_depth=lanes * LANE_DEPTH if helps else lanes,
            lookahead=self.lookahead, driver_helps=helps)
        sched.add_worker(0)
        return sched

    def _send(self, lane: int, tid: int, attempt: int) -> bool:
        st = None
        if self._watch:
            st = self._states.get(tid)
            if st is None:
                st = self._states[tid] = _TaskState()
            with self._lock:  # st.cancel is iterated by finishing winners
                st.cancel[attempt] = threading.Event()
        self._pool.submit(self._work, tid, attempt, st, lane)
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
        if self._watch:
            rec = self.stats.recovery
            for (tid, _, res, _, _), attempt in items:
                if res.exc is None and not res.lost:
                    if self._states[tid].backup == attempt:
                        rec.speculation_wins += 1
                    kind = self.graph.tasks[tid].kind.value
                    self._kind_n[kind] = self._kind_n.get(kind, 0) + 1
        return [report for report, _ in items]

    def _tick(self, now: float) -> Optional[float]:
        if not self._watch:
            return None
        pol = self.recovery_policy
        if now >= self._next_scan:
            self._next_scan = now + pol.poll_interval
            self._monitor(pol, self.stats.recovery, now)
        return pol.poll_interval

    # -- watched executors: timeouts, stragglers, speculation ----------

    def _monitor(self, pol, rec, now: float) -> None:
        """Timeout + straggler scan over running attempts; launches
        speculative backups for unclaimed attempts (dispatch thread)."""
        from ..obs.timeline import FAULT_SPECULATE, FAULT_TIMEOUT
        for tid, st in list(self._states.items()):
            if st.finished or not st.started:
                continue
            t = self.graph.tasks[tid]
            kind = t.kind.value
            threshold = None
            n = self._kind_n.get(kind, 0)
            if pol.speculation and n >= pol.min_samples:
                threshold = max(
                    pol.straggler_factor
                    * self.stats.per_kind_seconds[kind] / n,
                    pol.min_straggler_seconds)
            for a, started in list(st.started.items()):
                age = now - started
                if (pol.task_timeout is not None
                        and age > pol.task_timeout
                        and ("timeout", a) not in st.flagged):
                    st.flagged.add(("timeout", a))
                    rec.timeouts += 1
                    self._fault_event(
                        FAULT_TIMEOUT, tid,
                        f"attempt {a} over {pol.task_timeout:.3f}s "
                        f"(age {age:.3f}s)", rank=t.rank)
                    self._maybe_backup(st, rec, t,
                                       f"timeout backup for attempt {a}")
                if (threshold is not None and age > threshold
                        and ("straggler", a) not in st.flagged):
                    st.flagged.add(("straggler", a))
                    self._fault_event(
                        FAULT_SPECULATE, tid,
                        f"straggler: attempt {a} at {age:.3f}s vs "
                        f"{threshold:.3f}s threshold", rank=t.rank)
                    self._maybe_backup(st, rec, t,
                                       f"straggler backup for attempt {a}")

    def _maybe_backup(self, st: _TaskState, rec, t: Task,
                      detail: str) -> None:
        # Only one backup per task, and only while no attempt has
        # claimed the payload: a claimed payload is already mutating
        # tiles and cannot be duplicated safely.  The racy read of
        # ``claimed`` is benign — a backup that loses the claim just
        # reports itself lost.
        if st.backup is not None or st.claimed is not None or st.finished:
            return
        from ..obs.timeline import FAULT_SPECULATE
        rec.speculative_duplicates += 1
        self._fault_event(FAULT_SPECULATE, t.tid, detail, rank=t.rank)
        # Backups bypass the scheduler: the task already holds its slot
        # (and its marks: the driver re-checks its epochs only).  A
        # backup refused by the check never runs; it reports the
        # violation as a final failure, so the window drains.
        st.backup = self._ledger.next_attempt(t.tid)
        self._inflight += 1
        err = self._hand_out(t.tid)
        if err is None:
            self._send(0, t.tid, st.backup)
        else:
            now = perf_counter()
            self._resq.put((Report(t.tid, 0, Attempt(now, now, 0.0, [], err,
                                                     False), "drv",
                                   -self._epoch), st.backup))

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _work(self, tid: int, attempt: int, st: Optional[_TaskState],
              lane: int) -> None:
        """A pool thread: one attempt of one task, then one report to
        the dispatch loop."""
        res = self._inline(self.graph.tasks[tid], attempt, st)
        # Pool threads are named ``repro-exec_<n>``: slot ``thr<n>``.
        slot = "thr" + threading.current_thread().name.rpartition("_")[2]
        self._resq.put((Report(tid, lane, res, slot, -self._epoch), attempt))

    def _inline(self, t: Task, attempt: int,
                st: Optional[_TaskState] = None) -> Attempt:
        """The attempt body of every lane — the driver's and a pool
        thread's: arm the retry ledger, run the attempt.  A watched
        attempt (``st``) first sleeps out its injected stall (a winner
        wakes it), then claims the payload — first claimer wins —
        before it arms the ledger; a loser reports itself lost."""
        fn = self.fns.get(t.tid)
        if st is None:
            if fn is not None:
                self._ledger.arm(t)
            return run_attempt(t, fn, attempt, injector=self.injector,
                               tiles=self.tiles, sanitizer=self.sanitizer,
                               scrub=self.recovery_policy.scrub_writes)

        def begin() -> bool:
            with self._lock:
                if st.finished or st.claimed is not None:
                    return False
                st.claimed = attempt
            if fn is not None:
                self._ledger.arm(t)
            return True

        st.started[attempt] = perf_counter()
        res = run_attempt(t, fn, attempt, injector=self.injector,
                          tiles=self.tiles, sanitizer=self.sanitizer,
                          scrub=self.recovery_policy.scrub_writes,
                          sleep=st.cancel[attempt].wait, begin=begin)
        wake = ()
        with self._lock:
            st.started.pop(attempt, None)
            if res.exc is None and not res.lost:
                st.finished = True
                wake = tuple(st.cancel.values())
            elif st.claimed == attempt:
                st.claimed = None
        # Wake any attempt still sleeping in an injected stall so the
        # window drains promptly (they lose the claim and report lost).
        for ev in wake:
            ev.set()
        return res
