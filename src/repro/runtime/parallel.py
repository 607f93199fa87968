"""The thread-pool transport: real threaded execution of task graphs.

Everything else in :mod:`repro.runtime` *simulates* concurrency; this
module actually runs it.  A :class:`ParallelExecutor` is the
:class:`~repro.runtime.window.WindowExecutor` driver over a
``concurrent.futures.ThreadPoolExecutor``.  The driver owns the
dispatch loop, retries, accounting and the drain guarantee; the
window's :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`
owns readiness and the lookahead gate — exactly the dataflow execution
SLATE gets from OpenMP ``task depend``.  Every task is worker-eligible
(threads share tile memory, so there is nothing to place, steal or keep
on a driver lane) and, as in OpenMP, the thread that waits works: with
``workers=W`` the pool holds ``W - 1`` threads behind one scheduler
lane and the driver is the W-th lane — each turn of the dispatch loop
it keeps the lowest ready tid for itself, feeds the pool, then runs its
task inline (slot ``drv``) through the same worker body.  ``workers=1``
therefore starts no thread at all, and a chain never leaves the driver.
Neither does a window none of whose tasks is worth a hand-off
(:meth:`~repro.runtime.window.WindowExecutor._pays`): it registers no
lane, creates no pool and runs on the driver like a ``workers=1`` one.
NumPy/BLAS kernels release the GIL, so independent tiles genuinely
overlap on multicore hosts.

* **Dependency order** — a task starts only after every recorded
  dependency finished, lowest tid first among tasks released together,
  so a single-worker run is bit-identical to eager execution.
* **Epoch / last-writer assertions** — before a task touches its
  tiles, the executor checks (under a lock) that every tile it reads
  or overwrites was last written by exactly the task program order
  says (the tile's *epoch*), and that no concurrent reader/writer is
  in flight.  Any scheduling bug that would corrupt data surfaces as
  an :class:`OrderingViolationError` at execution time instead of as a
  silently wrong result.
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
  claim, and reports itself lost without making any writes — tile
  epochs only ever advance through the winner's check-out.
* **Marks gone before the report** — every attempt (winner, loser,
  failure) drops its in-flight tile marks before it reports, so the
  driver's drain guarantee (``inflight_attempts == 0`` after every
  window) also means no mark is left behind.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from .attempt import run_attempt
from .distributed.scheduling import DynamicScheduler
from .graph import TaskGraph
from .task import Task, TileRef
from .window import ExecutionStats, Report, WindowExecutor, default_workers

__all__ = ["ParallelExecutor", "ExecutionStats", "OrderingViolationError",
           "default_workers"]

#: Attempts out per pool thread while the driver is a lane: one running
#: and one queued behind it, so a thread that finishes while the driver
#: is inside a payload already has its next task.
LANE_DEPTH = 2


class OrderingViolationError(RuntimeError):
    """A task touched a tile out of the recorded dependency order."""


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
        declares no cost) uses them.
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
        self._lock = threading.Lock()
        #: Worker reports, with the attempt number they answer.
        self._resq: "queue.SimpleQueue[Tuple[Report, int]]" = \
            queue.SimpleQueue()
        #: Tile epoch table: ref -> tid of the last *completed* writer.
        self._completed_writer: Dict[TileRef, int] = {}
        #: In-flight access tracking for the race assertions.
        self._writer_active: Dict[TileRef, int] = {}
        self._readers_active: Dict[TileRef, int] = {}
        #: Program-order expectation per not-yet-completed task:
        #: ((ref, last_writer), ...) over its reads and writes, filled
        #: by ``_prepare``.
        self._expected: Dict[int, Tuple[Tuple[TileRef, Optional[int]], ...]] = {}
        self._prep_last_writer: Dict[TileRef, int] = {}
        self._prep_cursor = 0
        self._slot_of_thread: Dict[int, str] = {}
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

    def _open(self, start: int, end: int) -> DynamicScheduler:
        """Every task worker-eligible, one lane over the whole pool (a
        shared-memory pool needs no placement or stealing), and the
        driver as one more lane unless it is watched.  A window that
        does not pay for a hand-off registers no lane and creates no
        pool: the driver lane runs all of it."""
        self._prepare(start, end)
        helps = self.driver_helps
        threads = self._lanes(end - start if self._pays(start, end) else 0)
        if threads and self._pool is None:
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
            pipeline_depth=threads * LANE_DEPTH if helps else threads,
            lookahead=self.lookahead, driver_helps=helps)
        if threads:
            sched.add_worker(0)
        return sched

    def _send(self, lane: Optional[int], tid: int, attempt: int) -> bool:
        if lane is None:  # the driver is a lane: same body, inline
            self._work(tid, attempt, None, None)
            return True
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
        """Unwatched, ``timeout`` is ``None`` unless a retry is pending:
        the loop blocks until a lane reports (at once when the driver
        just ran an attempt itself)."""
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

    # ------------------------------------------------------------------
    # Epoch expectations
    # ------------------------------------------------------------------

    def _prepare(self, start: int, end: int) -> None:
        """Extend the program-order epoch expectations up to ``end``,
        then fold every task before ``start`` that still carries one —
        it ran outside this executor (eager prefix before deferral) or
        was abandoned with a failed window — into the epoch tables as
        if it had run, in program order."""
        tasks = self.graph.tasks
        for tid in range(self._prep_cursor, end):
            t = tasks[tid]
            exp = []
            seen = set()
            for ref in t.reads + t.writes:
                if ref in seen:
                    continue
                seen.add(ref)
                exp.append((ref, self._prep_last_writer.get(ref)))
            self._expected[tid] = tuple(exp)
            for ref in t.writes:
                self._prep_last_writer[ref] = tid
        self._prep_cursor = max(self._prep_cursor, end)
        for tid in sorted(t for t in self._expected if t < start):
            del self._expected[tid]
            for ref in tasks[tid].writes:
                self._completed_writer[ref] = tid
        # Every attempt of a drained window checked out or released on
        # its way out.
        assert not self._writer_active and not self._readers_active, \
            "a drained window left in-flight tile marks behind"

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
        # Backups bypass the scheduler: the task already holds its slot.
        st.backup = self._ledger.next_attempt(t.tid)
        self._inflight += 1
        self._send(0, t.tid, st.backup)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _slot(self) -> str:
        ident = threading.get_ident()
        slot = self._slot_of_thread.get(ident)
        if slot is None:
            slot = f"thr{len(self._slot_of_thread)}"
            self._slot_of_thread[ident] = slot
        return slot

    def _check_in(self, t: Task) -> None:
        """Epoch + concurrent-access assertions; atomic (all checks
        pass before any marking).  Caller holds the lock.  A failed
        attempt advances no epoch, so a retry passes the same checks."""
        writes = set(t.writes)
        for ref, expected in self._expected.get(t.tid, ()):
            got = self._completed_writer.get(ref)
            if got != expected:
                raise OrderingViolationError(
                    f"task {t.tid} ({t.label or t.kind.value}) touched tile "
                    f"{ref} at the wrong epoch: last completed writer is "
                    f"{got}, program order requires {expected}")
        for ref in t.reads:
            if ref in writes:
                continue
            w = self._writer_active.get(ref)
            if w is not None:
                raise OrderingViolationError(
                    f"task {t.tid} reads tile {ref} while task {w} is "
                    f"writing it (missing RAW/WAR edge)")
        for ref in writes:
            w = self._writer_active.get(ref)
            if w is not None:
                raise OrderingViolationError(
                    f"tasks {w} and {t.tid} write tile {ref} concurrently")
            if self._readers_active.get(ref, 0) > 0:
                raise OrderingViolationError(
                    f"task {t.tid} writes tile {ref} while "
                    f"{self._readers_active[ref]} reader(s) are active")
        for ref in t.reads:
            if ref not in writes:
                self._readers_active[ref] = (
                    self._readers_active.get(ref, 0) + 1)
        for ref in writes:
            self._writer_active[ref] = t.tid

    def _release(self, t: Task, completed: bool = False) -> None:
        """Drop an attempt's in-flight marks; a ``completed`` attempt
        also advances the tile epochs, a failed one does not (its
        retry re-acquires the marks).  Caller holds the lock."""
        writes = set(t.writes)
        for ref in t.reads:
            if ref not in writes:
                left = self._readers_active.get(ref, 1) - 1
                if left:
                    self._readers_active[ref] = left
                else:
                    self._readers_active.pop(ref, None)
        for ref in writes:
            self._writer_active.pop(ref, None)
            if completed:
                self._completed_writer[ref] = t.tid
        if completed:
            self._expected.pop(t.tid, None)

    def _work(self, tid: int, attempt: int, st: Optional[_TaskState],
              lane: Optional[int]) -> None:
        """The worker body (pool thread, or the driver when ``lane`` is
        ``None``): one attempt of one task, then one report to the
        dispatch loop — done, failed or lost, the attempt's in-flight
        marks are gone before it reports."""
        t = self.graph.tasks[tid]
        fn = self.fns.get(tid)
        marked = False

        def begin() -> bool:
            # After any injected stall: claim the payload (first
            # claimer wins), assert ordering, then snapshot the write
            # tiles — or restore them if an earlier attempt ran.
            nonlocal marked
            with self._lock:
                if st is not None:
                    if st.finished or st.claimed is not None:
                        return False
                    st.claimed = attempt
                self._check_in(t)
            marked = True
            if fn is not None:
                self._ledger.arm(t)
            return True

        sleep = time.sleep
        if st is not None:
            st.started[attempt] = perf_counter()
            # Interruptible stall: a winner wakes the sleepers.
            sleep = st.cancel[attempt].wait
        res = run_attempt(t, fn, attempt, injector=self.injector,
                          tiles=self.tiles, sanitizer=self.sanitizer,
                          scrub=self.recovery_policy.scrub_writes,
                          sleep=sleep, begin=begin)
        wake = ()
        with self._lock:
            slot = "drv" if lane is None else self._slot()
            done = res.exc is None and not res.lost
            if marked:
                self._release(t, completed=done)
            if st is not None:
                st.started.pop(attempt, None)
                if done:
                    st.finished = True
                    wake = tuple(st.cancel.values())
                elif st.claimed == attempt:
                    st.claimed = None
        # Wake any attempt still sleeping in an injected stall so the
        # window drains promptly (they lose the claim and report lost).
        for ev in wake:
            ev.set()
        self._resq.put((Report(tid, lane, res, slot, -self._epoch), attempt))
