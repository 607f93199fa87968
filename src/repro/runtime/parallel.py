"""Real threaded execution of recorded task graphs.

Everything else in :mod:`repro.runtime` *simulates* concurrency; this
module actually runs it.  A :class:`ParallelExecutor` replays a
recorded :class:`~repro.runtime.graph.TaskGraph` on a
``concurrent.futures.ThreadPoolExecutor``: tasks are dispatched as
their dependency counts drain, exactly the dataflow execution SLATE
gets from OpenMP ``task depend``.  NumPy/BLAS kernels release the GIL,
so independent tiles genuinely overlap on multicore hosts.

Guarantees and safety nets:

* **Dependency order** — a task starts only after every recorded
  dependency finished.  The dispatch ready-queue is a min-heap on task
  id, so a single-worker run executes in exact program order and is
  bit-identical to eager execution.
* **Lookahead window** — like the schedule simulator, an optional
  ``lookahead`` bounds how many program phases past the completed
  prefix may enter the ready queue (SLATE's bounded lookahead panels);
  ``None`` leaves dataflow order unconstrained.
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
  ``perf_counter`` start/finish timestamps, flagged ``measured=True``.
  The schema matches simulated traces, so Chrome-trace export, the
  ASCII Gantt, and stall attribution work unchanged on real runs.

The executor runs *windows* of an append-only graph: a deferred
:class:`~repro.runtime.executor.Runtime` records payload closures and
calls :meth:`ParallelExecutor.run` at every synchronization point
(scalar reduction reads, ``to_array`` gathers), so adaptive numeric
algorithms keep their data-dependent control flow while every window
executes with real concurrency.

Live fault tolerance
--------------------

There is one dispatch loop and one worker body.  Every task attempt —
on this backend's threads, in the processes backend's forked workers
and on its driver lane — runs through
:func:`repro.runtime.attempt.run_attempt`, and every failure is
budgeted by one :class:`~repro.runtime.attempt.RetryLedger` under a
:class:`~repro.resilience.live.RecoveryPolicy`.  ``recovery=None`` is
the zero-budget policy through the same loop: the first failure is
final.  What a run does not use it does not pay for — per-task attempt
state, cancel events, pool headroom and polling exist only on a
*watched* executor (one with a fault injector or a ``task_timeout``),
the only kind whose attempts can stall, time out or be duplicated.

* **Retries** — a retryable payload exception
  (:func:`~repro.runtime.attempt.retryable`: injected transients,
  detected tile corruption, generic transient-looking errors) gets the
  task re-executed up to ``max_retries`` times with seeded exponential
  backoff + jitter.  Because payloads mutate tiles in place, the
  attempt that first claims a payload snapshots the task's write tiles
  and every later one restores them first.  Deterministic failures —
  ``numpy.linalg.LinAlgError`` (numeric breakdown the *algorithm* must
  handle, e.g. Cholesky on a non-SPD iterate), sanitizer findings, and
  :class:`OrderingViolationError` — are never retried.
* **Timeouts & stragglers** (watched) — the dispatch loop polls
  running attempts; one exceeding the wall-clock ``task_timeout``, or
  running ``straggler_factor`` x the rolling mean duration of its
  kind, is flagged (FaultEvent + RecoveryStats) and, if its payload
  has not started yet (it is still inside an injected stall), a
  speculative backup attempt launches.
* **Speculation, first-claimer-wins** (watched) — threads share tile
  memory, so two attempts of one task must never run the payload
  concurrently.  Each attempt *claims* the payload under the executor
  lock before touching any tile; the loser wakes from its
  (interruptible) stall, sees the claim, and reports itself lost
  without making any writes — the "losing attempt's writes" are
  discarded by never being made, and tile epochs only ever advance
  through the winner's check-out.
* **Drain guarantee** — the loop exits only once every launched
  attempt (winners, losers, failures) has reported back and released
  its in-flight tile marks, so :attr:`inflight_attempts` is zero after
  every window — the leak invariant the fault-injection CI job gates
  on.
"""

from __future__ import annotations

import heapq
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from .attempt import (NO_RECOVERY, Attempt, RetryLedger, count_kernel,
                      run_attempt)
from .graph import TaskGraph
from .task import Task, TileRef

__all__ = ["ParallelExecutor", "ExecutionStats", "OrderingViolationError",
           "default_workers"]


class OrderingViolationError(RuntimeError):
    """A task touched a tile out of the recorded dependency order."""


def default_workers() -> int:
    """Worker-count default: one thread per core."""
    return max(1, os.cpu_count() or 1)


def _new_recovery_stats():
    from ..resilience.faults import RecoveryStats
    return RecoveryStats()


def _peak_rss_bytes() -> int:
    """Peak resident set of this process, in bytes (0 if unavailable).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    return int(peak if sys.platform == "darwin" else peak * 1024)


@dataclass
class ExecutionStats:
    """Accumulated accounting of a :class:`ParallelExecutor`."""

    workers: int = 1
    tasks_run: int = 0
    windows: int = 0
    #: Wall-clock seconds spent inside :meth:`ParallelExecutor.run`
    #: (the measured makespan across all execution windows).
    wall_seconds: float = 0.0
    #: Summed per-task execution seconds (over all worker threads);
    #: ``busy_seconds / (wall_seconds * workers)`` is the measured
    #: parallel utilization.  Only winning successful attempts count;
    #: failed/lost attempt time goes to ``recovery.reexecution_seconds``.
    busy_seconds: float = 0.0
    per_kind_seconds: Dict[str, float] = field(default_factory=dict)
    #: Summed per-task *CPU* seconds (``time.thread_time`` around each
    #: payload).  BLAS kernels release the GIL but still burn CPU, so
    #: ``cpu_seconds`` close to ``busy_seconds`` means compute-bound
    #: lanes; a large gap means blocking (lock waits, injected stalls,
    #: page faults).
    cpu_seconds: float = 0.0
    per_kind_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: High-water resident set of the whole process, sampled after
    #: every execution window (bytes; 0 when unavailable).
    peak_rss_bytes: int = 0
    #: Scheduler<->worker control-plane traffic (processes backend
    #: only; tiles travel through shared memory and are not counted
    #: here).  Zero on the threads backend.
    comm_messages: int = 0
    comm_bytes: int = 0
    #: Wire-level retransmission cost paid by the reliable comm layer
    #: (processes backend under network faults).  Kept separate from
    #: ``comm_messages``/``comm_bytes``, which count each application
    #: message exactly once however many times its frame crossed the
    #: wire.
    comm_retrans_messages: int = 0
    comm_retrans_bytes: int = 0
    #: Live recovery accounting (retries, timeouts, speculation,
    #: injected faults); all-zero on fault-free runs.
    recovery: object = field(default_factory=_new_recovery_stats)

    @property
    def utilization(self) -> float:
        denom = self.wall_seconds * max(self.workers, 1)
        return self.busy_seconds / denom if denom > 0.0 else 0.0

    def record_task(self, t: Task, t0: float, t1: float, cpu: float,
                    slot: str, sink, counted: bool) -> None:
        """Account one winning successful attempt (dispatch thread):
        busy and CPU seconds, the kernel-invocation metric when a
        payload ran, and the measured :class:`TaskEvent`."""
        dur = t1 - t0
        kind = t.kind.value
        self.tasks_run += 1
        self.busy_seconds += dur
        self.per_kind_seconds[kind] = (
            self.per_kind_seconds.get(kind, 0.0) + dur)
        if cpu > 0.0:
            self.cpu_seconds += cpu
            self.per_kind_cpu_seconds[kind] = (
                self.per_kind_cpu_seconds.get(kind, 0.0) + cpu)
        if counted:
            count_kernel(t.kind)
        if sink is not None:
            from ..obs.timeline import TaskEvent
            sink.on_task(TaskEvent(
                tid=t.tid, kind=kind, rank=t.rank, slot=slot,
                phase=t.phase, flops=t.flops, start=t0, end=t1,
                duration=dur, label=t.label, measured=True, cpu=cpu))


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


class ParallelExecutor:
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
        Thread-pool size (default: one per core).  ``workers=1``
        executes in exact program order.
    lookahead:
        Optional phase-window bound on the ready queue (``None`` =
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
        self.graph = graph
        self.fns = {} if fns is None else fns
        self.workers = max(1, int(workers) if workers else default_workers())
        self.lookahead = lookahead
        self.sink = sink
        self.validate = validate
        self.sanitizer = sanitizer
        self.recovery_policy = NO_RECOVERY if recovery is None else recovery
        self.injector = injector
        self.tiles = tiles
        #: Watched: attempts may stall, time out or be speculatively
        #: duplicated, so the loop tracks per-attempt state and polls.
        self._watch = (injector is not None
                       or self.recovery_policy.task_timeout is not None)
        self.stats = ExecutionStats(workers=self.workers)
        if validate:
            graph.validate()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        #: Worker reports: ``(tid, attempt, slot label, outcome)``.
        self._resq: "queue.Queue[Tuple[int, int, str, Attempt]]" = \
            queue.Queue()
        #: Tasks whose effects are visible (executed here or accounted
        #: as an eager/pre-window execution).
        self._done: Dict[int, bool] = {}
        #: Tile epoch table: ref -> tid of the last *completed* writer.
        self._completed_writer: Dict[TileRef, int] = {}
        #: In-flight access tracking for the race assertions.
        self._writer_active: Dict[TileRef, int] = {}
        self._readers_active: Dict[TileRef, int] = {}
        #: Program-order expectation per task: ((ref, last_writer), ...)
        #: over the task's reads and writes, filled by ``_prepare``.
        self._expected: Dict[int, Tuple[Tuple[TileRef, Optional[int]], ...]] = {}
        self._prep_last_writer: Dict[TileRef, int] = {}
        self._prep_cursor = 0
        #: First tid not yet accounted for (executed or external).
        self._floor = 0
        self._epoch: Optional[float] = None
        self._slot_of_thread: Dict[int, str] = {}
        self._inflight = 0
        #: Watched executors only: per-task attempt state of the
        #: current window, and completed-sample counts per kind (the
        #: straggler mean is ``stats.per_kind_seconds / count``).
        self._states: Dict[int, _TaskState] = {}
        self._kind_n: Dict[str, int] = {}
        #: The running window's retry ledger (set by ``_drive``).
        self._ledger: Optional[RetryLedger] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def inflight_attempts(self) -> int:
        """Attempts launched but not yet reported back.  Zero after
        every completed :meth:`run` — the no-leak invariant."""
        return self._inflight

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            size = self.workers
            if self._watch:
                # Headroom so speculative backups and retries are not
                # queued behind stall-sleeping originals: primaries are
                # still gated at `workers` by the dispatch loop, the
                # extra threads only soak recovery attempts.
                size += max(2, self.workers)
            self._pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-exec")
        return self._pool

    # ------------------------------------------------------------------
    # Window preparation
    # ------------------------------------------------------------------

    def _prepare(self, end: int) -> None:
        """Extend the program-order epoch expectations up to ``end``."""
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

    def _account_external(self, upto: int) -> None:
        """Tasks in ``[floor, upto)`` ran outside this executor (eager
        prefix before deferral was enabled); fold their effects into
        the epoch tables so later windows see consistent state."""
        tasks = self.graph.tasks
        for tid in range(self._floor, upto):
            self._done[tid] = True
            self._expected.pop(tid, None)
            for ref in tasks[tid].writes:
                self._completed_writer[ref] = tid
        self._floor = max(self._floor, upto)

    def abandon_window(self) -> None:
        """Fold every prepared-but-unexecuted task into the epoch
        tables as if it had run (program order), discarding payloads.

        Used by the runtime after a window failed mid-execution and
        the *algorithm* recovers at a higher level (e.g. the Cholesky
        iteration of QDWH falling back to the QR iteration after a
        ``posv`` breakdown): the failed window's remaining tasks are
        dropped wholesale, and the algorithm re-submits fresh work
        whose epoch expectations then chain off these folded writes.
        Only call once the failed :meth:`run` has drained — there must
        be no attempt in flight.
        """
        if self._inflight:
            raise RuntimeError(
                f"abandon_window with {self._inflight} attempt(s) still "
                "in flight; the failed run() must drain first")
        tasks = self.graph.tasks
        with self._lock:
            for tid in sorted(self._expected):
                self._done[tid] = True
                for ref in tasks[tid].writes:
                    self._completed_writer[ref] = tid
                self.fns.pop(tid, None)
            self._expected.clear()
            # Every attempt of the drained window checked out or
            # released on its way out.
            assert not self._writer_active and not self._readers_active, \
                "a drained window left in-flight tile marks behind"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, start: int = 0, end: Optional[int] = None) -> float:
        """Execute tasks ``[start, end)``; returns the window's wall
        seconds.  Dependencies on tasks before ``start`` are treated as
        satisfied (they executed in a previous window or eagerly)."""
        tasks = self.graph.tasks
        if end is None:
            end = len(tasks)
        if self.validate:
            self.graph.validate(end)
        self._prepare(end)
        if start > self._floor:
            self._account_external(start)
        if end <= start:
            return 0.0
        self._floor = end

        # Window-local dependency bookkeeping.
        indeg: Dict[int, int] = {}
        succ: Dict[int, List[int]] = {}
        for tid in range(start, end):
            cnt = 0
            for d in tasks[tid].deps:
                if d >= start and not self._done.get(d, False):
                    succ.setdefault(d, []).append(tid)
                    cnt += 1
            indeg[tid] = cnt

        # Lookahead gate over program phases (panel steps).
        phase_remaining: Dict[int, int] = {}
        for tid in range(start, end):
            p = tasks[tid].phase
            phase_remaining[p] = phase_remaining.get(p, 0) + 1
        phases = sorted(phase_remaining)
        prefix_idx = 0  # index into `phases` of the oldest open phase

        def gate_open(p: int) -> bool:
            if self.lookahead is None:
                return True
            prefix = phases[prefix_idx] if prefix_idx < len(phases) else p
            return p <= prefix + self.lookahead

        ready: List[int] = []
        parked: Dict[int, List[int]] = {}

        def make_eligible(tid: int) -> None:
            p = tasks[tid].phase
            if gate_open(p):
                heapq.heappush(ready, tid)
            else:
                parked.setdefault(p, []).append(tid)

        def on_complete(tid: int) -> None:
            """Successor release + phase-gate advance for a finished
            task (dispatch thread only)."""
            nonlocal prefix_idx
            for s in succ.get(tid, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    make_eligible(s)
            p = tasks[tid].phase
            phase_remaining[p] -= 1
            if phase_remaining[p] == 0:
                while (prefix_idx < len(phases)
                       and phase_remaining[phases[prefix_idx]] == 0):
                    prefix_idx += 1
                if self.lookahead is not None:
                    limit = ((phases[prefix_idx] if prefix_idx < len(phases)
                              else p) + self.lookahead)
                    for pp in [q for q in parked if q <= limit]:
                        for tid2 in parked.pop(pp):
                            heapq.heappush(ready, tid2)

        for tid in range(start, end):
            if indeg[tid] == 0:
                make_eligible(tid)

        self._ensure_pool()
        t_wall0 = perf_counter()
        if self._epoch is None:
            self._epoch = t_wall0
        n_window = end - start

        failure = self._drive(tasks, n_window, ready, on_complete)

        wall = perf_counter() - t_wall0
        self.stats.wall_seconds += wall
        self.stats.windows += 1
        self.stats.peak_rss_bytes = max(self.stats.peak_rss_bytes,
                                        _peak_rss_bytes())
        if failure is not None:
            raise failure
        return wall

    # -- dispatch loop -------------------------------------------------

    def _drive(self, tasks, n_window: int, ready: List[int],
               on_complete) -> Optional[BaseException]:
        """Launch ready tasks and due retries up to ``workers`` in
        flight, block for the next report, account it.  Returns the
        first final failure once every launched attempt has reported
        back.  Blocks indefinitely unless a retry is pending or the
        executor is watched (then it polls and runs the monitor)."""
        pol = self.recovery_policy
        rec = self.stats.recovery
        ledger = self._ledger = RetryLedger(
            pol, self.tiles,
            self.injector.plan.seed if self.injector is not None else 0,
            rec, self._fault_event)
        poll = pol.poll_interval if self._watch else None
        states = self._states
        states.clear()
        epoch = self._epoch
        completed = 0
        failure: Optional[BaseException] = None

        while True:
            if failure is None:
                if ledger.due:
                    for tid in ledger.pop_due(perf_counter()):
                        self._launch(tid)
                while ready and self._inflight < self.workers:
                    self._launch(heapq.heappop(ready))
            if self._inflight == 0:
                if completed >= n_window or failure is not None:
                    break
                if not ledger.due:
                    raise RuntimeError(
                        f"executor stalled with {n_window - completed} "
                        "task(s) unfinished and none ready — dependency "
                        "bookkeeping bug or a graph the validator should "
                        "have rejected")
            try:
                tid, attempt, slot, res = self._resq.get(
                    True, ledger.wait(poll) if failure is None else poll)
            except queue.Empty:
                if self._watch and failure is None:
                    self._monitor(pol, rec)
                continue
            self._inflight -= 1
            t = tasks[tid]
            if res.events:
                ledger.note(t, res.events)
            st = states.get(tid)
            if st is not None:
                st.started.pop(attempt, None)
            if res.lost:
                # A losing speculative attempt: it never claimed the
                # payload and made no writes; its slept time is pure
                # recovery overhead.
                rec.reexecution_seconds += max(0.0, res.t1 - res.t0)
            elif res.exc is not None:
                if not ledger.failed(t, res.exc,
                                     res.retryable and failure is None,
                                     res.t1 - res.t0):
                    failure = failure or res.exc
            else:
                completed += 1
                ledger.settle(tid)
                if st is not None:
                    if st.backup == attempt:
                        rec.speculation_wins += 1
                    kind = t.kind.value
                    self._kind_n[kind] = self._kind_n.get(kind, 0) + 1
                self.stats.record_task(
                    t, res.t0 - epoch, res.t1 - epoch, res.cpu, slot,
                    self.sink, self.fns.pop(tid, None) is not None)
                if failure is None:
                    on_complete(tid)
        return failure

    def _launch(self, tid: int, backup: bool = False) -> None:
        a = self._ledger.next_attempt(tid)
        st = None
        if self._watch:
            st = self._states.get(tid)
            if st is None:
                st = self._states[tid] = _TaskState()
            with self._lock:  # st.cancel is iterated by finishing winners
                st.cancel[a] = threading.Event()
                if backup:
                    st.backup = a
        self._inflight += 1
        self._pool.submit(self._work, tid, a, st)

    def _fault_event(self, kind: str, tid: int, detail: str,
                     rank: int = 0) -> None:
        if self.sink is None or self._epoch is None:
            return
        from ..obs.timeline import FaultEvent
        self.sink.on_fault(FaultEvent(
            kind=kind, time=perf_counter() - self._epoch, rank=rank,
            tid=tid, detail=detail))

    # -- watched executors: timeouts, stragglers, speculation ----------

    def _monitor(self, pol, rec) -> None:
        """Timeout + straggler scan over running attempts; launches
        speculative backups for unclaimed attempts (dispatch thread)."""
        from ..obs.timeline import FAULT_SPECULATE, FAULT_TIMEOUT
        now = perf_counter()
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
        self._launch(t.tid, backup=True)

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
        pass before any marking).  Caller holds the lock.  On a retry
        the epoch expectation was already consumed by the first
        attempt, so only the concurrency assertions re-run."""
        writes = set(t.writes)
        for ref, expected in self._expected.pop(t.tid, ()):
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
            self._done[t.tid] = True

    def _work(self, tid: int, attempt: int,
              st: Optional[_TaskState]) -> None:
        """The worker body: one attempt of one task, then one report
        to the dispatch loop — done, failed or lost, the attempt's
        in-flight marks are gone before it reports."""
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
            slot = self._slot()
            done = res.exc is None and not res.lost
            if marked:
                self._release(t, completed=done)
            if st is not None:
                if done:
                    st.finished = True
                    wake = tuple(st.cancel.values())
                elif st.claimed == attempt:
                    st.claimed = None
        # Wake any attempt still sleeping in an injected stall so the
        # window drains promptly (they lose the claim and report lost).
        for ev in wake:
            ev.set()
        self._resq.put((tid, attempt, slot, res))
