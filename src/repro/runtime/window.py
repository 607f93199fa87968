"""The window driver: one dispatch loop for every real backend.

``Runtime.sync`` hands an executor windows ``[start, end)`` of an
append-only :class:`~repro.runtime.graph.TaskGraph`.  What happens to
a window does not depend on where its tasks run, so it is written
once, here, in six parts:

* **Driver** — :class:`WindowExecutor`: :meth:`~WindowExecutor.run`
  (validate, placement, clock, stats), the accounting of every attempt
  of a window with lanes (:meth:`~WindowExecutor._account`:
  ``ledger.note`` → ``ledger.failed`` | ``settle`` →
  ``stats.record_task`` → successor release), the stall rule,
  ``abandon_window`` and the drain guarantee (``inflight_attempts`` is
  zero after every window).  Every attempt, on any lane, runs one body
  (:meth:`~WindowExecutor._inline`: arm the retry ledger when there is
  a payload, then ``run_attempt``); what escapes it is a final failure
  of the window, never a lost attempt.
* **Placement** — one question, asked once per window and answered
  from what the recorded tasks declare: does this window hold a task
  worth a hand-off (:meth:`~WindowExecutor._pays`, against
  :data:`LANE_MIN_FLOPS`), and if so how many lanes besides the driver
  do its eligible tasks get (:meth:`~WindowExecutor._lanes` of
  :meth:`~WindowExecutor._eligible`) — ``workers=W`` is W lanes on
  every transport, the driver one of them unless it exercises its
  transport.
* **Sweep** — a window that gets no lane besides the driver
  (:meth:`~WindowExecutor._sweep`) runs in program order, the way
  SLATE keeps latency-bound work on the host thread and OpenMP runs
  an undeferred task at once: tid ``k + 1`` after tid ``k``, each
  through ``_inline``, a retry waiting out its backoff in place.  No
  scheduler, no report queue, no transport hook besides ``_inline`` —
  no thread, no fork, nothing pinned into shared memory.  With the
  driver as the only lane and every edge pointing backwards, the
  lowest ready tid after ``k`` is always ``k + 1``, so a scheduler
  could only have answered the same way.  A swept task that succeeds
  costs what an eager one does plus its snapshot release and kernel
  count: no :class:`Report`, no ``_account``, no ``record_task``.  The
  window is accounted once — ``tasks_run``, busy seconds
  (``perf_counter``) and CPU seconds (``thread_time``) timed around
  the whole sweep.  A failed attempt is accounted as it always was,
  and an attached sink still gets one measured event a task.
* **Ordering** — the runtime half of SLATE's ``task depend``
  guarantee, checked by the driver for every transport: a task may
  start only when every tile it reads or writes was last written by
  exactly the task program order says (the tile's *epoch*), and no
  unordered task holding that tile is in flight; anything else is an
  :class:`OrderingViolationError` before the payload runs, never a
  silently wrong tile.  :meth:`~WindowExecutor._epochs` runs once per
  window, in ``run``: it first counts as run whatever ran outside a
  checked window (the eager prefix, tasks abandoned with a failed
  window).  A sweep compares program order with program order, so it
  is checked once, there — every tile of its footprint at its epoch
  — and its tasks are never checked again.  In a window with lanes
  every task gets its expected epochs there, and
  :meth:`~WindowExecutor._hand_out` asserts them each time the task is
  handed to a lane or picked by the driver.  The first hand-out also
  takes the task's in-flight reader/writer *marks*; a retry or a
  replay only re-checks epochs.  The marks go, and the
  epochs advance, when :meth:`~WindowExecutor._account` settles the
  task.  A violation is the window's failure and drains like a stall,
  and a failed window leaves no mark behind.
* **Scheduler** — a window with lanes is run by the
  :meth:`~WindowExecutor._drive` loop; its readiness and one ready
  heap, from which every lane and the helping driver
  take the lowest tid, belong to one
  :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`, the
  class DistSan's explorer and mutant gate model-check; worker deaths
  are revoked and replayed there.
* **Transport** — a subclass that moves attempts to whatever workers
  exist through its hooks: ``_eligible(start, end)`` counts the
  window's tasks that may leave the driver (every window; the
  transport's per-window bookkeeping goes here),
  ``_inline(t, attempt)`` runs one attempt on the calling lane
  (written here; a transport only adds what it alone records),
  and, for a window with lanes only, ``_open(start, end, lanes)``
  builds the window's scheduler and brings up its lanes,
  ``_send(lane, tid, attempt)`` launches one attempt on a lane,
  ``_recv(timeout)`` blocks for :class:`Report`/:class:`Death` items,
  ``_tick(now)`` does periodic work (monitors, heartbeats, injected
  crashes) and says how long the loop may block, ``_shut(failure)``
  ends the window.  :class:`~repro.runtime.parallel.ParallelExecutor`
  is the thread-pool transport,
  :class:`~repro.runtime.distributed.executor.ProcessExecutor` the
  forked-process one.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from .attempt import (NO_RECOVERY, Attempt, RetryLedger, count_kernel,
                      run_attempt)
from .graph import TaskGraph
from .task import Task, TileRef

if TYPE_CHECKING:  # distributed/__init__ imports this module's subclasses
    from .distributed.scheduling import DynamicScheduler

__all__ = ["Death", "ExecutionStats", "LANE_MIN_FLOPS",
           "OrderingViolationError", "Report", "WindowExecutor",
           "WorkerCrashError", "default_workers"]

#: The granularity floor: the smallest declared cost (``Task.flops``)
#: that pays for a hand-off to a lane.  Measured, not tuned: a hand-off
#: costs 100-175 us on this repo's sizing host (perfbench
#: ``distributed.noop_us_per_task`` 103-175; on threads
#: ``parallel.noop_us_per_task`` 51-70 plus
#: ``parallel.contention_us_per_task`` 43-71) and a tile GEMM runs at
#: ``kernels.gemm_gflops`` ~ 19, so moving a task costs what 2-3 Mflop
#: of running it costs.  Anything in 1.1e6-3e6 places every tile size
#: the same way — the largest task at nb <= 64 is a 4 nb^3 = 1.05 Mflop
#: ``unmqr``, at nb >= 96 a 3.5 Mflop one — see the floor sweep in
#: EXPERIMENTS.md.  Elementwise kinds declare element counts (<= nb^2),
#: so a copy/add/norm sweep never reaches it.  A module constant on
#: purpose: not a parameter, an environment variable or a CLI flag.
LANE_MIN_FLOPS = 2e6


class WorkerCrashError(RuntimeError):
    """A worker died and recovery was off (or exhausted)."""


class OrderingViolationError(RuntimeError):
    """A task touched a tile out of the recorded dependency order."""


def default_workers() -> int:
    """Worker-count default: one per core."""
    return max(1, os.cpu_count() or 1)


def _new_recovery_stats() -> Any:
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
    return int(peak if sys.platform == "darwin" else peak * 1024)


@dataclass
class ExecutionStats:
    """Accumulated accounting of a :class:`WindowExecutor`."""

    workers: int = 1
    tasks_run: int = 0
    windows: int = 0
    #: Wall-clock seconds spent inside :meth:`WindowExecutor.run`
    #: (the measured makespan across all execution windows).
    wall_seconds: float = 0.0
    #: Seconds the lanes spent on tasks that succeeded (over all
    #: workers); ``busy_seconds / (wall_seconds * workers)`` is the
    #: measured parallel utilization.  Per attempt in a window with
    #: lanes; per window in a sweep, timed around it, so a sweep's
    #: share includes its own per-task bookkeeping.  Failed attempt
    #: time goes to ``recovery.reexecution_seconds`` instead; a
    #: backoff wait counts nowhere, like any idle lane.
    busy_seconds: float = 0.0
    #: CPU seconds (``time.thread_time``) of the same, per attempt
    #: around its payload or per sweep.  BLAS kernels release the GIL
    #: but still burn CPU, so ``cpu_seconds`` close to ``busy_seconds``
    #: means compute-bound lanes; a large gap means blocking (lock
    #: waits, injected stalls, page faults).
    cpu_seconds: float = 0.0
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
    #: Attempts handed to a lane other than the driver (a pool thread,
    #: a forked worker).  Zero when no window paid for lanes — which is
    #: what a gate whose subject is the transport must refuse to pass on.
    shipped: int = 0
    #: Worker processes forked (processes backend; a window below the
    #: granularity floor forks none).
    forks: int = 0
    #: Live recovery accounting (retries, timeouts, crashes, replays,
    #: injected faults); all-zero on fault-free runs.
    recovery: Any = field(default_factory=_new_recovery_stats)

    @property
    def utilization(self) -> float:
        denom = self.wall_seconds * max(self.workers, 1)
        return self.busy_seconds / denom if denom > 0.0 else 0.0

    def record_task(self, t: Task, t0: float, t1: float, cpu: float,
                    slot: str, sink: Any, counted: bool) -> None:
        """Account one successful attempt of a window with lanes
        (dispatch thread): busy and CPU seconds, the kernel-invocation
        metric when a payload ran, and the measured :class:`TaskEvent`."""
        self.tasks_run += 1
        self.busy_seconds += t1 - t0
        self.cpu_seconds += cpu
        if counted:
            count_kernel(t.kind)
        if sink is not None:
            _task_event(sink, t, t0, t1, cpu, slot)


def _task_event(sink: Any, t: Task, t0: float, t1: float, cpu: float,
                slot: str) -> None:
    """Hand ``sink`` the measured :class:`TaskEvent` of one successful
    attempt of ``t``, timed in seconds since the executor epoch."""
    from ..obs.timeline import TaskEvent
    sink.on_task(TaskEvent(
        tid=t.tid, kind=t.kind.value, rank=t.rank, slot=slot,
        phase=t.phase, flops=t.flops, start=t0, end=t1,
        duration=t1 - t0, label=t.label, measured=True, cpu=cpu))


class Report(NamedTuple):
    """One attempt reported back by a transport."""

    tid: int
    #: Scheduler lane that ran it; ``None`` for the driver.
    lane: Optional[int]
    res: Attempt
    #: Timeline slot label (``thrN``, ``wN``, ``drv``).
    slot: str
    #: Added to ``res.t0``/``res.t1`` (the worker's clock) to get
    #: seconds since the executor epoch.
    shift: float


class Death(NamedTuple):
    """A lane's worker is gone; everything it held must be replayed."""

    lane: int
    #: Why the driver killed it, or ``None`` for an unexpected exit.
    reason: Optional[str]
    #: Attempts that were sent to it and will never report.
    sent: int


class WindowExecutor:
    """Drive execution windows of ``graph`` through a transport."""

    def __init__(self, graph: TaskGraph,
                 fns: Optional[Dict[int, Callable[[], None]]], *,
                 workers: Optional[int], sink: Any,
                 validate: bool, sanitizer: Any, recovery: Any,
                 injector: Any, tiles: Any) -> None:
        self.graph = graph
        self.fns: Dict[int, Callable[[], None]] = {} if fns is None else fns
        self.workers = max(1, int(workers) if workers else default_workers())
        self.sink = sink
        self.validate = validate
        self.sanitizer = sanitizer
        #: ``NO_RECOVERY`` (``recovery=None``) is the zero-budget policy:
        #: the first failure is final and a worker death is fatal.
        self.recovery_policy = NO_RECOVERY if recovery is None else recovery
        self.injector = injector
        self.tiles = tiles
        #: The owning runtime's fault plan and DistSan recorder, on a
        #: transport that has a runtime to ask (processes).
        self.fault_plan: Any = None
        self.recorder: Any = None
        self.stats = ExecutionStats(workers=self.workers)
        #: What the dispatch loop and its retry ledger call "now"
        #: (backoff due times, ``_tick``), and what a sweep waits out a
        #: retry's backoff with; a test transport substitutes a scripted
        #: pair.
        self.clock: Callable[[], float] = perf_counter
        self.sleep: Callable[[float], Any] = time.sleep
        #: Seed of every backoff draw (the fault plan's, when there is one).
        self._seed = int(injector.plan.seed) if injector is not None else 0
        self._epoch: Optional[float] = None
        self._inflight = 0
        #: The running window's scheduler and retry ledger.
        self._sched: Optional[DynamicScheduler] = None
        self._ledger: Optional[RetryLedger] = None
        #: Tasks a failed window left unexecuted (for ``abandon_window``).
        self._unfinished: Sequence[int] = ()
        #: The ordering check's epoch tables: ``ref -> tid`` of a
        #: tile's last completed writer, and of its last writer in
        #: program order among the tasks before ``_cursor``.
        self._done_writer: Dict[TileRef, int] = {}
        self._order_writer: Dict[TileRef, int] = {}
        self._cursor = 0
        #: ``tid -> ((ref, last_writer), ...)`` over its reads and
        #: writes, for every task of a window with lanes not settled yet.
        self._expected: Dict[int, Tuple[Tuple[TileRef, Optional[int]],
                                        ...]] = {}
        #: In-flight marks, held by a task from its first hand-out until
        #: it settles: the tasks holding them, the writer of each tile,
        #: and how many tasks read it.
        self._marked: Set[int] = set()
        self._writing: Dict[TileRef, int] = {}
        self._reading: Dict[TileRef, int] = {}
        if validate:
            graph.validate()

    # -- transport hooks -----------------------------------------------

    def _eligible(self, start: int, end: int) -> int:
        """How many tasks of window ``[start, end)`` may leave the
        driver: all of them when the window pays (:meth:`_pays`), none
        when it does not.  Called once at the start of every window,
        swept or not, before anything runs: a transport that keeps
        per-window bookkeeping, or places tasks one by one, refines the
        count here."""
        return end - start if self._pays(start, end) else 0

    def _inline(self, t: Task, attempt: int) -> Attempt:
        """The attempt body of every lane — the driver's, a pool
        thread's: arm the retry ledger when there is a payload, then
        run attempt ``attempt`` of ``t``.  Arming (a snapshot or a
        restore) is the one step outside :func:`run_attempt`; what it
        raises is not the payload's fault, so it comes back as a final
        failure of the attempt, never retried and never lost."""
        fn = self.fns.get(t.tid)
        if fn is not None:
            assert self._ledger is not None
            try:
                self._ledger.arm(t)
            except Exception as exc:
                now = perf_counter()
                return Attempt(now, now, 0.0, [], exc, False)
        return run_attempt(t, fn, attempt, injector=self.injector,
                           tiles=self.tiles, sanitizer=self.sanitizer,
                           scrub=self.recovery_policy.scrub_writes)

    def _open(self, start: int, end: int, lanes: int) -> DynamicScheduler:
        """Build the scheduler of a window that gets ``lanes`` lanes
        besides the driver, register them, bring up whatever runs
        them."""
        raise NotImplementedError

    def _send(self, lane: int, tid: int, attempt: int) -> bool:
        """Launch attempt ``attempt`` of ``tid`` on ``lane``; ``False``
        when the lane turned out to be gone (its death will follow)."""
        raise NotImplementedError

    def _recv(self, timeout: Optional[float]
              ) -> Iterable[Union[Report, Death]]:
        """Block up to ``timeout`` (``None`` = indefinitely) for the
        next reports and deaths; empty on timeout."""
        raise NotImplementedError

    def _tick(self, now: float) -> Optional[float]:
        """Periodic transport work; returns the longest the loop may
        block before the next tick (``None`` = until something
        reports)."""
        return None

    def _shut(self, failure: Optional[BaseException]) -> None:
        """End the window (also after ``_open`` or ``_drive`` raised)."""

    # -- placement -----------------------------------------------------

    @property
    def exercises_transport(self) -> bool:
        """True on an executor that exists to exercise its transport:
        a *watched* one (fault injector or ``task_timeout`` — attempts
        that may stall, time out or be killed, which only a lane's
        can), or one whose runtime carries a fault plan
        (crashes and network chaos need a worker and a wire) or a
        DistSan recorder.  Every window of it gets lanes, whatever its
        tasks cost: ``repro faults --live``, ``repro lint --dist`` and
        the chaos tests ship tiny tiles on purpose."""
        return (self.injector is not None
                or self.recovery_policy.task_timeout is not None
                or self.fault_plan is not None
                or self.recorder is not None)

    def _pays(self, start: int, end: int) -> bool:
        """The placement question: does window ``[start, end)`` hold a
        task worth a hand-off?  A declared cost of 0 means "not
        judged" (user tasks that declare none keep their lanes).

        Per *window*, not per task: on threads the all-driver window
        beat every mixed placement measured (docs/parallel_backend.md).
        Nothing rebinds a tile any more, so a driver-lane task in a
        forked window is sound; per-task placement is a perf change
        that has to be measured, not a correctness one."""
        if self.exercises_transport:
            return True
        return any(t.flops >= LANE_MIN_FLOPS or t.flops == 0
                   for t in self.graph.tasks[start:end])

    @property
    def driver_helps(self) -> bool:
        """True when the driver is itself an execution lane (OpenMP
        ``taskwait``: the thread that waits works).  A driver that
        exercises its transport only dispatches — it has to keep
        scanning for stalls, timeouts, crashes and heartbeats, and the
        recorded run of a DistSan recorder must cross the wire."""
        return not self.exercises_transport

    def _lanes(self, eligible: int) -> int:
        """The lane arithmetic, once for both transports: how many
        lanes *besides the driver* (pool threads, forked workers) a
        window gets whose ``eligible`` tasks may leave the driver —
        0 (a sweep) for a window that does not pay.  ``workers=W`` is
        W lanes: where the driver helps it is one of them, so
        ``workers=1`` starts nothing; never more lanes than tasks to
        put on them."""
        lanes = min(self.workers, eligible)
        return max(0, lanes - 1) if self.driver_helps else lanes

    # -- lifecycle -----------------------------------------------------

    @property
    def inflight_attempts(self) -> int:
        """Attempts launched but not yet reported back.  Zero after
        every completed :meth:`run` — the no-leak invariant."""
        return self._inflight

    def close(self) -> None:
        """Release the transport's workers and resources (idempotent)."""

    def __enter__(self) -> "WindowExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def abandon_window(self) -> None:
        """Give up on what a failed window left unexecuted, discarding
        the payloads.

        Used by the runtime when the *algorithm* recovers at a higher
        level (e.g. the Cholesky iteration of QDWH falling back to the
        QR iteration after a ``posv`` breakdown): the remaining tasks
        count as run, in program order, and the algorithm re-submits
        fresh work.  Only call once the failed :meth:`run` has drained
        — there must be no attempt in flight."""
        if self._inflight:
            raise RuntimeError(
                f"abandon_window with {self._inflight} attempt(s) still "
                "in flight; the failed run() must drain first")
        for tid in self._unfinished:
            self.fns.pop(tid, None)
        self._unfinished = ()

    def _fault_event(self, kind: str, tid: int, detail: str,
                     rank: int = 0) -> None:
        if self.sink is None or self._epoch is None:
            return
        from ..obs.timeline import FaultEvent
        self.sink.on_fault(FaultEvent(
            kind=kind, time=perf_counter() - self._epoch, rank=rank,
            tid=tid, detail=detail))

    # -- execution -----------------------------------------------------

    def run(self, start: int = 0, end: Optional[int] = None) -> float:
        """Execute tasks ``[start, end)``; returns the window's wall
        seconds.  Dependencies on tasks before ``start`` are treated as
        satisfied (they executed in a previous window or eagerly)."""
        if end is None:
            end = len(self.graph.tasks)
        if self.validate:
            self.graph.validate(end)
        if end <= start:
            return 0.0
        t_wall0 = perf_counter()
        if self._epoch is None:
            self._epoch = t_wall0
        lanes = self._lanes(self._eligible(start, end))
        ledger = self._ledger = RetryLedger(
            self.recovery_policy, self.tiles, self._seed,
            self.stats.recovery, self._fault_event, self.clock)
        self._unfinished = ()
        failure: Optional[BaseException] = self._epochs(start, end, lanes)
        if failure is not None:
            self._unfinished = range(start, end)
        elif lanes:
            try:
                sched = self._sched = self._open(start, end, lanes)
                failure = self._drive(sched, ledger)
            finally:
                self._shut(failure)
            if failure is not None:
                self._unfinished = [tid for tid in range(start, end)
                                    if tid not in sched.done]
                # Drained: what its unsettled tasks hold is not in
                # flight any more.
                self._marked.clear()
                self._writing.clear()
                self._reading.clear()
        else:
            failure = self._sweep(start, end, ledger)
        wall = perf_counter() - t_wall0
        self.stats.wall_seconds += wall
        self.stats.windows += 1
        self.stats.peak_rss_bytes = max(self.stats.peak_rss_bytes,
                                        _peak_rss_bytes())
        if failure is not None:
            raise failure
        return wall

    @staticmethod
    def _stalled(pending: int) -> RuntimeError:
        """The stall rule's error: nothing out, nothing due, nothing
        ready, ``pending`` tasks left."""
        return RuntimeError(
            f"executor stalled with {pending} task(s) unfinished and none "
            "ready — dependency bookkeeping bug or a graph the validator "
            "should have rejected")

    def _epochs(self, start: int, end: int,
                lanes: int) -> Optional[OrderingViolationError]:
        """The ordering check's once-per-window part.  First count every
        task before ``start`` that ran outside a checked window as run,
        in program order: one abandoned with a failed window with lanes
        (it still carries an expectation), then the eager prefix (it
        never got one).  A sweep (``lanes == 0``) is then checked here,
        whole: in program order on one thread each of its tasks finds a
        tile exactly as the one before left it, so the only epochs to
        check are those it starts from — every tile of its footprint,
        before any payload — and both tables advance over its writes.
        A window with lanes instead gives each of its tasks the epochs
        :meth:`_hand_out` expects.  Returns the violation, if any."""
        tasks = self.graph.tasks
        done, order = self._done_writer, self._order_writer
        assert not self._marked, "a window left in-flight tile marks behind"
        for tid in sorted(t for t in self._expected if t < start):
            del self._expected[tid]
            for ref in tasks[tid].writes:
                done[ref] = tid
        for t in tasks[self._cursor:start]:
            for ref in t.writes:
                done[ref] = order[ref] = t.tid
        self._cursor = max(self._cursor, start)
        if lanes:
            for t in tasks[self._cursor:end]:
                self._expected[t.tid] = tuple(
                    (ref, order.get(ref))
                    for ref in dict.fromkeys(t.reads + t.writes))
                for ref in t.writes:
                    order[ref] = t.tid
        else:
            footprint: Set[TileRef] = set()
            last: Dict[TileRef, int] = {}
            for t in tasks[start:end]:
                footprint.update(t.reads)
                footprint.update(t.writes)
                for ref in t.writes:
                    last[ref] = t.tid
            for ref in footprint:
                if done.get(ref) != order.get(ref):
                    return OrderingViolationError(
                        f"window [{start}, {end}) starts from tile {ref} at "
                        f"the wrong epoch: last completed writer is "
                        f"{done.get(ref)}, program order requires "
                        f"{order.get(ref)}")
            done.update(last)
            order.update(last)
        self._cursor = max(self._cursor, end)
        return None

    def _hand_out(self, tid: int) -> Optional[OrderingViolationError]:
        """The ordering check of one hand-out in a window with lanes —
        to a lane, or to the driver itself: every tile ``tid`` touches
        at its expected epoch; at its first hand-out also no unordered
        task holding one of them in flight, and then its marks.  A
        retry or a replay holds its marks already: a held task's tiles
        cannot move, but its epochs are checked again.  Only a task
        that has not settled is ever handed out."""
        expected = self._expected[tid]
        t = self.graph.tasks[tid]
        done = self._done_writer
        for ref, want in expected:
            got = done.get(ref)
            if got != want:
                return OrderingViolationError(
                    f"task {tid} ({t.label or t.kind.value}) touched tile "
                    f"{ref} at the wrong epoch: last completed writer is "
                    f"{got}, program order requires {want}")
        if tid in self._marked:
            return None
        writing, reading = self._writing, self._reading
        reads = [ref for ref in t.reads if ref not in t.writes]
        for ref in reads:
            if ref in writing:
                return OrderingViolationError(
                    f"task {tid} reads tile {ref} while task {writing[ref]} "
                    "is writing it (missing RAW/WAR edge)")
        for ref in t.writes:
            if ref in writing:
                return OrderingViolationError(
                    f"tasks {writing[ref]} and {tid} write tile {ref} "
                    "concurrently")
            if ref in reading:
                return OrderingViolationError(
                    f"task {tid} writes tile {ref} while {reading[ref]} "
                    "reader(s) are active")
        for ref in reads:
            reading[ref] = reading.get(ref, 0) + 1
        for ref in t.writes:
            writing[ref] = tid
        self._marked.add(tid)
        return None

    def _settle(self, t: Task) -> None:
        """Task ``t`` of a window with lanes completed: its writes are
        the tiles' new epochs, and its marks go."""
        self._expected.pop(t.tid, None)
        for ref in t.writes:
            self._done_writer[ref] = t.tid
        self._marked.remove(t.tid)      # marked at its first hand-out
        reading = self._reading
        for ref in t.reads:
            if ref not in t.writes:
                left = reading[ref] - 1
                if left:
                    reading[ref] = left
                else:
                    del reading[ref]
        for ref in t.writes:
            self._writing.pop(ref, None)

    def _sweep(self, start: int, end: int,
               ledger: RetryLedger) -> Optional[BaseException]:
        """Run a window that got no lane besides the driver: its tids
        in program order, each through ``_inline``.  A success releases
        its snapshot and counts its kernel, nothing more; the window's
        ``tasks_run``, busy and CPU seconds are accounted once, timed
        around the sweep less what failed attempts and backoff waits
        took, and only an attached sink gets a measured event a task.
        A failure is accounted as :meth:`_account` does it: a retryable
        one waits out its seeded backoff on :attr:`clock` and re-runs
        before the next tid; a final one stops the sweep, leaving the
        rest of the window to :meth:`abandon_window`.  Returns that
        failure.  Program order is sound only when every edge points
        backwards: unvalidated, a forward edge is refused before
        anything runs."""
        tasks = self.graph.tasks
        if not self.validate and any(t.deps and max(t.deps) >= t.tid
                                     for t in tasks[start:end]):
            self._unfinished = range(start, end)
            return self._stalled(end - start)
        fns, sink = self.fns, self.sink
        inline, settle = self._inline, ledger.settle
        shift = -(self._epoch or 0.0)
        failure: Optional[BaseException] = None
        lost = lost_cpu = 0.0
        wall0, cpu0 = perf_counter(), thread_time()
        for tid in range(start, end):
            t = tasks[tid]
            res = inline(t, 0)
            if res.exc is not None or res.events:
                res, wall, cpu = self._retry_in_place(t, res, ledger)
                lost += wall
                lost_cpu += cpu
                if res.exc is not None:
                    failure = res.exc
                    self._unfinished = range(tid, end)
                    break
            settle(tid)
            if fns.pop(tid, None) is not None:
                count_kernel(t.kind)
            if sink is not None:
                _task_event(sink, t, res.t0 + shift, res.t1 + shift,
                            res.cpu, "drv")
        stats = self.stats
        stats.tasks_run += end - start - len(self._unfinished)
        stats.busy_seconds += max(0.0, perf_counter() - wall0 - lost)
        stats.cpu_seconds += max(0.0, thread_time() - cpu0 - lost_cpu)
        return failure

    def _retry_in_place(self, t: Task, res: Attempt, ledger: RetryLedger
                        ) -> Tuple[Attempt, float, float]:
        """A swept attempt that failed or reported injected faults,
        accounted as :meth:`_account` does it: note its faults; while
        it failed and may be retried, wait out the seeded backoff on
        :attr:`clock` and run the next attempt.  Returns the last
        attempt — a success, or the final failure — and the wall and
        CPU seconds the failed attempts and the waits took."""
        attempt, lost, lost_cpu = 0, 0.0, 0.0
        while True:
            if res.events:
                ledger.note(t, res.events)
            if res.exc is None:
                break
            lost += res.t1 - res.t0
            lost_cpu += res.cpu
            if not ledger.failed(t, res.exc, res.retryable,
                                 res.t1 - res.t0):
                break
            wait0 = perf_counter()
            while not ledger.pop_due(self.clock()):
                self.sleep(ledger.wait(None) or 0.0)
            lost += perf_counter() - wait0
            attempt += 1
            res = self._inline(t, attempt)
        return res, lost, lost_cpu

    def _account(self, sched: DynamicScheduler, ledger: RetryLedger,
                 report: Report, failing: bool) -> Optional[BaseException]:
        """Account one attempt of a window with lanes, wherever it ran:
        its injected faults, then a failure (retried, or final:
        returned) or a success (successors released, snapshot dropped,
        task recorded).  ``failing``: the window already failed, so
        nothing is retried."""
        tid, lane, res, slot, shift = report
        t = self.graph.tasks[tid]
        if res.events:
            ledger.note(t, res.events)
        if res.exc is not None:
            if lane is not None:
                sched.workers[lane].inflight.discard(tid)
            if not ledger.failed(t, res.exc, res.retryable and not failing,
                                 res.t1 - res.t0):
                return res.exc
        else:
            sched.on_done(tid, lane)
            self._settle(t)
            ledger.settle(tid)
            self.stats.record_task(
                t, res.t0 + shift, res.t1 + shift, res.cpu, slot, self.sink,
                self.fns.pop(tid, None) is not None)
        return None

    def _drive(self, sched: DynamicScheduler,
               ledger: RetryLedger) -> Optional[BaseException]:
        """Hand out what the scheduler releases, run the driver's own
        pick, block for reports, account them.  Returns the first final
        failure — a payload's, a fatal worker death, or a stall — once
        every launched attempt has reported back or been revoked."""
        lanes = sched.workers
        failure: Optional[BaseException] = None
        cap: Optional[float] = None

        while True:
            ran = False
            if failure is None:
                now = self.clock()
                if ledger.due:
                    sched.requeue(ledger.pop_due(now))
                cap = self._tick(now)
                # The driver's task is picked first and run last:
                # where the driver is a lane it gets the lowest ready
                # tid (a chain never leaves this thread), and the loop
                # is deaf inside a payload, so the lanes are fed first.
                # Each task is checked as it is handed out, the
                # driver's own before any lane's.
                mine = sched.next_driver()
                if mine is not None:
                    failure = self._hand_out(mine)
                for wid in list(lanes):
                    while failure is None and (
                            nxt := sched.next_for(wid)) is not None:
                        failure = self._hand_out(nxt)
                        if failure is not None:
                            lanes[wid].inflight.discard(nxt)
                        elif self._send(wid, nxt, ledger.next_attempt(nxt)):
                            self._inflight += 1
                            self.stats.shipped += 1
                if mine is not None and failure is None:
                    ran = True
                    res = self._inline(self.graph.tasks[mine],
                                       ledger.next_attempt(mine))
                    failure = self._account(sched, ledger, Report(
                        mine, None, res, "drv", -(self._epoch or 0.0)), False)
            if self._inflight == 0:
                if ran:
                    continue        # nothing out: pick again
                if failure is not None or sched.pending == 0:
                    break
                if not ledger.due and not any(
                        w.inflight or w.suspected
                        for w in sched.alive_workers()):
                    # Nothing out, nothing due, nothing handed out and
                    # no lane the transport is still waiting on.
                    failure = self._stalled(sched.pending)
                    break
            # After a payload of its own the driver only collects what
            # the lanes reported meanwhile; it blocks only when it had
            # nothing to run.
            for item in self._recv(0.0 if ran else ledger.wait(cap)
                                   if failure is None else cap):
                if isinstance(item, Death):
                    err = self._revoke(sched, item)
                    failure = failure or err
                    continue
                self._inflight -= 1
                err = self._account(sched, ledger, item, failure is not None)
                failure = failure or err
        return failure

    def _revoke(self, sched: DynamicScheduler,
                death: Death) -> Optional[BaseException]:
        """A lane died: take back what it held and requeue it, or say
        why the window cannot continue."""
        from ..obs.timeline import FAULT_CRASH, FAULT_REPLAY
        lane, reason = death.lane, death.reason
        inflight = sched.remove_worker(lane)
        self._inflight -= death.sent
        if not inflight and reason is None and sched.pending == 0:
            return None  # clean exit race at window end
        rec = self.stats.recovery
        rec.crashes += 1
        rec.dead_ranks = tuple(rec.dead_ranks) + (lane,)
        rec.revoked_inflight += len(inflight)
        why = reason or "unexpectedly"
        self._fault_event(
            FAULT_CRASH, -1, f"worker {lane} died ({why}); "
            f"{len(inflight)} in-flight", rank=lane)
        if self.recovery_policy is NO_RECOVERY:
            return WorkerCrashError(
                f"worker process {lane} died ({why}) with {len(inflight)} "
                "task(s) in flight and no recovery policy configured")
        budget = 2 * self.workers + 2
        if rec.crashes > budget:
            return WorkerCrashError(
                f"giving up after {rec.crashes} worker crashes "
                f"(budget {budget})")
        # The ledger restores each victim's write tiles when the
        # replay is dispatched.
        for tid in inflight:
            rec.replayed_tasks += 1
            self._fault_event(FAULT_REPLAY, tid,
                              f"replaying task {tid} lost to worker {lane}",
                              rank=lane)
        sched.requeue(inflight)
        return None
