"""The window driver: one dispatch loop for every real backend.

``Runtime.sync`` hands an executor windows ``[start, end)`` of an
append-only :class:`~repro.runtime.graph.TaskGraph`.  What happens to
a window does not depend on where its tasks run, so it is written
once, here, in three parts:

* **Driver** — :class:`WindowExecutor`: :meth:`~WindowExecutor.run`
  (validate, clock, stats), the one :meth:`~WindowExecutor._drive`
  loop, the accounting of every reported attempt (``ledger.note`` →
  ``ledger.failed`` | ``settle`` → ``stats.record_task`` → successor
  release), worker-death revocation and replay, the stall rule,
  ``abandon_window`` and the drain guarantee (``inflight_attempts`` is
  zero after every window).
* **Scheduler** — every window's readiness, lookahead gate, placement
  and stealing belong to one
  :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`, the
  class DistSan's explorer and mutant gate model-check.
* **Placement** — one question, asked once per window and answered
  from what the recorded tasks declare: does this window hold a task
  worth a hand-off (:meth:`~WindowExecutor._pays`, against
  :data:`LANE_MIN_FLOPS`)?  A window that answers no gets no lanes at
  all — no thread, no fork, nothing pinned into shared memory — and
  runs on the driver lane through the transport's own attempt body,
  the way SLATE keeps latency-bound work on the host; a window that
  answers yes gets :meth:`~WindowExecutor._lanes` lanes besides the
  driver — ``workers=W`` is W lanes on every transport, the driver one
  of them unless it exercises its transport — and is placed by its
  transport.
* **Transport** — a subclass that moves attempts to whatever workers
  exist through at most five hooks: ``_open(start, end)`` builds the
  window's scheduler and registers lanes, ``_send(lane, tid, attempt)``
  launches one attempt (``lane=None`` is the driver lane),
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
from dataclasses import dataclass, field
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, NamedTuple,
                    Optional, Sequence, Union)

from .attempt import NO_RECOVERY, Attempt, RetryLedger, count_kernel
from .graph import TaskGraph
from .task import Task

if TYPE_CHECKING:  # distributed/__init__ imports this module's subclasses
    from .distributed.scheduling import DynamicScheduler

__all__ = ["Death", "ExecutionStats", "LANE_MIN_FLOPS", "Report",
           "WindowExecutor", "WorkerCrashError", "default_workers"]

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
    #: Summed per-task execution seconds (over all workers);
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
    #: Attempts handed to a lane other than the driver (a pool thread,
    #: a forked worker).  Zero when no window paid for lanes — which is
    #: what a gate whose subject is the transport must refuse to pass on.
    shipped: int = 0
    #: Worker processes forked (processes backend; a window below the
    #: granularity floor forks none).
    forks: int = 0
    #: Live recovery accounting (retries, timeouts, speculation,
    #: injected faults); all-zero on fault-free runs.
    recovery: Any = field(default_factory=_new_recovery_stats)

    @property
    def utilization(self) -> float:
        denom = self.wall_seconds * max(self.workers, 1)
        return self.busy_seconds / denom if denom > 0.0 else 0.0

    def record_task(self, t: Task, t0: float, t1: float, cpu: float,
                    slot: str, sink: Any, counted: bool) -> None:
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


class Report(NamedTuple):
    """One attempt reported back by a transport."""

    tid: int
    #: Scheduler lane that ran it; ``None`` for the driver lane.
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
                 workers: Optional[int], lookahead: Optional[int], sink: Any,
                 validate: bool, sanitizer: Any, recovery: Any,
                 injector: Any, tiles: Any) -> None:
        self.graph = graph
        self.fns: Dict[int, Callable[[], None]] = {} if fns is None else fns
        self.workers = max(1, int(workers) if workers else default_workers())
        self.lookahead = lookahead
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
        #: (backoff due times, ``_tick``); a test transport substitutes
        #: a scripted clock.
        self.clock: Callable[[], float] = perf_counter
        #: Seed of every backoff draw (the fault plan's, when there is one).
        self._seed = int(injector.plan.seed) if injector is not None else 0
        self._epoch: Optional[float] = None
        self._inflight = 0
        #: The running window's scheduler and retry ledger.
        self._sched: Optional[DynamicScheduler] = None
        self._ledger: Optional[RetryLedger] = None
        #: Tasks a failed window left unexecuted (for ``abandon_window``).
        self._unfinished: Sequence[int] = ()
        if validate:
            graph.validate()

    # -- transport hooks -----------------------------------------------

    def _open(self, start: int, end: int) -> DynamicScheduler:
        """Build the window's scheduler, register its lanes, bring up
        whatever runs them."""
        raise NotImplementedError

    def _send(self, lane: Optional[int], tid: int, attempt: int) -> bool:
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
        that may stall, time out, be duplicated or killed, which only
        a lane's can), or one whose runtime carries a fault plan
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
        0 for a window that does not pay.  ``workers=W`` is W lanes:
        where the driver helps it is one of them, so ``workers=1``
        starts nothing; never more lanes than tasks to put on them."""
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
        failure: Optional[BaseException] = None
        try:
            sched = self._sched = self._open(start, end)
            failure = self._drive(sched)
        finally:
            self._shut(failure)
        self._unfinished = () if failure is None else [
            tid for tid in range(start, end) if tid not in sched.done]
        wall = perf_counter() - t_wall0
        self.stats.wall_seconds += wall
        self.stats.windows += 1
        self.stats.peak_rss_bytes = max(self.stats.peak_rss_bytes,
                                        _peak_rss_bytes())
        if failure is not None:
            raise failure
        return wall

    def _drive(self, sched: DynamicScheduler) -> Optional[BaseException]:
        """Hand out what the scheduler releases, block for reports,
        account them.  Returns the first final failure — a payload's, a
        fatal worker death, or a stall — once every launched attempt
        has reported back or been revoked."""
        tasks = self.graph.tasks
        rec = self.stats.recovery
        ledger = self._ledger = RetryLedger(
            self.recovery_policy, self.tiles, self._seed, rec,
            self._fault_event, self.clock)
        lanes = sched.workers
        failure: Optional[BaseException] = None
        cap: Optional[float] = None

        while True:
            if failure is None:
                now = self.clock()
                if ledger.due:
                    sched.requeue(tid for tid in ledger.pop_due(now)
                                  if tid not in sched.done)
                cap = self._tick(now)
                # The driver's task is picked first and run last:
                # where the driver is a lane it gets the lowest ready
                # tid (a chain never leaves this thread), and the loop
                # is deaf inside a payload, so the lanes are fed first.
                mine = sched.next_driver()
                for wid in list(lanes):
                    while (nxt := sched.next_for(wid)) is not None:
                        if self._send(wid, nxt, ledger.next_attempt(nxt)):
                            self._inflight += 1
                            self.stats.shipped += 1
                if mine is not None and self._send(
                        None, mine, ledger.next_attempt(mine)):
                    self._inflight += 1
            if self._inflight == 0:
                if failure is not None or sched.pending == 0:
                    break
                if not ledger.due and not any(
                        w.inflight or w.suspected
                        for w in sched.alive_workers()):
                    # Nothing out, nothing due, nothing handed out and
                    # no lane the transport is still waiting on.
                    failure = RuntimeError(
                        f"executor stalled with {sched.pending} task(s) "
                        "unfinished and none ready — dependency "
                        "bookkeeping bug or a graph the validator "
                        "should have rejected")
                    break
            for item in self._recv(ledger.wait(cap) if failure is None
                                   else cap):
                if isinstance(item, Death):
                    err = self._revoke(sched, item)
                    failure = failure or err
                    continue
                tid, lane, res, slot, shift = item
                self._inflight -= 1
                t = tasks[tid]
                if res.events:
                    ledger.note(t, res.events)
                if res.lost:
                    # A losing speculative attempt: it never claimed
                    # the payload and made no writes; its slept time is
                    # pure recovery overhead.
                    rec.reexecution_seconds += max(0.0, res.t1 - res.t0)
                elif res.exc is not None:
                    if lane is not None:
                        lanes[lane].inflight.discard(tid)
                    if not ledger.failed(t, res.exc,
                                         res.retryable and failure is None,
                                         res.t1 - res.t0):
                        failure = failure or res.exc
                else:
                    sched.on_done(tid, lane)
                    ledger.settle(tid)
                    self.stats.record_task(
                        t, res.t0 + shift, res.t1 + shift, res.cpu, slot,
                        self.sink,
                        self.fns.pop(tid, None) is not None)
        return failure

    def _revoke(self, sched: DynamicScheduler,
                death: Death) -> Optional[BaseException]:
        """A lane died: take back what it held and requeue it, or say
        why the window cannot continue."""
        from ..obs.timeline import FAULT_CRASH, FAULT_REPLAY
        lane, reason = death.lane, death.reason
        queued, inflight = sched.remove_worker(lane)
        self._inflight -= death.sent
        if not queued and not inflight and reason is None \
                and sched.pending == 0:
            return None  # clean exit race at window end
        rec = self.stats.recovery
        rec.crashes += 1
        rec.dead_ranks = tuple(rec.dead_ranks) + (lane,)
        rec.revoked_inflight += len(inflight)
        why = reason or "unexpectedly"
        self._fault_event(
            FAULT_CRASH, -1, f"worker {lane} died ({why}); "
            f"{len(inflight)} in-flight, {len(queued)} queued", rank=lane)
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
        sched.requeue(queued + inflight)
        return None
