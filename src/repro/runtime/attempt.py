"""One task attempt and one retry ledger, shared by every transport.

What it means to *run one attempt of a task* and to *decide what its
failure means* does not depend on where the attempt runs.  The thread
workers of :class:`~repro.runtime.parallel.ParallelExecutor`, the forked
workers of :mod:`repro.runtime.distributed.worker` and the driver lane
of :class:`~repro.runtime.distributed.ProcessExecutor` all call
:func:`run_attempt`, and every failure is classified by
:func:`retryable`.  The dispatch loop
(:class:`~repro.runtime.window.WindowExecutor`) keeps its retry
budgets, backoff heap, write-tile snapshots and recovery accounting in
a per-window :class:`RetryLedger`; :func:`resolve_recovery` is the one
place a fault plan without a policy gets the default
:class:`RecoveryPolicy`; :func:`count_kernel` is the one
``kernel.invocations.*`` publisher.  Every task has at most one live
attempt on every transport, as under OpenMP: a retry is launched only
after the attempt before it reported.  What stays with the transports
is what only they have: a pool and a timeout count on threads; worker
death, replay and heartbeats on processes.
"""

from __future__ import annotations

import heapq
import time
from time import perf_counter, thread_time
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

from ..resilience.live import (InjectedTransientError, LiveFaultInjector,
                               RecoveryPolicy, TileAccessor,
                               TileCorruptionDetected)
from .task import Task, TaskKind

__all__ = ["Attempt", "NO_RECOVERY", "RetryLedger", "count_kernel",
           "resolve_recovery", "retryable", "run_attempt"]

#: ``(kind, detail)`` — an injected fault observed inside an attempt;
#: ``kind`` is ``FAULT_STALL`` or ``FAULT_CORRUPTION``.
AttemptEvent = Tuple[str, str]

#: What ``recovery=None`` means to an executor: no retries, no
#: timeouts, no heartbeats — the first failure is final.
NO_RECOVERY = RecoveryPolicy(max_retries=0, poll_interval=0.05,
                             heartbeat_interval=None)

_KERNEL_COUNTERS: Dict[TaskKind, Any] = {}


def count_kernel(kind: TaskKind) -> None:
    """Publish one kernel invocation to the process-wide registry.

    Called from exactly one place per executed payload: eager
    ``Runtime.submit``, or an executor's completion accounting — never
    both, and never for payload-less (symbolic) tasks."""
    counter = _KERNEL_COUNTERS.get(kind)
    if counter is None:
        from ..obs.metrics import get_registry
        counter = _KERNEL_COUNTERS[kind] = get_registry().counter(
            f"kernel.invocations.{kind.value}")
    counter.inc()


def retryable(exc: BaseException) -> bool:
    """Whether re-running the payload could help.

    Injected transients and detected tile corruption always can.
    Deterministic failures cannot: ``LinAlgError`` (numeric breakdown
    the *algorithm* must handle, e.g. Cholesky on a non-SPD iterate),
    ordering violations and sanitizer findings reproduce identically.
    Comm errors carry their own verdict; non-``Exception`` exits
    (``KeyboardInterrupt``) are never retried."""
    from .distributed.comm import CommError
    from .window import OrderingViolationError
    if isinstance(exc, (InjectedTransientError, TileCorruptionDetected)):
        return True
    if not isinstance(exc, Exception):
        return False
    if isinstance(exc, (OrderingViolationError, np.linalg.LinAlgError)):
        return False
    if isinstance(exc, CommError):
        return exc.retryable
    return not type(exc).__module__.startswith("repro.analysis")


def resolve_recovery(plan: Any, policy: Optional[RecoveryPolicy],
                     matrices: Any) -> Tuple[Optional[RecoveryPolicy],
                                             Optional[LiveFaultInjector],
                                             Optional[TileAccessor]]:
    """``(policy, injector, tiles)`` for an executor.

    A plan that can hurt a run — live in-payload faults, rank crashes,
    network chaos — without an explicit policy gets the default one,
    with write scrubbing on when the plan injects corruption (an
    injected NaN could otherwise never be detected and retried)."""
    injector = None
    if plan is not None:
        inj = LiveFaultInjector(plan)
        if inj.active:
            injector = inj
        net = plan.net
        if policy is None and (injector is not None or plan.crashes
                               or (net is not None and not net.empty)):
            policy = RecoveryPolicy(scrub_writes=bool(plan.corruptions))
    tiles = TileAccessor(matrices) if policy is not None else None
    return policy, injector, tiles


class Attempt(NamedTuple):
    """Outcome of one :func:`run_attempt`."""

    #: ``perf_counter`` at payload start (attempt entry if it never
    #: started) and at the end of the attempt.
    t0: float
    t1: float
    #: Thread CPU seconds of the payload.
    cpu: float
    events: List[AttemptEvent]
    #: ``None`` on success.
    exc: Optional[BaseException]
    retryable: bool


def run_attempt(t: Task, fn: Optional[Callable[[], None]], attempt: int, *,
                injector: Any = None, tiles: Any = None,
                sanitizer: Any = None, scrub: bool = False) -> Attempt:
    """Run attempt number ``attempt`` of task ``t`` with payload ``fn``.

    An injected pre-payload stall is a plain ``time.sleep``.  Every
    exception is caught and classified."""
    tid = t.tid
    events: List[AttemptEvent] = []
    # Attempt entry until the injected faults are drawn, then payload
    # start.
    t0 = perf_counter()
    cpu = 0.0
    try:
        if injector is not None:
            stall = injector.stall_seconds(tid, t.kind.value, attempt)
            if stall > 0.0:
                events.append(("stall", f"injected stall {stall * 1e3:.0f}ms "
                                        f"(attempt {attempt})"))
                time.sleep(stall)
            if fn is not None and injector.transient_fires(tid, attempt):
                raise InjectedTransientError(
                    f"injected transient on task {tid} attempt {attempt}")
            t0 = perf_counter()
        if fn is not None:
            c0 = thread_time()
            if sanitizer is not None and t.sanitize:
                with sanitizer.task_scope(t):
                    fn()
            else:
                fn()
            cpu = thread_time() - c0
            if tiles is not None and (scrub or injector is not None):
                _inject_and_scrub(t, attempt, injector, tiles, scrub, events)
        t1 = perf_counter()
    except BaseException as exc:
        return Attempt(t0, perf_counter(), cpu, events, exc, retryable(exc))
    return Attempt(t0, t1, cpu, events, None, False)


def _inject_and_scrub(t: Task, attempt: int, injector: Any, tiles: Any,
                      scrub: bool, events: List[AttemptEvent]) -> None:
    """Post-payload corruption draw, then the non-finite scan."""
    injected = False
    if injector is not None:
        corr = injector.corruption_for(t.tid, t.kind.value, attempt,
                                       len(t.writes))
        if corr is not None:
            ref = t.writes[corr[0]]
            if tiles.corrupt(ref, corr[1]):
                injected = True
                events.append(("corruption",
                               f"injected {corr[1]} into tile {ref}"))
    if scrub:
        bad = tiles.nonfinite(t.writes)
        if bad:
            if not injected:
                events.append(("corruption",
                               f"non-finite output tiles {bad}"))
            raise TileCorruptionDetected(
                f"task {t.tid} produced non-finite tiles {bad}")


class RetryLedger:
    """Retry budgets, backoff schedule and write-tile snapshots of one
    execution window (dispatch thread only, except :meth:`arm`).

    ``rec`` is the executor's :class:`RecoveryStats`; ``emit(kind, tid,
    detail, rank)`` publishes a :class:`FaultEvent`; ``clock`` is the
    driver's (backoff due times are read off it, never off the wall).
    Snapshots are taken only when a retry could use them
    (``max_retries > 0`` and a :class:`TileAccessor`)."""

    def __init__(self, policy: RecoveryPolicy, tiles: Any, seed: int,
                 rec: Any, emit: Callable[[str, int, str, int], None],
                 clock: Callable[[], float] = perf_counter) -> None:
        self.policy = policy
        self.tiles = tiles if policy.max_retries > 0 else None
        self.seed = seed
        self.rec = rec
        self.emit = emit
        self.clock = clock
        self._launched: Dict[int, int] = {}
        self._retries: Dict[int, int] = {}
        self._snapshots: Dict[int, Any] = {}
        #: ``(due time on clock, tid)`` backoff heap.
        self.due: List[Tuple[float, int]] = []

    def next_attempt(self, tid: int) -> int:
        """Number the attempt about to be launched (0, 1, ...): the
        key of every seeded fault draw."""
        a = self._launched.get(tid, 0)
        self._launched[tid] = a + 1
        return a

    def arm(self, t: Task) -> None:
        """Payloads mutate tiles in place: snapshot ``t``'s write
        tiles before its first run, restore them before any re-run
        (retry or replay).  Called by whoever holds the exclusive
        right to run the payload next — the thread attempt about to
        run it, or the processes driver right before dispatch (a
        SIGKILL must never outrun the snapshot)."""
        if self.tiles is None:
            return
        snap = self._snapshots.get(t.tid)
        if snap is None:
            self._snapshots[t.tid] = self.tiles.snapshot(t.writes)
        else:
            self.tiles.restore(snap)

    def settle(self, tid: int) -> None:
        """``tid`` completed: its snapshot is garbage."""
        self._snapshots.pop(tid, None)

    def note(self, t: Task, events: Iterable[AttemptEvent],
             rank: Optional[int] = None) -> None:
        """Account the injected faults an attempt reported."""
        rec = self.rec
        for kind, detail in events:
            if kind == "stall":
                rec.injected_stalls += 1
            elif kind == "corruption":
                rec.corrupted_tiles += 1
            self.emit(kind, t.tid, detail, t.rank if rank is None else rank)

    def failed(self, t: Task, exc: BaseException, may_retry: bool,
               lost_seconds: float) -> bool:
        """Account a failed attempt; ``True`` when a retry is now
        scheduled, ``False`` when the failure is final (not retryable,
        budget spent, or ``may_retry`` already false because the
        window is failing)."""
        from ..obs.timeline import FAULT_RETRY, FAULT_TRANSIENT
        rec, pol, tid = self.rec, self.policy, t.tid
        rec.reexecution_seconds += max(0.0, lost_seconds)
        if isinstance(exc, InjectedTransientError):
            rec.transient_failures += 1
            self.emit(FAULT_TRANSIENT, tid, str(exc), t.rank)
        used = self._retries.get(tid, 0)
        if not may_retry or used >= pol.max_retries:
            return False
        self._retries[tid] = used = used + 1
        rec.retried_tasks += 1
        delay = pol.backoff_seconds(self.seed, tid, used)
        self.emit(FAULT_RETRY, tid,
                  f"retry {used}/{pol.max_retries} in {delay * 1e3:.2f}ms "
                  f"after {type(exc).__name__}: {exc}", t.rank)
        heapq.heappush(self.due, (self.clock() + delay, tid))
        return True

    def pop_due(self, now: float) -> List[int]:
        """Tasks whose backoff has elapsed, in due order."""
        out: List[int] = []
        while self.due and self.due[0][0] <= now:
            out.append(heapq.heappop(self.due)[1])
        return out

    def wait(self, cap: Optional[float]) -> Optional[float]:
        """How long the dispatch loop may block: until the next retry
        is due, at most ``cap`` (``None`` = indefinitely)."""
        if not self.due:
            return cap
        until = max(0.0, self.due[0][0] - self.clock())
        return until if cap is None else min(until, cap)
