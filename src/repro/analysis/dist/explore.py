"""Schedule-space model checking for the window driver.

Both real backends multiplex completions, crash recovery, retries and
driver-lane work over one event loop
(:class:`~repro.runtime.window.WindowExecutor`); whether it is correct
depends on *interleavings* the test suite only samples.  This module
checks them systematically, CHESS-style:

* The **real** driver and scheduler are the system under test: every
  explored schedule runs ``run → _epochs → _drive → _hand_out →
  _account → _revoke`` over a
  :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`.
  Only the transport is the explorer's own
  (:class:`ExplorerTransport`): its hooks are the choice points.
  ``_open`` builds the scenario's scheduler and registers its lanes;
  ``_send`` and ``_inline`` record each hand-out; ``_recv`` lets one
  in-flight attempt report (failing, retryably, when the scenario
  names its ``(tid, attempt)``), kills a lane (its ``_send``\\ s fail until
  its :class:`~repro.runtime.window.Death` is reported, as a SIGKILL
  looks on processes), reports such a death, or respawns a lane;
  ``_tick`` respawns when every lane is dead, as the processes
  transport does.
* Scenarios declare task *footprints*; :meth:`TaskGraph.add` infers
  their dependencies, so the driver's tile-ordering check guards every
  explored hand-out.
* Execution is **deterministic**: at each ``_recv`` the transport
  enumerates its options in a fixed order and an explicit *decision
  vector* picks one.  Replaying the same vector replays the same run,
  so the whole exploration is reproducible with no timing dependence.
* The explorer enumerates decision vectors with **iterative context
  bounding**: index 0 is the "natural" option, any other index is a
  preemption, and schedules are enumerated in order of increasing
  deviation count up to ``preemption_bound``.  Small bounds are known
  to find the vast majority of concurrency bugs while keeping the
  schedule count polynomial.
* **Invariants** are asserted at every hand-out (``_send``,
  ``_inline``) and every turn of the dispatch loop (``_tick``): no
  task handed out while in flight or after it completed,
  driver-lane tasks never on lanes (and vice versa, unless the driver
  is itself a lane), pipeline depth respected, dead lanes holding
  nothing, no ready task lost or held
  twice (a retry waiting out its backoff is held by the retry
  ledger), ``pending`` in sync; at the end, every task completed and no
  attempt in flight.  An exception out of ``run`` — the driver's
  :class:`~repro.runtime.window.OrderingViolationError`, its stall
  rule, a crash it gave up on — is a finding too, except the stall of
  a window whose lanes are all dead with no respawn left and no
  helping driver: that is the fault model's doing.

The checker itself is validated by :mod:`.mutants`: seeded scheduler
and driver bugs (lost wakeup, double dispatch, early release, a
revocation that drops in-flight work, a failed attempt that keeps
its lane's slot, ...) that the explorer must
kill, while reporting zero findings on the real code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple, Type, Union)

from ...resilience.live import InjectedTransientError, RecoveryPolicy
from ...runtime.attempt import Attempt
from ...runtime.distributed.scheduling import DynamicScheduler
from ...runtime.graph import TaskGraph
from ...runtime.task import Task, TaskKind, TileRef
from ...runtime.window import (Death, OrderingViolationError, Report,
                               WindowExecutor)

__all__ = ["ExplorerTransport", "Scenario", "ExploreFinding",
           "ExplorationReport", "builtin_scenarios", "explore"]


# ---------------------------------------------------------------------------
# Scenarios


@dataclass
class Scenario:
    """One bounded workload + fault budget to explore.

    ``tasks`` declare footprints only (tids ``0..n-1``): their
    dependencies are inferred by :meth:`TaskGraph.add` into ``graph``.
    ``worker_ok`` marks lane-eligible tids, the rest are driver-lane.
    ``workers`` is the number of lanes besides the driver.
    ``max_crashes``/``max_spawns`` bound the fault model: a crash kills
    a lane mid-window, a spawn adds a replacement.  ``driver_helps``
    makes the driver an execution lane: it may take lane-eligible
    tasks too.  ``failures`` names the ``(tid, attempt)`` pairs whose
    attempt fails retryably; the driver retries them at once (the
    explorer's policy has no backoff).
    """

    name: str
    tasks: Tuple[Task, ...]
    worker_ok: Dict[int, bool]
    workers: int = 2
    pipeline_depth: int = 2
    max_crashes: int = 0
    max_spawns: int = 0
    driver_helps: bool = False
    failures: FrozenSet[Tuple[int, int]] = frozenset()
    graph: TaskGraph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.graph = TaskGraph()
        for t in self.tasks:
            self.graph.add(t)

    @property
    def ntasks(self) -> int:
        return len(self.tasks)


def _out(tid: int) -> TileRef:
    """The tile task ``tid`` writes."""
    return (90, tid, 0)


def _task(tid: int, reads: Sequence[TileRef] = ()) -> Task:
    """Task ``tid`` reading ``reads`` and writing its own tile: reading
    ``_out(d)`` makes it depend on task ``d``."""
    return Task(tid=tid, kind=TaskKind.GEMM, reads=tuple(reads),
                writes=(_out(tid),), rank=0, phase=0)


def _all_ok(tasks: Sequence[Task]) -> Dict[int, bool]:
    return {t.tid: True for t in tasks}


def builtin_scenarios() -> List[Scenario]:
    """The workload zoo the CI gate explores.

    Shapes are chosen to reach every driver and scheduler code path:
    serial chains (wakeup propagation), diamonds (fan-out/fan-in), wide
    independent sets (lanes filling to their pipeline depth from one
    ready heap), mixed driver/worker lanes, crashy variants (revocation
    and replay), the threads backend's shapes (one lane as deep as its
    pool; the same with the driver as one more lane), the processes
    backend's helping driver beside one lane per fork, and a watched
    window's retries.  A
    window that gets no lane besides the driver builds no scheduler at
    all (it is swept in program order, ``WindowExecutor._sweep``), so
    it has no shape here.
    """
    out: List[Scenario] = []

    chain = tuple(_task(i, reads=[_out(i - 1)] if i else []) for i in range(6))
    out.append(Scenario("chain", chain, _all_ok(chain)))

    # Two fan-out/fan-in diamonds sharing a final join.
    dia = (
        _task(0), _task(1, [_out(0)]), _task(2, [_out(0)]),
        _task(3, [_out(1), _out(2)]),
        _task(4, [_out(3)]), _task(5, [_out(3)]),
        _task(6, [_out(4), _out(5)]),
    )
    out.append(Scenario("diamond", dia, _all_ok(dia)))

    wide = tuple(_task(i) for i in range(6))
    out.append(Scenario("wide", wide, _all_ok(wide)))

    # Driver-lane reductions interleaved with worker tasks.
    mixed = (
        _task(0), _task(1),
        _task(2, [_out(0), _out(1)]),             # driver (reduce)
        _task(3, [_out(2)]), _task(4, [_out(2)]),
        _task(5, [_out(3), _out(4)]),             # driver
    )
    ok = _all_ok(mixed)
    ok[2] = ok[5] = False
    out.append(Scenario("mixed-driver", mixed, ok))

    # Wide + a tail join, with a crash/respawn budget: exercises
    # revocation, requeue and post-respawn hand-out.
    crashy = tuple(_task(i) for i in range(8)) + (
        _task(8, [_out(i) for i in range(8)]),)
    out.append(Scenario("crashy", crashy, _all_ok(crashy),
                        max_crashes=2, max_spawns=2))

    # The watched threads transport: a single lane, pipeline depth =
    # pool size.
    out.append(Scenario("one-lane-deep", dia, _all_ok(dia),
                        workers=1, pipeline_depth=4))

    # The unwatched threads transport: one pool lane and a driver that
    # takes worker-eligible tasks itself, with the lane dying
    # mid-window (the driver must then finish the window alone).
    loose = (_task(0), _task(1), _task(2, [_out(0)]), _task(3), _task(4),
             _task(5))
    out.append(Scenario("driver-lane", loose, _all_ok(loose), workers=1,
                        max_crashes=1, driver_helps=True))

    # Its processes shape: the helping driver beside one lane *per
    # fork*, all popping one ready heap.  A scalar reduction stays
    # driver-only, and a fork dies mid-window and is replaced.
    forked = tuple(_task(i) for i in range(6)) + (
        _task(6),
        _task(7, [_out(0), _out(1)]),                # driver-only
        _task(8, [_out(6), _out(7)]),
    )
    ok = _all_ok(forked)
    ok[7] = False
    out.append(Scenario("driver-lane-forked", forked, ok, workers=2,
                        max_crashes=1, max_spawns=1, driver_helps=True))

    # A watched window: two lanes and a driver that only dispatches.
    # What it does beyond the plain path is the driver's retry path: a
    # failed attempt gives its lane's slot back and its task is handed
    # out again — twice for task 1 — while the diamonds drain.
    out.append(Scenario("flaky", dia, _all_ok(dia),
                        failures=frozenset({(0, 0), (1, 0), (1, 1),
                                            (4, 0)})))

    return out


# ---------------------------------------------------------------------------
# Findings


@dataclass(frozen=True)
class ExploreFinding:
    """One invariant violation on one explored schedule."""

    scenario: str
    invariant: str
    detail: str
    schedule: Tuple[int, ...]      # decision vector that reached it
    trace: Tuple[str, ...]         # executed actions, in order

    def __str__(self) -> str:
        tail = " ; ".join(self.trace[-6:])
        return (f"[{self.scenario}] {self.invariant}: {self.detail} "
                f"(schedule={list(self.schedule)}, ...{tail})")


@dataclass
class ExplorationReport:
    scenario: str
    schedules: int = 0
    steps: int = 0
    preemption_bound: int = 0
    truncated: bool = False
    findings: List[ExploreFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


class _Violation(Exception):
    def __init__(self, invariant: str, detail: str):
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant
        self.detail = detail


# ---------------------------------------------------------------------------
# The explorer's transport

SchedulerFactory = Callable[..., DynamicScheduler]
_DONE = Attempt(0.0, 0.0, 0.0, [], None, False)


class ExplorerTransport(WindowExecutor):
    """One deterministic execution of a scenario under a decision
    vector: the real window driver over a transport whose ``_recv`` is
    the choice point, checking invariants on every hand-out and on the
    scheduler state at every turn of the dispatch loop.  Its policy has
    no backoff: a retry is due at once, and the loop needs no clock
    to hand it out again."""

    def __init__(self, scenario: Scenario, scheduler: SchedulerFactory,
                 decisions: Sequence[int], max_steps: int) -> None:
        sc = self.sc = scenario
        super().__init__(sc.graph, {},
                         workers=sc.workers + int(sc.driver_helps),
                         sink=None, validate=True,
                         sanitizer=None,
                         recovery=RecoveryPolicy(backoff=0.0),
                         injector=None, tiles=None)
        self.scheduler = scheduler
        self.decisions = decisions
        self.max_steps = max_steps
        #: Every choice as ``(chosen, options)``, and every action.
        self.log: List[Tuple[int, int]] = []
        self.trace: List[str] = []
        #: ``(lane, tid, attempt)`` of each attempt sent and not yet
        #: reported.
        self.outbox: List[Tuple[int, int, int]] = []
        #: Killed lanes whose death is unreported -> attempts lost.
        self.killed: Dict[int, int] = {}
        self.completed: Set[int] = set()
        self.crashes_left = sc.max_crashes
        self.spawns_left = sc.max_spawns
        self._next_lane = 0

    @property
    def driver_helps(self) -> bool:
        return self.sc.driver_helps

    @property
    def stranded(self) -> bool:
        """Every lane dead, no respawn left and no helping driver: a
        stall is the fault model's doing, not the system's."""
        sched = self._sched
        return (sched is not None and not sched.alive_workers()
                and self.spawns_left == 0 and not self.sc.driver_helps)

    def _step(self, action: str) -> None:
        self.trace.append(action)
        if len(self.trace) > self.max_steps:
            raise _Violation("no-termination",
                             f"window still running after {self.max_steps} "
                             "steps")

    # -- hooks -----------------------------------------------------------

    def _eligible(self, start: int, end: int) -> int:
        return sum(self.sc.worker_ok.values())

    def _open(self, start: int, end: int, lanes: int) -> DynamicScheduler:
        sc = self.sc
        sched = self.scheduler(self.graph.tasks, start, end,
                               dict(sc.worker_ok), sc.pipeline_depth,
                               sc.driver_helps)
        for lane in range(lanes):
            sched.add_worker(lane)
        self._next_lane = lanes
        return sched

    def _inline(self, t: Task, attempt: int) -> Attempt:
        self._step(f"drv/{t.tid}")
        if self.sc.worker_ok[t.tid] and not self.sc.driver_helps:
            raise _Violation("worker-task-on-driver",
                             f"lane-eligible tid {t.tid} run by the driver")
        self._check_hand_out(t.tid)
        return self._outcome(t.tid, attempt)

    def _outcome(self, tid: int, attempt: int) -> Attempt:
        """What attempt ``attempt`` of ``tid`` comes back with."""
        if (tid, attempt) in self.sc.failures:
            return Attempt(0.0, 0.0, 0.0, [], InjectedTransientError(
                f"scripted failure of task {tid} attempt {attempt}"), True)
        self.completed.add(tid)
        return _DONE

    def _send(self, lane: int, tid: int, attempt: int) -> bool:
        dead = lane in self.killed
        self._step(f"{'dead-send' if dead else 'send'}/{lane}/{tid}")
        if not self.sc.worker_ok[tid]:
            raise _Violation("driver-task-on-worker",
                             f"driver-lane tid {tid} on lane {lane}")
        self._check_hand_out(tid)
        sched = self._sched
        assert sched is not None
        if len(sched.workers[lane].inflight) > sched.pipeline:
            raise _Violation(
                "pipeline-exceeded",
                f"lane {lane} holds {len(sched.workers[lane].inflight)} "
                f"in flight (depth {sched.pipeline})")
        if dead:
            return False
        self.outbox.append((lane, tid, attempt))
        return True

    def _recv(self, timeout: Optional[float]
              ) -> List[Union[Report, Death]]:
        sched = self._sched
        assert sched is not None
        alive = [w.wid for w in sched.alive_workers()
                 if w.wid not in self.killed]
        options: List[Tuple[str, int]] = [
            ("report", i) for i in range(len(self.outbox))]
        if timeout == 0.0:
            options.append(("idle", 0))     # nothing reported meanwhile
        options += [("death", lane) for lane in self.killed]
        if self.spawns_left and len(alive) < self.sc.workers:
            options.append(("spawn", 0))
        if self.crashes_left:
            options += [("kill", lane) for lane in alive]
        if not options:
            raise _Violation("driver-blocked",
                             "the driver blocks with nothing in flight")
        k = len(self.log)
        idx = min(self.decisions[k] if k < len(self.decisions) else 0,
                  len(options) - 1)
        self.log.append((idx, len(options)))
        what, arg = options[idx]
        self._step(f"{what}/{arg}")
        if what == "report":
            lane, tid, attempt = self.outbox.pop(arg)
            return [Report(tid, lane, self._outcome(tid, attempt),
                           f"w{lane}", 0.0)]
        if what == "death":
            return [Death(arg, "killed", self.killed.pop(arg))]
        if what == "spawn":
            self._spawn(sched)
        elif what == "kill":
            self.crashes_left -= 1
            self.killed[arg] = sum(1 for a in self.outbox if a[0] == arg)
            self.outbox = [a for a in self.outbox if a[0] != arg]
        return []

    def _tick(self, now: float) -> Optional[float]:
        # The driver ticks at the top of every turn of its loop while
        # the window has not failed: every report so far is accounted.
        sched = self._sched
        assert sched is not None
        self._check_state(sched)
        if self.spawns_left and sched.pending and not sched.alive_workers():
            self._spawn(sched)
        return None

    def _spawn(self, sched: DynamicScheduler) -> None:
        self.spawns_left -= 1
        sched.add_worker(self._next_lane)
        self._next_lane += 1

    # -- invariants ------------------------------------------------------

    def _check_hand_out(self, tid: int) -> None:
        if tid in self.completed:
            raise _Violation("dispatch-after-done",
                             f"tid {tid} handed out after completion")
        live = [lane for lane, t, _ in self.outbox if t == tid]
        if live:
            raise _Violation("double-dispatch",
                             f"tid {tid} handed out while in flight on {live}")

    def _check_state(self, sched: DynamicScheduler) -> None:
        """The scheduler's state between two turns of the loop."""
        assert self._ledger is not None
        held = (list(sched._ready) + list(sched._driver_ready)
                + [tid for _, tid in self._ledger.due])
        for w in sched.workers.values():
            if not w.alive and w.inflight:
                raise _Violation(
                    "dead-worker-holds-tasks",
                    f"dead lane {w.wid} holds {sorted(w.inflight)}")
            held += list(w.inflight)
        locs = Counter(held)
        for tid, n in locs.items():
            if n > 1:
                raise _Violation(
                    "task-duplicated",
                    f"tid {tid} scheduled in {n} places at once")
            if tid in self.completed:
                raise _Violation(
                    "done-task-scheduled",
                    f"completed tid {tid} still ready/in-flight")
        for t in self.sc.tasks:
            if (t.tid not in self.completed and t.tid not in locs
                    and all(d in self.completed for d in t.deps)):
                raise _Violation(
                    "task-lost",
                    f"ready tid {t.tid} is in no heap or lane")
        expect = self.sc.ntasks - len(self.completed)
        if sched.pending != expect:
            raise _Violation("pending-skew",
                             f"pending={sched.pending}, expected {expect}")

    def check_final(self) -> None:
        missing = sorted(set(range(self.sc.ntasks)) - self.completed)
        if missing:
            raise _Violation("tasks-lost-at-end",
                             f"window ended with {missing} incomplete")
        if self.inflight_attempts:
            raise _Violation(
                "inflight-leak",
                f"{self.inflight_attempts} attempt(s) still in flight")


# ---------------------------------------------------------------------------
# The explorer


def _run_schedule(scenario: Scenario, scheduler: SchedulerFactory,
                  driver: Type[ExplorerTransport], decisions: Sequence[int],
                  max_steps: int) -> Tuple[List[Tuple[int, int]],
                                           List[ExploreFinding], int]:
    """Execute one schedule.  Returns (decision log as (chosen, n)
    pairs, findings, steps executed)."""
    ex = driver(scenario, scheduler, decisions, max_steps)
    try:
        try:
            ex.run()
        except _Violation:
            raise
        except OrderingViolationError as exc:
            raise _Violation("ordering-violation", str(exc)) from exc
        except Exception as exc:
            if not ex.stranded:
                raise _Violation("window-failed",
                                 f"{type(exc).__name__}: {exc}") from exc
        else:
            ex.check_final()
    except _Violation as v:
        return ex.log, [ExploreFinding(
            scenario=scenario.name, invariant=v.invariant, detail=v.detail,
            schedule=tuple(c for c, _ in ex.log),
            trace=tuple(ex.trace))], len(ex.trace)
    return ex.log, [], len(ex.trace)


def explore(scenario: Scenario,
            scheduler: SchedulerFactory = DynamicScheduler,
            driver: Type[ExplorerTransport] = ExplorerTransport,
            preemption_bound: int = 2,
            max_schedules: int = 400,
            stop_on_finding: bool = False) -> ExplorationReport:
    """Systematically explore a scenario's schedule space.

    Enumerates decision vectors depth-first with at most
    ``preemption_bound`` deviations from the default (index-0)
    option, capped at ``max_schedules`` total runs.  ``scheduler`` and
    ``driver`` are the system under test (the mutant gate swaps
    either).  With ``stop_on_finding`` the exploration ends at the
    first violation (used by the mutant gate, where one kill suffices).
    """
    report = ExplorationReport(scenario=scenario.name,
                               preemption_bound=preemption_bound)
    # Generous step bound: every task is handed out and reported at
    # most (1 + crashes) times, once more per scripted failure, plus
    # faults and slack.
    max_steps = 4 * (scenario.ntasks * (1 + scenario.max_crashes)
                     + len(scenario.failures)) + 16
    decisions: List[int] = []
    exhausted = False
    while report.schedules < max_schedules:
        log, findings, steps = _run_schedule(
            scenario, scheduler, driver, decisions, max_steps)
        report.schedules += 1
        report.steps += steps
        report.findings.extend(findings)
        if findings and stop_on_finding:
            return report
        # Advance to the next decision vector: bump the rightmost
        # choice point that still has an unexplored branch within the
        # deviation budget.
        nxt: Optional[List[int]] = None
        for i in range(len(log) - 1, -1, -1):
            chosen, n = log[i]
            if chosen + 1 >= n:
                continue
            deviations = sum(1 for c, _ in log[:i] if c != 0) + 1
            if deviations <= preemption_bound:
                nxt = [c for c, _ in log[:i]] + [chosen + 1]
                break
        if nxt is None:
            exhausted = True
            break
        decisions = nxt
    report.truncated = not exhausted
    return report
