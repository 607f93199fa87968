"""Schedule-space model checking for the window scheduler.

Both real backends multiplex completions, steals, crash recovery,
the lookahead gate and driver-lane work over one event loop
(:class:`~repro.runtime.window.WindowExecutor`); whether it is correct
depends on *interleavings* the test suite only samples.  This module
checks them systematically, CHESS-style:

* The **real** :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`
  is the system under test — not a re-implementation.  Around it sits
  a small modeled world: a worker pool that fetches and completes
  tasks, a crash/respawn fault model, and a modeled refcount store
  mirroring how the executor pins tiles per dispatch.
* Execution is **deterministic**: at each step the world enumerates
  the enabled actions in a fixed order and an explicit *decision
  vector* picks one.  Replaying the same vector replays the same run,
  so the whole exploration is reproducible with no timing dependence.
* The explorer enumerates decision vectors with **iterative context
  bounding**: index 0 is the "natural" action, any other index is a
  preemption, and schedules are enumerated in order of increasing
  deviation count up to ``preemption_bound``.  Small bounds are known
  to find the vast majority of concurrency bugs while keeping the
  schedule count polynomial.
* **Invariants** are asserted after every step: each task dispatched
  at most once per attempt and never after completion, no ready task
  starved while an eligible worker idles, driver-lane tasks never on
  workers (and vice versa, unless the driver is itself a lane),
  pipeline depth respected, nothing handed
  out beyond the lookahead gate and nothing parked behind a gate that
  admits it, ``pending`` in sync, crash revocation exactly-once,
  modeled refcounts balanced.

The checker itself is validated by :mod:`.mutants`: seeded scheduler
bugs (lost wakeup, double dispatch, steal-from-dead, ...) that the
explorer must kill, while reporting zero findings on the real code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...runtime.distributed.scheduling import DynamicScheduler, WorkerState
from ...runtime.task import Task, TaskKind, TileRef

__all__ = ["Scenario", "ExploreFinding", "ExplorationReport",
           "ModelShmStore", "builtin_scenarios", "explore"]


# ---------------------------------------------------------------------------
# Scenarios


@dataclass
class Scenario:
    """One bounded workload + fault budget to explore.

    ``tasks`` is a plain task list (tids ``0..n-1``, in-window deps);
    ``worker_ok`` marks worker-eligible tids, the rest are driver-lane.
    ``max_crashes``/``max_spawns`` bound the fault model: a crash kills
    an alive worker mid-run, a spawn adds a replacement.  ``lookahead``
    is the scheduler's phase gate (``None`` = off).  ``driver_helps``
    makes the driver an execution lane (the unwatched threads
    transport): it may take worker-eligible tasks too.
    """

    name: str
    tasks: Tuple[Task, ...]
    worker_ok: Dict[int, bool]
    workers: int = 2
    pipeline_depth: int = 2
    max_crashes: int = 0
    max_spawns: int = 0
    lookahead: Optional[int] = None
    driver_helps: bool = False

    @property
    def ntasks(self) -> int:
        return len(self.tasks)


def _task(tid: int, deps: Sequence[int] = (), reads: Sequence[TileRef] = (),
          writes: Sequence[TileRef] = (), phase: int = 0) -> Task:
    if not writes:
        writes = ((90, tid, 0),)
    return Task(tid=tid, kind=TaskKind.GEMM, reads=tuple(reads),
                writes=tuple(writes), rank=0, phase=phase,
                deps=tuple(deps))


def _all_ok(tasks: Sequence[Task]) -> Dict[int, bool]:
    return {t.tid: True for t in tasks}


def builtin_scenarios() -> List[Scenario]:
    """The workload zoo the CI gate explores.

    Shapes are chosen to reach every scheduler code path: serial
    chains (wakeup propagation), diamonds (fan-out/fan-in), wide
    independent sets (queue balancing), locality-skewed chains (steal
    path), mixed driver/worker lanes, crashy variants (revocation
    and replay), the threads backend's shapes (one lane as deep as its
    pool; the same with the driver as one more lane), the processes
    backend's helping driver beside one lane per fork, a phased graph
    behind the lookahead gate, and the two shapes of a window below the
    granularity floor (no lane registered; no worker forked).
    """
    out: List[Scenario] = []

    chain = tuple(_task(i, deps=[i - 1] if i else []) for i in range(6))
    out.append(Scenario("chain", chain, _all_ok(chain)))

    # Two fan-out/fan-in diamonds sharing a final join.
    dia = (
        _task(0), _task(1, deps=[0]), _task(2, deps=[0]),
        _task(3, deps=[1, 2]),
        _task(4, deps=[3]), _task(5, deps=[3]),
        _task(6, deps=[4, 5]),
    )
    out.append(Scenario("diamond", dia, _all_ok(dia)))

    wide = tuple(_task(i) for i in range(6))
    out.append(Scenario("wide", wide, _all_ok(wide)))

    # Two chains whose every task touches one hot tile: locality pins
    # both chains to whichever worker ran first, forcing the other
    # worker through the steal path.
    hot: TileRef = (91, 0, 0)
    steal = (
        _task(0, reads=[hot]), _task(1, deps=[0], reads=[hot]),
        _task(2, deps=[1], reads=[hot]),
        _task(3, reads=[hot]), _task(4, deps=[3], reads=[hot]),
        _task(5, deps=[4], reads=[hot]),
    )
    out.append(Scenario("stealable", steal, _all_ok(steal)))

    # Driver-lane reductions interleaved with worker tasks.
    mixed = (
        _task(0), _task(1),
        _task(2, deps=[0, 1]),            # driver (reduce)
        _task(3, deps=[2]), _task(4, deps=[2]),
        _task(5, deps=[3, 4]),            # driver
    )
    ok = _all_ok(mixed)
    ok[2] = ok[5] = False
    out.append(Scenario("mixed-driver", mixed, ok))

    # Wide + a tail join, with a crash/respawn budget: exercises
    # remove_worker revocation, requeue and post-respawn placement.
    crashy = tuple(_task(i) for i in range(8)) + (
        _task(8, deps=list(range(8))),)
    out.append(Scenario("crashy", crashy, _all_ok(crashy),
                        max_crashes=2, max_spawns=2))

    # The threads transport: a single lane, pipeline depth = pool size.
    out.append(Scenario("one-lane-deep", dia, _all_ok(dia),
                        workers=1, pipeline_depth=4))

    # Three panel steps with almost no dataflow between them: under
    # lookahead=0 only the gate keeps a later phase off the workers,
    # and it must reopen every time the completed prefix advances.
    phased = (
        _task(0), _task(1),
        _task(2, deps=[0], phase=1), _task(3, phase=1),
        _task(4, phase=2), _task(5, phase=2),        # 5: driver lane
    )
    ok = _all_ok(phased)
    ok[5] = False
    out.append(Scenario("phased-lookahead", phased, ok, lookahead=0))

    # The unwatched threads transport: one pool lane and a driver that
    # takes worker-eligible tasks itself — behind the lookahead gate,
    # and with the lane dying mid-window (the driver must then finish
    # the window alone).
    out.append(Scenario("driver-lane", phased, _all_ok(phased), workers=1,
                        max_crashes=1, lookahead=0, driver_helps=True))

    # Its processes shape (workers=3): the helping driver beside one
    # lane *per fork*, each with its own queue.  Wide enough that both
    # lanes still hold queued tasks when the driver picks (it takes the
    # lowest head from whichever lane holds it), lanes steal from each
    # other, a scalar reduction stays driver-only, a fork dies
    # mid-window and is replaced, all behind the lookahead gate.
    forked = tuple(_task(i) for i in range(6)) + (
        _task(6, phase=1),
        _task(7, deps=[0, 1], phase=1),              # driver-only
        _task(8, deps=[6, 7], phase=2),
    )
    ok = _all_ok(forked)
    ok[7] = False
    out.append(Scenario("driver-lane-forked", forked, ok, workers=2,
                        max_crashes=1, max_spawns=1, lookahead=1,
                        driver_helps=True))

    # The window every small-tile run produces on threads since the
    # granularity floor (``WindowExecutor._pays``): nothing is worth a
    # hand-off, so no lane is registered at all and the helping driver
    # runs the whole window alone, still behind the lookahead gate.
    out.append(Scenario("no-lane", phased, _all_ok(phased), workers=0,
                        lookahead=0, driver_helps=True))

    # Its processes shape: nothing is worker-eligible, no worker is
    # forked, every task is a driver-lane task — and a crash that comes
    # due mid-window finds no victim, so its budget must stay unspent.
    out.append(Scenario("no-worker", dia, dict.fromkeys(range(len(dia)),
                                                        False),
                        workers=0, max_crashes=1))

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
# Modeled refcount store

class ModelShmStore:
    """Models the executor's per-dispatch tile pinning.

    The real executor pins every tile a task touches for the lifetime
    of the attempt (incref at dispatch, decref when the reply is
    accepted or the attempt is revoked).  The model checks the two
    properties that matter: a refcount never dips below the owner's
    baseline reference mid-run, and every count returns to exactly the
    baseline once the window drains.
    """

    def __init__(self) -> None:
        self.refs: Dict[TileRef, int] = {}

    def pin(self, ref: TileRef) -> None:
        self.refs.setdefault(ref, 1)

    def on_dispatch(self, refs: Sequence[TileRef]) -> None:
        for r in refs:
            self.refs[r] = self.refs.get(r, 1) + 1

    def on_release(self, refs: Sequence[TileRef]) -> None:
        """Reply accepted *or* attempt revoked — either way the
        dispatch-time pins drop."""
        for r in refs:
            self.refs[r] = self.refs.get(r, 1) - 1

    def check_step(self) -> None:
        for r, n in self.refs.items():
            if n < 1:
                raise _Violation("refcount-negative",
                                 f"tile {r} refcount {n} < 1")

    def check_final(self) -> None:
        bad = {r: n for r, n in self.refs.items() if n != 1}
        if bad:
            raise _Violation("refcount-imbalance",
                             f"non-baseline counts at drain: {bad}")


# ---------------------------------------------------------------------------
# The modeled world

Action = Tuple  # ("fetch", wid) | ("complete", wid, tid) | ("driver",)
#               | ("crash", wid) | ("spawn",)

SchedulerFactory = Callable[..., DynamicScheduler]
StoreFactory = Callable[[], ModelShmStore]


class _World:
    """One deterministic execution of a scenario under a decision
    vector.  Owns the scheduler under test plus the model state used
    to check it."""

    def __init__(self, scenario: Scenario,
                 scheduler: SchedulerFactory,
                 store: StoreFactory):
        self.sc = scenario
        self.sched = scheduler(list(scenario.tasks), 0, scenario.ntasks,
                               dict(scenario.worker_ok),
                               scenario.pipeline_depth, scenario.lookahead,
                               scenario.driver_helps)
        self.store = store()
        self.refs_of: Dict[int, Tuple[TileRef, ...]] = {}
        for t in scenario.tasks:
            if scenario.worker_ok.get(t.tid, False):
                refs = tuple(t.reads) + tuple(t.writes)
                self.refs_of[t.tid] = refs
                for r in refs:
                    self.store.pin(r)
            else:
                self.refs_of[t.tid] = ()
        for wid in range(scenario.workers):
            self.sched.add_worker(wid)
        self._next_wid = scenario.workers
        #: tid -> wid of the live (dispatched, not yet resolved) attempt.
        self.live: Dict[int, int] = {}
        self.completed: Set[int] = set()
        self.dispatches: Dict[int, int] = {}   # tid -> dispatch count
        self.crashes_left = scenario.max_crashes
        self.spawns_left = scenario.max_spawns
        self.trace: List[str] = []

    # -- enabled actions -------------------------------------------------

    def _alive(self) -> List[WorkerState]:
        return sorted(self.sched.alive_workers(), key=lambda w: w.wid)

    def enabled(self) -> List[Action]:
        """Enabled actions in a fixed, progress-first order.

        Index 0 is always a step the real executor would take
        eagerly, in the dispatch loop's order (feed the lanes, run the
        driver's task, account completions); crash/spawn faults sort
        last so the default schedule (all-zero decisions) is the
        fault-free happy path.
        """
        acts: List[Action] = []
        sched = self.sched
        alive = self._alive()
        work = bool(sched._pool) or any(w.queue for w in alive)
        for w in alive:
            if len(w.inflight) < sched.pipeline and work:
                acts.append(("fetch", w.wid))
        if sched._driver_ready or (self.sc.driver_helps and work):
            acts.append(("driver",))
        for w in alive:
            for tid in sorted(w.inflight):
                acts.append(("complete", w.wid, tid))
        if self.spawns_left > 0 and len(alive) < self.sc.workers:
            acts.append(("spawn",))
        if self.crashes_left > 0:
            for w in alive:
                acts.append(("crash", w.wid))
        return acts

    # -- transition ------------------------------------------------------

    def execute(self, act: Action) -> None:
        self.trace.append("/".join(str(a) for a in act))
        kind = act[0]
        if kind == "fetch":
            self._do_fetch(act[1])
        elif kind == "complete":
            self._do_complete(act[1], act[2])
        elif kind == "driver":
            self._do_driver()
        elif kind == "crash":
            self._do_crash(act[1])
        elif kind == "spawn":
            wid = self._next_wid
            self._next_wid += 1
            self.sched.add_worker(wid)

    def _do_fetch(self, wid: int) -> None:
        sched = self.sched
        tid = sched.next_for(wid)
        if tid is None:
            # The action was only enabled because assignable work
            # existed and this worker had pipeline headroom; the real
            # scheduler then always hands out a task (own queue, the
            # pool via assign_ready, or a steal).
            raise _Violation(
                "starvation",
                f"worker {wid} idles with ready work in the system")
        if tid in self.completed:
            raise _Violation("dispatch-after-done",
                             f"tid {tid} handed out after completion")
        if tid in self.live:
            raise _Violation(
                "double-dispatch",
                f"tid {tid} handed to worker {wid} while live on "
                f"worker {self.live[tid]}")
        if not self.sc.worker_ok.get(tid, False):
            raise _Violation("driver-task-on-worker",
                             f"driver-lane tid {tid} on worker {wid}")
        self._check_gate(tid)
        ws = sched.workers[wid]
        if len(ws.inflight) > sched.pipeline:
            raise _Violation(
                "pipeline-exceeded",
                f"worker {wid} holds {len(ws.inflight)} in-flight "
                f"(depth {sched.pipeline})")
        self.live[tid] = wid
        self.dispatches[tid] = self.dispatches.get(tid, 0) + 1
        self.store.on_dispatch(self.refs_of[tid])

    def _do_complete(self, wid: int, tid: int) -> None:
        if self.live.get(tid) != wid:
            raise _Violation(
                "inflight-untracked",
                f"worker {wid} completes tid {tid} it was never "
                f"handed (live={self.live.get(tid)})")
        self._check_deps(tid)
        if tid in self.completed:
            raise _Violation("double-complete",
                             f"tid {tid} completed twice")
        del self.live[tid]
        self.sched.on_done(tid, wid)
        self.completed.add(tid)
        self.store.on_release(self.refs_of[tid])

    def _do_driver(self) -> None:
        tid = self.sched.next_driver()
        if tid is None:
            raise _Violation("driver-starvation",
                             "driver lane enabled but empty")
        if self.sc.worker_ok.get(tid, False) and not self.sc.driver_helps:
            raise _Violation("worker-task-on-driver",
                             f"worker-eligible tid {tid} in driver lane")
        if tid in self.completed or tid in self.live:
            raise _Violation("double-dispatch",
                             f"driver tid {tid} already resolved")
        self._check_deps(tid)
        self._check_gate(tid)
        self.sched.on_done(tid, None)
        self.completed.add(tid)

    def _do_crash(self, wid: int) -> None:
        self.crashes_left -= 1
        queued, inflight = self.sched.remove_worker(wid)
        if set(queued) & set(inflight):
            raise _Violation("revoke-duplicate",
                             f"crash of {wid} reports tids both queued "
                             f"and in-flight: {set(queued) & set(inflight)}")
        for tid in inflight:
            if self.live.get(tid) != wid:
                raise _Violation(
                    "revoke-unknown",
                    f"crash of {wid} revokes tid {tid} not live there")
            del self.live[tid]
            self.store.on_release(self.refs_of[tid])
        for tid in queued + inflight:
            if tid in self.completed:
                raise _Violation("revoke-done",
                                 f"crash of {wid} revokes completed {tid}")
        ws = self.sched.workers[wid]
        if ws.queue or ws.inflight:
            raise _Violation(
                "dead-worker-holds-tasks",
                f"worker {wid} still holds queue={list(ws.queue)} "
                f"inflight={sorted(ws.inflight)} after removal")
        self.sched.requeue(queued + inflight)

    def _check_deps(self, tid: int) -> None:
        deps = self.sc.tasks[tid].deps
        missing = [d for d in deps if d not in self.completed]
        if missing:
            raise _Violation(
                "dependency-violated",
                f"tid {tid} ran before deps {missing} completed")

    def _gate_limit(self) -> Optional[int]:
        """Latest phase the model's gate admits: ``lookahead`` past the
        oldest phase with an incomplete task (``None`` = no gate)."""
        if self.sc.lookahead is None:
            return None
        open_phases = [t.phase for t in self.sc.tasks
                       if t.tid not in self.completed]
        return min(open_phases) + self.sc.lookahead if open_phases else None

    def _check_gate(self, tid: int) -> None:
        limit = self._gate_limit()
        phase = self.sc.tasks[tid].phase
        if limit is not None and phase > limit:
            raise _Violation(
                "lookahead-exceeded",
                f"tid {tid} (phase {phase}) handed out while the gate "
                f"admits phases <= {limit}")

    # -- global invariants ----------------------------------------------

    def check_step(self) -> None:
        sched = self.sched
        locs: Dict[int, int] = {}

        def seen(tid: int) -> None:
            locs[tid] = locs.get(tid, 0) + 1

        for tid in sched._pool:
            seen(tid)
        for tid in sched._driver_ready:
            seen(tid)
        limit = self._gate_limit()
        if limit is not None:
            for phase, parked in sched._parked.items():
                if parked and phase <= limit:
                    raise _Violation(
                        "gate-stuck",
                        f"tids {parked} (phase {phase}) parked while "
                        f"the gate admits phases <= {limit}")
                for tid in parked:
                    seen(tid)
        for w in sched.workers.values():
            if not w.alive and (w.queue or w.inflight):
                raise _Violation(
                    "dead-worker-holds-tasks",
                    f"dead worker {w.wid} holds "
                    f"{list(w.queue) + sorted(w.inflight)}")
            for tid in w.queue:
                seen(tid)
            for tid in w.inflight:
                seen(tid)
        for tid, n in locs.items():
            if n > 1:
                raise _Violation(
                    "task-duplicated",
                    f"tid {tid} scheduled in {n} places at once")
            if tid in self.completed:
                raise _Violation(
                    "done-task-scheduled",
                    f"completed tid {tid} still queued/in-flight")
        for t in self.sc.tasks:
            tid = t.tid
            if tid in self.completed or tid in locs:
                continue
            if all(d in self.completed for d in t.deps):
                raise _Violation(
                    "task-lost",
                    f"ready tid {tid} is in no queue, pool or lane")
        expect = self.sc.ntasks - len(self.completed)
        if sched.pending != expect:
            raise _Violation(
                "pending-skew",
                f"pending={sched.pending}, model says {expect}")
        if (sched.pending == 0) != (len(self.completed) == self.sc.ntasks):
            raise _Violation(
                "pending-skew",
                "pending==0 disagrees with all-done")
        self.store.check_step()

    def check_final(self) -> None:
        # A scenario that crashed every worker and exhausted its spawn
        # budget deadlocks by construction — that is the fault model's
        # doing, not a scheduler bug.  (A driver that is itself a lane
        # is never stranded.)
        stranded = (not self._alive() and self.spawns_left == 0
                    and any(self.sc.worker_ok.values())
                    and not self.sc.driver_helps)
        if len(self.completed) != self.sc.ntasks and not stranded:
            missing = sorted(set(t.tid for t in self.sc.tasks)
                             - self.completed)
            raise _Violation("tasks-lost-at-end",
                             f"drained with {missing} incomplete")
        for tid, n in self.dispatches.items():
            # Every dispatch beyond the first must be covered by a
            # crash revocation (the only replay source in the model).
            if n > 1 and self.sc.max_crashes == 0:
                raise _Violation("double-dispatch",
                                 f"tid {tid} dispatched {n}x, no crashes")
        if self.sc.workers == 0 and self.crashes_left != self.sc.max_crashes:
            raise _Violation(
                "crash-without-victim",
                "an injected crash was consumed in a window that never "
                "had a worker to kill")
        if not stranded:
            self.store.check_final()


# ---------------------------------------------------------------------------
# The explorer


def _run_schedule(scenario: Scenario, scheduler: SchedulerFactory,
                  store: StoreFactory, decisions: Sequence[int],
                  max_steps: int) -> Tuple[List[Tuple[int, int]],
                                           List[ExploreFinding], int]:
    """Execute one schedule.  Returns (decision log as (chosen, n)
    pairs, findings, steps executed)."""
    world = _World(scenario, scheduler, store)
    log: List[Tuple[int, int]] = []
    findings: List[ExploreFinding] = []

    def finding(v: _Violation) -> ExploreFinding:
        return ExploreFinding(
            scenario=scenario.name, invariant=v.invariant,
            detail=v.detail,
            schedule=tuple(c for c, _ in log),
            trace=tuple(world.trace))

    steps = 0
    try:
        while True:
            acts = world.enabled()
            if not acts:
                break
            k = len(log)
            idx = decisions[k] if k < len(decisions) else 0
            if idx >= len(acts):
                idx = len(acts) - 1
            log.append((idx, len(acts)))
            world.execute(acts[idx])
            world.check_step()
            steps += 1
            if steps > max_steps:
                raise _Violation(
                    "no-termination",
                    f"schedule still enabled after {max_steps} steps")
        world.check_final()
    except _Violation as v:
        findings.append(finding(v))
    return log, findings, steps


def explore(scenario: Scenario,
            scheduler: SchedulerFactory = DynamicScheduler,
            store: StoreFactory = ModelShmStore,
            preemption_bound: int = 2,
            max_schedules: int = 400,
            stop_on_finding: bool = False) -> ExplorationReport:
    """Systematically explore a scenario's schedule space.

    Enumerates decision vectors depth-first with at most
    ``preemption_bound`` deviations from the default (index-0)
    action, capped at ``max_schedules`` total runs.  With
    ``stop_on_finding`` the exploration ends at the first violation
    (used by the mutant gate, where one kill suffices).
    """
    report = ExplorationReport(scenario=scenario.name,
                               preemption_bound=preemption_bound)
    # Generous step bound: every task is fetched + completed at most
    # (1 + crashes) times, plus faults and slack.
    max_steps = 4 * scenario.ntasks * (1 + scenario.max_crashes) + 16
    decisions: List[int] = []
    exhausted = False
    while report.schedules < max_schedules:
        log, findings, steps = _run_schedule(
            scenario, scheduler, store, decisions, max_steps)
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
