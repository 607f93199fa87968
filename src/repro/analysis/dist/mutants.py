"""Seeded scheduler/store bugs that validate the explorer.

A model checker that reports "no findings" is only evidence if it
*would* have found something.  Each class here is the real
:class:`~repro.runtime.distributed.scheduling.DynamicScheduler` (or
the modeled refcount store) with one realistic concurrency bug seeded
— the kind of defect a refactor of the scheduler could plausibly
introduce.  :func:`mutant_gate` runs the explorer against every mutant
and against the unmutated scheduler; the gate passes only if **all**
mutants are killed (at least one invariant violation found) and the
clean run reports **zero** findings.  CI runs this gate, so the
explorer's teeth are themselves regression-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ...runtime.distributed.scheduling import DynamicScheduler
from .explore import (ExploreFinding, ModelShmStore, Scenario,
                      builtin_scenarios, explore)

__all__ = ["MUTANTS", "MutantResult", "GateReport", "mutant_gate"]


# ---------------------------------------------------------------------------
# Scheduler mutants


class LostWakeupScheduler(DynamicScheduler):
    """BUG: completion drops the wakeup of odd-numbered successors —
    the classic lost-notify; dependents never become ready."""

    def on_done(self, tid: int, wid: Optional[int] = None) -> List[int]:
        self.done.add(tid)
        if wid is not None:
            ws = self.workers.get(wid)
            if ws is not None:
                ws.inflight.discard(tid)
                ws.tasks_done += 1
                ws.resident.update(self._reads.get(tid, ()))
        newly = []
        for s in self.succ.get(tid, ()):
            self.indeg[s] -= 1
            if self.indeg[s] == 0 and s % 2 == 0:
                self._make_ready(s)
                newly.append(s)
        return newly


class StealNoPopScheduler(DynamicScheduler):
    """BUG: stealing reads the victim's queue without popping — the
    stolen task is dispatched twice."""

    def next_for(self, wid: int) -> Optional[int]:
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
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
            tid = victim.queue[-1]          # peek, never pop
            ws.steals += 1
        ws.inflight.add(tid)
        return tid


class ZombieQueueScheduler(DynamicScheduler):
    """BUG: removing a crashed worker reports its tasks but forgets to
    clear its queue — revoked work is both requeued and still
    stealable from the corpse."""

    def remove_worker(self, wid: int) -> Tuple[List[int], List[int]]:
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
            return [], []
        ws.alive = False
        queued = list(ws.queue)
        inflight = sorted(ws.inflight)
        ws.inflight.clear()                 # queue left populated
        return queued, inflight


class DropInflightScheduler(DynamicScheduler):
    """BUG: crash recovery replays only the dead worker's *queued*
    tasks; in-flight attempts vanish without a completion."""

    def remove_worker(self, wid: int) -> Tuple[List[int], List[int]]:
        queued, _inflight = super().remove_worker(wid)
        return queued, []


class DriverLaneMixupScheduler(DynamicScheduler):
    """BUG: readiness routing ignores worker eligibility — driver-only
    tasks (scalar reductions touching driver state) land on workers."""

    def _make_ready(self, tid: int) -> None:
        import heapq
        heapq.heappush(self._pool, tid)


class PendingSkewScheduler(DynamicScheduler):
    """BUG: off-by-one in the drain condition; the executor would stop
    syncing one completion early."""

    @property
    def pending(self) -> int:
        return max(0, (self.end - self.start) - len(self.done) - 1)


class RequeueDuplicateScheduler(DynamicScheduler):
    """BUG: crash replay enqueues every revoked task twice."""

    def requeue(self, tids: Iterable[int]) -> None:
        tids = list(tids)
        super().requeue(tids)
        super().requeue(tids)


class ParkedForeverScheduler(DynamicScheduler):
    """BUG: the completed prefix advances but nothing re-examines the
    tasks parked behind the lookahead gate — later phases never run."""

    def _advance(self, tid: int) -> None:
        p = self._phase[tid]
        self._phase_left[p] -= 1
        while (self._prefix < len(self._phases)
               and not self._phase_left[self._phases[self._prefix]]):
            self._prefix += 1


class DriverPeeksScheduler(DynamicScheduler):
    """BUG: the helping driver reads its task off a lane's queue (or
    the pool) without removing it — the driver runs a tid that the
    lane is then handed as well."""

    def next_driver(self) -> Optional[int]:
        if self._driver_ready or not self.driver_helps:
            return super().next_driver()
        heads = [w.queue[0] for w in self.alive_workers() if w.queue]
        heads += self._pool[:1]             # peek, never pop
        return min(heads, default=None)


class DriverWrongLaneScheduler(DynamicScheduler):
    """BUG: the helping driver finds the lowest head among the lanes'
    queues but pops the *first* non-empty lane — with one lane per
    fork (the processes placement) the driver runs a tid that stays
    queued on its lane, and another lane's head vanishes."""

    def next_driver(self) -> Optional[int]:
        if self._driver_ready or not self.driver_helps:
            return super().next_driver()
        heads = [w.queue for w in self.alive_workers() if w.queue]
        if not heads or (self._pool and all(self._pool[0] < q[0]
                                            for q in heads)):
            return super().next_driver()
        tid = min(q[0] for q in heads)
        heads[0].popleft()                  # not the lane that holds it
        return tid


# ---------------------------------------------------------------------------
# Store mutants


class LeakyReleaseStore(ModelShmStore):
    """BUG: releasing an attempt's pins skips the last tile — the
    segment refcount never returns to baseline (a leak)."""

    def on_release(self, refs: Sequence) -> None:
        super().on_release(refs[:-1])


class DoubleFreeStore(ModelShmStore):
    """BUG: release runs twice per reply — refcount dips below the
    owner's baseline (use-after-unlink in the real store)."""

    def on_release(self, refs: Sequence) -> None:
        super().on_release(refs)
        super().on_release(refs)


# ---------------------------------------------------------------------------
# The gate


@dataclass(frozen=True)
class Mutant:
    name: str
    scheduler: Callable[..., DynamicScheduler]
    store: Callable[[], ModelShmStore]
    #: Invariants whose violation plausibly kills this mutant (for the
    #: report; any violation counts as a kill).
    expect: Tuple[str, ...]


MUTANTS: Tuple[Mutant, ...] = (
    Mutant("lost-wakeup", LostWakeupScheduler, ModelShmStore,
           ("task-lost",)),
    Mutant("steal-no-pop", StealNoPopScheduler, ModelShmStore,
           ("task-duplicated", "double-dispatch")),
    Mutant("zombie-queue", ZombieQueueScheduler, ModelShmStore,
           ("dead-worker-holds-tasks", "task-duplicated")),
    Mutant("drop-inflight", DropInflightScheduler, ModelShmStore,
           ("task-lost", "tasks-lost-at-end", "refcount-imbalance")),
    Mutant("driver-lane-mixup", DriverLaneMixupScheduler, ModelShmStore,
           ("driver-task-on-worker", "driver-starvation")),
    Mutant("pending-skew", PendingSkewScheduler, ModelShmStore,
           ("pending-skew",)),
    Mutant("requeue-duplicate", RequeueDuplicateScheduler, ModelShmStore,
           ("task-duplicated",)),
    Mutant("parked-forever", ParkedForeverScheduler, ModelShmStore,
           ("gate-stuck", "tasks-lost-at-end")),
    Mutant("driver-peeks", DriverPeeksScheduler, ModelShmStore,
           ("done-task-scheduled", "double-dispatch")),
    Mutant("driver-wrong-lane", DriverWrongLaneScheduler, ModelShmStore,
           ("task-lost", "done-task-scheduled", "double-dispatch")),
    Mutant("leaky-release", DynamicScheduler, LeakyReleaseStore,
           ("refcount-imbalance",)),
    Mutant("double-free", DynamicScheduler, DoubleFreeStore,
           ("refcount-negative",)),
)


@dataclass
class MutantResult:
    name: str
    killed: bool
    schedules: int
    killing_invariant: str = ""
    scenario: str = ""


@dataclass
class GateReport:
    results: List[MutantResult] = field(default_factory=list)
    clean_findings: List[ExploreFinding] = field(default_factory=list)
    clean_schedules: int = 0

    @property
    def survivors(self) -> List[str]:
        return [r.name for r in self.results if not r.killed]

    @property
    def ok(self) -> bool:
        return not self.survivors and not self.clean_findings


def mutant_gate(scenarios: Optional[Sequence[Scenario]] = None,
                preemption_bound: int = 2,
                max_schedules: int = 200) -> GateReport:
    """Run the explorer over every mutant and the clean scheduler.

    Mutant runs stop at the first kill; the clean run explores the
    full budget on every scenario and must stay silent.
    """
    if scenarios is None:
        scenarios = builtin_scenarios()
    gate = GateReport()
    for sc in scenarios:
        rep = explore(sc, preemption_bound=preemption_bound,
                      max_schedules=max_schedules)
        gate.clean_schedules += rep.schedules
        gate.clean_findings.extend(rep.findings)
    for m in MUTANTS:
        result = MutantResult(name=m.name, killed=False, schedules=0)
        for sc in scenarios:
            rep = explore(sc, scheduler=m.scheduler, store=m.store,
                          preemption_bound=preemption_bound,
                          max_schedules=max_schedules,
                          stop_on_finding=True)
            result.schedules += rep.schedules
            if rep.findings:
                result.killed = True
                result.killing_invariant = rep.findings[0].invariant
                result.scenario = sc.name
                break
        gate.results.append(result)
    return gate
