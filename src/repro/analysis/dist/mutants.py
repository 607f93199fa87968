"""Seeded scheduler and driver bugs that validate the explorer.

A model checker that reports "no findings" is only evidence if it
*would* have found something.  Each class here is the real
:class:`~repro.runtime.distributed.scheduling.DynamicScheduler` (or
the real window driver, through the explorer's transport) with one
realistic concurrency bug seeded — the kind of defect a refactor of
the scheduler or the dispatch loop could plausibly introduce.
:func:`mutant_gate` runs the explorer against every mutant and
against the unmutated system; the gate passes only if **all** mutants
are killed (at least one finding) and the clean run reports **zero**
findings.  CI runs this gate, so the explorer's teeth are themselves
regression-tested.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Type

from ...runtime.attempt import RetryLedger
from ...runtime.distributed.scheduling import DynamicScheduler
from ...runtime.window import Death, Report
from .explore import (ExplorerTransport, ExploreFinding, Scenario,
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
        newly = []
        for s in self.succ.get(tid, ()):
            self.indeg[s] -= 1
            if self.indeg[s] == 0 and s % 2 == 0:
                self._make_ready(s)
                newly.append(s)
        return newly


class ZombieInflightScheduler(DynamicScheduler):
    """BUG: removing a crashed worker reports its in-flight tasks but
    forgets to clear them — revoked work is both requeued and still
    held by the corpse."""

    def remove_worker(self, wid: int) -> List[int]:
        ws = self.workers.get(wid)
        if ws is None or not ws.alive:
            return []
        ws.alive = False
        return sorted(ws.inflight)          # inflight left populated


class DropInflightScheduler(DynamicScheduler):
    """BUG: crash recovery forgets the dead worker's in-flight tasks:
    they vanish without a completion."""

    def remove_worker(self, wid: int) -> List[int]:
        super().remove_worker(wid)
        return []


class PipelineOverrunScheduler(DynamicScheduler):
    """BUG: a lane is handed work whatever it already holds — the
    pipeline depth is never consulted."""

    def next_for(self, wid: int) -> Optional[int]:
        ws = self.workers.get(wid)
        if ws is None or not ws.alive or ws.suspected or not self._ready:
            return None
        tid = heapq.heappop(self._ready)
        ws.inflight.add(tid)
        return tid


class DriverLaneMixupScheduler(DynamicScheduler):
    """BUG: readiness routing ignores worker eligibility — driver-only
    tasks (scalar reductions touching driver state) land on workers."""

    def _make_ready(self, tid: int) -> None:
        heapq.heappush(self._ready, tid)


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


class DriverPeeksScheduler(DynamicScheduler):
    """BUG: the helping driver reads its task off the ready heap
    without removing it — the driver runs a tid that a lane is then
    handed as well."""

    def next_driver(self) -> Optional[int]:
        if self._driver_ready or not self.driver_helps:
            return super().next_driver()
        return self._ready[0] if self._ready else None   # peek, never pop


class EarlyReleaseScheduler(DynamicScheduler):
    """BUG: a task becomes ready as soon as its *first* dependency
    completes — the countdown releases on any predecessor, not on all."""

    def on_done(self, tid: int, wid: Optional[int] = None) -> List[int]:
        for s in self.succ.get(tid, ()):
            self.indeg[s] = min(self.indeg[s], 1)
        return super().on_done(tid, wid)


# ---------------------------------------------------------------------------
# Driver mutants


class RevokeDropsInflight(ExplorerTransport):
    """BUG: a dead lane is removed but its in-flight tasks are never
    requeued — they never report and are never replayed."""

    def _revoke(self, sched: DynamicScheduler,
                death: Death) -> Optional[BaseException]:
        sched.remove_worker(death.lane)
        self._inflight -= death.sent
        return None


class RetryKeepsSlot(ExplorerTransport):
    """BUG: a failed attempt is never discarded from its lane — the
    lane keeps the slot while the task's retry is due, so the task is
    held twice and the lane runs one short for the rest of the
    window."""

    def _account(self, sched: DynamicScheduler, ledger: RetryLedger,
                 report: Report, failing: bool) -> Optional[BaseException]:
        err = super()._account(sched, ledger, report, failing)
        if report.res.exc is not None and report.lane is not None:
            sched.workers[report.lane].inflight.add(report.tid)
        return err


# ---------------------------------------------------------------------------
# The gate


@dataclass(frozen=True)
class Mutant:
    name: str
    scheduler: Callable[..., DynamicScheduler]
    #: Invariants whose violation plausibly kills this mutant (for the
    #: report; any violation counts as a kill).
    expect: Tuple[str, ...]
    driver: Type[ExplorerTransport] = ExplorerTransport


MUTANTS: Tuple[Mutant, ...] = (
    Mutant("lost-wakeup", LostWakeupScheduler, ("task-lost",)),
    Mutant("zombie-inflight", ZombieInflightScheduler,
           ("dead-worker-holds-tasks",)),
    Mutant("drop-inflight", DropInflightScheduler, ("task-lost",)),
    Mutant("pipeline-overrun", PipelineOverrunScheduler,
           ("pipeline-exceeded",)),
    Mutant("driver-lane-mixup", DriverLaneMixupScheduler,
           ("driver-task-on-worker",)),
    Mutant("pending-skew", PendingSkewScheduler, ("pending-skew",)),
    Mutant("requeue-duplicate", RequeueDuplicateScheduler,
           ("task-duplicated",)),
    Mutant("driver-peeks", DriverPeeksScheduler,
           ("double-dispatch", "dispatch-after-done")),
    Mutant("early-release", EarlyReleaseScheduler, ("ordering-violation",)),
    Mutant("revoke-drops-inflight", DynamicScheduler, ("task-lost",),
           driver=RevokeDropsInflight),
    Mutant("retry-keeps-slot", DynamicScheduler, ("task-duplicated",),
           driver=RetryKeepsSlot),
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
            rep = explore(sc, scheduler=m.scheduler, driver=m.driver,
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
