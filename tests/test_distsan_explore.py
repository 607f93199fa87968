"""DistSan explorer: the real driver and scheduler pass, every mutant
dies."""

import pytest

from repro.analysis.dist.explore import (ExplorerTransport, Scenario, _out,
                                         _task, builtin_scenarios, explore)
from repro.analysis.dist.mutants import MUTANTS, mutant_gate
from repro.runtime.distributed.scheduling import DynamicScheduler
from repro.runtime.window import WindowExecutor


def _scenario(name):
    return next(s for s in builtin_scenarios() if s.name == name)


class TestCleanScheduler:
    @pytest.mark.parametrize("scenario", builtin_scenarios(),
                             ids=lambda s: s.name)
    def test_no_findings_on_real_scheduler(self, scenario):
        rep = explore(scenario, max_schedules=150)
        assert rep.findings == []
        assert rep.schedules >= 1
        assert rep.steps > 0

    def test_exploration_is_deterministic(self):
        sc = builtin_scenarios()[1]
        a = explore(sc, max_schedules=60)
        b = explore(sc, max_schedules=60)
        assert (a.schedules, a.steps, a.findings) == \
            (b.schedules, b.steps, b.findings)

    def test_small_scenarios_are_exhausted(self):
        chain = builtin_scenarios()[0]
        rep = explore(chain, max_schedules=400)
        assert not rep.truncated

    def test_bound_zero_runs_only_default_schedule(self):
        rep = explore(builtin_scenarios()[0], preemption_bound=0)
        assert rep.schedules == 1
        assert rep.findings == []

    def test_higher_bound_explores_more(self):
        sc = _scenario("wide")
        low = explore(sc, preemption_bound=2, max_schedules=10_000)
        high = explore(sc, preemption_bound=3, max_schedules=10_000)
        assert high.schedules > low.schedules
        assert not low.truncated and not high.truncated
        assert low.findings == high.findings == []


class TestMutantGate:
    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_each_mutant_is_killed(self, mutant):
        killed_by = None
        for sc in builtin_scenarios():
            rep = explore(sc, scheduler=mutant.scheduler,
                          driver=mutant.driver, max_schedules=600,
                          stop_on_finding=True)
            if rep.findings:
                killed_by = rep.findings[0].invariant
                break
        assert killed_by is not None, f"mutant {mutant.name} survived"
        assert killed_by in mutant.expect

    def test_gate_passes_end_to_end(self):
        gate = mutant_gate(max_schedules=600)
        assert gate.survivors == []
        assert gate.clean_findings == []
        assert gate.ok

    def test_finding_carries_replayable_schedule(self):
        from repro.analysis.dist.mutants import LostWakeupScheduler

        chain = builtin_scenarios()[0]
        rep = explore(chain, scheduler=LostWakeupScheduler,
                      stop_on_finding=True)
        f = rep.findings[0]
        assert f.invariant == "task-lost"
        assert f.trace                       # actions leading to it
        assert f.scenario == "chain"


class TestModelDetails:
    def test_footprints_infer_the_edges(self):
        # The comments of the builtin scenarios name their edges; the
        # graph must infer exactly those from the footprints.
        deps = {t.tid: t.deps for t in _scenario("diamond").tasks}
        assert deps == {0: (), 1: (0,), 2: (0,), 3: (1, 2), 4: (3,),
                        5: (3,), 6: (4, 5)}
        forked = {t.tid: t.deps for t in _scenario("driver-lane-forked").tasks}
        assert forked[7] == (0, 1) and forked[8] == (6, 7)
        assert all(t.deps == () for t in _scenario("wide").tasks)

    def test_crashing_every_worker_is_not_a_finding(self):
        # Fault budget can strand the run (all lanes dead, no respawn):
        # the driver's stall error is the scenario's fault, not the
        # driver's or the scheduler's.
        tasks = tuple(_task(i) for i in range(3))
        sc = Scenario("strand", tasks, {t.tid: True for t in tasks},
                      workers=1, max_crashes=1, max_spawns=0)
        rep = explore(sc, max_schedules=200)
        assert rep.findings == []

    def test_death_after_failed_sends_is_explored_and_replayed(self):
        # Task 0 runs on the driver while lane 0 holds task 1; killing
        # the lane (option 2: after "report 1" and "idle") before its
        # death is reported makes the driver's next hand-out, task 2,
        # a failed send.  The death then revokes both, and the
        # respawned lane replays them.
        tasks = (_task(0), _task(1)) + tuple(
            _task(i, [_out(0)]) for i in (2, 3, 4))
        ok = {t.tid: t.tid != 0 for t in tasks}
        sc = Scenario("dead-send", tasks, ok, workers=1, max_crashes=1,
                      max_spawns=1)
        assert explore(sc, preemption_bound=1).findings == []
        runs = []
        for _ in range(2):
            ex = ExplorerTransport(sc, DynamicScheduler, [2], 100)
            ex.run()
            ex.check_final()
            runs.append(ex.trace)
        assert runs[0] == runs[1]
        trace = runs[0]
        assert trace[:5] == ["send/0/1", "drv/0", "kill/0", "dead-send/0/2",
                             "death/0"]
        assert trace[5:7] == ["send/1/1", "send/1/2"]
        assert ex.stats.recovery.replayed_tasks == 2

    def test_scenarios_cover_required_shapes(self):
        names = {s.name for s in builtin_scenarios()}
        assert {"chain", "diamond", "wide", "mixed-driver", "crashy",
                "driver-lane", "driver-lane-forked", "flaky"} <= names
        assert len(names) == 9
        # The processes placement: a helping driver beside one lane per
        # fork, a crash budget with a replacement.
        forked = _scenario("driver-lane-forked")
        assert forked.driver_helps and forked.workers == 2
        assert forked.max_crashes == 1 and forked.max_spawns == 1
        assert not all(forked.worker_ok.values())
        # A window with no lane besides the driver is swept, not
        # scheduled: every scenario registers at least one lane.
        assert all(s.workers >= 1 for s in builtin_scenarios())
        assert _scenario("crashy").max_crashes > 0

    def test_flaky_retries_every_named_attempt(self):
        # Every named (tid, attempt) fails and is handed out again, on
        # every explored schedule; after the window no lane holds a tid.
        sc = _scenario("flaky")
        assert not sc.driver_helps and sc.workers == 2
        assert explore(sc).findings == []
        ex = ExplorerTransport(sc, DynamicScheduler, [], 200)
        ex.run()
        ex.check_final()
        sends = [a for a in ex.trace if a.startswith("send/")]
        assert len(sends) == sc.ntasks + len(sc.failures)
        assert ex.stats.recovery.retried_tasks == len(sc.failures)
        assert ex.stats.recovery.transient_failures == len(sc.failures)
        assert not any(w.inflight for w in ex._sched.workers.values())

    def test_real_scheduler_is_the_system_under_test(self):
        # The explorer must drive the production classes, not a model:
        # the transport overrides hooks only, never the loop.
        assert issubclass(ExplorerTransport, WindowExecutor)
        for name in ("run", "_epochs", "_drive", "_hand_out", "_account",
                     "_revoke", "_settle"):
            assert name not in vars(ExplorerTransport)
        rep = explore(builtin_scenarios()[0],
                      scheduler=DynamicScheduler, max_schedules=5)
        assert rep.findings == []
