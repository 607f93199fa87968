"""DistSan explorer: clean scheduler passes, every mutant dies."""

import pytest

from repro.analysis.dist.explore import (ModelShmStore, Scenario, _task,
                                         builtin_scenarios, explore)
from repro.analysis.dist.mutants import MUTANTS, mutant_gate
from repro.runtime.distributed.scheduling import DynamicScheduler


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
        sc = builtin_scenarios()[1]
        low = explore(sc, preemption_bound=1, max_schedules=10_000)
        high = explore(sc, preemption_bound=2, max_schedules=10_000)
        assert high.schedules > low.schedules


class TestMutantGate:
    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_each_mutant_is_killed(self, mutant):
        killed_by = None
        for sc in builtin_scenarios():
            rep = explore(sc, scheduler=mutant.scheduler,
                          store=mutant.store, max_schedules=600,
                          stop_on_finding=True)
            if rep.findings:
                killed_by = rep.findings[0].invariant
                break
        assert killed_by is not None, f"mutant {mutant.name} survived"

    def test_gate_passes_end_to_end(self):
        gate = mutant_gate(max_schedules=600)
        assert gate.survivors == []
        assert gate.clean_findings == []
        assert gate.ok

    def test_only_the_forked_driver_lane_kills_the_wrong_lane_pop(self):
        # The helping driver popping the first lane instead of the one
        # that holds its tid is invisible with one lane (threads) and
        # with no helping driver: only the processes placement — one
        # lane per fork — can see it.
        wrong = next(m for m in MUTANTS if m.name == "driver-wrong-lane")
        killers = [sc.name for sc in builtin_scenarios()
                   if explore(sc, scheduler=wrong.scheduler,
                              max_schedules=600,
                              stop_on_finding=True).findings]
        assert killers == ["driver-lane-forked"]

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
    def test_driver_tasks_never_counted_as_shm(self):
        tasks = (_task(0), _task(1, deps=[0]))
        sc = Scenario("d", tasks, {0: True, 1: False})
        rep = explore(sc)
        assert rep.findings == []

    def test_crashing_every_worker_is_not_a_finding(self):
        # Fault budget can strand the run (all workers dead, no
        # respawn); that is the scenario's fault, not the scheduler's.
        tasks = tuple(_task(i) for i in range(3))
        sc = Scenario("strand", tasks, {t.tid: True for t in tasks},
                      workers=1, max_crashes=1, max_spawns=0)
        rep = explore(sc, max_schedules=200)
        assert rep.findings == []

    def test_store_model_balances_on_clean_run(self):
        store = ModelShmStore()
        store.pin((1, 0, 0))
        store.on_dispatch([(1, 0, 0)])
        store.on_release([(1, 0, 0)])
        store.check_step()
        store.check_final()

    def test_scenarios_cover_required_shapes(self):
        names = {s.name for s in builtin_scenarios()}
        assert {"chain", "diamond", "wide", "stealable",
                "mixed-driver", "crashy", "no-lane", "no-worker"} <= names
        assert len(names) == 12
        # The processes placement: a helping driver beside one lane per
        # fork, a crash budget with a replacement, the gate on.
        forked = next(s for s in builtin_scenarios()
                      if s.name == "driver-lane-forked")
        assert forked.driver_helps and forked.workers == 2
        assert forked.max_crashes == 1 and forked.lookahead is not None
        assert not all(forked.worker_ok.values())
        # The two shapes of a window below the granularity floor: no
        # lane registered at all.
        by_name = {s.name: s for s in builtin_scenarios()}
        assert by_name["no-lane"].workers == 0
        assert by_name["no-lane"].driver_helps
        assert by_name["no-lane"].lookahead == 0
        assert by_name["no-worker"].workers == 0
        assert not any(by_name["no-worker"].worker_ok.values())
        assert by_name["no-worker"].max_crashes == 1
        crashy = next(s for s in builtin_scenarios()
                      if s.name == "crashy")
        assert crashy.max_crashes > 0

    def test_real_scheduler_is_the_system_under_test(self):
        # The explorer must drive the production class, not a model.
        rep = explore(builtin_scenarios()[0],
                      scheduler=DynamicScheduler, max_schedules=5)
        assert rep.findings == []
