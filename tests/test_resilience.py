"""Tests for the resilience subsystem (faults, recovery, checkpoints)."""

import json
import math
import os

import numpy as np
import pytest

from repro.comm.counters import CommCounters
from repro.comm.network import TransferPath
from repro.core.qdwh_dense import qdwh
from repro.dist.grid import ProcessGrid
from repro.machines import summit
from repro.obs import TimelineSink, chrome_trace, get_registry, reset_metrics
from repro.perf.model import build_qdwh_graph, simulate_qdwh
from repro.resilience import (
    AllRanksDead,
    CheckpointPolicy,
    FaultPlan,
    FaultToleranceExceeded,
    LinkDegradation,
    QdwhCheckpointer,
    RankCrash,
    StragglerSlot,
    TransientFaults,
    checkpoint_write_cost,
    expected_overhead,
    lineage_replay_set,
    optimal_interval,
    plan_from_spec,
    recovery_overhead_curve,
)
from repro.runtime.graph import TaskGraph
from repro.runtime.scheduler import forkjoin_config, simulate, taskbased_config
from repro.runtime.task import Task, TaskKind


# ---------------------------------------------------------------------------
# Fault-plan model
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransientFaults(probability=1.5)
        with pytest.raises(ValueError):
            TransientFaults(probability=0.1, max_attempts=0)
        with pytest.raises(ValueError):
            StragglerSlot(rank=0, factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(beta_factor=0.9)
        with pytest.raises(ValueError):
            RankCrash(rank=0, time=-1.0)
        with pytest.raises(ValueError):  # same rank cannot die twice
            FaultPlan(crashes=(RankCrash(0, 1.0), RankCrash(0, 2.0)))

    def test_empty(self):
        assert FaultPlan().empty
        assert FaultPlan(transient=TransientFaults(probability=0.0)).empty
        assert not FaultPlan(crashes=(RankCrash(0, 1.0),)).empty

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            crashes=(RankCrash(1, 3.5),),
            transient=TransientFaults(probability=0.01, max_attempts=6),
            links=(LinkDegradation(src=0, dst=1, beta_factor=2.0,
                                   start=1.0, end=4.0),
                   LinkDegradation(alpha_factor=1.5)),
            stragglers=(StragglerSlot(rank=2, factor=3.0, start=0.5),),
            speculation=False,
            crash_detect_delay=0.25)
        path = str(tmp_path / "plan.json")
        plan.to_json(path)
        back = FaultPlan.from_json(path)
        assert back == plan
        # Infinite windows serialize as null, not "Infinity".
        with open(path) as fh:
            assert json.load(fh)["stragglers"][0]["end"] is None

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "crahses": []})

    def test_task_rng_is_dispatch_order_independent(self):
        plan = FaultPlan(seed=7)
        a = [plan.task_rng(tid, 0).random() for tid in range(50)]
        b = [plan.task_rng(tid, 0).random() for tid in reversed(range(50))]
        assert a == list(reversed(b))
        # Distinct streams per task and per attempt epoch.
        assert len({round(v, 12) for v in a}) == 50
        assert plan.task_rng(3, 0).random() != plan.task_rng(3, 1).random()

    def test_poisson_crashes_deterministic_and_spares_one(self):
        p1 = FaultPlan.poisson_crashes(mttf=1.0, horizon=1e6, ranks=4,
                                       seed=5)
        p2 = FaultPlan.poisson_crashes(mttf=1.0, horizon=1e6, ranks=4,
                                       seed=5)
        assert p1 == p2
        # A huge horizon with tiny MTTF would kill everyone; one rank
        # must be spared so recovery has somewhere to go.
        assert len(p1.crashes) == 3

    def test_plan_from_spec(self):
        plan = plan_from_spec(seed=2, crash=["1@3.5"], transient_p=0.02,
                              straggler=["0@4"], link_factor=2.0)
        assert plan.crashes == (RankCrash(1, 3.5),)
        assert plan.transient.probability == 0.02
        assert plan.stragglers[0].factor == 4.0
        assert plan.links[0].beta_factor == 2.0
        with pytest.raises(ValueError, match="bad crash spec"):
            plan_from_spec(crash=["nope"])


class TestLineageReplay:
    def _chain(self, n):
        """t0 -> t1 -> ... -> t{n-1}, each writing its own tile."""
        tasks = []
        for i in range(n):
            tasks.append(Task(
                tid=i, kind=TaskKind.GEMM,
                reads=((0, i - 1, 0),) if i else (),
                writes=((0, i, 0),), rank=0, phase=0, op=0,
                flops=1.0, tile_dim=64,
                deps=(i - 1,) if i else ()))
        return tasks

    def test_chain_replay_transitive(self):
        tasks = self._chain(5)
        done = [True, True, True, False, False]
        # t2's output is lost; t3 (pending) needs it -> replay {2}.
        assert lineage_replay_set(tasks, done, {2}) == {2}
        # t1 and t2 both lost -> t2 needs t1 transitively.
        assert lineage_replay_set(tasks, done, {1, 2}) == {1, 2}

    def test_dead_results_not_replayed(self):
        tasks = self._chain(5)
        done = [True] * 5
        # Everything finished: lost outputs are never consumed again.
        assert lineage_replay_set(tasks, done, {1, 2}) == set()


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qdwh_case():
    """A small QDWH graph on 4 summit ranks plus its fault-free result."""
    g, _, _ = build_qdwh_graph(2000, 500, ProcessGrid.near_square(4),
                               cond=1e10)
    cfg = taskbased_config(summit(), 2, 2, use_gpu=True)
    base = simulate(g, cfg)
    return g, cfg, base


class TestSchedulerFaults:
    #: Fault-free makespans of a scheduler with no fault plan; the
    #: scheduler must keep reproducing them bit for bit.  Re-derived in
    #: PR 18, which changed the DAG (identity-aware stacked QR: fewer
    #: tasks per QR iteration), not the scheduler — they were 3.3570 /
    #: 9.0402 / 9.1379 for the unstructured QR — and in PR 20, which
    #: changed two declared costs, not the scheduler: ``tile_geqrt`` of
    #: the ragged 665 x 667 tile counts k = min(m, n) reflectors
    #: (2.48867 / 6.27537 / 6.31117 before), and ``rnorm1.reduce`` /
    #: ``trcondest.final`` stopped declaring 0 (fork-join only: +2.5 us).
    GOLDEN = {
        "slate_gpu": 2.488096470839536,
        "slate_cpu": 6.275131502014109,
        "scalapack": 6.31090814147781,
    }

    @pytest.mark.parametrize("impl", sorted(GOLDEN))
    def test_fault_free_bit_identical_to_pre_resilience(self, impl):
        pt = simulate_qdwh(summit(), 1, 4000, impl, cond=1e12, max_tiles=6)
        assert pt.makespan == self.GOLDEN[impl]
        assert pt.schedule.recovery is None

    def test_empty_plan_matches_no_plan(self, qdwh_case):
        g, cfg, base = qdwh_case
        r = simulate(g, cfg, faults=FaultPlan())
        assert r.makespan == base.makespan
        assert r.recovery is not None and r.recovery.crashes == 0

    def test_crash_recovers_and_costs_time(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(seed=1, crashes=(
            RankCrash(rank=1, time=0.5 * base.makespan),))
        sink = TimelineSink()
        r = simulate(g, cfg, sink=sink, faults=plan)
        assert r.task_count == base.task_count
        assert r.makespan > base.makespan
        rec = r.recovery
        assert rec.crashes == 1 and rec.dead_ranks == (1,)
        assert rec.replayed_tasks > 0
        assert rec.reexecution_seconds > 0.0
        counts = sink.fault_counts()
        assert counts["crash"] == 1
        assert counts["replay"] == rec.replayed_tasks
        # No surviving task executed on the dead rank after the crash.
        for ev in sink.tasks:
            if ev.rank == 1:
                assert ev.start < plan.crashes[0].time + 1e-12
        # Busy time counts exactly the executions that completed —
        # revoked in-flight work must not inflate utilization.
        assert sum(r.per_kind_busy.values()) == pytest.approx(
            sum(ev.duration for ev in sink.tasks))

    def test_crash_with_forkjoin_barriers(self, qdwh_case):
        """Crash replay under lookahead=0, where most pending tasks sit
        parked: a replayed producer's completion used to re-append a
        still-parked consumer, and the window release then dispatched
        it twice (phantom slot occupancy, double-counted busy time)."""
        g, _, _ = qdwh_case
        cfg = forkjoin_config(summit(), 2, 2)
        base = simulate(g, cfg)
        plan = FaultPlan(seed=1, crashes=(
            RankCrash(rank=1, time=0.5 * base.makespan),))
        sink = TimelineSink()
        r = simulate(g, cfg, sink=sink, faults=plan)
        assert r.task_count == base.task_count
        rec = r.recovery
        assert rec.crashes == 1 and rec.replayed_tasks > 0
        # Graham timing anomalies allow a sub-percent win (see
        # test_resilience_properties.ANOMALY_MARGIN); double dispatch
        # showed up as a far larger perturbation.
        assert r.makespan >= 0.97 * base.makespan
        # Each logical task completes, and busy time matches the trace
        # exactly (a double dispatch would count one of them twice).
        assert {ev.tid for ev in sink.tasks} == set(range(len(g)))
        assert sum(r.per_kind_busy.values()) == pytest.approx(
            sum(ev.duration for ev in sink.tasks))
        # Determinism survives the parked/replay interaction.
        r2 = simulate(g, cfg, faults=plan)
        assert r2.makespan == r.makespan
        assert r2.recovery.as_dict() == rec.as_dict()

    def test_replay_rearm_of_parked_task_dispatches_once(self):
        """Deterministic trigger of the parked double dispatch: t2 is
        parked outside the lookahead window when a crash loses its
        producer t0's output; the replayed t0 completes while t2 is
        *still* parked (t1 keeps the window shut), which used to append
        t2 to the parked list a second time and execute it twice when
        the window opened."""
        g = TaskGraph()
        g.register_tile((0, 0, 0), 8 * 512 * 512)
        # t0 (rank 1, phase 0): quick producer of tile X.
        g.add(Task(tid=0, kind=TaskKind.GEMM, reads=(),
                   writes=((0, 0, 0),), rank=1, phase=0, flops=1e9,
                   tile_dim=512))
        # t1 (rank 0, phase 0): long task holding phase 0 open.
        g.add(Task(tid=1, kind=TaskKind.GEMM, reads=(),
                   writes=((0, 1, 0),), rank=0, phase=0, flops=1e13,
                   tile_dim=512))
        # t2 (rank 0, phase 1): consumer of X, parked by lookahead=0.
        g.add(Task(tid=2, kind=TaskKind.GEMM, reads=((0, 0, 0),),
                   writes=((0, 2, 0),), rank=0, phase=1, flops=1e9,
                   tile_dim=512))
        cfg = taskbased_config(summit(), 1, 2, use_gpu=False, lookahead=0)
        base = TimelineSink()
        simulate(g, cfg, sink=base)
        end = {ev.tid: ev.end for ev in base.tasks}
        f0, f1 = end[0], end[1]
        assert f0 < f1
        # Crash rank 1 after t0 finished but with plenty of t1 left, so
        # the replayed t0 completes while t2 is still parked.
        plan = FaultPlan(crashes=(RankCrash(rank=1,
                                            time=0.5 * (f0 + f1)),))
        sink = TimelineSink()
        r = simulate(g, cfg, sink=sink, faults=plan)
        assert r.recovery.replayed_tasks == 1
        # t2 executed exactly once, and busy time matches the trace.
        assert sorted(ev.tid for ev in sink.tasks) == [0, 0, 1, 2]
        assert sum(r.per_kind_busy.values()) == pytest.approx(
            sum(ev.duration for ev in sink.tasks))

    def test_useless_duplicate_is_not_launched(self):
        """A duplicate that cannot start before the original finishes
        must not launch: it used to move the busy backup slot's free
        time *backwards* (letting later tasks overlap occupied time)
        and still count toward speculation stats and recovery bytes."""
        g = TaskGraph()
        g.register_tile((9, 0, 0), 1 << 20, owner=0)
        # coarse > 1 forces ganged mode: one aggregated CPU slot per
        # rank, so rank 1's slot stays busy far past the straggled
        # task's finish and the would-be duplicate is useless.
        g.add(Task(tid=0, kind=TaskKind.GEMM, reads=(),
                   writes=((0, 0, 0),), rank=1, phase=0, flops=1e12,
                   tile_dim=512, coarse=2.0))
        g.add(Task(tid=1, kind=TaskKind.GEMM, reads=((9, 0, 0),),
                   writes=((0, 1, 0),), rank=0, phase=0, flops=1e9,
                   tile_dim=512, coarse=2.0))
        g.add(Task(tid=2, kind=TaskKind.GEMM, reads=(),
                   writes=((0, 2, 0),), rank=1, phase=0, flops=1e10,
                   tile_dim=512, coarse=2.0))
        cfg = taskbased_config(summit(), 1, 2, use_gpu=False)
        plan = FaultPlan(seed=0, stragglers=(
            StragglerSlot(rank=0, factor=10.0),))
        sink = TimelineSink()
        r = simulate(g, cfg, sink=sink, faults=plan)
        rec = r.recovery
        assert rec.speculative_duplicates == 0
        assert rec.speculation_wins == 0
        assert rec.recovery_bytes == 0
        # Rank 1's single slot runs its two tasks back to back.
        ev = {e.tid: e for e in sink.tasks}
        assert ev[2].start >= ev[0].end - 1e-9

    def test_crash_is_deterministic(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(seed=9, crashes=(RankCrash(rank=2, time=0.4),))
        r1 = simulate(g, cfg, faults=plan)
        r2 = simulate(g, cfg, faults=plan)
        assert r1.makespan == r2.makespan
        assert r1.recovery.as_dict() == r2.recovery.as_dict()

    def test_late_crash_is_free(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(crashes=(
            RankCrash(rank=0, time=base.makespan + 10.0),))
        r = simulate(g, cfg, faults=plan)
        assert r.makespan == base.makespan
        assert r.recovery.replayed_tasks == 0

    def test_transients_retry_and_slow_down(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(seed=3, transient=TransientFaults(
            probability=0.05, max_attempts=12))
        r = simulate(g, cfg, faults=plan)
        assert r.recovery.transient_failures > 0
        assert r.recovery.retried_tasks > 0
        assert r.makespan > base.makespan

    def test_transient_budget_exhaustion_raises(self, qdwh_case):
        g, cfg, _ = qdwh_case
        plan = FaultPlan(seed=0, transient=TransientFaults(
            probability=0.9, max_attempts=2))
        with pytest.raises(FaultToleranceExceeded):
            simulate(g, cfg, faults=plan)

    def test_straggler_triggers_speculation(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(seed=4, stragglers=(
            StragglerSlot(rank=0, factor=10.0),))
        r = simulate(g, cfg, faults=plan)
        rec = r.recovery
        assert rec.speculative_duplicates > 0
        assert 0 < rec.speculation_wins <= rec.speculative_duplicates
        assert rec.recovery_bytes > 0
        # Without mitigation the same straggler hurts more.
        r_nospec = simulate(g, cfg, faults=FaultPlan(
            seed=4, stragglers=(StragglerSlot(rank=0, factor=10.0),),
            speculation=False))
        assert r_nospec.recovery.speculative_duplicates == 0
        assert r.makespan < r_nospec.makespan

    def test_link_degradation_slows_transfers(self, qdwh_case):
        g, cfg, base = qdwh_case
        plan = FaultPlan(links=(LinkDegradation(beta_factor=8.0,
                                                alpha_factor=4.0),),
                         speculation=False)
        r = simulate(g, cfg, faults=plan)
        assert r.recovery.degraded_transfers > 0
        assert r.makespan > base.makespan
        # No replays or duplicates: task-side work is untouched (the
        # traffic mix may shift slightly as relay selection re-times).
        assert r.recovery.replayed_tasks == 0
        assert r.recovery.speculative_duplicates == 0

    def test_all_ranks_dead_rejected(self, qdwh_case):
        g, cfg, _ = qdwh_case
        plan = FaultPlan(crashes=tuple(
            RankCrash(rank=r, time=0.1 * (r + 1)) for r in range(4)))
        with pytest.raises(AllRanksDead):
            simulate(g, cfg, faults=plan)

    def test_crash_rank_out_of_range_rejected(self, qdwh_case):
        g, cfg, _ = qdwh_case
        with pytest.raises(ValueError, match="only 4 ranks"):
            simulate(g, cfg, faults=FaultPlan(
                crashes=(RankCrash(rank=99, time=1.0),)))

    def test_fault_events_reach_chrome_trace(self, qdwh_case):
        g, cfg, base = qdwh_case
        sink = TimelineSink()
        simulate(g, cfg, sink=sink, faults=FaultPlan(
            seed=1, crashes=(RankCrash(rank=1, time=0.5),)))
        doc = chrome_trace(sink)
        inst = [e for e in doc["traceEvents"]
                if e.get("cat") == "fault"]
        assert inst and all(e["ph"] == "i" for e in inst)
        assert any(e["args"]["kind"] == "crash" for e in inst)

    def test_recovery_metrics_published(self, qdwh_case):
        g, cfg, _ = qdwh_case
        reset_metrics()
        try:
            simulate(g, cfg, faults=FaultPlan(
                seed=1, crashes=(RankCrash(rank=1, time=0.5),)))
            snap = get_registry().snapshot()
            assert snap["counters"]["resilience.crashes"] == 1
            assert snap["counters"]["resilience.tasks_replayed"] > 0
        finally:
            reset_metrics()


# ---------------------------------------------------------------------------
# Idempotent comm publishing (satellite)
# ---------------------------------------------------------------------------

class TestIdempotentPublish:
    def test_republishing_same_totals_is_noop(self):
        reset_metrics()
        try:
            reg = get_registry()
            c = CommCounters()
            c.record(TransferPath.INTER_NODE, 100)
            c.publish(reg)
            c.publish(reg)  # double publish must not double-count
            snap = reg.snapshot()["counters"]
            assert snap["comm.bytes.inter_node"] == 100
            assert snap["comm.messages.inter_node"] == 1
        finally:
            reset_metrics()

    def test_growth_publishes_exactly_the_delta(self):
        reset_metrics()
        try:
            reg = get_registry()
            c = CommCounters()
            c.record(TransferPath.H2D, 10)
            c.publish(reg)
            c.record(TransferPath.H2D, 5)
            c.publish(reg)
            snap = reg.snapshot()["counters"]
            assert snap["comm.bytes.h2d"] == 15
            assert snap["comm.messages.h2d"] == 2
        finally:
            reset_metrics()

    def test_distinct_prefixes_are_independent(self):
        reset_metrics()
        try:
            reg = get_registry()
            c = CommCounters()
            c.record(TransferPath.D2H, 7)
            c.publish(reg)
            c.publish(reg, prefix="other")
            snap = reg.snapshot()["counters"]
            assert snap["comm.bytes.d2h"] == 7
            assert snap["other.bytes.d2h"] == 7
        finally:
            reset_metrics()

    def test_collected_registry_does_not_alias_new_one(self):
        """Published-totals bookkeeping is keyed by a weak reference:
        a dead registry whose address gets reused must not make the
        first publish to the new registry under-report."""
        import gc

        from repro.obs.metrics import Registry

        c = CommCounters()
        c.record(TransferPath.INTER_NODE, 100)
        reg1 = Registry()
        c.publish(reg1)
        assert reg1.snapshot()["counters"]["comm.bytes.inter_node"] == 100
        del reg1
        gc.collect()
        reg2 = Registry()
        c.publish(reg2)
        snap = reg2.snapshot()["counters"]
        assert snap["comm.bytes.inter_node"] == 100
        assert snap["comm.messages.inter_node"] == 1


# ---------------------------------------------------------------------------
# Checkpoint policy & cost model
# ---------------------------------------------------------------------------

class TestCheckpointPolicy:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every=0)

    def test_due(self):
        p = CheckpointPolicy(every=3)
        assert [i for i in range(1, 10) if p.due(i)] == [3, 6, 9]

    def test_young_daly_matches_formula(self):
        mttf, cost, it = 3600.0, 10.0, 30.0
        tau = optimal_interval(mttf, cost)
        assert tau == pytest.approx(math.sqrt(2 * 10 * 3600))
        pol = CheckpointPolicy.young_daly(mttf, cost, it)
        assert pol.every == max(1, round(tau / it))

    def test_expected_overhead_minimized_at_optimum(self):
        mttf, cost = 1000.0, 5.0
        tau = optimal_interval(mttf, cost)
        best = expected_overhead(mttf, cost)
        assert best == pytest.approx(math.sqrt(2 * cost / mttf))
        for factor in (0.5, 0.8, 1.25, 2.0):
            assert expected_overhead(mttf, cost, tau * factor) >= best

    def test_write_cost_and_curve(self):
        cost = checkpoint_write_cost(10_000, 10_000)
        assert cost > 0.5  # latency floor
        rows = recovery_overhead_curve(100.0, cost, [50.0, 500.0])
        assert len(rows) == 2
        # Longer MTTF -> longer interval, lower overhead.
        assert rows[1]["interval"] > rows[0]["interval"]
        assert rows[1]["overhead"] < rows[0]["overhead"]
        assert all(r["expected_makespan"] > 100.0 for r in rows)


class TestQdwhCheckpointer:
    def test_save_load_roundtrip_exact(self, tmp_path, rng):
        ck = QdwhCheckpointer(str(tmp_path))
        ak = rng.standard_normal((8, 6))
        ck.save(ak=ak, li=0.25, conv=1e-3, it=2, it_qr=1, it_chol=1,
                alpha=3.0, l0=1e-8, conv_history=[0.5, 1e-3],
                weight_history=[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        state = ck.load()
        assert np.array_equal(state["ak"], ak)
        assert state["li"] == 0.25 and state["it"] == 2
        assert isinstance(state["it"], int)
        assert state["weight_history"] == [(1.0, 2.0, 3.0),
                                           (4.0, 5.0, 6.0)]

    def test_retention_and_clear(self, tmp_path, rng):
        ck = QdwhCheckpointer(str(tmp_path), keep=2)
        ak = rng.standard_normal((4, 4))
        for it in range(1, 5):
            ck.save(ak=ak, li=0.1, conv=1.0, it=it, it_qr=it, it_chol=0,
                    alpha=1.0, l0=0.1, conv_history=[],
                    weight_history=[])
        files = sorted(f for f in os.listdir(tmp_path)
                       if f.endswith(".npz"))
        assert files == ["qdwh_ckpt_it003.npz", "qdwh_ckpt_it004.npz"]
        assert ck.load()["it"] == 4
        ck.clear()
        assert ck.load() is None

    def test_empty_directory_loads_none(self, tmp_path):
        assert QdwhCheckpointer(str(tmp_path)).load() is None


class TestQdwhCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((40, 24))
        ref = qdwh(a)
        ck = QdwhCheckpointer(str(tmp_path))
        partial = qdwh(a, max_iter=2, checkpoint=ck)
        assert partial.iterations == 2
        resumed = qdwh(a, checkpoint=QdwhCheckpointer(str(tmp_path)))
        assert resumed.iterations == ref.iterations
        assert np.array_equal(resumed.u, ref.u)
        assert np.array_equal(resumed.h, ref.h)
        assert resumed.conv_history == ref.conv_history
        assert resumed.weight_history == ref.weight_history

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128])
    def test_resume_roundtrips_dtypes(self, tmp_path, rng, dtype):
        a = rng.standard_normal((20, 12)).astype(dtype)
        if np.iscomplexobj(a):
            a = a + 1j * rng.standard_normal((20, 12))
        ref = qdwh(a)
        qdwh(a, max_iter=1, checkpoint=QdwhCheckpointer(str(tmp_path)))
        resumed = qdwh(a, checkpoint=QdwhCheckpointer(str(tmp_path)))
        assert resumed.u.dtype == ref.u.dtype
        assert np.array_equal(resumed.u, ref.u)
        assert np.array_equal(resumed.h, ref.h)

    def test_stale_checkpoint_for_other_problem_ignored(self, tmp_path,
                                                        rng):
        a = rng.standard_normal((16, 10))
        qdwh(a, max_iter=1, checkpoint=QdwhCheckpointer(str(tmp_path)))
        b = rng.standard_normal((12, 8))  # different shape: stale
        ref = qdwh(b)
        res = qdwh(b, checkpoint=QdwhCheckpointer(str(tmp_path),
                                                  keep=5))
        assert np.array_equal(res.u, ref.u)

    def test_same_shape_different_matrix_not_resumed(self, tmp_path,
                                                     rng):
        """Shape and dtype match; only the content fingerprint can tell
        the checkpoint belongs to another problem.  Resuming from it
        would silently return the wrong factors for ``b``."""
        a = rng.standard_normal((16, 10))
        qdwh(a, max_iter=1, checkpoint=QdwhCheckpointer(str(tmp_path)))
        b = rng.standard_normal((16, 10))
        ref = qdwh(b)
        res = qdwh(b, checkpoint=QdwhCheckpointer(str(tmp_path),
                                                  keep=5))
        assert res.iterations == ref.iterations
        assert np.array_equal(res.u, ref.u)
        assert np.array_equal(res.h, ref.h)

    def test_converged_run_clears_checkpoints(self, tmp_path, rng):
        """A finished run's checkpoints are spent: leaving them behind
        would make a rerun resume from the converged state."""
        a = rng.standard_normal((16, 10))
        ck = QdwhCheckpointer(str(tmp_path))
        res = qdwh(a, checkpoint=ck)
        assert res.converged
        assert ck.load() is None
        # And the rerun really does recompute from scratch.
        rerun = qdwh(a, checkpoint=QdwhCheckpointer(str(tmp_path)))
        assert rerun.iterations == res.iterations
        assert np.array_equal(rerun.u, res.u)
