"""Tests for the event-driven schedule simulator."""

import numpy as np
import pytest

from repro.dist import DistMatrix, ProcessGrid
from repro.machines import summit
from repro.machines.machine import MachineModel
from repro.obs.timeline import TimelineSink
from repro.perf.model import build_qdwh_graph
from repro.resilience.faults import FaultPlan, StragglerSlot, TransientFaults
from repro.runtime import Runtime, TaskGraph, TaskKind, simulate
from repro.runtime.scheduler import (
    RunConfig,
    forkjoin_config,
    taskbased_config,
)
from repro.runtime.task import Task
from repro.tiled import gemm, geqrf


def build_gemm_graph(n=1024, nb=128, grid=(2, 2)):
    rt = Runtime(ProcessGrid(*grid), numeric=False)
    a = DistMatrix(rt, n, n, nb)
    b = DistMatrix(rt, n, n, nb)
    c = DistMatrix(rt, n, n, nb)
    gemm(rt, 1.0, a, b, 0.0, c)
    return rt.graph


def build_qr_graph(m=1024, n=512, nb=128, grid=(2, 2)):
    rt = Runtime(ProcessGrid(*grid), numeric=False)
    a = DistMatrix(rt, m, n, nb)
    geqrf(rt, a)
    return rt.graph


class TestScheduleValidity:
    def test_all_tasks_complete(self):
        g = build_gemm_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=True)
        r = simulate(g, cfg)
        assert r.task_count == len(g)
        assert r.makespan > 0

    def test_dependencies_respected(self):
        """On the recorded timeline every task starts after its deps
        finish."""
        g = build_qr_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        sink = TimelineSink()
        simulate(g, cfg, sink=sink)
        span = {ev.tid: (ev.start, ev.end) for ev in sink.tasks}
        assert len(span) == len(g)
        for t in g.tasks:
            for d in t.deps:
                assert span[t.tid][0] >= span[d][1] - 1e-12

    def test_makespan_at_least_critical_path(self):
        g = build_qr_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(g, cfg)
        assert r.makespan >= r.critical_path * (1 - 1e-9)

    def test_makespan_at_least_work_over_capacity(self):
        g = build_gemm_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(g, cfg)
        total_busy = sum(r.per_rank_busy)
        slots = 4 * 21  # 4 ranks x 21 cores each
        assert r.makespan >= total_busy / slots * (1 - 1e-9)

    def test_rank_out_of_range_rejected(self):
        g = build_gemm_graph(grid=(4, 4))  # ranks 0..15
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)  # 2 ranks
        with pytest.raises(ValueError):
            simulate(g, cfg)

    def test_empty_graph(self):
        from repro.runtime import TaskGraph
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(TaskGraph(), cfg)
        assert r.makespan == 0.0


class TestExecutionModels:
    def test_gpu_faster_than_cpu(self):
        g = build_gemm_graph(n=2048, nb=256)
        gpu = simulate(g, taskbased_config(summit(), 2, 2, use_gpu=True))
        cpu = simulate(g, taskbased_config(summit(), 2, 2, use_gpu=False))
        assert gpu.makespan < cpu.makespan

    def test_forkjoin_never_faster(self):
        g = build_qr_graph()
        tb = simulate(g, taskbased_config(summit(), 2, 2, use_gpu=False))
        fj = simulate(g, forkjoin_config(summit(), 2, 2))
        assert fj.makespan >= tb.makespan * (1 - 1e-9)

    def test_lookahead_monotone(self):
        """More lookahead can only help (or tie)."""
        g = build_qr_graph(m=2048, n=1024)
        spans = []
        for depth in [0, 1, 4, None]:
            cfg = RunConfig(machine=summit(), nodes=2, ranks_per_node=2,
                            use_gpu=False, lookahead=depth)
            spans.append(simulate(g, cfg).makespan)
        assert spans[0] >= spans[1] >= spans[2] >= spans[3]

    def test_phase_barriers_stricter_than_op_barriers(self):
        g = build_qr_graph(m=2048, n=1024)
        per_op = simulate(g, forkjoin_config(summit(), 2, 2))
        per_phase = simulate(
            g, forkjoin_config(summit(), 2, 2, granularity="phase"))
        assert per_phase.makespan >= per_op.makespan * (1 - 1e-9)

    def test_bad_granularity_rejected(self):
        g = build_gemm_graph()
        cfg = RunConfig(machine=summit(), nodes=2, ranks_per_node=2,
                        use_gpu=False, lookahead=0,
                        barrier_granularity="week")
        with pytest.raises(ValueError):
            simulate(g, cfg)

    def test_more_nodes_not_slower(self):
        g = build_gemm_graph(n=4096, nb=256, grid=(2, 4))
        one = simulate(g, taskbased_config(summit(), 4, 2, use_gpu=False))
        # Same graph, same 8 ranks — but spread over 4 nodes vs 4 ranks
        # on... instead compare comm: run on 4 nodes and confirm
        # inter-node traffic appears.
        assert one.comm.inter_node_bytes > 0


class TestCommModeling:
    def test_comm_counted_for_distributed_gemm(self):
        g = build_gemm_graph(grid=(2, 2))
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(g, cfg)
        assert r.comm.total_bytes > 0
        assert r.comm.inter_node_bytes > 0

    def test_single_rank_no_network_traffic(self):
        g = build_gemm_graph(grid=(1, 1))
        cfg = taskbased_config(summit(), 1, 1, use_gpu=False)
        r = simulate(g, cfg)
        assert r.comm.inter_node_bytes == 0
        assert r.comm.bytes[
            __import__("repro.comm.network", fromlist=["TransferPath"]
                       ).TransferPath.INTRA_NODE] == 0

    def test_gpu_run_has_staging_on_summit(self):
        g = build_qr_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=True)
        r = simulate(g, cfg)
        assert r.comm.staging_bytes > 0  # panels on CPU, updates on GPU

    def test_broadcast_relay_bounds_link_serialization(self):
        """With q consumers of one tile, relays keep the producer's
        send link from serializing all q transfers."""
        g = TaskGraph()
        ref = (0, 0, 0)
        g.register_tile(ref, 10 ** 8)  # 100 MB tile
        g.add(Task(tid=0, kind=TaskKind.SET, reads=(), writes=(ref,),
                   rank=0, phase=0, flops=1.0))
        nconsumers = 16
        for i in range(nconsumers):
            g.add(Task(tid=1 + i, kind=TaskKind.GEMM, reads=(ref,),
                       writes=((1, i, 0),), rank=i, phase=0, flops=1.0))
        m = summit()
        cfg = taskbased_config(m, 8, 2, use_gpu=False)
        r = simulate(g, cfg)
        one_hop = m.network.transfer_time(
            10 ** 8, __import__("repro.comm.network",
                                fromlist=["TransferPath"]
                                ).TransferPath.INTER_NODE)
        # Serialized would be ~16 hops; a binary relay tree needs ~4-5
        # rounds.  Allow generous slack but exclude full serialization.
        assert r.makespan < one_hop * 8
        assert r.makespan >= one_hop * 2


class TestBreakdowns:
    def test_kind_busy_sums_to_rank_busy(self):
        g = build_qr_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(g, cfg)
        assert sum(r.per_kind_busy.values()) == pytest.approx(
            sum(r.per_rank_busy))

    def test_tflops_reporting(self):
        g = build_gemm_graph()
        cfg = taskbased_config(summit(), 2, 2, use_gpu=True)
        r = simulate(g, cfg)
        assert r.gflops > 0
        assert r.tflops(1e12) == pytest.approx(
            1e12 / r.makespan / 1e12)


def schedule_of(r):
    """Every number a ScheduleResult reports, for exact comparison."""
    return (r.makespan, r.critical_path, r.per_kind_busy, r.per_rank_busy,
            r.stall_seconds, r.comm.as_dict(),
            r.recovery.as_dict() if r.recovery else None)


def build_qdwh(n=160, nb=32, nb_rate=None):
    g, _, _ = build_qdwh_graph(n, nb, ProcessGrid(2, 2), cond=1e4,
                               nb_rate=nb_rate)
    return g


class TestWhatOneSimulationDerives:
    """``simulate()`` prices each distinct task once per call and reads
    edge payloads from tables derived once per recorded graph."""

    @pytest.mark.parametrize("coarse", [False, True])
    def test_each_price_key_is_priced_once(self, monkeypatch, coarse):
        # coarse: 1600/nb=400 priced at nb=320 — the gang-scheduled,
        # blended-rate path of the paper-figure sweeps.
        g = build_qdwh(1600, 400, 320) if coarse else build_qdwh()
        keys = {(t.kind, t.flops, t.tile_dim, t.coarse) for t in g.tasks}
        assert len(keys) < len(g)
        calls = []
        in_critical_path = [False]
        price = MachineModel.task_duration
        critical_path = TaskGraph.critical_path_seconds

        def counted_price(self, *args, **kw):
            calls.append(in_critical_path[0])
            return price(self, *args, **kw)

        def watched_critical_path(self, duration):
            in_critical_path[0] = True
            try:
                return critical_path(self, duration)
            finally:
                in_critical_path[0] = False

        monkeypatch.setattr(MachineModel, "task_duration", counted_price)
        monkeypatch.setattr(TaskGraph, "critical_path_seconds",
                            watched_critical_path)
        m = summit()
        for cfg, faults in (
                (taskbased_config(m, 2, 2, use_gpu=True), None),
                (taskbased_config(m, 2, 2, use_gpu=False), None),
                (forkjoin_config(m, 2, 2), None),
                (taskbased_config(m, 2, 2, use_gpu=True),
                 FaultPlan(seed=3, transient=TransientFaults(0.05),
                           stragglers=(StragglerSlot(rank=1, factor=3.0),)))):
            calls.clear()
            simulate(g, cfg, faults=faults)
            assert 0 < len(calls) <= len(keys)
            assert not any(calls), "the critical path priced a task"

    def test_edge_payloads(self):
        g = TaskGraph()
        x, y = (0, 0, 0), (0, 1, 0)
        g.register_tile(x, 800)
        g.register_tile(y, 24, owner=1)
        g.add(Task(tid=0, kind=TaskKind.SET, reads=(), writes=(x,), rank=0,
                   phase=0))
        g.add(Task(tid=1, kind=TaskKind.ADD, reads=(x, y), writes=((1, 0, 0),),
                   rank=1, phase=0))
        g.add(Task(tid=2, kind=TaskKind.SET, reads=(), writes=(x,), rank=0,
                   phase=0))
        tab = g.schedule_tables()
        assert g.schedule_tables() is tab  # derived once per graph
        assert tab.succ == [[1, 2], [2], []]
        assert g.tasks[1].deps == (0,) and tab.dep_bytes[1] == (800,)
        # WAW on task 0 and WAR on task 1: ordering edges, no payload.
        assert g.tasks[2].deps == (0, 1) and tab.dep_bytes[2] == (0, 0)
        assert tab.cold == [(), ((y, 1, 24),), ()]
        assert tab.read_bytes == [0, 824, 0]
        assert len(tab.price_keys) == 2  # the two SETs share a price
        g.register_tile(y, 48, owner=1)
        assert g.schedule_tables() is not tab
        assert g.schedule_tables().cold[1] == ((y, 1, 48),)

    def test_tables_follow_add_and_register_tile(self):
        """A graph simulated, grown by ``add()`` and re-sized by
        ``register_tile()``, then simulated again, schedules exactly
        like the same graph recorded fresh — no stale edge table."""
        cfg = taskbased_config(summit(), 2, 2, use_gpu=True)

        def input_tile(g):
            return next(r for t in g.tasks for r in t.cold_reads)

        def add_task(g):
            # Reads an input tile off its owner's rank.
            last, ref = g.tasks[-1], input_tile(g)
            g.add(Task(tid=len(g), kind=TaskKind.GEMM,
                       reads=(last.writes[0], ref), writes=last.writes,
                       rank=(g.tile_owner[ref] + 1) % 4,
                       phase=last.phase + 1, op=last.op + 1, flops=1e7,
                       tile_dim=32))

        def resize_tile(g):
            ref = input_tile(g)
            g.register_tile(ref, 16 * g.tile_bytes[ref], g.tile_owner[ref])

        g = build_qdwh()
        last = simulate(g, cfg)
        done = []
        for step in (add_task, resize_tile):
            step(g)
            done.append(step)
            now = simulate(g, cfg)
            fresh = build_qdwh()
            for replay in done:
                replay(fresh)
            assert schedule_of(now) == schedule_of(simulate(fresh, cfg))
            assert schedule_of(now) != schedule_of(last), step.__name__
            last = now
