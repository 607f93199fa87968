"""Property-based tests of the schedule simulator on random DAGs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import summit
from repro.obs.timeline import TimelineSink
from repro.runtime import TaskGraph, TaskKind, simulate
from repro.runtime.distributed.scheduling import DynamicScheduler
from repro.runtime.scheduler import RunConfig, taskbased_config
from repro.runtime.task import Task

KINDS = [TaskKind.GEMM, TaskKind.GEQRT, TaskKind.COPY, TaskKind.TRSM,
         TaskKind.REDUCE]

# Restricting the eligible set (tight lookahead, phase barriers) reorders
# greedy dispatch, and Graham's scheduling anomalies mean that can
# occasionally *shorten* a list schedule.  Same margin convention as
# tests/test_resilience_properties.py ANOMALY_MARGIN.
ANOMALY_MARGIN = 0.97


@st.composite
def random_graphs(draw):
    """A random layered DAG over a handful of tiles and ranks."""
    n_tasks = draw(st.integers(1, 60))
    n_tiles = draw(st.integers(1, 12))
    ranks = draw(st.integers(1, 4))
    phases = draw(st.integers(1, 5))
    g = TaskGraph()
    for t in range(n_tiles):
        g.register_tile((0, t, 0), draw(st.integers(8, 10 ** 6)), owner=t % ranks)
    for tid in range(n_tasks):
        reads = draw(st.lists(st.integers(0, n_tiles - 1), max_size=3))
        writes = draw(st.lists(st.integers(0, n_tiles - 1), min_size=1,
                               max_size=2))
        g.add(Task(
            tid=tid,
            kind=draw(st.sampled_from(KINDS)),
            reads=tuple((0, r, 0) for r in set(reads)),
            writes=tuple((0, w, 0) for w in set(writes)),
            rank=draw(st.integers(0, ranks - 1)),
            phase=min(tid * phases // n_tasks, phases - 1),
            op=min(tid * phases // n_tasks, phases - 1),
            flops=draw(st.floats(0, 1e9)),
            tile_dim=draw(st.sampled_from([64, 192, 320])),
        ))
    return g, ranks


def cfg_for(ranks, lookahead=None, barrier=False):
    nodes = max(1, (ranks + 1) // 2)
    return RunConfig(machine=summit(), nodes=nodes, ranks_per_node=2,
                     use_gpu=False, lookahead=lookahead,
                     barrier_per_phase=barrier)


class TestRandomDags:
    @given(random_graphs())
    @settings(max_examples=40)
    def test_all_tasks_complete_and_deps_hold(self, gr):
        g, ranks = gr
        sink = TimelineSink()
        r = simulate(g, cfg_for(ranks), sink=sink)
        assert r.task_count == len(g) == len(sink.tasks)
        span = {ev.tid: (ev.start, ev.end) for ev in sink.tasks}
        for t in g.tasks:
            for d in t.deps:
                assert span[t.tid][0] >= span[d][1] - 1e-12

    @given(random_graphs())
    @settings(max_examples=25)
    def test_makespan_bounds(self, gr):
        g, ranks = gr
        r = simulate(g, cfg_for(ranks))
        assert r.makespan >= r.critical_path * (1 - 1e-9)
        assert np.isfinite(r.makespan)

    @given(random_graphs())
    @settings(max_examples=25)
    def test_lookahead_never_helps_to_restrict(self, gr):
        g, ranks = gr
        open_span = simulate(g, cfg_for(ranks, lookahead=None)).makespan
        tight = simulate(g, cfg_for(ranks, lookahead=0)).makespan
        assert tight >= open_span * ANOMALY_MARGIN

    @given(random_graphs())
    @settings(max_examples=25)
    def test_barrier_only_adds_time(self, gr):
        g, ranks = gr
        plain = simulate(g, cfg_for(ranks, lookahead=0)).makespan
        barred = simulate(g, cfg_for(ranks, lookahead=0,
                                     barrier=True)).makespan
        assert barred >= plain * ANOMALY_MARGIN

    @given(random_graphs())
    @settings(max_examples=60)
    def test_gate_stalls_never_negative(self, gr):
        g, ranks = gr
        sink = TimelineSink()
        r = simulate(g, cfg_for(ranks, lookahead=0), sink=sink)
        assert all(sec >= 0.0 for sec in r.stall_seconds.values())
        assert all(ev.end >= ev.start for ev in sink.stalls)

    @given(random_graphs())
    @settings(max_examples=20)
    def test_deterministic(self, gr):
        g, ranks = gr
        a = simulate(g, cfg_for(ranks)).makespan
        b = simulate(g, cfg_for(ranks)).makespan
        assert a == b


class TestGraphValidation:
    """Structural invariants of builder-produced DAGs."""

    @given(random_graphs())
    @settings(max_examples=40)
    def test_builder_graphs_always_validate(self, gr):
        # Dependency inference via TaskGraph.add must satisfy every
        # invariant validate() checks: topological program order, no
        # cycles, and OpenMP-depend serialization per tile.
        g, _ = gr
        assert g.validate() == []
        assert g.validate_topological()

    @given(random_graphs(), st.data())
    @settings(max_examples=25)
    def test_edge_stripping_is_detected(self, gr, data):
        # Removing all dependency edges from a task with a dependency
        # must break an invariant (it had that edge for a reason).
        g, _ = gr
        with_deps = [t.tid for t in g.tasks if t.deps]
        if not with_deps:
            return
        victim = data.draw(st.sampled_from(with_deps))
        g.tasks[victim].deps = ()
        problems = g.validate(raise_on_error=False)
        assert problems, f"stripping deps of task {victim} undetected"


@st.composite
def dyn_workloads(draw):
    """A random window for the processes-backend DynamicScheduler:
    forward-edge DAG, random driver/worker lane split, small pool."""
    n_tasks = draw(st.integers(1, 24))
    tasks = []
    for tid in range(n_tasks):
        deps = sorted(draw(st.sets(st.integers(0, tid - 1),
                                   max_size=3))) if tid else []
        tasks.append(Task(
            tid=tid, kind=TaskKind.GEMM,
            reads=tuple((0, d % 4, 0) for d in deps),
            writes=((0, tid % 4, 0),),
            rank=0, phase=0, deps=tuple(deps)))
    worker_ok = {t.tid: draw(st.booleans()) for t in tasks}
    n_workers = draw(st.integers(1, 4))
    pipeline = draw(st.integers(1, 3))
    return tasks, worker_ok, n_workers, pipeline


class TestDynamicSchedulerProperties:
    """Random completion/crash sequences against the real
    DynamicScheduler (the DistSan explorer's system under test)."""

    def _fresh(self, wl):
        tasks, worker_ok, n_workers, pipeline = wl
        sched = DynamicScheduler(tasks, 0, len(tasks), worker_ok,
                                 pipeline)
        for w in range(n_workers):
            sched.add_worker(w)
        return tasks, worker_ok, n_workers, sched

    def _drain(self, sched, worker_ok, inflight):
        """Deterministically run the remainder of the window; any
        stall with pending work is a scheduler bug."""
        while sched.pending:
            moved = False
            tid = sched.next_driver()
            if tid is not None:
                assert not worker_ok[tid]
                sched.on_done(tid, None)
                moved = True
            for w in list(sched.alive_workers()):
                tid = sched.next_for(w.wid)
                if tid is not None:
                    assert worker_ok[tid]
                    inflight[tid] = w.wid
                    moved = True
            for tid in sorted(inflight):
                sched.on_done(tid, inflight.pop(tid))
                moved = True
            assert moved, f"stalled with {sched.pending} pending"

    @given(dyn_workloads(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_interleavings_lose_no_tasks(self, wl, data):
        tasks, worker_ok, n_workers, sched = self._fresh(wl)
        inflight = {}            # tid -> wid, mirror of dispatches
        crashes = data.draw(st.integers(0, 2))
        next_wid = n_workers
        budget = 12 * len(tasks) + 24
        for _ in range(budget):
            if not sched.pending:
                break
            actions = [("driver", None)]
            alive = sched.alive_workers()
            actions += [("fetch", w.wid) for w in alive]
            actions += [("complete", t) for t in sorted(inflight)]
            if crashes and alive:
                actions += [("crash", w.wid) for w in alive]
            kind, arg = data.draw(st.sampled_from(actions))
            if kind == "fetch":
                tid = sched.next_for(arg)
                if tid is not None:
                    assert worker_ok[tid], "driver task on worker lane"
                    assert tid not in inflight, "double dispatch"
                    inflight[tid] = arg
            elif kind == "complete":
                sched.on_done(arg, inflight.pop(arg))
            elif kind == "driver":
                tid = sched.next_driver()
                if tid is not None:
                    assert not worker_ok[tid], "worker task on driver"
                    sched.on_done(tid, None)
            else:                                   # crash + respawn
                crashes -= 1
                lost = sched.remove_worker(arg)
                for tid in lost:
                    assert inflight.pop(tid) == arg
                sched.requeue(lost)
                sched.add_worker(next_wid)
                next_wid += 1
            held = [t for w in sched.alive_workers() for t in w.inflight]
            held += sched._ready + sched._driver_ready
            assert len(held) == len(set(held)), "tid held twice"
            assert sched.pending == len(tasks) - len(sched.done)
        self._drain(sched, worker_ok, inflight)
        assert sched.done == {t.tid for t in tasks}

    @given(dyn_workloads(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_remove_worker_returns_exact_holdings(self, wl, data):
        tasks, worker_ok, n_workers, sched = self._fresh(wl)
        for _ in range(data.draw(st.integers(0, len(tasks)))):
            sched.next_for(data.draw(st.integers(0, n_workers - 1)))
        victim = data.draw(st.integers(0, n_workers - 1))
        ws = sched.workers[victim]
        expect = sorted(ws.inflight)
        assert sched.remove_worker(victim) == expect
        assert not ws.alive and not ws.inflight
        # Removing a dead worker again must be a harmless no-op.
        assert sched.remove_worker(victim) == []

    @given(dyn_workloads())
    @settings(max_examples=50, deadline=None)
    def test_pipeline_depth_is_never_exceeded(self, wl):
        tasks, worker_ok, n_workers, sched = self._fresh(wl)
        pipeline = sched.pipeline
        # Fetch greedily without ever completing: each worker must
        # saturate at the pipeline depth, then yield None.
        for w in range(n_workers):
            while sched.next_for(w) is not None:
                assert len(sched.workers[w].inflight) <= pipeline
            assert len(sched.workers[w].inflight) <= pipeline
            # Saturated (or out of assignable work): stays None.
            assert sched.next_for(w) is None

    @given(dyn_workloads(), st.booleans(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_hand_out_is_lowest_ready(self, wl, helps, data):
        # One ready heap: whoever asks — any lane, or the helping
        # driver — gets the lowest worker-eligible tid ready at that
        # moment, and the driver's own tasks leave lowest first too.
        tasks, worker_ok, n_workers, pipeline = wl
        sched = DynamicScheduler(tasks, 0, len(tasks), worker_ok,
                                 pipeline, driver_helps=helps)
        for w in range(n_workers):
            sched.add_worker(w)
        inflight = {}            # tid -> wid, mirror of dispatches
        crashes = data.draw(st.integers(0, 2))
        next_wid = n_workers

        def lowest(lane_task):
            return min((t.tid for t in tasks
                        if worker_ok[t.tid] == lane_task
                        and t.tid not in sched.done
                        and t.tid not in inflight
                        and all(d in sched.done for d in t.deps)),
                       default=None)

        for _ in range(12 * len(tasks) + 24):
            if not sched.pending:
                break
            alive = sched.alive_workers()
            actions = [("driver", None)]
            actions += [("fetch", w.wid) for w in alive]
            actions += [("complete", t) for t in sorted(inflight)]
            if crashes and alive:
                actions += [("crash", w.wid) for w in alive]
            kind, arg = data.draw(st.sampled_from(actions))
            if kind == "driver":
                want = lowest(False)
                if want is None and helps:
                    want = lowest(True)
                tid = sched.next_driver()
                assert tid == want
                if tid is not None:
                    sched.on_done(tid, None)
            elif kind == "fetch":
                full = len(sched.workers[arg].inflight) >= sched.pipeline
                want = None if full else lowest(True)
                tid = sched.next_for(arg)
                assert tid == want
                if tid is not None:
                    inflight[tid] = arg
            elif kind == "complete":
                sched.on_done(arg, inflight.pop(arg))
            else:                                   # crash + respawn
                crashes -= 1
                lost = sched.remove_worker(arg)
                for tid in lost:
                    assert inflight.pop(tid) == arg
                sched.requeue(lost)
                sched.add_worker(next_wid)
                next_wid += 1
