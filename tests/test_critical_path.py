"""Tests for executed-critical-path analysis (repro.obs.critical_path)."""

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix
from repro.obs import TimelineSink
from repro.obs.critical_path import (
    BLOCKED_DEPENDENCY,
    BLOCKED_START,
    BLOCKED_WORKER,
    critical_path,
    occupancy,
    slack,
)
from repro.obs.timeline import TaskEvent
from repro.runtime import Runtime
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Task, TaskKind


def _graph(spec):
    """Build a graph from (kind, reads, writes) rows; tiles are ints."""
    g = TaskGraph()
    for tid, (kind, reads, writes) in enumerate(spec):
        g.add(Task(tid=tid, kind=kind,
                   reads=tuple((0, r, 0) for r in reads),
                   writes=tuple((0, w, 0) for w in writes),
                   rank=0, phase=0))
    return g


def _event(tid, start, end, slot="thr0", kind="gemm"):
    return TaskEvent(tid=tid, kind=kind, rank=0, slot=slot, phase=0,
                     flops=0.0, start=start, end=end,
                     duration=end - start, measured=True)


class TestHandBuiltChain:
    """A diamond with a known longest chain: t0 -> t1 -> t3."""

    def _diamond(self):
        # t0 writes A; t1: A->B (slow); t2: A->C (fast); t3: B,C -> D.
        g = _graph([
            (TaskKind.SET, (), (0,)),
            (TaskKind.GEMM, (0,), (1,)),
            (TaskKind.GEMM, (0,), (2,)),
            (TaskKind.GEMM, (1, 2), (3,)),
        ])
        events = [
            _event(0, 0.0, 1.0, slot="thr0", kind="set"),
            _event(1, 1.0, 4.0, slot="thr0"),
            _event(2, 1.0, 2.0, slot="thr1"),
            _event(3, 4.0, 5.0, slot="thr0"),
        ]
        return g, events

    def test_longest_chain_and_reconciliation(self):
        g, events = self._diamond()
        rep = critical_path(g, events)
        assert [s.tid for s in rep.segments] == [0, 1, 3]
        assert rep.makespan == pytest.approx(5.0)
        assert rep.task_seconds == pytest.approx(5.0)
        assert rep.wait_seconds == pytest.approx(0.0)
        assert rep.total == pytest.approx(rep.makespan)
        assert rep.reconciliation == pytest.approx(0.0)

    def test_blocker_attribution(self):
        g, events = self._diamond()
        rep = critical_path(g, events)
        causes = {s.tid: s.blocked_by for s in rep.segments}
        assert causes[0] == BLOCKED_START
        assert causes[1] == BLOCKED_DEPENDENCY
        assert causes[3] == BLOCKED_DEPENDENCY
        assert rep.segments[1].blocker == 0
        assert rep.segments[2].blocker == 1

    def test_dependency_wait_gap(self):
        g, events = self._diamond()
        # Delay t1's start past t0's end: the 0.5 s gap is chain wait.
        events[1] = _event(1, 1.5, 4.5, slot="thr0")
        events[3] = _event(3, 4.5, 5.5, slot="thr0")
        rep = critical_path(g, events)
        assert rep.wait_seconds == pytest.approx(0.5)
        assert rep.wait_by_cause[BLOCKED_DEPENDENCY] == pytest.approx(0.5)
        assert rep.total == pytest.approx(rep.makespan)

    def test_worker_contention_on_chain(self):
        # Two independent tasks serialized on one lane: the second is
        # blocked by the lane, not by any dependency.
        g = _graph([
            (TaskKind.GEMM, (), (0,)),
            (TaskKind.GEMM, (), (1,)),
        ])
        events = [_event(0, 0.0, 2.0), _event(1, 2.0, 5.0)]
        rep = critical_path(g, events)
        assert [s.tid for s in rep.segments] == [0, 1]
        assert rep.segments[1].blocked_by == BLOCKED_WORKER
        assert rep.reconciliation == pytest.approx(0.0)

    def test_per_kind_breakdown(self):
        g, events = self._diamond()
        rep = critical_path(g, events)
        # Chain is t0 (set, 1 s) + t1/t3 (gemm, 3 + 1 s); the event
        # kinds drive the breakdown.
        events_by_tid = {e.tid: e for e in events}
        expect_gemm = sum(events_by_tid[t].duration for t in (1, 3))
        assert rep.per_kind["gemm"] == pytest.approx(expect_gemm)
        assert sum(rep.per_kind.values()) == pytest.approx(rep.task_seconds)

    def test_empty_timeline(self):
        g, _ = self._diamond()
        rep = critical_path(g, [])
        assert rep.segments == []
        assert rep.makespan == 0.0
        assert rep.reconciliation == 0.0
        assert "empty" in rep.format()

    def test_format_renders(self):
        g, events = self._diamond()
        out = critical_path(g, events).format()
        assert "critical path:" in out
        assert "chain time by kernel kind" in out


class TestSlack:
    def test_diamond_slack(self):
        g = _graph([
            (TaskKind.SET, (), (0,)),
            (TaskKind.GEMM, (0,), (1,)),
            (TaskKind.GEMM, (0,), (2,)),
            (TaskKind.GEMM, (1, 2), (3,)),
        ])
        events = [
            _event(0, 0.0, 1.0),
            _event(1, 1.0, 4.0, slot="thr0"),
            _event(2, 1.0, 2.0, slot="thr1"),
            _event(3, 4.0, 5.0),
        ]
        sl = slack(g, events)
        # t0, t1, t3 carry the dependency critical path; only the fast
        # branch t2 can slip (by the 3 - 1 = 2 s duration difference).
        assert sl[0] == pytest.approx(0.0)
        assert sl[1] == pytest.approx(0.0)
        assert sl[3] == pytest.approx(0.0)
        assert sl[2] == pytest.approx(2.0)

    def test_eventless_tasks_are_instantaneous(self):
        g = _graph([
            (TaskKind.SET, (), (0,)),
            (TaskKind.GEMM, (0,), (1,)),
        ])
        sl = slack(g, [_event(1, 0.0, 1.0)])
        assert set(sl) == {1}
        assert sl[1] == pytest.approx(0.0)


class TestOccupancy:
    def test_lane_attribution(self):
        events = [
            _event(0, 0.0, 2.0, slot="thr0"),
            _event(1, 3.0, 4.0, slot="thr0"),
            _event(2, 0.0, 1.0, slot="thr1"),
        ]
        lanes = {l.slot: l for l in occupancy(events)}
        # Global span is 4 s; idle is charged against it per lane.
        assert lanes["thr0"].busy_seconds == pytest.approx(3.0)
        assert lanes["thr0"].idle_seconds == pytest.approx(1.0)
        assert lanes["thr0"].utilization == pytest.approx(0.75)
        assert lanes["thr1"].busy_seconds == pytest.approx(1.0)
        assert lanes["thr1"].idle_seconds == pytest.approx(3.0)
        assert lanes["thr0"].tasks == 2

    def test_empty(self):
        assert occupancy([]) == []


class TestMeasuredRun:
    """The acceptance invariant: chain totals reconcile with the
    measured makespan on a real threads(4) run."""

    @pytest.fixture(scope="class")
    def run(self):
        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=4,
                     sink=sink, sanitize=None)
        a = generate_matrix(96, cond=1e4, dtype=np.float64, seed=0)
        d = DistMatrix.from_array(rt, a, 32, name="A")
        tiled_qdwh(rt, d, backend="threads", workers=4)
        graph = rt.graph
        rt.close()
        return graph, sink

    def test_reconciles_within_one_percent(self, run):
        graph, sink = run
        rep = critical_path(graph, sink.tasks)
        assert rep.segments
        assert rep.makespan > 0.0
        assert rep.reconciliation < 0.01

    def test_chain_is_a_valid_executed_chain(self, run):
        graph, sink = run
        rep = critical_path(graph, sink.tasks)
        for prev, cur in zip(rep.segments, rep.segments[1:]):
            assert cur.blocker == prev.tid
            assert cur.start >= prev.end - 1e-9

    def test_slack_covers_all_measured_tasks(self, run):
        graph, sink = run
        sl = slack(graph, sink.tasks)
        assert set(sl) == {e.tid for e in sink.tasks}
        assert all(v >= 0.0 for v in sl.values())

    def test_occupancy_lanes_bounded_by_workers(self, run):
        _, sink = run
        lanes = occupancy(sink.tasks)
        assert 1 <= len(lanes) <= 4
        # W lanes: the driver and the pool's three threads.
        assert {l.slot for l in lanes} <= {"drv", "thr0", "thr1", "thr2"}
        assert "drv" in {l.slot for l in lanes}
        assert sum(l.tasks for l in lanes) == len(sink.tasks)
        span = max(e.end for e in sink.tasks) - min(
            e.start for e in sink.tasks)
        for lane in lanes:
            assert lane.busy_seconds + lane.idle_seconds == pytest.approx(
                span)
