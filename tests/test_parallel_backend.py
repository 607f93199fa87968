"""Tests for the threaded execution backend.

Covers :class:`repro.runtime.parallel.ParallelExecutor` (dependency
order, lookahead gating, ordering-violation detection, measured
timeline events, stats), :meth:`repro.runtime.graph.TaskGraph.validate`
(structural invariants), the determinism contract of the backend
(workers=1 bit-identical to eager; workers=4 reproducible to O(eps)),
and the single-publication rule for kernel-invocation metrics.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix
from repro.matrices import generate_matrix
from repro.obs import get_registry
from repro.obs.timeline import TimelineSink
from repro.runtime import (
    GraphValidationError,
    OrderingViolationError,
    ParallelExecutor,
    TaskGraph,
    TaskKind,
)
from repro.runtime.task import Task

from .conftest import make_runtime


def _task(tid, reads=(), writes=(), phase=0, kind=TaskKind.GEMM):
    return Task(tid=tid, kind=kind,
                reads=tuple((0, r, 0) for r in reads),
                writes=tuple((0, w, 0) for w in writes),
                rank=0, phase=phase)


def _graph(specs):
    """Graph from (reads, writes[, phase]) tuples via dependency
    inference — valid by construction."""
    g = TaskGraph()
    tiles = set()
    for spec in specs:
        tiles |= set(spec[0]) | set(spec[1])
    for t in tiles:
        g.register_tile((0, t, 0), 64, owner=0)
    for tid, spec in enumerate(specs):
        phase = spec[2] if len(spec) > 2 else 0
        g.add(_task(tid, reads=spec[0], writes=spec[1], phase=phase))
    return g


class TestGraphValidate:
    def test_valid_by_construction(self):
        g = _graph([((), (0,)), ((0,), (1,)), ((0, 1), (2,)), ((), (0,))])
        assert g.validate() == []

    def test_tid_position_mismatch(self):
        g = TaskGraph()
        g.add(_task(0, writes=(0,)))
        g.tasks[0].tid = 5
        probs = g.validate(raise_on_error=False)
        assert any("tid" in p for p in probs)

    def test_forward_edge(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[0].deps = (1,)
        probs = g.validate(raise_on_error=False)
        assert any("forward" in p for p in probs)

    def test_cycle_reported(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[0].deps = (1,)  # 0 -> 1 -> 0
        probs = g.validate(raise_on_error=False)
        assert any("cycle" in p for p in probs)

    def test_self_dependency(self):
        g = _graph([((), (0,))])
        g.tasks[0].deps = (0,)
        probs = g.validate(raise_on_error=False)
        assert any("itself" in p for p in probs)

    def test_out_of_range_dep(self):
        g = _graph([((), (0,))])
        g.tasks[0].deps = (7,)
        probs = g.validate(raise_on_error=False)
        assert any("out-of-range" in p for p in probs)

    def test_missing_raw_edge(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[1].deps = ()  # strip the read-after-write edge
        probs = g.validate(raise_on_error=False)
        assert any("last writer" in p for p in probs)

    def test_concurrent_writers(self):
        g = _graph([((), (0,)), ((), (0,))])
        g.tasks[1].deps = ()  # strip the write-after-write edge
        probs = g.validate(raise_on_error=False)
        assert any("concurrent writers" in p for p in probs)

    def test_missing_war_edge(self):
        g = _graph([((), (0,)), ((0,), (1,)), ((), (0,))])
        g.tasks[2].deps = ()  # strip write-after-read (and WAW)
        probs = g.validate(raise_on_error=False)
        assert any("reader" in p for p in probs)

    def test_raises_with_problem_list(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[1].deps = ()
        with pytest.raises(GraphValidationError) as ei:
            g.validate()
        assert ei.value.problems

    def test_window_limits_checks(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[1].deps = ()
        assert g.validate(1) == []  # the bad task is outside the window

    @staticmethod
    def _counting(g, monkeypatch):
        """Record the ``[lo, hi)`` ranges ``validate`` actually scans."""
        scanned = []
        check = g._check

        def counted(lo, hi, *tables):
            scanned.append((lo, hi))
            return check(lo, hi, *tables)

        monkeypatch.setattr(g, "_check", counted)
        return scanned

    def test_windowed_validate_visits_each_task_once(self, monkeypatch):
        g = _graph([((), (0,)), ((0,), (1,)), ((0, 1), (2,)), ((), (0,)),
                    ((2,), (1,)), ((0, 1), (2,))])
        scanned = self._counting(g, monkeypatch)
        for end in (2, 2, 3, 6, 4):
            assert g.validate(end) == []
        assert scanned == [(0, 2), (2, 3), (3, 6)]
        # No ``end``: the full stateless rescan, cursor or not.
        assert g.validate() == []
        assert scanned[-1] == (0, 6)

    @pytest.mark.parametrize("breakage, message", [
        (lambda g: setattr(g.tasks[4], "deps", (2,)), "last writer 3"),
        (lambda g: setattr(g.tasks[5], "deps", (4,)), "concurrent writers"),
        (lambda g: setattr(g.tasks[3], "deps", ()), "reader 2"),
        (lambda g: setattr(g.tasks[3], "deps", (1, 2, 5)), "forward"),
    ], ids=["raw", "waw", "war", "forward"])
    def test_windowed_validate_catches_later_window(self, breakage,
                                                    message):
        # 0: w0 | 1: r0 w1 | 2: r0,1 w2 | 3: w0 | 4: r0 w1 | 5: w0
        g = _graph([((), (0,)), ((0,), (1,)), ((0, 1), (2,)), ((), (0,)),
                    ((0,), (1,)), ((), (0,))])
        assert g.validate(3) == []          # the prefix is remembered...
        breakage(g)
        with pytest.raises(GraphValidationError, match=message):
            g.validate(6)                   # ...with its writer/reader tables
        # A prefix with problems is not remembered: same verdict again.
        assert g.validate(6, raise_on_error=False)
        assert g.validate(3) == []

    def test_full_validate_sees_mutation_inside_validated_prefix(self):
        g = _graph([((), (0,)), ((0,), (1,)), ((1,), (2,))])
        assert g.validate(3) == []
        g.tasks[1].deps = ()
        assert g.validate(3) == []          # resumed: nothing left to scan
        probs = g.validate(raise_on_error=False)
        assert any("without depending on its last writer" in p
                   for p in probs)

    def test_cursor_survives_abandon_pending(self, monkeypatch):
        # A failed window is abandoned and replacement work submitted:
        # the graph only grew, so validation resumes where it stopped.
        from repro.dist import ProcessGrid
        from repro.runtime import Runtime

        with Runtime(ProcessGrid(1, 1), deferred=True, workers=1,
                     sanitize=None) as rt:
            a = DistMatrix(rt, 32, 16, 16, np.float64)
            scanned = self._counting(rt.graph, monkeypatch)

            def boom():
                raise np.linalg.LinAlgError("breakdown")

            for fn in (lambda: None, boom, lambda: None):
                rt.submit(TaskKind.GEMM, reads=(a.ref(0, 0),),
                          writes=(a.ref(1, 0),), rank=0, fn=fn)
            with pytest.raises(np.linalg.LinAlgError):
                rt.sync()
            rt.abandon_pending()
            for _ in range(2):
                rt.submit(TaskKind.GEMM, reads=(a.ref(1, 0),),
                          writes=(a.ref(0, 0),), rank=0, fn=lambda: None)
            rt.sync()
            assert rt.exec_stats.tasks_run == 3
        # The executor's construction-time full scan, then one resumed
        # scan per window.
        assert scanned == [(0, 3), (0, 3), (3, 5)]


class TestParallelExecutor:
    def test_rejects_invalid_graph(self):
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[1].deps = ()
        with pytest.raises(GraphValidationError):
            ParallelExecutor(g)

    def test_dependency_order_diamond(self):
        # 0 writes t0; 1 and 2 read t0; 3 reads both results.
        g = _graph([((), (0,)), ((0,), (1,)), ((0,), (2,)), ((1, 2), (3,))])
        order = []
        lock = threading.Lock()

        def mk(tid):
            def fn():
                with lock:
                    order.append(tid)
            return fn

        with ParallelExecutor(g, {t: mk(t) for t in range(4)},
                              workers=4) as ex:
            ex.run()
        assert order.index(0) < order.index(1)
        assert order.index(0) < order.index(2)
        assert order.index(3) == 3

    def test_single_worker_program_order(self):
        # Independent tasks: a 1-thread pool must still follow tid order.
        g = _graph([((), (i,)) for i in range(8)])
        order = []
        fns = {t: (lambda t=t: order.append(t)) for t in range(8)}
        with ParallelExecutor(g, fns, workers=1) as ex:
            ex.run()
        assert order == list(range(8))

    @staticmethod
    def _phased_events(backend, lookahead):
        """Four dataflow-independent 30 ms tasks in consecutive phases,
        run by ``Runtime`` on ``backend`` with two workers (enough for
        a second lane to be fed on the processes backend, whose lanes
        are two dispatches deep); returns their TaskEvents by tid."""
        from repro.dist import ProcessGrid
        from repro.runtime import Runtime

        sink = TimelineSink()
        with Runtime(ProcessGrid(1, 1), deferred=True, backend=backend,
                     workers=2, lookahead=lookahead, sink=sink,
                     sanitize=None) as rt:
            a = DistMatrix(rt, 64, 16, 16, np.float64)
            for i in range(4):
                rt.submit(TaskKind.GEMM, writes=(a.ref(i, 0),), rank=0,
                          fn=lambda: time.sleep(0.03))
                rt.advance_phase()
            rt.sync()
        return {e.tid: e for e in sink.tasks}

    def test_lookahead_gates_phases(self):
        # With lookahead=0 every phase must wait out the one before —
        # on every backend (worker clocks are aligned to ~a round trip).
        for backend in ("threads", "processes"):
            ev = self._phased_events(backend, 0)
            for tid in range(1, 4):
                assert ev[tid].start >= ev[tid - 1].end - 5e-3, backend

    def test_no_lookahead_overlaps_phases(self):
        for backend in ("threads", "processes"):
            ev = self._phased_events(backend, None)
            # A later phase starts before phase 0 finishes (true
            # concurrency across phases).
            assert min(ev[t].start for t in range(1, 4)) < ev[0].end, \
                backend

    def test_detects_missing_raw_edge_at_runtime(self):
        # Reader whose RAW edge was stripped races its writer; the
        # epoch assertion fires whichever thread wins.
        g = _graph([((), (0,)), ((0,), (1,))])
        g.tasks[1].deps = ()
        fns = {0: lambda: time.sleep(0.1), 1: lambda: None}
        with ParallelExecutor(g, fns, workers=2, validate=False) as ex, \
                pytest.raises(OrderingViolationError):
            ex.run()

    def test_detects_concurrent_writers_at_runtime(self):
        g = _graph([((), (0,)), ((), (0,))])
        g.tasks[1].deps = ()
        fns = {0: lambda: time.sleep(0.1), 1: lambda: None}
        with ParallelExecutor(g, fns, workers=2, validate=False) as ex, \
                pytest.raises(OrderingViolationError):
            ex.run()

    def test_payload_exception_propagates(self):
        # Under recovery=None the first payload failure is final, and
        # the failed attempt itself drops its in-flight reader/writer
        # marks: abandon_window() asserts that instead of sweeping up.
        for exc_type in (ZeroDivisionError, np.linalg.LinAlgError):
            g = _graph([((), (0,)), ((0,), (1,))])

            def boom():
                raise exc_type("payload failure")

            with ParallelExecutor(g, {0: lambda: None, 1: boom}) as ex:
                with pytest.raises(exc_type):
                    ex.run()
                assert ex.inflight_attempts == 0
                assert not ex._writer_active and not ex._readers_active
                ex.abandon_window()
                assert ex.stats.tasks_run == 1

    def test_measured_sink_events(self):
        from repro.obs.export import chrome_trace
        g = _graph([((), (0,)), ((0,), (1,)), ((1,), (2,))])
        sink = TimelineSink()
        fns = {t: (lambda: None) for t in range(3)}
        with ParallelExecutor(g, fns, workers=2, sink=sink) as ex:
            ex.run()
        assert len(sink.tasks) == 3
        assert all(e.measured for e in sink.tasks)
        assert all(e.end >= e.start >= 0.0 for e in sink.tasks)
        # The driver is a lane too: a chain never leaves it.
        assert {e.slot for e in sink.tasks} <= {"drv", "thr0"}
        xs = [e for e in chrome_trace(sink)["traceEvents"]
              if e.get("ph") == "X"]
        assert len(xs) == 3
        assert all(e["args"]["measured"] for e in xs)

    def test_windowed_execution_and_stats(self):
        g = _graph([((), (0,)), ((0,), (1,)), ((1,), (2,)), ((2,), (3,))])
        done = []
        fns = {t: (lambda t=t: done.append(t)) for t in range(4)}
        with ParallelExecutor(g, fns, workers=2) as ex:
            ex.run(0, 2)
            assert done == [0, 1]
            ex.run(2, 4)
        assert done == [0, 1, 2, 3]
        assert ex.stats.windows == 2
        assert ex.stats.tasks_run == 4
        assert ex.stats.workers == 2
        assert ex.stats.wall_seconds > 0.0
        assert 0.0 <= ex.stats.utilization <= 1.0

    def test_payloadless_tasks_are_noops(self):
        # Replaying a graph with no payloads (symbolic/eager history)
        # completes and publishes no kernel metrics.
        g = _graph([((), (0,)), ((0,), (1,))])
        before = get_registry().counter(
            "kernel.invocations.gemm").value
        with ParallelExecutor(g, {}, workers=2) as ex:
            ex.run()
        after = get_registry().counter("kernel.invocations.gemm").value
        assert after == before
        assert ex.stats.tasks_run == 2


class TestDriverLane:
    """The unwatched threads driver is an execution lane (slot ``drv``)
    beside ``workers - 1`` pool threads; a watched one only dispatches."""

    def test_workers1_starts_no_thread(self):
        a = generate_matrix(48, cond=1e4, seed=21)
        ue, he = _run_qdwh(a)
        before = threading.active_count()
        rt = make_runtime(1, 1)
        da = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, da, backend="threads", workers=1)
        assert np.array_equal(ue, res.u.to_array())
        assert np.array_equal(he, res.h.to_array())
        assert threading.active_count() == before
        assert rt.executor._pool is None
        assert rt.exec_stats.tasks_run == len(rt.graph)
        rt.close()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    @pytest.mark.parametrize("n, nb", [(40, 16), (24, 32)],
                             ids=["ragged", "nb>n"])
    def test_workers_1_and_2_match_eager(self, dtype, n, nb):
        a = generate_matrix(n, cond=10.0, dtype=dtype, seed=22)
        ue, he = _run_qdwh(a, nb=nb)
        u1, h1 = _run_qdwh(a, nb=nb, backend="threads", workers=1)
        assert np.array_equal(u1, ue) and np.array_equal(h1, he)
        u2, h2 = _run_qdwh(a, nb=nb, backend="threads", workers=2)
        tol = 100 * np.finfo(dtype).eps * np.linalg.norm(a)
        assert np.max(np.abs(u2 - ue)) <= tol
        assert np.max(np.abs(h2 - he)) <= tol

    def test_two_workers_are_the_driver_and_one_thread(self):
        # Three windows of a wide layer feeding chains: both lanes get
        # work, every task runs exactly once, nothing stays in flight.
        specs = [((), (i,)) for i in range(8)]
        specs += [((i % 8,), (8 + i % 4,)) for i in range(16)]
        g = _graph(specs)
        ran = []
        sink = TimelineSink()
        fns = {t: (lambda t=t: ran.append(t)) for t in range(len(specs))}
        with ParallelExecutor(g, fns, workers=2, sink=sink) as ex:
            for start, end in ((0, 8), (8, 16), (16, 24)):
                ex.run(start, end)
                assert ex.inflight_attempts == 0
                assert not ex._writer_active and not ex._readers_active
            assert ex._pool._max_workers == 1
            stats = ex.stats
        assert sorted(ran) == list(range(24))
        assert sorted(e.tid for e in sink.tasks) == list(range(24))
        assert {e.slot for e in sink.tasks} == {"drv", "thr0"}
        assert stats.workers == 2
        assert stats.utilization == pytest.approx(
            stats.busy_seconds / (stats.wall_seconds * 2))

    def test_driver_takes_the_lowest_ready_tid(self):
        # A chain has one ready task at a time: it never leaves the
        # driver, whatever the worker count.
        g = _graph([((), (0,))] + [((0,), (0,))] * 5)
        sink = TimelineSink()
        with ParallelExecutor(g, {t: (lambda: None) for t in range(6)},
                              workers=3, sink=sink) as ex:
            ex.run()
        assert [e.slot for e in sink.tasks] == ["drv"] * 6

    def test_driver_and_pool_share_the_epoch_tables_under_stress(self):
        # More lanes than cores and a 10 us switch interval: the driver
        # and three pool threads check tiles in and out concurrently.
        # Each counter tile is bumped by a 40-task chain; a lost update
        # or a missed epoch would break the counts or raise.
        tiles, rounds = 16, 40
        g = _graph([((t,), (t,)) for _ in range(rounds)
                    for t in range(tiles)])
        count = [0] * tiles

        def bump(t):
            def fn():
                seen = count[t]
                time.sleep(0)           # invite a switch mid-update
                count[t] = seen + 1
            return fn

        fns = {tid: bump(tid % tiles) for tid in range(tiles * rounds)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ParallelExecutor(g, fns, workers=4) as ex:
                ex.run()
                assert ex.inflight_attempts == 0
                assert not ex._writer_active and not ex._readers_active
        finally:
            sys.setswitchinterval(interval)
        assert count == [rounds] * tiles
        assert ex.stats.tasks_run == tiles * rounds

    @pytest.mark.parametrize("watch", ["task_timeout", "fault_plan"])
    def test_watched_driver_runs_no_payload(self, watch):
        from repro.dist import ProcessGrid
        from repro.resilience import RecoveryPolicy, plan_from_spec
        from repro.runtime import Runtime

        kw = ({"recovery": RecoveryPolicy(task_timeout=30.0)}
              if watch == "task_timeout" else
              {"faults": plan_from_spec(seed=3, transient_p=0.2)})
        idents = set()
        sink = TimelineSink()
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     sink=sink, sanitize=None, **kw) as rt:
            a = DistMatrix(rt, 64, 16, 16, np.float64)
            for i in range(24):
                rt.submit(TaskKind.GEMM, writes=(a.ref(i % 4, 0),), rank=0,
                          fn=lambda: idents.add(threading.get_ident()))
            rt.sync()
            assert rt.exec_stats.tasks_run == 24
            assert rt.executor.inflight_attempts == 0
        assert idents and threading.get_ident() not in idents
        assert "drv" not in {e.slot for e in sink.tasks}


class TestPlacement:
    """A window none of whose tasks is worth a hand-off gets no lanes:
    no thread, no pool, every task on the driver."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    @pytest.mark.parametrize("m, n, nb",
                             [(64, 64, 32), (81, 42, 32), (24, 24, 32)],
                             ids=["square", "tall-ragged", "nb>n"])
    def test_small_tiles_start_no_thread(self, dtype, m, n, nb):
        a = generate_matrix(m, n, cond=10.0, dtype=dtype, seed=23)
        ue, he = _run_qdwh(a, nb=nb)
        before = threading.active_count()
        sink = TimelineSink()
        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=4, sink=sink)
        da = DistMatrix.from_array(rt, a.copy(), nb)
        res = tiled_qdwh(rt, da, backend="threads", workers=4)
        assert threading.active_count() == before
        assert rt.executor._pool is None and rt.exec_stats.shipped == 0
        assert {e.slot for e in sink.tasks} == {"drv"}
        assert rt.exec_stats.tasks_run == len(rt.graph)
        assert np.array_equal(res.u.to_array(), ue)
        assert np.array_equal(res.h.to_array(), he)
        rt.close()

    def test_big_tiles_keep_their_lanes(self):
        # nb=128: every iteration window holds an 8 Mflop task, so the
        # driver and one pool thread share it as before; the estimator
        # sweeps between them stay on the driver.
        a = generate_matrix(256, cond=1e4, seed=24)
        ue, he = _run_qdwh(a, nb=128)
        sink = TimelineSink()
        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=2, sink=sink)
        da = DistMatrix.from_array(rt, a.copy(), 128)
        res = tiled_qdwh(rt, da, backend="threads", workers=2)
        stats = rt.exec_stats
        assert rt.executor._pool._max_workers == 1
        assert {e.slot for e in sink.tasks} == {"drv", "thr0"}
        assert 0 < stats.shipped < stats.tasks_run
        tol = 100 * np.finfo(np.float64).eps * np.linalg.norm(a)
        assert np.max(np.abs(res.u.to_array() - ue)) <= tol
        assert np.max(np.abs(res.h.to_array() - he)) <= tol
        rt.close()

    def test_window_by_window(self):
        # The question is asked per window and answered from declared
        # costs: below the floor -> driver only; one task at the floor
        # -> lanes for the whole window; no declared cost -> not judged.
        from repro.runtime.window import LANE_MIN_FLOPS
        g = _graph([((), (i,)) for i in range(12)])
        for t in g.tasks[:4]:
            t.flops = LANE_MIN_FLOPS / 2
        for t in g.tasks[4:8]:
            t.flops = 1.0
        g.tasks[5].flops = LANE_MIN_FLOPS
        sink = TimelineSink()
        fns = {t: (lambda: time.sleep(0.002)) for t in range(12)}
        with ParallelExecutor(g, fns, workers=2, sink=sink) as ex:
            assert not ex.exercises_transport
            ex.run(0, 4)
            assert ex._pool is None and ex.stats.shipped == 0
            ex.run(4, 8)
            assert ex._pool is not None and ex.stats.shipped > 0
            shipped = ex.stats.shipped
            ex.run(8, 12)
            assert ex.stats.shipped > shipped
        slots = {e.tid: e.slot for e in sink.tasks}
        assert {slots[t] for t in range(4)} == {"drv"}
        assert "thr0" in {slots[t] for t in range(4, 8)}
        assert "thr0" in {slots[t] for t in range(8, 12)}

    def test_watched_executor_always_ships(self):
        from repro.resilience import RecoveryPolicy
        g = _graph([((), (i,)) for i in range(6)])
        for t in g.tasks:
            t.flops = 1.0
        sink = TimelineSink()
        with ParallelExecutor(g, {t: (lambda: None) for t in range(6)},
                              workers=2, sink=sink,
                              recovery=RecoveryPolicy(task_timeout=30.0)
                              ) as ex:
            assert ex.exercises_transport
            ex.run()
            assert ex.stats.shipped == 6
        assert "drv" not in {e.slot for e in sink.tasks}


def _run_qdwh(a, nb=16, backend="eager", workers=None):
    rt = make_runtime(1, 1)
    if backend == "threads":
        rt.enable_deferred(workers=workers)
    da = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, da, backend=backend, workers=workers)
    u, h = res.u.to_array(), res.h.to_array()
    rt.close()
    return u, h


class TestDeterminism:
    def test_workers1_bit_identical_to_eager(self):
        # One dispatch loop: no policy and an empty policy run the
        # same tasks in the same windows to the same bits, and an
        # empty policy leaves no trace in the recovery accounting.
        from repro.resilience import RecoveryPolicy, RecoveryStats

        a = generate_matrix(64, 48, cond=1e8, seed=11)
        ue, he = _run_qdwh(a)
        shapes = []
        for recovery in (None, RecoveryPolicy()):
            rt = make_runtime(1, 1)
            rt.enable_deferred(workers=1, recovery=recovery)
            da = DistMatrix.from_array(rt, a.copy(), 16)
            res = tiled_qdwh(rt, da, backend="threads", workers=1)
            assert np.array_equal(ue, res.u.to_array())
            assert np.array_equal(he, res.h.to_array())
            stats = rt.exec_stats
            assert stats.recovery == RecoveryStats()
            assert rt.executor.inflight_attempts == 0
            shapes.append((stats.tasks_run, stats.windows))
            rt.close()
        assert shapes[0] == shapes[1]

    def test_workers4_run_to_run_reproducible(self):
        # Every reduction reads its partial tiles in fixed index order,
        # so any worker count on either backend gives the eager bits —
        # run to run.  384^2 / nb=128 is above the granularity floor:
        # the factorization windows get lanes.
        a = generate_matrix(384, cond=10.0, seed=12)
        u0, h0 = _run_qdwh(a, nb=128)
        for backend, workers in (("threads", 4), ("processes", 3)):
            for _ in range(3):
                rt = make_runtime(1, 1)
                da = DistMatrix.from_array(rt, a.copy(), 128)
                res = tiled_qdwh(rt, da, backend=backend, workers=workers)
                assert np.array_equal(res.u.to_array(), u0)
                assert np.array_equal(res.h.to_array(), h0)
                assert rt.exec_stats.shipped > 0
                rt.close()


class TestKernelCounterSinglePath:
    """Kernel invocation counters are published from exactly one
    execution path (eager submit or the executor), never both."""

    def _count_all(self):
        snap = get_registry().snapshot()["counters"]
        return sum(v for k, v in snap.items()
                   if k.startswith("kernel.invocations."))

    def _submit_work(self, rt):
        hits = []
        tiles = [(90, i, 0) for i in range(4)]
        rt.register_tiles(tiles, 64)
        for i, ref in enumerate(tiles):
            rt.submit(TaskKind.GEMM, reads=(), writes=(ref,), rank=0,
                      fn=lambda i=i: hits.append(i))
        return hits

    def test_eager_counts_once_per_payload(self):
        rt = make_runtime(1, 1)
        before = self._count_all()
        hits = self._submit_work(rt)
        assert len(hits) == 4
        assert self._count_all() - before == 4

    def test_deferred_counts_once_per_payload(self):
        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=2)
        before = self._count_all()
        hits = self._submit_work(rt)
        assert hits == []  # recorded, not run
        rt.sync()
        assert len(hits) == 4
        assert self._count_all() - before == 4
        rt.sync()  # idempotent: nothing pending, nothing recounted
        assert self._count_all() - before == 4
        rt.close()

    def test_symbolic_counts_nothing(self):
        rt = make_runtime(1, 1, numeric=False)
        before = self._count_all()
        self._submit_work(rt)
        assert self._count_all() - before == 0

    def test_eager_equals_deferred_for_same_program(self):
        # workers=1 replays the exact eager program (bit-identical
        # dataflow), so the kernel census must match exactly.
        a = generate_matrix(32, cond=100.0, seed=13)
        before = self._count_all()
        _run_qdwh(a, nb=16)
        eager_delta = self._count_all() - before
        before = self._count_all()
        _run_qdwh(a, nb=16, backend="threads", workers=1)
        deferred_delta = self._count_all() - before
        assert eager_delta > 0
        assert deferred_delta == eager_delta


class TestRuntimeDeferred:
    def test_deferred_requires_numeric(self):
        from repro.dist import ProcessGrid
        from repro.runtime import Runtime
        with pytest.raises(ValueError):
            Runtime(ProcessGrid(1, 1), numeric=False, deferred=True)

    def test_backend_validation(self):
        rt = make_runtime(1, 1)
        da = DistMatrix.from_array(rt, np.eye(8), 4)
        with pytest.raises(ValueError):
            tiled_qdwh(rt, da, backend="cuda")
        rt_s = make_runtime(1, 1, numeric=False)
        da_s = DistMatrix(rt_s, 8, 8, 4)
        with pytest.raises(ValueError):
            tiled_qdwh(rt_s, da_s, backend="threads", cond_est=1e4)

    def test_scalar_reads_sync(self):
        from repro.tiled.norms import norm_fro
        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=2)
        a = generate_matrix(24, cond=10.0, seed=14)
        da = DistMatrix.from_array(rt, a, 8)
        nrm = norm_fro(rt, da)
        assert nrm.value == pytest.approx(np.linalg.norm(a))
        rt.close()

    def test_exec_stats_exposed(self):
        a = generate_matrix(32, cond=100.0, seed=15)
        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=2)
        da = DistMatrix.from_array(rt, a, 16)
        tiled_qdwh(rt, da, backend="threads", workers=2)
        stats = rt.exec_stats
        assert stats is not None
        assert stats.tasks_run == len(rt.graph)
        assert stats.windows >= 1
        assert stats.per_kind_seconds
        rt.close()

    def test_measured_timeline_through_runtime(self):
        from repro.dist import ProcessGrid
        from repro.runtime import Runtime
        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     sink=sink)
        a = generate_matrix(24, cond=10.0, seed=16)
        da = DistMatrix.from_array(rt, a, 8)
        res = tiled_qdwh(rt, da, backend="threads", workers=2)
        res.u.to_array()
        assert len(sink.tasks) == len(rt.graph)
        assert all(e.measured for e in sink.tasks)
        rt.close()
