"""Tests for the multi-process distributed runtime.

Three layers, tested at three granularities:

* :class:`DynamicScheduler` — pure bookkeeping, unit-tested with
  hand-built task lists (dependency counting, the one ready heap,
  worker removal for crash recovery).
* :class:`SharedTileStore` — shm segment lifecycle: pin once, a
  segment as long-lived as its matrix, evacuation of live results at
  close, and the ``/dev/shm`` scan that grounds the leak gates.
* :class:`ProcessExecutor` end to end via ``tiled_qdwh
  (backend="processes")`` — bit-identity with the eager backend,
  real SIGKILL crash recovery, a frozen worker found by its heartbeat
  silence, a broken link read as a dead worker, graceful degradation
  to threads and eager, and the zero-leak invariants.
"""

import os
import signal
import socket
import time
from unittest import mock

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix, polar_report
from repro.runtime import Runtime
from repro.runtime.distributed import (
    DynamicScheduler,
    SharedTileStore,
    scan_segments,
)
from repro.runtime.task import Task, TaskKind


def _task(tid, deps=(), reads=(), writes=()):
    return Task(tid=tid, kind=TaskKind.GEMM, reads=tuple(reads),
                writes=tuple(writes), rank=0, phase=0,
                deps=tuple(deps))


def _sched(tasks, worker_ok=None, pipeline_depth=2):
    ok = worker_ok if worker_ok is not None \
        else {t.tid: True for t in tasks}
    return DynamicScheduler(tasks, 0, len(tasks), ok,
                            pipeline_depth=pipeline_depth)


class TestDynamicScheduler:
    def test_dependency_counting_releases_successors(self):
        tasks = [_task(0), _task(1, deps=(0,)), _task(2, deps=(0, 1))]
        s = _sched(tasks)
        s.add_worker(0)
        assert s.next_for(0) == 0
        assert s.next_for(0) is None        # 1 and 2 still blocked
        assert s.on_done(0, 0) == [1]
        assert s.next_for(0) == 1
        assert s.on_done(1, 0) == [2]
        assert s.next_for(0) == 2
        s.on_done(2, 0)
        assert s.pending == 0

    def test_driver_tasks_never_reach_workers(self):
        tasks = [_task(0), _task(1)]
        s = _sched(tasks, worker_ok={0: True, 1: False})
        s.add_worker(0)
        assert s.next_driver() == 1
        assert s.next_for(0) == 0
        assert s.next_driver() is None

    def test_pipeline_depth_caps_inflight(self):
        tasks = [_task(i) for i in range(4)]
        s = _sched(tasks, pipeline_depth=2)
        s.add_worker(0)
        assert s.next_for(0) is not None
        assert s.next_for(0) is not None
        assert s.next_for(0) is None        # cap reached
        s.on_done(0, 0)
        assert s.next_for(0) is not None

    def test_lookahead_window_width_and_driver_lane(self):
        # A driver-only task surfaces on the driver lane, never on a
        # worker; a released successor joins the one ready heap.
        tasks = [_task(0), _task(1), _task(2, deps=(1,)), _task(3)]
        s = _sched(tasks, worker_ok={0: True, 1: True, 2: True, 3: False},
                   pipeline_depth=8)
        s.add_worker(0)
        assert [s.next_for(0), s.next_for(0)] == [0, 1]
        assert s.next_for(0) is None        # 3 is the driver's
        assert s.next_driver() == 3
        assert s.next_driver() is None      # the driver does not help
        assert s.on_done(1, 0) == [2]
        assert s.next_for(0) == 2

    def test_requeued_tasks_go_ahead_of_later_ready_tids(self):
        tasks = [_task(0), _task(1), _task(2)]
        s = _sched(tasks, pipeline_depth=8)
        s.add_worker(0)
        assert [s.next_for(0), s.next_for(0)] == [0, 1]
        inflight = s.remove_worker(0)
        assert inflight == [0, 1]
        s.requeue(inflight)
        s.add_worker(1)
        assert [s.next_for(1), s.next_for(1), s.next_for(1)] == [0, 1, 2]
        assert s.next_for(1) is None

    def test_remove_worker_returns_held_work_for_replay(self):
        tasks = [_task(i) for i in range(5)]
        s = _sched(tasks, pipeline_depth=2)
        s.add_worker(0)
        s.add_worker(1)
        assert [s.next_for(1), s.next_for(0), s.next_for(0)] == [0, 1, 2]
        # Only what the lane had in flight comes back; the rest never
        # left the ready heap.
        assert s.remove_worker(0) == [1, 2]
        s.requeue([1, 2])
        # Requeued work flows to a survivor, lowest tid first.
        s.on_done(0, 1)
        assert [s.next_for(1), s.next_for(1)] == [1, 2]
        # A dead worker never receives work again.
        assert s.next_for(0) is None
        assert s.remove_worker(0) == []

    def test_out_of_window_deps_are_external(self):
        tasks = [_task(0), _task(1, deps=(0,)), _task(2, deps=(0, 1))]
        s = DynamicScheduler(tasks, 1, 3, {1: True, 2: True})
        s.add_worker(0)
        # dep 0 predates the window: task 1 is born ready.
        assert s.next_for(0) == 1


#: (m, n, nb, row_heights): uniform / ragged last tile / nb > n / the
#: stacked [sqrt(c) A; I] workspace, whose identity block starts at an
#: arbitrary row.
STORE_SHAPES = [(8, 8, 4, None), (11, 7, 4, None), (5, 3, 8, None),
                (13, 6, 4, (4, 3, 4, 2))]

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


class TestSharedTileStore:
    """One segment per matrix; a pinned tile is a view into it."""

    def _mat(self, rt, n=8, nb=4):
        a = np.arange(n * n, dtype=np.float64).reshape(n, n)
        return a, DistMatrix.from_array(rt, a, nb)

    @staticmethod
    def _pin(store, d, i, j):
        return store.pin_tile(d, i, j, (d.tile_rows(i), d.tile_cols(j)),
                              d.dtype)

    def test_pin_is_idempotent_and_scannable(self):
        rt = Runtime(ProcessGrid(1, 1))
        _, d = self._mat(rt)
        store = SharedTileStore()
        assert store.segment_of(d.ref(0, 0)) is None
        arr = self._pin(store, d, 0, 0)
        assert d._tiles[(0, 0)] is arr
        assert self._pin(store, d, 0, 0) is arr
        assert len(store.live_segments()) == 1
        assert scan_segments(store.prefix) == store.live_segments()
        # The matrix has its segment; its other tiles are not pinned
        # until someone pins them, and then land in the same segment.
        assert store.segment_of(d.ref(1, 1)) is None
        self._pin(store, d, 1, 1)
        assert (store.segment_of(d.ref(1, 1))
                == store.segment_of(d.ref(0, 0))
                == store.live_segments()[0])
        with pytest.raises(ValueError):
            store.pin_tile(d, 0, 1, (4, 3), np.float64)
        store.close()
        rt.close()

    def test_set_tile_writes_through_a_pinned_segment(self):
        rt = Runtime(ProcessGrid(1, 1))
        _, d = self._mat(rt)
        store = SharedTileStore()
        arr = self._pin(store, d, 0, 0)
        d.set_tile(0, 0, np.full((4, 4), 7.0))
        assert d._tiles[(0, 0)] is arr      # one buffer for life
        assert np.array_equal(arr, np.full((4, 4), 7.0))
        assert self._pin(store, d, 0, 0) is arr
        assert len(store.live_segments()) == 1
        store.close()
        rt.close()

    def test_close_unlinks_everything_and_is_idempotent(self):
        rt = Runtime(ProcessGrid(1, 1))
        _, d = self._mat(rt)
        _, e = self._mat(rt)
        store = SharedTileStore()
        for i in range(2):
            for j in range(2):
                self._pin(store, d, i, j)
        self._pin(store, e, 1, 0)
        assert len(scan_segments(store.prefix)) == 2    # one a matrix
        store.close()
        assert scan_segments(store.prefix) == []
        assert store.closed
        store.close()                       # idempotent
        with pytest.raises(RuntimeError):
            self._pin(store, self._mat(rt)[1], 0, 0)
        rt.close()

    def test_close_evacuates_live_results(self):
        # Results outlive the store: after close() the matrix's tiles
        # must be private copies, not views over unmapped segments
        # (reading a stale view would segfault, not raise).
        rt = Runtime(ProcessGrid(1, 1))
        a, d = self._mat(rt)
        store = SharedTileStore()
        views = [self._pin(store, d, i, j)
                 for i in range(2) for j in range(2)]
        store.close()
        assert not any(d._tiles[k] is v
                       for k, v in zip(sorted(d._tiles), views))
        del views
        assert np.array_equal(d.to_array(), a)
        rt.close()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "m, n, nb, rows", STORE_SHAPES,
        ids=["uniform", "ragged", "nb>n", "stacked-rows"])
    def test_one_segment_per_matrix(self, dtype, m, n, nb, rows):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((m, n)).astype(dtype)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix(rt, m, n, nb, dtype=dtype, row_heights=rows)
        keys = [(i, j) for i in range(d.mt) for j in range(d.nt)]
        lazy = keys[-1]                     # never written: lazily zero
        for i, j in keys[:-1]:
            r0, c0 = d.row_offsets[i], d.col_offsets[j]
            d.set_tile(i, j, a[r0:r0 + d.tile_rows(i),
                               c0:c0 + d.tile_cols(j)])
        want = d.to_array()
        with SharedTileStore() as store:
            # Two "windows": the second pins what the first left out,
            # into the same segment.
            first, later = keys[::2], keys[1::2]
            views = {k: self._pin(store, d, *k) for k in first}
            assert all(store.segment_of(d.ref(*k)) is None for k in later)
            views.update((k, self._pin(store, d, *k)) for k in later)
            name, = store.live_segments()
            assert scan_segments(store.prefix) == [name]
            assert all(store.segment_of(d.ref(*k)) == name for k in keys)
            assert all(self._pin(store, d, *k) is views[k] for k in keys)
            assert all(d._tiles[k] is views[k] for k in keys)
            # Disjoint, 64-byte-aligned, C-contiguous byte ranges.
            spans = sorted(
                (v.__array_interface__["data"][0], v.nbytes)
                for v in views.values())
            assert all(at % 64 == 0 for at, _ in spans)
            assert all(at + size <= nxt for (at, size), (nxt, _)
                       in zip(spans, spans[1:]))
            assert all(v.flags.c_contiguous and v.dtype == d.dtype
                       and v.shape == (d.tile_rows(i), d.tile_cols(j))
                       for (i, j), v in views.items())
            assert not views[lazy].any()    # fresh pages read as zeros
            assert np.array_equal(d.to_array(), want)
            # set_tile writes through the view, into this tile only.
            d.set_tile(*lazy, np.full(views[lazy].shape, 3, dtype=dtype))
            assert d._tiles[lazy] is views[lazy] and (views[lazy] == 3).all()
            want[d.row_offsets[lazy[0]]:, d.col_offsets[lazy[1]]:] = 3
            assert np.array_equal(d.to_array(), want)
            del views
        # close() evacuated: the matrix stays readable and private.
        assert scan_segments(store.prefix) == []
        assert np.array_equal(d.to_array(), want)
        rt.close()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dropping_the_matrix_unlinks_its_segment(self, dtype):
        import gc

        rt = Runtime(ProcessGrid(1, 1))
        with SharedTileStore() as store:
            keep = DistMatrix(rt, 8, 8, 4, dtype=dtype)
            gone = DistMatrix(rt, 9, 5, 4, dtype=dtype)
            for d in (keep, gone):
                for i in range(d.mt):
                    for j in range(d.nt):
                        self._pin(store, d, i, j)
            kept = store.segment_of(keep.ref(0, 0))
            assert len(scan_segments(store.prefix)) == 2
            del gone, d
            gc.collect()
            assert scan_segments(store.prefix) == [kept]
            assert store.live_segments() == [kept]
        assert scan_segments(store.prefix) == []
        rt.close()


def _run_eager(a, nb):
    rt = Runtime(ProcessGrid(1, 1))
    d = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, d)
    u, h = res.u.to_array(), res.h.to_array()
    rt.close()
    return u, h, res


def _run_processes(a, nb, workers, faults=None, recovery=None):
    rt = Runtime(ProcessGrid(1, 1), faults=faults, recovery=recovery)
    d = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, d, backend="processes", workers=workers)
    u, h = res.u.to_array(), res.h.to_array()
    ex = rt._executor
    leaked = ex.inflight_attempts
    prefix = ex.store.prefix
    stats = rt.exec_stats
    rt.close()
    return u, h, res, stats, leaked, scan_segments(prefix)


class TestProcessesBackend:
    N, NB = 96, 32

    def test_single_worker_bit_identical_to_eager(self):
        # Same loop with and without a policy: same bits, same tasks,
        # same windows, and an empty policy costs no recovery events.
        from repro.resilience import RecoveryPolicy, RecoveryStats

        a = generate_matrix(self.N, cond=1e8, seed=3)
        u0, h0, res0 = _run_eager(a, self.NB)
        shapes = []
        for recovery in (None, RecoveryPolicy()):
            u1, h1, res1, stats, leaked, shm = _run_processes(
                a, self.NB, 1, recovery=recovery)
            assert res1.iterations == res0.iterations
            assert np.array_equal(u1, u0)
            assert np.array_equal(h1, h0)
            assert leaked == 0 and shm == []
            assert stats.recovery == RecoveryStats()
            shapes.append((stats.tasks_run, stats.windows))
        assert shapes[0] == shapes[1]

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_multi_worker_matches_eager(self):
        a = generate_matrix(self.N, cond=1e8, seed=3)
        u0, h0, _ = _run_eager(a, self.NB)
        u, h, res, stats, leaked, shm = _run_processes(a, self.NB, 2)
        assert res.converged
        assert np.array_equal(u, u0)
        assert np.array_equal(h, h0)
        assert leaked == 0 and shm == []
        assert stats.comm_messages > 0
        assert stats.comm_bytes > 0

    def test_results_survive_runtime_close(self):
        # The factors are read *after* rt.close() above; also verify a
        # fresh read of every tile works (evacuation, not luck).
        a = generate_matrix(64, cond=1e4, seed=11)
        u, h, _, _, _, _ = _run_processes(a, 32, 2)
        rep = polar_report(a, u, h)
        assert rep.orthogonality < 1e-12


def _sigkill_after(monkeypatch, after):
    """One SIGKILL of a live worker once ``after`` tasks are accounted
    for, from the driver's own tick — mid-run on any host, at any load
    (a wall-clock crash time can fall before the first fork or after
    the last window).  The victim holds an attempt, so its death is
    always a crash with something to replay (an idle one dying as its
    window drains is a clean exit).  Returns the list the kill is
    recorded in."""
    from repro.runtime import ProcessExecutor

    tick, fired = ProcessExecutor._tick, []

    def crashing_tick(ex, now):
        busy = [w for w in ex._pool.values()
                if w.sent and w.proc.is_alive() and w.kill_reason is None]
        if not fired and ex.stats.tasks_run >= after and busy:
            fired.append(ex.stats.tasks_run)
            ex._kill(busy[1 % len(busy)],
                     f"injected crash after {after} tasks")
        return tick(ex, now)

    monkeypatch.setattr(ProcessExecutor, "_tick", crashing_tick)
    return fired


class TestCrashRecovery:
    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_sigkilled_worker_is_replayed_to_convergence(self, monkeypatch):
        from repro.resilience.live import RecoveryPolicy

        n, nb, workers, after = 128, 32, 3, 300
        a = generate_matrix(n, cond=1e8, seed=5)
        u0, h0, _ = _run_eager(a, nb)
        fired = _sigkill_after(monkeypatch, after)
        pol = RecoveryPolicy(max_retries=3)
        u, h, res, stats, leaked, shm = _run_processes(
            a, nb, workers, recovery=pol)
        rec = stats.recovery
        assert fired and stats.tasks_run > 2 * after
        assert rec.crashes == 1
        assert rec.dead_ranks
        assert rec.replayed_tasks >= 0
        assert res.converged
        # Recovery must be numerically invisible: bit-identical replay.
        assert np.array_equal(u, u0)
        assert np.array_equal(h, h0)
        # The zero-leak invariants CI gates on.
        assert leaked == 0
        assert shm == []

    def test_crash_only_plan_forces_recovery_on(self, monkeypatch):
        # A plan with only crashes has no live in-payload faults, so
        # LiveFaultInjector.active is False — the executor must still
        # honour it (read the plan directly) instead of dropping it:
        # no recovery= is passed, so the death below is survivable
        # only because the plan switched the default policy on.  The
        # plan's own crash is never due; the kill comes from the tick.
        from repro.resilience import plan_from_spec

        a = generate_matrix(96, cond=1e4, seed=9)
        plan = plan_from_spec(seed=9, crash=("0@86400",))
        fired = _sigkill_after(monkeypatch, 200)
        u, h, res, stats, leaked, shm = _run_processes(
            a, 32, 2, faults=plan)
        assert fired and stats.recovery.crashes == 1
        assert res.converged and leaked == 0 and shm == []


class TestRuntimeLifecycle:
    def test_close_is_idempotent(self):
        rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=1)
        a = generate_matrix(48, cond=1e2, seed=1)
        d = DistMatrix.from_array(rt, a, 24)
        tiled_qdwh(rt, d, backend="processes", workers=1)
        rt.close()
        rt.close()

    def test_context_manager_closes(self):
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=1) as rt:
            a = generate_matrix(48, cond=1e2, seed=1)
            d = DistMatrix.from_array(rt, a, 24)
            res = tiled_qdwh(rt, d, backend="processes", workers=1)
            ex = rt._executor
            prefix = ex.store.prefix
        assert res.converged
        assert rt._closed
        assert scan_segments(prefix) == []

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            Runtime(ProcessGrid(1, 1), backend="carrier-pigeon")


class TestWorkerDeathByHand:
    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_external_sigkill_mid_run_recovers(self):
        # Not via the injector: kill a live worker process from the
        # test, exactly what the OOM killer would do.
        from repro.resilience.live import RecoveryPolicy

        n, nb, workers = 128, 32, 2
        a = generate_matrix(n, cond=1e4, seed=13)
        rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=workers,
                     recovery=RecoveryPolicy(max_retries=2))
        d = DistMatrix.from_array(rt, a.copy(), nb)

        killed = {"done": False}

        def killer():
            deadline = time.time() + 10.0
            while time.time() < deadline and not killed["done"]:
                ex = rt._executor
                pool = getattr(ex, "_pool", None) if ex else None
                for w in list(pool.values()) if pool else ():
                    if not (w.proc.is_alive() and w.sent):
                        continue
                    # Freeze it first: what it still holds once the
                    # replies already on the wire are accepted, it
                    # holds when it dies — a crash with something to
                    # replay.  (An idle worker dying beside a helping
                    # driver costs nothing and may go unnoticed until
                    # its window has drained.)
                    try:
                        os.kill(w.pid, signal.SIGSTOP)
                        time.sleep(0.02)
                        if w.sent:
                            os.kill(w.pid, signal.SIGKILL)
                            killed["done"] = True
                            return
                        os.kill(w.pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass        # its window ended under us
                time.sleep(0.001)

        import threading
        t = threading.Thread(target=killer)
        t.start()
        res = tiled_qdwh(rt, d, backend="processes", workers=workers)
        t.join(timeout=10.0)
        u, h = res.u.to_array(), res.h.to_array()
        leaked = rt._executor.inflight_attempts
        prefix = rt._executor.store.prefix
        rec = rt.exec_stats.recovery
        rt.close()

        assert res.converged
        assert killed["done"]
        assert rec.crashes >= 1
        rep = polar_report(a, u, h)
        assert rep.orthogonality < 1e-12
        assert rep.backward < 1e-10
        assert leaked == 0
        assert scan_segments(prefix) == []


class TestWorkerOutsideItsAttempt:
    """What a forked worker raises outside its attempt (the reply it
    builds, the attempt body itself) ends the worker with a non-zero
    exit; the driver reads the EOF as a death.  Never silence: a
    window cannot wait on a worker that neither replies nor dies."""

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_is_a_death_the_driver_sees(self, monkeypatch):
        import repro.runtime.distributed.worker as worker
        from repro.runtime import WorkerCrashError
        from repro.tiled import gemm

        def broken(*args, **kw):
            raise RuntimeError("outside the attempt")

        # Inherited through fork: the driver's own lane is unaffected.
        monkeypatch.setattr(worker, "run_attempt", broken)
        a = generate_matrix(64, cond=10.0, seed=5)
        with Runtime(ProcessGrid(1, 1), deferred=True, backend="processes",
                     workers=2) as rt:
            d = DistMatrix.from_array(rt, a, 16)
            c = DistMatrix.from_array(rt, np.zeros_like(a), 16)
            gemm(rt, 1.0, d, d, 0.0, c)
            t0 = time.perf_counter()
            with pytest.raises(WorkerCrashError, match="died"):
                rt.sync()
            assert time.perf_counter() - t0 < 30.0
            stats = rt.exec_stats
            assert stats.forks >= 1 and stats.recovery.crashes == 1
            assert rt.executor.inflight_attempts == 0


class TestArmingFailure:
    """The processes driver arms the retry ledger in ``_send``, outside
    any attempt.  A failure there surfaces from the call at once, as
    the same fault does on threads
    (``test_parallel_backend.py::TestEveryAttemptReports``), and
    leaves no worker and no segment behind."""

    def test_driver_arming_failure_raises_and_cleans_up(self, monkeypatch):
        import multiprocessing
        import sys

        from repro.resilience import RecoveryPolicy
        from repro.runtime.attempt import RetryLedger
        from repro.tiled import gemm

        arm, fired = RetryLedger.arm, []

        def arm_failing_once_in_send(ledger, t):
            if not fired and sys._getframe(1).f_code.co_name == "_send":
                fired.append(t.tid)
                raise MemoryError("no room for the snapshot")
            return arm(ledger, t)

        monkeypatch.setattr(RetryLedger, "arm", arm_failing_once_in_send)
        a = generate_matrix(768, cond=10.0, seed=3)
        rt = Runtime(ProcessGrid(1, 1), deferred=True, backend="processes",
                     workers=2, recovery=RecoveryPolicy())
        try:
            d = DistMatrix.from_array(rt, a, 192)
            c = DistMatrix.from_array(rt, np.zeros_like(a), 192)
            gemm(rt, 1.0, d, d, 0.0, c)   # 14 Mflop tasks: a fork
            with pytest.raises(MemoryError, match="no room"):
                rt.sync()
            assert fired and rt.exec_stats.forks >= 1
        finally:
            rt.close()
        assert multiprocessing.active_children() == []
        assert scan_segments(f"repro{os.getpid()}x") == []


class TestHeartbeats:
    """A worker that is alive but frozen never breaks its link, so no
    EOF announces it: under a heartbeat period its silence does.  The
    beats are plain ``hb`` frames on the worker's one link, judged
    when the driver last heard everything."""

    def test_a_frozen_worker_is_found_by_its_silence(self, monkeypatch):
        # SIGSTOP one worker while it holds a task: phi passes PHI_DEAD,
        # the driver kills it and replays what it held, and the result
        # is the eager bits.  Nothing else would end this window: no
        # task_timeout is set, and a stopped process keeps its socket.
        import multiprocessing

        from repro.resilience import RecoveryPolicy
        from repro.runtime import ProcessExecutor

        a = generate_matrix(384, cond=1e4, seed=3)
        u0, h0, _ = _run_eager(a, 192)
        tick, stopped = ProcessExecutor._tick, []

        def freezing_tick(ex, now):
            busy = [w for w in ex._pool.values()
                    if w.sent and w.proc.is_alive()]
            if not stopped and busy:
                stopped.append(busy[0].pid)
                os.kill(busy[0].pid, signal.SIGSTOP)
            return tick(ex, now)

        monkeypatch.setattr(ProcessExecutor, "_tick", freezing_tick)
        try:
            u, h, res, stats, leaked, shm = _run_processes(
                a, 192, 2, recovery=RecoveryPolicy())
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        rec = stats.recovery
        assert stopped
        assert rec.heartbeat_suspects >= 1 and rec.crashes >= 1
        assert res.converged
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert leaked == 0 and shm == []
        assert multiprocessing.active_children() == []
        assert scan_segments(f"repro{os.getpid()}x") == []

    def test_a_deaf_driver_suspects_no_live_worker(self):
        # One thread reads every worker socket, and a helping driver is
        # deaf for the length of its own payload: here a 0.5 s
        # driver-only task (it writes a scalar box) that waits on the
        # worker's task and so runs with nothing in flight, while the
        # worker beats every 10 ms.  Fifty beats wait in the socket;
        # stamped when they were sent, and judged only up to when the
        # driver last listened, they keep phi far below PHI_SUSPECT.
        from repro.resilience import RecoveryPolicy

        pol = RecoveryPolicy(heartbeat_interval=0.01)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes", recovery=pol) as rt:
            a = DistMatrix(rt, 64, 64, 32, np.float64, name="a")
            box = rt.new_scalar_ref()
            for j in range(2):
                rt.submit(TaskKind.GEMM, writes=(a.ref(0, j),), rank=0,
                          fn=lambda: None, label="noop")
            rt.submit(TaskKind.GEMM, reads=(a.ref(0, 0), a.ref(0, 1)),
                      writes=(box,), rank=0, fn=lambda: time.sleep(0.5),
                      label="deaf")
            rt.sync()
            stats = rt.exec_stats
            assert rt._executor.inflight_attempts == 0
        assert stats.forks == 1 and stats.shipped == 1
        assert stats.recovery.heartbeat_suspects == 0

    def test_a_recorded_guarded_run_is_protocol_clean(self):
        # The heartbeat frames travel the one link beside the replies;
        # the DistSan checkers must accept the stream they make.
        from repro.analysis.dist import (audit_refcounts, check_frames,
                                         check_hb)
        from repro.resilience import RecoveryPolicy
        from repro.runtime.distributed.events import DistTraceRecorder

        a = generate_matrix(192, cond=1e4, seed=2)
        with Runtime(ProcessGrid(2, 2), deferred=True, workers=4,
                     backend="processes", recovery=RecoveryPolicy()) as rt:
            rt.dist_recorder = recorder = DistTraceRecorder()
            d = DistMatrix.from_array(rt, a, 32)
            res = tiled_qdwh(rt, d, backend="processes", workers=4)
            tasks = list(rt.graph.tasks)
            assert rt.exec_stats.shipped > 0
        beats = [fr for frames in recorder.frames.values()
                 for fr in frames if fr.op == "hb"]
        assert res.converged and beats
        assert check_frames(recorder) == []
        assert check_hb(recorder, tasks) == []
        assert audit_refcounts(recorder) == []


class TestBrokenLink:
    """A link that breaks is a dead worker: the driver kills the
    process (it may still be alive, and its writes must not outrun
    the replay), counts a death and replays what it held.  Nothing
    reconnects."""

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_a_worker_that_closes_its_socket_is_replayed(self, monkeypatch,
                                                         tmp_path):
        # One worker (the first to claim the file) shuts its socket
        # down on its third task and sleeps on: alive, its link gone.
        import multiprocessing

        import repro.runtime.distributed.worker as worker
        from repro.resilience import RecoveryPolicy
        from repro.runtime import ProcessExecutor

        a = generate_matrix(128, cond=1e6, seed=17)
        u0, h0, _ = _run_eager(a, 32)
        claim = str(tmp_path / "claimed")
        run_one, connect, links, calls = (worker._run_one, worker.connect,
                                          [], [])

        def keeping_connect(*args, **kw):
            links.append(connect(*args, **kw))
            return links[-1]

        def breaking_run_one(ex, tid, attempt):
            calls.append(tid)
            if len(calls) == 3:
                try:
                    os.close(os.open(claim, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    links[-1]._sock.shutdown(socket.SHUT_RDWR)
                    time.sleep(1.0)
            return run_one(ex, tid, attempt)

        buried, bury = [], ProcessExecutor._buried

        def spying_buried(ex, w):
            buried.append(w.proc)
            return bury(ex, w)

        # Inherited through fork: the driver's own lane is unaffected.
        monkeypatch.setattr(worker, "connect", keeping_connect)
        monkeypatch.setattr(worker, "_run_one", breaking_run_one)
        monkeypatch.setattr(ProcessExecutor, "_buried", spying_buried)
        u, h, res, stats, leaked, shm = _run_processes(
            a, 32, 2, recovery=RecoveryPolicy())
        rec = stats.recovery
        assert os.path.exists(claim)
        # The break found it, not its heartbeat silence: the driver
        # killed it (SIGKILL) the moment its link closed.
        assert rec.crashes == 1 and rec.heartbeat_suspects == 0
        assert rec.replayed_tasks >= 1
        assert [p.exitcode for p in buried] == [-signal.SIGKILL]
        assert res.converged
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert leaked == 0 and shm == []
        assert multiprocessing.active_children() == []


class TestGracefulDegradation:
    """An unrecoverable backend loss degrades processes -> threads ->
    eager instead of raising."""

    def _run_degraded(self, patches):
        a = generate_matrix(96, cond=1e6, seed=31)
        u0, h0, _ = _run_eager(a, 32)
        rt = Runtime(ProcessGrid(1, 1))
        try:
            d = DistMatrix.from_array(rt, a.copy(), 32)
            with warnings_ignored():
                with patches:
                    res = tiled_qdwh(rt, d, backend="processes",
                                     workers=2)
            u, h = res.u.to_array(), res.h.to_array()
        finally:
            rt.close()
        return u0, h0, u, h, res

    def test_dead_processes_backend_degrades_to_threads(self):
        from repro.runtime.distributed.executor import (ProcessExecutor,
                                                        WorkerCrashError)
        patches = mock.patch.object(
            ProcessExecutor, "run",
            side_effect=WorkerCrashError("all workers lost"))
        u0, h0, u, h, res = self._run_degraded(patches)
        assert res.degraded
        assert any("degrading to the threads backend" in line
                   for line in res.health_log)
        assert np.allclose(u, u0, atol=1e-12)
        assert np.allclose(h, h0, atol=1e-10 * np.linalg.norm(h0))

    def test_degradation_chain_reaches_eager(self):
        from repro.runtime.distributed.executor import (ProcessExecutor,
                                                        WorkerCrashError)
        from repro.runtime.parallel import ParallelExecutor
        p1 = mock.patch.object(
            ProcessExecutor, "run",
            side_effect=WorkerCrashError("all workers lost"))
        p2 = mock.patch.object(
            ParallelExecutor, "run",
            side_effect=WorkerCrashError("thread pool lost"))
        with p1, p2:
            a = generate_matrix(96, cond=1e6, seed=31)
            rt = Runtime(ProcessGrid(1, 1))
            try:
                d = DistMatrix.from_array(rt, a.copy(), 32)
                with warnings_ignored():
                    res = tiled_qdwh(rt, d, backend="processes",
                                     workers=2)
                u, h = res.u.to_array(), res.h.to_array()
            finally:
                rt.close()
        assert res.degraded
        assert sum("degrading to" in line for line in res.health_log) == 2
        assert any("eager" in line for line in res.health_log)
        u0, h0, _ = _run_eager(a, 32)
        assert np.allclose(u, u0, atol=1e-12)


def warnings_ignored():
    import warnings

    class _Ctx:
        def __enter__(self):
            self._cw = warnings.catch_warnings()
            self._cw.__enter__()
            warnings.simplefilter("ignore", RuntimeWarning)

        def __exit__(self, *exc):
            return self._cw.__exit__(*exc)

    return _Ctx()


class TestOneThread:
    """The driver of a processes executor runs no thread besides the
    caller's: one event loop reads the listener and every worker."""

    @pytest.mark.parametrize("guarded", [False, True],
                             ids=["plain", "guarded"])
    def test_the_driver_runs_no_thread_of_its_own(self, monkeypatch,
                                                  guarded):
        # 384^2 / nb=192 forks in 7 windows.  RecoveryPolicy() turns on
        # heartbeats, which the one loop reads beside the replies.
        import threading

        from repro.resilience import RecoveryPolicy
        from repro.runtime import ProcessExecutor

        a = generate_matrix(384, cond=1e4, seed=1)
        u0, h0, _ = _run_eager(a, 192)
        seen, recv = [], ProcessExecutor._recv

        def sampling_recv(ex, timeout):
            seen.append(set(threading.enumerate()))
            return recv(ex, timeout)

        monkeypatch.setattr(ProcessExecutor, "_recv", sampling_recv)
        before = set(threading.enumerate())
        u, h, res, stats, leaked, shm = _run_processes(
            a, 192, 2, recovery=RecoveryPolicy() if guarded else None)
        assert stats.forks == 7 and stats.shipped > 0 and seen
        assert not [t.name for s in seen for t in s
                    if t.name.startswith("repro-dist-")]
        assert all(s == before for s in seen)
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert leaked == 0 and shm == []


class TestRetiringWorkers:
    """A window that did not fail retires its workers instead of
    joining them: ``_shut`` sends each its shutdown and returns, the
    event loop reaps each once its process is gone, and ``rt.close()``
    reaps whatever is left."""

    @pytest.mark.parametrize("guarded", [False, True],
                             ids=["plain", "guarded"])
    def test_the_window_does_not_join(self, monkeypatch, guarded):
        import multiprocessing
        from multiprocessing.process import BaseProcess

        from repro.resilience import RecoveryPolicy
        from repro.runtime import ProcessExecutor

        a = generate_matrix(384, cond=1e4, seed=1)
        u0, h0, _ = _run_eager(a, 192)
        shutting, joined, pids = [], [], []
        join, shut, adopt = (BaseProcess.join, ProcessExecutor._shut,
                             ProcessExecutor._adopt)

        def spying_join(proc, timeout=None):
            if shutting and shutting[-1] is None:
                joined.append(proc.pid)
            return join(proc, timeout)

        def spying_shut(ex, failure):
            shutting.append(failure)
            try:
                return shut(ex, failure)
            finally:
                shutting.pop()

        def spying_adopt(ex, *args):
            w = adopt(ex, *args)
            pids.append(w.pid)
            return w

        monkeypatch.setattr(BaseProcess, "join", spying_join)
        monkeypatch.setattr(ProcessExecutor, "_shut", spying_shut)
        monkeypatch.setattr(ProcessExecutor, "_adopt", spying_adopt)
        u, h, res, stats, leaked, shm = _run_processes(
            a, 192, 2, recovery=RecoveryPolicy() if guarded else None)
        assert stats.forks == 7 and len(pids) == 7 and stats.shipped > 0
        assert joined == []
        for pid in pids:        # reaped: no zombie left to wait for
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []
        assert stats.recovery.crashes == 0
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert leaked == 0 and shm == []


class TestDriverLaneWindows:
    """A window none of whose tasks is worth a hand-off runs on the
    driver lane: no fork, no frame, nothing pinned."""

    @staticmethod
    def _runtime(**kw):
        return Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                       backend="processes", **kw)

    def test_copy_norm_reduce_window_starts_no_process(self):
        from repro.tiled import add, copy, norm_fro
        a = generate_matrix(64, cond=1e2, seed=2)
        with self._runtime() as rt:
            d = DistMatrix.from_array(rt, a, 16)
            e = DistMatrix.from_array(rt, np.zeros_like(a), 16)
            copy(rt, d, e)
            add(rt, 2.0, d, -1.0, e)          # e = 2a - a
            nrm = float(norm_fro(rt, e).value)   # syncs the window
            stats = rt.exec_stats
            assert stats.windows == 1 and stats.tasks_run > 3 * 16
            assert stats.forks == 0
            assert stats.comm_messages == 0 and stats.comm_bytes == 0
            assert rt._executor.inflight_attempts == 0
        assert nrm == pytest.approx(np.linalg.norm(a), rel=1e-13)

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_gemm_potrf_window_still_forks(self):
        from repro.tiled import gemm, potrf
        a = generate_matrix(64, cond=10.0, seed=4)
        with self._runtime() as rt:
            d = DistMatrix.from_array(rt, a, 16)
            z = DistMatrix.from_array(rt, 64.0 * np.eye(64), 16)
            gemm(rt, 1.0, d, d, 1.0, z, opa="C")   # z = 64 I + a^H a
            potrf(rt, z)
            low = np.tril(z.to_array())
            stats = rt.exec_stats
            assert stats.windows == 1
            assert stats.forks == 1         # workers=2: driver + one fork
            assert 0 < stats.shipped < stats.tasks_run
            assert stats.comm_messages == 2 * (stats.shipped + stats.forks)
        ref = 64.0 * np.eye(64) + a.T @ a
        assert np.allclose(low @ low.T, ref, rtol=1e-12, atol=1e-12)

    def test_qdwh_forks_only_for_kernel_windows(self):
        # nb=128: every QR/Cholesky iteration window (and H = U^H A)
        # holds an 8 Mflop task and forks; estimator sweeps, prev
        # copies and conv norms are whole windows below the floor.
        a = generate_matrix(256, cond=1e8, seed=3)
        u0, h0, _ = _run_eager(a, 128)
        u, h, res, stats, leaked, shm = _run_processes(a, 128, 2)
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert leaked == 0 and shm == []
        # workers=2 is the driver plus one fork per forking window.
        assert 0 < stats.forks <= res.iterations + 3 < stats.windows
        assert stats.shipped > 0 and stats.comm_messages > 0

    def test_due_crash_waits_for_a_worker(self):
        # The crash is due before the first tick.  Window 1 holds only
        # driver-lane tasks (a gather lands in driver-local boxes), so
        # even this plan-carrying executor forks no worker to kill: the
        # crash must stay pending, not be consumed, and hit the first
        # forked window.  (A norm window no longer serves: its partials
        # are tiles and ship.)
        from repro.resilience import plan_from_spec
        from repro.tiled import gemm
        from repro.tiled.estimators import _gather_vec
        a = generate_matrix(64, cond=10.0, seed=6)
        plan = plan_from_spec(seed=6, crash=("1@0.0",))
        with self._runtime(faults=plan) as rt:
            d = DistMatrix.from_array(rt, a, 16)
            c = DistMatrix.from_array(rt, np.zeros_like(a), 16)
            v = DistMatrix.from_array(rt, a[:, :1].copy(), 16)
            col = _gather_vec(rt, v)             # syncs window 1
            ex = rt._executor
            assert rt.exec_stats.windows == 1 and rt.exec_stats.tasks_run == 4
            assert rt.exec_stats.forks == 0 and ex._crash_idx == 0
            assert rt.exec_stats.recovery.crashes == 0
            gemm(rt, 1.0, d, d, 0.0, c)
            got = c.to_array()
            assert ex._crash_idx == 1
            assert rt.exec_stats.recovery.crashes == 1
            assert ex.inflight_attempts == 0
        assert np.array_equal(col, a[:, 0])
        assert np.allclose(got, a @ a, rtol=1e-12, atol=1e-12)


class TestSweepWindows:
    """A window whose every task is driver-local is a sweep even on an
    executor that exercises its transport (fault plan, DistSan
    recorder): no scheduler, no fork, no tick — and so nothing a crash
    could kill and nothing on the wire."""

    @staticmethod
    def _sweeps(monkeypatch):
        """Record the ``(start, end)`` of every swept window."""
        from repro.runtime.window import WindowExecutor

        swept, sweep = [], WindowExecutor._sweep

        def recording_sweep(ex, start, end, ledger):
            swept.append((start, end))
            return sweep(ex, start, end, ledger)

        monkeypatch.setattr(WindowExecutor, "_sweep", recording_sweep)
        return swept

    def test_crash_due_in_a_sweep_fires_in_the_next_forking_window(
            self, monkeypatch, scheduler_builds):
        # The crash is due at once, but the first window (a gather into
        # driver-local boxes) is a sweep: it spends no crash budget.
        # The QDWH run after it forks, the crash fires there, and the
        # replay converges to the eager bits.
        from repro.resilience import plan_from_spec
        from repro.tiled.estimators import _gather_vec
        a = generate_matrix(64, cond=1e4, seed=7)
        u0, h0, _ = _run_eager(a, 16)
        swept = self._sweeps(monkeypatch)
        plan = plan_from_spec(seed=7, crash=("0@0.0",))
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes", faults=plan) as rt:
            d = DistMatrix.from_array(rt, a.copy(), 16)
            v = DistMatrix.from_array(rt, a[:, :1].copy(), 16)
            col = _gather_vec(rt, v)            # syncs window 1: a sweep
            ex, rec = rt._executor, rt.exec_stats.recovery
            assert swept == [(0, 4)] and scheduler_builds == []
            assert ex._crash_idx == 0 and rec.crashes == 0
            assert rt.exec_stats.forks == 0
            res = tiled_qdwh(rt, d, backend="processes", workers=2)
            u, h = res.u.to_array(), res.h.to_array()
            assert ex._crash_idx == 1 and rec.crashes == 1
            assert scheduler_builds and ex.inflight_attempts == 0
            prefix = ex.store.prefix
        assert res.converged
        assert np.array_equal(col, a[:, 0])
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert scan_segments(prefix) == []

    def test_recorded_sweeps_are_driver_events_and_hb_clean(self,
                                                             monkeypatch):
        # A recorded run whose windows alternate sweep / fork / sweep:
        # one EV_DRIVER per swept task, and the happens-before checker
        # orders the driver's gather after the workers' GEMM writes.
        from repro.analysis.dist import check_hb
        from repro.runtime.distributed.events import (EV_DISPATCH,
                                                      EV_DRIVER,
                                                      DistTraceRecorder)
        from repro.tiled import gemm
        from repro.tiled.estimators import _gather_vec
        a = generate_matrix(64, cond=10.0, seed=8)
        x = a[:, :1].copy()
        swept = self._sweeps(monkeypatch)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes") as rt:
            rt.dist_recorder = recorder = DistTraceRecorder()
            d = DistMatrix.from_array(rt, a, 16)
            v = DistMatrix.from_array(rt, x, 16)
            y = DistMatrix.from_array(rt, np.zeros_like(x), 16)
            first = _gather_vec(rt, v)          # sweep
            gemm(rt, 1.0, d, v, 0.0, y)
            rt.sync()                           # forks
            got = _gather_vec(rt, y)            # sweep over pinned tiles
            tasks, stats = rt.graph.tasks, rt.exec_stats
            assert stats.windows == 3 and stats.forks > 0
        n = len(tasks)
        assert swept == [(0, 4), (n - 4, n)]
        swept_tids = [tid for s, e in swept for tid in range(s, e)]
        driver = [ev.tid for ev in recorder.events_of(EV_DRIVER)]
        assert sorted(t for t in driver if t in swept_tids) == swept_tids
        assert not {ev.tid for ev in recorder.events_of(EV_DISPATCH)} \
            & set(swept_tids)
        assert check_hb(recorder, tasks) == []
        assert np.array_equal(first, x[:, 0])
        assert np.allclose(got, (a @ x)[:, 0], rtol=1e-12, atol=1e-12)


#: square / tall-ragged / nb > n, all far below the granularity floor.
SMALL_SHAPES = [(64, 64, 32), (81, 42, 32), (24, 24, 32)]


class TestPlacement:
    """One cost floor decides, once per window, whether the window gets
    lanes at all (``WindowExecutor._pays``)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    @pytest.mark.parametrize("m, n, nb", SMALL_SHAPES,
                             ids=["square", "tall-ragged", "nb>n"])
    def test_small_tiles_never_leave_the_driver(self, monkeypatch,
                                                scheduler_builds,
                                                dtype, m, n, nb):
        from repro.obs.timeline import TimelineSink
        from repro.runtime import ProcessExecutor

        a = generate_matrix(m, n, cond=10.0, dtype=dtype, seed=31)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), nb)
        r0 = tiled_qdwh(rt, d)
        u0, h0 = r0.u.to_array(), r0.h.to_array()
        rt.close()

        after, run = [], ProcessExecutor.run

        def sampling_run(ex, start=0, end=None):
            # After every sync: nothing was ever pinned.
            wall = run(ex, start, end)
            after.append(scan_segments(ex.store.prefix))
            return wall

        monkeypatch.setattr(ProcessExecutor, "run", sampling_run)
        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), sink=sink)
        d = DistMatrix.from_array(rt, a.copy(), nb)
        res = tiled_qdwh(rt, d, backend="processes", workers=4)
        stats, ex = rt.exec_stats, rt._executor
        assert stats.forks == 0 and stats.shipped == 0
        assert stats.comm_messages == 0 and stats.comm_bytes == 0
        assert len(after) == stats.windows > 1
        assert all(seen == [] for seen in after)
        # Every window was a sweep: no scheduler was ever built.
        assert scheduler_builds == []
        assert ex.store.live_segments() == []
        assert {e.slot for e in sink.tasks} == {"drv"}
        assert stats.tasks_run == len(rt.graph) and ex.inflight_attempts == 0
        assert np.array_equal(res.u.to_array(), u0)
        assert np.array_equal(res.h.to_array(), h0)
        rt.close()

    def test_later_window_that_pays_pins_exactly_its_own_tiles(self):
        # Two windows of tiny fills answer no (nothing pinned, tiles
        # stay plain heap arrays the driver writes); the GEMM window
        # answers yes (2 * 104^3 = 2.25 Mflop a task) and pins the
        # tiles it touches — b and c among them, written by the
        # driver-only windows before — and nothing else.
        from repro.tiled import add, copy, gemm

        n, nb = 208, 104
        a = generate_matrix(n, cond=10.0, seed=32)

        def program(rt):
            d = DistMatrix.from_array(rt, a.copy(), nb)
            b = DistMatrix.from_array(rt, np.zeros_like(a), nb)
            c = DistMatrix.from_array(rt, np.zeros_like(a), nb)
            e = DistMatrix.from_array(rt, np.ones_like(a), nb)
            copy(rt, d, b)
            copy(rt, d, c)
            rt.sync()
            add(rt, 2.0, d, -1.0, e)                 # e = 2a - 1
            add(rt, 0.5, e, 1.0, b)                  # b = a + e / 2
            rt.sync()
            yield d, b, c, e
            gemm(rt, 1.0, d, b, -1.0, c)             # c = a b - a
            yield c.to_array()

        with Runtime(ProcessGrid(1, 1)) as rt0:
            run = program(rt0)
            next(run)
            want = next(run)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes") as rt:
            run = program(rt)
            d, b, c, e = next(run)
            ex = rt._executor
            assert rt.exec_stats.windows == 2
            assert rt.exec_stats.forks == 0
            assert scan_segments(ex.store.prefix) == []
            got = next(run)
            # 8 GEMMs on two lanes: the driver runs its share, the one
            # fork the rest.
            assert rt.exec_stats.forks == 1
            assert 0 < rt.exec_stats.shipped < 8
            pinned = [m.ref(i, j) for m in (d, b, c)
                      for i in range(2) for j in range(2)]
            assert all(ex.store.segment_of(ref) is not None
                       for ref in pinned)
            assert len(ex.store.live_segments()) == 3   # one a matrix
            assert all(ex.store.segment_of(e.ref(i, j)) is None
                       for i in range(2) for j in range(2))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_are_lanes_and_the_driver_is_one(self, monkeypatch,
                                                     workers):
        # workers=W is W lanes on processes as on threads: the driver
        # plus W - 1 forks in each of the 7 windows that pay at
        # 384^2 / nb=192.  workers=1 is the driver alone: no fork, no
        # frame, nothing pinned, the eager bits.
        from repro.obs.timeline import TimelineSink
        from repro.runtime import ProcessExecutor

        a = generate_matrix(384, cond=1e4, seed=1)
        u0, h0, _ = _run_eager(a, 192)
        during, shut = [], ProcessExecutor._shut

        def sampling_shut(ex, failure):
            during.append((len(ex._pool), scan_segments(ex.store.prefix)))
            return shut(ex, failure)

        monkeypatch.setattr(ProcessExecutor, "_shut", sampling_shut)
        sink = TimelineSink()
        with Runtime(ProcessGrid(1, 1), sink=sink) as rt:
            d = DistMatrix.from_array(rt, a.copy(), 192)
            res = tiled_qdwh(rt, d, backend="processes", workers=workers)
            u, h = res.u.to_array(), res.h.to_array()
            stats = rt.exec_stats
            assert rt._executor.inflight_attempts == 0
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        assert sorted(n for n, _ in during if n) == [workers - 1] * (
            7 if workers > 1 else 0)
        assert stats.forks == 7 * (workers - 1)
        assert stats.comm_messages == 2 * (stats.shipped + stats.forks)
        slots = {e.slot for e in sink.tasks}
        assert slots == {"drv"} | {f"w{k}" for k in range(workers - 1)}
        if workers == 1:
            assert stats.shipped == 0
            assert all(seen == [] for _, seen in during)

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m, n, nb", SMALL_SHAPES,
                             ids=["square", "tall-ragged", "nb>n"])
    def test_any_lane_count_gives_the_eager_bits(self, dtype, m, n, nb):
        # Lanes forced onto tiny tiles: every window forks, the driver
        # works beside the forks, and U and H are the eager bits on
        # every lane count of both real backends.
        a = generate_matrix(m, n, cond=1e3, dtype=dtype, seed=36)
        with Runtime(ProcessGrid(1, 1)) as rt:
            r0 = tiled_qdwh(rt, DistMatrix.from_array(rt, a.copy(), nb))
            u0, h0 = r0.u.to_array(), r0.h.to_array()
        forks = {}
        for backend, workers in (("threads", 1), ("threads", 2),
                                 ("threads", 4), ("processes", 1),
                                 ("processes", 2), ("processes", 3)):
            with Runtime(ProcessGrid(1, 1)) as rt:
                d = DistMatrix.from_array(rt, a.copy(), nb)
                res = tiled_qdwh(rt, d, backend=backend, workers=workers)
                assert np.array_equal(res.u.to_array(), u0), (backend, workers)
                assert np.array_equal(res.h.to_array(), h0), (backend, workers)
                assert rt._executor.inflight_attempts == 0
                forks[backend, workers] = rt.exec_stats.forks
                prefix = getattr(rt._executor, "store", None)
            if prefix is not None:
                assert scan_segments(prefix.prefix) == []
        assert forks["processes", 1] == 0
        if a.shape[1] > nb:                 # more than one tile: lanes
            assert 0 < forks["processes", 2] < forks["processes", 3]

    @pytest.mark.parametrize("subject", ["crash-plan", "recorder"])
    def test_transport_under_test_ships_tiny_tiles(self, subject):
        # An executor that exists to exercise the transport gives every
        # window lanes, whatever its tasks cost.
        from repro.resilience import plan_from_spec
        from repro.runtime.distributed.events import DistTraceRecorder

        a = generate_matrix(48, cond=1e2, seed=33)
        plan = (plan_from_spec(seed=33, crash=("0@0.0",))
                if subject == "crash-plan" else None)
        rt = Runtime(ProcessGrid(1, 1), faults=plan)
        if subject == "recorder":
            rt.dist_recorder = DistTraceRecorder()
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, d, backend="processes", workers=2)
        stats, ex = rt.exec_stats, rt._executor
        assert ex.exercises_transport
        assert res.converged and stats.forks > 0 and stats.shipped > 0
        assert stats.comm_messages > 0
        assert stats.recovery.crashes == (1 if plan is not None else 0)
        prefix = ex.store.prefix
        rt.close()
        assert scan_segments(prefix) == []



class TestOneDataPlane:
    """Tiles are the only state tasks share: QR's T and V factors reach
    workers through the shared-memory store like every other tile, the
    wire carries control frames only, and nothing rebinds a tile."""

    def test_wire_carries_control_only(self, monkeypatch):
        # 384^2 / nb=192: the 7 factorization windows fork — one
        # process each, workers=2 being the driver plus one fork — and
        # 279 attempts in them are worker-eligible: the 268 of when
        # reduction partials were hand-built refs, plus the partials
        # that sit in forked windows — 3 rnorm1 (the upper triangle of
        # a 2 x 2 R) beside the condest QR and 4 normf.part in each of
        # the 2 QR-iteration windows (the Cholesky iterations sync
        # first, so their convergence norms are driver-only windows of
        # their own).  The helping driver keeps a share of the 279 for
        # itself (which share is a race, so only its bounds are
        # asserted); the wire carries one frame out and one back per
        # shipped attempt, hello and shutdown per fork.  Before the
        # factors were tiles their arrays were pickled through this
        # socket, 43 KB a message.
        a = generate_matrix(384, cond=1e4, seed=1)
        u0, h0, _ = _run_eager(a, 192)
        forked, stats, u, h = self._placement(monkeypatch, a, workers=2)
        assert np.array_equal(u, u0) and np.array_equal(h, h0)
        eligible = sum(len(tids - driver_only)
                       for tids, driver_only, _ in forked)
        assert (eligible, stats.forks) == (279, 7)
        assert 0 < stats.shipped < eligible
        assert stats.comm_messages == 2 * (stats.shipped + stats.forks)
        assert stats.comm_bytes / stats.comm_messages < 2048

    @staticmethod
    def _placement(monkeypatch, a, workers, recorder=False, **rt_kw):
        """``a`` at nb=192 on processes(workers), read off the timeline:
        per window that put a task on a worker, ``(tids, driver-only
        tids, tids that ran on a worker)`` — driver-only = no payload
        or a scalar ref — then the executor's stats, U and H.  Leaks
        fail here."""
        from repro.obs.timeline import TimelineSink
        from repro.runtime import ProcessExecutor
        from repro.runtime.distributed.events import DistTraceRecorder

        windows, run = [], ProcessExecutor.run

        def spy(ex, start=0, end=None):
            windows.append((start, end, set(ex.fns)))
            return run(ex, start, end)

        monkeypatch.setattr(ProcessExecutor, "run", spy)
        sink = TimelineSink()
        with Runtime(ProcessGrid(1, 1), sink=sink, **rt_kw) as rt:
            if recorder:
                rt.dist_recorder = DistTraceRecorder()
            d = DistMatrix.from_array(rt, a.copy(), 192)
            res = tiled_qdwh(rt, d, backend="processes", workers=workers)
            u, h = res.u.to_array(), res.h.to_array()
            tasks, owner = rt.graph.tasks, rt.graph.tile_owner
            scalar_mat, stats = rt.scalar_mat, rt.exec_stats
            assert rt._executor.inflight_attempts == 0
            prefix = rt._executor.store.prefix
        assert scan_segments(prefix) == []
        on_worker = {ev.tid for ev in sink.tasks if ev.slot != "drv"}
        forked = []
        for start, end, payloads in windows:
            tids = set(range(start, end))
            if not tids & on_worker:
                continue
            driver_only = set()
            for tid in tids:
                refs = tasks[tid].reads + tasks[tid].writes
                assert all(r in owner or r[0] == scalar_mat for r in refs)
                if tid not in payloads or any(r[0] == scalar_mat
                                              for r in refs):
                    driver_only.add(tid)
            forked.append((tids, driver_only, tids & on_worker))
        return forked, stats, u, h

    def test_only_a_scalar_ref_pins_a_task_to_the_driver(self, monkeypatch):
        # Every ref is a DistMatrix tile or a scalar box, so in a
        # forked window the only tasks that *must* stay on the driver
        # are those with no payload or with a scalar ref — observed on
        # the timeline, not read back from the placement code.  The
        # helping driver (workers=2: itself plus one fork a window)
        # takes some of the others too, and leaves some.
        a = generate_matrix(384, cond=1e4, seed=1)
        forked, stats, _, _ = self._placement(monkeypatch, a, workers=2)
        assert len(forked) == 7 == stats.forks
        for tids, driver_only, on_worker in forked:
            assert not driver_only & on_worker
            assert on_worker < tids - driver_only
        assert stats.shipped == sum(len(w) for _, _, w in forked)

    @pytest.mark.parametrize("subject",
                             ["fault-plan", "task-timeout", "recorder"])
    def test_dispatch_only_driver_runs_no_eligible_task(self, monkeypatch,
                                                        subject):
        # An executor that exercises its transport keeps the driver out
        # of payloads: every window ships, forks min(workers, eligible)
        # processes, and runs every worker-eligible task on a worker.
        from repro.resilience import RecoveryPolicy, plan_from_spec

        kw = {"fault-plan": dict(faults=plan_from_spec(
                  seed=1, crash=("0@86400",))),
              "task-timeout": dict(recovery=RecoveryPolicy(
                  task_timeout=60.0)),
              "recorder": dict(recorder=True)}[subject]
        a = generate_matrix(384, cond=1e4, seed=1)
        forked, stats, _, _ = self._placement(monkeypatch, a, workers=2,
                                              **kw)
        assert len(forked) > 7              # tiny windows ship too
        for tids, driver_only, on_worker in forked:
            assert tids - on_worker == driver_only
        assert stats.forks == sum(min(2, len(w)) for _, _, w in forked)
        assert stats.shipped == sum(len(w) for _, _, w in forked)
        assert stats.recovery.crashes == 0

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_driver_lane_geqrt_in_a_forked_window(self, monkeypatch):
        # Every GEQRT runs on the driver lane of windows whose other
        # tasks run in forked workers: the factored tile and its T
        # must land in the mappings the workers hold.  (When the
        # payload rebound its tile the workers kept reading the
        # unfactored one.)
        from repro.runtime import ProcessExecutor
        from repro.tiled import qr_explicit

        worker_ok = ProcessExecutor._worker_ok
        monkeypatch.setattr(
            ProcessExecutor, "_worker_ok",
            lambda ex, t: t.kind is not TaskKind.GEQRT and worker_ok(ex, t))
        a = generate_matrix(64, 32, cond=1e3, seed=21)
        out = {}
        for backend in ("eager", "processes"):
            kw = {} if backend == "eager" else dict(
                deferred=True, workers=2, backend="processes")
            with Runtime(ProcessGrid(1, 1), **kw) as rt:
                w = DistMatrix.from_array(rt, a.copy(), 16)
                _, q = qr_explicit(rt, w)
                out[backend] = (q.to_array(), w.to_array())
                if backend == "processes":
                    slots = rt.exec_stats
                    assert slots.forks > 0 and 0 < slots.shipped
                    assert slots.shipped < slots.tasks_run
        assert np.array_equal(out["processes"][0], out["eager"][0])
        assert np.array_equal(out["processes"][1], out["eager"][1])

    def test_scatter_into_a_pinned_matrix_keeps_its_segments(self):
        # The degrade / checkpoint-resume path: a driver-level scatter
        # into a matrix an earlier window pinned writes through the
        # segments, and the next forking window pins nothing new for it.
        from repro.core.tiled_qdwh import _scatter_dense
        from repro.tiled import gemm

        n, nb = 208, 104
        a = generate_matrix(n, cond=10.0, seed=34)
        b = generate_matrix(n, cond=10.0, seed=35)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes") as rt:
            d = DistMatrix.from_array(rt, a.copy(), nb)
            c = DistMatrix.from_array(rt, np.zeros_like(a), nb)
            gemm(rt, 1.0, d, d, 0.0, c)
            rt.sync()
            store = rt._executor.store
            keys = [(i, j) for i in range(2) for j in range(2)]
            names = [store.segment_of(d.ref(*k)) for k in keys]
            arrays = [d._tiles[k] for k in keys]
            assert None not in names and rt.exec_stats.forks == 1
            _scatter_dense(d, b)
            assert [store.segment_of(d.ref(*k)) for k in keys] == names
            assert all(d._tiles[k] is arr for k, arr in zip(keys, arrays))
            live = store.live_segments()
            gemm(rt, 1.0, d, d, 0.0, c)
            got = c.to_array()
            assert rt.exec_stats.forks == 2
            assert store.live_segments() == live
        assert np.allclose(got, b @ b, rtol=1e-12, atol=1e-12)
