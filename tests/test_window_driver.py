"""The window driver, tested once through a fake transport.

:class:`~repro.runtime.window.WindowExecutor` owns ``run``, the one
dispatch loop and the accounting of every reported attempt; the real
backends only move attempts to workers.  ``ScriptedTransport`` below
is a third transport with no threads and no forks — attempts are
resolved in send order by a script — so what used to be checked per
backend is checked here once, deterministically: retry budget and
seeded backoff order (on a scripted clock: the transport's time only
moves when the loop waits), drain before a failure propagates, death →
requeue of exactly the victim's attempts, ``abandon_window`` refusing
while attempts are in flight, and ``inflight_attempts == 0`` after
every window, with no tid left on a lane after one that did not
fail.  With one lane the fake's windows are sweeps, which
run in program order without ``_open``, retry in place and leave what
a final failure did not reach to ``abandon_window``.  The stall rule
and the ordering check are checked on the fake and on both real
transports.
"""

import functools
import time
from collections import deque

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix
from repro.obs import get_registry
from repro.obs.timeline import TimelineSink
from repro.resilience import RecoveryPolicy
from repro.runtime import (OrderingViolationError, ParallelExecutor,
                           ProcessExecutor, Runtime, TaskGraph, TaskKind,
                           WorkerCrashError)
from repro.runtime import window
from repro.runtime.attempt import Attempt, retryable
from repro.runtime.distributed import DynamicScheduler
from repro.runtime.task import Task
from repro.runtime.window import Death, Report, WindowExecutor


def _outcome(verdict):
    """The attempt a script verdict (None or an exception) stands
    for."""
    return Attempt(0.0, 1e-6, 0.0, [], verdict,
                   verdict is not None and retryable(verdict))


class ScriptedTransport(WindowExecutor):
    """Attempts queue in send order; each ``_recv`` resolves the oldest
    through ``script(tid, attempt)`` -> None (success), an exception
    (the attempt fails with it) or ``"die"`` (its lane's worker dies,
    taking everything sent to that lane with it).  Resolving takes no
    time; waiting with nothing out, or a sweep sleeping out a backoff,
    advances ``now`` by the wait.  After every driven window that did
    not fail, no lane holds a tid.

    ``lanes=W`` is the executor's ``workers``: with ``W >= 2`` a window
    is driven and ``_open`` registers W lanes beside a driver that
    does not help; with ``W = 1`` every window is a sweep on the driver
    (lane ``None`` in the log)."""

    def __init__(self, graph, script, *, lanes=2, depth=2, recovery=None,
                 validate=True):
        super().__init__(graph, {t.tid: (lambda: None) for t in graph.tasks},
                         workers=lanes, sink=None,
                         validate=validate, sanitizer=None,
                         recovery=recovery, injector=None, tiles=None)
        self.script, self.depth = script, depth
        self.outbox = deque()
        self.log = []           # every (lane, tid, attempt) ever run
        self.opened = 0         # _open calls
        self.now = 0.0
        self.clock = lambda: self.now

        def sleep(seconds):
            self.now += seconds
        self.sleep = sleep

    def run(self, start=0, end=None):
        self._sched = None
        wall = super().run(start, end)
        if self._sched is not None:
            held = {lane: sorted(w.inflight)
                    for lane, w in self._sched.workers.items() if w.inflight}
            assert not held, f"lanes still hold tids after the window: {held}"
        return wall

    def _inline(self, t, attempt):
        self.log.append((None, t.tid, attempt))
        return _outcome(self.script(t.tid, attempt))

    def _open(self, start, end, lanes):
        self.opened += 1
        sched = DynamicScheduler(self.graph.tasks, start, end,
                                 dict.fromkeys(range(start, end), True),
                                 pipeline_depth=self.depth)
        for lane in range(self.workers):
            sched.add_worker(lane)
        return sched

    def _send(self, lane, tid, attempt):
        self.log.append((lane, tid, attempt))
        self.outbox.append((lane, tid, attempt))
        return True

    def _recv(self, timeout):
        if not self.outbox:
            self.now += timeout         # only a backoff can be pending
            return []
        lane, tid, attempt = self.outbox.popleft()
        verdict = self.script(tid, attempt)
        if verdict == "die":
            lost = [a for a in self.outbox if a[0] == lane]
            for a in lost:
                self.outbox.remove(a)
            return [Death(lane, "scripted", 1 + len(lost))]
        return [Report(tid, lane, _outcome(verdict), f"f{lane}", 0.0)]


def _independent(n):
    g = TaskGraph()
    for tid in range(n):
        g.register_tile((0, tid, 0), 64, owner=0)
        g.add(Task(tid=tid, kind=TaskKind.GEMM, reads=(),
                   writes=((0, tid, 0),), rank=0, phase=0))
    return g


def _attempts(ex, tid):
    return [a for _, t, a in ex.log if t == tid]


#: ``(m, n, nb, cond)`` of the perfbench workloads.
PERFBENCH_SHAPES = {"small_tiles": (160, 160, 32, 1e4),
                    "big_tiles": (768, 768, 192, 1e4),
                    "illcond_tall": (768, 384, 128, 1e16)}


@functools.lru_cache(maxsize=None)
def _qdwh_counts(shape, backend):
    """``(tasks recorded, kernel invocations by name, tasks_run)`` of
    one ``tiled_qdwh`` call on a perfbench shape (``tasks_run`` is
    ``None`` when there is no executor)."""
    m, n, nb, cond = PERFBENCH_SHAPES[shape]
    a = generate_matrix(m, n, cond=cond, seed=0)
    before = get_registry().snapshot()["counters"]
    with Runtime(ProcessGrid(1, 1), sanitize=None) as rt:
        tiled_qdwh(rt, DistMatrix.from_array(rt, a, nb), backend=backend,
                   workers=None if backend == "eager" else 2)
        stats = rt.exec_stats
        tasks = len(rt.graph.tasks)
    after = get_registry().snapshot()["counters"]
    kernels = {k: v - before.get(k, 0) for k, v in after.items()
               if k.startswith("kernel.invocations.")
               and v != before.get(k, 0)}
    return tasks, kernels, None if stats is None else stats.tasks_run


class TestRetries:
    def test_budget_and_seeded_backoff_order(self):
        # Tasks 0-2 fail their first attempt at the same instant of
        # the scripted clock; their retries come back in the order of
        # the seeded backoff draws, not in tid order.  Task 3 fails for
        # ever and gets exactly max_retries retries before its error
        # is final.
        pol = RecoveryPolicy(max_retries=2, backoff=0.05)
        delay = {tid: pol.backoff_seconds(0, tid, 1) for tid in range(3)}
        order = sorted(delay, key=delay.get)
        assert order != [0, 1, 2] and len(set(delay.values())) == 3

        def script(tid, attempt):
            if tid < 3 and attempt == 0 or tid == 3:
                return RuntimeError(f"flaky {tid}/{attempt}")
            return None

        ex = ScriptedTransport(_independent(4), script, recovery=pol)
        with pytest.raises(RuntimeError, match="flaky 3/2"):
            ex.run()
        retries = [t for _, t, a in ex.log if a == 1 and t < 3]
        assert retries == order
        assert _attempts(ex, 3) == [0, 1, 2]
        rec = ex.stats.recovery
        assert rec.retried_tasks == 5
        assert ex.stats.tasks_run == 3
        assert ex.inflight_attempts == 0 and not ex.outbox
        # The loop slept on the scripted clock only: exactly up to
        # task 3's second retry.
        assert ex.now == pytest.approx(
            pol.backoff_seconds(0, 3, 1) + pol.backoff_seconds(0, 3, 2))

    def test_deterministic_failure_is_not_retried(self):
        def script(tid, attempt):
            return np.linalg.LinAlgError("breakdown") if tid == 0 else None

        ex = ScriptedTransport(_independent(2), script,
                               recovery=RecoveryPolicy(max_retries=3))
        with pytest.raises(np.linalg.LinAlgError):
            ex.run()
        assert _attempts(ex, 0) == [0]
        assert ex.stats.recovery.retried_tasks == 0


class TestDrain:
    def test_failure_drains_every_inflight_attempt_first(self):
        # 2 lanes x depth 2 = 4 attempts out; the first one reported
        # fails for good.  run() raises only after the other three
        # reported, and nothing new is sent once the window is failing.
        def script(tid, attempt):
            if tid == 0:
                assert ex.inflight_attempts == 4
                # Refused while attempts are in flight.
                with pytest.raises(RuntimeError, match="in flight"):
                    ex.abandon_window()
                return ZeroDivisionError("final")
            return None

        ex = ScriptedTransport(_independent(8), script)
        with pytest.raises(ZeroDivisionError):
            ex.run()
        assert len(ex.log) == 4 and not ex.outbox
        assert ex.inflight_attempts == 0
        assert ex.stats.tasks_run == 3
        assert ex.stats.windows == 1
        # Drained: the rest of the window can be given up, payloads
        # and all.
        ex.abandon_window()
        assert sorted(ex.fns) == []

    def test_inflight_is_zero_after_every_window(self):
        ex = ScriptedTransport(_independent(9), lambda tid, a: None)
        for start in (0, 3, 6):
            ex.run(start, start + 3)
            assert ex.inflight_attempts == 0
        assert ex.stats.tasks_run == 9 and ex.stats.windows == 3
        assert ex.run(9, 9) == 0.0


class TestDeath:
    @staticmethod
    def _script(tid, attempt):
        # Lane 0 dies while resolving its first attempt.
        return "die" if (tid, attempt) == (0, 0) else None

    def test_death_requeues_exactly_the_victims_attempts(self):
        ex = ScriptedTransport(_independent(8), self._script,
                               recovery=RecoveryPolicy())
        ex.run()
        victims = sorted(t for lane, t, a in ex.log[:4] if lane == 0)
        assert len(victims) == 2
        for tid in range(8):
            assert _attempts(ex, tid) == ([0, 1] if tid in victims else [0])
        # Replays went to the survivor.
        assert {lane for lane, _, a in ex.log if a == 1} == {1}
        rec = ex.stats.recovery
        assert (rec.crashes, rec.revoked_inflight, rec.replayed_tasks) \
            == (1, 2, 2)
        assert tuple(rec.dead_ranks) == (0,)
        assert ex.stats.tasks_run == 8
        assert ex.inflight_attempts == 0

    def test_death_without_a_policy_is_fatal_but_drains(self):
        ex = ScriptedTransport(_independent(8), self._script)
        with pytest.raises(WorkerCrashError, match="no recovery policy"):
            ex.run()
        assert len(ex.log) == 4 and not ex.outbox
        assert ex.inflight_attempts == 0


def _chain(n):
    """n tasks, each writing its own tile and reading its predecessor's."""
    g = TaskGraph()
    for tid in range(n):
        g.register_tile((0, tid, 0), 64, owner=0)
        g.add(Task(tid=tid, kind=TaskKind.GEMM,
                   reads=((0, tid - 1, 0),) if tid else (),
                   writes=((0, tid, 0),), rank=0, phase=0))
    return g


class TestSweep:
    """A window with no lane besides the driver is a program-order
    sweep: no scheduler, no report queue, no transport hook besides
    ``_inline``."""

    def test_program_order_and_no_open(self, scheduler_builds):
        # Independent tasks: a scheduler would be free to pick any
        # order; the sweep runs range(start, end), window after window.
        ex = ScriptedTransport(_independent(9), lambda tid, a: None, lanes=1)
        for start in (0, 4):
            ex.run(start, start + 4)
        ex.run(8)
        assert ex.log == [(None, tid, 0) for tid in range(9)]
        assert ex.opened == 0 and scheduler_builds == []
        assert ex.stats.shipped == 0
        assert ex.stats.tasks_run == 9 and ex.stats.windows == 3
        assert ex.inflight_attempts == 0 and not ex.outbox
        assert ex.fns == {}

    def test_retry_reruns_in_place_after_its_backoff(self):
        pol = RecoveryPolicy(max_retries=2, backoff=0.05)

        def script(tid, attempt):
            return RuntimeError("flaky") if (tid, attempt) == (2, 0) else None

        ex = ScriptedTransport(_chain(5), script, lanes=1, recovery=pol)
        ex.run()
        assert ex.log == ([(None, tid, 0) for tid in range(3)]
                          + [(None, 2, 1)]
                          + [(None, tid, 0) for tid in range(3, 5)])
        assert ex.now == pol.backoff_seconds(0, 2, 1)
        assert ex.stats.recovery.retried_tasks == 1
        assert ex.stats.tasks_run == 5 and ex.opened == 0

    def test_final_failure_leaves_the_rest_to_abandon(self):
        def script(tid, attempt):
            return ZeroDivisionError("final") if tid == 5 else None

        ex = ScriptedTransport(_independent(8), script, lanes=1)
        ex.run(0, 2)
        with pytest.raises(ZeroDivisionError):
            ex.run(2, 8)
        assert [t for _, t, _ in ex.log] == list(range(6))
        assert list(ex._unfinished) == [5, 6, 7]
        assert sorted(ex.fns) == [5, 6, 7]
        assert ex.stats.tasks_run == 5 and ex.inflight_attempts == 0
        ex.abandon_window()
        assert ex.fns == {}
        assert list(ex._unfinished) == []

    def test_forward_edge_is_refused_before_anything_runs(self):
        # Every dep is tested, sorted or not: (2, 0) hides its forward
        # edge from a look at the last one.
        for deps in ((2,), (2, 0)):
            g = _independent(3)
            g.tasks[1].deps = deps
            ex = ScriptedTransport(g, lambda tid, a: None, lanes=1,
                                   validate=False)
            with pytest.raises(RuntimeError, match="stalled with 3 task"):
                ex.run()
            assert ex.log == [] and ex.opened == 0, deps
            assert list(ex._unfinished) == [0, 1, 2]

    @pytest.fixture
    def per_task_paths(self, monkeypatch):
        """How many :class:`Report`s the driver builds and how many
        times it calls ``record_task``."""
        calls = {"report": 0, "record_task": 0}
        report, record = window.Report, window.ExecutionStats.record_task

        def counting_report(*args):
            calls["report"] += 1
            return report(*args)

        def counting_record(self, *args):
            calls["record_task"] += 1
            return record(self, *args)

        monkeypatch.setattr(window, "Report", counting_report)
        monkeypatch.setattr(window.ExecutionStats, "record_task",
                            counting_record)
        return calls

    def test_a_success_is_accounted_once_per_window(self, per_task_paths):
        # A swept success settles, drops its payload and counts its
        # kernel; tasks_run, busy and CPU seconds are the window's.
        gemms = get_registry().counter("kernel.invocations.gemm")
        before, ran = gemms.value, []
        fns = {tid: (lambda tid=tid: ran.append(tid)) for tid in range(6)}
        with ParallelExecutor(_independent(6), fns, workers=1) as ex:
            ex.run(0, 4)
            ex.run(4)
            stats = ex.stats
        assert ran == list(range(6)) and fns == {}
        assert per_task_paths == {"report": 0, "record_task": 0}
        assert gemms.value - before == 6
        assert stats.tasks_run == 6 and stats.windows == 2
        assert 0.0 < stats.busy_seconds <= stats.wall_seconds
        assert stats.cpu_seconds > 0.0

    def test_a_sink_gets_one_measured_event_a_task(self, per_task_paths):
        sink = TimelineSink()
        fns = {tid: (lambda: None) for tid in range(5)}
        with ParallelExecutor(_chain(5), fns, workers=1, sink=sink) as ex:
            ex.run()
            assert ex.stats.tasks_run == 5
        assert [e.tid for e in sink.tasks] == list(range(5))
        assert all(e.slot == "drv" and e.measured and 0.0 <= e.start <= e.end
                   for e in sink.tasks)
        assert per_task_paths == {"report": 0, "record_task": 0}

    @pytest.mark.parametrize("shape, backend", [
        ("small_tiles", "threads"), ("small_tiles", "processes"),
        ("big_tiles", "threads"), ("illcond_tall", "threads")])
    def test_perfbench_shapes_count_what_eager_counts(self, shape, backend):
        # Sweeps (every window of small_tiles, the estimator windows of
        # the others) and windows with lanes together run each task
        # once and count each kernel once, as eager does.  (Processes
        # sweeps with the same loop; its forking windows on the larger
        # shapes cost seconds a call on an unpinned BLAS.)
        tasks, kernels, _ = _qdwh_counts(shape, "eager")
        assert _qdwh_counts(shape, backend) == (tasks, kernels, tasks)


class TestStallRule:
    """A window that cannot make progress — nothing in flight, no retry
    due, nothing ready — fails at once on every transport.  (The
    processes backend used to wait out 200 empty polls: ~10 s.)"""

    @staticmethod
    def _cycle(g):
        g.tasks[0].deps, g.tasks[1].deps = (1,), (0,)

    def test_fake_transport(self):
        g = _independent(2)
        self._cycle(g)
        ex = ScriptedTransport(g, lambda tid, a: None, validate=False)
        with pytest.raises(RuntimeError, match="stalled with 2 task"):
            ex.run()
        assert ex.log == []

    def test_threads(self):
        g = _independent(2)
        self._cycle(g)
        t0 = time.perf_counter()
        with ParallelExecutor(g, {0: lambda: None, 1: lambda: None},
                              workers=2, validate=False) as ex:
            with pytest.raises(RuntimeError, match="stalled with 2 task"):
                ex.run()
            assert time.perf_counter() - t0 < ex.recovery_policy.poll_interval
            assert ex.inflight_attempts == 0

    def test_processes(self):
        with Runtime(ProcessGrid(1, 1), deferred=True, backend="processes",
                     workers=2, sanitize=None) as rt:
            a = DistMatrix(rt, 32, 16, 16, np.float64)
            for i in range(2):
                rt.submit(TaskKind.GEMM, writes=(a.ref(i, 0),), rank=0,
                          fn=lambda: None)
            self._cycle(rt.graph)
            ex = ProcessExecutor(rt, workers=2, validate=False)
            t0 = time.perf_counter()
            try:
                with pytest.raises(RuntimeError,
                                   match="stalled with 2 task"):
                    ex.run(0, 2)
                elapsed = time.perf_counter() - t0
                assert ex.inflight_attempts == 0
            finally:
                ex.close()
        # One fork/handshake/shutdown round, not 200 polls.
        assert elapsed < 2.0


class TestOrderingCheck:
    """The driver checks every task it hands out, on every transport:
    task 1 of each case lost the edge that orders it after task 0, so
    both are ready at once.  Task 0 is handed out first, and task 1 is
    refused at its hand-out — before its payload runs — with
    :class:`OrderingViolationError`; the window drains and leaves no
    in-flight mark behind."""

    #: ``(reads, writes)`` of tasks 0 and 1 over tiles 0 and 1, and
    #: what the check says about task 1.
    CASES = {
        "missing_raw": ([((), (0,)), ((0,), (1,))], "task 1 .* wrong epoch"),
        "unordered_writers": ([((), (0,)), ((), (0,))],
                              "task 1 .* wrong epoch"),
        "missing_war": ([((0,), (1,)), ((), (0,))],
                        "task 1 writes tile .* reader"),
    }

    @staticmethod
    def _assert_refused(ex, case):
        with pytest.raises(OrderingViolationError,
                           match=TestOrderingCheck.CASES[case][1]):
            ex.run(0, 2)
        assert ex.inflight_attempts == 0
        assert not ex._marked and not ex._writing and not ex._reading
        assert 1 in ex._unfinished

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("transport", ["scripted", "threads",
                                           "processes"])
    def test_stripped_edge_is_refused_at_hand_out(
            self, transport, case, lanes_for_tiny_tiles):
        specs = self.CASES[case][0]
        with Runtime(ProcessGrid(1, 1), deferred=True, backend="threads",
                     workers=2, sanitize=None) as rt:
            # Tiles 0-1 are the case's; task k also writes tile 2 + k,
            # which its payload marks.
            a = DistMatrix(rt, 64, 16, 16, np.float64)
            for tid, (reads, writes) in enumerate(specs):
                rt.submit(TaskKind.GEMM, reads=[a.ref(i, 0) for i in reads],
                          writes=[a.ref(i, 0) for i in writes + (2 + tid,)],
                          rank=0,
                          fn=lambda tid=tid: a.tile(2 + tid, 0).fill(1.0))
            assert rt.graph.tasks[1].deps == (0,)
            rt.graph.tasks[1].deps = ()
            if transport == "scripted":
                ex = ScriptedTransport(rt.graph, lambda tid, a: None,
                                       validate=False)
                self._assert_refused(ex, case)
                assert [t for _, t, _ in ex.log] == [0]
                return
            if transport == "processes":
                ex = ProcessExecutor(rt, workers=2, validate=False)
            else:
                ex = ParallelExecutor(rt.graph, rt._pending_fns, workers=2,
                                      validate=False)
            try:
                # As in Runtime.sync: a payload's tile access must not
                # flush the runtime's own (validating) executor.
                rt._in_execution = True
                self._assert_refused(ex, case)
                rt._in_execution = False
                rt.abandon_pending()
                assert a.tile(3, 0).max() == 0.0, "task 1's payload ran"
            finally:
                ex.close()

    def test_retry_is_checked_again_but_marked_once(self):
        # Task 1 reads tile 0 and writes tile 1; its first attempt
        # fails.  The retry is handed out, and checked, a second time;
        # the marks the task took at its first hand-out carry it — a
        # second mark would count two readers of tile 0, or refuse the
        # retry as a second writer of tile 1.
        seen = []

        def script(tid, attempt):
            seen.append((tid, attempt, dict(ex._reading),
                         dict(ex._writing)))
            return RuntimeError("flaky") if (tid, attempt) == (1, 0) else None

        ex = ScriptedTransport(_chain(2), script,
                               recovery=RecoveryPolicy(max_retries=1))
        handed = []
        check = ex._hand_out
        ex._hand_out = lambda tid: handed.append(tid) or check(tid)
        ex.run()
        assert handed == [0, 1, 1]
        held = ({(0, 0, 0): 1}, {(0, 1, 0): 1})
        assert seen[1:] == [(1, 0) + held, (1, 1) + held]
        assert ex.stats.tasks_run == 2 and ex.stats.recovery.retried_tasks == 1
        assert not ex._marked and not ex._writing and not ex._reading
