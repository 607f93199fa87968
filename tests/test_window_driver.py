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
every window.  The stall rule is checked on the fake and on both real
transports.
"""

import time
from collections import deque

import numpy as np
import pytest

from repro.dist import DistMatrix, ProcessGrid
from repro.resilience import RecoveryPolicy
from repro.runtime import (ParallelExecutor, ProcessExecutor, Runtime,
                           TaskGraph, TaskKind, WorkerCrashError)
from repro.runtime.attempt import Attempt, retryable
from repro.runtime.distributed import DynamicScheduler
from repro.runtime.task import Task
from repro.runtime.window import Death, Report, WindowExecutor


class ScriptedTransport(WindowExecutor):
    """Attempts queue in send order; each ``_recv`` resolves the oldest
    through ``script(tid, attempt)`` -> None (success), an exception
    (the attempt fails with it) or ``"die"`` (its lane's worker dies,
    taking everything sent to that lane with it).  Resolving takes no
    time; waiting with nothing out advances ``now`` by the wait."""

    def __init__(self, graph, script, *, lanes=2, depth=2, recovery=None,
                 validate=True):
        super().__init__(graph, {t.tid: (lambda: None) for t in graph.tasks},
                         workers=lanes, lookahead=None, sink=None,
                         validate=validate, sanitizer=None,
                         recovery=recovery, injector=None, tiles=None)
        self.script, self.depth = script, depth
        self.outbox = deque()
        self.log = []           # every (lane, tid, attempt) ever sent
        self.now = 0.0
        self.clock = lambda: self.now

    def _open(self, start, end):
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
        return [Report(tid, lane, Attempt(
            0.0, 1e-6, 0.0, [], verdict,
            verdict is not None and retryable(verdict)), f"f{lane}", 0.0)]


def _independent(n):
    g = TaskGraph()
    for tid in range(n):
        g.register_tile((0, tid, 0), 64, owner=0)
        g.add(Task(tid=tid, kind=TaskKind.GEMM, reads=(),
                   writes=((0, tid, 0),), rank=0, phase=0))
    return g


def _attempts(ex, tid):
    return [a for _, t, a in ex.log if t == tid]


class TestRetries:
    def test_budget_and_seeded_backoff_order(self):
        # Tasks 0-2 fail their first attempt at the same instant of
        # the scripted clock; their retries come back in the order of
        # the seeded backoff draws, not in tid order.  Task 3 fails for
        # ever and gets exactly max_retries retries before its error
        # is final.
        pol = RecoveryPolicy(max_retries=2, backoff=0.05, jitter=0.5)
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
