"""Live fault tolerance on the threaded backend.

Covers the full recovery stack: FaultPlan live-fault serialization,
executor-level retry/timeout/speculation/corruption handling,
tiled_qdwh's numerical health guards (Cholesky→QR fallback, dense
degradation, estimator defaults), and checkpoint/restart under
``backend="threads"``.  Faulty runs are always compared against a
fault-free baseline — recovery must be invisible in the numerics.
"""

import json
import warnings

import numpy as np
import pytest

from repro.config import backward_error_bound
from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix, polar_report
from repro.obs.timeline import (
    FAULT_CORRUPTION,
    FAULT_HEALTH,
    FAULT_RETRY,
    FAULT_STALL,
    TimelineSink,
)
from repro.resilience import (
    CheckpointPolicy,
    FaultPlan,
    QdwhCheckpointer,
    TileCorruption,
    TransientFaults,
    WorkerStall,
    plan_from_spec,
)
from repro.resilience.live import (
    InjectedTransientError,
    LiveFaultInjector,
    RecoveryPolicy,
    TileAccessor,
)
from repro.runtime import Runtime
from repro.tiled.blas3 import gemm


def _rt(plan=None, recovery=None, sink=None):
    return Runtime(ProcessGrid(1, 1), faults=plan, recovery=recovery,
                   sink=sink)


def _quiet_qdwh(rt, d, **kw):
    """tiled_qdwh with health-guard RuntimeWarnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return tiled_qdwh(rt, d, **kw)


class TestTileAccessor:
    def test_snapshot_restore_round_trip(self):
        # Snapshots are C-order bytes (copied under the GIL); a restore
        # must reproduce any tile layout, dtype and ragged shape, and
        # keep a lazily-zero tile lazily zero.
        rt = _rt()
        a = (np.arange(40 * 24).reshape(40, 24) * (1 - 2j)).astype(
            np.complex128)
        d = DistMatrix.from_array(rt, a, 16)
        d._tiles[(0, 0)] = np.asfortranarray(d._tiles[(0, 0)])
        d._tiles[(1, 1)] = None
        refs = (d.ref(0, 0), d.ref(2, 1), d.ref(1, 1), d.ref(0, 0),
                (rt.scalar_mat, 0, 0))
        acc = TileAccessor(rt._matrices)
        snap = acc.snapshot(refs)
        assert set(snap) == {d.ref(0, 0), d.ref(2, 1), d.ref(1, 1)}
        assert snap[d.ref(1, 1)] is None
        before = {k: None if t is None else t.copy()
                  for k, t in d._tiles.items()}
        d._tiles[(0, 0)][...] = np.nan
        d._tiles[(2, 1)][...] = 7.0
        d._tiles[(1, 1)] = np.ones((16, 8), dtype=np.complex128)
        for _ in range(2):      # the snapshot survives a restore
            acc.restore(snap)
            assert d._tiles[(1, 1)] is None
            for key in ((0, 0), (2, 1)):
                assert np.array_equal(d._tiles[key], before[key])
            d._tiles[(2, 1)][...] = -1.0
        assert d._tiles[(0, 0)].flags.f_contiguous
        assert d._tiles[(2, 1)].shape == (8, 8)
        rt.close()


class TestLivePlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=9,
            transient=TransientFaults(probability=0.2, max_attempts=5),
            stalls=(WorkerStall(probability=0.1, seconds=0.5,
                                kinds=("GEMM",)),),
            corruptions=(TileCorruption(probability=0.05, value="inf",
                                        max_events=2),))
        path = str(tmp_path / "plan.json")
        plan.to_json(path)
        back = FaultPlan.from_json(path)
        assert back == plan
        assert back.stalls[0].kinds == ("gemm",)  # normalized lowercase
        assert back.live_faults and not back.empty

    def test_live_faults_property(self):
        assert not FaultPlan(seed=1).live_faults
        assert FaultPlan(stalls=(WorkerStall(probability=0.1),)).live_faults
        assert FaultPlan(
            corruptions=(TileCorruption(probability=0.1),)).live_faults
        # Zero-probability live specs do not activate the live path.
        assert not FaultPlan(
            stalls=(WorkerStall(probability=0.0),)).live_faults

    def test_plan_from_spec_live_fields(self):
        plan = plan_from_spec(seed=3, stall_p=0.2, stall_seconds=0.1,
                              corrupt_p=0.05)
        assert len(plan.stalls) == 1
        assert plan.stalls[0].seconds == 0.1
        assert len(plan.corruptions) == 1
        assert plan.corruptions[0].max_events == 1
        assert not plan.empty

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerStall(probability=1.5)
        with pytest.raises(ValueError):
            WorkerStall(probability=0.1, seconds=-1.0)
        with pytest.raises(ValueError):
            TileCorruption(probability=0.1, value="zero")
        with pytest.raises(ValueError):
            TileCorruption(probability=0.1, max_events=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(straggler_factor=0.5)


class TestInjectorDeterminism:
    def test_same_plan_same_draws(self):
        plan = FaultPlan(seed=5,
                         transient=TransientFaults(probability=0.3),
                         stalls=(WorkerStall(probability=0.2,
                                             seconds=0.01),))
        a = LiveFaultInjector(plan)
        b = LiveFaultInjector(plan)
        for tid in range(50):
            assert (a.transient_fires(tid, 0)
                    == b.transient_fires(tid, 0))
            assert (a.stall_seconds(tid, "gemm", 0)
                    == b.stall_seconds(tid, "gemm", 0))

    def test_final_allowed_attempt_never_fails(self):
        plan = FaultPlan(seed=5, transient=TransientFaults(
            probability=1.0, max_attempts=4))
        inj = LiveFaultInjector(plan)
        for tid in range(20):
            assert inj.transient_fires(tid, 0)
            assert inj.transient_fires(tid, 2)
            assert not inj.transient_fires(tid, 3)

    def test_corruption_budget(self):
        plan = FaultPlan(seed=5, corruptions=(TileCorruption(
            probability=1.0, max_events=2),))
        inj = LiveFaultInjector(plan)
        fired = [inj.corruption_for(t, "gemm", 0, 4) for t in range(10)]
        assert sum(f is not None for f in fired) == 2


class TestRetryableClassifier:
    """One classifier, one attempt body: what a payload failure means
    cannot drift between the backends."""

    def test_table(self):
        from repro.analysis.sanitizer import (UNDECLARED_WRITE,
                                              SanitizerError,
                                              SanitizerFinding)
        from repro.resilience.live import TileCorruptionDetected
        from repro.runtime import OrderingViolationError
        from repro.runtime.attempt import retryable
        from repro.runtime.distributed.comm import (CommClosedError,
                                                    CommError)

        assert CommClosedError.retryable and not CommError.retryable
        table = [
            (InjectedTransientError("t"), True),
            (TileCorruptionDetected("c"), True),
            (OSError("generic, transient-looking"), True),
            (CommClosedError("peer went away"), True),
            (CommError("protocol violation"), False),
            (np.linalg.LinAlgError("not SPD"), False),
            (OrderingViolationError("epoch"), False),
            (SanitizerError(SanitizerFinding(UNDECLARED_WRITE, 0, "gemm", "",
                                             (0, 0, 0))), False),
            (KeyboardInterrupt(), False),
        ]
        for exc, want in table:
            assert retryable(exc) is want, exc

    def test_single_definition(self):
        import repro.analysis.dist.protocol as protocol
        import repro.runtime.attempt as attempt
        import repro.runtime.distributed.executor as pexec
        import repro.runtime.distributed.worker as worker
        import repro.runtime.parallel as parallel

        assert protocol.retryable is attempt.retryable
        for mod in (parallel, pexec, worker):
            assert mod.run_attempt is attempt.run_attempt
        # ... whose verdict is the classifier's.
        from repro.runtime.task import Task, TaskKind

        def boom():
            raise np.linalg.LinAlgError("breakdown")

        t = Task(tid=0, kind=TaskKind.POTRF, reads=(), writes=(), rank=0,
                 phase=0)
        res = attempt.run_attempt(t, boom, 0)
        assert isinstance(res.exc, np.linalg.LinAlgError)
        assert res.retryable is False and not res.lost


def _gemm_workload(rt, n=64, nb=16, seed=0):
    """c = a @ b on the runtime; returns (c, expected ndarray)."""
    rng = np.random.default_rng(seed)
    am, bm = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a = DistMatrix.from_array(rt, am, nb, name="a")
    b = DistMatrix.from_array(rt, bm, nb, name="b")
    c = DistMatrix.from_array(rt, np.zeros((n, n)), nb, name="c")
    gemm(rt, 1.0, a, b, 0.0, c)
    return c, am @ bm


class TestExecutorRecovery:
    def test_transient_retry_recovers(self):
        # workers=8 on a shortened switch interval is the stress case:
        # more threads than cores snapshot/restore through one ledger
        # while the dispatch thread settles it; a lost update would
        # show up as a wrong product or a leaked attempt.
        import sys

        plan = FaultPlan(seed=2, transient=TransientFaults(
            probability=0.5, max_attempts=4))
        interval = sys.getswitchinterval()
        for workers in (2, 8):
            rt = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4))
            rt.enable_deferred(workers=workers)
            try:
                if workers > 2:
                    sys.setswitchinterval(1e-5)
                c, want = _gemm_workload(rt)
                assert np.allclose(c.to_array(), want)
            finally:
                sys.setswitchinterval(interval)
            rec = rt.exec_stats.recovery
            assert rec.transient_failures > 0
            assert rec.retried_tasks > 0
            assert rt.executor.inflight_attempts == 0
            rt.close()

    def test_retry_exhaustion_raises(self):
        # max_attempts=10 keeps the transient firing past the policy's
        # single retry, so the failure must surface.
        plan = FaultPlan(seed=2, transient=TransientFaults(
            probability=1.0, max_attempts=10))
        rt = _rt(plan, RecoveryPolicy(max_retries=1, backoff=1e-4))
        rt.enable_deferred(workers=2)
        c, _ = _gemm_workload(rt)
        with pytest.raises(InjectedTransientError):
            rt.sync()
        assert rt.executor.inflight_attempts == 0
        rt.abandon_pending()
        rt.close()

    def test_corruption_detected_and_repaired(self):
        plan = FaultPlan(seed=4, corruptions=(TileCorruption(
            probability=1.0, max_events=2, kinds=("gemm",)),))
        sink = TimelineSink()
        rt = _rt(plan, sink=sink)  # default policy: scrub_writes on
        rt.enable_deferred(workers=2)
        c, want = _gemm_workload(rt)
        assert np.allclose(c.to_array(), want)  # NaN never escapes
        rec = rt.exec_stats.recovery
        assert rec.corrupted_tiles == 2
        assert rec.retried_tasks >= 2
        assert any(f.kind == FAULT_CORRUPTION for f in sink.faults)
        rt.close()

    def test_stall_speculation_and_timeout(self):
        plan = FaultPlan(seed=6, stalls=(WorkerStall(
            probability=0.3, seconds=0.4),))
        sink = TimelineSink()
        pol = RecoveryPolicy(task_timeout=0.1, min_straggler_seconds=0.05,
                             min_samples=3, poll_interval=0.01)
        rt = _rt(plan, pol, sink=sink)
        rt.enable_deferred(workers=2)
        c, want = _gemm_workload(rt, n=48)
        assert np.allclose(c.to_array(), want)
        rec = rt.exec_stats.recovery
        assert rec.injected_stalls > 0
        assert rec.timeouts > 0
        # A stalled original loses to its backup: the winner's write is
        # the only one that lands (checked by the numeric equality
        # above); the loser reports itself without touching tiles.
        assert rec.speculative_duplicates >= rec.speculation_wins
        assert any(f.kind == FAULT_STALL for f in sink.faults)
        assert rt.executor.inflight_attempts == 0
        rt.close()

    def test_workers1_faulty_bit_identical_to_fault_free(self):
        plan = FaultPlan(seed=8, transient=TransientFaults(
            probability=0.4, max_attempts=4))
        rt1 = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4))
        rt1.enable_deferred(workers=1)
        c1, _ = _gemm_workload(rt1)
        out1 = c1.to_array()
        rt1.close()
        rt2 = Runtime(ProcessGrid(1, 1))
        rt2.enable_deferred(workers=1)
        c2, _ = _gemm_workload(rt2)
        # Retried tasks re-run the identical payload on restored
        # inputs, so recovery is bitwise invisible.
        assert np.array_equal(out1, c2.to_array())
        rt2.close()

    def test_retry_events_in_sink(self):
        plan = FaultPlan(seed=2, transient=TransientFaults(
            probability=0.5, max_attempts=4))
        sink = TimelineSink()
        rt = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4),
                 sink=sink)
        rt.enable_deferred(workers=2)
        c, want = _gemm_workload(rt)
        assert np.allclose(c.to_array(), want)
        kinds = sink.fault_counts()
        assert kinds.get(FAULT_RETRY, 0) > 0
        assert kinds.get("transient", 0) > 0
        rt.close()


class TestQdwhUnderLiveFaults:
    N, NB, COND, SEED = 96, 32, 1e8, 11

    def _baseline(self, a):
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), self.NB)
        res = tiled_qdwh(rt, d)
        out = (d.to_array(), res.h.to_array(), res.iterations)
        rt.close()
        return out

    def test_faulty_qdwh_matches_fault_free(self):
        a = generate_matrix(self.N, cond=self.COND, seed=self.SEED)
        u0, h0, it0 = self._baseline(a)
        plan = FaultPlan(
            seed=self.SEED,
            transient=TransientFaults(probability=0.15, max_attempts=4),
            stalls=(WorkerStall(probability=0.05, seconds=0.05),),
            corruptions=(TileCorruption(probability=0.5, max_events=1),))
        rt = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4,
                                      min_straggler_seconds=0.02,
                                      min_samples=3,
                                      scrub_writes=True))
        d = DistMatrix.from_array(rt, a.copy(), self.NB)
        res = tiled_qdwh(rt, d, backend="threads", workers=4)
        assert res.converged and not res.degraded
        assert res.iterations == it0
        rep = polar_report(a, d.to_array(), res.h.to_array())
        assert rep.backward < backward_error_bound(np.float64, self.COND)
        rec = rt.exec_stats.recovery
        assert rec.transient_failures >= 3
        assert rec.injected_stalls >= 1
        assert rec.corrupted_tiles >= 1
        assert rt.executor.inflight_attempts == 0
        rt.close()


class TestCholeskyFallback:
    @pytest.mark.parametrize("backend,workers",
                             [("eager", None), ("threads", 2)])
    def test_posv_breakdown_falls_back_to_qr(self, monkeypatch, backend,
                                             workers):
        import repro.tiled.cholesky as chol

        orig = chol.kernels.potrf_kernel
        state = {"calls": 0}

        def breaking(*args, **kw):
            state["calls"] += 1
            if state["calls"] == 1:
                raise np.linalg.LinAlgError("forced breakdown")
            return orig(*args, **kw)

        monkeypatch.setattr(chol.kernels, "potrf_kernel", breaking)
        a = generate_matrix(64, cond=1e6, seed=3)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = _quiet_qdwh(rt, d, backend=backend, workers=workers)
        assert res.converged and not res.degraded
        assert any("Cholesky breakdown" in m for m in res.health_log)
        # The broken-down step reran as QR; later steps still use chol.
        assert res.it_qr >= 1 and res.it_chol >= 1
        rep = polar_report(a, d.to_array(), res.h.to_array())
        assert rep.orthogonality < 5e-13
        assert rep.backward < 1e-10
        rt.close()

    def test_fallback_matches_health_event_count(self, monkeypatch):
        import repro.tiled.cholesky as chol

        orig = chol.kernels.potrf_kernel
        state = {"calls": 0}

        def breaking(*args, **kw):
            state["calls"] += 1
            if state["calls"] == 1:
                raise np.linalg.LinAlgError("boom")
            return orig(*args, **kw)

        monkeypatch.setattr(chol.kernels, "potrf_kernel", breaking)
        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), sink=sink)
        d = DistMatrix.from_array(rt, generate_matrix(48, cond=1e4,
                                                      seed=1), 16)
        res = _quiet_qdwh(rt, d)
        assert res.converged
        assert sink.fault_counts().get(FAULT_HEALTH, 0) == \
            len(res.health_log) == 1
        rt.close()


class TestHealthGuards:
    def test_nan_slips_past_scrub_degrades_to_dense(self):
        # scrub_writes off: the injected NaN reaches the convergence
        # norm and the algorithm-level guard must catch it.
        a = generate_matrix(64, cond=1e4, seed=5)
        plan = FaultPlan(seed=7, corruptions=(TileCorruption(
            probability=1.0, max_events=1, kinds=("gemm", "add")),))
        rt = _rt(plan, RecoveryPolicy(scrub_writes=False))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = _quiet_qdwh(rt, d, backend="threads", workers=2)
        assert res.degraded and res.converged
        assert any("health check failed" in m for m in res.health_log)
        rep = polar_report(a, d.to_array(), res.h.to_array())
        assert rep.orthogonality < 5e-13
        assert rep.backward < 1e-10
        assert rt.exec_stats.recovery.health_events >= 1
        rt.close()

    def test_garbage_cond_est_uses_conservative_default(self):
        a = generate_matrix(48, cond=1e4, seed=2)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = _quiet_qdwh(rt, d, cond_est=float("nan"))
        assert res.converged and not res.degraded
        assert any("cond_est" in m for m in res.health_log)
        rep = polar_report(a, d.to_array(), res.h.to_array())
        assert rep.backward < 1e-10
        rt.close()

    def test_health_guard_warns(self):
        a = generate_matrix(32, cond=1e2, seed=2)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        with pytest.warns(RuntimeWarning, match="cond_est"):
            tiled_qdwh(rt, d, cond_est=-3.0)
        rt.close()

    def test_small_max_iter_keeps_partial_result(self):
        # A deliberately tiny budget (interrupt workflows) must NOT
        # trigger the dense fallback.
        a = generate_matrix(48, cond=1e8, seed=2)
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, d, max_iter=2)
        assert not res.converged and not res.degraded
        assert res.iterations == 2
        rt.close()


class TestThreadsCheckpoint:
    def _factors(self, a, nb=16, **kw):
        rt = Runtime(ProcessGrid(1, 1))
        d = DistMatrix.from_array(rt, a.copy(), nb)
        res = tiled_qdwh(rt, d, **kw)
        out = (d.to_array(), res.h.to_array(), res)
        rt.close()
        return out

    def test_threads_resume_bit_identical(self, tmp_path):
        a = generate_matrix(64, cond=1e6, seed=3)
        ck = str(tmp_path / "ck")
        u0, h0, _ = self._factors(a)  # uninterrupted eager reference
        # Interrupt after 2 iterations on the threaded backend, then
        # resume.  workers=1 keeps the bit-identity contract.
        _, _, part = self._factors(
            a, backend="threads", workers=1, max_iter=2,
            checkpoint=QdwhCheckpointer(ck))
        assert not part.converged
        u1, h1, res = self._factors(
            a, backend="threads", workers=1,
            checkpoint=QdwhCheckpointer(ck))
        assert res.converged
        assert np.array_equal(u0, u1)
        assert np.array_equal(h0, h1)
        # Convergence clears the checkpoint directory.
        assert QdwhCheckpointer(ck).load() is None

    def test_threads_resume_multiworker(self, tmp_path):
        a = generate_matrix(64, cond=1e6, seed=4)
        ck = str(tmp_path / "ck")
        u0, h0, _ = self._factors(a)
        self._factors(a, backend="threads", workers=4, max_iter=2,
                      checkpoint=QdwhCheckpointer(ck))
        u1, h1, res = self._factors(a, backend="threads", workers=4,
                                    checkpoint=QdwhCheckpointer(ck))
        assert res.converged
        assert np.allclose(u0, u1, atol=1e-12)
        assert np.allclose(h0, h1, atol=1e-12)

    def test_stale_fingerprint_ignored(self, tmp_path):
        ck = str(tmp_path / "ck")
        a = generate_matrix(48, cond=1e4, seed=1)
        b = generate_matrix(48, cond=1e4, seed=2)  # same shape/dtype
        self._factors(a, max_iter=1, checkpoint=QdwhCheckpointer(ck))
        assert QdwhCheckpointer(ck).load() is not None
        u_b, h_b, res = self._factors(b, checkpoint=QdwhCheckpointer(ck))
        u_ref, h_ref, _ = self._factors(b)
        # The stale state (from a) was ignored, not resumed.
        assert res.converged
        assert np.array_equal(u_b, u_ref)
        assert np.array_equal(h_b, h_ref)

    def test_checkpoint_interval_policy(self, tmp_path):
        a = generate_matrix(48, cond=1e4, seed=1)
        ck = QdwhCheckpointer(str(tmp_path / "ck"),
                              CheckpointPolicy(every=2))
        self._factors(a, max_iter=3, checkpoint=ck)
        state = QdwhCheckpointer(str(tmp_path / "ck")).load()
        assert state is not None and state["it"] == 2

    def test_checkpoint_under_live_faults(self, tmp_path):
        # The full stack at once: faults + recovery + checkpoint.
        a = generate_matrix(64, cond=1e6, seed=9)
        ck = str(tmp_path / "ck")
        u0, h0, _ = self._factors(a)
        plan = FaultPlan(seed=9, transient=TransientFaults(
            probability=0.2, max_attempts=4))
        rt = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4))
        d = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, d, backend="threads", workers=2,
                         max_iter=2, checkpoint=QdwhCheckpointer(ck))
        assert not res.converged
        rt.close()
        u1, h1, res2 = self._factors(a, backend="threads", workers=2,
                                     checkpoint=QdwhCheckpointer(ck))
        assert res2.converged
        assert np.allclose(u0, u1, atol=1e-12)
        assert np.allclose(h0, h1, atol=1e-12)


class TestAcceptanceScenario:
    def test_seeded_plan_n256_kappa1e16(self, tmp_path):
        """The PR's acceptance gate: n=256 at kappa=1e16 under a seeded
        plan with transients, stalls, and a NaN corruption converges on
        threads(4) with berr at the condition-scaled tolerance, and the
        recovery shows up in both RecoveryStats and the chrome trace."""
        n, nb, cond, seed = 256, 64, 1e16, 11
        a = generate_matrix(n, cond=cond, seed=seed)

        rt0 = Runtime(ProcessGrid(1, 1))
        d0 = DistMatrix.from_array(rt0, a.copy(), nb)
        res0 = tiled_qdwh(rt0, d0)
        rep0 = polar_report(a, d0.to_array(), res0.h.to_array())
        rt0.close()

        plan = FaultPlan(
            seed=seed,
            transient=TransientFaults(probability=0.1, max_attempts=4),
            stalls=(WorkerStall(probability=0.05, seconds=0.05),),
            corruptions=(TileCorruption(probability=0.5, max_events=1),))
        sink = TimelineSink()
        rt = _rt(plan, RecoveryPolicy(max_retries=3, backoff=1e-4,
                                      min_straggler_seconds=0.02,
                                      min_samples=3, scrub_writes=True),
                 sink=sink)
        d = DistMatrix.from_array(rt, a.copy(), nb)
        res = tiled_qdwh(rt, d, backend="threads", workers=4)
        rep = polar_report(a, d.to_array(), res.h.to_array())
        rec = rt.exec_stats.recovery
        leaked = rt.executor.inflight_attempts
        rt.close()

        assert res.converged
        tol = max(backward_error_bound(np.float64, cond),
                  10.0 * rep0.backward)
        assert rep.backward <= tol
        assert rec.transient_failures >= 3
        assert rec.retried_tasks >= 3
        assert rec.injected_stalls >= 1
        assert rec.corrupted_tiles >= 1
        assert leaked == 0

        # Retries and speculation are visible in the exported trace.
        from repro.obs.export import write_chrome_trace

        counts = sink.fault_counts()
        assert counts.get(FAULT_RETRY, 0) >= 3
        assert counts.get(FAULT_STALL, 0) >= 1
        assert counts.get(FAULT_CORRUPTION, 0) >= 1
        path = str(tmp_path / "trace.json")
        write_chrome_trace(sink, path)
        blob = json.load(open(path))
        fault_names = {ev.get("name", "") for ev in blob["traceEvents"]
                       if ev.get("cat") == "fault"}
        for kind in (FAULT_RETRY, FAULT_STALL, FAULT_CORRUPTION):
            assert any(name.startswith(kind) for name in fault_names)
