"""Differential tests: tiled QDWH vs dense QDWH vs SVD ground truth.

Hypothesis drives random problem shapes (rectangular m >= n), all four
supported dtypes, and condition numbers spanning well-conditioned to
the paper's worst case (kappa = 1e16), and checks every execution path
of the tiled implementation — eager, threads x 1 worker, threads x 4
workers, plus the multi-process backend on fixed problems — against
the dense reference driver and an SVD-built ground truth.  The invariants are the paper's accuracy metrics: backward
error ||A - U_p H|| / ||A|| and orthogonality ||U_p^H U_p - I||, both
at the roundoff level of the dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import qdwh
from repro.config import backward_error_bound
from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix
from repro.matrices import generate_matrix, polar_report

from .conftest import ALL_DTYPES, make_runtime

CONDS = [1e0, 1e8, 1e16]

#: Orthogonality ||U^H U - I|| is condition-independent: a few hundred
#: ulps at these sizes, like the direct tiled-QDWH tests assert.
ORTH_TOL = {np.float32: 5e-5, np.complex64: 5e-5,
            np.float64: 5e-13, np.complex128: 5e-13}
#: Backward error ||A - U H|| / ||A|| carries a slowly growing
#: kappa-dependent constant (observed ~1e4-1e5 ulps at kappa = 1/eps),
#: so its budget is wider while still far below any algorithmic
#: failure mode.
BERR_TOL = {np.float32: 1e-3, np.complex64: 1e-3,
            np.float64: 1e-10, np.complex128: 1e-10}


def _berr_tol(dtype, cond):
    # At moderate kappa the flat per-dtype floor dominates.
    return max(BERR_TOL[dtype], backward_error_bound(dtype, cond))


def _svd_polar(a):
    """Ground-truth polar factors from the SVD: U_p = U V^H,
    H = V diag(s) V^H."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh, (vh.conj().T * s) @ vh


def _run_tiled(a, nb, backend, workers=None):
    rt = make_runtime(2, 2)
    da = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, da, backend=backend, workers=workers)
    u, h = res.u.to_array(), res.h.to_array()
    rt.close()
    return u, h


@st.composite
def problems(draw):
    n = draw(st.integers(8, 32))
    m = n + draw(st.integers(0, 16))
    nb = draw(st.sampled_from([8, 16]))
    dtype = draw(st.sampled_from(ALL_DTYPES))
    cond = draw(st.sampled_from(CONDS))
    seed = draw(st.integers(0, 2 ** 16))
    return m, n, nb, dtype, cond, seed


class TestDifferential:
    @given(problems())
    @settings(max_examples=10)
    def test_all_paths_match_ground_truth(self, prob):
        m, n, nb, dtype, cond, seed = prob
        eps = float(np.finfo(np.dtype(dtype)).eps)
        # Cap kappa near 1/eps so single-precision problems are
        # numerically (not just nominally) that ill-conditioned.
        cond = min(cond, 0.1 / eps)
        a = generate_matrix(m, n, cond=cond, dtype=dtype, seed=seed)
        orth_tol, berr_tol = ORTH_TOL[dtype], _berr_tol(dtype, cond)

        u_ref, h_ref = _svd_polar(a)
        ref = polar_report(a, u_ref, h_ref)
        assert ref.orthogonality < orth_tol and ref.backward < berr_tol

        dres = qdwh(a)
        rep = polar_report(a, dres.u, dres.h)
        assert rep.orthogonality < orth_tol, "dense qdwh orthogonality"
        assert rep.backward < berr_tol, "dense qdwh backward error"

        for backend, workers in (("eager", None), ("threads", 1),
                                 ("threads", 4)):
            u, h = _run_tiled(a, nb, backend, workers)
            assert u.dtype == np.dtype(dtype)
            rep = polar_report(a, u, h)
            label = f"{backend} x{workers or 1}"
            assert rep.orthogonality < orth_tol, f"{label} orthogonality"
            assert rep.backward < berr_tol, f"{label} backward error"
            assert rep.h_hermitian < berr_tol, f"{label} H not Hermitian"

    @given(st.integers(8, 24), st.integers(0, 12),
           st.sampled_from([np.float64, np.complex128]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=10)
    def test_well_conditioned_factors_agree_elementwise(
            self, n, extra, dtype, seed):
        # kappa = 1: the polar factors themselves are well-conditioned
        # functions of A, so every implementation must agree with the
        # SVD ground truth elementwise (not just in the residuals).
        a = generate_matrix(n + extra, n, cond=1.0, dtype=dtype,
                            seed=seed)
        u_ref, h_ref = _svd_polar(a)
        for backend, workers in (("eager", None), ("threads", 4)):
            u, h = _run_tiled(a, 8, backend, workers)
            assert np.allclose(u, u_ref, atol=1e-10)
            assert np.allclose(h, h_ref, atol=1e-10)

    @given(st.integers(24, 48), st.sampled_from([1e0, 1e8, 1e16]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=5, deadline=None)
    def test_fault_injected_threads_matches_fault_free(self, n, cond,
                                                       seed):
        # Live faults (transients, a stall, one corruption) on
        # threads x 4 with recovery enabled must land within the same
        # kappa-scaled budget as the fault-free run: recovery is
        # required to be numerically invisible.
        from repro.resilience import (FaultPlan, TileCorruption,
                                      TransientFaults, WorkerStall)
        from repro.resilience.live import RecoveryPolicy

        a = generate_matrix(n, cond=cond, dtype=np.float64, seed=seed)
        u0, h0 = _run_tiled(a, 16, "threads", 4)
        rep0 = polar_report(a, u0, h0)

        plan = FaultPlan(
            seed=seed,
            transient=TransientFaults(probability=0.2, max_attempts=4),
            stalls=(WorkerStall(probability=0.05, seconds=0.02),),
            corruptions=(TileCorruption(probability=0.5, max_events=1),))
        rt = make_runtime(2, 2)
        rt.fault_plan = plan  # make_runtime has no faults parameter
        rt.recovery_policy = RecoveryPolicy(max_retries=3, backoff=1e-4,
                                            scrub_writes=True)
        da = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, da, backend="threads", workers=4)
        u, h = res.u.to_array(), res.h.to_array()
        rec = rt.exec_stats.recovery
        rt.close()

        assert res.converged and not res.degraded
        assert rec.transient_failures > 0
        rep = polar_report(a, u, h)
        berr_tol = _berr_tol(np.float64, cond)
        assert rep.orthogonality < ORTH_TOL[np.float64]
        assert rep.backward < berr_tol
        assert rep0.backward < berr_tol

    @pytest.mark.parametrize("cond", [1e0, 1e8])
    def test_processes_backend_bit_identical_to_eager(self, cond):
        # The distributed backend replays the same recorded graph with
        # the same kernels on shared-memory tiles, so it owes exact
        # bit-identity with eager — at any worker count, not just 1.
        a = generate_matrix(72, 48, cond=cond, dtype=np.float64, seed=21)
        u0, h0 = _run_tiled(a, 16, "eager")
        for workers in (1, 2):
            u, h = _run_tiled(a, 16, "processes", workers)
            label = f"processes x{workers}"
            assert np.array_equal(u, u0), f"{label} U differs from eager"
            assert np.array_equal(h, h0), f"{label} H differs from eager"
        rep = polar_report(a, u0, h0)
        assert rep.orthogonality < ORTH_TOL[np.float64]
        assert rep.backward < _berr_tol(np.float64, cond)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_worst_case_kappa_all_dtypes_threads(self, dtype):
        # The paper's headline workload (kappa at the dtype's limit)
        # through the threaded backend specifically.
        eps = float(np.finfo(np.dtype(dtype)).eps)
        cond = min(1e16, 0.1 / eps)
        a = generate_matrix(64, cond=cond, dtype=dtype, seed=7)
        u, h = _run_tiled(a, 16, "threads", 4)
        rep = polar_report(a, u, h)
        assert rep.orthogonality < ORTH_TOL[dtype]
        assert rep.backward < _berr_tol(dtype, cond)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("shape", [(40, 40, 16), (75, 21, 8),
                                       (30, 13, 16)],
                             ids=["ragged", "tall-ragged", "nb>n"])
    def test_identity_aware_qr_iterations_all_dtypes(self, shape, dtype):
        # kappa at the dtype's limit: every iteration that matters is a
        # stacked-QR one, on tilings where the identity block's last
        # tile is narrow (ragged) or the only one (nb > n).
        m, n, nb = shape
        eps = float(np.finfo(np.dtype(dtype)).eps)
        cond = min(1e16, 0.1 / eps)
        a = generate_matrix(m, n, cond=cond, dtype=dtype, seed=m + n)
        rt = make_runtime(2, 2)
        res = tiled_qdwh(rt, DistMatrix.from_array(rt, a.copy(), nb))
        assert res.it_qr >= 2
        rep = polar_report(a, res.u.to_array(), res.h.to_array())
        assert rep.orthogonality < ORTH_TOL[dtype]
        assert rep.backward < _berr_tol(dtype, cond)

    def test_executed_flops_track_the_paper_model(self):
        # Section 4 counts geqrf + orgqr + gemm per QR iteration, i.e.
        # no work on the zeros of [sqrt(c) A; I] or of [I; 0].  The
        # recorded DAG executed 1.83x that before the stacked QR became
        # identity-aware; what is left is the dense TS/TT couple.
        import repro.flops as F
        from repro.perf.model import build_qdwh_graph
        from repro.dist import ProcessGrid
        graph, it_qr, it_chol = build_qdwh_graph(
            256, 64, ProcessGrid(1, 1), cond=1e16)
        assert (it_qr, it_chol) == (3, 3)
        ratio = graph.total_flops() / F.qdwh_total(256, it_qr, it_chol)
        assert 1.0 < ratio < 1.25
