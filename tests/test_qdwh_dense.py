"""Tests for the dense reference QDWH (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import norm2est, polar, qdwh
from repro.config import eps
from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix
from repro.matrices import (
    SingularValueMode,
    generate_matrix,
    ill_conditioned,
    polar_report,
    well_conditioned,
)

from .conftest import make_runtime

ALL_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def tol_for(dtype, n):
    return 50 * n * eps(dtype)


class TestAccuracy:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_all_four_dtypes(self, dtype):
        a = ill_conditioned(96, dtype=dtype, seed=1)
        r = qdwh(a)
        rep = polar_report(a, r.u, r.h)
        assert r.u.dtype == np.dtype(dtype)
        assert rep.within(tol_for(dtype, 96))

    @pytest.mark.parametrize("shape", [(50, 50), (80, 50), (200, 30)])
    def test_rectangular(self, shape):
        a = generate_matrix(*shape, cond=1e8, seed=2)
        r = qdwh(a)
        rep = polar_report(a, r.u, r.h)
        assert rep.within(tol_for(np.float64, shape[0]))

    def test_matches_scipy_polar(self, rng):
        import scipy.linalg as sla
        a = generate_matrix(60, cond=100.0, seed=3)
        r = qdwh(a)
        u_ref, h_ref = sla.polar(a)
        assert np.allclose(r.u, u_ref, atol=1e-10)
        assert np.allclose(r.h, h_ref, atol=1e-10)

    @given(st.sampled_from(list(SingularValueMode)),
           st.floats(1.0, 1e14))
    def test_every_spectrum_mode(self, mode, cond):
        a = generate_matrix(40, cond=cond, mode=mode, seed=4)
        r = qdwh(a)
        rep = polar_report(a, r.u, r.h)
        assert rep.orthogonality < 1e-12
        assert rep.backward < 1e-12

    def test_h_is_hermitian_psd(self):
        a = ill_conditioned(64, dtype=np.complex128, seed=5)
        r = qdwh(a)
        assert np.allclose(r.h, r.h.conj().T)
        w = np.linalg.eigvalsh(r.h)
        assert w.min() > -1e-13


class TestIterationCounts:
    def test_ill_conditioned_paper_split(self):
        """kappa = 1e16: 3 QR-based + 3 Cholesky-based (Section 7.2)."""
        a = ill_conditioned(128, seed=6)
        r = qdwh(a)
        assert (r.it_qr, r.it_chol) == (3, 3)
        assert r.converged

    def test_well_conditioned_no_qr_with_exact_norms(self):
        """Paper Section 4: well-conditioned matrices need no QR-based
        iterations.  That statement assumes the true sigma_min; the
        exact_norms testing mode provides it (every practical estimate
        is deflated by sqrt(n) and may trigger one defensive QR step)."""
        a = well_conditioned(96, seed=7)
        r = qdwh(a, exact_norms=True)
        assert r.it_qr == 0
        assert 2 <= r.it_chol <= 4

    def test_well_conditioned_estimated_at_most_one_qr(self):
        a = well_conditioned(96, seed=7)
        r = qdwh(a)
        assert r.it_qr <= 1
        assert r.it_chol <= 4

    def test_orthogonal_input_converges_fast(self):
        from repro.matrices.generator import random_unitary
        q = random_unitary(64, seed=8)
        r = qdwh(q)
        assert r.iterations <= 3
        assert np.allclose(r.u, q, atol=1e-12)

    def test_max_iter_cap(self):
        a = ill_conditioned(48, seed=9)
        r = qdwh(a, max_iter=2)
        assert r.iterations == 2
        assert not r.converged

    def test_conv_history_decreasing_tail(self):
        a = ill_conditioned(64, seed=10)
        r = qdwh(a)
        assert len(r.conv_history) == r.iterations
        assert r.conv_history[-1] < r.conv_history[0]


class TestOptions:
    def test_cond_est_hint_skips_estimation(self):
        a = generate_matrix(48, cond=1e10, seed=11)
        r = qdwh(a, cond_est=1e10)
        rep = polar_report(a, r.u, r.h)
        assert rep.within(1e-11)
        assert r.l0 == pytest.approx(1e-10 / np.sqrt(48))

    def test_exact_norms_mode(self):
        a = ill_conditioned(48, seed=12)
        r = qdwh(a, exact_norms=True)
        rep = polar_report(a, r.u, r.h)
        assert rep.within(1e-12)

    def test_alpha_hint(self):
        a = generate_matrix(32, cond=100, seed=13)
        r = qdwh(a, alpha=float(np.linalg.norm(a, 2)))
        assert polar_report(a, r.u, r.h).within(1e-12)

    def test_rejects_bad_cond_est(self):
        with pytest.raises(ValueError):
            qdwh(np.eye(4), cond_est=0.1)


def _eager_tiled(a):
    with make_runtime(1, 1) as rt:
        return tiled_qdwh(rt, DistMatrix.from_array(rt, a, 4))


class TestEdgeCases:
    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            qdwh(np.ones((3, 5)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            qdwh(np.ones(5))

    def test_rejects_integer_dtype(self):
        with pytest.raises(TypeError):
            qdwh(np.ones((4, 4), dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("driver", [qdwh, polar, norm2est, _eager_tiled])
    def test_rejects_non_finite(self, driver, bad):
        """One NaN/Inf entry is a clear error on every path, not a
        RecursionError out of norm2est's rescaling guard."""
        a = np.random.default_rng(3).standard_normal((12, 8))
        a[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            driver(a)

    def test_zero_matrix(self):
        r = qdwh(np.zeros((6, 4)))
        assert r.iterations == 0
        assert np.allclose(r.u.conj().T @ r.u, np.eye(4))
        assert np.allclose(r.h, 0)

    def test_empty_matrix(self):
        r = qdwh(np.zeros((0, 0)))
        assert r.h.shape == (0, 0)

    def test_identity(self):
        r = qdwh(np.eye(16))
        assert np.allclose(r.u, np.eye(16), atol=1e-12)
        assert np.allclose(r.h, np.eye(16), atol=1e-12)

    def test_diagonal_with_negative_entries(self):
        """Polar factor of diag(+,-) is diag(sign)."""
        a = np.diag([2.0, -3.0, 0.5, -0.25])
        r = qdwh(a)
        assert np.allclose(r.u, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-10)

    def test_numerically_singular(self):
        """Rank-deficient to working precision still converges with a
        valid (orthogonal, PSD) result."""
        rng = np.random.default_rng(14)
        b = rng.standard_normal((40, 5))
        a = b @ rng.standard_normal((5, 20))  # rank 5, 40 x 20
        r = qdwh(a)
        rep = polar_report(a, r.u, r.h)
        assert rep.orthogonality < 1e-12
        assert rep.backward < 1e-12

    def test_tiny_matrix(self):
        a = np.array([[2.0]])
        r = qdwh(a)
        assert r.u[0, 0] == pytest.approx(1.0)
        assert r.h[0, 0] == pytest.approx(2.0)


class TestScaleInvariance:
    @given(st.floats(1e-6, 1e6))
    def test_u_is_scale_invariant(self, scale):
        a = generate_matrix(24, cond=1e4, seed=15)
        r1 = qdwh(a)
        r2 = qdwh(scale * a)
        assert np.allclose(r1.u, r2.u, atol=1e-8)
        assert np.allclose(scale * r1.h, r2.h, rtol=1e-8, atol=1e-10)
