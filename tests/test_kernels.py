"""Direct unit tests of the single-tile numeric kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tiled import kernels


def rand(rng, m, n, cplx=False):
    a = rng.standard_normal((m, n))
    if cplx:
        a = a + 1j * rng.standard_normal((m, n))
    return a


DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def rand_dtype(rng, m, n, dtype):
    return rand(rng, m, n, np.iscomplexobj(dtype(0))).astype(dtype)


def tol(dtype, scale=1.0):
    """A few dozen ulps of ``dtype`` at magnitude ``scale``."""
    return 50 * np.finfo(dtype).eps * scale


class TestGeqrt:
    @pytest.mark.parametrize("dtype", DTYPES)
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_block_reflector_reproduces_q(self, dtype, m, k):
        """?geqrt's Q = I - V T V^H must equal the product of the
        elementary reflectors H_i = I - tau_i v_i v_i^H, tau = diag(T)."""
        if m < k:
            m, k = k, m
        rng = np.random.default_rng(m * 13 + k)
        a = rand_dtype(rng, m, k, dtype)
        tile, t = kernels.geqrt_kernel(a)
        assert tile.dtype == t.dtype == dtype and t.shape == (k, k)
        v = np.tril(tile, -1)
        v[np.diag_indices(k)] = 1
        q_blocked = np.eye(m, dtype=dtype) - v @ t @ v.conj().T
        q_elem = np.eye(m, dtype=dtype)
        for i in range(k):
            q_elem = q_elem @ (np.eye(m, dtype=dtype) - t[i, i] * np.outer(
                v[:, i], v[:, i].conj()))
        assert np.allclose(q_blocked, q_elem, atol=tol(dtype), rtol=0)
        # ... and Q [R; 0] is A back.
        assert np.allclose(q_elem[:, :k] @ np.triu(tile)[:k], a,
                           atol=tol(dtype, np.abs(a).max() * m), rtol=0)

    def test_t_upper_triangular(self, rng):
        a = rand(rng, 10, 6)
        tile, t = kernels.geqrt_kernel(a)
        assert np.allclose(t, np.triu(t))


class TestGeqrtApply:
    @given(st.integers(2, 16), st.integers(1, 16), st.booleans())
    def test_factor_apply_roundtrip(self, m, n, cplx):
        if m < n:
            m, n = n, m
        rng = np.random.default_rng(m + 31 * n)
        a = rand(rng, m, n, cplx)
        tile, t = kernels.geqrt_kernel(a.copy())
        r = np.triu(tile)[:n]
        # Apply Q to [R; extra zeros...]: Q @ [R; 0] must give back A.
        c = np.zeros((m, n), dtype=a.dtype)
        c[:n] = r
        back = kernels.apply_q_kernel(tile, t, c, conj_trans=False)
        assert np.allclose(back, a, atol=1e-11)

    def test_qh_q_is_identity(self, rng):
        a = rand(rng, 12, 8)
        tile, t = kernels.geqrt_kernel(a)
        c = rng.standard_normal((12, 5))
        fwd = kernels.apply_q_kernel(tile, t, c, conj_trans=False)
        back = kernels.apply_q_kernel(tile, t, fwd, conj_trans=True)
        assert np.allclose(back, c, atol=1e-12)


class TestTpqrt:
    @given(st.integers(1, 10), st.integers(1, 12), st.booleans())
    def test_couple_reconstructs(self, kdim, mb, cplx):
        rng = np.random.default_rng(kdim * 7 + mb)
        r_top = np.triu(rand(rng, kdim, kdim, cplx))
        a_bot = np.triu(rand(rng, mb, kdim, cplx))
        r_new, v_top, v_bot, t = kernels.tpqrt_kernel(r_top, a_bot)
        assert np.allclose(r_new, np.triu(r_new))
        # Q^H [R; A] = [R_new; 0]: apply to the stack and check.
        top, bot = kernels.tpmqrt_kernel(v_top, v_bot, t,
                                         r_top.copy(), a_bot.copy(),
                                         conj_trans=True)
        assert np.allclose(top, r_new, atol=1e-11)
        assert np.allclose(bot, 0, atol=1e-11)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k, rows", [(8, 8), (8, 3), (1, 1)])
    def test_triangle_on_triangle(self, rng, dtype, k, rows):
        """The structured kernel: V_top = I, V_bot upper trapezoidal
        with explicit zeros, Q^H [R; B] = [R_new; 0] to dtype eps, on a
        full and on a ragged (rows < k) bottom triangle."""
        r_top = np.triu(rand_dtype(rng, k, k, dtype))
        b = np.triu(rand_dtype(rng, rows, k, dtype))
        r_new, v_top, v_bot, t = kernels.tpqrt_kernel(r_top, b)
        assert {x.dtype for x in (r_new, v_top, v_bot, t)} == {
            np.dtype(dtype)}
        assert v_top.shape == t.shape == (k, k) and v_bot.shape == (rows, k)
        assert np.array_equal(v_top, np.eye(k))
        assert np.array_equal(np.tril(v_bot, -1), np.zeros_like(v_bot))
        assert np.array_equal(t, np.triu(t))
        scale = max(np.abs(r_top).max(), np.abs(b).max()) * k
        top, bot = kernels.tpmqrt_kernel(v_top, v_bot, t, r_top.copy(),
                                         b.copy(), conj_trans=True)
        assert np.allclose(top, r_new, atol=tol(dtype, scale), rtol=0)
        assert np.allclose(bot, 0, atol=tol(dtype, scale), rtol=0)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_only_upper_triangles_are_read(self, rng, dtype):
        """Garbage below either operand's diagonal (a tile's geqrt
        reflectors) changes no output bit."""
        r_top = np.triu(rand_dtype(rng, 6, 6, dtype))
        b = np.triu(rand_dtype(rng, 4, 6, dtype))
        clean = kernels.tpqrt_kernel(r_top, b)
        dirty = kernels.tpqrt_kernel(
            r_top + np.tril(rand_dtype(rng, 6, 6, dtype), -1),
            b + np.tril(rand_dtype(rng, 4, 6, dtype), -1))
        for c, d in zip(clean, dirty):
            assert np.array_equal(c, d)

    def test_apply_is_unitary(self, rng):
        r_top = np.triu(rand(rng, 6, 6))
        a_bot = rand(rng, 9, 6)
        _, v_top, v_bot, t = kernels.tpqrt_kernel(r_top, a_bot)
        c_top = rand(rng, 6, 4)
        c_bot = rand(rng, 9, 4)
        t1, b1 = kernels.tpmqrt_kernel(v_top, v_bot, t, c_top, c_bot,
                                       conj_trans=True)
        t2, b2 = kernels.tpmqrt_kernel(v_top, v_bot, t, t1, b1,
                                       conj_trans=False)
        assert np.allclose(t2, c_top, atol=1e-12)
        assert np.allclose(b2, c_bot, atol=1e-12)


class TestTrsmKernel:
    @given(st.integers(1, 12), st.integers(1, 10),
           st.booleans(), st.booleans(), st.booleans())
    def test_all_variants(self, n, nrhs, lower, conj, left):
        rng = np.random.default_rng(n * 3 + nrhs)
        tri = rand(rng, n, n, conj) + (n + 2) * np.eye(n)
        tri = np.tril(tri) if lower else np.triu(tri)
        b = rand(rng, n if left else nrhs, nrhs if left else n, conj)
        x = kernels.trsm_kernel(tri, b, lower=lower, conj_trans=conj,
                                side_left=left)
        op = tri.conj().T if conj else tri
        if left:
            assert np.allclose(op @ x, b, atol=1e-10)
        else:
            assert np.allclose(x @ op, b, atol=1e-10)


class TestPotrfKernel:
    def test_cholesky(self, rng):
        b = rand(rng, 8, 8)
        s = b @ b.T + 8 * np.eye(8)
        ell = kernels.potrf_kernel(s)
        assert np.allclose(ell @ ell.T, s)
