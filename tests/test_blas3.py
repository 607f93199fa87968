"""Tiled BLAS-3 vs numpy (property-based equivalence)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistMatrix
from repro.tiled import (
    add,
    copy,
    gemm,
    herk,
    scale,
    set_diag_add,
    set_identity,
    set_zero,
    transpose_conj,
)
from repro.tiled.blas3 import mirror_lower

from .conftest import make_runtime

dims = st.integers(1, 30)
tiles = st.integers(1, 9)
ops = st.sampled_from(["N", "C"])


def randc(rng, m, n, cplx=False):
    a = rng.standard_normal((m, n))
    if cplx:
        a = a + 1j * rng.standard_normal((m, n))
    return a


class TestGemm:
    @given(dims, dims, dims, tiles, ops, ops, st.booleans())
    def test_matches_numpy(self, m, n, k, nb, opa, opb, cplx):
        rng = np.random.default_rng(m * 31 + n * 7 + k + nb)
        rt = make_runtime(2, 2)
        A = randc(rng, m, k, cplx) if opa == "N" else randc(rng, k, m, cplx)
        B = randc(rng, k, n, cplx) if opb == "N" else randc(rng, n, k, cplx)
        C = randc(rng, m, n, cplx)
        dA = DistMatrix.from_array(rt, A, nb)
        dB = DistMatrix.from_array(rt, B, nb)
        dC = DistMatrix.from_array(rt, C, nb)
        gemm(rt, 1.5, dA, dB, -0.5, dC, opa=opa, opb=opb)
        oa = A if opa == "N" else A.conj().T
        ob = B if opb == "N" else B.conj().T
        ref = 1.5 * (oa @ ob) - 0.5 * C
        assert np.allclose(dC.to_array(), ref, atol=1e-10)

    def test_beta_zero_overwrites_garbage(self, rng):
        rt = make_runtime()
        A = rng.standard_normal((8, 8))
        dA = DistMatrix.from_array(rt, A, 4)
        dC = DistMatrix.from_array(rt, np.full((8, 8), np.nan), 4)
        gemm(rt, 1.0, dA, dA, 0.0, dC)
        assert np.allclose(dC.to_array(), A @ A)

    def test_shape_mismatch_rejected(self, rng):
        rt = make_runtime()
        dA = DistMatrix.from_array(rt, rng.standard_normal((4, 6)), 2)
        dB = DistMatrix.from_array(rt, rng.standard_normal((4, 6)), 2)
        dC = DistMatrix.from_array(rt, rng.standard_normal((4, 6)), 2)
        with pytest.raises(ValueError):
            gemm(rt, 1, dA, dB, 0, dC)

    def test_bad_op_flag(self, rng):
        rt = make_runtime()
        d = DistMatrix.from_array(rt, rng.standard_normal((4, 4)), 2)
        with pytest.raises(ValueError):
            gemm(rt, 1, d, d, 0, d, opa="T")


class TestHerk:
    @given(dims, dims, tiles, st.booleans())
    def test_lower_triangle_matches(self, n, k, nb, cplx):
        rng = np.random.default_rng(n * 13 + k + nb)
        rt = make_runtime(2, 2)
        A = randc(rng, k, n, cplx)
        C0 = np.eye(n, dtype=A.dtype)
        dA = DistMatrix.from_array(rt, A, nb)
        dC = DistMatrix.from_array(rt, C0, nb)
        herk(rt, 2.0, dA, 1.0, dC, opa="C")
        ref = np.eye(n) + 2.0 * (A.conj().T @ A)
        got = dC.to_array()
        assert np.allclose(np.tril(got), np.tril(ref), atol=1e-10)

    def test_mirror_completes_hermitian(self, rng):
        rt = make_runtime(2, 2)
        A = rng.standard_normal((12, 20))
        dA = DistMatrix.from_array(rt, A, 4)
        dC = DistMatrix.from_array(rt, np.zeros((12, 12)), 4)
        herk(rt, 1.0, dA, 0.0, dC)
        mirror_lower(rt, dC)
        assert np.allclose(dC.to_array(), A @ A.T, atol=1e-10)

    def test_rejects_nonsquare_c(self, rng):
        rt = make_runtime()
        dA = DistMatrix.from_array(rt, rng.standard_normal((4, 6)), 2)
        dC = DistMatrix.from_array(rt, rng.standard_normal((4, 6)), 2)
        with pytest.raises(ValueError):
            herk(rt, 1, dA, 0, dC)


class TestElementwise:
    @given(dims, dims, tiles, st.booleans())
    def test_add(self, m, n, nb, cplx):
        rng = np.random.default_rng(m + n * 5 + nb)
        rt = make_runtime(2, 2)
        A, B = randc(rng, m, n, cplx), randc(rng, m, n, cplx)
        dA = DistMatrix.from_array(rt, A, nb)
        dB = DistMatrix.from_array(rt, B, nb)
        add(rt, 0.5, dA, 2.0, dB)
        assert np.allclose(dB.to_array(), 0.5 * A + 2.0 * B)

    def test_scale(self, rng):
        rt = make_runtime()
        A = rng.standard_normal((9, 7))
        dA = DistMatrix.from_array(rt, A, 4)
        scale(rt, -3.0, dA)
        assert np.allclose(dA.to_array(), -3.0 * A)

    def test_copy_with_offset_builds_stack(self, rng):
        """The [A; I] construction pattern from Algorithm 1."""
        rt = make_runtime()
        A = rng.standard_normal((8, 8))
        dA = DistMatrix.from_array(rt, A, 4)
        w = DistMatrix(rt, 16, 8, 4)
        copy(rt, dA, w, dst_row_offset=0)
        set_identity(rt, w, row_offset=dA.mt)
        ref = np.vstack([A, np.eye(8)])
        assert np.allclose(w.to_array(), ref)

    def test_set_identity_rejects_misaligned_block(self):
        """Uniform row tiling 8,8,8,8,8,1 over columns 8,8,5: the block
        at tile row 3 ends in a 1 x 5 tile that cannot hold its
        diagonal — this used to write a 17 x 21 'identity' silently."""
        rt = make_runtime()
        w = DistMatrix(rt, 41, 21, 8)
        with pytest.raises(ValueError, match="tile-aligned"):
            set_identity(rt, w, row_offset=3)
        with pytest.raises(ValueError, match="does not fit"):
            set_identity(rt, w, row_offset=4)

    def test_set_identity_accepts_tall_last_diagonal_tile(self):
        """The Q workspace shape: row heights 8,...,8,1 over column
        widths 8,8,8,8,8,2 — tile (5,5) is 8 x 2 and holds I_2 on top."""
        rt = make_runtime()
        q = DistMatrix.from_array(rt, np.full((81, 42), 7.0), 8)
        set_identity(rt, q, zero_below=True)
        assert np.array_equal(q.to_array(), np.eye(81, 42))
        z = DistMatrix.from_array(rt, np.full((81, 42), 7.0), 8)
        set_identity(rt, z, alpha=2.0)          # rows under the block kept
        ref = np.full((81, 42), 7.0)
        ref[:48] = 2.0 * np.eye(48, 42)
        assert np.array_equal(z.to_array(), ref)

    def test_copy_ragged_tilings(self, rng):
        rt = make_runtime()
        A = rng.standard_normal((10, 7))
        dA = DistMatrix.from_array(rt, A, 4)
        w = DistMatrix(rt, 17, 7, 4,
                       row_heights=dA.row_heights + dA.col_widths,
                       col_widths=dA.col_widths)
        copy(rt, dA, w, dst_row_offset=0)
        assert np.allclose(w.to_array()[:10], A)

    def test_copy_mismatch_rejected(self, rng):
        rt = make_runtime()
        dA = DistMatrix.from_array(rt, rng.standard_normal((8, 8)), 4)
        w = DistMatrix(rt, 8, 8, 2)
        with pytest.raises(ValueError):
            copy(rt, dA, w)

    def test_set_zero_and_diag_add(self):
        rt = make_runtime()
        d = DistMatrix.from_array(rt, np.ones((6, 6)), 2)
        set_zero(rt, d)
        set_diag_add(rt, d, 5.0)
        assert np.allclose(d.to_array(), 5.0 * np.eye(6))

    @given(dims, dims, tiles, st.booleans())
    def test_transpose_conj(self, m, n, nb, cplx):
        rng = np.random.default_rng(m * 3 + n + nb)
        rt = make_runtime(2, 3)
        A = randc(rng, m, n, cplx)
        dA = DistMatrix.from_array(rt, A, nb)
        dAt = transpose_conj(rt, dA)
        assert np.allclose(dAt.to_array(), A.conj().T)
