"""Unit tests for the flop-count formulas, including the paper's
Section 4 complexity model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import flops as F


class TestBlas3Counts:
    def test_gemm(self):
        assert F.gemm(10, 20, 30) == 2 * 10 * 20 * 30

    def test_herk_half_of_gemm(self):
        assert F.herk(10, 30) == F.gemm(10, 10, 30) / 2

    def test_trsm(self):
        assert F.trsm(8, 4) == 8 * 8 * 4


class TestFactorizationCounts:
    def test_geqrf_square(self):
        n = 100
        assert F.geqrf(n, n) == pytest.approx(4 / 3 * n ** 3)

    def test_geqrf_tall(self):
        # 2n x n: 2 n^2 (2n - n/3) = 10/3 n^3.
        n = 60
        assert F.geqrf(2 * n, n) == pytest.approx(10 / 3 * n ** 3)

    def test_potrf(self):
        assert F.potrf(30) == pytest.approx(30 ** 3 / 3)

    def test_orgqr_stacked(self):
        # Explicit economy Q of a 2n x n factorization: 10/3 n^3.
        n = 50
        assert F.orgqr(2 * n, n, n) == pytest.approx(10 / 3 * n ** 3)


class TestQdwhModel:
    def test_qr_iteration_is_26_thirds(self):
        """Paper: one QR-based iteration costs (8 + 2/3) n^3 (square)."""
        n = 80
        assert F.qdwh_qr_iteration(n, n) == pytest.approx(
            (8 + 2 / 3) * n ** 3)

    def test_chol_iteration_is_13_thirds(self):
        """Paper: one Cholesky-based iteration costs (4 + 1/3) n^3."""
        n = 80
        assert F.qdwh_chol_iteration(n, n) == pytest.approx(
            (4 + 1 / 3) * n ** 3)

    @given(st.integers(8, 512), st.integers(0, 4), st.integers(0, 4))
    def test_total_matches_paper_formula_square(self, n, iq, ic):
        assert F.qdwh_total(n, iq, ic) == pytest.approx(
            F.qdwh_paper_formula(n, iq, ic))

    def test_worst_case_total(self):
        """kappa=1e16 -> 3 QR + 3 Chol -> (4/3 + 26 + 13 + 2) n^3."""
        n = 100
        expected = (4 / 3 + 3 * 26 / 3 + 3 * 13 / 3 + 2) * n ** 3
        assert F.qdwh_total(n, 3, 3) == pytest.approx(expected)

    def test_rectangular_total_larger_than_square(self):
        assert F.qdwh_total(100, 3, 3, m=200) > F.qdwh_total(100, 3, 3)


class TestTileKernels:
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_tile_counts_positive(self, mb, nb):
        assert F.tile_geqrt(mb + nb, nb) > 0
        assert F.tile_tpqrt(mb, nb) > 0
        assert F.tile_unmqr(mb, nb, nb) > 0
        assert F.tile_tpmqrt(mb, nb, nb) > 0
        assert F.tile_ttqrt(nb) > 0
        assert F.tile_ttmqrt(nb, nb) > 0

    @given(st.integers(1, 64), st.integers(1, 64))
    def test_tile_geqrt_counts_min_dim_reflectors(self, mb, nb):
        # A tile has k = min(mb, nb) reflectors whichever way it is
        # ragged; for mb >= nb this is geqrf's 2 n^2 (m - n/3).
        k, long = min(mb, nb), max(mb, nb)
        assert F.tile_geqrt(mb, nb) == pytest.approx(
            2.0 * k * k * (long - k / 3.0) + k * k * mb)
        assert F.tile_geqrt(mb, nb) > 0
        if mb >= nb:
            assert F.tile_geqrt(mb, nb) == pytest.approx(
                F.geqrf(mb, nb) + nb * nb * mb)

    @pytest.mark.parametrize("mb, nb", [(20, 96), (2, 16), (1, 64)])
    def test_tile_geqrt_wide_tile_is_not_negative(self, mb, nb):
        # The ragged last tile row of 500 x 500 / nb=96 is 20 x 96; the
        # m >= n formula priced its geqrt at -3.69e4 flops.
        assert F.geqrf(mb, nb) < 0          # why geqrf alone is not enough
        assert 0 < F.tile_geqrt(mb, nb) <= F.tile_geqrt(nb, nb)
