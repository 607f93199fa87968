"""Floating-point operation counts for the kernels QDWH is built from.

These formulas serve two purposes:

1. every simulated task carries its flop count, so the performance model
   can compute Tflop/s figures the same way the paper does (useful flops
   divided by wall time), and
2. the end-to-end counts validate the paper's Section 4 complexity model

       4/3 n^3  +  (8 + 2/3) n^3 * #it_QR  +  (4 + 1/3) n^3 * #it_Chol
                +  2 n^3

   (square case) for the whole polar decomposition.

Counts follow the standard LAPACK working notes conventions (real
flops; a complex flop is accounted as one "operation" here and weighted
by :data:`COMPLEX_FLOP_FACTOR` by callers that need real-arithmetic
totals).
"""

from __future__ import annotations

#: A complex multiply-add costs ~4x a real one (2 real mul + 2 add per
#: component pair); the conventional weighting used by LAPACK timers.
COMPLEX_FLOP_FACTOR = 4.0


# ---------------------------------------------------------------------------
# Level-3 BLAS
# ---------------------------------------------------------------------------

def gemm(m: int, n: int, k: int) -> float:
    """C(m,n) += A(m,k) @ B(k,n): 2mnk flops."""
    return 2.0 * m * n * k


def herk(n: int, k: int) -> float:
    """C(n,n) += A(n,k) @ A(n,k)^H, one triangle: ~n^2 k flops."""
    return float(n) * n * k


def trsm(m: int, n: int) -> float:
    """Solve T(m,m) X = B(m,n) with triangular T: m^2 n flops."""
    return float(m) * m * n


def trmm(m: int, n: int) -> float:
    """B = T(m,m) @ B(m,n): m^2 n flops."""
    return float(m) * m * n


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------

def geqrf(m: int, n: int) -> float:
    """Householder QR of an m x n matrix (m >= n): 2n^2(m - n/3)."""
    return 2.0 * n * n * (m - n / 3.0)


def unmqr(side_m: int, side_n: int, k: int) -> float:
    """Apply Q (k reflectors) to an m x n matrix: 4 m n k - 2 n k^2 (left)."""
    return 4.0 * side_m * side_n * k - 2.0 * side_n * k * k


def orgqr(m: int, n: int, k: int) -> float:
    """Form explicit Q (m x n from k reflectors): 4mnk - 2(m+n)k^2 + 4k^3/3."""
    return 4.0 * m * n * k - 2.0 * (m + n) * k * k + 4.0 * k ** 3 / 3.0


def potrf(n: int) -> float:
    """Cholesky of an n x n SPD matrix: n^3/3."""
    return n ** 3 / 3.0


def getrf(m: int, n: int) -> float:
    """LU of an m x n matrix: mn^2 - n^3/3 (m >= n)."""
    return float(m) * n * n - n ** 3 / 3.0


# ---------------------------------------------------------------------------
# Tile kernels (the granularity at which the runtime schedules work)
# ---------------------------------------------------------------------------

def tile_geqrt(mb: int, nb: int) -> float:
    """QR of one mb x nb tile plus T factor: k = min(mb, nb) reflectors
    (a ragged last tile row is wider than tall), ``2 k^2 (max - k/3)``
    for the factorization and ~``k^2 mb`` for the T build."""
    k = min(mb, nb)
    return geqrf(max(mb, nb), k) + float(k) * k * mb


def tile_tpqrt(mb: int, nb: int) -> float:
    """Couple an nb x nb triangle with an mb x nb tile (TS/TT kernel)."""
    return 2.0 * nb * nb * mb + float(nb) * nb * mb


def tile_unmqr(mb: int, nb: int, kb: int) -> float:
    """Apply one tile's reflectors to one tile."""
    return 4.0 * mb * nb * kb


def tile_tpmqrt(mb: int, nb: int, kb: int) -> float:
    """Apply a TP (triangle-on-top-of-rectangle) reflector pair."""
    return 6.0 * mb * nb * kb


def tile_ttqrt(nb: int) -> float:
    """Combine two nb x nb triangles (TSQR tree node): ~2 nb^3."""
    return 2.0 * nb ** 3


def tile_ttmqrt(nb: int, nc: int) -> float:
    """Apply a triangle-combine reflector pair to an nb+nb row pair."""
    return 4.0 * nb * nb * nc


# ---------------------------------------------------------------------------
# QDWH composite model (paper Section 4)
# ---------------------------------------------------------------------------

def qdwh_qr_iteration(m: int, n: int) -> float:
    """One QR-based QDWH iteration on an m x n matrix.

    QR of the stacked (m+n) x n matrix, explicit Q1 (m x n) and Q2
    (n x n), then the rank-n update gemm.  For m == n this totals
    (8 + 2/3) n^3, matching the paper.
    """
    stacked = geqrf(m + n, n)
    form_q = orgqr(m + n, n, n)
    update = gemm(m, n, n)
    return stacked + form_q + update


def qdwh_chol_iteration(m: int, n: int) -> float:
    """One Cholesky-based QDWH iteration on an m x n matrix.

    herk (A^T A), Cholesky, two triangular solves, and the axpy-like
    add.  For m == n this totals (4 + 1/3) n^3, matching the paper.
    """
    # The paper's (4 + 1/3) n^3 count charges the Z_k = I + c A^T A
    # formation as a full gemm (2 n^2 m) even though the implementation
    # uses herk (n^2 m); we follow the paper here so qdwh_total matches
    # its Section 4 formula.  Executed task flops use the herk count.
    zk = gemm(n, n, m)
    chol = potrf(n)
    solves = 2.0 * trsm(n, m)
    return zk + chol + solves


def qdwh_condest(m: int, n: int) -> float:
    """Condition estimation stage: QR of A (the 4/3 n^3 term, square)."""
    return geqrf(m, n)


def qdwh_form_h(m: int, n: int) -> float:
    """H = U_p^H A: one n x n x m gemm (2 n^3 square)."""
    return gemm(n, n, m)


def qdwh_total(n: int, it_qr: int, it_chol: int, m: int | None = None) -> float:
    """Total QDWH flops for an m x n problem with the given iteration split.

    With m == n this reproduces the paper's formula
    ``4/3 n^3 + (8+2/3) n^3 #it_QR + (4+1/3) n^3 #it_Chol + 2 n^3``.
    """
    if m is None:
        m = n
    return (
        qdwh_condest(m, n)
        + it_qr * qdwh_qr_iteration(m, n)
        + it_chol * qdwh_chol_iteration(m, n)
        + qdwh_form_h(m, n)
    )


def qdwh_paper_formula(n: int, it_qr: int, it_chol: int) -> float:
    """The literal Section 4 formula (square matrices)."""
    n3 = float(n) ** 3
    return (4.0 / 3.0) * n3 + (8.0 + 2.0 / 3.0) * n3 * it_qr \
        + (4.0 + 1.0 / 3.0) * n3 * it_chol + 2.0 * n3
