"""Dense norm and condition estimators (Section 6.2 / 6.3 of the paper).

Three estimators, mirrored one-to-one by the tiled implementations in
:mod:`repro.tiled.estimators`:

* :func:`norm2est` — matrix 2-norm via power iteration (Algorithm 2),
  started from the vector of column 1-norms, tolerance 0.1.
* :func:`one_norm_estimator` — Hager's 1-norm estimator [Hager 1984]
  exposed through *reverse communication*: the caller owns the solves
  (or multiplies), exactly as in (Sca)LAPACK's ``xLACON``, so a single
  implementation serves any factorization.
* :func:`gecondest` / :func:`trcondest` — reciprocal 1-norm condition
  numbers of a general (given LU) and a triangular matrix.
"""

from __future__ import annotations

from typing import Callable, Generator, Tuple

import numpy as np
import scipy.linalg as sla

from ..config import NORM2EST_MAX_ITER, NORM2EST_TOL, check_dtype


def norm2est(a: np.ndarray, tol: float = NORM2EST_TOL,
             max_iter: int = NORM2EST_MAX_ITER) -> float:
    """Estimate ``||A||_2`` by power iteration on A^H A (Algorithm 2).

    Follows the paper's pseudo-code literally: the starting vector is
    the vector of column 1-norms of A; each sweep computes
    ``AX = A @ X`` then ``X = A^H @ AX`` and updates the estimate as
    ``e = ||X|| / ||AX||`` (Frobenius norms of the vectors).  Stops when
    the estimate moves by less than ``tol * e``.

    The paper notes factor-of-5 accuracy is entirely sufficient for
    QDWH's scaling step; with tol=0.1 the estimate is typically within
    a few percent of the true norm.
    """
    a = np.asarray(a)
    check_dtype(a.dtype)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    # Guard against under/overflow: the sweeps square the data scale
    # (A^H A x), so entries near 1e+-150 in double would leave the
    # representable range.  Estimate on a unit-scaled copy instead.
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        return 0.0
    if not np.isfinite(amax):
        # Rescaling by a NaN/Inf amax would recurse forever.
        raise ValueError("input matrix contains non-finite entries")
    if not (2 ** -100 < amax < 2 ** 100):
        return amax * norm2est((a / a.dtype.type(amax)), tol, max_iter)
    # Line 6-8: start from the global column sums (1-norms per column).
    x = np.sum(np.abs(a), axis=0).astype(a.dtype)
    e = float(np.linalg.norm(x))
    if e == 0.0:  # zero matrix
        return 0.0
    norm_x = e
    e0 = 0.0
    it = 0
    while abs(e - e0) > tol * e and it < max_iter:
        e0 = e
        x = x / norm_x
        ax = a @ x
        norm_ax = float(np.linalg.norm(ax))
        if norm_ax == 0.0:
            # x happens to lie in the null space; restart deterministically.
            x = np.ones(a.shape[1], dtype=a.dtype)
            norm_x = float(np.linalg.norm(x))
            it += 1
            continue
        x = a.conj().T @ ax
        norm_x = float(np.linalg.norm(x))
        # e = ||A^H A x|| / ||A x||  -> converges to sigma_max.
        e = norm_x / norm_ax
        it += 1
    return e


# ---------------------------------------------------------------------------
# Hager 1-norm estimation with reverse communication
# ---------------------------------------------------------------------------

#: Request kinds yielded by :func:`one_norm_estimator`.
SOLVE = "solve"        # caller must return  op(v)        (i.e. B @ v)
SOLVE_ADJ = "solve_adj"  # caller must return  op^H(v)    (i.e. B^H @ v)

Request = Tuple[str, np.ndarray]


def one_norm_estimator(n: int, dtype=np.float64,
                       max_cycles: int = 5) -> Generator[Request, np.ndarray, float]:
    """Hager's estimator of ``||B||_1`` for an implicit operator B.

    A generator implementing reverse communication: it *yields*
    ``(kind, vector)`` requests, the driver ``send``s back ``B @ v``
    (for ``SOLVE``) or ``B^H @ v`` (for ``SOLVE_ADJ``), and on
    completion the generator returns the estimate via ``StopIteration``
    (use :func:`drive_estimator` for a convenient wrapper).

    To estimate ``||A^{-1}||_1``, the driver answers requests with
    triangular/LU solves — this is how :func:`gecondest` and
    :func:`trcondest` (and their tiled twins) share this one
    implementation, as the paper describes.
    """
    dt = check_dtype(dtype)
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.full(n, 1.0 / n, dtype=dt)
    est_old = 0.0
    for _ in range(max_cycles):
        y = yield (SOLVE, x)
        est = float(np.sum(np.abs(y)))
        if est == 0.0:
            return 0.0
        # xi = sign(y): y/|y| elementwise (1 where y == 0).
        absy = np.abs(y)
        xi = np.where(absy == 0, 1.0, y / np.where(absy == 0, 1.0, absy))
        xi = xi.astype(dt)
        z = yield (SOLVE_ADJ, xi)
        j = int(np.argmax(np.abs(z)))
        if float(np.abs(z[j])) <= float(np.real(np.vdot(z, x))) or est <= est_old:
            break
        est_old = est
        x = np.zeros(n, dtype=dt)
        x[j] = 1.0
    # Final safeguard from LAPACK xLACON: test the alternating vector
    # x_i = (-1)^i (1 + i/(n-1)), which defeats adversarial cases.
    v = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1)) for i in range(n)],
                 dtype=dt)
    y = yield (SOLVE, v)
    alt = 2.0 * float(np.sum(np.abs(y))) / (3.0 * n)
    return max(est, alt)


def drive_estimator(n: int, apply_op: Callable[[np.ndarray], np.ndarray],
                    apply_adj: Callable[[np.ndarray], np.ndarray],
                    dtype=np.float64) -> float:
    """Run :func:`one_norm_estimator` against callables for B and B^H."""
    gen = one_norm_estimator(n, dtype=dtype)
    try:
        kind, vec = next(gen)
        while True:
            result = apply_op(vec) if kind == SOLVE else apply_adj(vec)
            kind, vec = gen.send(np.asarray(result))
    except StopIteration as stop:
        return float(stop.value)


def norm1est_inverse(solve: Callable[[np.ndarray], np.ndarray],
                     solve_adj: Callable[[np.ndarray], np.ndarray],
                     n: int, dtype=np.float64) -> float:
    """Estimate ``||A^{-1}||_1`` given solvers for A x = b and A^H x = b."""
    return drive_estimator(n, solve, solve_adj, dtype=dtype)


def gecondest(a: np.ndarray) -> float:
    """Reciprocal 1-norm condition estimate of a square general matrix.

    Factorizes A = LU once and runs Hager's estimator through the LU
    solves, like LAPACK ``xGECON`` after ``xGETRF``.  Returns
    ``rcond = 1 / (||A||_1 * est(||A^{-1}||_1))``; 0 for an exactly
    singular factorization.
    """
    a = np.asarray(a)
    check_dtype(a.dtype)
    m, n = a.shape
    if m != n:
        raise ValueError(f"gecondest needs a square matrix, got {m}x{n}")
    anorm = float(np.max(np.sum(np.abs(a), axis=0))) if n else 0.0
    if anorm == 0.0:
        return 0.0
    lu, piv = sla.lu_factor(a)
    if np.any(np.diagonal(lu) == 0):
        return 0.0
    inv_est = norm1est_inverse(
        lambda v: sla.lu_solve((lu, piv), v),
        lambda v: sla.lu_solve((lu, piv), v, trans=2),
        n, dtype=a.dtype)
    if inv_est == 0.0:
        return 0.0
    return 1.0 / (anorm * inv_est)


def trcondest(r: np.ndarray, *, lower: bool = False) -> float:
    """Reciprocal 1-norm condition estimate of a triangular matrix.

    In QDWH this is called on the R factor of A = QR (Algorithm 1, line
    17); since Q is unitary, ``cond(R)`` tracks ``cond(A)``.  Returns
    ``rcond = 1 / (||R||_1 * est(||R^{-1}||_1))``; 0 if the diagonal
    contains an exact zero.
    """
    r = np.asarray(r)
    check_dtype(r.dtype)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"trcondest needs a square triangular matrix, got {r.shape}")
    n = r.shape[0]
    if n == 0:
        return 0.0
    tri = np.tril(r) if lower else np.triu(r)
    rnorm = float(np.max(np.sum(np.abs(tri), axis=0)))
    if rnorm == 0.0 or np.any(np.diagonal(tri) == 0):
        return 0.0
    inv_est = norm1est_inverse(
        lambda v: sla.solve_triangular(tri, v, lower=lower),
        lambda v: sla.solve_triangular(tri, v, lower=lower, trans="C"),
        n, dtype=r.dtype)
    if inv_est == 0.0:
        return 0.0
    return 1.0 / (rnorm * inv_est)
