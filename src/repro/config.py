"""Global configuration: supported dtypes, machine epsilons, tolerances.

The paper's QDWH implementation supports all four standard LAPACK data
types (float, double, float complex, double complex).  Tolerances follow
Algorithm 1 of the paper: the outer loop runs while

    conv >= (5 * eps) ** (1/3)   or   |L_i - 1| >= 5 * eps,

where ``eps`` is the unit roundoff of the *real* base type.
"""

from __future__ import annotations

import numpy as np

#: The four standard data types the paper's implementation supports.
SUPPORTED_DTYPES = (
    np.dtype(np.float32),
    np.dtype(np.float64),
    np.dtype(np.complex64),
    np.dtype(np.complex128),
)

#: Map a (possibly complex) dtype to its real base type.
_REAL_BASE = {
    np.dtype(np.float32): np.dtype(np.float32),
    np.dtype(np.float64): np.dtype(np.float64),
    np.dtype(np.complex64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.float64),
}

#: Threshold on the dynamical weight ``c`` below which the Cholesky-based
#: iteration replaces the QR-based iteration (Algorithm 1, line 29).
QDWH_CHOLESKY_SWITCH = 100.0

#: Theoretical upper bound on QDWH iterations in double precision
#: (Nakatsukasa & Higham 2013); used as a safety cap.
QDWH_MAX_ITERATIONS = 6

#: Extra slack on the iteration cap to guard against pathological inputs
#: where the condition estimate is wildly wrong.
QDWH_HARD_ITERATION_CAP = 30

#: Convergence tolerance of the power-iteration two-norm estimator
#: (Algorithm 2, line 13).  The paper notes factor-of-5 accuracy is
#: entirely satisfactory for QDWH.
NORM2EST_TOL = 0.1

#: Safety cap on power-iteration sweeps in norm2est.
NORM2EST_MAX_ITER = 100


def check_dtype(dtype) -> np.dtype:
    """Validate that *dtype* is one of the four supported types.

    Returns the canonical :class:`numpy.dtype`.  Raises ``TypeError``
    for anything else (integer matrices, float16, ...).
    """
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise TypeError(
            f"dtype {dt} not supported; expected one of "
            f"{[str(d) for d in SUPPORTED_DTYPES]}"
        )
    return dt


def real_dtype(dtype) -> np.dtype:
    """Real base type of *dtype* (e.g. complex128 -> float64)."""
    return _REAL_BASE[check_dtype(dtype)]


def is_complex(dtype) -> bool:
    """True if *dtype* is one of the two complex supported types."""
    return np.issubdtype(np.dtype(dtype), np.complexfloating)


def eps(dtype) -> float:
    """Unit roundoff of the real base type of *dtype*."""
    return float(np.finfo(real_dtype(dtype)).eps)


def qdwh_inner_tolerance(dtype) -> float:
    """``(5*eps)**(1/3)`` — tolerance on ||A_k - A_{k-1}||_F (Alg. 1 l.22)."""
    return float((5.0 * eps(dtype)) ** (1.0 / 3.0))


def qdwh_weight_tolerance(dtype) -> float:
    """``5*eps`` — tolerance on |L_i - 1| (Alg. 1 line 22)."""
    return 5.0 * eps(dtype)


def backward_error_bound(dtype, cond: float) -> float:
    """``max(1e3*eps, 100*eps*sqrt(cond))`` — acceptance bound on the
    backward error ``||A - U H||_F / ||A||_F`` of a polar factorization.

    The tiled driver seeds its scaling interval from norm *estimates*
    (norm2est / condest), so at extreme kappa the backward error picks
    up an O(eps * sqrt(kappa)) term the exact-norm dense path avoids
    (observed ~30 eps sqrt(kappa) at kappa = 1/eps on small rectangular
    problems); 100x budgets that, and the ``1e3*eps`` floor covers
    well-conditioned inputs.
    """
    e = eps(dtype)
    return max(1e3 * e, 100.0 * e * float(np.sqrt(cond)))
