"""Numeric single-tile kernels.

These are the payloads of the runtime's tasks: plain numpy/LAPACK math
on one or two tiles.  The QR kernels use the compact WY (blocked
Householder) representation:

    Q = I - V T V^H

with V unit-lower-trapezoidal and T upper-triangular, exactly LAPACK's
``geqrt`` storage: the factored tile holds R in its upper triangle and
the V columns below the diagonal; T is kept in a tile of its own
(:class:`repro.tiled.qr.QRFactors`).  Kernels return fresh arrays; the
task payloads in :mod:`repro.tiled.qr` write them through into tiles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla


def build_t(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Accumulate the T factor of a blocked reflector (LAPACK larft).

    ``v`` is m x k unit-lower-trapezoidal (implicit unit diagonal is
    expected to already be in place), ``tau`` the k reflector scalars.
    Returns upper-triangular T with ``Q = I - V T V^H``.
    """
    m, k = v.shape
    t = np.zeros((k, k), dtype=v.dtype)
    for j in range(k):
        t[j, j] = tau[j]
        if j > 0 and tau[j] != 0:
            # t[:j, j] = -tau[j] * T[:j, :j] @ (V[:, :j]^H v_j)
            w = v[:, :j].conj().T @ v[:, j]
            t[:j, j] = -tau[j] * (t[:j, :j] @ w)
    return t


def _unit_lower(v_raw: np.ndarray, k: int) -> np.ndarray:
    """Extract V (unit diagonal, zero upper) from raw QR storage."""
    v = np.tril(v_raw, -1)
    v[np.diag_indices(min(v.shape[0], k))] = 1.0
    return v[:, :k]


def geqrt_kernel(tile: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """QR-factor one tile; returns (factored tile, T).

    The returned tile holds R in its upper triangle and the Householder
    vectors below the diagonal (LAPACK compact form).
    """
    m, n = tile.shape
    k = min(m, n)
    (qr_raw, tau), _r = sla.qr(tile, mode="raw")
    v = _unit_lower(qr_raw, k)
    t = build_t(v, tau)
    return np.ascontiguousarray(qr_raw), t


def apply_q_kernel(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray,
                   conj_trans: bool) -> np.ndarray:
    """Apply Q or Q^H (from one factored tile) to C, returning new C.

    ``v_tile`` is the compact geqrt output (R upper + V lower); only
    the V part is used.  Q = I - V T V^H; Q^H = I - V T^H V^H.
    """
    k = t.shape[0]
    v = _unit_lower(v_tile, k)
    tt = t.conj().T if conj_trans else t
    w = v.conj().T @ c          # k x nc
    return c - v @ (tt @ w)


def tpqrt_kernel(r_upper: np.ndarray, a_bot: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Couple a k x k upper-triangular R block with an mb x k tile.

    Factors ``[triu(R); A_bot] = Q R_new``.  Returns
    ``(R_new, V_top, V_bot, T)``:

    * ``R_new`` — k x k, upper triangular (replaces the R part of the
      diagonal tile; the diagonal tile's geqrt reflectors below its
      diagonal are untouched).
    * ``V_top`` — k x k unit-lower reflector block.  PLASMA's
      structured TS kernel has V_top = I; factoring the dense stack
      yields a general unit-lower block, stored in the combine tile.
    * ``V_bot`` — mb x k reflector block.
    * ``T`` — k x k upper-triangular block-reflector factor for the
      stacked V = [V_top; V_bot].
    """
    k = r_upper.shape[1]
    stacked = np.vstack([np.triu(r_upper[:k, :k]), a_bot])
    (qr_raw, tau), _r = sla.qr(stacked, mode="raw")
    v = _unit_lower(qr_raw, k)
    t = build_t(v, tau)
    r_new = np.triu(qr_raw[:k, :k])
    v_top = np.ascontiguousarray(v[:k])
    v_bot = np.ascontiguousarray(v[k:])
    return r_new, v_top, v_bot, t


def tpmqrt_kernel(v_top: np.ndarray, v_bot: np.ndarray, t: np.ndarray,
                  c_top: np.ndarray, c_bot: np.ndarray,
                  conj_trans: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a coupled reflector pair to the stacked [C_top; C_bot].

    ``c_top`` must be the k x nc slice the reflectors act on (the
    first k rows of the diagonal tile row); ``c_bot`` the full mate.
    """
    tt = t.conj().T if conj_trans else t
    w = v_top.conj().T @ c_top + v_bot.conj().T @ c_bot   # k x nc
    w = tt @ w
    return c_top - v_top @ w, c_bot - v_bot @ w


def potrf_kernel(tile: np.ndarray) -> np.ndarray:
    """Cholesky of one SPD tile (lower)."""
    return np.linalg.cholesky(tile)


def trsm_kernel(tri: np.ndarray, b: np.ndarray, *, lower: bool,
                conj_trans: bool, side_left: bool = True) -> np.ndarray:
    """Triangular solve against one tile."""
    if side_left:
        return sla.solve_triangular(tri, b, lower=lower,
                                    trans="C" if conj_trans else "N",
                                    check_finite=False)
    if conj_trans:
        # X tri^H = b  <=>  X^H = tri^{-1} b^H.
        xh = sla.solve_triangular(tri, b.conj().T, lower=lower, trans="N",
                                  check_finite=False)
        return xh.conj().T
    # X tri = b  <=>  tri^T X^T = b^T.
    xt = sla.solve_triangular(tri, b.T, lower=lower, trans="T",
                              check_finite=False)
    return xt.T
