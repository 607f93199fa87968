"""Numeric single-tile kernels.

These are the payloads of the runtime's tasks: plain numpy/LAPACK math
on one or two tiles.  The QR kernels use the compact WY (blocked
Householder) representation:

    Q = I - V T V^H

with V unit-lower-trapezoidal and T upper-triangular.  The factor
kernels are LAPACK's, chosen per dtype (``s``/``d``/``c``/``z``):
``?geqrt`` factors one tile, leaving R in its upper triangle and the V
columns below the diagonal, and ``?tpqrt`` couples two R triangles
(the structured triangle-on-triangle kernel, whose V has an identity
top block).  Each returns its T, which is kept in a tile of its own
(:class:`repro.tiled.qr.QRFactors`).  The apply kernels are numpy
products over that compact storage.  Kernels return fresh arrays; the
task payloads in :mod:`repro.tiled.qr` write them through into tiles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla


def _unit_lower(v_raw: np.ndarray, k: int) -> np.ndarray:
    """Extract V (unit diagonal, zero upper) from compact QR storage."""
    v = np.tril(v_raw, -1)
    v[np.diag_indices(min(v.shape[0], k))] = 1.0
    return v[:, :k]


def _lapack(name: str, info: int) -> None:
    if info:
        raise ValueError(f"LAPACK ?{name}: illegal value in argument {-info}")


def geqrt_kernel(tile: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """QR-factor one tile with LAPACK ``?geqrt``; returns (factored
    tile, T).

    The returned tile holds R in its upper triangle and the Householder
    vectors below the diagonal (LAPACK compact form); T is the
    ``min(m, n)``-square upper-triangular factor of one block.
    """
    k = min(tile.shape)
    geqrt, = sla.get_lapack_funcs(("geqrt",), (tile,))
    qr, t, info = geqrt(k, tile)
    _lapack("geqrt", info)
    return qr, t


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
    """Couple a k x k upper-triangular R with the l x k upper-trapezoidal
    R of another row (triangle on triangle; l <= k in a QR tree).

    Factors ``[triu(R); triu(A_bot)] = Q R_new`` with LAPACK ``?tpqrt``,
    PLASMA's structured TT kernel, its ``l`` = the rows of A_bot's
    triangle.  Only the upper triangles of both operands are read.
    Returns ``(R_new, V_top, V_bot, T)``:

    * ``R_new`` — k x k, upper triangular (replaces the R part of the
      diagonal tile; the diagonal tile's geqrt reflectors below its
      diagonal are untouched).
    * ``V_top`` — the k x k identity: the structured kernel's
      reflectors have a unit top block.
    * ``V_bot`` — l x k reflector block, upper trapezoidal with explicit
      zeros below the diagonal.
    * ``T`` — k x k upper-triangular block-reflector factor for the
      stacked V = [I; V_bot].
    """
    k = r_upper.shape[1]
    tpqrt, = sla.get_lapack_funcs(("tpqrt",), (r_upper, a_bot))
    r, v_bot, t, info = tpqrt(min(a_bot.shape), k, r_upper[:k, :k],
                              np.triu(a_bot), overwrite_b=1)
    _lapack("tpqrt", info)
    return np.triu(r), np.eye(k, dtype=r.dtype), v_bot, t


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
