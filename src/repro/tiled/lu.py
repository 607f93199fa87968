"""Tiled LU factorization with partial pivoting, and gecondest.

Section 6.3 of the paper names two routes to the condition estimate:
"the LU factorization followed by a condition number estimator, or the
QR factorization followed by a condition number estimator of the upper
triangular matrix R."  QDWH uses the QR route; this module implements
the LU route so both are available (and comparable — see the unit
tests).

The panel factorization follows the ScaLAPACK pattern: the tile column
is gathered to the diagonal tile's owner, factored with row pivoting
(LAPACK getrf), and scattered back; pivot swaps are then applied across
each tile column.  Gather/scatter communication is captured by the
panel task reading and writing every tile of the column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg as sla

from .. import flops as F
from ..core.estimators import drive_estimator
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind, TileRef
from .norms import ScalarResult, landed_scalar, norm_one


@dataclass
class LUFactors:
    """A tiled LU factorization P A = L U in compact tile storage.

    ``piv[k]`` holds the LAPACK-style local pivot indices of panel k
    (relative to the panel's top row) — driver-local integers, so
    ``piv_refs[k]`` is a scalar ref.
    """

    a: DistMatrix
    piv: Dict[int, np.ndarray] = field(default_factory=dict)
    piv_refs: List[TileRef] = field(default_factory=list)
    singular: bool = False


def _gather_panel(a: DistMatrix, k: int) -> np.ndarray:
    rows = sum(a.tile_rows(i) for i in range(k, a.mt))
    kb = a.tile_cols(k)
    panel = np.empty((rows, kb), dtype=a.dtype)
    off = 0
    for i in range(k, a.mt):
        h = a.tile_rows(i)
        panel[off:off + h] = a.tile(i, k)
        off += h
    return panel


def _scatter_panel(a: DistMatrix, k: int, panel: np.ndarray) -> None:
    off = 0
    for i in range(k, a.mt):
        h = a.tile_rows(i)
        a.tile(i, k)[...] = panel[off:off + h]
        off += h


def _apply_swaps_column(a: DistMatrix, k: int, j: int,
                        piv: np.ndarray) -> None:
    """Apply panel-k pivot swaps to tile column j (rows k..mt-1)."""
    col = _gather_column(a, k, j)
    for i, p in enumerate(piv):
        if p != i:
            col[[i, p]] = col[[p, i]]
    _scatter_column(a, k, j, col)


def _gather_column(a: DistMatrix, k: int, j: int) -> np.ndarray:
    rows = sum(a.tile_rows(i) for i in range(k, a.mt))
    col = np.empty((rows, a.tile_cols(j)), dtype=a.dtype)
    off = 0
    for i in range(k, a.mt):
        h = a.tile_rows(i)
        col[off:off + h] = a.tile(i, j)
        off += h
    return col


def _scatter_column(a: DistMatrix, k: int, j: int,
                    col: np.ndarray) -> None:
    off = 0
    for i in range(k, a.mt):
        h = a.tile_rows(i)
        a.tile(i, j)[...] = col[off:off + h]
        off += h


def getrf(rt: Runtime, a: DistMatrix) -> LUFactors:
    """Tiled LU with partial pivoting: P A = L U, in place.

    L (unit lower) and U overwrite A; pivots are stored per panel.
    Raises nothing on exact singularity — the ``singular`` flag is set
    and downstream condition estimates return 0, matching LAPACK's
    info-based protocol.
    """
    rt.begin_op()
    if a.m != a.n:
        raise ValueError(f"tiled getrf expects a square matrix, got "
                         f"{a.shape}")
    if a.row_heights != a.col_widths:
        raise ValueError("getrf needs square diagonal tiles")
    fac = LUFactors(a=a)
    nt = a.nt
    for k in range(nt):
        rt.advance_phase()
        kb = a.tile_cols(k)
        pref = rt.new_scalar_ref(kb * 4)
        fac.piv_refs.append(pref)
        col_refs = tuple(a.ref(i, k) for i in range(k, a.mt))
        rows = sum(a.tile_rows(i) for i in range(k, a.mt))

        def panel(k=k, kb=kb):
            block = _gather_panel(a, k)
            lu, piv = sla.lu_factor(block, check_finite=False)
            if np.any(np.diagonal(lu)[:kb] == 0):
                fac.singular = True
            _scatter_panel(a, k, np.ascontiguousarray(lu))
            fac.piv[k] = piv

        rt.submit(TaskKind.GEQRT,  # panel-class kernel (CPU, latency)
                  reads=col_refs, writes=col_refs + (pref,),
                  rank=a.owner(k, k), flops=F.getrf(rows, kb),
                  tile_dim=a.nb, fn=panel,
                  label=f"getrf.panel({k})")

        # Pivot swaps + U row + trailing update per tile column.
        for j in range(nt):
            if j == k:
                continue
            cj_refs = tuple(a.ref(i, j) for i in range(k, a.mt))

            def swaps(k=k, j=j):
                _apply_swaps_column(a, k, j, fac.piv[k])

            rt.submit(TaskKind.COPY, reads=cj_refs + (pref,),
                      writes=cj_refs, rank=a.owner(k, j),
                      flops=float(kb * a.tile_cols(j)),
                      tile_dim=a.nb, fn=swaps, label=f"laswp({k},{j})")

        for j in range(k + 1, nt):

            def urow(k=k, j=j):
                lkk = np.tril(a.tile(k, k), -1)
                lkk[np.diag_indices(min(lkk.shape))] = 1.0
                a.tile(k, j)[...] = sla.solve_triangular(
                    lkk, a.tile(k, j), lower=True, unit_diagonal=True,
                    check_finite=False)

            rt.submit(TaskKind.TRSM, reads=(a.ref(k, k), a.ref(k, j)),
                      writes=(a.ref(k, j),), rank=a.owner(k, j),
                      flops=F.trsm(kb, a.tile_cols(j)), tile_dim=a.nb,
                      fn=urow, label=f"getrf.trsm({k},{j})")

        for i in range(k + 1, a.mt):
            for j in range(k + 1, nt):

                def update(i=i, j=j, k=k):
                    a.tile(i, j)[...] -= a.tile(i, k) @ a.tile(k, j)

                rt.submit(TaskKind.GEMM,
                          reads=(a.ref(i, k), a.ref(k, j)),
                          writes=(a.ref(i, j),), rank=a.owner(i, j),
                          flops=F.gemm(a.tile_rows(i), a.tile_cols(j), kb),
                          tile_dim=a.nb, fn=update,
                          label=f"getrf.upd({i},{j},{k})")
    return fac


# ---------------------------------------------------------------------------
# Solves with the tiled LU factors (vector RHS — what gecondest needs)
# ---------------------------------------------------------------------------

def getrs_vec(rt: Runtime, fac: LUFactors, b: np.ndarray, *,
              conj_trans: bool = False) -> np.ndarray:
    """Solve op(A) x = b through the tiled LU factors.

    The sweep runs as one tiled chain of per-tile triangular solves and
    gemv updates; for clarity the numeric payload reassembles the
    factor blocks tile-by-tile (the task structure — and therefore the
    simulated cost — is the per-tile chain).
    """
    a = fac.a
    n = a.n
    if b.shape != (n,):
        raise ValueError(f"b must be a length-{n} vector")
    x = np.array(b, dtype=a.dtype, copy=True)
    nt = a.nt
    offs = a.col_offsets
    # Every solve step reads and writes the shared vector ``x`` (a
    # captured numpy buffer the tile-dependency tracker cannot see), so
    # all steps declare one pseudo-tile as in/out: the RAW/WAW chain on
    # it serializes the sweep — without it the threaded backend would
    # race the substitution steps against each other.
    xref = rt.new_scalar_ref(n * 8)

    def seg(k):
        return slice(offs[k], offs[k] + a.tile_cols(k))

    if not conj_trans:
        # Apply P, then L y = Pb (forward), then U x = y (backward).
        def apply_pivots():
            for k in range(nt):
                piv = fac.piv[k]
                sub = x[offs[k]:]
                for i, p in enumerate(piv):
                    if p != i:
                        sub[[i, p]] = sub[[p, i]]

        rt.submit(TaskKind.COPY,
                  reads=tuple(fac.piv_refs),
                  writes=(xref,), rank=0,
                  fn=apply_pivots, label="getrs.pivots")
        for k in range(nt):
            for j in range(k):
                # Below-diagonal tiles hold L blocks verbatim.
                def lupd(k=k, j=j):
                    x[seg(k)] -= a.tile(k, j) @ x[seg(j)]

                rt.submit(TaskKind.GEMV, reads=(a.ref(k, j),),
                          writes=(xref,),
                          rank=a.owner(k, j),
                          flops=F.gemm(a.tile_cols(k), 1, a.tile_cols(j)),
                          fn=lupd, label=f"getrs.l({k},{j})")

            def ldiag(k=k):
                lkk = np.tril(a.tile(k, k), -1)
                lkk[np.diag_indices(min(lkk.shape))] = 1.0
                x[seg(k)] = sla.solve_triangular(
                    lkk, x[seg(k)], lower=True, unit_diagonal=True,
                    check_finite=False)

            rt.submit(TaskKind.SOLVE_VEC, reads=(a.ref(k, k),),
                      writes=(xref,), rank=a.owner(k, k),
                      flops=float(a.tile_cols(k)) ** 2, fn=ldiag,
                      label=f"getrs.ldiag({k})")
        for k in range(nt - 1, -1, -1):
            for j in range(k + 1, nt):
                rt.submit(TaskKind.GEMV, reads=(a.ref(k, j),),
                          writes=(xref,),
                          rank=a.owner(k, j),
                          flops=F.gemm(a.tile_cols(k), 1, a.tile_cols(j)),
                          fn=(lambda k=k, j=j: x.__setitem__(
                              seg(k), x[seg(k)] - a.tile(k, j) @ x[seg(j)])),
                          label=f"getrs.u({k},{j})")

            def udiag(k=k):
                x[seg(k)] = sla.solve_triangular(
                    np.triu(a.tile(k, k)), x[seg(k)], lower=False,
                    check_finite=False)

            rt.submit(TaskKind.SOLVE_VEC, reads=(a.ref(k, k),),
                      writes=(xref,), rank=a.owner(k, k),
                      flops=float(a.tile_cols(k)) ** 2, fn=udiag,
                      label=f"getrs.udiag({k})")
        rt.sync()  # deferred backend: the solve bodies fill `x`
        return x

    # conj_trans: A^H x = b  <=>  U^H y = b, L^H z = y, x = P^T z.
    for k in range(nt):
        for j in range(k):
            rt.submit(TaskKind.GEMV, reads=(a.ref(j, k),),
                      writes=(xref,), rank=a.owner(j, k),
                      flops=F.gemm(a.tile_cols(k), 1, a.tile_cols(j)),
                      fn=(lambda k=k, j=j: x.__setitem__(
                          seg(k),
                          x[seg(k)] - a.tile(j, k).conj().T @ x[seg(j)])),
                      label=f"getrs.uh({k},{j})")

        def uhdiag(k=k):
            x[seg(k)] = sla.solve_triangular(
                np.triu(a.tile(k, k)), x[seg(k)], lower=False, trans="C",
                check_finite=False)

        rt.submit(TaskKind.SOLVE_VEC, reads=(a.ref(k, k),),
                  writes=(xref,), rank=a.owner(k, k),
                  flops=float(a.tile_cols(k)) ** 2, fn=uhdiag,
                  label=f"getrs.uhdiag({k})")
    for k in range(nt - 1, -1, -1):
        # L^H is upper triangular: backward substitution interleaves
        # the off-diagonal updates (using already-solved x[j], j > k)
        # with the unit-diagonal solve of block k.
        for j in range(k + 1, nt):

            def lhupd(k=k, j=j):
                x[seg(k)] -= a.tile(j, k).conj().T @ x[seg(j)]

            rt.submit(TaskKind.GEMV, reads=(a.ref(j, k),),
                      writes=(xref,), rank=a.owner(j, k),
                      flops=F.gemm(a.tile_cols(k), 1, a.tile_cols(j)),
                      fn=lhupd, label=f"getrs.lh({k},{j})")

        def lhdiag(k=k):
            lkk = np.tril(a.tile(k, k), -1)
            lkk[np.diag_indices(min(lkk.shape))] = 1.0
            x[seg(k)] = sla.solve_triangular(
                lkk, x[seg(k)], lower=True, unit_diagonal=True,
                trans="C", check_finite=False)

        rt.submit(TaskKind.SOLVE_VEC, reads=(a.ref(k, k),),
                  writes=(xref,), rank=a.owner(k, k),
                  flops=float(a.tile_cols(k)) ** 2, fn=lhdiag,
                  label=f"getrs.lhdiag({k})")

    def undo_pivots():
        # x = P^T w: undo the panel swaps in reverse order.
        for k in range(nt - 1, -1, -1):
            piv = fac.piv[k]
            sub = x[offs[k]:]
            for i in range(len(piv) - 1, -1, -1):
                p = piv[i]
                if p != i:
                    sub[[i, p]] = sub[[p, i]]

    rt.submit(TaskKind.COPY,
              reads=tuple(fac.piv_refs),
              writes=(xref,), rank=0,
              flops=float(n), fn=undo_pivots, label="getrs.pivots.T")
    rt.sync()  # deferred backend: the solve bodies fill `x`
    return x


def gecondest_tiled(rt: Runtime, a: DistMatrix, *,
                    fac: Optional[LUFactors] = None) -> ScalarResult:
    """Reciprocal 1-norm condition estimate via tiled LU (Section 6.3).

    Factors A (destroying it) unless ``fac`` is provided, then drives
    the shared Hager reverse-communication core through the tiled LU
    solves — the same single-implementation design the paper describes.
    Numeric mode only (the QR route, :func:`trcondest_tiled`, is the
    one QDWH uses and supports symbolic runs).
    """
    if not rt.numeric:
        raise RuntimeError("gecondest_tiled requires numeric mode; the "
                           "QR-route trcondest_tiled covers symbolic runs")
    anorm = norm_one(rt, a).value
    if fac is None:
        fac = getrf(rt, a)
    rt.sync()  # deferred backend: the panel bodies set `fac.singular`
    if anorm == 0.0 or fac.singular:
        return landed_scalar(rt, 0.0, "gecondest.final")
    inv_est = drive_estimator(
        a.n, lambda v: getrs_vec(rt, fac, v.ravel()),
        lambda v: getrs_vec(rt, fac, v.ravel(), conj_trans=True),
        dtype=a.dtype)
    rcond = 0.0 if inv_est == 0.0 else 1.0 / (anorm * inv_est)
    return landed_scalar(rt, rcond, "gecondest.final")

