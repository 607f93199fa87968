"""Tiled norm and condition estimators (Sections 6.2 and 6.3).

* :func:`norm2est_tiled` — Algorithm 2 verbatim on the tiled substrate:
  column-sum start vector, gemmA matrix-vector sweeps, Frobenius-ratio
  estimate, tol = 0.1.
* :func:`trcondest_tiled` — Hager's 1-norm estimator (shared reverse-
  communication core from :mod:`repro.core.estimators`) driven by tiled
  triangular solves against the R factor of a tiled QR.

Both work in symbolic mode with a fixed sweep count (`sweeps=`), since
convergence tests need data; the numeric mode iterates adaptively like
the real library.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import NORM2EST_MAX_ITER, NORM2EST_TOL, real_dtype
from ..core.estimators import drive_estimator
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from .. import flops as F
from .gemm_a import gemm_a, gemv_owner_c
from .norms import (ScalarResult, column_abs_sums, landed_scalar,
                    max_line_sum, norm_fro, partial_combine, workspace)
from .qr import QRFactors

#: Fixed sweep count used when the runtime is symbolic (the measured
#: numeric runs converge in 3-5 sweeps at tol=0.1).
DEFAULT_SYMBOLIC_SWEEPS = 4
DEFAULT_SYMBOLIC_HAGER_CYCLES = 2


def _vector(rt: Runtime, a: DistMatrix, *, of_cols: bool) -> DistMatrix:
    """A work vector tiled to match A's columns (True) or rows."""
    tiling = a.col_widths if of_cols else a.row_heights
    n = a.n if of_cols else a.m
    return DistMatrix(rt, n, 1, a.nb, a.dtype, layout=a.layout,
                      row_heights=tiling, col_widths=(1,),
                      name="vec")


def _vec_scale(rt: Runtime, alpha_box: List[float], x: DistMatrix) -> None:
    """x *= alpha (alpha known at run time through a box)."""
    for i in range(x.mt):

        def body(i=i):
            x.tile(i, 0)[...] *= x.dtype.type(alpha_box[0])

        rt.submit(TaskKind.SCALE, reads=(x.ref(i, 0),),
                  writes=(x.ref(i, 0),), rank=x.owner(i, 0),
                  flops=float(x.tile_rows(i)), fn=body, label=f"vscale({i})")


def norm2est_tiled(rt: Runtime, a: DistMatrix, *,
                   tol: float = NORM2EST_TOL,
                   sweeps: Optional[int] = None,
                   use_gemm_a: bool = True) -> ScalarResult:
    """Estimate ||A||_2 by power iteration (Algorithm 2).

    ``sweeps``: fixed sweep count (required in symbolic mode; optional
    cap in numeric mode).  ``use_gemm_a=False`` switches the internal
    products to the naive owner-of-C placement for the A3 ablation.
    """
    if not rt.numeric and sweeps is None:
        sweeps = DEFAULT_SYMBOLIC_SWEEPS
    mv = gemm_a if use_gemm_a else gemv_owner_c
    x = _vector(rt, a, of_cols=True)
    ax = _vector(rt, a, of_cols=False)
    # Lines 5-8: start from global column sums.
    rt.advance_phase()
    column_abs_sums(rt, a, x)
    e_res = norm_fro(rt, x)

    # One sweep loop: numeric runs test convergence on the landed
    # norms; symbolic runs have no data and emit exactly ``sweeps``.
    numeric = rt.numeric
    e = e_res.value if numeric else 1.0
    if e == 0.0:
        return e_res
    norm_x, e0, it = e, 0.0, 0
    max_it = sweeps if sweeps is not None else NORM2EST_MAX_ITER
    box = [0.0]
    nx = e_res
    while it < max_it and (not numeric or abs(e - e0) > tol * e):
        e0 = e
        rt.advance_phase()
        box[0] = 1.0 / norm_x
        _vec_scale(rt, box, x)
        mv(rt, a, x, ax)                      # AX = A @ X
        mv(rt, a, ax, x, conj_a=True)         # X  = A^H @ AX
        nx = norm_fro(rt, x)
        nax = norm_fro(rt, ax)
        it += 1
        if numeric:
            norm_x = nx.value
            if nax.value == 0.0:
                break
            e = norm_x / nax.value
    if not numeric:
        return nx
    return landed_scalar(rt, e, "norm2est.final", reads=(nx.ref,))


# ---------------------------------------------------------------------------
# Tiled triangular solves against the R factor (for trcondest)
# ---------------------------------------------------------------------------

def _r_block(fac: QRFactors, k: int, j: int) -> np.ndarray:
    """R(k, j) block from the factored matrix (valid rows only)."""
    a = fac.a
    kb = a.tile_cols(k)
    t = a.tile(k, j)[:kb]
    if j == k:
        return np.triu(t[:, :kb])
    return t


def trsv_upper(rt: Runtime, fac: QRFactors, b: DistMatrix, *,
               conj_trans: bool) -> None:
    """Solve op(R) x = b in place, R the upper-triangular QR factor.

    ``b`` is an n x 1 vector with R's column tiling.  Backward
    substitution for op='N', forward for op='C'.
    """
    a = fac.a
    nt = a.nt
    if b.shape != (a.n, 1) or b.row_heights != a.col_widths:
        raise ValueError("b must be n x 1 with R's column tiling")
    order = range(nt - 1, -1, -1) if not conj_trans else range(nt)
    for k in order:
        rt.advance_phase()
        kb = a.tile_cols(k)
        others = (range(k + 1, nt) if not conj_trans else range(k))
        for j in others:
            # b_k -= R(k,j) x_j     (N)
            # b_k -= R(j,k)^H x_j   (C)
            rref = a.ref(k, j) if not conj_trans else a.ref(j, k)
            wj = a.tile_cols(j)

            def upd(k=k, j=j):
                if not conj_trans:
                    blk = _r_block(fac, k, j)
                    b.tile(k, 0)[...] -= blk @ b.tile(j, 0)
                else:
                    blk = _r_block(fac, j, k)
                    b.tile(k, 0)[...] -= blk.conj().T @ b.tile(j, 0)

            rt.submit(TaskKind.GEMV, reads=(rref, b.ref(j, 0)),
                      writes=(b.ref(k, 0),), rank=b.owner(k, 0),
                      flops=F.gemm(kb, 1, wj), tile_dim=a.nb, fn=upd,
                      label=f"trsv.upd({k},{j})")

        def solve(k=k, kb=kb):
            import scipy.linalg as sla

            rkk = _r_block(fac, k, k)
            b.tile(k, 0)[...] = sla.solve_triangular(
                rkk, b.tile(k, 0), lower=False,
                trans="C" if conj_trans else "N", check_finite=False)

        rt.submit(TaskKind.SOLVE_VEC, reads=(a.ref(k, k), b.ref(k, 0)),
                  writes=(b.ref(k, 0),), rank=b.owner(k, 0),
                  flops=float(kb) * kb, tile_dim=a.nb, fn=solve,
                  label=f"trsv.diag({k})")


def _scatter_vec(rt: Runtime, v: np.ndarray, x: DistMatrix) -> None:
    """Distribute a rank-0 vector into x's tiles (modeled as copies)."""
    off = 0
    for i in range(x.mt):
        h = x.tile_rows(i)
        seg = v[off:off + h]
        off += h

        def body(i=i, seg=seg):
            x.tile(i, 0)[...] = np.asarray(seg, dtype=x.dtype)[:, None]

        rt.submit(TaskKind.COPY, reads=(), writes=(x.ref(i, 0),),
                  rank=x.owner(i, 0), flops=float(h), fn=body,
                  label=f"scatter({i})")


def _gather_vec(rt: Runtime, x: DistMatrix) -> np.ndarray:
    """Collect x's tiles to rank 0 (modeled as copies to rank 0)."""
    # Index-assigned slots, not list.append: the gather tasks are
    # mutually independent, so the threaded backend may run them in any
    # order — append order would scramble the result vector.
    outs: List[Optional[np.ndarray]] = [None] * x.mt
    for i in range(x.mt):
        ref = rt.new_scalar_ref(x.tile_rows(i) * x.dtype.itemsize)

        def body(i=i):
            outs[i] = x.tile(i, 0).ravel().copy()

        rt.submit(TaskKind.COPY, reads=(x.ref(i, 0),), writes=(ref,),
                  rank=0, flops=float(x.tile_rows(i)), fn=body,
                  label=f"gather({i})")
    if rt.numeric:
        rt.sync()  # deferred backend: the gather bodies fill `outs`
        segs = [s for s in outs if s is not None]
        return np.concatenate(segs) if segs else np.empty(0, dtype=x.dtype)
    return np.empty(0, dtype=x.dtype)


def _r_norm1(rt: Runtime, fac: QRFactors) -> ScalarResult:
    """||R||_1 over the R blocks of the factored matrix."""
    a = fac.a
    keys = [(k, j) for k in range(a.nt) for j in range(k, a.nt)]
    return partial_combine(
        rt, a, workspace(rt, a, real_dtype(a.dtype), cols=True), keys,
        partial=lambda k, j: np.sum(np.abs(_r_block(fac, k, j)), axis=0),
        part_label="rnorm1",
        part_flops=lambda k, j: 2.0 * a.tile_cols(k) * a.tile_cols(j),
        combine=lambda parts: max_line_sum(parts, axis=1),
        label="rnorm1.reduce",
        flops=float(sum(a.tile_cols(j) for _, j in keys)))


def trcondest_tiled(rt: Runtime, fac: QRFactors, *,
                    cycles: Optional[int] = None) -> ScalarResult:
    """Reciprocal 1-norm condition estimate of the tiled R factor.

    Drives the shared Hager reverse-communication core with tiled
    triangular solves (Section 6.3's single-implementation design).
    Numeric mode runs the adaptive estimator; symbolic mode emits a
    fixed number of solve cycles.
    """
    a = fac.a
    numeric = rt.numeric
    rnorm = _r_norm1(rt, fac)
    x = _vector(rt, a, of_cols=True)

    def solve(vec, adjoint):
        """One request of Hager's iteration: op(R)^-1 vec."""
        if numeric:
            _scatter_vec(rt, vec, x)
        trsv_upper(rt, fac, x, conj_trans=adjoint)
        return _gather_vec(rt, x) if numeric else None

    if not numeric:
        # No data to steer the iteration: the same solves for a fixed
        # number of cycles, then the final safeguard solve.
        if cycles is None:
            cycles = DEFAULT_SYMBOLIC_HAGER_CYCLES
        for _ in range(cycles):
            solve(None, False)
            solve(None, True)
        solve(None, False)
        return landed_scalar(rt, None, "trcondest.final",
                             reads=(x.ref(0, 0), rnorm.ref))
    if rnorm.value == 0.0:
        return landed_scalar(rt, 0.0, "trcondest.zero")
    if any(np.any(np.diagonal(_r_block(fac, k, k)) == 0)
           for k in range(a.nt)):
        return landed_scalar(rt, 0.0, "trcondest.singular")
    inv_est = drive_estimator(a.n, lambda v: solve(v, False),
                              lambda v: solve(v, True), dtype=a.dtype)
    rcond = 0.0 if inv_est == 0.0 else 1.0 / (rnorm.value * inv_est)
    return landed_scalar(rt, rcond, "trcondest.final")
