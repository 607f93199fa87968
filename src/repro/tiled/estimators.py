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

from ..config import NORM2EST_MAX_ITER, NORM2EST_TOL
from ..core.estimators import SOLVE, one_norm_estimator
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from .. import flops as F
from .gemm_a import gemm_a, gemv_owner_c
from .norms import ScalarResult, column_abs_sums, norm_fro
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

    if rt.numeric:
        e = e_res.value
        if e == 0.0:
            return e_res
        norm_x = e
        e0 = 0.0
        it = 0
        max_it = sweeps if sweeps is not None else NORM2EST_MAX_ITER
        box = [0.0]
        nx = e_res
        while abs(e - e0) > tol * e and it < max_it:
            e0 = e
            rt.advance_phase()
            box[0] = 1.0 / norm_x
            _vec_scale(rt, box, x)
            mv(rt, a, x, ax)                      # AX = A @ X
            mv(rt, a, ax, x, conj_a=True)         # X  = A^H @ AX
            nx = norm_fro(rt, x)
            nax = norm_fro(rt, ax)
            norm_x = nx.value
            if nax.value == 0.0:
                break
            e = norm_x / nax.value
            it += 1
        out = rt.new_scalar_ref()
        final: List[Optional[float]] = [e]
        rt.submit(TaskKind.REDUCE, reads=(nx.ref,), writes=(out,), rank=0,
                  flops=1.0, label="norm2est.final")
        return ScalarResult(ref=out, _box=final, _rt=rt)

    # Symbolic: emit the fixed-sweep graph.
    box = [1.0]
    last = e_res
    for _ in range(sweeps):
        rt.advance_phase()
        _vec_scale(rt, box, x)
        mv(rt, a, x, ax)
        mv(rt, a, ax, x, conj_a=True)
        last = norm_fro(rt, x)
        norm_fro(rt, ax)
    return last


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
    parts = {}
    mat = rt.new_matrix_id()
    refs = []
    for k in range(a.nt):
        for j in range(k, a.nt):
            ref = (mat, k, j)
            rt.register_tiles([ref], a.tile_cols(j) * 8)
            refs.append(ref)

            def body(k=k, j=j):
                parts[(k, j)] = np.sum(np.abs(_r_block(fac, k, j)), axis=0)

            rt.submit(TaskKind.NORM, reads=(a.ref(k, j),), writes=(ref,),
                      rank=a.owner(k, j),
                      flops=2.0 * a.tile_cols(k) * a.tile_cols(j),
                      tile_dim=a.nb, fn=body,
                      label=f"rnorm1({k},{j})")
    box: List[Optional[float]] = [None]
    out = rt.new_scalar_ref()

    def reduce_body():
        cols = {}
        for (_k, j), v in parts.items():
            cols[j] = v if j not in cols else cols[j] + v
        box[0] = max((float(np.max(c)) for c in cols.values()), default=0.0)

    rt.submit(TaskKind.REDUCE, reads=tuple(refs), writes=(out,), rank=0,
              flops=float(sum(a.tile_cols(j) for _, _, j in refs)),
              fn=reduce_body, label="rnorm1.reduce")
    return ScalarResult(ref=out, _box=box, _rt=rt)


def trcondest_tiled(rt: Runtime, fac: QRFactors, *,
                    cycles: Optional[int] = None) -> ScalarResult:
    """Reciprocal 1-norm condition estimate of the tiled R factor.

    Drives the shared Hager reverse-communication core with tiled
    triangular solves (Section 6.3's single-implementation design).
    Numeric mode runs the adaptive estimator; symbolic mode emits a
    fixed number of solve cycles.
    """
    a = fac.a
    n = a.n
    rnorm = _r_norm1(rt, fac)
    x = _vector(rt, a, of_cols=True)

    if not rt.numeric:
        cycles = (DEFAULT_SYMBOLIC_HAGER_CYCLES if cycles is None
                  else cycles)
        for _ in range(cycles):
            trsv_upper(rt, fac, x, conj_trans=False)
            trsv_upper(rt, fac, x, conj_trans=True)
        trsv_upper(rt, fac, x, conj_trans=False)
        out = rt.new_scalar_ref()
        rt.submit(TaskKind.REDUCE, reads=(x.ref(0, 0), rnorm.ref),
                  writes=(out,), rank=0, flops=1.0, label="trcondest.final")
        return ScalarResult(ref=out, _box=[None])

    if rnorm.value == 0.0:
        return _const_scalar(rt, 0.0, "trcondest.zero")
    diag_ok = True
    for k in range(a.nt):
        if np.any(np.diagonal(_r_block(fac, k, k)) == 0):
            diag_ok = False
            break
    if not diag_ok:
        return _const_scalar(rt, 0.0, "trcondest.singular")

    gen = one_norm_estimator(n, dtype=a.dtype)
    try:
        kind, vec = next(gen)
        while True:
            _scatter_vec(rt, vec, x)
            trsv_upper(rt, fac, x, conj_trans=(kind != SOLVE))
            result = _gather_vec(rt, x)
            kind, vec = gen.send(result)
    except StopIteration as stop:
        inv_est = float(stop.value)
    rcond = 0.0 if inv_est == 0.0 else 1.0 / (rnorm.value * inv_est)
    return _const_scalar(rt, rcond, "trcondest.final")


def _const_scalar(rt: Runtime, value: float, label: str) -> ScalarResult:
    out = rt.new_scalar_ref()
    box = [value]
    rt.submit(TaskKind.REDUCE, reads=(), writes=(out,), rank=0, flops=1.0,
              label=label)
    return ScalarResult(ref=out, _box=box)
