"""Tiled Cholesky factorization and SPD solve (posv).

Standard right-looking tile Cholesky (lower):

    for k:  potrf(A[k,k]);  trsm column k;  herk/gemm trailing update.

``posv`` factors Z in place and solves Z X = B through forward and
backward tiled triangular solves — the Cholesky-based QDWH iteration's
``posv(W2, A^H)`` (Algorithm 1, line 41).
"""

from __future__ import annotations

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from . import kernels


def potrf(rt: Runtime, a: DistMatrix) -> None:
    """In-place tiled Cholesky, lower triangle (upper left untouched)."""
    rt.begin_op()
    if a.m != a.n:
        raise ValueError(f"potrf needs a square matrix, got {a.shape}")
    if a.row_heights != a.col_widths:
        raise ValueError("potrf needs square diagonal tiles")
    nt = a.nt
    for k in range(nt):
        rt.advance_phase()
        kb = a.tile_cols(k)

        def diag(k=k):
            a.tile(k, k)[...] = kernels.potrf_kernel(a.tile(k, k))

        rt.submit(TaskKind.POTRF, reads=(a.ref(k, k),),
                  writes=(a.ref(k, k),), rank=a.owner(k, k),
                  flops=F.potrf(kb), tile_dim=a.nb, fn=diag,
                  label=f"potrf({k})")

        for i in range(k + 1, nt):

            def col_solve(i=i, k=k):
                a.tile(i, k)[...] = kernels.trsm_kernel(
                    a.tile(k, k), a.tile(i, k), lower=True,
                    conj_trans=True, side_left=False)

            rt.submit(TaskKind.TRSM, reads=(a.ref(k, k), a.ref(i, k)),
                      writes=(a.ref(i, k),), rank=a.owner(i, k),
                      flops=F.trsm(kb, a.tile_rows(i)), tile_dim=a.nb,
                      fn=col_solve, label=f"potrf.trsm({i},{k})")

        for i in range(k + 1, nt):
            for j in range(k + 1, i + 1):

                def update(i=i, j=j, k=k):
                    upd = a.tile(i, k) @ a.tile(j, k).conj().T
                    t = a.tile(i, j)
                    if i == j:
                        upd = 0.5 * (upd + upd.conj().T)
                    t -= upd

                fl = (F.herk(a.tile_rows(i), kb) if i == j
                      else F.gemm(a.tile_rows(i), a.tile_cols(j), kb))
                rt.submit(TaskKind.HERK if i == j else TaskKind.GEMM,
                          reads=(a.ref(i, k), a.ref(j, k)),
                          writes=(a.ref(i, j),), rank=a.owner(i, j),
                          flops=fl, tile_dim=a.nb, fn=update,
                          label=f"potrf.upd({i},{j},{k})")


def trsm_lower(rt: Runtime, l: DistMatrix, b: DistMatrix, *,
               conj_trans: bool) -> None:
    """Solve op(L) X = B in place on B, L lower triangular (tiled).

    ``conj_trans=False`` is the forward sweep, ``True`` the backward
    sweep with L^H.
    """
    rt.begin_op()
    if l.m != l.n or l.m != b.m:
        raise ValueError(f"trsm shapes: L {l.shape}, B {b.shape}")
    nt = l.nt
    if not conj_trans:
        k_range = range(nt)
    else:
        k_range = range(nt - 1, -1, -1)
    for k in k_range:
        rt.advance_phase()
        kb = l.tile_cols(k)
        for j in range(b.nt):

            def solve(k=k, j=j):
                b.tile(k, j)[...] = kernels.trsm_kernel(
                    l.tile(k, k), b.tile(k, j), lower=True,
                    conj_trans=conj_trans, side_left=True)

            rt.submit(TaskKind.TRSM, reads=(l.ref(k, k), b.ref(k, j)),
                      writes=(b.ref(k, j),), rank=b.owner(k, j),
                      flops=F.trsm(kb, b.tile_cols(j)), tile_dim=b.nb,
                      fn=solve, label=f"trsm({k},{j})")
        others = (range(k + 1, nt) if not conj_trans else range(k))
        for i in others:
            for j in range(b.nt):

                def update(i=i, j=j, k=k):
                    if not conj_trans:
                        b.tile(i, j)[...] -= l.tile(i, k) @ b.tile(k, j)
                    else:
                        b.tile(i, j)[...] -= (l.tile(k, i).conj().T
                                              @ b.tile(k, j))

                lref = l.ref(i, k) if not conj_trans else l.ref(k, i)
                rt.submit(TaskKind.GEMM, reads=(lref, b.ref(k, j)),
                          writes=(b.ref(i, j),), rank=b.owner(i, j),
                          flops=F.gemm(b.tile_rows(i), b.tile_cols(j), kb),
                          tile_dim=b.nb, fn=update,
                          label=f"trsm.upd({i},{j},{k})")


def posv(rt: Runtime, z: DistMatrix, b: DistMatrix) -> None:
    """Solve the SPD system Z X = B; X overwrites B, L overwrites Z.

    Z must be Hermitian positive definite with its lower triangle
    valid (herk output is fine).  This is Algorithm 1's
    ``posv(W2, A^H)``.
    """
    potrf(rt, z)
    trsm_lower(rt, z, b, conj_trans=False)
    trsm_lower(rt, z, b, conj_trans=True)
