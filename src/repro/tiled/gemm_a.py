"""gemmA: the paper's communication-optimized matrix-vector product.

Section 6.2: "To carry out the matrix-vector multiplication involved
in norm2est, we develop gemmA, a variant of gemm that optimizes the
data movements when the A matrix is large relative to C.  Tiles of B
are sent to where the tiles of A reside to compute partial results,
then the final result is computed by a parallel reduction to where the
output C tiles reside."

:func:`gemm_a` implements exactly that placement.  :func:`gemv_owner_c`
is the naive owner-of-C placement (A tiles move — O(n^2) bytes instead
of O(n)); the A3 ablation benchmark compares the two.
"""

from __future__ import annotations

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from .norms import partial_combine, sum_tiles, workspace


def _check_vec(a: DistMatrix, x: DistMatrix, y: DistMatrix,
               conj_a: bool) -> None:
    in_tiling = a.col_widths if not conj_a else a.row_heights
    out_tiling = a.row_heights if not conj_a else a.col_widths
    n_in = a.n if not conj_a else a.m
    n_out = a.m if not conj_a else a.n
    if x.shape != (n_in, 1) or x.row_heights != in_tiling:
        raise ValueError(f"x must be {n_in} x 1 with matching tiling")
    if y.shape != (n_out, 1) or y.row_heights != out_tiling:
        raise ValueError(f"y must be {n_out} x 1 with matching tiling")


def gemm_a(rt: Runtime, a: DistMatrix, x: DistMatrix, y: DistMatrix, *,
           conj_a: bool = False) -> None:
    """y = op(A) @ x with partials computed where A's tiles live.

    Only the small x tiles travel to A's owners; per-row partials are
    then reduced onto y's owners.
    """
    rt.begin_op()
    _check_vec(a, x, y, conj_a)
    # The partial of A's tile (i, j) stays with that tile: a column
    # A(i,j) x_j of rows(i), or the row (A(i,j)^H x_i)^T of cols(j).
    ws = workspace(rt, a, a.dtype, rows=not conj_a, cols=conj_a)
    out_t, in_t = (a.mt, a.nt) if not conj_a else (a.nt, a.mt)

    def partial(i, j):
        t = a.tile(i, j)
        return (t @ x.tile(j, 0) if not conj_a
                else (t.conj().T @ x.tile(i, 0)).T)

    for oi in range(out_t):
        rows = a.tile_rows(oi) if not conj_a else a.tile_cols(oi)
        partial_combine(
            rt, a, ws,
            [(oi, ki) if not conj_a else (ki, oi) for ki in range(in_t)],
            kind=TaskKind.GEMV, partial=partial, part_label="gemmA",
            part_reads=lambda i, j: (x.ref(j if not conj_a else i, 0),),
            combine=lambda p: sum_tiles(p) if not conj_a else sum_tiles(p).T,
            label=f"gemmA.red({oi})", out=(y, oi),
            flops=float(in_t * rows))


def gemv_owner_c(rt: Runtime, a: DistMatrix, x: DistMatrix,
                 y: DistMatrix, *, conj_a: bool = False) -> None:
    """y = op(A) @ x computed entirely at y's owners (naive placement).

    Every A tile crosses the network to the owner of its output tile —
    the data movement gemmA exists to avoid.  Numerically identical.
    """
    rt.begin_op()
    _check_vec(a, x, y, conj_a)
    out_t = a.mt if not conj_a else a.nt
    in_t = a.nt if not conj_a else a.mt
    for oi in range(out_t):
        rows = a.tile_rows(oi) if not conj_a else a.tile_cols(oi)
        rank = y.owner(oi, 0)
        for ki in range(in_t):
            i, j = (oi, ki) if not conj_a else (ki, oi)
            kb = a.tile_cols(j) if not conj_a else a.tile_rows(i)

            def body(i=i, j=j, oi=oi, ki=ki, first=(ki == 0)):
                t = a.tile(i, j)
                xv = x.tile(ki, 0)
                upd = t @ xv if not conj_a else t.conj().T @ xv
                yt = y.tile(oi, 0)
                if first:
                    yt[...] = 0
                yt += upd

            rt.submit(TaskKind.GEMV,
                      reads=(a.ref(i, j), x.ref(ki, 0)),
                      writes=(y.ref(oi, 0),), rank=rank,
                      flops=F.gemm(rows, 1, kb), tile_dim=a.nb,
                      fn=body, label=f"gemvC({i},{j})")
