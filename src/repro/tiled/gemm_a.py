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

from typing import Dict, Tuple

import numpy as np

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind


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
    mat = rt.new_matrix_id()
    parts: Dict[Tuple[int, int], np.ndarray] = {}
    out_t = a.mt if not conj_a else a.nt
    in_t = a.nt if not conj_a else a.mt
    for oi in range(out_t):
        refs = []
        rows = a.tile_rows(oi) if not conj_a else a.tile_cols(oi)
        for ki in range(in_t):
            i, j = (oi, ki) if not conj_a else (ki, oi)
            ref = (mat, oi, ki)
            rt.register_tiles([ref], rows * a.dtype.itemsize)
            refs.append(ref)
            kb = a.tile_cols(j) if not conj_a else a.tile_rows(i)

            def body(i=i, j=j, oi=oi, ki=ki):
                t = a.tile(i, j)
                xv = x.tile(ki, 0)
                parts[(oi, ki)] = (t @ xv if not conj_a
                                   else t.conj().T @ xv)

            rt.submit(TaskKind.GEMV, reads=(a.ref(i, j), x.ref(ki, 0)),
                      writes=(ref,), rank=a.owner(i, j),
                      flops=F.gemm(rows, 1, kb), tile_dim=a.nb,
                      fn=body, label=f"gemmA({i},{j})")

        def reduce_body(oi=oi, n_in=in_t):
            acc = parts[(oi, 0)].copy()
            for ki in range(1, n_in):
                acc += parts[(oi, ki)]
            y.tile(oi, 0)[...] = acc

        rt.submit(TaskKind.REDUCE, reads=tuple(refs),
                  writes=(y.ref(oi, 0),), rank=y.owner(oi, 0),
                  flops=float(in_t * rows), fn=reduce_body,
                  label=f"gemmA.red({oi})")


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
