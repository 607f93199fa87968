"""Tiled level-3 BLAS and element-wise matrix operations.

Conventions:

* ``op`` flags are ``"N"`` (as-is) or ``"C"`` (conjugate transpose).
* Owner-computes: each task runs on the rank owning its output tile.
* Every tile update is one task; accumulation over the k dimension is
  a dependency chain on the output tile (SLATE's gemm does the same —
  its internal reduction is sequenced through tile ownership).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind


def _op_tile(mat: DistMatrix, i: int, j: int, op: str) -> np.ndarray:
    """Tile (i, j) of op(M): for op='C' the logical tile is M[j,i]^H."""
    if op == "N":
        return mat.tile(i, j)
    return mat.tile(j, i).conj().T


def _op_dims(mat: DistMatrix, op: str):
    """(rows, cols, mt, nt) of op(M)."""
    if op == "N":
        return mat.m, mat.n, mat.mt, mat.nt
    return mat.n, mat.m, mat.nt, mat.mt


def _check_op(op: str) -> None:
    if op not in ("N", "C"):
        raise ValueError(f"op must be 'N' or 'C', got {op!r}")


def gemm(rt: Runtime, alpha: complex, a: DistMatrix, b: DistMatrix,
         beta: complex, c: DistMatrix, *, opa: str = "N", opb: str = "N"
         ) -> None:
    """C = alpha op(A) op(B) + beta C, tiled."""
    rt.begin_op()
    _check_op(opa)
    _check_op(opb)
    am, ak, amt, akt = _op_dims(a, opa)
    bk, bn, bkt, bnt = _op_dims(b, opb)
    if ak != bk or am != c.m or bn != c.n:
        raise ValueError(
            f"gemm shape mismatch: op(A) {am}x{ak}, op(B) {bk}x{bn}, "
            f"C {c.m}x{c.n}")
    if a.nb != b.nb or a.nb != c.nb:
        raise ValueError("gemm requires a uniform tile size")
    del amt, bnt
    kt = akt
    if kt != bkt:
        raise ValueError("inner tile counts differ")
    for i in range(c.mt):
        for j in range(c.nt):
            cref = c.ref(i, j)
            rank = c.owner(i, j)
            for k in range(kt):
                aref = a.ref(i, k) if opa == "N" else a.ref(k, i)
                bref = b.ref(k, j) if opb == "N" else b.ref(j, k)
                kb = (a.tile_cols(k) if opa == "N" else a.tile_rows(k))
                fl = F.gemm(c.tile_rows(i), c.tile_cols(j), kb)

                def body(i=i, j=j, k=k, first=(k == 0)):
                    at = _op_tile(a, i, k, opa)
                    bt = _op_tile(b, k, j, opb)
                    ct = c.tile(i, j)
                    if first:
                        if beta == 0:
                            ct[...] = 0
                        elif beta != 1:
                            ct *= c.dtype.type(beta)
                    ct += c.dtype.type(alpha) * (at @ bt)

                rt.submit(TaskKind.GEMM, reads=(aref, bref),
                          writes=(cref,), rank=rank, flops=fl,
                          tile_dim=c.nb, fn=body,
                          label=f"gemm({i},{j},{k})")


def herk(rt: Runtime, alpha: float, a: DistMatrix, beta: float,
         c: DistMatrix, *, opa: str = "N") -> None:
    """C = alpha op(A) op(A)^H + beta C on the lower triangle of C.

    With opa='C' this computes alpha A^H A + beta C.  The strictly
    upper triangle of C is kept Hermitian-consistent tile-wise (the
    diagonal tiles are updated symmetrically; off-diagonal upper tiles
    are not touched — consumers must respect uplo, as SLATE's
    HermitianMatrix does).
    """
    rt.begin_op()
    _check_op(opa)
    an, ak, _, akt = _op_dims(a, opa)
    if an != c.m or c.m != c.n:
        raise ValueError(
            f"herk shape mismatch: op(A) {an}x{ak}, C {c.m}x{c.n}")
    kt = akt
    for i in range(c.mt):
        for j in range(i + 1):
            cref = c.ref(i, j)
            rank = c.owner(i, j)
            for k in range(kt):
                arefs = ({a.ref(i, k), a.ref(j, k)} if opa == "N"
                         else {a.ref(k, i), a.ref(k, j)})
                kb = (a.tile_cols(k) if opa == "N" else a.tile_rows(k))
                fl = (F.herk(c.tile_rows(i), kb) if i == j
                      else F.gemm(c.tile_rows(i), c.tile_cols(j), kb))

                def body(i=i, j=j, k=k, first=(k == 0)):
                    ai = _op_tile(a, i, k, opa)
                    aj = _op_tile(a, j, k, opa)
                    ct = c.tile(i, j)
                    if first:
                        if beta == 0:
                            ct[...] = 0
                        elif beta != 1:
                            ct *= c.dtype.type(beta)
                    upd = c.dtype.type(alpha) * (ai @ aj.conj().T)
                    if i == j:
                        # Keep the diagonal tile exactly Hermitian.
                        upd = 0.5 * (upd + upd.conj().T)
                    ct += upd

                rt.submit(TaskKind.HERK if i == j else TaskKind.GEMM,
                          reads=tuple(arefs), writes=(cref,), rank=rank,
                          flops=fl, tile_dim=c.nb, fn=body,
                          label=f"herk({i},{j},{k})")


def mirror_lower(rt: Runtime, c: DistMatrix) -> None:
    """Copy the lower triangle onto the upper: C[j,i] = C[i,j]^H.

    Turns a herk-produced lower-triangular-valid matrix into an
    explicit Hermitian matrix (needed before full gemm consumers).
    """
    rt.begin_op()
    if c.m != c.n:
        raise ValueError("mirror_lower needs a square matrix")
    for i in range(c.mt):
        for j in range(i):
            src, dst = c.ref(i, j), c.ref(j, i)

            def body(i=i, j=j):
                c.tile(j, i)[...] = c.tile(i, j).conj().T

            rt.submit(TaskKind.COPY, reads=(src,), writes=(dst,),
                      rank=c.owner(j, i),
                      flops=float(c.tile_rows(i) * c.tile_cols(j)),
                      tile_dim=c.nb, fn=body,
                      label=f"mirror({i},{j})")


def add(rt: Runtime, alpha: complex, a: DistMatrix, beta: complex,
        b: DistMatrix) -> None:
    """B = alpha A + beta B (slate::add), tile-wise."""
    rt.begin_op()
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    if a.nb != b.nb:
        raise ValueError("add requires matching tile sizes")
    for i in range(b.mt):
        for j in range(b.nt):
            fl = 3.0 * b.tile_rows(i) * b.tile_cols(j)

            def body(i=i, j=j):
                bt = b.tile(i, j)
                bt *= b.dtype.type(beta)
                bt += b.dtype.type(alpha) * a.tile(i, j)

            rt.submit(TaskKind.ADD, reads=(a.ref(i, j),),
                      writes=(b.ref(i, j),), rank=b.owner(i, j),
                      flops=fl, tile_dim=b.nb, fn=body,
                      label=f"add({i},{j})")


def scale(rt: Runtime, alpha: complex, a: DistMatrix) -> None:
    """A = alpha * A."""
    rt.begin_op()
    for i in range(a.mt):
        for j in range(a.nt):
            fl = float(a.tile_rows(i) * a.tile_cols(j))

            def body(i=i, j=j):
                a.tile(i, j)[...] *= a.dtype.type(alpha)

            rt.submit(TaskKind.SCALE, reads=(), writes=(a.ref(i, j),),
                      rank=a.owner(i, j), flops=fl, tile_dim=a.nb,
                      fn=body, label=f"scale({i},{j})")


def copy(rt: Runtime, src: DistMatrix, dst: DistMatrix, *,
         dst_row_offset: int = 0) -> None:
    """dst[tile rows offset...] = src, tile-wise.

    ``dst_row_offset`` is in *tiles* and lets Algorithm 1 build the
    stacked W = [W1; W2] workspaces (copy A into the top tiles,
    identity below).  Requires aligned tilings.
    """
    rt.begin_op()
    if src.n != dst.n or src.col_widths != dst.col_widths:
        raise ValueError("copy requires matching column tilings")
    if dst_row_offset < 0 or dst_row_offset + src.mt > dst.mt:
        raise ValueError("copy row offset out of range")
    for i in range(src.mt):
        if src.tile_rows(i) != dst.tile_rows(i + dst_row_offset):
            raise ValueError(
                f"row tiling mismatch at tile {i}: "
                f"{src.tile_rows(i)} vs {dst.tile_rows(i + dst_row_offset)}")
    for i in range(src.mt):
        for j in range(src.nt):
            di = i + dst_row_offset

            def body(i=i, j=j, di=di):
                dst.tile(di, j)[...] = src.tile(i, j)

            rt.submit(TaskKind.COPY, reads=(src.ref(i, j),),
                      writes=(dst.ref(di, j),), rank=dst.owner(di, j),
                      flops=float(src.tile_rows(i) * src.tile_cols(j)),
                      tile_dim=dst.nb, fn=body,
                      label=f"copy({i},{j})")


def set_zero(rt: Runtime, a: DistMatrix) -> None:
    """A = 0."""
    rt.begin_op()
    for i in range(a.mt):
        for j in range(a.nt):

            def body(i=i, j=j):
                a.tile(i, j)[...] = 0

            rt.submit(TaskKind.SET, reads=(), writes=(a.ref(i, j),),
                      rank=a.owner(i, j),
                      flops=float(a.tile_rows(i) * a.tile_cols(j)),
                      tile_dim=a.nb, fn=body,
                      label=f"zero({i},{j})")


def set_identity(rt: Runtime, a: DistMatrix, *, row_offset: int = 0,
                 alpha: complex = 1.0, zero_below: bool = False) -> None:
    """Write alpha*I_n into the tile rows ``row_offset .. row_offset +
    nt - 1`` of A (n = A's column count), zeroing the rest of those
    tiles; with ``zero_below`` every tile row under the block is zeroed
    too.

    The one identity fill: Algorithm 1's ``[sqrt(c) A; I]`` stack, its
    ``I + c A^H A`` and the zero-matrix ``U = [I; 0]``
    (:mod:`repro.core.tiled_qdwh`), and the ``[I; 0]`` workspace of Q
    formation (:func:`repro.tiled.qr.unmqr_identity`).  It records into
    the caller's current op — a fill initialises the workspace of the
    operation around it, so it calls no ``rt.begin_op()``.

    The block must be tile-aligned: every tile ``(row_offset + k, k)``
    starts on the block's diagonal and is at least as tall as it is
    wide (only the last may be taller: an m x n Q workspace whose
    ragged last column is narrower than its row).
    """
    nt = a.nt
    if row_offset < 0 or row_offset + nt > a.mt:
        raise ValueError("identity block does not fit")
    top = a.row_offsets[row_offset]
    for k in range(nt):
        dk = row_offset + k
        if (a.row_offsets[dk] - top != a.col_offsets[k]
                or a.tile_rows(dk) < a.tile_cols(k)):
            raise ValueError(
                f"identity block at tile row {row_offset} is not "
                f"tile-aligned: tile ({dk},{k}) does not hold its "
                f"diagonal (row heights {a.row_heights[row_offset:]} vs "
                f"column widths {a.col_widths})")
    last = a.mt if zero_below else row_offset + nt
    for di in range(row_offset, last):
        for j in range(nt):

            def body(di=di, j=j, diag=(di - row_offset == j)):
                t = a.tile(di, j)
                t[...] = 0
                if diag:
                    d = min(t.shape)
                    t[np.arange(d), np.arange(d)] = a.dtype.type(alpha)

            rt.submit(TaskKind.SET, reads=(), writes=(a.ref(di, j),),
                      rank=a.owner(di, j),
                      flops=float(a.tile_rows(di) * a.tile_cols(j)),
                      tile_dim=a.nb, fn=body, label=f"eye({di},{j})")


def set_diag_add(rt: Runtime, a: DistMatrix, alpha: complex = 1.0) -> None:
    """A += alpha * I (diagonal tiles only)."""
    rt.begin_op()
    if a.m != a.n:
        raise ValueError("set_diag_add needs a square matrix")
    for k in range(a.nt):

        def body(k=k):
            t = a.tile(k, k)
            d = min(t.shape)
            t[np.arange(d), np.arange(d)] += a.dtype.type(alpha)

        rt.submit(TaskKind.SET, reads=(a.ref(k, k),),
                  writes=(a.ref(k, k),), rank=a.owner(k, k),
                  tile_dim=a.nb, fn=body, label=f"diag+({k})")


def transpose_conj(rt: Runtime, a: DistMatrix,
                   out: Optional[DistMatrix] = None) -> DistMatrix:
    """Materialize A^H as a new tiled matrix (tile (j,i) = A(i,j)^H).

    SLATE represents transposes as views; QDWH's posv step needs the
    explicit n x m right-hand side A^H, which SLATE also materializes
    into a workspace.  The transpose moves every tile at most once.
    """
    rt.begin_op()
    if out is None:
        out = DistMatrix(rt, a.n, a.m, a.nb, a.dtype, name=f"{a.name}^H")
    if out.shape != (a.n, a.m) or out.nb != a.nb:
        raise ValueError("transpose output has wrong geometry")
    for i in range(a.mt):
        for j in range(a.nt):

            def body(i=i, j=j):
                out.tile(j, i)[...] = a.tile(i, j).conj().T

            rt.submit(TaskKind.COPY, reads=(a.ref(i, j),),
                      writes=(out.ref(j, i),), rank=out.owner(j, i),
                      flops=float(a.tile_rows(i) * a.tile_cols(j)),
                      tile_dim=a.nb, fn=body,
                      label=f"trans({i},{j})")
    return out
