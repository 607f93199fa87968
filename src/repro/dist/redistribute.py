"""Tile redistribution between layouts/tilings (slate::redistribute).

Moving a matrix to a different tile size or process grid is a common
preprocessing step (e.g. accepting user data in ScaLAPACK's nb=64
layout and re-tiling to SLATE's tuned nb=320).  Each destination tile
is one task reading every source tile it overlaps — the all-to-all
communication pattern falls out of the ownership maps.
"""

from __future__ import annotations

from typing import List

from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from .matrix import DistMatrix


def _overlaps(src_offs, src_sizes, lo: int, hi: int) -> List[int]:
    """Indices of source tiles intersecting the half-open range [lo, hi)."""
    out = []
    for idx, (o, s) in enumerate(zip(src_offs, src_sizes)):
        if o < hi and o + s > lo:
            out.append(idx)
    return out


def redistribute(rt: Runtime, src: DistMatrix, dst: DistMatrix) -> None:
    """Copy ``src`` into ``dst`` across different tilings/layouts.

    Shapes and dtypes must match; tile sizes, partitions, and process
    grids are free.  Numerically exact; the task graph carries the
    all-to-all traffic for the scheduler.
    """
    rt.begin_op()
    if src.shape != dst.shape:
        raise ValueError(
            f"redistribute shape mismatch: {src.shape} vs {dst.shape}")
    if src.dtype != dst.dtype:
        raise ValueError(
            f"redistribute dtype mismatch: {src.dtype} vs {dst.dtype}")
    for di in range(dst.mt):
        r_lo = dst.row_offsets[di]
        r_hi = r_lo + dst.tile_rows(di)
        src_rows = _overlaps(src.row_offsets, src.row_heights, r_lo, r_hi)
        for dj in range(dst.nt):
            c_lo = dst.col_offsets[dj]
            c_hi = c_lo + dst.tile_cols(dj)
            src_cols = _overlaps(src.col_offsets, src.col_widths,
                                 c_lo, c_hi)
            reads = tuple(src.ref(si, sj)
                          for si in src_rows for sj in src_cols)

            def body(di=di, dj=dj, r_lo=r_lo, c_lo=c_lo,
                     src_rows=tuple(src_rows), src_cols=tuple(src_cols)):
                out = dst.tile(di, dj)
                for si in src_rows:
                    so = src.row_offsets[si]
                    sh = src.tile_rows(si)
                    # intersection in global coordinates
                    g0 = max(so, r_lo)
                    g1 = min(so + sh, r_lo + out.shape[0])
                    for sj in src_cols:
                        co = src.col_offsets[sj]
                        cw = src.tile_cols(sj)
                        h0 = max(co, c_lo)
                        h1 = min(co + cw, c_lo + out.shape[1])
                        out[g0 - r_lo:g1 - r_lo, h0 - c_lo:h1 - c_lo] = \
                            src.tile(si, sj)[g0 - so:g1 - so,
                                             h0 - co:h1 - co]

            rt.submit(TaskKind.COPY, reads=reads,
                      writes=(dst.ref(di, dj),), rank=dst.owner(di, dj),
                      flops=float(dst.tile_rows(di) * dst.tile_cols(dj)),
                      tile_dim=dst.nb, fn=body,
                      label=f"redist({di},{dj})")
