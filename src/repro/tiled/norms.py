"""Tiled matrix norms and column sums.

Each norm is a two-level reduction: per-tile NORM tasks compute local
partials on the tile's owner (SLATE's ``internal::norm``), then a
REDUCE task combines them — the analogue of the MPI reduction.

Scalar results are wrapped in :class:`ScalarResult`: numeric runs see
the value immediately (eager execution); symbolic runs only get the
dependency ref.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind, TileRef


@dataclass
class ScalarResult:
    """A scalar produced by a tiled reduction.

    On a deferred (threaded-backend) runtime, reading :attr:`value` is
    a synchronization point: the pending task window — including the
    reduction that fills the box — is flushed first, so adaptive
    drivers (convergence loops, estimators) behave exactly as under
    eager execution.
    """

    ref: TileRef
    _box: List[Optional[float]]
    _rt: Optional[Runtime] = None

    @property
    def value(self) -> float:
        rt = self._rt
        if rt is not None:
            san = getattr(rt, "_sanitizer", None)
            if san is not None:
                # Reading a scalar inside a payload is a re-entrant
                # sync hazard (the inner sync is suppressed; the box
                # may not be filled yet).  No-op outside payloads.
                san.on_sync(self.ref, "ScalarResult.value")
        v = self._box[0]
        if v is None and rt is not None \
                and getattr(rt, "deferred", False):
            rt.sync()
            v = self._box[0]
        if v is None:
            raise RuntimeError("scalar not computed (symbolic mode?)")
        return float(v)


def _partial_refs(rt: Runtime, a: DistMatrix, nbytes) -> Dict[Tuple[int, int], TileRef]:
    mat = rt.new_matrix_id()
    refs = {}
    for i in range(a.mt):
        for j in range(a.nt):
            ref = (mat, i, j)
            rt.register_tiles([ref], nbytes(i, j))
            refs[(i, j)] = ref
    return refs


def _tile_reduce(rt: Runtime, a: DistMatrix, partial_fn, combine_fn,
                 partial_bytes, label: str) -> ScalarResult:
    """Generic partial-per-tile + single-combine scalar reduction."""
    parts: Dict[Tuple[int, int], object] = {}
    refs = _partial_refs(rt, a, partial_bytes)
    for i in range(a.mt):
        for j in range(a.nt):

            def body(i=i, j=j):
                parts[(i, j)] = partial_fn(a.tile(i, j))

            fl = 2.0 * a.tile_rows(i) * a.tile_cols(j)
            rt.submit(TaskKind.NORM, reads=(a.ref(i, j),),
                      writes=(refs[(i, j)],), rank=a.owner(i, j),
                      flops=fl, tile_dim=a.nb, fn=body,
                      label=f"{label}.part({i},{j})")
    box: List[Optional[float]] = [None]
    out = rt.new_scalar_ref()

    def reduce_body():
        box[0] = combine_fn(parts)

    rt.submit(TaskKind.REDUCE, reads=tuple(refs.values()),
              writes=(out,), rank=0, flops=float(len(refs)),
              fn=reduce_body, label=f"{label}.reduce")
    return ScalarResult(ref=out, _box=box, _rt=rt)


def norm_one(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_1 = max column absolute sum."""
    rt.begin_op()
    def combine(parts):
        cols: Dict[int, np.ndarray] = {}
        for (_i, j), v in parts.items():
            cols[j] = v if j not in cols else cols[j] + v
        return max((float(np.max(c)) for c in cols.values()), default=0.0)

    return _tile_reduce(
        rt, a,
        partial_fn=lambda t: np.sum(np.abs(t), axis=0),
        combine_fn=combine,
        partial_bytes=lambda i, j: a.tile_cols(j) * 8,
        label="norm1")


def norm_inf(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_inf = max row absolute sum."""
    rt.begin_op()
    def combine(parts):
        rows: Dict[int, np.ndarray] = {}
        for (i, _j), v in parts.items():
            rows[i] = v if i not in rows else rows[i] + v
        return max((float(np.max(r)) for r in rows.values()), default=0.0)

    return _tile_reduce(
        rt, a,
        partial_fn=lambda t: np.sum(np.abs(t), axis=1),
        combine_fn=combine,
        partial_bytes=lambda i, j: a.tile_rows(i) * 8,
        label="norminf")


def norm_fro(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_F (partials are sums of squares — exact combination)."""
    rt.begin_op()
    return _tile_reduce(
        rt, a,
        partial_fn=lambda t: float(np.sum(np.abs(t) ** 2)),
        combine_fn=lambda parts: float(np.sqrt(sum(parts.values()))),
        partial_bytes=lambda i, j: 8,
        label="normf")


def norm_max(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """max |a_ij|."""
    rt.begin_op()
    return _tile_reduce(
        rt, a,
        partial_fn=lambda t: float(np.max(np.abs(t))) if t.size else 0.0,
        combine_fn=lambda parts: max((float(v) for v in parts.values()),
                                     default=0.0),
        partial_bytes=lambda i, j: 8,
        label="normmax")


def column_abs_sums(rt: Runtime, a: DistMatrix, x: DistMatrix) -> None:
    """x[j-block] = sum_i |A tile(i,j)| column sums (Algorithm 2, l.6-8).

    ``x`` must be an n x 1 vector whose row tiling equals A's column
    tiling.  Per-tile partials are reduced onto each x tile's owner —
    the MPI_Allreduce of the paper's pseudo-code.
    """
    rt.begin_op()
    if x.shape != (a.n, 1) or x.row_heights != a.col_widths:
        raise ValueError("x must be n x 1 with A's column tiling")
    mat = rt.new_matrix_id()
    parts: Dict[Tuple[int, int], np.ndarray] = {}
    for j in range(a.nt):
        refs = []
        for i in range(a.mt):
            ref = (mat, i, j)
            rt.register_tiles([ref], a.tile_cols(j) * 8)
            refs.append(ref)

            def body(i=i, j=j):
                parts[(i, j)] = np.sum(np.abs(a.tile(i, j)), axis=0)

            rt.submit(TaskKind.NORM, reads=(a.ref(i, j),), writes=(ref,),
                      rank=a.owner(i, j),
                      flops=2.0 * a.tile_rows(i) * a.tile_cols(j),
                      tile_dim=a.nb, fn=body,
                      label=f"colsum({i},{j})")

        def reduce_body(j=j):
            acc = parts[(0, j)].copy()
            for i in range(1, a.mt):
                acc += parts[(i, j)]
            x.tile(j, 0)[...] = acc.astype(x.dtype)[:, None]

        rt.submit(TaskKind.REDUCE, reads=tuple(refs),
                  writes=(x.ref(j, 0),), rank=x.owner(j, 0),
                  flops=float(a.mt * a.tile_cols(j)), fn=reduce_body,
                  label=f"colsum.red({j})")
