"""Tiled matrix norms and column sums.

Each norm is a two-level reduction: per-tile NORM tasks compute local
partials on the tile's owner (SLATE's ``internal::norm``), then a
REDUCE task combines them — the analogue of the MPI reduction.  The
partials are distributed workspace like any other tile: a
:func:`workspace` matrix with one tile per tile of the operand, written
where it is computed and read by the combine in fixed index order.
:func:`partial_combine` is that pattern, written once; gemmA and the
R-factor norm of trcondest are its other callers.

Scalar results are wrapped in :class:`ScalarResult`: numeric runs see
the value immediately (eager execution); symbolic runs only get the
dependency ref.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import real_dtype
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind, TileRef

#: The partial tiles a combine receives, by ``(i, j)``, in ``keys`` order.
Parts = Dict[Tuple[int, int], np.ndarray]


class ScalarResult:
    """A scalar in a driver-local box, landed by the task writing ``ref``.

    The one place a scalar ref is paired with its box.  On a deferred
    (threaded-backend) runtime, reading :attr:`value` is
    a synchronization point: the pending task window — including the
    reduction that fills the box — is flushed first, so adaptive
    drivers (convergence loops, estimators) behave exactly as under
    eager execution.
    """

    def __init__(self, rt: Runtime, value: Optional[float] = None) -> None:
        self.ref: TileRef = rt.new_scalar_ref()
        self._box: List[Optional[float]] = [value]
        self._rt = rt

    @property
    def value(self) -> float:
        rt = self._rt
        san = rt._sanitizer
        if san is not None:
            # Reading a scalar inside a payload is a re-entrant
            # sync hazard (the inner sync is suppressed; the box
            # may not be filled yet).  No-op outside payloads.
            san.on_sync(self.ref, "ScalarResult.value")
        if self._box[0] is None:
            rt.sync()
        v = self._box[0]
        if v is None:
            raise RuntimeError("scalar not computed (symbolic mode?)")
        return float(v)


def landed_scalar(rt: Runtime, value: Optional[float], label: str,
                  reads: Sequence[TileRef] = ()) -> ScalarResult:
    """A scalar the driver already holds (``None`` in symbolic mode),
    landed by a payload-free REDUCE on rank 0 so dependents still chain
    on its ref and the model still prices the reduction."""
    res = ScalarResult(rt, value)
    rt.submit(TaskKind.REDUCE, reads=reads, writes=(res.ref,), rank=0,
              flops=1.0, label=label)
    return res


def workspace(rt: Runtime, a: DistMatrix, dtype, *, rows: bool = False,
              cols: bool = False) -> DistMatrix:
    """Partials workspace: one tile per tile of ``a`` at the same
    ``(i, j)``, so a partial is owned where it is computed.  Tile
    ``(i, j)`` is ``rows(i) x 1``, ``1 x cols(j)`` or ``1 x 1``."""
    heights = a.row_heights if rows else (1,) * a.mt
    widths = a.col_widths if cols else (1,) * a.nt
    return DistMatrix(rt, sum(heights), sum(widths), a.nb, dtype,
                      layout=a.layout, row_heights=heights,
                      col_widths=widths, name="partials")


def partial_combine(rt: Runtime, a: DistMatrix, ws: DistMatrix,
                    keys: Sequence[Tuple[int, int]], *,
                    partial: Callable[[int, int], np.ndarray],
                    part_label: str, combine: Callable[[Parts], Any],
                    label: str, flops: float,
                    out: Optional[Tuple[DistMatrix, int]] = None,
                    kind: TaskKind = TaskKind.NORM, part_reads=None,
                    part_flops=None) -> Optional[ScalarResult]:
    """The partial -> combine reduction over the tiles ``keys`` of ``a``.

    One ``kind`` task per ``(i, j)`` writes ``partial(i, j)`` into the
    workspace tile ``(i, j)`` on the owner of ``a``'s tile (2 flops an
    element unless ``part_flops`` says otherwise); one REDUCE task then
    hands ``combine`` the tiles by ``(i, j)``, in ``keys`` order —
    whatever order the partials finished in, so the result has the
    eager bits on any backend and worker count.  What ``combine``
    returns goes to tile ``(i, 0)`` of the vector ``out = (y, i)``, on
    that tile's owner, or with no ``out`` lands on rank 0 as the
    returned :class:`ScalarResult`.
    """
    for i, j in keys:

        def body(i=i, j=j):
            ws.tile(i, j)[...] = partial(i, j)

        extra = part_reads(i, j) if part_reads is not None else ()
        fl = (part_flops(i, j) if part_flops is not None
              else 2.0 * a.tile_rows(i) * a.tile_cols(j))
        rt.submit(kind, reads=(a.ref(i, j),) + extra,
                  writes=(ws.ref(i, j),), rank=a.owner(i, j), flops=fl,
                  tile_dim=a.nb, fn=body, label=f"{part_label}({i},{j})")

    res = ScalarResult(rt) if out is None else None
    y, oi = out if out is not None else (None, 0)

    def reduce_body():
        value = combine({(i, j): ws.tile(i, j) for i, j in keys})
        if y is None:
            res._box[0] = value
        else:
            y.tile(oi, 0)[...] = value

    rt.submit(TaskKind.REDUCE, reads=tuple(ws.ref(i, j) for i, j in keys),
              writes=(res.ref if y is None else y.ref(oi, 0),),
              rank=0 if y is None else y.owner(oi, 0),
              flops=flops, fn=reduce_body, label=label)
    return res


def sum_tiles(parts: Parts) -> np.ndarray:
    """Sum of equally shaped partial tiles, added in ``parts`` order."""
    tiles = iter(parts.values())
    acc = next(tiles).copy()
    for t in tiles:
        acc += t
    return acc


def max_line_sum(parts: Parts, axis: int) -> float:
    """Largest entry of the per-line sums of partial vectors: tiles
    whose keys agree on ``axis`` are added in ``parts`` order."""
    lines: Dict[int, np.ndarray] = {}
    for key, t in parts.items():
        k = key[axis]
        lines[k] = t if k not in lines else lines[k] + t
    return max((float(np.max(v)) for v in lines.values()), default=0.0)


def _tile_reduce(rt: Runtime, a: DistMatrix, label: str, partial_fn,
                 combine, **vec) -> ScalarResult:
    """Scalar reduction over every tile of ``a``; the partials keep the
    real dtype ``partial_fn`` returns."""
    return partial_combine(
        rt, a, workspace(rt, a, real_dtype(a.dtype), **vec),
        [(i, j) for i in range(a.mt) for j in range(a.nt)],
        partial=lambda i, j: partial_fn(a.tile(i, j)),
        part_label=f"{label}.part", combine=combine,
        label=f"{label}.reduce", flops=float(a.mt * a.nt))


def norm_one(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_1 = max column absolute sum."""
    rt.begin_op()
    return _tile_reduce(rt, a, "norm1",
                        lambda t: np.sum(np.abs(t), axis=0),
                        lambda parts: max_line_sum(parts, axis=1),
                        cols=True)


def norm_inf(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_inf = max row absolute sum."""
    rt.begin_op()
    return _tile_reduce(rt, a, "norminf",
                        lambda t: np.sum(np.abs(t), axis=1, keepdims=True),
                        lambda parts: max_line_sum(parts, axis=0),
                        rows=True)


def norm_fro(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """||A||_F (partials are sums of squares — exact combination)."""
    rt.begin_op()
    return _tile_reduce(
        rt, a, "normf", lambda t: np.sum(np.abs(t) ** 2),
        lambda parts: float(np.sqrt(sum(float(t[0, 0])
                                        for t in parts.values()))))


def norm_max(rt: Runtime, a: DistMatrix) -> ScalarResult:
    """max |a_ij|."""
    rt.begin_op()
    return _tile_reduce(
        rt, a, "normmax", lambda t: np.max(np.abs(t)) if t.size else 0.0,
        lambda parts: max((float(t[0, 0]) for t in parts.values()),
                          default=0.0))


def column_abs_sums(rt: Runtime, a: DistMatrix, x: DistMatrix) -> None:
    """x[j-block] = sum_i |A tile(i,j)| column sums (Algorithm 2, l.6-8).

    ``x`` must be an n x 1 vector whose row tiling equals A's column
    tiling.  Per-tile partials are reduced onto each x tile's owner —
    the MPI_Allreduce of the paper's pseudo-code.
    """
    rt.begin_op()
    if x.shape != (a.n, 1) or x.row_heights != a.col_widths:
        raise ValueError("x must be n x 1 with A's column tiling")
    ws = workspace(rt, a, real_dtype(a.dtype), cols=True)

    def partial(i, j):
        return np.sum(np.abs(a.tile(i, j)), axis=0)

    for j in range(a.nt):
        partial_combine(
            rt, a, ws, [(i, j) for i in range(a.mt)], partial=partial,
            part_label="colsum", combine=lambda parts: sum_tiles(parts).T,
            label=f"colsum.red({j})", out=(x, j),
            flops=float(a.mt * a.tile_cols(j)))
