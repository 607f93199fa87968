"""Tiled Householder QR factorization and Q formation.

One panel reduction — communication-avoiding TSQR, SLATE's CAQR-style
internal geqrf.  At panel step k,

* ``geqrt`` factors every active block row of the panel independently
  and ``unmqr`` applies each row's reflectors across that row
  (:func:`_apply_rows`),
* ``tpqrt`` combines the rows' R triangles pairwise in a binary tree
  (:func:`_tree_rounds`; depth log2 of the panel height) and ``tpmqrt``
  applies each combine across the two rows (:func:`_apply_pairs`).

The factored matrix keeps R in its upper tiles and the row reflectors
below; T factors and the combines' V blocks are tiles of two more
matrices (see :class:`QRFactors`, SLATE's ``TriangularFactors``).  The
two sweeps are
the only reflector applications: the factorization runs them with
``conj_trans=True`` over the trailing columns ``j > k`` of A, Q
formation with ``conj_trans=False`` over columns ``j >= k`` of the
workspace, panels and rounds in reverse.

No task is recorded for work on structural zeros.  A panel touches its
*active rows* only (:meth:`QRFactors.active_rows`): for a general
matrix every row from the diagonal down, for QDWH's stacked
``[sqrt(c) A; I]`` (``identity_from``) the rows of A plus the k + 1
identity rows that hold fill-in or the not yet touched diagonal I tile
— the other identity rows are exactly zero in column k until their own
panel.  ``qr_explicit`` forms the economy Q = Q_full[:, :n] the way
LAPACK ``orgqr`` does (Algorithm 1's ``unmqr`` call, line 32):
reflectors are applied to an [I; 0] workspace in reverse order, panel k
only to columns j >= k, because columns j < k are still zero on every
active row of panel k.  This is the ``geqrf + orgqr`` count of the
paper's Section 4 (:func:`repro.flops.qdwh_qr_iteration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from . import kernels
from .blas3 import set_identity


@dataclass
class QRFactors:
    """A tiled QR factorization in compact form.

    ``a`` holds R in its upper tiles and, below, the geqrt reflectors
    of every factored block row.  The block-reflector factors are tiles
    too — distributed, pinned, snapshotted and sanitized like any other
    — in two matrices on ``a``'s tile grid and layout:

    * ``t`` (SLATE's ``Tlocal``): tile ``(i, k)`` holds, in its leading
      ``ke x ke`` block (``ke = min(rows of i, kb)``), the geqrt T of
      block row i in panel k;
    * ``tt`` (``Treduce``): tile ``(i2, k)`` holds the triangle combine
      of panel k whose bottom operand was row i2, as the row slices
      ``[V_top (kb); T (kb); V_bot (rows_eff)]`` (:func:`_couple`);
      ``rows_eff``, the R rows the bottom operand contributes, is
      fixed by the tree and captured by the tasks.

    ``identity_from`` is the caller's precondition that tile rows
    ``>= identity_from`` held I_n on entry (``None``: no structure).
    Rows outside :meth:`active_rows` carry no reflectors and no factor
    tile for that panel, and neither does the pristine tile
    ``(identity_from + k, k)``: it is I when panel k first meets it, so
    it is its own R with V = 0.
    """

    a: DistMatrix                 # R upper + row reflectors lower
    kt: int                       # number of panel steps
    t: DistMatrix                 # geqrt T factors
    tt: DistMatrix                # combine [V_top; T; V_bot] stacks
    identity_from: Optional[int] = None

    def active_rows(self, k: int) -> List[int]:
        """Block rows that are not structurally zero in column k when
        panel k starts, diagonal row first: ``k .. mt-1``, or with an
        identity block ``k .. identity_from-1`` (A) followed by
        ``identity_from .. identity_from+k`` (fill-in of panels < k,
        then the pristine I tile)."""
        p = self.identity_from
        if p is None:
            return list(range(k, self.a.mt))
        return list(range(k, p)) + list(range(p, p + k + 1))

    def pristine_row(self, k: int) -> Optional[int]:
        """Row of the identity tile no panel before k has touched."""
        p = self.identity_from
        return None if p is None else p + k


def _tree_rounds(heights, kb: int):
    """TSQR binary-combine rounds over a panel's block rows.

    ``heights[rel]`` is the tile height of relative row ``rel``; the R
    trapezoid a row can hold has ``min(height, kb)`` rows.  Rounds pair
    the tallest surviving row with the shortest (so a short ragged tile
    is always absorbed by one that can hold the combined triangle), and
    relative row 0 — the diagonal tile, whose height is >= kb by the
    m >= n invariant — is pinned first so the final R lands there.

    Returns a list of rounds; each round is a list of ``(top_rel,
    bot_rel, bot_cap)`` with disjoint operands (concurrent tasks), where
    ``bot_cap`` is the number of R rows the bottom operand contributes.
    """
    caps = {rel: min(h, kb) for rel, h in enumerate(heights)}
    survivors = sorted(caps)
    rounds = []
    while len(survivors) > 1:
        pairs = []
        nxt = []
        progress = False
        i = 0
        while i + 1 < len(survivors):
            lo, hi = survivors[i], survivors[i + 1]
            need = min(caps[lo] + caps[hi], kb)
            if min(heights[lo], kb) >= need:
                top, bot = lo, hi          # neighbor pairing, low on top
            elif min(heights[hi], kb) >= need:
                top, bot = hi, lo          # ragged low tile: swap roles
            else:
                nxt.append(lo)             # both short: defer lo, retry
                i += 1
                continue
            pairs.append((top, bot, caps[bot]))
            caps[top] = need
            nxt.append(top)
            progress = True
            i += 2
        if i < len(survivors):
            nxt.append(survivors[i])
        if not progress:
            raise ValueError(
                "panel tiling too ragged for the tree reduction: no "
                "surviving row can hold a combined triangle")
        rounds.append(pairs)
        survivors = sorted(nxt)
    if survivors != [0]:  # pragma: no cover - structural invariant
        raise AssertionError("tree reduction did not terminate at row 0")
    return rounds


def _panel_rounds(fac: QRFactors, k: int
                  ) -> List[List[Tuple[int, int, int]]]:
    """:func:`_tree_rounds` of panel k over its active rows, as block
    rows: ``(top row, bottom row, R rows the bottom contributes)``."""
    rows = fac.active_rows(k)
    rounds = _tree_rounds([fac.a.tile_rows(i) for i in rows],
                          fac.a.tile_cols(k))
    return [[(rows[top], rows[bot], cap) for top, bot, cap in pairs]
            for pairs in rounds]


def _couple(tile: np.ndarray, kb: int, rows_eff: int
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(V_top, V_bot, T)`` views of one combine tile of
    :attr:`QRFactors.tt`."""
    return tile[:kb], tile[2 * kb:2 * kb + rows_eff], tile[kb:2 * kb]


def _apply_rows(rt: Runtime, fac: QRFactors, k: int, i: int,
                c: DistMatrix, cols: Iterable[int], conj_trans: bool
                ) -> None:
    """Row sweep: block row i's own panel-k reflectors (its geqrt)
    applied to tiles ``(i, j)``, ``j in cols``, of ``c``."""
    a, tf = fac.a, fac.t
    ke = min(a.tile_rows(i), a.tile_cols(k))
    pre = "" if conj_trans else "q."
    for j in cols:

        def body(j=j):
            t = c.tile(i, j)
            t[...] = kernels.apply_q_kernel(a.tile(i, k),
                                            tf.tile(i, k)[:ke, :ke],
                                            t, conj_trans=conj_trans)

        rt.submit(TaskKind.UNMQR, reads=(a.ref(i, k), tf.ref(i, k)),
                  writes=(c.ref(i, j),), rank=c.owner(i, j),
                  flops=F.tile_unmqr(a.tile_rows(i), c.tile_cols(j),
                                     a.tile_cols(k)),
                  tile_dim=c.nb, fn=body, label=f"{pre}ts.unmqr({i},{j})")


def _apply_pairs(rt: Runtime, fac: QRFactors, k: int, i1: int, i2: int,
                 rows_eff: int, c: DistMatrix, cols: Iterable[int],
                 conj_trans: bool) -> None:
    """Pair sweep: the panel-k combine of rows (i1, i2) applied to
    tiles ``(i1, j)`` and ``(i2, j)``, ``j in cols``, of ``c``."""
    kb = fac.a.tile_cols(k)
    tt = fac.tt
    pre = "" if conj_trans else "q."
    for j in cols:

        def body(j=j):
            v_top, v_bot, t = _couple(tt.tile(i2, k), kb, rows_eff)
            ct = c.tile(i1, j)
            cb = c.tile(i2, j)
            ct[:kb], cb[:rows_eff] = kernels.tpmqrt_kernel(
                v_top, v_bot, t, ct[:kb], cb[:rows_eff],
                conj_trans=conj_trans)

        rt.submit(TaskKind.TPMQRT, reads=(tt.ref(i2, k),),
                  writes=(c.ref(i1, j), c.ref(i2, j)), rank=c.owner(i1, j),
                  flops=F.tile_ttmqrt(kb, c.tile_cols(j)), tile_dim=c.nb,
                  fn=body, label=f"{pre}ttmqrt({i1},{i2},{j})")


def geqrf(rt: Runtime, a: DistMatrix, *,
          identity_from: Optional[int] = None) -> QRFactors:
    """Factor A = QR in place; returns the factors.

    ``identity_from`` is a precondition the caller vouches for: tile
    rows ``>= identity_from`` hold I_n with row heights equal to the
    column widths (QDWH's stacked ``[sqrt(c) A; I]``).  Panel k then
    works on its active rows only, see :meth:`QRFactors.active_rows`.
    """
    if a.m < a.n:
        raise ValueError(f"tiled geqrf requires m >= n, got {a.m}x{a.n}")
    p = identity_from
    if p is not None and not (a.nt <= p
                              and a.row_heights[p:] == a.col_widths):
        raise ValueError(
            f"identity_from={p} does not describe an aligned n x n block "
            f"under at least {a.nt} tile row(s): row heights "
            f"{a.row_heights[p:]} vs column widths {a.col_widths}")
    rt.begin_op()
    # Factor storage on a's grid: a T tile holds up to wmax x wmax, a
    # combine tile V_top and T (wmax rows each) over V_bot.  Tiles are
    # allocated on first touch, so only active rows ever hold data.
    wmax = max(a.col_widths, default=1)   # n = 0: no panel, no tile
    caps = [min(h, wmax) for h in a.row_heights]

    def factor_matrix(name: str, heights: List[int]) -> DistMatrix:
        return DistMatrix(rt, sum(heights), a.n, a.nb, a.dtype,
                          layout=a.layout, name=name, row_heights=heights,
                          col_widths=a.col_widths)

    tf = factor_matrix("T", caps)
    tt = factor_matrix("TT", [2 * wmax + cap for cap in caps])
    fac = QRFactors(a=a, kt=min(a.mt, a.nt), t=tf, tt=tt, identity_from=p)
    itemsize = a.dtype.itemsize
    for k in range(fac.kt):
        rt.advance_phase()
        kb = a.tile_cols(k)
        trailing = range(k + 1, a.nt)

        # 1. Independent geqrt of every active block row of the
        #    panel, plus the row-local trailing update (all rows run
        #    concurrently).  The pristine identity tile is already its
        #    own R, with V = 0.
        for i in fac.active_rows(k):
            if i == fac.pristine_row(k):
                continue
            # The model prices what a structured kernel would move: T
            # alone here, T and V_bot (V_top = I) for a combine.
            rt.register_tiles([tf.ref(i, k)], kb * kb * itemsize)

            def rowfac(i=i, k=k, ke=min(a.tile_rows(i), kb)):
                tile = a.tile(i, k)
                tile[...], tf.tile(i, k)[:ke, :ke] = (
                    kernels.geqrt_kernel(tile))

            rt.submit(TaskKind.GEQRT, reads=(a.ref(i, k),),
                      writes=(a.ref(i, k), tf.ref(i, k)),
                      rank=a.owner(i, k),
                      flops=F.tile_geqrt(a.tile_rows(i), kb),
                      tile_dim=a.nb, fn=rowfac,
                      label=f"ts.geqrt({i},{k})")
            _apply_rows(rt, fac, k, i, a, trailing, conj_trans=True)

        # 2. Binary combine rounds (log2 depth).
        for pairs in _panel_rounds(fac, k):
            for i1, i2, rows_eff in pairs:
                rt.register_tiles([tt.ref(i2, k)],
                                  (kb * kb + rows_eff * kb) * itemsize)

                def combine(i1=i1, i2=i2, k=k, kb=kb, rows_eff=rows_eff):
                    top = a.tile(i1, k)
                    bot_r = np.triu(a.tile(i2, k)[:rows_eff])
                    v_top, v_bot, t = _couple(tt.tile(i2, k), kb, rows_eff)
                    r_new, v_top[...], v_bot[...], t[...] = (
                        kernels.tpqrt_kernel(top[:kb, :kb], bot_r))
                    top[:kb, :kb] = np.tril(top[:kb, :kb], -1) + r_new

                rt.submit(TaskKind.TPQRT,
                          reads=(a.ref(i1, k), a.ref(i2, k)),
                          writes=(a.ref(i1, k), tt.ref(i2, k)),
                          rank=a.owner(i1, k),
                          flops=F.tile_ttqrt(kb), tile_dim=a.nb,
                          fn=combine, label=f"ttqrt({i1},{i2},{k})")
                _apply_pairs(rt, fac, k, i1, i2, rows_eff, a, trailing,
                             conj_trans=True)
    return fac


def unmqr_identity(rt: Runtime, fac: QRFactors) -> DistMatrix:
    """Materialize the economy Q (m x n) of a factorization.

    Applies the panel reflectors to [I; 0], rightmost factor first
    (reverse of the factorization order).  Panel k is applied to
    columns ``j >= k`` only: columns ``j < k`` of [I; 0] are still zero
    on every active row of panel k (LAPACK ``orgqr``'s rule).
    """
    rt.begin_op()
    a = fac.a
    q = DistMatrix(rt, a.m, a.n, a.nb, a.dtype, layout=a.layout,
                   name="Q", row_heights=a.row_heights,
                   col_widths=a.col_widths)
    set_identity(rt, q, zero_below=True)
    for k in reversed(range(fac.kt)):
        rt.advance_phase()
        cols = range(k, q.nt)
        for pairs in reversed(_panel_rounds(fac, k)):
            for i1, i2, rows_eff in pairs:
                _apply_pairs(rt, fac, k, i1, i2, rows_eff, q, cols,
                             conj_trans=False)
        for i in fac.active_rows(k):
            if i != fac.pristine_row(k):  # never factored: its row Q is I
                _apply_rows(rt, fac, k, i, q, cols, conj_trans=False)
    return q


def qr_explicit(rt: Runtime, a: DistMatrix, *,
                identity_from: Optional[int] = None
                ) -> Tuple[QRFactors, DistMatrix]:
    """Factor A (in place) and return (factors, explicit economy Q).

    ``identity_from``: see :func:`geqrf`.
    """
    fac = geqrf(rt, a, identity_from=identity_from)
    q = unmqr_identity(rt, fac)
    return fac, q
