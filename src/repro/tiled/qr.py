"""Tiled Householder QR factorization and Q formation.

The PLASMA/SLATE tile-QR algorithm: at panel step k,

* ``geqrt`` factors the diagonal tile,
* ``unmqr`` applies its reflectors across tile-row k,
* ``tpqrt`` couples each below-panel tile with the R block,
* ``tpmqrt`` applies each coupling across the trailing tile rows.

The factored matrix keeps R in its upper tiles and the panel
reflectors below; T factors (and the generic V_top blocks of the
couple kernels) live in a side buffer with their own dependency refs.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind, TileRef
from . import kernels


@dataclass
class QRFactors:
    """A tiled QR factorization in compact form.

    ``panel`` records which reduction built it:

    * flat — ``aux[(k,k)]`` is the geqrt T; ``aux[(i,k)]`` (i > k) is
      the TS couple's ``(V_top, T)`` with V_bot stored in tile (i,k).
    * tree — ``aux[(i,k)]`` is the geqrt T of every geqrt-factored
      block row i; ``aux[("tt", i2, k)]`` is the triangle-combine
      ``(V_top, V_bot, T, rows_eff)`` whose bottom operand was row i2.

    ``identity_from`` is the caller's precondition that tile rows
    ``>= identity_from`` held I_n on entry (``None``: no structure).
    Rows outside :meth:`active_rows` carry no reflectors and no aux
    entry for that panel, and neither does the pristine tile
    ``(identity_from + k, k)`` of the tree reduction: it is I when
    panel k first meets it, so it is its own R with V = 0.
    """

    a: DistMatrix                 # R upper + panel reflectors lower
    kt: int                       # number of panel steps
    aux_mat: int                  # pseudo-matrix id for geqrt T refs
    tt_mat: int = -1              # pseudo-matrix id for tree-combine refs
    panel: str = "tree"
    aux: Dict[object, object] = field(default_factory=dict)
    identity_from: Optional[int] = None

    def t_ref(self, i: int, k: int) -> TileRef:
        return (self.aux_mat, i, k)

    def tt_ref(self, i2: int, k: int) -> TileRef:
        return (self.tt_mat, i2, k)

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


def geqrf(rt: Runtime, a: DistMatrix, *, panel: str = "tree",
          identity_from: Optional[int] = None) -> QRFactors:
    """Factor A = QR in place; returns the factors.

    ``panel`` selects the panel reduction:

    * ``"tree"`` (default) — communication-avoiding TSQR: every active
      block row is geqrt-factored independently, then triangles combine
      in a binary tree (depth log2 of the panel height).  This is
      SLATE's CAQR-style internal geqrf.
    * ``"flat"`` — PLASMA-style sequential TS chain (depth = panel
      height); kept as the ablation baseline.

    ``identity_from`` is a precondition the caller vouches for: tile
    rows ``>= identity_from`` hold I_n with row heights equal to the
    column widths (QDWH's stacked ``[sqrt(c) A; I]``).  Panel k then
    works on its active rows only, see :meth:`QRFactors.active_rows`.
    """
    if panel not in ("tree", "flat"):
        raise ValueError(f"panel must be 'tree' or 'flat', got {panel!r}")
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
    fac = QRFactors(a=a, kt=min(a.mt, a.nt), aux_mat=rt.new_matrix_id(),
                    panel=panel, identity_from=p)
    if panel == "tree":
        fac.tt_mat = rt.new_matrix_id()
        _geqrf_tree(rt, fac)
    else:
        _geqrf_flat(rt, fac)
    return fac


def _geqrf_flat(rt: Runtime, fac: QRFactors) -> None:
    a, aux = fac.a, fac.aux
    # Processes backend: aux entries (T factors, V blocks) are driver
    # dict state written inside payloads; declaring the store lets the
    # scheduler ship them between workers by their pseudo-tile refs.
    rt.register_side_store(fac.aux_mat, aux, lambda ref: (ref[1], ref[2]))
    itemsize = a.dtype.itemsize
    for k in range(fac.kt):
        rt.advance_phase()
        kb = a.tile_cols(k)
        mb = a.tile_rows(k)
        tkk = fac.t_ref(k, k)
        rt.register_tiles([tkk], kb * kb * itemsize)

        def panel(k=k):
            tile, t = kernels.geqrt_kernel(a.tile(k, k))
            a.set_tile(k, k, tile)
            aux[(k, k)] = t

        rt.submit(TaskKind.GEQRT, reads=(a.ref(k, k),),
                  writes=(a.ref(k, k), tkk), rank=a.owner(k, k),
                  flops=F.tile_geqrt(mb, kb), tile_dim=a.nb, fn=panel,
                  bytes_out=a.tile_nbytes(k, k) + kb * kb * itemsize,
                  label=f"geqrt({k})")

        for j in range(k + 1, a.nt):

            def row_apply(k=k, j=j):
                c = kernels.apply_q_kernel(a.tile(k, k), aux[(k, k)],
                                           a.tile(k, j), conj_trans=True)
                a.tile(k, j)[...] = c

            rt.submit(TaskKind.UNMQR, reads=(a.ref(k, k), tkk),
                      writes=(a.ref(k, j),), rank=a.owner(k, j),
                      flops=F.tile_unmqr(mb, a.tile_cols(j), kb),
                      tile_dim=a.nb, fn=row_apply,
                      bytes_out=a.tile_nbytes(k, j),
                      label=f"unmqr({k},{j})")

        for i in fac.active_rows(k)[1:]:
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            rt.register_tiles([tik], 2 * kb * kb * itemsize)

            def couple(k=k, i=i, kb=kb):
                r_new, v_top, v_bot, t = kernels.tpqrt_kernel(
                    a.tile(k, k)[:kb, :kb], a.tile(i, k))
                dkk = a.tile(k, k)
                dkk[:kb, :kb] = np.tril(dkk[:kb, :kb], -1) + r_new
                a.tile(i, k)[...] = v_bot
                aux[(i, k)] = (v_top, t)

            rt.submit(TaskKind.TPQRT,
                      reads=(a.ref(k, k), a.ref(i, k)),
                      writes=(a.ref(k, k), a.ref(i, k), tik),
                      rank=a.owner(i, k),
                      flops=F.tile_tpqrt(mbi, kb), tile_dim=a.nb,
                      fn=couple,
                      bytes_out=(a.tile_nbytes(k, k) + a.tile_nbytes(i, k)
                                 + 2 * kb * kb * itemsize),
                      label=f"tpqrt({i},{k})")

            for j in range(k + 1, a.nt):

                def pair_apply(k=k, i=i, j=j, kb=kb):
                    v_top, t = aux[(i, k)]
                    top = a.tile(k, j)
                    new_top, new_bot = kernels.tpmqrt_kernel(
                        v_top, a.tile(i, k), t, top[:kb], a.tile(i, j),
                        conj_trans=True)
                    top[:kb] = new_top
                    a.tile(i, j)[...] = new_bot

                rt.submit(TaskKind.TPMQRT,
                          reads=(a.ref(i, k), tik),
                          writes=(a.ref(k, j), a.ref(i, j)),
                          rank=a.owner(i, j),
                          flops=F.tile_tpmqrt(mbi, a.tile_cols(j), kb),
                          tile_dim=a.nb, fn=pair_apply,
                          bytes_out=(a.tile_nbytes(k, j)
                                     + a.tile_nbytes(i, j)),
                          label=f"tpmqrt({i},{j},{k})")


def _geqrf_tree(rt: Runtime, fac: QRFactors) -> None:
    """Communication-avoiding TSQR panels (binary triangle combines)."""
    a, aux = fac.a, fac.aux
    # Both pseudo-matrix ids resolve into the same aux dict; the tree
    # combine entries are keyed ("tt", i2, k) (see QRFactors docstring).
    rt.register_side_store(fac.aux_mat, aux, lambda ref: (ref[1], ref[2]))
    rt.register_side_store(fac.tt_mat, aux,
                           lambda ref: ("tt", ref[1], ref[2]))
    itemsize = a.dtype.itemsize
    for k in range(fac.kt):
        rt.advance_phase()
        kb = a.tile_cols(k)
        rows = fac.active_rows(k)

        # 1. Independent geqrt of every active block row of the panel,
        #    plus the row-local trailing update (all rows run
        #    concurrently).  The pristine identity tile is already its
        #    own R, with V = 0.
        for i in rows:
            if i == fac.pristine_row(k):
                continue
            mbi = a.tile_rows(i)
            tik = fac.t_ref(i, k)
            rt.register_tiles([tik], kb * kb * itemsize)

            def rowfac(i=i, k=k):
                tile, t = kernels.geqrt_kernel(a.tile(i, k))
                a.set_tile(i, k, tile)
                aux[(i, k)] = t

            rt.submit(TaskKind.GEQRT, reads=(a.ref(i, k),),
                      writes=(a.ref(i, k), tik), rank=a.owner(i, k),
                      flops=F.tile_geqrt(mbi, kb), tile_dim=a.nb,
                      fn=rowfac,
                      bytes_out=a.tile_nbytes(i, k) + kb * kb * itemsize,
                      label=f"ts.geqrt({i},{k})")

            for j in range(k + 1, a.nt):

                def rowupd(i=i, j=j, k=k):
                    c = kernels.apply_q_kernel(
                        a.tile(i, k), aux[(i, k)], a.tile(i, j),
                        conj_trans=True)
                    a.tile(i, j)[...] = c

                rt.submit(TaskKind.UNMQR, reads=(a.ref(i, k), tik),
                          writes=(a.ref(i, j),), rank=a.owner(i, j),
                          flops=F.tile_unmqr(mbi, a.tile_cols(j), kb),
                          tile_dim=a.nb, fn=rowupd,
                          bytes_out=a.tile_nbytes(i, j),
                          label=f"ts.unmqr({i},{j})")

        # 2. Binary combine rounds (log2 depth).
        heights = [a.tile_rows(i) for i in rows]
        for round_pairs in _tree_rounds(heights, kb):
            for p1, p2, rows_eff in round_pairs:
                i1, i2 = rows[p1], rows[p2]
                ttref = fac.tt_ref(i2, k)
                rt.register_tiles([ttref],
                                  (kb * kb + rows_eff * kb) * itemsize)

                def combine(i1=i1, i2=i2, k=k, kb=kb, rows_eff=rows_eff):
                    top = a.tile(i1, k)
                    bot_r = np.triu(a.tile(i2, k)[:rows_eff])
                    r_new, v_top, v_bot, t = kernels.tpqrt_kernel(
                        top[:kb, :kb], bot_r)
                    top[:kb, :kb] = np.tril(top[:kb, :kb], -1) + r_new
                    aux[("tt", i2, k)] = (v_top, v_bot, t, rows_eff)

                rt.submit(TaskKind.TPQRT,
                          reads=(a.ref(i1, k), a.ref(i2, k)),
                          writes=(a.ref(i1, k), ttref),
                          rank=a.owner(i1, k),
                          flops=F.tile_ttqrt(kb), tile_dim=a.nb,
                          fn=combine,
                          bytes_out=(a.tile_nbytes(i1, k)
                                     + (kb * kb + rows_eff * kb)
                                     * itemsize),
                          label=f"ttqrt({i1},{i2},{k})")

                for j in range(k + 1, a.nt):

                    def pairupd(i1=i1, i2=i2, j=j, k=k, kb=kb):
                        v_top, v_bot, t, rows_eff = aux[("tt", i2, k)]
                        ct = a.tile(i1, j)
                        cb = a.tile(i2, j)
                        new_t, new_b = kernels.tpmqrt_kernel(
                            v_top, v_bot, t, ct[:kb], cb[:rows_eff],
                            conj_trans=True)
                        ct[:kb] = new_t
                        cb[:rows_eff] = new_b

                    rt.submit(TaskKind.TPMQRT,
                              reads=(ttref,),
                              writes=(a.ref(i1, j), a.ref(i2, j)),
                              rank=a.owner(i1, j),
                              flops=F.tile_ttmqrt(kb, a.tile_cols(j)),
                              tile_dim=a.nb, fn=pairupd,
                              bytes_out=(a.tile_nbytes(i1, j)
                                         + a.tile_nbytes(i2, j)),
                              label=f"ttmqrt({i1},{i2},{j})")


def _set_econ_identity(rt: Runtime, q: DistMatrix) -> None:
    """Q workspace <- [I_n; 0] (tile-aligned: heights[k] == widths[k])."""
    for i in range(q.mt):
        for j in range(q.nt):

            def body(i=i, j=j):
                t = q.tile(i, j)
                t[...] = 0
                if i == j:
                    d = min(t.shape)
                    t[np.arange(d), np.arange(d)] = 1

            rt.submit(TaskKind.SET, reads=(), writes=(q.ref(i, j),),
                      rank=q.owner(i, j),
                      flops=float(q.tile_rows(i) * q.tile_cols(j)),
                      tile_dim=q.nb, fn=body,
                      bytes_out=q.tile_nbytes(i, j),
                      label=f"qeye({i},{j})")


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
    _set_econ_identity(rt, q)
    if fac.panel == "tree":
        _apply_q_tree(rt, fac, q)
        return q
    for k in reversed(range(fac.kt)):
        rt.advance_phase()
        kb = a.tile_cols(k)
        mb = a.tile_rows(k)
        tkk = fac.t_ref(k, k)
        for i in reversed(fac.active_rows(k)[1:]):
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            for j in range(k, q.nt):

                def pair_apply(k=k, i=i, j=j, kb=kb):
                    v_top, t = fac.aux[(i, k)]
                    top = q.tile(k, j)
                    new_top, new_bot = kernels.tpmqrt_kernel(
                        v_top, a.tile(i, k), t, top[:kb], q.tile(i, j),
                        conj_trans=False)
                    top[:kb] = new_top
                    q.tile(i, j)[...] = new_bot

                rt.submit(TaskKind.TPMQRT,
                          reads=(a.ref(i, k), tik),
                          writes=(q.ref(k, j), q.ref(i, j)),
                          rank=q.owner(i, j),
                          flops=F.tile_tpmqrt(mbi, q.tile_cols(j), kb),
                          tile_dim=q.nb, fn=pair_apply,
                          bytes_out=(q.tile_nbytes(k, j)
                                     + q.tile_nbytes(i, j)),
                          label=f"q.tpmqrt({i},{j},{k})")
        for j in range(k, q.nt):

            def head_apply(k=k, j=j):
                c = kernels.apply_q_kernel(a.tile(k, k), fac.aux[(k, k)],
                                           q.tile(k, j), conj_trans=False)
                q.tile(k, j)[...] = c

            rt.submit(TaskKind.UNMQR, reads=(a.ref(k, k), tkk),
                      writes=(q.ref(k, j),), rank=q.owner(k, j),
                      flops=F.tile_unmqr(mb, q.tile_cols(j), kb),
                      tile_dim=q.nb, fn=head_apply,
                      bytes_out=q.tile_nbytes(k, j),
                      label=f"q.unmqr({k},{j})")
    return q


def _apply_q_tree(rt: Runtime, fac: QRFactors, q: DistMatrix) -> None:
    """Apply a tree-panel Q to the [I; 0] workspace (reverse order)."""
    a = fac.a
    for k in reversed(range(fac.kt)):
        rt.advance_phase()
        kb = a.tile_cols(k)
        rows = fac.active_rows(k)
        heights = [a.tile_rows(i) for i in rows]
        rounds = _tree_rounds(heights, kb)
        for round_pairs in reversed(rounds):
            for p1, p2, _cap in round_pairs:
                i1, i2 = rows[p1], rows[p2]
                ttref = fac.tt_ref(i2, k)
                for j in range(k, q.nt):

                    def pairupd(i1=i1, i2=i2, j=j, k=k, kb=kb):
                        v_top, v_bot, t, rows_eff = fac.aux[("tt", i2, k)]
                        ct = q.tile(i1, j)
                        cb = q.tile(i2, j)
                        new_t, new_b = kernels.tpmqrt_kernel(
                            v_top, v_bot, t, ct[:kb], cb[:rows_eff],
                            conj_trans=False)
                        ct[:kb] = new_t
                        cb[:rows_eff] = new_b

                    rt.submit(TaskKind.TPMQRT, reads=(ttref,),
                              writes=(q.ref(i1, j), q.ref(i2, j)),
                              rank=q.owner(i1, j),
                              flops=F.tile_ttmqrt(kb, q.tile_cols(j)),
                              tile_dim=q.nb, fn=pairupd,
                              bytes_out=(q.tile_nbytes(i1, j)
                                         + q.tile_nbytes(i2, j)),
                              label=f"q.ttmqrt({i1},{i2},{j})")
        for i in rows:
            if i == fac.pristine_row(k):
                continue  # never geqrt-factored: its row Q is I
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            for j in range(k, q.nt):

                def rowapply(i=i, j=j, k=k):
                    c = kernels.apply_q_kernel(
                        a.tile(i, k), fac.aux[(i, k)], q.tile(i, j),
                        conj_trans=False)
                    q.tile(i, j)[...] = c

                rt.submit(TaskKind.UNMQR, reads=(a.ref(i, k), tik),
                          writes=(q.ref(i, j),), rank=q.owner(i, j),
                          flops=F.tile_unmqr(mbi, q.tile_cols(j), kb),
                          tile_dim=q.nb, fn=rowapply,
                          bytes_out=q.tile_nbytes(i, j),
                          label=f"q.ts.unmqr({i},{j})")


def qr_explicit(rt: Runtime, a: DistMatrix, *, panel: str = "tree",
                identity_from: Optional[int] = None
                ) -> Tuple[QRFactors, DistMatrix]:
    """Factor A (in place) and return (factors, explicit economy Q).

    ``identity_from``: see :func:`geqrf`.
    """
    fac = geqrf(rt, a, panel=panel, identity_from=identity_from)
    q = unmqr_identity(rt, fac)
    return fac, q
