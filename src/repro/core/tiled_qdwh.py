"""QDWH polar decomposition on the tiled/distributed substrate.

This is the reproduction's analogue of the paper's SLATE implementation
(Algorithm 1): every operation is a tiled, task-recorded, owner-computes
computation over a block-cyclic DistMatrix — norm2est, the QR-based
condition estimate, the stacked-QR iterations, the Cholesky iterations,
and the final H formation.

Two execution modes share this one code path:

* **numeric** — tiles hold real data; convergence tests read the actual
  scalar reductions; results match :func:`repro.core.qdwh` to roundoff.
* **symbolic** — no data; the loop is driven by the scalar weight
  schedule (which is data-independent given the condition estimate),
  emitting the exact task graph a run of that size would execute.  The
  performance model simulates this graph on a machine model.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..obs.qdwh_log import IterationLog
    from ..resilience.checkpoint import QdwhCheckpointer

from ..config import (
    QDWH_CHOLESKY_SWITCH,
    QDWH_HARD_ITERATION_CAP,
    qdwh_inner_tolerance,
    qdwh_weight_tolerance,
)
from ..dist.matrix import DistMatrix
from ..obs.metrics import get_registry
from ..obs.timeline import FAULT_HEALTH, FaultEvent
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind
from ..tiled.blas3 import (
    add,
    copy,
    gemm,
    herk,
    scale,
    set_identity,
    set_zero,
    transpose_conj,
)
from ..tiled.cholesky import posv
from ..tiled.estimators import norm2est_tiled, trcondest_tiled
from ..tiled.norms import norm_fro, norm_one
from ..tiled.qr import geqrf, qr_explicit
from .params import dynamical_weights


@dataclass
class TiledQdwhResult:
    """Outcome of a tiled QDWH run.

    ``degraded`` is True when a numerical health guard abandoned the
    tiled iteration and recomputed the factors on the dense
    :func:`repro.core.qdwh_dense.qdwh` path; ``health_log`` lists every
    guard intervention (also emitted as RuntimeWarnings, FAULT_HEALTH
    trace events, and ``RecoveryStats.health_events``).
    """

    u: DistMatrix
    h: DistMatrix
    iterations: int
    it_qr: int
    it_chol: int
    conv_history: List[float] = field(default_factory=list)
    alpha: float = 0.0
    l0: float = 0.0
    converged: bool = True
    degraded: bool = False
    health_log: List[str] = field(default_factory=list)


def _health(rt: Runtime, health_log: List[str], msg: str) -> None:
    """Record one numerical-health intervention everywhere it is
    visible: the result's ``health_log``, a RuntimeWarning, the metrics
    registry, the trace sink (FAULT_HEALTH), and — when a threaded
    executor is live — ``RecoveryStats.health_events``."""
    health_log.append(msg)
    warnings.warn(f"tiled_qdwh: {msg}", RuntimeWarning, stacklevel=3)
    get_registry().counter("resilience.health_events").inc()
    sink = rt._exec_sink
    if sink is not None:
        sink.on_fault(FaultEvent(kind=FAULT_HEALTH, time=0.0, rank=0,
                                 tid=-1, detail=msg))
    stats = rt.exec_stats
    if stats is not None:
        stats.recovery.health_events += 1


def _scatter_dense(mat: DistMatrix, arr: np.ndarray) -> None:
    """Driver-level scatter of a dense array into an existing matrix
    (checkpoint resume / dense-fallback install; not a tiled op)."""
    for i in range(mat.mt):
        r0 = mat.row_offsets[i]
        for j in range(mat.nt):
            c0 = mat.col_offsets[j]
            mat.set_tile(i, j, arr[r0:r0 + mat.tile_rows(i),
                                   c0:c0 + mat.tile_cols(j)])


def _copy_scaled(rt: Runtime, alpha: float, src: DistMatrix,
                 dst: DistMatrix, row_offset: int) -> None:
    """dst[offset tiles ...] = alpha * src (builds the sqrt(c)A block)."""
    for i in range(src.mt):
        di = i + row_offset
        for j in range(src.nt):

            def body(i=i, j=j, di=di):
                dst.tile(di, j)[...] = (dst.dtype.type(alpha)
                                        * src.tile(i, j))

            rt.submit(TaskKind.COPY, reads=(src.ref(i, j),),
                      writes=(dst.ref(di, j),), rank=dst.owner(di, j),
                      flops=float(src.tile_rows(i) * src.tile_cols(j)),
                      tile_dim=dst.nb, fn=body,
                      label=f"cpysc({i},{j})")


def _split_rows(rt: Runtime, q: DistMatrix, top_mt: int,
                template_top: DistMatrix) -> Tuple[DistMatrix, DistMatrix]:
    """Split Q (stacked) into Q1 (top_mt tile rows) and Q2 (rest).

    Q2's layout is shifted so each copy is owner-local (zero traffic) —
    the analogue of SLATE's submatrix views.
    """
    q1 = DistMatrix(rt, template_top.m, q.n, q.nb, q.dtype,
                    layout=q.layout, name="Q1",
                    row_heights=q.row_heights[:top_mt],
                    col_widths=q.col_widths)
    q2 = DistMatrix(rt, q.m - template_top.m, q.n, q.nb, q.dtype,
                    layout=q.layout.shifted(top_mt, 0), name="Q2",
                    row_heights=q.row_heights[top_mt:],
                    col_widths=q.col_widths)
    for i in range(q.mt):
        dst, di = (q1, i) if i < top_mt else (q2, i - top_mt)
        for j in range(q.nt):

            def body(i=i, j=j, dst=dst, di=di):
                dst.tile(di, j)[...] = q.tile(i, j)

            rt.submit(TaskKind.COPY, reads=(q.ref(i, j),),
                      writes=(dst.ref(di, j),), rank=dst.owner(di, j),
                      flops=float(q.tile_rows(i) * q.tile_cols(j)),
                      tile_dim=q.nb, fn=body,
                      label=f"split({i},{j})")
    return q1, q2


def _symmetrize(rt: Runtime, h: DistMatrix) -> None:
    """H = (H + H^H) / 2, tile-pair-wise."""
    for i in range(h.mt):
        for j in range(i + 1):
            if i == j:

                def body(i=i):
                    t = h.tile(i, i)
                    t[...] = 0.5 * (t + t.conj().T)

                rt.submit(TaskKind.ADD, reads=(h.ref(i, i),),
                          writes=(h.ref(i, i),), rank=h.owner(i, i),
                          flops=float(h.tile_rows(i) ** 2),
                          tile_dim=h.nb, fn=body,
                          label=f"symm({i},{i})")
            else:

                def body(i=i, j=j):
                    lo = h.tile(i, j)
                    up = h.tile(j, i)
                    s = 0.5 * (lo + up.conj().T)
                    lo[...] = s
                    up[...] = s.conj().T

                rt.submit(TaskKind.ADD,
                          reads=(h.ref(i, j), h.ref(j, i)),
                          writes=(h.ref(i, j), h.ref(j, i)),
                          rank=h.owner(i, j),
                          flops=2.0 * h.tile_rows(i) * h.tile_cols(j),
                          tile_dim=h.nb, fn=body,
                          label=f"symm({i},{j})")


def _qr_iteration(rt: Runtime, a: DistMatrix, wa: float, wb: float,
                  wc: float) -> None:
    """Eq. (1): stacked QR of [sqrt(c)A; I], A <- theta Q1 Q2^H + beta A."""
    sc = math.sqrt(wc)
    w = DistMatrix(rt, a.m + a.n, a.n, a.nb, a.dtype, layout=a.layout,
                   name="W",
                   row_heights=a.row_heights + a.col_widths,
                   col_widths=a.col_widths)
    rt.advance_phase()
    _copy_scaled(rt, sc, a, w, 0)
    set_identity(rt, w, row_offset=a.mt)
    _fac, q = qr_explicit(rt, w, identity_from=a.mt)
    q1, q2 = _split_rows(rt, q, a.mt, a)
    theta = (wa - wb / wc) / sc
    beta = wb / wc
    rt.advance_phase()
    gemm(rt, theta, q1, q2, beta, a, opb="C")


def _chol_iteration(rt: Runtime, a: DistMatrix, wa: float, wb: float,
                    wc: float) -> None:
    """Eq. (2): Z = I + c A^H A, posv solve, A <- beta A + theta X^H."""
    rt.advance_phase()
    z = DistMatrix(rt, a.n, a.n, a.nb, a.dtype, layout=a.layout, name="Z",
                   row_heights=a.col_widths, col_widths=a.col_widths)
    set_identity(rt, z)
    herk(rt, wc, a, 1.0, z, opa="C")
    rhs = transpose_conj(rt, a)          # A^H, n x m
    posv(rt, z, rhs)                     # X overwrites rhs
    xt = transpose_conj(rt, rhs)         # X^H, m x n
    beta = wb / wc
    theta = wa - beta
    rt.advance_phase()
    add(rt, theta, xt, beta, a)


#: Execution backends for numeric tiled runs.
BACKENDS = ("eager", "threads", "processes")

#: Graceful-degradation chain: when a parallel backend's recovery
#: budget is exhausted mid-run (worker crashes and network faults past
#: what the policy can absorb), the factorization is redone one rung
#: down, on the pristine input.
_BACKEND_FALLBACK = {"processes": "threads", "threads": "eager"}


def _demote_backend(rt: Runtime, backend: str) -> None:
    """Tear down a failed parallel executor and re-home ``rt`` on
    ``backend``.  Pending payloads are abandoned (their tile writes
    are untrustworthy) and live fault injection is disarmed — a
    degraded rerun must not replay the fault plan against the
    fallback backend."""
    with contextlib.suppress(Exception):
        rt.abandon_pending()
    if rt._executor is not None:
        with contextlib.suppress(Exception):
            rt._executor.close()
        rt._executor = None
    rt.fault_plan = None
    if backend == "eager":
        rt.disable_deferred()
    else:
        rt.enable_deferred(backend=backend)


def tiled_qdwh(rt: Runtime, a: DistMatrix, *,
               cond_est: Optional[float] = None,
               max_iter: int = QDWH_HARD_ITERATION_CAP,
               norm2est_sweeps: Optional[int] = None,
               condest_cycles: Optional[int] = None,
               iter_log: Optional["IterationLog"] = None,
               backend: str = "eager",
               workers: Optional[int] = None,
               checkpoint: Optional["QdwhCheckpointer"] = None
               ) -> TiledQdwhResult:
    """Algorithm 1 on the tiled substrate — see
    :func:`_tiled_qdwh_impl` for the full parameter reference.

    This wrapper adds **graceful backend degradation** (numeric mode):
    an unrecoverable executor failure on a parallel backend — a
    :class:`~repro.runtime.distributed.WorkerCrashError` or
    :class:`~repro.runtime.distributed.comm.CommError` surfacing after
    the recovery budget is spent — does not abort the factorization.
    The input copy taken before the first recorded task is scattered
    back and the run is redone one rung down the chain *processes →
    threads → eager* (fault injection disarmed), with ``degraded=True``
    on the result and the demotion recorded in ``health_log``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of "
                         f"{BACKENDS}")
    if backend == "eager" or not rt.numeric:
        return _tiled_qdwh_impl(
            rt, a, cond_est=cond_est, max_iter=max_iter,
            norm2est_sweeps=norm2est_sweeps,
            condest_cycles=condest_cycles, iter_log=iter_log,
            backend=backend, workers=workers, checkpoint=checkpoint)
    from ..runtime.distributed.comm import CommError
    from ..runtime.distributed.executor import WorkerCrashError
    # Captured before any task is recorded: whatever a parallel
    # backend later does to the shared tiles, this copy is pristine.
    pristine = a.to_array()
    health_log: List[str] = []
    bk = backend
    while True:
        try:
            res = _tiled_qdwh_impl(
                rt, a, cond_est=cond_est, max_iter=max_iter,
                norm2est_sweeps=norm2est_sweeps,
                condest_cycles=condest_cycles, iter_log=iter_log,
                backend=bk, workers=workers, checkpoint=checkpoint)
        except (WorkerCrashError, CommError) as exc:
            fb = _BACKEND_FALLBACK.get(bk)
            if fb is None:
                raise
            _health(rt, health_log,
                    f"{bk} backend failed ({type(exc).__name__}: {exc}); "
                    f"degrading to the {fb} backend on the pristine "
                    f"input")
            _demote_backend(rt, fb)
            _scatter_dense(a, pristine)
            bk = fb
            continue
        if health_log:
            res = dataclasses.replace(
                res, degraded=True,
                health_log=health_log + res.health_log)
        return res


def _tiled_qdwh_impl(rt: Runtime, a: DistMatrix, *,
               cond_est: Optional[float] = None,
               max_iter: int = QDWH_HARD_ITERATION_CAP,
               norm2est_sweeps: Optional[int] = None,
               condest_cycles: Optional[int] = None,
               iter_log: Optional["IterationLog"] = None,
               backend: str = "eager",
               workers: Optional[int] = None,
               checkpoint: Optional["QdwhCheckpointer"] = None
               ) -> TiledQdwhResult:
    """Algorithm 1 on the tiled substrate.

    Parameters
    ----------
    rt:
        The runtime (numeric or symbolic).
    a:
        m x n DistMatrix (m >= n); overwritten by the polar factor U.
    backend:
        ``"eager"`` (default) runs each task payload at submit time —
        the original single-threaded semantics, bit-identical to
        earlier releases.  ``"threads"`` switches the runtime to
        deferred recording and executes the DAG on a
        :class:`repro.runtime.parallel.ParallelExecutor` thread pool
        (real concurrency; numeric mode only).  ``"processes"``
        executes the DAG on a
        :class:`repro.runtime.distributed.ProcessExecutor` — forked
        worker processes scheduled centrally, with tiles in shared
        memory (GIL-free parallelism).  A runtime constructed with
        ``deferred=True`` already uses its configured deferred
        backend.
    workers:
        Execution lanes for ``backend="threads"`` / ``"processes"``
        (default: one per core), the driver included: ``workers=W`` is
        the driver plus ``W - 1`` pool threads / forked processes, so
        ``workers=1`` starts none.  Any count is bit-identical to eager
        execution on either backend.
    cond_est:
        Known condition estimate.  Optional in numeric mode (the tiled
        QR + trcondest stage runs otherwise); **required** in symbolic
        mode, where the iteration schedule must be known a priori.
        The planning bound is ``l0 = 1/(cond_est * sqrt(n))``, matching
        the deflation the practical estimator applies.
    norm2est_sweeps / condest_cycles:
        Fixed estimator iteration counts for symbolic runs.
    iter_log:
        Optional :class:`repro.obs.qdwh_log.IterationLog`: one record
        per iteration (variant, weights, convergence).  In symbolic
        mode the convergence column is NaN (no numeric data flows).
    checkpoint:
        Optional :class:`repro.resilience.checkpoint.QdwhCheckpointer`
        (numeric mode only; ignored for symbolic runs).  The loop state
        is saved per the checkpointer's policy after each iteration —
        on the threaded backend always *after* ``rt.sync()``, so a
        snapshot only ever captures committed tile state — and a
        matching checkpoint found on entry resumes the loop mid-run
        (stale state from a different input is ignored, exactly as in
        the dense driver).  A converged run clears the directory.

    Numerical health guards (numeric mode)
    --------------------------------------
    The iteration defends itself against corrupted data and estimator
    failures instead of crashing or silently diverging:

    * unusable ``norm2est`` / condition estimates fall back to
      conservative bounds (Frobenius norm; ``l0 = tiny``);
    * a Cholesky-iteration breakdown (``posv`` raising
      ``LinAlgError``) redoes that step with the unconditionally
      stable QR iteration;
    * a non-finite or exploding iterate, and non-convergence at the
      hard iteration cap, degrade to the dense
      :func:`repro.core.qdwh_dense.qdwh` path on the pristine input
      copy (``degraded=True`` on the result) with a RuntimeWarning
      instead of raising.

    Every intervention is appended to the result's ``health_log`` and
    emitted as a FAULT_HEALTH trace event.

    Returns
    -------
    TiledQdwhResult with ``u`` aliasing ``a`` (overwritten, as in the
    paper) and a fresh ``h``.
    """
    m, n = a.shape
    if m < n:
        raise ValueError(f"QDWH requires m >= n, got {m} x {n}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of "
                         f"{BACKENDS}")
    if backend in ("threads", "processes"):
        if not rt.numeric:
            raise ValueError(
                f"backend={backend!r} requires a numeric runtime")
        rt.enable_deferred(workers=workers, backend=backend)
    dt = a.dtype
    if n == 0:
        # Empty problem: no tasks, no iterations — the trace/simulate
        # paths must survive a zero-task DAG rather than divide by the
        # (undefined) condition deflation below.
        h = DistMatrix(rt, 0, 0, a.nb, dt, layout=a.layout, name="H")
        rt.sync()  # flush any pending window from the caller
        return TiledQdwhResult(u=a, h=h, iterations=0, it_qr=0,
                               it_chol=0, alpha=0.0, l0=0.0)
    inner_tol = qdwh_inner_tolerance(dt)
    weight_tol = qdwh_weight_tolerance(dt)

    if not rt.numeric and cond_est is None:
        raise ValueError("symbolic tiled_qdwh requires cond_est")

    health_log: List[str] = []
    #: cond_est as handed to a dense fallback; nulled when the guard
    #: below finds it unusable (the dense driver validates it too).
    dense_cond = cond_est

    # --- Checkpoint resume (numeric only, mirrors the dense driver). ---
    resume_state = ckpt_fp = None
    if not rt.numeric:
        checkpoint = None
    if checkpoint is not None:
        from ..resilience.checkpoint import input_fingerprint
        ckpt_fp = input_fingerprint(a.to_array())
        state = checkpoint.load()
        if state is not None:
            saved = np.asarray(state["ak"])
            if (saved.shape != (m, n) or saved.dtype != dt
                    or state.get("fingerprint") != ckpt_fp):
                state = None  # stale checkpoint from a different problem
        resume_state = state

    # Backup A for the final H = U^H A (Algorithm 1, line 8).
    acpy = DistMatrix(rt, m, n, a.nb, dt, layout=a.layout, name="Acpy",
                      row_heights=a.row_heights, col_widths=a.col_widths)
    copy(rt, a, acpy)

    if resume_state is not None:
        # Skip estimation and scaling: reinstall the saved (already
        # scaled) iterate.  set_tile syncs the acpy copy above first,
        # so the backup still captures the *original* input.
        _scatter_dense(a, np.asarray(resume_state["ak"]))
        alpha = float(resume_state["alpha"])
        l0 = float(resume_state["l0"])
    else:
        # --- Two-norm estimate and scaling (lines 10-13). ---
        rt.advance_phase()
        alpha_res = norm2est_tiled(rt, a, sweeps=norm2est_sweeps)
        if rt.numeric:
            alpha = alpha_res.value
            if not np.isfinite(alpha) or alpha < 0.0:
                # Health guard: the power iteration came back with
                # garbage.  ||A||_F >= ||A||_2 is a safe scaling bound.
                _health(rt, health_log,
                        f"norm2est returned {alpha!r}; falling back to "
                        f"the Frobenius-norm upper bound")
                alpha = float(norm_fro(rt, a).value)
                if not np.isfinite(alpha):
                    raise ValueError(
                        "input matrix contains non-finite entries")
            if alpha == 0.0:
                # Zero matrix: conventional polar factors U = [I; 0], H = 0.
                set_identity(rt, a, zero_below=True)
                h = DistMatrix(rt, n, n, a.nb, dt, layout=a.layout, name="H",
                               row_heights=a.col_widths,
                               col_widths=a.col_widths)
                set_zero(rt, h)
                rt.sync()  # materialize U = [I; 0], H = 0 before returning
                return TiledQdwhResult(u=a, h=h, iterations=0, it_qr=0,
                                       it_chol=0, alpha=0.0, l0=0.0,
                                       health_log=health_log)
            alpha *= 1.1  # estimator safety margin, as in the dense driver
        else:
            alpha = 1.0
        rt.advance_phase()
        scale(rt, 1.0 / alpha, a)

        # --- Condition estimate -> l0 (lines 14-19). ---
        # The paper's stage 1 (QR + trcondest) runs when there is no
        # estimate to plan with, and in symbolic mode regardless so the
        # simulated cost includes it.
        if cond_est is None or not rt.numeric:
            w1 = DistMatrix(rt, m, n, a.nb, dt, layout=a.layout, name="W1c",
                            row_heights=a.row_heights,
                            col_widths=a.col_widths)
            copy(rt, a, w1)
            fac = geqrf(rt, w1)
            rcond = trcondest_tiled(rt, fac, cycles=condest_cycles)
            anorm = norm_one(rt, a)
        if cond_est is None:
            l0 = anorm.value * rcond.value / math.sqrt(n)
            if not np.isfinite(l0) or l0 <= 0.0:
                _health(rt, health_log,
                        f"condition estimator returned unusable "
                        f"l0={l0!r}; using the conservative default "
                        f"lower bound")
                l0 = float(np.finfo(np.float64).tiny)
            l0 = min(l0, 1.0)
        elif not (np.isfinite(cond_est) and cond_est >= 1.0):
            # Health guard: a nonsense user/caller estimate must not
            # poison the weight recurrence; tiny is always a valid (if
            # slow) lower bound on sigma_min.
            _health(rt, health_log,
                    f"unusable cond_est={cond_est!r}; using the "
                    f"conservative default lower bound")
            dense_cond = None
            l0 = float(np.finfo(np.float64).tiny)
        else:
            l0 = 1.0 / (cond_est * math.sqrt(n))

    conv_history: List[float] = []
    weight_history: List[Tuple[float, float, float]] = []
    it = it_qr = it_chol = 0
    converged = True
    if iter_log is not None:
        iter_log.m, iter_log.n = m, n

    if resume_state is not None:
        li = float(resume_state["li"])
        conv = float(resume_state["conv"])
        it = int(resume_state["it"])
        it_qr = int(resume_state["it_qr"])
        it_chol = int(resume_state["it_chol"])
        conv_history = [float(c) for c in resume_state["conv_history"]]
        weight_history = [tuple(float(x) for x in w)
                          for w in resume_state["weight_history"]]
    else:
        li = l0
        # Symbolic runs have no matrix difference to test: the weight
        # criterion alone drives the loop (the schedule is data-free).
        conv = 100.0 if rt.numeric else 0.0
    #: QDWH iterates stay in the unit-ball image of the rational
    #: map (||A_k||_2 <~ 1.3), so ||A_k - A_{k-1}||_F can never
    #: legitimately exceed ~2.6 sqrt(n); beyond this bound the
    #: iterate has been corrupted.
    conv_guard = 4.0 * math.sqrt(n) + 4.0

    def _degrade(reason: str) -> TiledQdwhResult:
        """Last-resort path: redo the factorization densely on the
        pristine input backup and scatter the factors back."""
        _health(rt, health_log, reason)
        from .qdwh_dense import qdwh as dense_qdwh
        res = dense_qdwh(acpy.to_array(), cond_est=dense_cond,
                         max_iter=QDWH_HARD_ITERATION_CAP)
        _scatter_dense(a, res.u)
        hh = DistMatrix(rt, n, n, a.nb, dt, layout=a.layout, name="H",
                        row_heights=a.col_widths,
                        col_widths=a.col_widths)
        _scatter_dense(hh, res.h)
        if checkpoint is not None and res.converged:
            checkpoint.clear()
        return TiledQdwhResult(
            u=a, h=hh, iterations=it + res.iterations,
            it_qr=it_qr + res.it_qr, it_chol=it_chol + res.it_chol,
            conv_history=conv_history + [float(c) for c
                                         in res.conv_history],
            alpha=float(res.alpha), l0=float(res.l0),
            converged=res.converged, degraded=True,
            health_log=health_log)

    prev = DistMatrix(rt, m, n, a.nb, dt, layout=a.layout, name="prev",
                      row_heights=a.row_heights, col_widths=a.col_widths)
    while conv >= inner_tol or abs(li - 1.0) >= weight_tol:
        if it >= max_iter:
            if rt.numeric and max_iter >= QDWH_HARD_ITERATION_CAP:
                # Health guard: out of budget at the hard cap.
                # Raising would discard the run; hand the pristine
                # input to the dense driver instead.
                return _degrade(
                    f"no convergence after {it} iterations "
                    f"(conv={conv:.3e}, |li-1|={abs(li - 1.0):.3e}); "
                    f"degrading to the dense QDWH path")
            # A deliberately small budget (interrupt/checkpoint
            # workflows, a truncated plan) keeps the partial result.
            converged = False
            break
        l_enter = li
        wa, wb, wc, li = dynamical_weights(li)
        variant = "qr" if wc > QDWH_CHOLESKY_SWITCH else "chol"
        copy(rt, a, prev)
        if variant == "qr":
            _qr_iteration(rt, a, wa, wb, wc)
            it_qr += 1
        else:
            try:
                # Commit prev = A_{k-1} first: a breakdown must be
                # recoverable from prev, so it cannot share an
                # execution window with the posv that may raise.
                rt.sync()
                _chol_iteration(rt, a, wa, wb, wc)
                rt.sync()  # deferred: surface the breakdown here
                it_chol += 1
            except np.linalg.LinAlgError as exc:
                # Health guard: Z = I + c A^H A not SPD (corrupted
                # or ill-conditioned iterate).  A is written only
                # by the final add, which depends on the complete
                # posv solve, so the iterate is still A_{k-1};
                # drop the dead window and redo the step with the
                # unconditionally stable QR variant.
                _health(rt, health_log,
                        f"Cholesky breakdown at iteration {it + 1} "
                        f"({exc}); redoing the step with the QR "
                        f"iteration")
                rt.abandon_pending()
                copy(rt, prev, a)  # defensive restore + re-chains epochs
                _qr_iteration(rt, a, wa, wb, wc)
                it_qr += 1
                variant = "qr"
        rt.advance_phase()
        add(rt, 1.0, a, -1.0, prev)  # prev = A_k - A_{k-1}
        diff = norm_fro(rt, prev)
        if rt.numeric:
            conv = float(diff.value)
            if not np.isfinite(conv) or conv > conv_guard:
                # Health guard: NaN/Inf or an exploding iterate —
                # corruption slipped past the executor's defenses.
                return _degrade(
                    f"iterate health check failed at iteration {it + 1} "
                    f"(||A_k - A_k-1||_F = {conv!r}); degrading to the "
                    f"dense QDWH path")
            conv_history.append(conv)
        weight_history.append((wa, wb, wc))
        it += 1
        if iter_log is not None:
            iter_log.record(variant=variant,
                            a=wa, b=wb, c=wc, L=l_enter, L_next=li,
                            conv=conv if rt.numeric else math.nan)
        if checkpoint is not None and checkpoint.due(it):
            rt.sync()  # checkpoint only committed tile state
            checkpoint.save(ak=a.to_array(), li=li, conv=conv, it=it,
                            it_qr=it_qr, it_chol=it_chol, alpha=alpha,
                            l0=l0, conv_history=conv_history,
                            weight_history=weight_history,
                            fingerprint=ckpt_fp)

    # --- H = U^H A, symmetrized (line 52). ---
    rt.advance_phase()
    h = DistMatrix(rt, n, n, a.nb, dt, layout=a.layout, name="H",
                   row_heights=a.col_widths, col_widths=a.col_widths)
    gemm(rt, 1.0, a, acpy, 0.0, h, opa="C")
    _symmetrize(rt, h)

    rt.sync()  # deferred backend: execute the tail window (H formation)
    if checkpoint is not None and converged:
        checkpoint.clear()
    return TiledQdwhResult(u=a, h=h, iterations=it, it_qr=it_qr,
                           it_chol=it_chol, conv_history=conv_history,
                           alpha=float(alpha), l0=float(l0),
                           converged=converged, health_log=health_log)
