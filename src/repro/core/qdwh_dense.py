"""Reference dense QDWH polar decomposition (Algorithm 1 of the paper).

This is the numerically authoritative implementation: plain numpy/LAPACK
on contiguous arrays, supporting the four standard dtypes and
rectangular matrices with m >= n.  The tiled/distributed implementation
(:mod:`repro.core.tiled_qdwh`) is validated against it, and it stands in
for the "ScaLAPACK/POLAR" numerical behaviour in the accuracy figures
(Fig. 1a/1b) — POLAR computes the same arithmetic through PBLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np
import scipy.linalg as sla

if TYPE_CHECKING:
    from ..obs.qdwh_log import IterationLog
    from ..resilience.checkpoint import QdwhCheckpointer

from ..config import (
    QDWH_CHOLESKY_SWITCH,
    QDWH_HARD_ITERATION_CAP,
    check_dtype,
    qdwh_inner_tolerance,
    qdwh_weight_tolerance,
)
from .estimators import norm2est, trcondest
from .params import dynamical_weights


@dataclass
class QdwhResult:
    """Outcome of a QDWH polar decomposition ``A = U @ H``.

    Attributes
    ----------
    u:
        The unitary (orthonormal-columns) polar factor, m x n.
    h:
        The Hermitian positive semidefinite factor, n x n.
    iterations:
        Total iteration count.
    it_qr, it_chol:
        Split into QR-based and Cholesky-based iterations (the paper's
        #it_QR and #it_Chol).
    conv_history:
        ``||A_k - A_{k-1}||_F`` per iteration.
    weight_history:
        The (a, b, c) triple used at each iteration.
    alpha:
        The 2-norm estimate used to scale A.
    l0:
        Initial lower bound on the singular values of the scaled matrix.
    converged:
        False only if the hard iteration cap was hit.
    """

    u: np.ndarray
    h: np.ndarray
    iterations: int
    it_qr: int
    it_chol: int
    conv_history: List[float] = field(default_factory=list)
    weight_history: List[tuple] = field(default_factory=list)
    alpha: float = 0.0
    l0: float = 0.0
    converged: bool = True


def _initial_lower_bound(a0: np.ndarray) -> float:
    """l0 = ||A0||_1 * rcond_1(R) / sqrt(n)  (Algorithm 1, lines 14-19).

    QR-factorize the scaled matrix and estimate the reciprocal condition
    number of R.  The sqrt(n) deflation makes l0 a genuine lower bound
    on sigma_min(A0) up to the estimator's fuzz.
    """
    n = a0.shape[1]
    anorm = float(np.max(np.sum(np.abs(a0), axis=0)))
    r = np.linalg.qr(a0, mode="r")
    rcond = trcondest(np.ascontiguousarray(r[:n, :n]))
    l0 = anorm * rcond / np.sqrt(n)
    if not np.isfinite(l0) or l0 <= 0.0:
        # Singular to working precision: run the worst-case schedule.
        l0 = float(np.finfo(np.float64).tiny)
    return min(l0, 1.0)


def _qr_iteration(a: np.ndarray, weight_a: float, weight_b: float,
                  weight_c: float) -> np.ndarray:
    """One inverse-free QR-based iteration, Eq. (1) / Alg. 1 lines 30-36."""
    m, n = a.shape
    dt = a.dtype
    # Keep scalars as python floats: numpy scalar types are "strong" under
    # NEP 50 and would silently promote float32 iterates to float64.
    sc = math.sqrt(weight_c)
    # W = [ sqrt(c) * A_{k-1} ; I ],  (m+n) x n.
    w = np.empty((m + n, n), dtype=dt)
    w[:m] = sc * a
    w[m:] = np.eye(n, dtype=dt)
    # Economy QR, explicit Q = [Q1; Q2].
    q, _ = np.linalg.qr(w)
    q1, q2 = q[:m], q[m:]
    # A_k = (1/sqrt(c)) (a - b/c) Q1 Q2^H + (b/c) A_{k-1}.
    theta = (weight_a - weight_b / weight_c) / sc
    beta = weight_b / weight_c
    return theta * (q1 @ q2.conj().T) + beta * a


def _chol_iteration(a: np.ndarray, weight_a: float, weight_b: float,
                    weight_c: float) -> np.ndarray:
    """One Cholesky-based iteration, Eq. (2) / Alg. 1 lines 38-44."""
    m, n = a.shape
    dt = a.dtype
    # Z = I + c A^H A  (herk).
    z = weight_c * (a.conj().T @ a)
    z[np.diag_indices(n)] += 1.0
    # posv: Cholesky-factor Z and solve Z X = A^H; then A Z^{-1} = X^H.
    chol, lower = sla.cho_factor(z, lower=True, check_finite=False)
    x = sla.cho_solve((chol, lower), a.conj().T, check_finite=False)
    beta = weight_b / weight_c
    theta = weight_a - beta
    return beta * a + theta * x.conj().T.astype(dt, copy=False)


def qdwh(a: np.ndarray, *,
         cond_est: Optional[float] = None,
         alpha: Optional[float] = None,
         max_iter: int = QDWH_HARD_ITERATION_CAP,
         exact_norms: bool = False,
         iter_log: Optional["IterationLog"] = None,
         checkpoint: Optional["QdwhCheckpointer"] = None) -> QdwhResult:
    """QDWH polar decomposition of an m x n matrix (m >= n).

    Parameters
    ----------
    a:
        Input matrix; any of float32/float64/complex64/complex128.
    cond_est:
        Optional known estimate of cond_2(A).  When given, the QR-based
        condition-estimation stage is skipped and the initial bound is
        ``l0 = 1/(cond_est * sqrt(n))`` — the same defensive sqrt(n)
        deflation the estimated path applies.
    alpha:
        Optional known estimate of ``||A||_2``; skips norm2est.
    max_iter:
        Hard safety cap (the theory guarantees 6 in double precision).
    exact_norms:
        Use exact ``||A||_2`` and exact ``sigma_min`` instead of the
        estimators (testing aid: isolates iteration behaviour from
        estimator fuzz).
    iter_log:
        Optional :class:`repro.obs.qdwh_log.IterationLog`; when given,
        one telemetry record (variant, weights, convergence, condition
        estimate, flops) is appended per iteration.  Default off: the
        return value and signature contract are unchanged.
    checkpoint:
        Optional :class:`repro.resilience.checkpoint.QdwhCheckpointer`.
        The full loop state is written per its policy after each
        iteration, and a matching checkpoint found on entry resumes
        the loop mid-run.  The iterate round-trips losslessly, so an
        interrupted-and-resumed run returns bit-identical ``u`` and
        ``h`` to an uninterrupted one.  Checkpoints carry a content
        fingerprint of ``a`` — state left behind by a *different*
        input (even of the same shape and dtype) is ignored — and a
        run that converges clears the checkpoint directory.

    Returns
    -------
    QdwhResult
        With ``u`` m x n (orthonormal columns), ``h`` n x n Hermitian
        PSD such that ``a ~= u @ h``.
    """
    a = np.asarray(a)
    dt = check_dtype(a.dtype)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    m, n = a.shape
    if m < n:
        raise ValueError(
            f"QDWH requires m >= n (paper supports tall rectangular); "
            f"got {m} x {n}. Factor A^H instead.")
    if n == 0:
        return QdwhResult(u=a.copy(), h=np.zeros((0, 0), dtype=dt),
                          iterations=0, it_qr=0, it_chol=0)
    if not np.isfinite(a).all():
        raise ValueError("input matrix contains non-finite entries")

    a_orig = a

    # --- Resume from the newest checkpoint, if one matches. ---
    state = ckpt_fp = None
    if checkpoint is not None:
        from ..resilience.checkpoint import input_fingerprint
        ckpt_fp = input_fingerprint(a)
        state = checkpoint.load()
    if state is not None:
        saved = np.asarray(state["ak"])
        if (saved.shape != (m, n) or saved.dtype != dt
                or state.get("fingerprint") != ckpt_fp):
            state = None  # stale checkpoint from a different problem

    if state is not None:
        ak = saved
        li, conv = state["li"], state["conv"]
        it, it_qr, it_chol = state["it"], state["it_qr"], state["it_chol"]
        alpha, l0 = state["alpha"], state["l0"]
        conv_history = list(state["conv_history"])
        weight_history = list(state["weight_history"])
    else:
        # --- Scale: A_0 = A / alpha,  alpha ~ ||A||_2  (lines 10-13). ---
        if alpha is None:
            alpha = (float(np.linalg.norm(a, 2)) if exact_norms
                     else norm2est(a))
        if alpha == 0.0:
            # Zero matrix: U = [I; 0] padding is the conventional choice.
            u = np.zeros((m, n), dtype=dt)
            u[:n, :n] = np.eye(n, dtype=dt)
            return QdwhResult(u=u, h=np.zeros((n, n), dtype=dt),
                              iterations=0, it_qr=0, it_chol=0, alpha=0.0)
        # Guard: alpha is only an estimate (within ~10%); inflate
        # slightly so the scaled matrix truly has 2-norm <= 1 as the
        # weights assume.
        if not exact_norms:
            alpha *= 1.1
        ak = (a / dt.type(alpha)).astype(dt, copy=False)

        # --- Condition estimate -> l0 (lines 14-19). ---
        if cond_est is not None:
            if cond_est < 1.0:
                raise ValueError(f"cond_est must be >= 1, got {cond_est}")
            # Apply the same defensive sqrt(n) deflation as the
            # estimated path (and the tiled implementation): l0 must be
            # a *lower* bound on sigma_min for the weight recurrence's
            # guarantees.
            l0 = 1.0 / (cond_est * math.sqrt(n))
        elif exact_norms:
            smin = float(np.linalg.svd(ak, compute_uv=False)[-1])
            l0 = max(smin, float(np.finfo(np.float64).tiny))
        else:
            l0 = _initial_lower_bound(ak)
        li = l0
        conv = 100.0
        it = it_qr = it_chol = 0
        conv_history = []
        weight_history = []

    inner_tol = qdwh_inner_tolerance(dt)
    weight_tol = qdwh_weight_tolerance(dt)
    if iter_log is not None:
        iter_log.m, iter_log.n = m, n

    # --- Main loop (lines 22-50). ---
    while conv >= inner_tol or abs(li - 1.0) >= weight_tol:
        if it >= max_iter:
            break
        l_enter = li
        wa, wb, wc, li = dynamical_weights(li)
        prev = ak
        use_qr = wc > QDWH_CHOLESKY_SWITCH
        if use_qr:
            ak = _qr_iteration(ak, wa, wb, wc)
            it_qr += 1
        else:
            ak = _chol_iteration(ak, wa, wb, wc)
            it_chol += 1
        conv = float(np.linalg.norm(ak - prev, "fro"))
        conv_history.append(conv)
        weight_history.append((wa, wb, wc))
        it += 1
        if iter_log is not None:
            iter_log.record(variant="qr" if use_qr else "chol",
                            a=wa, b=wb, c=wc, L=l_enter, L_next=li,
                            conv=conv)
        if checkpoint is not None and checkpoint.due(it):
            checkpoint.save(ak=ak, li=li, conv=conv, it=it, it_qr=it_qr,
                            it_chol=it_chol, alpha=float(alpha),
                            l0=float(l0), conv_history=conv_history,
                            weight_history=weight_history,
                            fingerprint=ckpt_fp)

    converged = conv < inner_tol and abs(li - 1.0) < weight_tol
    if checkpoint is not None and converged:
        # A finished run's checkpoints are spent; a later run must
        # start fresh, not resume from this one's converged state.
        checkpoint.clear()

    # --- H = U_p^H A, symmetrized (line 52). ---
    u = ak
    h = u.conj().T @ a_orig
    h = 0.5 * (h + h.conj().T)

    return QdwhResult(u=u, h=h, iterations=it, it_qr=it_qr, it_chol=it_chol,
                      conv_history=conv_history, weight_history=weight_history,
                      alpha=float(alpha), l0=float(l0), converged=converged)
