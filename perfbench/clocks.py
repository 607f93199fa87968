"""The seven clocks and the correctness gate around each call.

An *operation* is one clock call.  It fails on an exception,
``converged=False``, ``degraded=True`` or a non-empty ``health_log``
(a silent dense fallback would otherwise read as a speed-up),
``polar_report`` beyond the fixed float64 bounds, a leaked ``/dev/shm``
segment or live child after ``rt.close()``, or — for the modelled
clock — a non-finite, non-positive or inverted makespan.
"""

from __future__ import annotations

import contextlib
import gc
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (DistMatrix, ProcessGrid, Runtime, generate_matrix,
                   polar_report, qdwh, simulate_qdwh, summit, tiled_qdwh)
from repro.resilience import RecoveryPolicy
from repro.runtime.distributed.shm import scan_segments

from .env import WORKERS
from .spec import ACCURACY_BOUNDS, MIN_SAMPLE_S, Workload
from .trace import Tracer

#: Modelled implementations the ``sim`` clock runs.  ``slate_gpu`` is the
#: paper's headline configuration; ``slate_cpu`` against ``scalapack`` is
#: the same hardware under task-based vs fork-join scheduling, the one
#: ordering the model guarantees at every size (at 192/nb=32 the
#: modelled GPU loses to the CPUs, as a real one would).
SIM_IMPLS = ("slate_gpu", "slate_cpu", "scalapack")


@dataclass
class Problem:
    """A workload instantiated from a seed."""

    workload: Workload
    seed: int
    a: np.ndarray

    @classmethod
    def make(cls, workload: Workload, seed: int) -> "Problem":
        a = generate_matrix(workload.m, workload.n, cond=workload.cond,
                            dtype=np.float64, seed=seed)
        return cls(workload, seed, a)


@dataclass
class Ledger:
    """Attempted/failed operation counts and why each failure failed."""

    attempted: int = 0
    failed: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)

    def record(self, clock: str, reasons: List[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.append({"clock": clock,
                                  "reasons": "; ".join(reasons)})

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """One operation: its timed seconds and what the probes reuse."""

    seconds: float
    reasons: List[str]
    #: clock-specific facts (iteration and task counts, executor
    #: counters, modelled makespans, span timings; with ``keep`` the
    #: factors, graph and executor stats too).
    info: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checks (pure functions, unit-tested with forced failures)
# ---------------------------------------------------------------------------

def check_accuracy(report: object) -> List[str]:
    """``polar_report`` against the fixed float64 bounds."""
    reasons = []
    for name, bound in ACCURACY_BOUNDS.items():
        value = getattr(report, name)
        if not value <= bound:  # also catches NaN
            reasons.append(f"{name}={value:.3e} beyond {bound:.0e}")
    return reasons


def check_result(res: object) -> List[str]:
    """Solver status: a fallback or a health intervention is a failure."""
    reasons = []
    if not res.converged:
        reasons.append("converged=False")
    if getattr(res, "degraded", False):
        reasons.append("degraded=True")
    log = getattr(res, "health_log", None)
    if log:
        reasons.append(f"health_log={list(log)!r}")
    return reasons


def check_leaks() -> List[str]:
    """Nothing of a closed runtime may outlive it: no shared-memory
    segment of this process in ``/dev/shm``, no live worker process."""
    reasons = []
    leaked = scan_segments(f"repro{os.getpid()}x")
    if leaked:
        reasons.append(f"leaked /dev/shm segments {leaked[:3]}"
                       f"{'...' if len(leaked) > 3 else ''}")
    alive = multiprocessing.active_children()
    if alive:
        reasons.append(f"{len(alive)} live child process(es) after close")
    return reasons


def check_sim(makespans: Dict[str, float]) -> List[str]:
    """Modelled makespans are finite, positive, and task-based scheduling
    beats fork-join on the same CPUs (the paper's qualitative claim)."""
    reasons = [f"{impl} makespan {v!r} not finite and positive"
               for impl, v in makespans.items()
               if not (math.isfinite(v) and v > 0.0)]
    if not reasons and not makespans["slate_cpu"] < makespans["scalapack"]:
        reasons.append(
            f"modelled task-based makespan {makespans['slate_cpu']:.6g} s "
            f"not below fork-join {makespans['scalapack']:.6g} s")
    return reasons


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

def _span(tracer: Optional[Tracer], name: str, **args: object):
    return tracer.span(name, **args) if tracer is not None \
        else contextlib.nullcontext()


def dense_clock(p: Problem, tracer: Optional[Tracer] = None) -> Outcome:
    """``repro.qdwh(a)``: plain single-threaded LAPACK baseline."""
    with _span(tracer, "core.qdwh"):
        t0 = perf_counter()
        res = qdwh(p.a)
        seconds = perf_counter() - t0
    with _span(tracer, "matrices.verify"):
        reasons = check_result(res) + check_accuracy(
            polar_report(p.a, res.u, res.h))
    return Outcome(seconds, reasons, {
        "iterations": res.iterations, "it_qr": res.it_qr,
        "it_chol": res.it_chol})


def tiled_clock(p: Problem, backend: str, *, guarded: bool = False,
                workers: int = WORKERS, sink: object = None,
                tracer: Optional[Tracer] = None,
                keep: bool = False) -> Outcome:
    """``tiled_qdwh`` on one backend; the timed region is that call only
    (``from_array``/``to_array``/verify are outside it).  ``keep`` also
    returns the factors, the recorded graph and the executor's stats."""
    w = p.workload
    info: Dict[str, object] = {}
    rt = Runtime(ProcessGrid(1, 1), sanitize=None, sink=sink,
                 recovery=RecoveryPolicy() if guarded else None)
    try:
        with _span(tracer, "dist.from_array"):
            t0 = perf_counter()
            d = DistMatrix.from_array(rt, p.a, w.nb, name="A")
            info["from_array_s"] = perf_counter() - t0
        with _span(tracer, "core.tiled_qdwh", backend=backend,
                   guarded=guarded, workers=workers):
            info["origin"] = t0 = perf_counter()
            res = tiled_qdwh(rt, d, backend=backend,
                             workers=None if backend == "eager" else workers)
            seconds = perf_counter() - t0
        with _span(tracer, "dist.to_array"):
            t0 = perf_counter()
            u, h = res.u.to_array(), res.h.to_array()
            info["to_array_s"] = perf_counter() - t0
        stats = rt.exec_stats
        info.update(iterations=res.iterations, it_qr=res.it_qr,
                    it_chol=res.it_chol, tasks=len(rt.graph.tasks),
                    counts=rt.graph.counts_by_kind())
        if stats is not None:
            info.update(windows=stats.windows,
                        comm_messages=stats.comm_messages,
                        comm_bytes=stats.comm_bytes)
        if backend == "processes":
            names = scan_segments(f"repro{os.getpid()}x")
            info["shm_segments"] = len(names)
            info["shm_bytes"] = sum(
                os.path.getsize(os.path.join("/dev/shm", n)) for n in names)
        if keep:
            info.update(graph=rt.graph, stats=stats)
    finally:
        rt.close()
    with _span(tracer, "matrices.verify"):
        t0 = perf_counter()
        reasons = (check_result(res) + check_accuracy(polar_report(p.a, u, h))
                   + check_leaks())
        info["verify_s"] = perf_counter() - t0
    if keep:
        info["u"], info["h"] = u, h
    return Outcome(seconds, reasons, info)


def sim_clock(p: Problem, tracer: Optional[Tracer] = None) -> Outcome:
    """Symbolic record on a 2x2 grid plus ``simulate()`` for each
    modelled implementation: the same ``Runtime``/``TaskGraph`` layers,
    the modelled scheduler instead of executors."""
    w = p.workload
    makespans: Dict[str, float] = {}
    with _span(tracer, "perf.simulate_qdwh"):
        t0 = perf_counter()
        for impl in SIM_IMPLS:
            pt = simulate_qdwh(summit(), 2, w.n, impl, nb=w.nb, m=w.m,
                               cond=w.cond, max_tiles=10 ** 6)
            makespans[impl] = pt.makespan
        seconds = perf_counter() - t0
    return Outcome(seconds, check_sim(makespans),
                   {"makespans": makespans, "tasks": pt.task_count})


CLOCK_FNS: Dict[str, Callable[..., Outcome]] = {
    "dense": dense_clock,
    "eager": lambda p, **kw: tiled_clock(p, "eager", **kw),
    "threads": lambda p, **kw: tiled_clock(p, "threads", **kw),
    "processes": lambda p, **kw: tiled_clock(p, "processes", **kw),
    "threads_guarded": lambda p, **kw: tiled_clock(
        p, "threads", guarded=True, **kw),
    "processes_guarded": lambda p, **kw: tiled_clock(
        p, "processes", guarded=True, **kw),
    "sim": sim_clock,
}


def run_op(clock: str, p: Problem, ledger: Ledger,
           **kw: object) -> Optional[Outcome]:
    """One counted operation; ``None`` when it failed."""
    gc.collect()  # garbage of the previous call is not this call's cost
    try:
        out = CLOCK_FNS[clock](p, **kw)
    except Exception as exc:  # an operation that raises is a failed one
        ledger.record(clock, [f"{type(exc).__name__}: {exc}"])
        return None
    ledger.record(clock, out.reasons)
    return None if out.reasons else out


def sample(clock: str, p: Problem, ledger: Ledger,
           min_seconds: float = MIN_SAMPLE_S
           ) -> Tuple[Optional[float], Optional[Outcome]]:
    """One per-round sample: the mean seconds per call over back-to-back
    calls until ``min_seconds`` of timed work has accumulated."""
    total, calls = 0.0, 0
    while True:
        out = run_op(clock, p, ledger)
        if out is None:
            return None, None
        total += out.seconds
        calls += 1
        if total >= min_seconds:
            return total / calls, out
