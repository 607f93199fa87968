"""Per-layer probes: time calls into each layer's public functions at the
workload's tile shape, dtype and recorded task counts.

Every probe returns ``{metric name: value}``.  A probe whose public
symbol has disappeared (a later refactor) raises ``ImportError`` or
``AttributeError``; the runner then reports its metrics as ``null``
under ``layers_skipped`` with the reason — that is not a failed
operation.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.linalg as sla

from repro import DistMatrix, ProcessGrid, Runtime, simulate, summit, tiled_qdwh
from repro import flops as F

from .clocks import Outcome, Problem
from .env import WORKERS
from .spec import Workload
from .trace import Tracer

#: No-op dispatch probes submit this many tasks per window.
NOOP_TASKS = 2000
#: One-task windows timed for the window floor.
FLOOR_WINDOWS = 30
#: Round trips per comm probe.
RTT_TRIPS = 200


def per_call(fn: Callable[[], object], min_seconds: float = 0.05,
             min_calls: int = 7) -> float:
    """Median seconds per call of ``fn`` (one warm-up call first)."""
    fn()
    samples: List[float] = []
    total = 0.0
    while total < min_seconds or len(samples) < min_calls:
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        samples.append(dt)
        total += dt
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# tiled.kernels
# ---------------------------------------------------------------------------

def kernel_times(w: Workload) -> Dict[str, float]:
    """Seconds per call of each task kind's payload at an nb x nb tile,
    keyed by ``TaskKind.value``."""
    from repro.tiled import kernels as K

    nb = w.nb
    rng = np.random.default_rng(0)
    a = rng.standard_normal((nb, nb))
    b = rng.standard_normal((nb, nb))
    c = np.zeros((nb, nb))
    x = rng.standard_normal(nb)
    spd = a @ a.T + nb * np.eye(nb)
    low = np.linalg.cholesky(spd)
    v_tile, t = K.geqrt_kernel(a)
    tri = np.triu(b)
    _r, v_top, v_bot, tt = K.tpqrt_kernel(np.triu(v_tile), tri)

    def gemm() -> None:
        nonlocal c
        c += 1.0 * (a @ b)

    def herk() -> None:
        nonlocal c
        upd = 1.0 * (a @ a.conj().T)
        c += 0.5 * (upd + upd.conj().T)

    def add() -> None:
        nonlocal c
        c *= 0.5
        c += 0.5 * a

    def scale() -> None:
        c[...] *= 0.999

    def copy() -> None:
        c[...] = a

    def set_() -> None:
        c[...] = 0

    return {
        "geqrt": per_call(lambda: K.geqrt_kernel(a)),
        "tpqrt": per_call(lambda: K.tpqrt_kernel(np.triu(v_tile), tri)),
        "tpmqrt": per_call(lambda: K.tpmqrt_kernel(
            v_top, v_bot, tt, a, b, conj_trans=True)),
        "unmqr": per_call(lambda: K.apply_q_kernel(
            v_tile, t, b, conj_trans=True)),
        "potrf": per_call(lambda: K.potrf_kernel(spd)),
        "trsm": per_call(lambda: K.trsm_kernel(
            low, b, lower=True, conj_trans=False)),
        "gemm": per_call(gemm),
        "herk": per_call(herk),
        "add": per_call(add),
        "scale": per_call(scale),
        "copy": per_call(copy),
        "set": per_call(set_),
        "norm": per_call(lambda: np.sum(np.abs(a), axis=0)),
        "gemv": per_call(lambda: a @ x),
        "solve_vec": per_call(lambda: sla.solve_triangular(
            low, x, lower=True, check_finite=False)),
        "reduce": per_call(lambda: np.add(x, x)),
    }


def probe_kernels(w: Workload, counts: Dict[str, int]) -> Dict[str, float]:
    """Kernel probe times and the *computed* kernel floor of one eager
    run: sum over task kinds of recorded count x probe time."""
    t = kernel_times(w)
    us = 1e6
    return {
        "kernels.geqrt_us": t["geqrt"] * us,
        "kernels.tpqrt_us": t["tpqrt"] * us,
        "kernels.tpmqrt_us": t["tpmqrt"] * us,
        "kernels.apply_q_us": t["unmqr"] * us,
        "kernels.potrf_us": t["potrf"] * us,
        "kernels.trsm_us": t["trsm"] * us,
        "kernels.gemm_us": t["gemm"] * us,
        "kernels.gemm_gflops": F.gemm(w.nb, w.nb, w.nb) / t["gemm"] / 1e9,
        "kernels.floor_s": sum(n * t.get(kind, 0.0)
                               for kind, n in counts.items()),
    }


# ---------------------------------------------------------------------------
# tiled
# ---------------------------------------------------------------------------

def _eager() -> Runtime:
    return Runtime(ProcessGrid(1, 1), sanitize=None)


def probe_tiled(p: Problem) -> Dict[str, float]:
    """The three tiled building blocks of one QDWH iteration, eager, at
    the workload's shapes, against their LAPACK equivalents."""
    from repro.tiled import gemm, posv, qr_explicit

    w = p.workload
    a = p.a / np.linalg.norm(p.a, 2)
    stack = np.vstack([10.0 * a, np.eye(w.n)])
    z = np.eye(w.n) + 100.0 * (a.conj().T @ a)
    rhs = np.ascontiguousarray(a.conj().T)

    def qr_stack() -> float:
        rt = _eager()
        d = DistMatrix.from_array(rt, stack, w.nb)
        t0 = perf_counter()
        qr_explicit(rt, d)
        return perf_counter() - t0

    def posv_tiled() -> float:
        rt = _eager()
        dz = DistMatrix.from_array(rt, z, w.nb)
        db = DistMatrix.from_array(rt, rhs, w.nb)
        t0 = perf_counter()
        posv(rt, dz, db)
        return perf_counter() - t0

    def gemm_tiled() -> float:
        rt = _eager()
        q1 = DistMatrix.from_array(rt, p.a, w.nb)
        q2 = DistMatrix.from_array(rt, z, w.nb)
        c = DistMatrix(rt, w.m, w.n, w.nb)
        t0 = perf_counter()
        gemm(rt, 1.0, q1, q2, 0.0, c, opb="C")
        return perf_counter() - t0

    def med3(fn: Callable[[], float]) -> float:
        return statistics.median(fn() for _ in range(3))

    qr_s, posv_s = med3(qr_stack), med3(posv_tiled)
    qr_lapack = per_call(lambda: sla.qr(stack, mode="economic"),
                         min_calls=3)
    posv_lapack = per_call(lambda: sla.solve(z, rhs, assume_a="pos"),
                           min_calls=3)
    return {
        "tiled.qr_stack_s": qr_s,
        "tiled.qr_stack_over_lapack": qr_s / qr_lapack,
        "tiled.posv_s": posv_s,
        "tiled.posv_over_lapack": posv_s / posv_lapack,
        "tiled.gemm_s": med3(gemm_tiled),
    }


# ---------------------------------------------------------------------------
# runtime.executor + runtime.graph, perf + runtime.scheduler
# ---------------------------------------------------------------------------

def _record(w: Workload, grid: ProcessGrid) -> tuple:
    """Symbolic ``tiled_qdwh``: (runtime, seconds to record)."""
    rt = Runtime(grid, numeric=False, tile_dim_hint=w.nb)
    a = DistMatrix(rt, w.m, w.n, w.nb, np.float64, name="A")
    t0 = perf_counter()
    tiled_qdwh(rt, a, cond_est=w.cond)
    return rt, perf_counter() - t0


def probe_record(w: Workload) -> Dict[str, float]:
    """Cost of recording and validating the graph, per task."""
    rt, rec = _record(w, ProcessGrid(1, 1))
    n = len(rt.graph.tasks)
    val = per_call(rt.graph.validate, min_calls=3)
    return {"runtime.record_us_per_task": rec / n * 1e6,
            "graph.validate_us_per_task": val / n * 1e6}


def probe_model(w: Workload) -> Dict[str, float]:
    """Record on the 2x2 grid the ``sim`` clock uses, and the modelled
    scheduler alone over that graph."""
    from repro.runtime.scheduler import taskbased_config

    rt, rec = _record(w, ProcessGrid(2, 2))
    n = len(rt.graph.tasks)
    cfg = taskbased_config(summit(), 2, 2, use_gpu=True)
    sim = per_call(lambda: simulate(rt.graph, cfg), min_calls=3)
    return {"perf.record_us_per_task": rec / n * 1e6,
            "scheduler.simulate_us_per_task": sim / n * 1e6}


# ---------------------------------------------------------------------------
# runtime.parallel, runtime.distributed.executor, resilience
# ---------------------------------------------------------------------------

def _noop() -> None:
    pass


def noop_dispatch(w: Workload, backend: str, workers: int,
                  guarded: bool = False) -> Dict[str, float]:
    """Dispatch cost without kernels: ``NOOP_TASKS`` no-op tasks with
    gemm-like footprints in one window, then one-task windows."""
    from repro.resilience import RecoveryPolicy
    from repro.runtime.task import TaskKind

    nt = max(2, w.n // w.nb)
    rt = Runtime(ProcessGrid(1, 1), deferred=True, backend=backend,
                 workers=workers, sanitize=None,
                 recovery=RecoveryPolicy() if guarded else None)
    try:
        a, b, c = (DistMatrix(rt, nt * w.nb, nt * w.nb, w.nb, np.float64,
                              name=s) for s in "abc")

        def submit(i: int, j: int, k: int) -> None:
            rt.submit(TaskKind.GEMM, reads=(a.ref(i, k), b.ref(k, j)),
                      writes=(c.ref(i, j),), rank=0, fn=_noop,
                      label="noop")

        submit(0, 0, 0)
        rt.sync()  # pool / first fork / shm pin outside the timed windows
        t0 = perf_counter()
        for s in range(NOOP_TASKS):
            submit(s % nt, (s // nt) % nt, (s // (nt * nt)) % nt)
        rt.sync()
        per_task = (perf_counter() - t0) / NOOP_TASKS
        floors = []
        for _ in range(FLOOR_WINDOWS):
            t0 = perf_counter()
            submit(0, 0, 0)
            rt.sync()
            floors.append(perf_counter() - t0)
    finally:
        rt.close()
    return {"us_per_task": per_task * 1e6,
            "window_floor_ms": statistics.median(floors) * 1e3}


def probe_dispatch(w: Workload) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layer, backend in (("parallel", "threads"),
                           ("distributed", "processes")):
        full = noop_dispatch(w, backend, WORKERS)
        one = noop_dispatch(w, backend, 1)
        guarded = noop_dispatch(w, backend, WORKERS, guarded=True)
        out[f"{layer}.noop_us_per_task"] = full["us_per_task"]
        out[f"{layer}.noop_w1_us_per_task"] = one["us_per_task"]
        out[f"{layer}.window_floor_ms"] = full["window_floor_ms"]
        out[f"resilience.{backend}_noop_guarded_us_per_task"] = \
            guarded["us_per_task"]
    return out


# ---------------------------------------------------------------------------
# runtime.distributed.comm
# ---------------------------------------------------------------------------

#: The frame ``ProcessExecutor`` sends per dispatched task.
TASK_FRAME = {"op": "task", "tid": 4321, "attempt": 0, "side": []}


def _rtt(address: str, wrap: Optional[Callable] = None) -> float:
    """Seconds per request/reply round trip over ``address`` against an
    echo thread; ``wrap(comm, role)`` layers a protocol over each end."""
    from repro.runtime.distributed import comm as C

    lst = C.listen(address)
    ends: List[object] = []

    def serve() -> None:
        srv = lst.accept()
        if wrap is not None:
            srv = wrap(srv, "worker")
        ends.append(srv)
        try:
            while True:
                srv.send(srv.recv(timeout=5.0))
        except C.CommError:
            pass  # client closed: the probe is over

    th = threading.Thread(target=serve, daemon=True)
    th.start()
    cli = C.connect(lst.address)
    if wrap is not None:
        cli = wrap(cli, "driver")
    try:
        for _ in range(20):
            cli.send(TASK_FRAME)
            cli.recv(timeout=5.0)
        t0 = perf_counter()
        for _ in range(RTT_TRIPS):
            cli.send(TASK_FRAME)
            cli.recv(timeout=5.0)
        rtt = (perf_counter() - t0) / RTT_TRIPS
    finally:
        cli.close()
        th.join(timeout=10.0)
        for end in ends:
            end.close()
        lst.close()
    return rtt


def probe_comm() -> Dict[str, float]:
    import os

    from repro.runtime.distributed import comm as C
    from repro.runtime.distributed.reliable import ReliableComm

    frame = C.encode_frame(TASK_FRAME)
    codec, payload = frame[8], frame[9:]
    tcp = _rtt("tcp://127.0.0.1:0")
    reliable = _rtt("tcp://127.0.0.1:0",
                    lambda comm, role: ReliableComm(comm, role=role))
    return {
        "comm.encode_us": per_call(
            lambda: C.encode_frame(TASK_FRAME)) * 1e6,
        "comm.decode_us": per_call(
            lambda: C.decode_frame(codec, payload)) * 1e6,
        "comm.inproc_rtt_us": _rtt(
            f"inproc://perfbench-{os.getpid()}") * 1e6,
        "comm.tcp_rtt_us": tcp * 1e6,
        "comm.reliable_rtt_us": reliable * 1e6,
        "comm.reliable_over_plain": reliable / tcp,
    }


# ---------------------------------------------------------------------------
# runtime.distributed.shm
# ---------------------------------------------------------------------------

def probe_shm(p: Problem) -> Dict[str, float]:
    """Cost of moving the input's tiles into shared memory."""
    from repro.runtime.distributed.shm import SharedTileStore

    w = p.workload
    rt = _eager()
    d = DistMatrix.from_array(rt, p.a, w.nb)
    with SharedTileStore() as store:
        t0 = perf_counter()
        for i in range(d.mt):
            for j in range(d.nt):
                store.pin_tile(d, i, j, (d.tile_rows(i), d.tile_cols(j)),
                               d.dtype)
        dt = perf_counter() - t0
    return {"shm.pin_us_per_tile": dt / (d.mt * d.nt) * 1e6}


# ---------------------------------------------------------------------------
# obs
# ---------------------------------------------------------------------------

def probe_obs(traced: Outcome, sink: object, threads_s: float
              ) -> Dict[str, float]:
    """What the ``TimelineSink`` costs and what it explains."""
    from repro.obs import critical_path

    cp = critical_path(traced.info["graph"], sink.tasks)
    return {
        "obs.sink_overhead_frac": traced.seconds / threads_s - 1.0,
        "obs.events": len(sink.tasks),
        "obs.cp_task_s": cp.task_seconds,
        "obs.cp_wait_s": cp.wait_seconds,
        "obs.utilization": traced.info["stats"].utilization,
    }


def run_probe(name: str, fn: Callable[[], Dict[str, float]],
              metrics: Dict[str, Optional[float]],
              skipped: Dict[str, str], owned: List[str],
              tracer: Tracer) -> None:
    """Run one probe under a span; a vanished public symbol skips it."""
    try:
        with tracer.span(f"probe.{name}"):
            metrics.update(fn())
    except (ImportError, AttributeError) as exc:
        for m in owned:
            metrics[m] = None
            skipped[m] = f"{type(exc).__name__}: {exc}"
