"""Smoke test of the multi-process distributed backend.

Runs the paper's headline numeric workload (kappa = 1e16, float64) at
a CI-friendly size through ``backend="processes"`` with 4 workers and
gates on the invariants the distributed runtime owes regardless of
host speed: convergence, paper-level accuracy, bit-identity with the
eager backend, zero in-flight attempts after the final sync, and zero
shared-memory segments left in ``/dev/shm``.  No timing assertion —
on a 1-core runner fork + IPC overhead legitimately dominates, and
the perf trajectory is tracked by ``python -m perfbench`` instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix, polar_report
from repro.runtime import Runtime
from repro.runtime.distributed import scan_segments

N = 512
NB = 64
WORKERS = 4


def _qdwh(backend, workers=None):
    rt = Runtime(ProcessGrid(1, 1), deferred=backend != "eager",
                 workers=workers)
    a = generate_matrix(N, cond=1e16, dtype=np.float64, seed=0)
    da = DistMatrix.from_array(rt, a, NB)
    res = tiled_qdwh(rt, da, backend=backend, workers=workers)
    u, h = res.u.to_array(), res.h.to_array()
    ex = rt._executor
    leaked = ex.inflight_attempts if backend == "processes" else 0
    prefix = ex.store.prefix if backend == "processes" else None
    rt.close()
    shm = scan_segments(prefix) if prefix is not None else []
    return a, u, h, res, leaked, shm


def test_processes4_converges_without_leaks(once):
    def body():
        return _qdwh("processes", WORKERS)

    a, u, h, res, leaked, shm = once(body)
    assert res.converged and not res.degraded
    rep = polar_report(a, u, h)
    assert rep.orthogonality < 1e-13
    assert rep.backward < 1e-13
    assert leaked == 0, f"{leaked} in-flight attempts leaked"
    assert shm == [], f"leaked shm segments: {shm}"


def test_processes4_bit_identical_to_eager(once):
    def body():
        _, u0, h0, _, _, _ = _qdwh("eager")
        a, u, h, res, leaked, shm = _qdwh("processes", WORKERS)
        return u0, h0, u, h, res, leaked, shm

    u0, h0, u, h, res, leaked, shm = once(body)
    assert res.converged
    assert np.array_equal(u, u0), "processes(4) U differs from eager"
    assert np.array_equal(h, h0), "processes(4) H differs from eager"
    assert leaked == 0 and shm == []
