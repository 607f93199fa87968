"""CI smoke check for live fault tolerance on the threaded backend.

Runs the paper's worst-case workload (kappa = 1e16, float64) at a
CI-friendly size through ``backend="threads"`` with a seeded FaultPlan
firing transients, worker stalls, and one NaN tile corruption inside
real worker threads, and asserts the recovering executor delivers the
fault-free answer: convergence without dense degradation, backward
error within the condition-scaled budget of the clean run, every
injected fault visible in RecoveryStats, and zero leaked in-flight
attempts after the final sync.
"""

from __future__ import annotations

import numpy as np

from repro.bench import write_result
from repro.config import backward_error_bound
from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix, polar_report
from repro.obs import TimelineSink
from repro.resilience import (
    FaultPlan,
    TileCorruption,
    TransientFaults,
    WorkerStall,
)
from repro.resilience.live import RecoveryPolicy
from repro.runtime import Runtime

N = 256
NB = 64
COND = 1e16
SEED = 11


def test_live_faults_threads4_converges(once):
    def body():
        a = generate_matrix(N, cond=COND, seed=SEED)

        rt0 = Runtime(ProcessGrid(1, 1))
        d0 = DistMatrix.from_array(rt0, a.copy(), NB)
        res0 = tiled_qdwh(rt0, d0)
        rep0 = polar_report(a, d0.to_array(), res0.h.to_array())
        rt0.close()

        plan = FaultPlan(
            seed=SEED,
            transient=TransientFaults(probability=0.1, max_attempts=4),
            stalls=(WorkerStall(probability=0.05, seconds=0.05),),
            corruptions=(TileCorruption(probability=0.5, max_events=1),))
        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), sink=sink, faults=plan,
                     recovery=RecoveryPolicy(max_retries=3, backoff=1e-4,
                                             scrub_writes=True))
        d = DistMatrix.from_array(rt, a.copy(), NB)
        res = tiled_qdwh(rt, d, backend="threads", workers=4)
        rep = polar_report(a, d.to_array(), res.h.to_array())
        rec = rt.exec_stats.recovery
        leaked = rt.executor.inflight_attempts
        rt.close()
        return res0, rep0, res, rep, rec, leaked, sink

    res0, rep0, res, rep, rec, leaked, sink = once(body)

    assert res.converged and not res.degraded
    assert res.iterations == res0.iterations

    tol = max(backward_error_bound(np.float64, COND), 10.0 * rep0.backward)
    assert rep.backward <= tol
    assert rep.orthogonality < 5e-13

    # Every fault class fired and was recovered.
    assert rec.transient_failures >= 3
    assert rec.retried_tasks >= 3
    assert rec.injected_stalls >= 1
    assert rec.corrupted_tiles >= 1
    assert rec.health_events == 0  # scrubbing kept NaNs out
    assert leaked == 0
    assert len(sink.faults) > 0

    write_result("live_fault_smoke", (
        f"live fault smoke: n={N}, nb={NB}, kappa={COND:.0e}, "
        f"threads x4 -> {res.iterations} iterations "
        f"({res.it_qr} QR + {res.it_chol} Chol), "
        f"berr {rep.backward:.3e} (clean {rep0.backward:.3e}), "
        f"{rec.transient_failures} transients retried, "
        f"{rec.injected_stalls} stalls, "
        f"{rec.corrupted_tiles} corruptions scrubbed, "
        f"0 leaked attempts\n"))
