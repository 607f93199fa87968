#!/usr/bin/env python
"""The tiled, task-based QDWH — the paper's SLATE implementation.

Runs Algorithm 1 on the block-cyclic tiled substrate: real numerics,
plus the recorded task DAG, which is then simulated on the Summit
machine model under both the task-based (SLATE) and fork-join
(ScaLAPACK) execution models.

Run:  python examples/distributed_qdwh.py
"""

import numpy as np

from repro import DistMatrix, ProcessGrid, Runtime, tiled_qdwh
from repro.machines import summit
from repro.matrices import ill_conditioned, polar_report
from repro.runtime import simulate
from repro.runtime.scheduler import forkjoin_config, taskbased_config
from repro.obs import kernel_breakdown, rank_utilization


def main() -> None:
    n, nb = 512, 64
    grid = ProcessGrid(2, 2)
    print(f"QDWH on a {n} x {n} ill-conditioned matrix, "
          f"nb = {nb}, {grid.p} x {grid.q} process grid")

    a = ill_conditioned(n, seed=0)
    rt = Runtime(grid)  # numeric mode: tiles hold real data
    da = DistMatrix.from_array(rt, a, nb, name="A")
    res = tiled_qdwh(rt, da)

    rep = polar_report(a, res.u.to_array(), res.h.to_array())
    print(f"\nNumerics: {res.iterations} iterations "
          f"({res.it_qr} QR + {res.it_chol} Cholesky)")
    print(f"  orthogonality error: {rep.orthogonality:.3e}")
    print(f"  backward error:      {rep.backward:.3e}")

    g = rt.graph
    print(f"\nRecorded task DAG: {len(g)} tasks, "
          f"{sum(len(t.deps) for t in g.tasks)} dependency edges")
    top = sorted(g.counts_by_kind().items(), key=lambda kv: -kv[1])[:6]
    print("  busiest kinds:", ", ".join(f"{k}={v}" for k, v in top))

    print("\nSimulating this DAG on the Summit model (4 ranks, 2 nodes):")
    machine = summit()
    for name, cfg in [
        ("task-based + GPUs (SLATE)",
         taskbased_config(machine, 2, 2, use_gpu=True)),
        ("task-based, CPU only",
         taskbased_config(machine, 2, 2, use_gpu=False)),
        ("fork-join, CPU only (ScaLAPACK model)",
         forkjoin_config(machine, 2, 2)),
    ]:
        r = simulate(g, cfg)
        util = rank_utilization(r)
        print(f"  {name:<38} makespan {r.makespan * 1e3:8.2f} ms, "
              f"mean rank utilization {util['mean']:.2f}")

    r = simulate(g, taskbased_config(machine, 2, 2, use_gpu=True))
    print("\nPer-kernel busy-time breakdown (GPU run):")
    for kind, busy, share in kernel_breakdown(r)[:5]:
        print(f"  {kind:>8}: {share * 100:5.1f}%")
    print("\nCommunication:", r.comm.as_dict()["bytes"])


if __name__ == "__main__":
    main()
