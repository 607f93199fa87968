"""A1-A4 — ablations of the design choices DESIGN.md calls out.

A1: lookahead depth (the task-based runtime's key lever);
A2: GPU-aware MPI / NIC placement (the Frontier-vs-Summit discussion);
A3: gemmA vs naive placement inside norm2est (Section 6.2);
A4: task-based vs fork-join on identical hardware (isolates runtime).
"""

from __future__ import annotations

import dataclasses

from repro.bench import format_table, write_result
from repro.machines import frontier, summit
from repro.perf.model import simulate_custom, simulate_qdwh

N = 60_000
MT = 12


def test_a1_lookahead_depth(once):
    depths = (0, 1, 2, 4, None)

    def body():
        return [simulate_custom(summit(), 4, N, ranks_per_node=2,
                                use_gpu=True, lookahead=d,
                                max_tiles=MT).tflops
                for d in depths]

    perf = once(body)
    text = format_table(
        "A1: lookahead depth on 4 Summit nodes (GPU, n=60k; depth 0 = "
        "bulk-synchronous panels, None = unbounded DAG order)",
        ["lookahead", "Tflop/s"],
        [["inf" if d is None else d, p] for d, p in zip(depths, perf)])
    write_result("ablation_lookahead", text)

    # Non-decreasing up to Graham's list-scheduling anomalies (a tighter
    # eligible set can shorten a greedy schedule by a few percent; same
    # margin as tests/test_scheduler_properties.py ANOMALY_MARGIN), and a
    # real win from 0 -> unbounded.
    assert all(a * 0.97 <= b for a, b in zip(perf, perf[1:]))
    assert perf[-1] > 1.15 * perf[0]


def test_a2_gpu_aware_mpi(once):
    def body():
        fr = frontier()
        staged = dataclasses.replace(
            fr, network=dataclasses.replace(fr.network, nic_on_gpu=False))
        direct_p = simulate_qdwh(fr, 8, 120_000, "slate_gpu",
                                 max_tiles=MT)
        staged_p = simulate_qdwh(staged, 8, 120_000, "slate_gpu",
                                 max_tiles=MT)
        return direct_p, staged_p

    direct_p, staged_p = once(body)
    text = format_table(
        "A2: GPU-aware MPI on Frontier (NIC on GPU vs staged through "
        "host), 8 nodes, n=120k",
        ["config", "Tflop/s", "staging GB"],
        [["nic_on_gpu (real Frontier)", direct_p.tflops,
          direct_p.schedule.comm.staging_bytes / 1e9],
         ["staged through CPU", staged_p.tflops,
          staged_p.schedule.comm.staging_bytes / 1e9]])
    write_result("ablation_gpu_aware_mpi", text)

    assert direct_p.tflops >= staged_p.tflops
    assert (staged_p.schedule.comm.staging_bytes
            > direct_p.schedule.comm.staging_bytes)


def test_a3_gemma_vs_owner_c(once):
    """Communication volume of norm2est with gemmA vs naive placement."""
    from repro.dist import DistMatrix, ProcessGrid
    from repro.runtime import Runtime
    from repro.runtime.scheduler import simulate, taskbased_config
    from repro.tiled import norm2est_tiled

    def volume(use_gemm_a):
        rt = Runtime(ProcessGrid(2, 2), numeric=False)
        da = DistMatrix(rt, 16_384, 16_384, 1024)
        norm2est_tiled(rt, da, sweeps=4, use_gemm_a=use_gemm_a)
        cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
        r = simulate(rt.graph, cfg)
        return r.comm.total_bytes, r.makespan

    def body():
        return volume(True), volume(False)

    (b_a, t_a), (b_c, t_c) = once(body)
    text = format_table(
        "A3: norm2est data movement — gemmA (compute at A's owners) "
        "vs owner-of-C placement (n=16k, 4 sweeps)",
        ["variant", "comm bytes", "simulated time (s)"],
        [["gemmA (paper)", b_a, t_a], ["owner-of-C", b_c, t_c]])
    write_result("ablation_gemma", text)

    assert b_a < b_c / 3       # gemmA moves far less data
    assert t_a <= t_c * 1.001  # and is never slower


def test_a4_runtime_model(once):
    """Task-based vs fork-join on identical CPU hardware."""
    def body():
        tb = simulate_custom(summit(), 4, N, ranks_per_node=2,
                             use_gpu=False, lookahead=None, max_tiles=MT)
        fj_op = simulate_qdwh(summit(), 4, N, "scalapack", max_tiles=MT)
        fj_phase = simulate_custom(summit(), 4, N, ranks_per_node=2,
                                   use_gpu=False, lookahead=0,
                                   barrier_per_phase=True, max_tiles=MT)
        return tb, fj_op, fj_phase

    tb, fj_op, fj_phase = once(body)
    text = format_table(
        "A4: runtime model on identical hardware (4 Summit nodes, "
        "CPU, n=60k)",
        ["runtime", "Tflop/s"],
        [["task-based (SLATE)", tb.tflops],
         ["fork-join per op (ScaLAPACK)", fj_op.tflops],
         ["fork-join per panel (strict BSP)", fj_phase.tflops]])
    write_result("ablation_runtime", text)

    assert tb.tflops >= fj_op.tflops * 0.999
    assert fj_op.tflops >= fj_phase.tflops * 0.999
    assert tb.tflops > 1.25 * fj_phase.tflops
