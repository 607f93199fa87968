"""What is measured: workloads, clocks and the metric tables.

``BENCHMARK.json`` at the repo root restates the workloads and metrics
of this module for the pipeline; ``perfbench/tests`` checks the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One float64 Algorithm-1 problem: ``generate_matrix(m, n, cond=cond,
    seed=S)`` tiled at ``nb``."""

    name: str
    m: int
    n: int
    nb: int
    cond: float
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "small_tiles", 160, 160, 32, 1e4,
        "3996 tasks of about 22 us: record, dispatch, window spawn, frames "
        "and GIL hand-off do almost all the work above the eager floor"),
    Workload(
        "big_tiles", 768, 768, 192, 1e4,
        "2300 tasks of about 0.5 ms: kernels dominate, dispatch cost should "
        "barely show; the only place real parallel speed-up is visible"),
    Workload(
        "illcond_tall", 768, 384, 128, 1e16,
        "kappa=1e16 on the m>n path: 6 iterations (3 stacked QR + 3 "
        "Cholesky), mid granularity; iteration-count and QR-tree changes "
        "show here"),
)

#: ``--smoke`` stand-in: every clock, probe and writer in a few seconds.
SMOKE = Workload("smoke", 64, 64, 32, 1e4,
                 "2x2 tiles: exercises every code path of the benchmark, "
                 "measures nothing")

#: The warm-up problem of ``setup_s``: small enough that set-up measures
#: imports, BLAS init, the thread pool and the first forks, not kernels.
WARMUP = Workload("warmup", 64, 64, 32, 1e4, "setup warm-up")


def workload(name: str) -> Workload:
    for w in WORKLOADS + (SMOKE,):
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; expected one of "
                   f"{[w.name for w in WORKLOADS]}")


#: The seven clocks, in round-robin order: each ratio's denominator runs
#: just before its numerator.
CLOCKS: Tuple[str, ...] = ("dense", "eager", "sim", "threads", "processes",
                           "threads_guarded", "processes_guarded")
#: The clocks that start threads or processes.
PARALLEL_CLOCKS: Tuple[str, ...] = CLOCKS[3:]
#: The host calibration sampled at the start of every round; not a clock.
CALIB = "calib"

#: Per-round ratios (numerator, denominator).  The host's speed changes by
#: up to 1.6x for minutes at a time; a ratio of two samples of one round
#: cancels that, raw seconds cannot.  Chained, they tie every clock to the
#: calibration, which no change to this repository can move.
RATIOS: Dict[str, Tuple[str, str]] = {
    "dense_over_calib": ("dense", CALIB),
    "eager_over_dense": ("eager", "dense"),
    "sim_over_eager": ("sim", "eager"),
    "threads_over_eager": ("threads", "eager"),
    "processes_over_eager": ("processes", "eager"),
    "threads_guarded_over_threads": ("threads_guarded", "threads"),
}
#: The clocks some gated ratio uses (all but ``processes_guarded``).
GATED_CLOCKS: Tuple[str, ...] = tuple(
    c for c in CLOCKS if any(c in pair for pair in RATIOS.values()))

#: A clock call shorter than this is repeated back to back until this
#: much time has accumulated; the sample is the mean per call.
MIN_SAMPLE_S = 0.25
#: Rounds of the full set (``python -m perfbench``); pipeline runs are
#: bounded by ``--seconds`` instead, with this floor.
FULL_ROUNDS = 5
MIN_ROUNDS = 3

#: float64 acceptance bounds of ``polar_report`` (the seed gives <= 4 eps
#: orthogonality everywhere and ~500 eps backward on illcond_tall).
ACCURACY_BOUNDS = {"orthogonality": 1e-13, "h_hermitian": 1e-13,
                   "h_psd_defect": 1e-13, "backward": 1e-11}

#: (name, unit, bound) — all lower-is-better.  Raw seconds are layer
#: metrics (below), not gated: ten pipeline runs spread them by 30-55 % of
#: the median when the host changes speed in between (README, "Noise").
#: The bounds are the widest the pipeline allows because the ratios' own
#: ten-run spreads reach 19 % in a noisy hour (2-12 % in a calm one).
END_TO_END: Tuple[Tuple[str, str, float], ...] = (
    ("setup_s", "s", 0.25),
    ("dense_over_calib", "ratio", 0.25),
    ("eager_over_dense", "ratio", 0.25),
    ("sim_over_eager", "ratio", 0.25),
    ("threads_over_eager", "ratio", 0.25),
    ("processes_over_eager", "ratio", 0.25),
    ("threads_guarded_over_threads", "ratio", 0.25),
    ("peak_rss_mb", "MB", 0.25),
)

#: (name, unit, better, layer) — measured from perfbench/ by timing calls
#: into each layer's public functions; no bound.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("dense_s", "s", "lower", "clock"),
    ("eager_s", "s", "lower", "clock"),
    ("sim_s", "s", "lower", "clock"),
    ("threads_s", "s", "lower", "clock"),
    ("processes_s", "s", "lower", "clock"),
    ("threads_guarded_s", "s", "lower", "clock"),
    ("processes_guarded_s", "s", "lower", "clock"),
    ("core.iterations", "count", "lower", "core"),
    ("core.it_qr", "count", "lower", "core"),
    ("core.it_chol", "count", "lower", "core"),
    ("core.tasks", "count", "lower", "core"),
    ("core.windows", "count", "lower", "core"),
    ("core.dense_gflops", "Gflop/s", "higher", "core"),
    ("kernels.geqrt_us", "us", "lower", "tiled.kernels"),
    ("kernels.tpqrt_us", "us", "lower", "tiled.kernels"),
    ("kernels.tpmqrt_us", "us", "lower", "tiled.kernels"),
    ("kernels.apply_q_us", "us", "lower", "tiled.kernels"),
    ("kernels.potrf_us", "us", "lower", "tiled.kernels"),
    ("kernels.trsm_us", "us", "lower", "tiled.kernels"),
    ("kernels.gemm_us", "us", "lower", "tiled.kernels"),
    ("kernels.gemm_gflops", "Gflop/s", "higher", "tiled.kernels"),
    ("kernels.floor_s", "s", "lower", "tiled.kernels"),
    ("tiled.qr_stack_s", "s", "lower", "tiled"),
    ("tiled.qr_stack_over_lapack", "ratio", "lower", "tiled"),
    ("tiled.posv_s", "s", "lower", "tiled"),
    ("tiled.posv_over_lapack", "ratio", "lower", "tiled"),
    ("tiled.gemm_s", "s", "lower", "tiled"),
    ("dist.from_array_s", "s", "lower", "dist"),
    ("dist.to_array_s", "s", "lower", "dist"),
    ("matrices.generate_s", "s", "lower", "matrices"),
    ("matrices.verify_s", "s", "lower", "matrices"),
    ("runtime.record_us_per_task", "us", "lower", "runtime.executor"),
    ("graph.validate_us_per_task", "us", "lower", "runtime.graph"),
    ("runtime.eager_overhead_us_per_task", "us", "lower",
     "runtime.executor"),
    ("parallel.noop_us_per_task", "us", "lower", "runtime.parallel"),
    ("parallel.noop_w1_us_per_task", "us", "lower", "runtime.parallel"),
    ("parallel.window_floor_ms", "ms", "lower", "runtime.parallel"),
    ("parallel.w1_over_eager", "ratio", "lower", "runtime.parallel"),
    ("parallel.contention_us_per_task", "us", "lower", "runtime.parallel"),
    ("distributed.noop_us_per_task", "us", "lower",
     "runtime.distributed.executor"),
    ("distributed.noop_w1_us_per_task", "us", "lower",
     "runtime.distributed.executor"),
    ("distributed.window_floor_ms", "ms", "lower",
     "runtime.distributed.executor"),
    ("distributed.msgs_per_task", "count", "lower",
     "runtime.distributed.executor"),
    ("distributed.bytes_per_task", "B", "lower",
     "runtime.distributed.executor"),
    ("distributed.w1_over_eager", "ratio", "lower",
     "runtime.distributed.executor"),
    ("comm.encode_us", "us", "lower", "runtime.distributed.comm"),
    ("comm.decode_us", "us", "lower", "runtime.distributed.comm"),
    ("comm.inproc_rtt_us", "us", "lower", "runtime.distributed.comm"),
    ("comm.tcp_rtt_us", "us", "lower", "runtime.distributed.comm"),
    ("comm.reliable_rtt_us", "us", "lower", "runtime.distributed.comm"),
    ("comm.reliable_over_plain", "ratio", "lower",
     "runtime.distributed.comm"),
    ("shm.pin_us_per_tile", "us", "lower", "runtime.distributed.shm"),
    ("shm.segments", "count", "lower", "runtime.distributed.shm"),
    ("shm.bytes", "B", "lower", "runtime.distributed.shm"),
    ("resilience.threads_tax_frac", "ratio", "lower", "resilience"),
    ("resilience.processes_tax_frac", "ratio", "lower", "resilience"),
    ("resilience.threads_noop_guarded_us_per_task", "us", "lower",
     "resilience"),
    ("resilience.processes_noop_guarded_us_per_task", "us", "lower",
     "resilience"),
    ("scheduler.simulate_us_per_task", "us", "lower", "runtime.scheduler"),
    ("perf.record_us_per_task", "us", "lower", "perf"),
    ("perf.sim_makespan_s", "s", "lower", "perf"),
    ("perf.sim_speedup_vs_forkjoin", "ratio", "higher", "perf"),
    ("obs.sink_overhead_frac", "ratio", "lower", "obs"),
    ("obs.events", "count", "lower", "obs"),
    ("obs.cp_task_s", "s", "lower", "obs"),
    ("obs.cp_wait_s", "s", "lower", "obs"),
    ("obs.utilization", "ratio", "higher", "obs"),
    ("host.calib_s", "s", "lower", "host"),
)
