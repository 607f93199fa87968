"""End-to-end QDWH performance simulation.

``simulate_qdwh(machine, nodes, n, impl, ...)`` reproduces one data
point of the paper's performance figures:

1. derive the run configuration from the implementation name
   (``slate_gpu`` / ``slate_cpu`` / ``scalapack``) and the machine's
   rank layout (Section 7.1 settings);
2. build the symbolic task graph of Algorithm 1 for an n x n
   ill-conditioned matrix (the scalar weight schedule fixes the
   QR/Cholesky iteration split);
3. simulate the graph on the machine model — task-based with unbounded
   lookahead for SLATE, bulk-synchronous fork-join for ScaLAPACK;
4. report Tflop/s the paper's way: the Section 4 *algorithmic* flop
   count divided by the simulated wall time.

Task-count control: tile grids are capped at ``max_tiles`` per
dimension; the tasks' efficiency lookups still use the *requested*
tile size (``Runtime.tile_dim_hint``), so a coarse-grid task models a
group of real-nb kernels with the same total flops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .. import flops as F
from ..core.tiled_qdwh import tiled_qdwh
from ..dist.grid import ProcessGrid
from ..dist.matrix import DistMatrix
from ..machines.machine import MachineModel
from ..runtime.executor import Runtime
from ..runtime.graph import TaskGraph
from ..runtime.scheduler import (
    RunConfig,
    ScheduleResult,
    forkjoin_config,
    simulate,
    taskbased_config,
)

#: Per-machine run settings (Section 7.1): ranks per node and the tuned
#: tile sizes for each implementation.
IMPLEMENTATIONS: Dict[str, Dict[str, Dict[str, int]]] = {
    "summit": {
        "slate_gpu": {"ranks_per_node": 2, "nb": 320},
        "slate_cpu": {"ranks_per_node": 2, "nb": 192},
        # POLAR runs 1 rank/core (42/node); the simulation aggregates
        # cores into 2 super-ranks/node (same total compute, same BSP
        # fork-join semantics) so coarse tile grids do not create
        # artificial load imbalance across 1000+ ranks.
        "scalapack": {"ranks_per_node": 2, "nb": 192},
    },
    "frontier": {
        "slate_gpu": {"ranks_per_node": 8, "nb": 320},
        "slate_cpu": {"ranks_per_node": 8, "nb": 192},
        "scalapack": {"ranks_per_node": 8, "nb": 192},
    },
    # Aurora ("upcoming" at publication; contribution #5's SYCL port).
    "aurora": {
        "slate_gpu": {"ranks_per_node": 12, "nb": 320},
        "slate_cpu": {"ranks_per_node": 12, "nb": 192},
        "scalapack": {"ranks_per_node": 12, "nb": 192},
    },
}


@dataclass
class PerfPoint:
    """One simulated performance measurement."""

    machine: str
    impl: str
    nodes: int
    n: int
    nb: int
    nb_sim: int
    it_qr: int
    it_chol: int
    makespan: float
    model_flops: float
    executed_flops: float
    task_count: int
    schedule: ScheduleResult
    #: Wall-clock seconds of a real (threaded-backend) run of the same
    #: problem, when one was taken; None for purely simulated points.
    measured_s: Optional[float] = None

    @property
    def tflops(self) -> float:
        """Tflop/s over the paper's algorithmic flop count."""
        if self.makespan == 0.0:
            return 0.0  # degenerate run (empty graph / n=0)
        return self.model_flops / self.makespan / 1e12

    @property
    def executed_tflops(self) -> float:
        if self.makespan == 0.0:
            return 0.0
        return self.executed_flops / self.makespan / 1e12


def _grid_for(ranks: int) -> ProcessGrid:
    return ProcessGrid.near_square(ranks)


def build_qdwh_graph(n: int, nb_sim: int, grid: ProcessGrid, *,
                     cond: float = 1e16, nb_rate: Optional[int] = None,
                     m: Optional[int] = None, dtype=np.float64
                     ) -> Tuple[TaskGraph, int, int]:
    """Symbolic Algorithm-1 task graph for an m x n, cond-kappa matrix.

    ``nb_sim`` is the (possibly coarsened) simulation tile size;
    ``nb_rate`` the tile size used for device-efficiency lookups
    (defaults to nb_sim).  ``dtype`` sizes the transfers (complex
    doubles the bytes) and scales the flops (a complex operation costs
    ~4 real ones); device rates stay the machine's DP rates, matching
    how vendors report zgemm in DP-flop terms.
    """
    if m is None:
        m = n
    rt = Runtime(grid, numeric=False,
                 tile_dim_hint=nb_rate if nb_rate else None)
    if nb_rate and nb_sim > nb_rate:
        rt.coarse_hint = nb_sim / nb_rate
    from ..config import is_complex
    from ..flops import COMPLEX_FLOP_FACTOR
    if is_complex(dtype):
        rt.flops_scale = COMPLEX_FLOP_FACTOR
    a = DistMatrix(rt, m, n, nb_sim, dtype, name="A")
    res = tiled_qdwh(rt, a, cond_est=cond)
    return rt.graph, res.it_qr, res.it_chol


@lru_cache(maxsize=4)
def _recorded_graph(m: int, n: int, nb_sim: int, nb_rate: int,
                    grid: ProcessGrid, cond: float,
                    dtype: np.dtype) -> Tuple[TaskGraph, int, int]:
    """:func:`build_qdwh_graph`, recorded once per distinct problem:
    the implementations (at one tile size) and lookahead depths of a
    sweep point replay the same graph, and ``simulate()`` only reads
    it."""
    return build_qdwh_graph(n, nb_sim, grid, cond=cond, nb_rate=nb_rate,
                            m=m, dtype=dtype)


def simulate_qdwh(machine: MachineModel, nodes: int, n: int, impl: str, *,
                  cond: float = 1e16,
                  nb: Optional[int] = None,
                  max_tiles: int = 20,
                  lookahead: Optional[int] = None,
                  m: Optional[int] = None,
                  dtype=np.float64,
                  sink=None,
                  faults=None) -> PerfPoint:
    """Simulate one (machine, nodes, n, implementation) data point.

    ``sink`` is forwarded to :func:`repro.runtime.scheduler.simulate`
    (a :class:`repro.obs.timeline.TraceSink` capturing the full task
    timeline); leave ``None`` for an untraced run.  ``faults`` is an
    optional :class:`repro.resilience.faults.FaultPlan` injected into
    the schedule; ``schedule.recovery`` then reports the recovery cost.
    """
    try:
        settings = IMPLEMENTATIONS[machine.name][impl]
    except KeyError:
        raise ValueError(
            f"unknown implementation {impl!r} for machine "
            f"{machine.name!r}; expected one of "
            f"{sorted(IMPLEMENTATIONS.get(machine.name, {}))}") from None
    rpn = settings["ranks_per_node"]
    nb_real = nb if nb is not None else settings["nb"]
    ranks = machine.ranks(nodes, rpn)
    grid = _grid_for(ranks)

    # Coarsen the tile grid if the real tiling would exceed max_tiles
    # per dimension (task-count control; rates still use nb_real).
    mm = m if m is not None else n
    nb_sim = nb_real
    if math.ceil(mm / nb_real) > max_tiles or math.ceil(n / nb_real) > max_tiles:
        nb_sim = max(nb_real, math.ceil(max(mm, n) / max_tiles))

    graph, it_qr, it_chol = _recorded_graph(
        mm, n, nb_sim, nb_real, grid, cond, np.dtype(dtype))

    use_gpu = impl == "slate_gpu"
    if impl == "scalapack":
        cfg = forkjoin_config(machine, nodes, rpn, use_gpu=False)
    else:
        cfg = taskbased_config(machine, nodes, rpn, use_gpu=use_gpu,
                               lookahead=lookahead)
    sched = simulate(graph, cfg, sink=sink, faults=faults)
    from ..config import is_complex
    model_flops = F.qdwh_total(n, it_qr, it_chol, m=mm)
    if is_complex(dtype):
        model_flops *= F.COMPLEX_FLOP_FACTOR
    return PerfPoint(
        machine=machine.name, impl=impl, nodes=nodes, n=n,
        nb=nb_real, nb_sim=nb_sim, it_qr=it_qr, it_chol=it_chol,
        makespan=sched.makespan, model_flops=model_flops,
        executed_flops=sched.total_flops, task_count=sched.task_count,
        schedule=sched)


def simulate_custom(machine: MachineModel, nodes: int, n: int, *,
                    ranks_per_node: int, use_gpu: bool,
                    lookahead: Optional[int] = None,
                    barrier_per_phase: bool = False,
                    cond: float = 1e16, nb: int = 320,
                    max_tiles: int = 20) -> PerfPoint:
    """Free-form configuration (ablation studies)."""
    ranks = machine.ranks(nodes, ranks_per_node)
    grid = _grid_for(ranks)
    nb_sim = nb
    if math.ceil(n / nb) > max_tiles:
        nb_sim = max(nb, math.ceil(n / max_tiles))
    graph, it_qr, it_chol = _recorded_graph(
        n, n, nb_sim, nb, grid, cond, np.dtype(np.float64))
    cfg = RunConfig(machine=machine, nodes=nodes,
                    ranks_per_node=ranks_per_node, use_gpu=use_gpu,
                    lookahead=lookahead,
                    barrier_per_phase=barrier_per_phase)
    sched = simulate(graph, cfg)
    return PerfPoint(
        machine=machine.name,
        impl=f"custom(gpu={use_gpu},la={lookahead},bsp={barrier_per_phase})",
        nodes=nodes, n=n, nb=nb, nb_sim=nb_sim, it_qr=it_qr,
        it_chol=it_chol, makespan=sched.makespan,
        model_flops=F.qdwh_total(n, it_qr, it_chol),
        executed_flops=sched.total_flops, task_count=sched.task_count,
        schedule=sched)
