"""Task objects: the unit of scheduling.

A task declares the tiles it reads and writes (dependency inference
happens in :mod:`.graph`), its flop count and kind (device placement +
efficiency lookup), the rank that executes it (owner-computes on the
primary output tile), and the program phase it belongs to (panel step;
used by the fork-join model and the lookahead window).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

#: A tile reference: (matrix_id, i, j).  Never built by hand: it is
#: ``DistMatrix.ref(i, j)`` (the data is in the tile) or
#: ``Runtime.new_scalar_ref()`` (a driver-local box).
TileRef = Tuple[int, int, int]


class TaskKind(enum.Enum):
    """Kernel classes with distinct performance characteristics."""

    GEMM = "gemm"          # tile C += A @ B
    HERK = "herk"          # tile C += A @ A^H (one triangle)
    TRSM = "trsm"          # triangular solve against a tile
    TRMM = "trmm"          # triangular multiply
    POTRF = "potrf"        # Cholesky panel kernel
    GEQRT = "geqrt"        # QR panel kernel (tile factor + T)
    TPQRT = "tpqrt"        # QR couple kernel (triangle + tile)
    UNMQR = "unmqr"        # apply Q from one tile's reflectors
    TPMQRT = "tpmqrt"      # apply coupled reflectors to a tile pair
    ADD = "add"            # tile axpy / scaled add
    SCALE = "scale"        # tile scaling
    COPY = "copy"          # tile copy (local or remote)
    SET = "set"            # tile fill (zero / identity)
    NORM = "norm"          # per-tile norm / column-sum partial
    REDUCE = "reduce"      # fan-in combine of partials (allreduce root)
    GEMV = "gemv"          # tile matrix-vector product (norm2est)
    SOLVE_VEC = "solve_vec"  # tile triangular solve on a vector


#: Kernels SLATE offloads to accelerators (trailing-update, BLAS-3).
#: Panel kernels (GEQRT/TPQRT/POTRF) and latency-bound vector work stay
#: on the CPU, matching the library's device routing.
DEVICE_ELIGIBLE = frozenset({
    TaskKind.GEMM, TaskKind.HERK, TaskKind.TRSM, TaskKind.TRMM,
    TaskKind.UNMQR, TaskKind.TPMQRT, TaskKind.ADD, TaskKind.SCALE,
    TaskKind.COPY, TaskKind.SET,
})

#: Factorization panel kernels: latency-bound, CPU-resident in SLATE.
#: A *coarsened* panel task (perf model) is mostly trailing-update work
#: and becomes GPU-eligible with a blended rate.
PANEL_KINDS = frozenset({TaskKind.GEQRT, TaskKind.TPQRT, TaskKind.POTRF})

#: Kernels whose "flops" count element operations (memory bound).
ELEMENTWISE_KINDS = frozenset({
    TaskKind.ADD, TaskKind.SCALE, TaskKind.COPY, TaskKind.SET,
    TaskKind.NORM, TaskKind.REDUCE, TaskKind.GEMV, TaskKind.SOLVE_VEC,
})


@dataclass
class Task:
    """One schedulable kernel invocation.

    ``reads``/``writes`` are tile refs; ``rank`` is the executing MPI
    rank; ``phase`` is the program-order phase counter (panel steps);
    ``flops`` drives the duration model.  Transfer costs are not a task
    attribute: the scheduler prices every moved tile from
    ``TaskGraph.tile_bytes`` (sizes registered with the tile's matrix or
    through ``Runtime.register_tiles``).
    """

    tid: int
    kind: TaskKind
    reads: Tuple[TileRef, ...]
    writes: Tuple[TileRef, ...]
    rank: int
    phase: int
    flops: float = 0.0
    tile_dim: int = 0   # nominal tile edge (efficiency-curve lookup)
    #: Coarsening factor of the perf model (nb_sim / nb_real).  > 1
    #: means this task models a *group* of real-nb kernels; the machine
    #: model blends panel/update rates accordingly.
    coarse: float = 1.0
    #: Index of the enclosing library operation (one gemm/geqrf/...).
    #: The fork-join model barriers between *ops* — each ScaLAPACK
    #: call is internally parallel but calls do not overlap.
    op: int = 0
    label: str = ""
    # Filled by the graph builder:
    deps: Tuple[int, ...] = field(default_factory=tuple)
    #: Reads of tiles never written by any task (initial data).  The
    #: scheduler charges their transfer from the owning rank's host
    #: memory (a GPU consumer pays H2D; a remote consumer pays the
    #: wire), exactly like SLATE fetching a tile on first touch.
    cold_reads: Tuple[TileRef, ...] = field(default_factory=tuple)
    #: Opt-out for the TileSan footprint sanitizer
    #: (``submit(..., sanitize=False)``): the payload's accesses are
    #: neither recorded nor diffed against the declaration.
    sanitize: bool = True

    @property
    def gpu_eligible(self) -> bool:
        """Whether SLATE would route this kernel to an accelerator."""
        return self.kind in DEVICE_ELIGIBLE

    def __repr__(self) -> str:  # compact: graphs hold ~1e5 of these
        return (f"Task({self.tid}, {self.kind.value}, rank={self.rank}, "
                f"phase={self.phase}, flops={self.flops:.3g})")
