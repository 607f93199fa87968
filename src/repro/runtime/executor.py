"""The Runtime context: tiled ops submit tasks here.

A :class:`Runtime` binds a process grid and an execution mode:

* ``numeric=True`` — each submitted task's payload closure runs
  immediately (eager execution, like OpenMP tasks with a single
  thread), so tiled algorithms produce real numbers; the DAG is
  recorded on the side for scheduling analysis.
* ``numeric=False`` — symbolic mode: payloads are skipped, only the
  DAG is built.  This is how the performance model emits task graphs
  for paper-scale matrices (n ~ 2e5) in milliseconds of real time.
* ``numeric=True, deferred=True`` — payload closures are *recorded*
  instead of run; :meth:`Runtime.sync` replays the pending window on a
  :class:`repro.runtime.parallel.ParallelExecutor` thread pool, so
  independent tiles execute concurrently (the real-hardware analogue
  of the simulated task-based schedule).  Scalar reduction reads and
  ``DistMatrix`` gathers sync automatically, so adaptive algorithms
  (convergence tests, estimators) run unchanged.

Phases: ops bump :meth:`advance_phase` at every panel step.  The
fork-join (ScaLAPACK) scheduler model inserts a barrier between
phases; the task-based model uses them only for its modelled lookahead
window (``RunConfig.lookahead``).  The real backends order their ready
set by tid alone.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Iterable, Optional, Sequence

from ..dist.grid import ProcessGrid
from ..dist.layout import BlockCyclic
from .attempt import count_kernel, resolve_recovery
from .graph import TaskGraph
from .task import Task, TaskKind, TileRef

#: Sentinel: resolve the sanitizer mode from the REPRO_SANITIZE env var.
_SANITIZE_FROM_ENV = object()


class Runtime:
    """Execution context for tiled algorithms."""

    def __init__(self, grid: ProcessGrid, *, numeric: bool = True,
                 tile_dim_hint: Optional[int] = None,
                 deferred: bool = False,
                 backend: str = "threads",
                 workers: Optional[int] = None,
                 sink=None,
                 sanitize=_SANITIZE_FROM_ENV,
                 faults=None,
                 recovery=None) -> None:
        if deferred and not numeric:
            raise ValueError(
                "deferred execution requires numeric mode (symbolic "
                "graphs have no payloads to run)")
        self.grid = grid
        self.numeric = numeric
        #: When set, overrides every task's tile_dim for the machine
        #: efficiency lookup.  The perf model simulates paper-scale
        #: matrices with coarsened tiles (to bound task counts) while
        #: rating each kernel at the *real* tile size the run would use.
        self.tile_dim_hint = tile_dim_hint
        #: Coarsening factor attached to every task (see Task.coarse).
        self.coarse_hint = 1.0
        #: Multiplier applied to every task's flops (complex arithmetic
        #: costs ~4x real at the same dimensions; see
        #: repro.flops.COMPLEX_FLOP_FACTOR).
        self.flops_scale = 1.0
        self.graph = TaskGraph()
        self._matrix_ids = itertools.count()
        self._task_ids = itertools.count()
        self._phase = 0
        self._op = 0
        #: pseudo-matrix id for scalar results (reductions).
        self.scalar_mat = self._new_matrix_id()
        self._scalar_ids = itertools.count()
        #: Deferred-execution state (threaded or processes backend).
        self.deferred = bool(deferred)
        if backend not in ("threads", "processes"):
            raise ValueError(f"unknown execution backend {backend!r} "
                             f"(expected 'threads' or 'processes')")
        self.backend = backend
        self._workers = workers
        self._exec_sink = sink
        self._pending_fns: dict = {}
        self._exec_cursor = 0
        self._executor = None
        #: True while task payloads may be running: inside ``sync()``,
        #: around an eager payload, and for a forked worker's whole life.
        self._in_execution = False
        #: Live fault tolerance for the real backends: an optional
        #: :class:`repro.resilience.faults.FaultPlan` (its live faults
        #: — transients, worker stalls, tile corruption — fire inside
        #: real workers) and an optional
        #: :class:`repro.resilience.live.RecoveryPolicy` (retries,
        #: timeouts, write scrubbing).  A plan alone gets the
        #: default policy (:func:`~repro.runtime.attempt.resolve_recovery`).
        self.fault_plan = faults
        self.recovery_policy = recovery
        #: mat_id -> DistMatrix, weakly held, for the executor's tile
        #: accessor (snapshot/restore/corrupt on recovery).
        self._matrices: "weakref.WeakValueDictionary" = \
            weakref.WeakValueDictionary()
        #: Optional DistSan event recorder
        #: (:class:`repro.runtime.distributed.events.DistTraceRecorder`).
        #: Set it before the first ``sync()`` of a processes-backend run
        #: and the executor records dispatch/completion, shm lifecycle,
        #: and wire-frame events for the ``repro lint --dist`` checkers.
        self.dist_recorder = None
        self._closed = False
        #: TileSan footprint sanitizer (``sanitize="warn"|"raise"|None``;
        #: default comes from the REPRO_SANITIZE env var).  Only numeric
        #: runtimes instrument payloads — symbolic mode never runs any.
        if sanitize is _SANITIZE_FROM_ENV:
            from ..analysis.sanitizer import sanitize_mode_from_env
            sanitize = sanitize_mode_from_env()
        self._sanitizer = None
        if sanitize is not None and numeric:
            from ..analysis.sanitizer import TileSanitizer
            self._sanitizer = TileSanitizer(self.graph, mode=sanitize,
                                            sink=sink)

    # ------------------------------------------------------------------
    # Identifiers and phases
    # ------------------------------------------------------------------

    def _new_matrix_id(self) -> int:
        """Fresh matrix id: one per DistMatrix, plus ``scalar_mat`` —
        the only two kinds of ref a footprint may hold."""
        return next(self._matrix_ids)

    def new_scalar_ref(self, nbytes: int = 8) -> TileRef:
        """A fresh pseudo-tile carrying a scalar reduction result.

        Registered in the graph's tile registry, like every
        DistMatrix tile: the sanitizer and race checker need its size.
        """
        ref = (self.scalar_mat, next(self._scalar_ids), 0)
        self.graph.register_tile(ref, nbytes)
        return ref

    @property
    def phase(self) -> int:
        return self._phase

    def advance_phase(self) -> int:
        """Start a new program phase (panel step)."""
        self._phase += 1
        return self._phase

    def begin_op(self) -> int:
        """Mark the start of a library operation (a ScaLAPACK-call
        analogue); the fork-join execution model barriers between ops.
        Also advances the phase counter.
        """
        self._op += 1
        self._phase += 1
        return self._op

    def default_layout(self) -> BlockCyclic:
        """Block-cyclic layout over this runtime's grid."""
        return BlockCyclic(self.grid)

    # ------------------------------------------------------------------
    # Task submission
    # ------------------------------------------------------------------

    def submit(self, kind: TaskKind, *,
               reads: Sequence[TileRef] = (),
               writes: Sequence[TileRef] = (),
               rank: Optional[int] = None,
               flops: float = 0.0,
               tile_dim: int = 0,
               label: str = "",
               fn: Optional[Callable[[], None]] = None,
               sanitize: bool = True) -> Task:
        """Submit one task; runs ``fn`` now when in numeric mode.

        ``rank=None`` resolves owner-computes placement from the
        graph's tile registry: the first write ref registered with an
        owner (through a DistMatrix) wins.  On a single-rank grid the
        owner is trivially rank 0.  Otherwise ``rank=None`` is an
        error — silently defaulting to rank 0 would skew every
        per-rank metric the scheduler produces.

        ``sanitize=False`` opts this task's payload out of TileSan
        footprint checking (for payloads that legitimately touch tiles
        through captured buffers the sanitizer cannot attribute).
        """
        writes = tuple(writes)
        if rank is None:
            rank = self._resolve_rank(kind, writes, label)
        task = Task(
            tid=next(self._task_ids),
            kind=kind,
            reads=tuple(reads),
            writes=writes,
            rank=rank,
            phase=self._phase,
            flops=flops * self.flops_scale,
            tile_dim=(self.tile_dim_hint if self.tile_dim_hint
                      else tile_dim),
            coarse=self.coarse_hint,
            op=self._op,
            label=label,
            sanitize=sanitize,
        )
        self.graph.add(task)
        if self.numeric and fn is not None:
            if self.deferred:
                self._pending_fns[task.tid] = fn
            else:
                san = self._sanitizer
                self._in_execution = True
                try:
                    if san is not None and task.sanitize:
                        with san.task_scope(task):
                            fn()
                    else:
                        fn()
                finally:
                    self._in_execution = False
                count_kernel(kind)
        return task

    def _resolve_rank(self, kind: TaskKind, writes: Sequence[TileRef],
                      label: str) -> int:
        """Owner of the primary (first owner-registered) write ref."""
        if self.grid.size == 1:
            return 0
        owners = self.graph.tile_owner
        for ref in writes:
            owner = owners.get(ref)
            if owner is not None and owner >= 0:
                return owner
        what = f"{kind.name} [{label}]" if label else kind.name
        raise ValueError(
            f"submit({what}, rank=None): no write ref has a registered "
            f"owner on this {self.grid.p}x{self.grid.q} grid; pass "
            f"rank= explicitly (owner-computes on the primary output "
            f"tile)")

    # ------------------------------------------------------------------
    # Deferred (threaded) execution
    # ------------------------------------------------------------------

    def register_matrix(self, mat) -> None:
        """Track a DistMatrix for executor-side tile access (weakly)."""
        self._matrices[mat.mat_id] = mat

    def enable_deferred(self, *, workers: Optional[int] = None,
                        backend: Optional[str] = None) -> None:
        """Switch this runtime to deferred execution.

        Tasks submitted so far (eagerly executed) stay as they are;
        from here on payload closures are recorded and replayed by
        :meth:`sync` on the configured backend.  Idempotent; a changed
        ``backend`` or ``workers`` count flushes pending work and
        re-pools.  Sinks, fault plans and recovery policies are the
        constructor's.
        """
        if not self.numeric:
            raise ValueError("deferred execution requires numeric mode")
        if backend is not None and backend != self.backend:
            if backend not in ("threads", "processes"):
                raise ValueError(f"unknown execution backend {backend!r}")
            if self._executor is not None:
                self.sync()
                self._executor.close()
                self._executor = None
            self.backend = backend
        if workers is not None and self._executor is not None \
                and workers != self._executor.workers:
            self.sync()
            self._executor.close()
            self._executor = None
        if workers is not None:
            self._workers = workers
        if not self.deferred:
            self.deferred = True
            # Everything before this point already ran eagerly.
            self._exec_cursor = len(self.graph.tasks)

    def disable_deferred(self) -> None:
        """Return this runtime to eager execution.

        The degradation path of :func:`~repro.core.tiled_qdwh`: when a
        parallel backend is no longer trustworthy (e.g. the recovery
        budget of the processes backend is exhausted mid-run), pending
        payloads are abandoned, the executor torn down, and subsequent
        submissions run inline at submit time.  Idempotent."""
        if not self.deferred:
            return
        self.abandon_pending()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self.deferred = False

    @property
    def executor(self):
        """The lazily created executor for the configured backend
        (:class:`ParallelExecutor` for threads,
        :class:`~repro.runtime.distributed.ProcessExecutor` for
        processes)."""
        if self._executor is None:
            recovery, injector, tiles = resolve_recovery(
                self.fault_plan, self.recovery_policy, self._matrices)
            if self.backend == "processes":
                from .distributed.executor import ProcessExecutor
                self._executor = ProcessExecutor(
                    self, workers=self._workers, sink=self._exec_sink,
                    recovery=recovery, injector=injector, tiles=tiles)
            else:
                from .parallel import ParallelExecutor
                self._executor = ParallelExecutor(
                    self.graph, self._pending_fns, workers=self._workers,
                    sink=self._exec_sink,
                    sanitizer=self._sanitizer,
                    recovery=recovery, injector=injector, tiles=tiles)
        return self._executor

    @property
    def sanitizer(self):
        """The TileSan instance, or None when sanitizing is off."""
        return self._sanitizer

    @property
    def exec_stats(self):
        """Measured execution accounting, or None before any sync."""
        return self._executor.stats if self._executor is not None else None

    def sync(self) -> None:
        """Run every recorded-but-pending payload (deferred mode).

        A no-op for eager/symbolic runtimes, when nothing is pending,
        and while an execution window is already in flight (task
        payloads touch tiles, which would otherwise re-enter here).
        Scalar reductions and DistMatrix gathers call this before
        exposing values, so driver code sees exactly the eager-mode
        dataflow.
        """
        if not self.deferred or self._in_execution:
            return
        end = len(self.graph.tasks)
        if end == self._exec_cursor:
            return
        self._in_execution = True
        try:
            self.executor.run(self._exec_cursor, end)
        finally:
            self._in_execution = False
            self._exec_cursor = end

    def abandon_pending(self) -> None:
        """Drop every recorded-but-unexecuted payload (deferred mode).

        For algorithm-level recovery after a failed window: when a
        :meth:`sync` raised (e.g. Cholesky breakdown inside a posv
        window), the window's unexecuted tasks are folded into the
        executor's epoch tables as no-ops and their payloads discarded,
        so the caller can restore data from its own copies and submit
        replacement work.  A no-op for eager runtimes.
        """
        if not self.deferred:
            return
        self._exec_cursor = len(self.graph.tasks)
        if self._executor is not None:
            self._executor.abandon_window()
        self._pending_fns.clear()

    def close(self) -> None:
        """Release every backend resource: worker pools or processes,
        comm listeners, and shared-memory segments.  Idempotent — safe
        to call from both an explicit ``with`` block and a teardown
        path that does not know whether the runtime was ever used."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def register_tiles(self, refs: Iterable[TileRef], nbytes_each: int,
                       owner: int = -1) -> None:
        """Bulk tile-size registration (called by DistMatrix).

        Unconditional (a cheap dict): owner resolution for
        ``rank=None`` submits, the sanitizer's observable-tile test, and
        the race checker all need it in pure-eager runs.
        """
        for ref in refs:
            self.graph.register_tile(ref, nbytes_each, owner)
