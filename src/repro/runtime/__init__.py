"""Task-based runtime: dependency-inferred DAGs, eager numeric
execution, and event-driven schedule simulation.

The pieces map onto what SLATE gets from OpenMP + MPI:

* :mod:`.task` — a task with declared read/write tile sets (the
  analogue of ``omp task depend(in:...) depend(inout:...)``).
* :mod:`.graph` — builds the DAG by last-writer/reader inference,
  which is precisely the semantics OpenMP applies to depend clauses.
* :mod:`.executor` — the :class:`Runtime` context: ops submit tasks,
  numeric payloads run eagerly, the graph is recorded for simulation.
* :mod:`.scheduler` — event-driven simulation of the DAG on a machine
  model; the task-based mode allows arbitrary out-of-order execution
  within a lookahead window, the fork-join mode inserts a barrier
  after every phase (the ScaLAPACK/POLAR execution model).
* :mod:`.parallel` — *real* threaded replay of a recorded DAG on a
  thread pool (NumPy/BLAS kernels release the GIL), with measured
  timestamps and execution-time ordering assertions.
* :mod:`.distributed` — multi-process replay: a central dynamic
  scheduler dispatching to forked workers over a pluggable comm layer,
  with tiles in shared memory (zero-copy) and crash recovery.
* :mod:`.window` — the driver both real backends are transports of:
  one ``run``, one dispatch loop, one accounting of reported attempts.

Post-mortem views of a schedule (kernel breakdown, rank utilization,
critical-path composition, Gantt, Chrome trace) live in
:mod:`repro.obs`.
"""

from .task import Task, TaskKind, DEVICE_ELIGIBLE
from .graph import GraphValidationError, TaskGraph
from .executor import Runtime
from .parallel import ExecutionStats, OrderingViolationError, ParallelExecutor
from .distributed import (ProcessExecutor, SharedTileStore,
                          WorkerCrashError)
from .scheduler import ScheduleResult, simulate

__all__ = [
    "Task",
    "TaskKind",
    "DEVICE_ELIGIBLE",
    "TaskGraph",
    "GraphValidationError",
    "Runtime",
    "ParallelExecutor",
    "ProcessExecutor",
    "SharedTileStore",
    "WorkerCrashError",
    "ExecutionStats",
    "OrderingViolationError",
    "ScheduleResult",
    "simulate",
]
