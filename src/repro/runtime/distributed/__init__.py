"""Multi-process distributed runtime.

Three layers, each usable on its own:

* :mod:`~repro.runtime.distributed.comm` — pluggable point-to-point
  messaging (``inproc://`` queue pairs and ``tcp://`` sockets behind
  one ``Comm``/``Listener``/``connect`` interface, length-prefixed
  codec-tagged frames, byte counters).
* :mod:`~repro.runtime.distributed.shm` — :class:`SharedTileStore`,
  refcounted ``multiprocessing.shared_memory`` segments that back
  ``DistMatrix`` tiles for zero-copy worker access.
* :mod:`~repro.runtime.distributed.scheduling` /
  :mod:`~repro.runtime.distributed.executor` — the dask-style central
  scheduler (of both real backends) and :class:`ProcessExecutor`, the
  forked-worker transport of the shared window driver
  (``tiled_qdwh(backend="processes")``).

See ``docs/distributed_runtime.md`` for the architecture.
"""

from .comm import (AddressInUseError, Comm, CommClosedError, CommError,
                   CommTimeoutError, Listener, connect, listen,
                   register_transport)
from .executor import ProcessExecutor, WorkerCrashError
from .scheduling import DynamicScheduler, WorkerState
from .shm import SharedTileStore, scan_segments

__all__ = [
    "AddressInUseError",
    "Comm",
    "CommClosedError",
    "CommError",
    "CommTimeoutError",
    "DynamicScheduler",
    "Listener",
    "ProcessExecutor",
    "SharedTileStore",
    "WorkerCrashError",
    "WorkerState",
    "connect",
    "listen",
    "register_transport",
    "scan_segments",
]
