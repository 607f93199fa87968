"""DistSan: distributed-runtime analysis suite.

PR 4's tooling (TileSan, ``check_races``, repro-lint) proves *task
graphs* clean; this package proves the **distributed layer that
executes them** clean.  Three checkers, one per failure surface:

* :mod:`.explore` — a schedule-space model checker: runs the real
  window driver (:class:`~repro.runtime.window.WindowExecutor`) and
  :class:`~repro.runtime.distributed.scheduling.DynamicScheduler`
  over a transport whose hooks are choice points, through bounded
  systematic interleavings of completion / crash / death-report /
  respawn events, asserting invariants at every hand-out and choice.
  :mod:`.mutants` ships known-bad scheduler and driver variants; the
  mutant gate requires the explorer to kill all of them while passing
  clean on the real code.
* :mod:`.hb` — a cross-process happens-before race checker over
  *executed* runs: rebuilds the partial order from a recorded
  :class:`~repro.runtime.distributed.events.DistTraceRecorder`
  (dispatch/completion program order plus send→recv message edges and
  shm pin edges) and flags any shared-memory tile access unordered
  with a prior write, plus a per-segment refcount audit against the
  OS-level ``/dev/shm`` scan.
* :mod:`.protocol` — a wire-protocol state-machine checker over
  recorded comm frames (hello-first handshake, codec tags, length
  prefixes, no frame after close, reply matching, retryable-verdict
  consistency).

``repro explore`` and ``repro lint --dist`` drive these from the CLI;
the CI ``distsan`` job gates on all three.
"""

from .explore import (ExplorationReport, ExplorerTransport, ExploreFinding,
                      Scenario, builtin_scenarios, explore)
from .hb import HBFinding, audit_refcounts, check_hb
from .mutants import MUTANTS, MutantResult, mutant_gate
from .protocol import ProtocolFinding, check_connection, check_frames

__all__ = [
    "ExplorationReport",
    "ExploreFinding",
    "ExplorerTransport",
    "HBFinding",
    "MUTANTS",
    "MutantResult",
    "ProtocolFinding",
    "Scenario",
    "audit_refcounts",
    "builtin_scenarios",
    "check_connection",
    "check_frames",
    "check_hb",
    "explore",
    "mutant_gate",
]
