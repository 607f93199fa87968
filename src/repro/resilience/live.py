"""Live fault injection and recovery policy for the real backends.

:mod:`repro.resilience.faults` describes *what* goes wrong;
:mod:`repro.runtime.attempt` (one attempt body, one retry ledger,
shared by the threads and processes executors) decides *how the run
survives it*.  This module is the vocabulary between the two:

* :class:`LiveFaultInjector` evaluates a :class:`FaultPlan` inside
  actual workers (threads or forked processes) — seeded transient payload
  exceptions (:class:`InjectedTransientError`), pre-payload worker
  stalls (interruptible sleeps), and post-payload NaN/Inf tile
  corruption.  All draws go through ``FaultPlan.task_rng`` so the same
  plan perturbs the same (task, attempt) pairs regardless of dispatch
  order.
* :class:`RecoveryPolicy` bundles the executor's recovery knobs:
  retry count, backoff/jitter, wall-clock task timeout, straggler
  detection and speculation thresholds, and write-tile scrubbing.
* :class:`TileAccessor` gives the executor raw access to tile storage
  (``DistMatrix._tiles``) for pre-task snapshots, restore-on-retry,
  corruption injection, and non-finite scrubbing.  It deliberately
  bypasses ``DistMatrix.tile()`` — executor-internal bookkeeping must
  not recurse into sync points or trip the footprint sanitizer.

Epoch-offset convention for ``task_rng`` draws (keeps live streams
disjoint from the simulator's attempt epochs, which start at 0):

====================  =======================
draw                  epoch
====================  =======================
worker stall          ``90_001 + attempt``
transient failure     ``90_100 + attempt``
tile corruption       ``90_200 + attempt``
retry backoff jitter  ``90_300 + attempt``
====================  =======================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .faults import FaultPlan

__all__ = [
    "InjectedTransientError",
    "TileCorruptionDetected",
    "RecoveryPolicy",
    "TileAccessor",
    "LiveFaultInjector",
]

#: ``(mat_id, i, j)`` — mirrors :data:`repro.runtime.task.TileRef`.
TileRef = Tuple[int, int, int]


class InjectedTransientError(RuntimeError):
    """A seeded transient payload failure (soft error / ECC retry).

    Raised *instead of* running the payload, so the attempt leaves no
    partial writes and a plain re-execution is always safe.
    """


class TileCorruptionDetected(RuntimeError):
    """A task's output tile came back non-finite (caught corruption).

    The executor restores the pre-task snapshot of the write tiles and
    retries; if retries are exhausted the error propagates and the
    algorithm-level health guards take over.
    """


@dataclass(frozen=True)
class RecoveryPolicy:
    """Executor-level recovery knobs for both real backends.

    A ``None`` policy (the default) is the zero-budget policy
    (:data:`repro.runtime.attempt.NO_RECOVERY`) through the same
    dispatch loop: no retries, no speculation, no timeouts, no
    heartbeats, and the first failure is final.  A default
    ``RecoveryPolicy()`` on a fault-free run costs its write-tile
    snapshots (and, on the processes backend, the reliable link).
    """

    #: Re-execution budget per task *beyond* the first attempt.
    #: Retries fire on retryable payload exceptions
    #: (:class:`InjectedTransientError`, :class:`TileCorruptionDetected`,
    #: and generic transient-looking errors); deterministic failures
    #: (``LinAlgError`` — numeric breakdown the algorithm must handle —
    #: and sanitizer findings) are never retried.
    max_retries: int = 2
    #: Sleep before retry k is ``backoff * 2**(k-1)``, scaled by a
    #: seeded jitter in ``[1-jitter, 1+jitter]``.
    backoff: float = 2.0e-3
    jitter: float = 0.5
    #: Wall-clock seconds after which a running attempt is declared
    #: timed out.  Python threads cannot be killed, so a timeout marks
    #: the attempt (FaultEvent + RecoveryStats) and — if the payload
    #: has not been claimed yet (it is still inside an injected stall)
    #: — launches a backup attempt.  ``None`` disables timeouts.
    task_timeout: Optional[float] = None
    #: Straggler detection: an attempt running longer than
    #: ``straggler_factor`` x the rolling mean duration of its task
    #: kind (and at least ``min_straggler_seconds``) is a straggler;
    #: with ``speculation`` on, an unclaimed straggler gets a
    #: speculative backup attempt (first claimer wins the payload, the
    #: loser wakes from its stall and reports itself lost without
    #: touching any tile).
    speculation: bool = True
    straggler_factor: float = 4.0
    min_straggler_seconds: float = 0.05
    #: Rolling-mean warmup: no straggler calls before this many
    #: completed samples of the task's kind.
    min_samples: int = 5
    #: Monitor poll period for the dispatch loop (seconds).
    poll_interval: float = 0.02
    #: Scan write tiles for NaN/Inf after every payload and treat hits
    #: as :class:`TileCorruptionDetected` (restore + retry).  Off by
    #: default: scrubbing costs a full pass over every output tile.
    scrub_writes: bool = False
    #: Heartbeat period for processes-backend workers (seconds);
    #: ``None`` disables heartbeats and phi-accrual failure detection.
    heartbeat_interval: Optional[float] = 0.05
    #: No suspicion verdicts before this many seconds after a worker
    #: spawns (lets the heartbeat window warm up).
    heartbeat_grace: float = 0.25
    #: Phi-accrual thresholds (see
    #: :class:`~repro.resilience.net.PhiAccrualDetector`): above
    #: ``phi_suspect`` the scheduler stops placing new work on the
    #: worker; above ``phi_dead`` the driver declares it hung, kills
    #: it, and replays its in-flight tasks — well before
    #: ``task_timeout`` has to fire.
    phi_suspect: float = 4.0
    phi_dead: float = 8.0
    #: Wall-clock budget for one reconnect-and-resync handshake after
    #: a dropped connection (ReliableComm); exhausting it surfaces a
    #: worker death instead of a silent hang.
    net_deadline: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.task_timeout is not None and self.task_timeout <= 0.0:
            raise ValueError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}")
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got "
                f"{self.straggler_factor}")
        if self.min_straggler_seconds < 0.0:
            raise ValueError("min_straggler_seconds must be >= 0")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}")
        if self.poll_interval <= 0.0:
            raise ValueError(
                f"poll_interval must be > 0, got {self.poll_interval}")
        if (self.heartbeat_interval is not None
                and self.heartbeat_interval <= 0.0):
            raise ValueError(
                f"heartbeat_interval must be > 0 or None, got "
                f"{self.heartbeat_interval}")
        if self.heartbeat_grace < 0.0:
            raise ValueError("heartbeat_grace must be >= 0")
        if not 0.0 < self.phi_suspect <= self.phi_dead:
            raise ValueError(
                f"need 0 < phi_suspect <= phi_dead, got "
                f"{self.phi_suspect} / {self.phi_dead}")
        if self.net_deadline <= 0.0:
            raise ValueError(
                f"net_deadline must be > 0, got {self.net_deadline}")

    def backoff_seconds(self, plan_seed: int, tid: int,
                        attempt: int) -> float:
        """Seeded exponential backoff before retry ``attempt`` (>= 1)."""
        if self.backoff <= 0.0 or attempt < 1:
            return 0.0
        base = self.backoff * (2.0 ** (attempt - 1))
        if self.jitter <= 0.0:
            return base
        rng = FaultPlan(seed=plan_seed).task_rng(tid, 90_300 + attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class TileAccessor:
    """Raw tile storage access for executor-internal recovery.

    Wraps a ``mat_id -> DistMatrix`` mapping (the runtime's weak
    registry).  All methods touch ``DistMatrix._tiles`` directly: they
    run on executor threads where re-entering ``tile()``'s sync guard
    or the sanitizer hooks would deadlock or raise spurious findings.
    ``None`` entries (lazily-zero tiles) are preserved as ``None`` in
    snapshots and restored as such.
    """

    def __init__(self, matrices) -> None:
        self._matrices = matrices

    def _mat(self, ref: TileRef):
        """The owning DistMatrix, or None for refs that are not matrix
        tiles (scalar reduction pseudo-tiles, collected matrices)."""
        return self._matrices.get(ref[0])

    def snapshot(self, refs) -> Dict[TileRef, Optional[bytes]]:
        """Copy the current contents of ``refs`` (write tiles).

        Non-matrix refs (scalar reduction pseudo-tiles) are skipped:
        scalar payloads overwrite their result wholesale, so a retry
        needs no restore for them.

        A tile is kept as its C-order bytes, not as an array copy: an
        ndarray copy of more than 500 elements drops the GIL around a
        sub-microsecond memcpy, and with several lanes every such drop
        is a chance to lose the lock to another lane and wait to get
        it back — measured at ~15 us per task on 32x32 tiles, ten times
        the copy itself.  ``tobytes`` copies under the lock.
        """
        snap: Dict[TileRef, Optional[bytes]] = {}
        for ref in refs:
            if ref in snap:
                continue
            m = self._mat(ref)
            if m is None:
                continue
            t = m._tiles.get((ref[1], ref[2]))
            snap[ref] = None if t is None else t.tobytes()
        return snap

    def restore(self, snap: Dict[TileRef, Optional[bytes]]) -> None:
        """Reinstall a snapshot (the snapshot itself is immutable, so it
        stays pristine for further retries)."""
        for ref, buf in snap.items():
            m = self._mat(ref)
            if m is None:
                continue
            key = (ref[1], ref[2])
            if buf is None:
                m._tiles[key] = None
            else:
                t = m._tiles[key]
                t[...] = np.frombuffer(buf, dtype=t.dtype).reshape(t.shape)

    def corrupt(self, ref: TileRef, value: str) -> bool:
        """Overwrite one entry of tile ``ref`` with NaN or Inf."""
        m = self._mat(ref)
        if m is None:
            return False
        key = (ref[1], ref[2])
        t = m._tiles.get(key)
        if t is None:  # lazily-zero tile: materialize it first
            t = np.zeros((m.tile_rows(ref[1]), m.tile_cols(ref[2])),
                         dtype=m.dtype)
            m._tiles[key] = t
        if not t.size:
            return False
        t.flat[0] = np.nan if value == "nan" else np.inf
        return True

    def nonfinite(self, refs) -> List[TileRef]:
        """Refs among ``refs`` whose tiles contain NaN/Inf entries."""
        bad: List[TileRef] = []
        for ref in refs:
            m = self._mat(ref)
            if m is None:
                continue
            t = m._tiles.get((ref[1], ref[2]))
            if t is not None and not np.all(np.isfinite(t)):
                bad.append(ref)
        return bad


class LiveFaultInjector:
    """Evaluate a :class:`FaultPlan`'s live faults inside real workers.

    Deterministic given the plan: every decision draws from
    ``plan.task_rng(tid, epoch)`` with the module-level epoch offsets,
    so two runs of the same plan on the same graph inject identical
    faults.  The only dispatch-order-dependent piece is the
    ``max_events`` budget of :class:`TileCorruption` (first matching
    attempt to draw wins the budget), which is taken under a lock.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._corruption_events = [0] * len(plan.corruptions)

    @property
    def active(self) -> bool:
        p = self.plan
        return (p.live_faults
                or (p.transient is not None
                    and p.transient.probability > 0.0))

    def stall_seconds(self, tid: int, kind: str, attempt: int) -> float:
        """Total injected pre-payload stall for this attempt (0 = none)."""
        total = 0.0
        for s in self.plan.stalls:
            if s.probability <= 0.0 or not s.matches_kind(kind):
                continue
            rng = self.plan.task_rng(tid, 90_001 + attempt)
            if rng.random() < s.probability:
                total += s.seconds
        return total

    def transient_fires(self, tid: int, attempt: int) -> bool:
        """Seeded pre-payload transient failure for this attempt.

        Mirrors the simulator's per-attempt model, but the final
        attempt the transient budget allows (``max_attempts - 1``
        retries) always succeeds, so a plan alone can never livelock a
        run whose :class:`RecoveryPolicy` grants enough retries.
        """
        tr = self.plan.transient
        if tr is None or tr.probability <= 0.0:
            return False
        if attempt >= tr.max_attempts - 1:
            return False
        rng = self.plan.task_rng(tid, 90_100 + attempt)
        return rng.random() < tr.probability

    def corruption_for(self, tid: int, kind: str, attempt: int,
                       n_writes: int) -> Optional[Tuple[int, str]]:
        """Post-payload corruption draw: ``(write_index, value)``.

        Returns ``None`` when nothing fires.  The per-spec
        ``max_events`` budget is consumed under the injector lock.
        """
        if n_writes <= 0:
            return None
        for idx, c in enumerate(self.plan.corruptions):
            if c.probability <= 0.0 or not c.matches_kind(kind):
                continue
            rng = self.plan.task_rng(tid, 90_200 + attempt)
            if rng.random() >= c.probability:
                continue
            with self._lock:
                if self._corruption_events[idx] >= c.max_events:
                    continue
                self._corruption_events[idx] += 1
            return (rng.randrange(n_writes), c.value)
        return None
