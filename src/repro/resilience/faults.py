"""Deterministic, seed-driven fault plans for the schedule simulator.

The paper's target machines (Summit, Frontier) run QDWH at scales
where node failures and stragglers are routine.  A :class:`FaultPlan`
describes what goes wrong in one simulated run:

* :class:`RankCrash` — a rank dies at an absolute simulated time; its
  resident tiles are lost and its pending work must move to survivors
  (recovery is lineage replay, see :mod:`.recovery`);
* :class:`TransientFaults` — every kernel invocation fails with
  probability ``p`` (soft errors, ECC retries, XID resets); failed
  attempts are retried on the same slot with exponential backoff;
* :class:`LinkDegradation` — α/β multipliers on a (src, dst) rank
  path over a time window (a flaky cable, a congested switch);
* :class:`StragglerSlot` — a rate multiplier on one rank over a time
  window (thermal throttling, a noisy neighbour); the affected tasks
  only run slower, as a slow worker's do on the real runtime.

Two further fault classes target the *live* threaded backend
(:mod:`repro.runtime.parallel` via :mod:`repro.resilience.live`) and
are ignored by the simulator:

* :class:`WorkerStall` — an injected pre-payload sleep inside a real
  worker (models a descheduled core / page-fault storm); it delays the
  attempt, and a ``task_timeout`` shorter than the stall counts it as
  timed out (on processes: kills the worker and replays its tasks);
* :class:`TileCorruption` — a NaN/Inf overwrite of one of a task's
  output tiles after the payload ran (models a silent data corruption
  that *is* caught, e.g. by checksums); the executor restores the
  pre-task snapshot and retries.

Plans are **deterministic**: the same plan and seed perturb the same
tasks the same way regardless of dispatch order (per-task derived
RNG streams), so faulty makespans are bit-reproducible — the property
the fault smoke benchmark asserts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .net import (_NET_PLAN, _WINDOW, NetFaultPlan, _count, _entry, _items,
                  _maybe, _real, _text)

_INF = float("inf")


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` fails permanently at simulated time ``time``."""

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"crash rank must be >= 0, got {self.rank}")
        if not self.time >= 0.0:
            raise ValueError(f"crash time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class TransientFaults:
    """Per-attempt kernel failure model with capped exponential backoff."""

    probability: float
    max_attempts: int = 4
    #: Backoff before retry k is ``backoff * 2**(k-1)`` seconds.
    backoff: float = 1.0e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"failure probability must be in [0, 1], got "
                f"{self.probability}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass(frozen=True)
class LinkDegradation:
    """α/β multipliers on the (src, dst) rank path during a window.

    ``src``/``dst`` of ``None`` match any rank.  ``alpha_factor``
    multiplies the link latency, ``beta_factor`` the inverse bandwidth
    (a ``beta_factor`` of 2 halves the effective bandwidth).
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    alpha_factor: float = 1.0
    beta_factor: float = 1.0
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.alpha_factor < 1.0 or self.beta_factor < 1.0:
            raise ValueError(
                "link degradation factors must be >= 1 (degradation "
                f"only); got alpha={self.alpha_factor}, "
                f"beta={self.beta_factor}")
        if self.end < self.start:
            raise ValueError("degradation window end precedes start")

    def matches(self, src: int, dst: int, t: float) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst)
                and self.start <= t < self.end)


@dataclass(frozen=True)
class StragglerSlot:
    """Rank ``rank`` runs ``factor``x slower during [start, end)."""

    rank: int
    factor: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(
                f"straggler factor must be >= 1 (slowdown only), got "
                f"{self.factor}")
        if self.end < self.start:
            raise ValueError("straggler window end precedes start")


@dataclass(frozen=True)
class WorkerStall:
    """Injected pre-payload sleep inside a live worker thread.

    Each attempt of each matching task stalls with probability
    ``probability`` for ``seconds`` of wall-clock time before its
    payload runs.  The sleep is a plain ``time.sleep``: the attempt is
    the task's only live one, and it runs its payload once the stall
    is over.  ``kinds`` (lowercase :class:`TaskKind`
    names, e.g. ``("gemm",)``) restricts which tasks may stall;
    ``None`` matches every kind.
    """

    probability: float
    seconds: float = 0.25
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kinds is not None:
            object.__setattr__(self, "kinds",
                               tuple(str(k).lower() for k in self.kinds))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"stall probability must be in [0, 1], got "
                f"{self.probability}")
        if self.seconds <= 0.0:
            raise ValueError(
                f"stall seconds must be > 0, got {self.seconds}")

    def matches_kind(self, kind: str) -> bool:
        return self.kinds is None or kind.lower() in self.kinds


@dataclass(frozen=True)
class TileCorruption:
    """Post-payload NaN/Inf overwrite of one output tile (live backend).

    After a matching task's payload runs, with probability
    ``probability`` one of its write tiles has a single entry replaced
    by ``value`` ("nan" or "inf").  The executor detects the
    corruption, restores the task's pre-execution tile snapshot, and
    retries — so a corruption consumes one retry, exactly like a
    transient.  At most ``max_events`` corruptions fire per run
    (first-come in dispatch order).  ``kinds`` restricts eligible task
    kinds as in :class:`WorkerStall`.
    """

    probability: float
    value: str = "nan"
    max_events: int = 1
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kinds is not None:
            object.__setattr__(self, "kinds",
                               tuple(str(k).lower() for k in self.kinds))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"corruption probability must be in [0, 1], got "
                f"{self.probability}")
        if self.value not in ("nan", "inf"):
            raise ValueError(
                f"corruption value must be 'nan' or 'inf', got "
                f"{self.value!r}")
        if self.max_events < 1:
            raise ValueError(
                f"max_events must be >= 1, got {self.max_events}")

    def matches_kind(self, kind: str) -> bool:
        return self.kinds is None or kind.lower() in self.kinds


@dataclass(frozen=True)
class FaultPlan:
    """One run's worth of injected faults (deterministic given seed)."""

    seed: int = 0
    crashes: Tuple[RankCrash, ...] = ()
    transient: Optional[TransientFaults] = None
    links: Tuple[LinkDegradation, ...] = ()
    stragglers: Tuple[StragglerSlot, ...] = ()
    #: Live-backend faults (ignored by the schedule simulator).
    stalls: Tuple[WorkerStall, ...] = ()
    corruptions: Tuple[TileCorruption, ...] = ()
    #: Delay between a crash and the survivors reacting to it
    #: (failure-detector latency; charged before any replay dispatch).
    crash_detect_delay: float = 0.0
    #: Live network faults for the processes backend (injected by
    #: ChaosComm on the real wire; ignored by the simulator).
    net: Optional[NetFaultPlan] = None

    def __post_init__(self) -> None:
        # Tolerate lists from hand-built plans / JSON round-trips.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        if self.crash_detect_delay < 0.0:
            raise ValueError("crash_detect_delay must be >= 0")
        seen = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ValueError(f"rank {c.rank} crashes more than once")
            seen.add(c.rank)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (not self.crashes and not self.links and not self.stragglers
                and not self.live_faults
                and (self.transient is None
                     or self.transient.probability == 0.0)
                and (self.net is None or self.net.empty))

    @property
    def live_faults(self) -> bool:
        """True when the plan carries live-backend stall/corruption
        injections."""
        return (any(s.probability > 0.0 for s in self.stalls)
                or any(c.probability > 0.0 for c in self.corruptions))

    # ------------------------------------------------------------------
    # Deterministic per-task randomness
    # ------------------------------------------------------------------

    def task_rng(self, tid: int, epoch: int = 0) -> random.Random:
        """A private RNG stream for (task, attempt-epoch).

        Derived arithmetically from the plan seed so draws do not
        depend on dispatch order — two runs of the same plan perturb
        the same tasks identically even if recovery reorders dispatch.
        """
        return random.Random(
            (self.seed * 1_000_003 + tid) * 2_147_483_647 + epoch)

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @classmethod
    def poisson_crashes(cls, mttf: float, horizon: float, ranks: int,
                        seed: int = 0, **kwargs) -> "FaultPlan":
        """Exponentially-distributed rank crashes over ``[0, horizon]``.

        Each of the ``ranks`` ranks draws an exponential failure time
        with mean ``mttf * ranks`` (a system MTTF of ``mttf`` across
        the whole allocation); draws landing past ``horizon`` mean the
        rank survives the run.  At least one surviving rank is always
        kept (the last would-be casualty is spared).
        """
        if mttf <= 0.0 or horizon <= 0.0 or ranks <= 0:
            raise ValueError("mttf, horizon, and ranks must be positive")
        rng = random.Random(seed * 7_368_787 + ranks)
        crashes: List[RankCrash] = []
        for r in range(ranks):
            t = rng.expovariate(1.0 / (mttf * ranks))
            if t < horizon:
                crashes.append(RankCrash(rank=r, time=t))
        if len(crashes) >= ranks:  # spare one rank: someone must recover
            crashes.sort(key=lambda c: c.time)
            crashes = crashes[:ranks - 1]
        return cls(seed=seed, crashes=tuple(crashes), **kwargs)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Serialization (the CLI's --fault-plan JSON)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "crash_detect_delay": self.crash_detect_delay,
        }
        if self.crashes:
            out["crashes"] = [{"rank": c.rank, "time": c.time}
                              for c in self.crashes]
        if self.transient is not None:
            out["transient"] = {
                "probability": self.transient.probability,
                "max_attempts": self.transient.max_attempts,
                "backoff": self.transient.backoff,
            }
        if self.links:
            out["links"] = [
                {"src": f.src, "dst": f.dst,
                 "alpha_factor": f.alpha_factor,
                 "beta_factor": f.beta_factor,
                 "start": f.start,
                 "end": (None if math.isinf(f.end) else f.end)}
                for f in self.links]
        if self.stragglers:
            out["stragglers"] = [
                {"rank": s.rank, "factor": s.factor, "start": s.start,
                 "end": (None if math.isinf(s.end) else s.end)}
                for s in self.stragglers]
        if self.stalls:
            out["stalls"] = [
                {"probability": s.probability, "seconds": s.seconds,
                 "kinds": (None if s.kinds is None else list(s.kinds))}
                for s in self.stalls]
        if self.corruptions:
            out["corruptions"] = [
                {"probability": c.probability, "value": c.value,
                 "max_events": c.max_events,
                 "kinds": (None if c.kinds is None else list(c.kinds))}
                for c in self.corruptions]
        if self.net is not None:
            out["net"] = self.net.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: object) -> "FaultPlan":
        """The plan :meth:`as_dict` wrote; any malformed input — a
        missing or unknown key, a value of the wrong type, a bad
        container — is a ``ValueError`` naming the entry."""
        return _FAULT_PLAN(data, "fault-plan")

    def to_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
        return path

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


_FAULT_PLAN = _entry(FaultPlan, {
    "seed": _count,
    "crashes": _items(_entry(RankCrash, {"rank": _count, "time": _real})),
    "transient": _maybe(_entry(TransientFaults, {
        "probability": _real, "max_attempts": _count, "backoff": _real})),
    "links": _items(_entry(LinkDegradation, {
        "src": _maybe(_count), "dst": _maybe(_count),
        "alpha_factor": _real, "beta_factor": _real, **_WINDOW})),
    "stragglers": _items(_entry(StragglerSlot, {
        "rank": _count, "factor": _real, **_WINDOW})),
    "stalls": _items(_entry(WorkerStall, {
        "probability": _real, "seconds": _real,
        "kinds": _maybe(_items(_text))})),
    "corruptions": _items(_entry(TileCorruption, {
        "probability": _real, "value": _text, "max_events": _count,
        "kinds": _maybe(_items(_text))})),
    "net": _maybe(_NET_PLAN),
    "crash_detect_delay": _real,
})


@dataclass
class RecoveryStats:
    """What resilience cost one simulated run (ScheduleResult.recovery)."""

    crashes: int = 0
    dead_ranks: Tuple[int, ...] = ()
    revoked_inflight: int = 0
    replayed_tasks: int = 0
    lost_tiles: int = 0
    transient_failures: int = 0
    retried_tasks: int = 0
    degraded_transfers: int = 0
    #: Re-execution seconds charged to recovery (replayed + failed
    #: attempts).
    reexecution_seconds: float = 0.0
    #: Extra bytes moved outside the regular transfer paths.  (Replay
    #: re-communication flows through the regular transfer paths and
    #: is counted in the run's CommCounters.)
    recovery_bytes: int = 0
    #: Live-backend counters (ParallelExecutor; zero for simulated runs).
    timeouts: int = 0
    corrupted_tiles: int = 0
    injected_stalls: int = 0
    #: Algorithm-level health interventions (NaN guard, Cholesky→QR
    #: fallback, estimator defaults, dense degradation).
    health_events: int = 0
    #: Network resilience counters (processes backend; driver-side).
    net_drops: int = 0
    net_corrupt_frames: int = 0
    net_retransmits: int = 0
    net_reconnects: int = 0
    heartbeat_suspects: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "crashes": self.crashes,
            "dead_ranks": list(self.dead_ranks),
            "revoked_inflight": self.revoked_inflight,
            "replayed_tasks": self.replayed_tasks,
            "lost_tiles": self.lost_tiles,
            "transient_failures": self.transient_failures,
            "retried_tasks": self.retried_tasks,
            "degraded_transfers": self.degraded_transfers,
            "reexecution_seconds": self.reexecution_seconds,
            "recovery_bytes": self.recovery_bytes,
            "timeouts": self.timeouts,
            "corrupted_tiles": self.corrupted_tiles,
            "injected_stalls": self.injected_stalls,
            "health_events": self.health_events,
            "net_drops": self.net_drops,
            "net_corrupt_frames": self.net_corrupt_frames,
            "net_retransmits": self.net_retransmits,
            "net_reconnects": self.net_reconnects,
            "heartbeat_suspects": self.heartbeat_suspects,
        }

    def publish(self, registry, prefix: str = "resilience") -> None:
        """Batch the stats into an obs metrics registry."""
        for name, value in (
                ("crashes", self.crashes),
                ("tasks_replayed", self.replayed_tasks),
                ("inflight_revoked", self.revoked_inflight),
                ("tiles_lost", self.lost_tiles),
                ("transient_failures", self.transient_failures),
                ("tasks_retried", self.retried_tasks),
                ("degraded_transfers", self.degraded_transfers),
                ("reexecution_seconds", self.reexecution_seconds),
                ("recovery_bytes", self.recovery_bytes),
                ("timeouts", self.timeouts),
                ("corrupted_tiles", self.corrupted_tiles),
                ("injected_stalls", self.injected_stalls),
                ("health_events", self.health_events),
                ("net_drops", self.net_drops),
                ("net_corrupt_frames", self.net_corrupt_frames),
                ("net_retransmits", self.net_retransmits),
                ("net_reconnects", self.net_reconnects),
                ("heartbeat_suspects", self.heartbeat_suspects)):
            if value:
                registry.counter(f"{prefix}.{name}").inc(value)


def plan_from_spec(*, seed: int = 0,
                   crash: Sequence[str] = (),
                   transient_p: float = 0.0,
                   max_attempts: int = 4,
                   straggler: Sequence[str] = (),
                   link_factor: float = 1.0,
                   stall_p: float = 0.0,
                   stall_seconds: float = 0.25,
                   corrupt_p: float = 0.0) -> FaultPlan:
    """Build a plan from CLI-style compact specs.

    ``crash`` entries are ``"RANK@TIME"``; ``straggler`` entries are
    ``"RANK@FACTOR"`` (whole-run window); ``link_factor`` > 1 degrades
    every inter-rank path's bandwidth by that factor.  ``stall_p`` and
    ``corrupt_p`` add live-backend worker stalls and a single NaN tile
    corruption (see :class:`WorkerStall` / :class:`TileCorruption`).
    """
    def split(spec: str, what: str) -> Tuple[int, float]:
        try:
            r, v = spec.split("@")
            return int(r), float(v)
        except ValueError:
            raise ValueError(
                f"bad {what} spec {spec!r}; expected RANK@VALUE") from None

    crashes = tuple(RankCrash(*split(s, "crash")) for s in crash)
    stragglers = tuple(StragglerSlot(rank=r, factor=f)
                       for r, f in (split(s, "straggler")
                                    for s in straggler))
    links = ((LinkDegradation(beta_factor=link_factor),)
             if link_factor > 1.0 else ())
    transient = (TransientFaults(probability=transient_p,
                                 max_attempts=max_attempts)
                 if transient_p > 0.0 else None)
    stalls = ((WorkerStall(probability=stall_p, seconds=stall_seconds),)
              if stall_p > 0.0 else ())
    corruptions = ((TileCorruption(probability=corrupt_p),)
                   if corrupt_p > 0.0 else ())
    return FaultPlan(seed=seed, crashes=crashes, transient=transient,
                     links=links, stragglers=stragglers,
                     stalls=stalls, corruptions=corruptions)
