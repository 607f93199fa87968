"""Network fault plans and failure-detection primitives.

A :class:`NetFaultPlan` extends :class:`~repro.resilience.faults.FaultPlan`
(via its ``net`` field) onto the real wire of the multi-process
backend: where the simulator prices link degradation, ChaosComm
(:mod:`repro.runtime.distributed.chaos`) *injects* it into live
driver↔worker connections — per-frame drops, duplicates, bounded
delays, byte corruption, one-way stalls, scheduled partitions, and
deterministic mid-stream connection cuts.

Like :class:`FaultPlan`, a net plan is **deterministic**: every
per-frame decision derives arithmetically from ``(seed, endpoint,
frame index)`` so the same plan perturbs the same frames the same way
on every run, regardless of thread interleaving.

Two recovery-side primitives live here as well, so both the driver
and the resilience tests can share them:

* :class:`BackoffSchedule` — a seeded, jittered, deadline-budgeted
  exponential backoff (reconnect pacing for
  :class:`~repro.runtime.distributed.reliable.ReliableComm`);
* :class:`PhiAccrualDetector` — a phi-accrual failure detector over
  heartbeat times (Hayashibara et al.), feeding the
  scheduler's suspicion state and the executor's early-kill path.
"""

from __future__ import annotations

import json
import math
import random
import threading
from dataclasses import MISSING, dataclass, fields, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FrameDrop", "FrameDuplicate", "FrameDelay", "FrameCorrupt",
    "LinkStall", "NetPartition", "ConnectionCut", "NetFaultPlan",
    "BackoffSchedule", "PhiAccrualDetector", "default_chaos_plan",
]

_INF = float("inf")

#: LinkStall directions: worker→driver and driver→worker.
STALL_DIRECTIONS = ("w2d", "d2w")


@dataclass(frozen=True)
class FrameDrop:
    """Each sent frame vanishes with probability ``probability``.

    ``max_events`` bounds the number of drops per endpoint process
    (``None`` = unbounded).
    """

    probability: float
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1], got "
                f"{self.probability}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(
                f"max_events must be >= 1 or None, got {self.max_events}")


@dataclass(frozen=True)
class FrameDuplicate:
    """Each sent frame is transmitted twice with probability
    ``probability`` (the receiver's sequence numbers discard the
    copy)."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"duplicate probability must be in [0, 1], got "
                f"{self.probability}")


@dataclass(frozen=True)
class FrameDelay:
    """Each sent frame sleeps a bounded, seeded-uniform delay in
    ``[min_seconds, seconds]`` with probability ``probability``."""

    probability: float
    seconds: float = 0.005
    min_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"delay probability must be in [0, 1], got "
                f"{self.probability}")
        if self.seconds <= 0.0:
            raise ValueError(f"delay seconds must be > 0, got "
                             f"{self.seconds}")
        if not 0.0 <= self.min_seconds <= self.seconds:
            raise ValueError("delay min_seconds must be in [0, seconds]")


@dataclass(frozen=True)
class FrameCorrupt:
    """Flip one payload byte of a sent frame with probability
    ``probability`` (at most ``max_events`` frames per run).

    Only the *payload* is corrupted — never the length/codec header —
    so the stream stays framed and the CRC32 trailer is what catches
    the damage.  Injection is driver-side only, which makes
    ``max_events`` a global (per-run) bound.
    """

    probability: float
    max_events: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"corrupt probability must be in [0, 1], got "
                f"{self.probability}")
        if self.max_events < 1:
            raise ValueError(
                f"max_events must be >= 1, got {self.max_events}")


@dataclass(frozen=True)
class LinkStall:
    """One-way silence: every frame the worker in slot ``wid`` sends
    (``"w2d"``) or receives (``"d2w"``) during ``[start, end)`` is
    dropped.

    ``wid`` here (and in :class:`NetPartition` / :class:`ConnectionCut`)
    is the stable worker *lane* 0..workers-1, not the executor's
    internal per-fork worker id — those are unique per execution
    window and would only ever match the first one.

    Models a hung NIC / switch queue in one direction: the worker
    keeps computing but its replies (and heartbeats) never arrive, so
    only the failure detector can tell it from a live worker.
    """

    wid: int
    direction: str = "w2d"
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.wid < 0:
            raise ValueError(f"stall wid must be >= 0, got {self.wid}")
        if self.direction not in STALL_DIRECTIONS:
            raise ValueError(
                f"stall direction must be one of {STALL_DIRECTIONS}, "
                f"got {self.direction!r}")
        if self.end < self.start:
            raise ValueError("stall window end precedes start")


@dataclass(frozen=True)
class NetPartition:
    """Both-ways silence between the driver and the workers in lanes
    ``wids`` during ``[start, end)`` (seconds from executor start)."""

    wids: Tuple[int, ...]
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        object.__setattr__(self, "wids", tuple(int(w) for w in self.wids))
        if not self.wids:
            raise ValueError("partition needs at least one wid")
        if any(w < 0 for w in self.wids):
            raise ValueError(f"partition wids must be >= 0, got "
                             f"{self.wids}")
        if self.end < self.start:
            raise ValueError("partition window end precedes start")


@dataclass(frozen=True)
class ConnectionCut:
    """Lane ``wid``'s connection is severed after the slot has carried
    ``after_frames`` frames (sent + received, counted driver-side and
    accumulated across execution windows).

    Deterministic by construction — a frame count, not a wall-clock
    time — so the cut always lands on the same frame.  Recovery is the
    reconnect-and-resync handshake, not a worker respawn.
    """

    wid: int
    after_frames: int

    def __post_init__(self) -> None:
        if self.wid < 0:
            raise ValueError(f"cut wid must be >= 0, got {self.wid}")
        if self.after_frames < 1:
            raise ValueError(
                f"after_frames must be >= 1, got {self.after_frames}")


@dataclass(frozen=True)
class NetFaultPlan:
    """One run's worth of injected network faults (deterministic
    given ``seed``)."""

    seed: int = 0
    drops: Tuple[FrameDrop, ...] = ()
    duplicates: Tuple[FrameDuplicate, ...] = ()
    delays: Tuple[FrameDelay, ...] = ()
    corrupts: Tuple[FrameCorrupt, ...] = ()
    stalls: Tuple[LinkStall, ...] = ()
    partitions: Tuple[NetPartition, ...] = ()
    cuts: Tuple[ConnectionCut, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists from hand-built plans / JSON round-trips.
        for name in ("drops", "duplicates", "delays", "corrupts",
                     "stalls", "partitions", "cuts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        seen = set()
        for c in self.cuts:
            if c.wid in seen:
                raise ValueError(f"worker {c.wid} is cut more than once")
            seen.add(c.wid)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (any(d.probability > 0.0 for d in self.drops)
                    or any(d.probability > 0.0 for d in self.duplicates)
                    or any(d.probability > 0.0 for d in self.delays)
                    or any(c.probability > 0.0 for c in self.corrupts)
                    or self.stalls or self.partitions or self.cuts)

    def with_seed(self, seed: int) -> "NetFaultPlan":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Deterministic per-frame randomness
    # ------------------------------------------------------------------

    def frame_rng(self, salt: int, index: int) -> random.Random:
        """A private RNG stream for frame ``index`` on the endpoint
        identified by ``salt`` (derived from side + wid).

        Same arithmetic shape as :meth:`FaultPlan.task_rng`: draws do
        not depend on send order across connections, only on the
        per-endpoint frame index.
        """
        return random.Random(
            (self.seed * 1_000_003 + index) * 2_147_483_647 + salt)

    # ------------------------------------------------------------------
    # Serialization (rides inside FaultPlan's --fault-plan JSON)
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"seed": self.seed}
        if self.drops:
            out["drops"] = [{"probability": d.probability,
                             "max_events": d.max_events}
                            for d in self.drops]
        if self.duplicates:
            out["duplicates"] = [{"probability": d.probability}
                                 for d in self.duplicates]
        if self.delays:
            out["delays"] = [{"probability": d.probability,
                              "seconds": d.seconds,
                              "min_seconds": d.min_seconds}
                             for d in self.delays]
        if self.corrupts:
            out["corrupts"] = [{"probability": c.probability,
                                "max_events": c.max_events}
                               for c in self.corrupts]
        if self.stalls:
            out["stalls"] = [
                {"wid": s.wid, "direction": s.direction, "start": s.start,
                 "end": (None if math.isinf(s.end) else s.end)}
                for s in self.stalls]
        if self.partitions:
            out["partitions"] = [
                {"wids": list(p.wids), "start": p.start,
                 "end": (None if math.isinf(p.end) else p.end)}
                for p in self.partitions]
        if self.cuts:
            out["cuts"] = [{"wid": c.wid, "after_frames": c.after_frames}
                           for c in self.cuts]
        return out

    @classmethod
    def from_dict(cls, data: object) -> "NetFaultPlan":
        """The plan :meth:`as_dict` wrote; any malformed input — a
        missing or unknown key, a value of the wrong type, a bad
        container — is a ``ValueError`` naming the entry."""
        return _NET_PLAN(data, "net-plan")

    def to_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
        return path

    @classmethod
    def from_json(cls, path: str) -> "NetFaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Loading (``FaultPlan.from_dict`` builds its own fields from these)
# ----------------------------------------------------------------------

#: ``conv(value, where)`` — a JSON value checked and converted, or a
#: ``ValueError`` naming ``where``.
_Field = Callable[[object, str], Any]


def _typed(what: str, cast: Callable[[Any], Any], *types: type) -> _Field:
    """A scalar of one of ``types`` (a bool is never a number)."""
    def conv(v: object, where: str) -> Any:
        if not isinstance(v, types) or (isinstance(v, bool)
                                        and bool not in types):
            raise ValueError(f"{where} must be {what}, got {v!r}")
        return cast(v)
    return conv


_real = _typed("a number", float, int, float)
_count = _typed("an integer", int, int)
_text = _typed("a string", str, str)


def _maybe(conv: _Field) -> _Field:
    """``conv``, or ``None`` for a JSON null."""
    return lambda v, where: None if v is None else conv(v, where)


def _end(v: object, where: str) -> float:
    """A window end; null is open-ended."""
    return _INF if v is None else _real(v, where)


def _items(conv: _Field) -> _Field:
    """A list of ``conv`` values, as a tuple."""
    def conv_list(v: object, where: str) -> Tuple[Any, ...]:
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {v!r}")
        return tuple(conv(x, f"{where}[{i}]") for i, x in enumerate(v))
    return conv_list


def _entry(cls: Any, schema: Dict[str, _Field]) -> _Field:
    """A JSON object of the keys in ``schema``, built into the
    dataclass ``cls``: a field without a default is required, and what
    ``cls`` itself rejects is reported for the entry too."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]

    def build(v: object, where: str) -> Any:
        if not isinstance(v, dict):
            raise ValueError(f"{where} must be an object, got {v!r}")
        unknown = sorted(set(v) - set(schema))
        if unknown:
            raise ValueError(f"unknown {where} keys: {unknown}")
        missing = [k for k in required if k not in v]
        if missing:
            raise ValueError(f"{where} is missing {missing}")
        kw = {k: schema[k](x, f"{where}.{k}") for k, x in v.items()}
        try:
            return cls(**kw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return build


_WINDOW = {"start": _real, "end": _end}
_NET_PLAN = _entry(NetFaultPlan, {
    "seed": _count,
    "drops": _items(_entry(FrameDrop, {"probability": _real,
                                       "max_events": _maybe(_count)})),
    "duplicates": _items(_entry(FrameDuplicate, {"probability": _real})),
    "delays": _items(_entry(FrameDelay, {"probability": _real,
                                         "seconds": _real,
                                         "min_seconds": _real})),
    "corrupts": _items(_entry(FrameCorrupt, {"probability": _real,
                                             "max_events": _count})),
    "stalls": _items(_entry(LinkStall, {"wid": _count, "direction": _text,
                                        **_WINDOW})),
    "partitions": _items(_entry(NetPartition,
                                {"wids": _items(_count), **_WINDOW})),
    "cuts": _items(_entry(ConnectionCut, {"wid": _count,
                                          "after_frames": _count})),
})


def default_chaos_plan(seed: int = 0,
                       partition_wids: Tuple[int, ...] = (2,),
                       cut_wid: int = 0) -> NetFaultPlan:
    """The CI chaos smoke net plan: background drops, duplicates and
    delays, one corrupt frame, one mid-run partition, one mid-stream
    connection cut.  The matching process fault (one SIGKILL) comes
    from the surrounding :class:`FaultPlan` — which by default kills
    worker 1, so the partition targets worker 2 (a partition of an
    already-dead wid would never be observed)."""
    return NetFaultPlan(
        seed=seed,
        drops=(FrameDrop(probability=0.02),),
        duplicates=(FrameDuplicate(probability=0.01),),
        delays=(FrameDelay(probability=0.05, seconds=0.004),),
        corrupts=(FrameCorrupt(probability=0.05, max_events=1),),
        partitions=(NetPartition(wids=partition_wids,
                                 start=0.3, end=0.55),),
        cuts=(ConnectionCut(wid=cut_wid, after_frames=40),),
    )


# ----------------------------------------------------------------------
# Reconnect pacing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BackoffSchedule:
    """Seeded, jittered, deadline-budgeted exponential backoff.

    The nominal k-th delay is ``min(base * factor**k, max_delay)``;
    each realised delay is drawn uniformly in ``nominal * [1 - jitter,
    1 + jitter]`` and then clamped up to its predecessor, which keeps
    the sequence monotone non-decreasing *and* inside the jitter band
    (the previous delay never exceeds the next nominal's upper bound
    because ``factor >= 1``).  Generation stops before the cumulative
    sleep would exceed ``deadline`` — the total budget is a hard cap,
    never merely truncated.
    """

    base: float = 0.01
    factor: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.3
    deadline: float = 2.0

    def __post_init__(self) -> None:
        if self.base <= 0.0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < self.base:
            raise ValueError("max_delay must be >= base")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got "
                             f"{self.jitter}")
        if self.deadline <= 0.0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def delays(self, seed: int = 0, key: int = 0,
               limit: int = 64) -> List[float]:
        """The realised sleep sequence for one (seed, key) stream."""
        rng = random.Random((seed * 1_000_003 + key) * 9_176_203 + 17)
        out: List[float] = []
        total = 0.0
        prev = 0.0
        for k in range(limit):
            nominal = min(self.base * self.factor ** k, self.max_delay)
            lo = nominal * (1.0 - self.jitter)
            hi = nominal * (1.0 + self.jitter)
            d = max(rng.uniform(lo, hi), prev)
            if total + d > self.deadline:
                break
            out.append(d)
            total += d
            prev = d
        return out


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------

class PhiAccrualDetector:
    """Phi-accrual failure detector over heartbeat times.

    ``phi(now) = -log10 P(next heartbeat still pending at now)`` under
    a normal model of inter-arrival times; a phi of 8 means the
    silence is a 1-in-10^8 event for a live peer.  The window is
    seeded with ``expected_interval`` so suspicion works from the very
    first beats, and the standard deviation is floored (at ``min_std``,
    default the expected interval itself) so metronome-regular
    heartbeats cannot make the detector hair-triggered: with the
    default floor, ``phi_dead = 8`` needs roughly six missed intervals
    of silence, which a loaded CI machine will not produce for a live
    worker.  Thread-safe; the processes driver calls ``beat`` from its
    event loop, with the time the worker sent the beat, and ``phi``
    from its tick.
    """

    def __init__(self, expected_interval: float, window: int = 64,
                 min_std: Optional[float] = None) -> None:
        if expected_interval <= 0.0:
            raise ValueError("expected_interval must be > 0")
        self.expected_interval = expected_interval
        self.window = max(4, window)
        self.min_std = (min_std if min_std is not None
                        else expected_interval)
        self._intervals: List[float] = [expected_interval]
        self._last: Optional[float] = None
        #: When the detector was made: a suspicion grace starts here.
        self.born = perf_counter()
        self._lock = threading.Lock()

    def beat(self, now: Optional[float] = None) -> None:
        """Record a heartbeat at ``now`` (driver-clock seconds)."""
        t = perf_counter() if now is None else now
        with self._lock:
            if self._last is not None and t > self._last:
                self._intervals.append(t - self._last)
                if len(self._intervals) > self.window:
                    del self._intervals[0]
            self._last = t

    @property
    def last_beat(self) -> Optional[float]:
        with self._lock:
            return self._last

    def phi(self, now: Optional[float] = None) -> float:
        """Current suspicion level; 0.0 until the first beat."""
        t = perf_counter() if now is None else now
        with self._lock:
            if self._last is None:
                return 0.0
            elapsed = t - self._last
            n = len(self._intervals)
            mean = sum(self._intervals) / n
            var = sum((x - mean) ** 2 for x in self._intervals) / n
        std = max(math.sqrt(var), self.min_std)
        if elapsed <= mean:
            return 0.0
        # P(interval > elapsed) for a normal(mean, std) interval.
        p = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        if p <= 0.0:
            return _INF
        return -math.log10(p)

    def suspicion_latency(self, threshold: float) -> float:
        """Seconds of silence after the last beat before ``phi``
        crosses ``threshold`` (given the current window) — the
        detector's worst-case detection latency."""
        with self._lock:
            n = len(self._intervals)
            mean = sum(self._intervals) / n
            var = sum((x - mean) ** 2 for x in self._intervals) / n
        std = max(math.sqrt(var), self.min_std)
        # Invert phi: elapsed = mean + z * std with
        # 0.5 * erfc(z / sqrt(2)) = 10**-threshold.
        lo, hi = 0.0, 64.0
        target = 10.0 ** (-threshold)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(mid / math.sqrt(2.0)) > target:
                lo = mid
            else:
                hi = mid
        return mean + hi * std
