"""Recorded event stream of one distributed execution (DistSan input).

The executor, the shared-memory store and the comm layer all accept an
optional observer; when a :class:`DistTraceRecorder` is attached
(``rt.dist_recorder = DistTraceRecorder()`` before the first sync)
every scheduling decision, shm lifecycle step and wire frame is
recorded with a global sequence number.  The recorder is the *input*
to the DistSan checkers in :mod:`repro.analysis.dist`:

* ``events`` — dispatch/completion/driver-run/crash/replay plus shm
  create/pin/incref/decref/unlink, in driver-observation order.  The
  happens-before checker (:mod:`repro.analysis.dist.hb`) rebuilds the
  cross-process partial order from these.
* ``frames`` — per-connection wire frames (direction, op, codec,
  sizes), fed to the protocol state-machine checker
  (:mod:`repro.analysis.dist.protocol`).
* ``leaked`` — the OS-level ``/dev/shm`` scan taken at executor close,
  ground truth for the refcount audit.

Recording is strictly opt-in and thread-safe (reader threads append
concurrently); with no recorder attached every hook site is a ``None``
check and the runtime is unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["DistEvent", "FrameRecord", "DistTraceRecorder"]

#: Scheduling / shm event kinds recorded by the executor and store.
EV_SPAWN = "spawn"          # worker process forked and handshaken
EV_DISPATCH = "dispatch"    # task message sent to a worker
EV_COMPLETE = "complete"    # done reply accepted from a worker
EV_FAIL = "fail"            # fail reply accepted from a worker
EV_DRIVER = "driver"        # driver-lane task ran inline in the parent
EV_DEATH = "death"          # worker EOF observed
EV_REPLAY = "replay"        # revoked task requeued after a death
EV_CREATE = "create"        # shm segment created for a matrix
EV_PIN = "pin"              # a tile installed as a view into its segment
EV_INCREF = "incref"        # segment refcount raised
EV_DECREF = "decref"        # segment refcount dropped
EV_UNLINK = "unlink"        # segment destroyed (refs reached zero)
EV_EVACUATE = "evacuate"    # tiles copied out of shm at close
EV_CLOSE = "close"          # store/executor closed


@dataclass(frozen=True)
class DistEvent:
    """One recorded scheduling or shm-lifecycle step."""

    seq: int
    kind: str
    tid: int = -1
    wid: int = -1
    attempt: int = 0
    #: Tile ref for pin events, () otherwise.
    ref: Tuple[int, ...] = ()
    segment: str = ""
    #: Segment refcount *after* the event (incref/decref/unlink).
    refs: int = -1
    detail: str = ""


@dataclass(frozen=True)
class FrameRecord:
    """One wire frame (or close) seen on one parent-side comm."""

    direction: str            # "send" | "recv" | "close"
    op: str = ""              # message "op" field ("" for non-dicts)
    tid: int = -1
    attempt: int = -1
    codec: int = -1           # frame codec tag byte
    nbytes: int = 0           # whole frame size (header + payload)
    declared: int = -1        # length-prefix value (payload bytes)
    #: For "fail" replies: the recorded retryable verdict and the
    #: message's exception object (the protocol checker re-classifies).
    retryable: Optional[bool] = None
    exc: object = None


@dataclass
class DistTraceRecorder:
    """Thread-safe collector for one distributed execution."""

    events: List[DistEvent] = field(default_factory=list)
    #: connection key (worker wid as "w{wid}") -> frames in order.
    frames: Dict[str, List[FrameRecord]] = field(default_factory=dict)
    #: /dev/shm segments still present after close (should be empty).
    leaked: List[str] = field(default_factory=list)
    #: pinned tile ref -> name of the segment backing it (a segment
    #: backs every pinned tile of one matrix).
    tile_segment: Dict[Tuple[int, ...], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0

    # -- scheduling / shm events ----------------------------------------

    def record(self, kind: str, *, tid: int = -1, wid: int = -1,
               attempt: int = 0, ref: Tuple[int, ...] = (),
               segment: str = "", refs: int = -1,
               detail: str = "") -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.events.append(DistEvent(
                seq=seq, kind=kind, tid=tid, wid=wid, attempt=attempt,
                ref=tuple(ref), segment=segment, refs=refs,
                detail=detail))
            if kind == EV_PIN and segment:
                self.tile_segment[tuple(ref)] = segment

    # -- wire frames -----------------------------------------------------

    def frame_observer(
            self, conn: str,
    ) -> Callable[[str, object, int, int, int], None]:
        """A ``Comm.observer`` callback recording onto connection
        ``conn`` (e.g. ``"w3"`` for the comm to worker 3)."""

        def observe(direction: str, msg: object, nbytes: int,
                    codec: int, declared: int = -1) -> None:
            op = ""
            tid = attempt = -1
            retryable: Optional[bool] = None
            exc: object = None
            if isinstance(msg, dict):
                op = str(msg.get("op", ""))
                tid = int(msg.get("tid", -1))
                attempt = int(msg.get("attempt", -1))
                if op == "fail":
                    r = msg.get("retryable")
                    retryable = r if isinstance(r, bool) else None
                    exc = msg.get("exc")
            rec = FrameRecord(direction=direction, op=op, tid=tid,
                              attempt=attempt, codec=codec,
                              nbytes=nbytes, declared=declared,
                              retryable=retryable, exc=exc)
            with self._lock:
                self.frames.setdefault(conn, []).append(rec)

        return observe

    def rename_connection(self, old: str, new: str) -> None:
        """Move frames recorded under a provisional key (a comm
        accepted before its hello identified the worker) to the
        worker-keyed connection."""
        with self._lock:
            pending = self.frames.pop(old, [])
            self.frames.setdefault(new, [])[:0] = pending

    # -- shm store observer ----------------------------------------------

    def store_observer(self) -> Callable[..., None]:
        """A ``SharedTileStore.observer`` callback."""

        def observe(kind: str, segment: str, refs: int,
                    ref: Tuple[int, ...] = ()) -> None:
            self.record(kind, segment=segment, refs=refs, ref=ref)

        return observe

    # -- queries ----------------------------------------------------------

    def events_of(self, *kinds: str) -> List[DistEvent]:
        return [e for e in self.events if e.kind in kinds]

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        out["frames"] = sum(len(v) for v in self.frames.values())
        return out
