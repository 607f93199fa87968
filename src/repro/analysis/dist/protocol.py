"""Wire-protocol state-machine checking for recorded comm frames.

The driver↔worker protocol is small but every rule matters: a frame
after close is a hang, a reply with no matching dispatch corrupts the
scheduler's in-flight accounting, a mis-tagged codec byte poisons the
decode path, and an inconsistent retryable verdict turns a transient
fault into a permanent failure (or an infinite retry loop).  This
module replays each connection's recorded
:class:`~repro.runtime.distributed.events.FrameRecord` sequence
through an explicit state machine and flags every deviation.

Checked per connection (parent-side view, one comm per worker):

* framing: codec tag is a known codec (the ``FLAG_CRC`` high bit —
  a CRC32 trailer inside the declared length — is masked off first);
  the length prefix matches the observed frame size (header +
  payload).
* handshake: the first inbound frame is exactly one ``hello`` — or
  exactly one ``resync`` (the reliable layer's reconnect handshake),
  in which case the connection may carry nothing but that resync and
  one outbound ``resync-ack`` before being spliced under the worker's
  comm.
* vocabulary: inbound ops ⊆ {hello, done, fail, hb}; outbound ops ⊆
  {task, shutdown}.  ``hb`` heartbeats (reliable layer) may arrive
  any time after the hello and need no reply matching.
* lifecycle: no frame in either direction after close; no task
  dispatched after shutdown was sent.  A ``reopen`` mark (the
  reliable layer re-attached the connection after a link break) is
  informational while the connection is live but a violation after
  close.
* matching: every done/fail reply matches an outstanding
  ``(tid, attempt)`` task sent on the same connection, at most once.
* retry classification: a fail reply carrying an exception whose
  recorded ``retryable=True`` verdict contradicts
  :func:`~repro.runtime.attempt.retryable` is
  flagged (the opposite direction is allowed: workers may ship a
  sanitized stand-in exception that classifies differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple, Union

from ...runtime.attempt import retryable
from ...runtime.distributed.comm import (_HEADER, CODEC_MSGPACK,
                                         CODEC_PICKLE, FLAG_CRC)
from ...runtime.distributed.events import DistTraceRecorder, FrameRecord

__all__ = ["ProtocolFinding", "check_connection", "check_frames"]

_KNOWN_CODECS = (CODEC_PICKLE, CODEC_MSGPACK)
_INBOUND_OPS = frozenset({"hello", "done", "fail", "hb"})
_OUTBOUND_OPS = frozenset({"task", "shutdown"})


@dataclass(frozen=True)
class ProtocolFinding:
    """One protocol violation on one connection."""

    conn: str
    index: int          # frame index within the connection
    rule: str
    detail: str

    def message(self) -> str:
        return f"[{self.conn}#{self.index}] {self.rule}: {self.detail}"


def check_connection(conn: str,
                     frames: Sequence[FrameRecord]) -> List[ProtocolFinding]:
    """Run one connection's frames through the protocol state machine."""
    findings: List[ProtocolFinding] = []
    outstanding: Set[Tuple[int, int]] = set()   # sent, unanswered
    answered: Set[Tuple[int, int]] = set()
    hello_seen = False
    resync_seen = False
    shutdown_sent = False
    closed = False

    def flag(i: int, rule: str, detail: str) -> None:
        findings.append(ProtocolFinding(conn=conn, index=i, rule=rule,
                                        detail=detail))

    for i, fr in enumerate(frames):
        if fr.direction == "close":
            closed = True
            continue
        if closed:
            flag(i, "frame-after-close",
                 f"{fr.direction} of {fr.op or '?'} after close")
            continue
        if fr.direction == "reopen":
            # Reliable-layer resync: the link broke and was re-attached.
            # Informational — the stream's seq/ack state carried over.
            continue
        if fr.codec & ~FLAG_CRC not in _KNOWN_CODECS:
            flag(i, "bad-codec", f"unknown codec tag {fr.codec}")
        if fr.declared >= 0 and fr.nbytes != fr.declared + _HEADER.size:
            flag(i, "length-mismatch",
                 f"frame is {fr.nbytes}B but prefix declares "
                 f"{fr.declared}B payload (+{_HEADER.size}B header)")
        if fr.direction == "recv":
            if resync_seen:
                flag(i, "bad-op",
                     f"inbound {fr.op!r} on a resync connection "
                     f"(handshake carries exactly one resync)")
                continue
            if not hello_seen:
                if fr.op == "resync":
                    # Reliable-layer reconnect: this connection exists
                    # only to carry the resync/resync-ack handshake
                    # before being spliced under the worker's comm.
                    resync_seen = True
                    continue
                if fr.op != "hello":
                    flag(i, "hello-first",
                         f"first inbound frame is {fr.op or '?'}, "
                         f"not hello")
                else:
                    hello_seen = True
                    continue
            elif fr.op == "hello":
                flag(i, "duplicate-hello", "second hello on connection")
                continue
            if fr.op not in _INBOUND_OPS:
                flag(i, "bad-op", f"unexpected inbound op {fr.op!r}")
                continue
            if fr.op in ("done", "fail"):
                key = (fr.tid, fr.attempt)
                if key in answered:
                    flag(i, "duplicate-reply",
                         f"second reply for tid {fr.tid} "
                         f"attempt {fr.attempt}")
                elif key not in outstanding:
                    flag(i, "unmatched-reply",
                         f"reply for tid {fr.tid} attempt {fr.attempt} "
                         f"never dispatched on this connection")
                else:
                    outstanding.discard(key)
                    answered.add(key)
                if fr.op == "fail":
                    if fr.retryable is None:
                        flag(i, "retryable-missing",
                             f"fail reply for tid {fr.tid} carries no "
                             f"boolean retryable verdict")
                    elif (fr.retryable and isinstance(fr.exc, BaseException)
                          and not retryable(fr.exc)):
                        flag(i, "retryable-mismatch",
                             f"tid {fr.tid}: recorded retryable=True "
                             f"but {type(fr.exc).__name__} classifies "
                             f"as not retryable")
        elif fr.direction == "send":
            if resync_seen:
                if fr.op != "resync-ack":
                    flag(i, "bad-op",
                         f"outbound {fr.op!r} on a resync connection "
                         f"(only resync-ack is valid)")
                continue
            if fr.op not in _OUTBOUND_OPS:
                flag(i, "bad-op", f"unexpected outbound op {fr.op!r}")
                continue
            if fr.op == "shutdown":
                shutdown_sent = True
            elif fr.op == "task":
                if shutdown_sent:
                    flag(i, "task-after-shutdown",
                         f"tid {fr.tid} dispatched after shutdown")
                key = (fr.tid, fr.attempt)
                if key in outstanding:
                    flag(i, "duplicate-dispatch",
                         f"tid {fr.tid} attempt {fr.attempt} "
                         f"dispatched twice")
                outstanding.add(key)
    if not hello_seen and not resync_seen and frames:
        flag(len(frames) - 1, "no-hello",
             "connection carried frames but never a hello")
    return findings


def check_frames(rec: Union[DistTraceRecorder,
                            Mapping[str, Sequence[FrameRecord]]],
                 ) -> List[ProtocolFinding]:
    """Check every recorded connection of a run."""
    frames: Mapping[str, Sequence[FrameRecord]]
    frames = rec.frames if isinstance(rec, DistTraceRecorder) else rec
    findings: List[ProtocolFinding] = []
    for conn in sorted(frames):
        findings.extend(check_connection(conn, frames[conn]))
    return findings
