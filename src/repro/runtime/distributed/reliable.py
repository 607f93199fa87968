"""ReliableComm: sequence numbers, retransmission, CRC verification,
heartbeats, and reconnect-and-resync over any :class:`Comm`.

Sits between the executor/worker protocol and the raw transport
(possibly a ChaosComm).  Every application message rides in a small
CRC32-protected envelope::

    {"s": seq, "a": rx, "m": msg}     data (seq starts at 1)
    {"h": clock, "a": rx}             heartbeat (worker → driver)
    {"a": rx}                         ack-only (driver's hb reply)
    {"n": next, "a": rx}              nack: retransmit from ``next``

``rx`` is the highest in-order sequence number the sender has
delivered; acks piggyback on everything.  Out-of-order frames nack
the gap, duplicates are discarded by ``seq``, corrupt frames
(:class:`FrameCorruptError`) are nacked and re-requested — the wire
may drop, duplicate, delay, or damage any frame and the app-level
stream stays exactly-once in-order.

Connection loss is survivable: un-acked envelopes are buffered, and a
bounded reconnect-and-resync handshake (plain ``resync`` /
``resync-ack`` frames carrying each side's ``rx``) re-establishes the
stream and retransmits only what the peer missed.  The worker dials
back (:class:`BackoffSchedule`-paced, wall-clock-deadlined) from
inside its next ``recv``.  The driver side never waits: the executor's
event loop :meth:`~ReliableComm.pump`\\ s one frame whenever the socket
is readable, :meth:`attach`\\ es the worker's new connection when its
``resync`` arrives, and asks :attr:`~ReliableComm.lost` when to give
up — the peer marked dead (``mark_dead``: the driver killed it), or
the link down past ``deadline``.

Accounting is **application-level**: ``sent_*``/``received_*`` and
the :class:`CommCounters` feed count each logical message exactly
once, however many times its frame crossed the wire; wire-level
retransmission cost is reported separately (``retrans_messages`` /
``retrans_bytes`` → ``ExecutionStats.comm_retrans_*``).
"""

from __future__ import annotations

import contextlib
import threading
import time
from time import perf_counter
from typing import Callable, Dict, Optional

from ...comm.counters import CommCounters
from ...comm.network import TransferPath
from ...resilience.net import BackoffSchedule
from .comm import (_HEADER, Comm, CommClosedError, CommError,
                   CommTimeoutError, DEFAULT_TIMEOUT, FrameCorruptError,
                   connect, decode_frame, encode_frame, verify_crc)

__all__ = ["ReliableComm"]

#: Minimum spacing between unsolicited retransmission sweeps.
_RETRANS_INTERVAL = 0.05


class ReliableComm(Comm):
    """Reliable, resumable message channel over an inner transport."""

    def __init__(self, inner: Comm, *, role: str, wid: int = -1,
                 address: str = "",
                 deadline: float = 2.0,
                 backoff: Optional[BackoffSchedule] = None,
                 seed: int = 0,
                 counters: Optional[CommCounters] = None,
                 path: TransferPath = TransferPath.INTRA_NODE,
                 on_net: Optional[Callable[[str, str], None]] = None):
        if role not in ("driver", "worker"):
            raise ValueError(f"role must be driver|worker, got {role!r}")
        super().__init__(inner.local_address, inner.peer_address,
                         counters, path)
        self.inner = inner
        self.role = role
        self.wid = wid
        self.reconnect_address = address
        self.deadline = deadline
        self.backoff = backoff if backoff is not None \
            else BackoffSchedule(deadline=deadline)
        self.seed = seed
        #: ``on_net(kind, detail)`` — driver-side observability hook
        #: ("corrupt", "retransmit", "reconnect").
        self.on_net = on_net
        self._tx = 0                     # last sequence number sent
        self._rx = 0                     # last in-order seq delivered
        self._unacked: Dict[int, object] = {}
        #: A worker's heartbeat thread sends beside its main loop.
        self._lock = threading.RLock()
        self._broken = False
        self._break_time = 0.0
        self._dead = False
        self._last_retrans = 0.0
        self.retrans_messages = 0
        self.retrans_bytes = 0
        self.dup_frames = 0
        self.corrupt_frames = 0
        self.reconnects = 0

    # -- helpers -------------------------------------------------------
    def fileno(self) -> int:
        return self.inner.fileno()

    @property
    def rx(self) -> int:
        """Highest in-order sequence number delivered so far."""
        with self._lock:
            return self._rx

    def _emit(self, kind: str, detail: str) -> None:
        cb = self.on_net
        if cb is not None:
            cb(kind, detail)

    def _put_locked(self, frame: bytes) -> bool:
        """Write a frame on the current inner; marks the link broken
        (frames stay buffered in ``_unacked``) on failure."""
        if self._broken:
            return False
        try:
            self.inner._send_frame(frame)
            return True
        except CommError:
            self._on_break_locked(self.inner)
            return False

    def _on_break_locked(self, inner: Comm) -> None:
        if self.inner is inner and not self._broken:
            self._broken = True
            self._break_time = time.monotonic()
            with contextlib.suppress(Exception):
                inner._close_transport()

    def _send_control_locked(self, env: Dict[str, object]) -> None:
        """Fire-and-forget control frame (never buffered: controls are
        regenerated by the next heartbeat round anyway)."""
        self._put_locked(encode_frame(env, crc=True))

    def _drop_acked_locked(self, ack: int) -> None:
        for seq in [s for s in self._unacked if s <= ack]:
            del self._unacked[seq]

    def _retransmit_locked(self, start: int) -> None:
        self._last_retrans = time.monotonic()
        for seq in sorted(self._unacked):
            if seq < start:
                continue
            env = {"s": seq, "a": self._rx, "m": self._unacked[seq]}
            frame = encode_frame(env, crc=True)
            if not self._put_locked(frame):
                return
            self.retrans_messages += 1
            self.retrans_bytes += len(frame)
        if start <= self._tx:
            self._emit("retransmit", f"replayed from seq {start} "
                                     f"(tx {self._tx})")

    def _maybe_retransmit_locked(self) -> None:
        """Rate-limited sweep of still-unacked envelopes (called when
        an ack proves the peer is alive but behind)."""
        if not self._unacked or self._broken:
            return
        now = time.monotonic()
        if now - self._last_retrans < _RETRANS_INTERVAL:
            return
        self._retransmit_locked(min(self._unacked))

    # -- public API ----------------------------------------------------
    def send(self, msg: object) -> int:
        """Queue + transmit one message; survives a broken link (the
        envelope is retransmitted after resync)."""
        if self._closed:
            raise CommClosedError(f"send on closed comm to "
                                  f"{self.peer_address}")
        with self._lock:
            if self._dead:
                raise CommClosedError(
                    f"peer {self.peer_address} is dead")
            self._tx += 1
            env = {"s": self._tx, "a": self._rx, "m": msg}
            self._unacked[self._tx] = msg
            frame = encode_frame(env, crc=True)
            if self.observer is not None:
                length, codec = _HEADER.unpack(frame[:_HEADER.size])
                self.observer("send", msg, len(frame), codec, length)
            self._put_locked(frame)
        self.sent_messages += 1
        self.sent_bytes += len(frame)
        if self.counters is not None:
            self.counters.record(self.path, len(frame))
        return len(frame)

    def send_heartbeat(self) -> None:
        """Worker-side liveness beacon; piggybacks our ``rx`` so the
        driver can re-send anything we missed."""
        if self._closed:
            raise CommClosedError("heartbeat on closed comm")
        with self._lock:
            if self._dead:
                raise CommClosedError("heartbeat on dead comm")
            self._send_control_locked({"h": perf_counter(),
                                       "a": self._rx})

    @property
    def lost(self) -> bool:
        """Driver side: closed, the peer marked dead, or the link down
        past ``deadline`` without a resync."""
        with self._lock:
            if (self._broken and not self._dead and
                    time.monotonic() - self._break_time > self.deadline):
                self._dead = True
            return self._dead or self._closed

    def recv(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> object:
        """Next in-order message (heartbeats included, as ``{"op":
        "hb", "clock": ...}`` dicts): :meth:`pump` until one arrives."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                raise CommTimeoutError(
                    f"recv from {self.peer_address} timed out")
            msg = self.pump(left)
            if msg is not None:
                return msg

    def pump(self, timeout: Optional[float] = None) -> object:
        """Read and handle one frame: the message it delivers, or
        ``None`` (a control, duplicate, out-of-order, corrupt or
        undecodable frame, or a read that broke the link).  On a broken
        link a worker reconnects first; a driver raises at once:
        :class:`CommTimeoutError` while a resync may come,
        :class:`CommClosedError` once the link is :attr:`lost`."""
        with self._lock:
            if self.lost:
                raise CommClosedError(f"link to {self.peer_address} lost")
            if self._broken and self.role == "driver":
                raise CommTimeoutError(
                    f"link to {self.peer_address} is down, waiting for "
                    f"its resync")
            reconnect = self._broken
            inner = self.inner
        if reconnect:
            self._reconnect()
            return None
        try:
            codec, payload = inner._recv_frame(timeout)
        except CommTimeoutError:
            raise
        except CommError:
            with self._lock:
                self._on_break_locked(inner)
            return None
        nbytes = _HEADER.size + len(payload)
        try:
            bare_codec, body = verify_crc(codec, payload)
            env = decode_frame(bare_codec, body)
        except FrameCorruptError as e:
            self.corrupt_frames += 1
            self._emit("corrupt", str(e))
            with self._lock:
                self._send_control_locked({"n": self._rx + 1,
                                           "a": self._rx})
            return None
        except CommError:
            return None  # undecodable stray frame
        if not isinstance(env, dict):
            return None
        ack = env.get("a")
        with self._lock:
            if ack is not None:
                self._drop_acked_locked(int(ack))
            if "n" in env:
                self._retransmit_locked(int(env["n"]))
                return None
            if "h" in env:
                # Heartbeat: ack it (the worker prunes + resends off
                # our rx) and deliver it upward with its send-time
                # clock, which the driver's failure detector stamps.
                self._send_control_locked({"a": self._rx})
                self._maybe_retransmit_locked()
                msg: object = {"op": "hb", "clock": env["h"]}
            elif "s" in env:
                seq = int(env["s"])
                if seq <= self._rx:
                    self.dup_frames += 1
                    return None
                if seq > self._rx + 1:
                    self._send_control_locked({"n": self._rx + 1,
                                               "a": self._rx})
                    return None
                self._rx = seq
                msg = env["m"]
            else:
                # Ack-only: the peer is alive but may be missing frames
                # it has not nacked yet (its nack may have been
                # dropped) — sweep, rate-limited.
                self._maybe_retransmit_locked()
                return None
        self.received_messages += 1
        self.received_bytes += nbytes
        if self.counters is not None:
            self.counters.record(self.path, nbytes)
        if self.observer is not None:
            self.observer("recv", msg, nbytes, codec, len(payload))
        return msg

    # -- reconnection --------------------------------------------------
    def attach(self, inner: Comm, peer_rx: int) -> bool:
        """Splice in a connection whose ``resync`` / ``resync-ack``
        handshake is done (the driver accepted it, or the worker dialled
        it) and retransmit what the peer missed; ``False``, with
        ``inner`` closed, when this link is already closed or dead."""
        with self._lock:
            if self._closed or self._dead:
                with contextlib.suppress(Exception):
                    inner.close()
                return False
            old = self.inner
            if old is not inner:
                with contextlib.suppress(Exception):
                    old._close_transport()
            self.inner = inner
            self._broken = False
            self.reconnects += 1
            self._drop_acked_locked(peer_rx)
            self._retransmit_locked(peer_rx + 1)
        if self.observer is not None:
            self.observer("reopen", None, 0, -1, -1)
        self._emit("reconnect", f"worker {self.wid} resynced at "
                                f"rx {peer_rx}")
        return True

    def _reconnect(self) -> None:
        """Worker side: dial the driver back, resync, retransmit."""
        delays = self.backoff.delays(self.seed, key=self.wid)
        attempt = 0
        while True:
            if self.lost:
                raise CommClosedError(
                    f"closed, or reconnect budget ({self.deadline}s) "
                    f"exhausted")
            inner: Optional[Comm] = None
            try:
                inner = connect(self.reconnect_address,
                                timeout=min(1.0, self.deadline))
                inner.crc_frames = True
                inner.send({"op": "resync", "wid": self.wid,
                            "rx": self._rx})
                ack = inner.recv(timeout=min(1.0, self.deadline))
                if not (isinstance(ack, dict)
                        and ack.get("op") == "resync-ack"):
                    raise CommClosedError(
                        f"bad resync ack: {ack!r}")
            except CommError:
                if inner is not None:
                    with contextlib.suppress(Exception):
                        inner.close()
                if attempt < len(delays):
                    time.sleep(delays[attempt])
                    attempt += 1
                    continue
                with self._lock:
                    self._dead = True
                raise CommClosedError(
                    f"reconnect to {self.reconnect_address} failed "
                    f"after {attempt + 1} attempts") from None
            peer_rx = int(ack.get("rx", 0))  # type: ignore[union-attr]
            if not self.attach(inner, peer_rx):
                raise CommClosedError("closed during reconnect")
            return

    # -- teardown ------------------------------------------------------
    def mark_dead(self) -> None:
        """Declare the peer dead *now* (the driver killed it on
        purpose): the link is :attr:`lost` without waiting out
        ``deadline`` for a resync."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
            with contextlib.suppress(Exception):
                self.inner._close_transport()

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            with contextlib.suppress(Exception):
                self.inner._close_transport()
        if self.observer is not None:
            self.observer("close", None, 0, -1, -1)
