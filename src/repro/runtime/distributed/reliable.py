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
(:class:`BackoffSchedule`-paced, wall-clock-deadlined); the driver
waits for the executor's acceptor to :meth:`attach` the new
connection.  ``mark_dead`` short-circuits the wait when the driver
*caused* the death (SIGKILL on timeout/suspicion/injected crash) so
deliberate kills surface instantly instead of burning the deadline.

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
from typing import Callable, Dict, Optional, Tuple

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
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
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
            self._cond.notify_all()

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

    def recv(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> object:
        """Next in-order message (heartbeats included, as ``{"op":
        "hb", ...}`` dicts).  Handles nack/ack/duplicate/corrupt
        frames and broken links internally."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            reconnect = False
            with self._lock:
                # Under the lock: a close() landing between an
                # unlocked check and the wait below would have its
                # notify_all() lost, and the wait would sleep out the
                # whole reconnect deadline.
                if self._closed:
                    raise CommClosedError(f"recv on closed comm to "
                                          f"{self.peer_address}")
                if self._dead:
                    raise CommClosedError(
                        f"peer {self.peer_address} is dead")
                if self._broken:
                    if self.role == "worker":
                        reconnect = True
                    else:
                        budget = (self._break_time + self.deadline
                                  - time.monotonic())
                        if budget <= 0:
                            self._dead = True
                            raise CommClosedError(
                                f"peer {self.peer_address} never "
                                f"reconnected within {self.deadline}s")
                        if deadline is not None:
                            budget = min(budget,
                                         deadline - time.monotonic())
                            if budget <= 0:
                                raise CommTimeoutError(
                                    f"recv from {self.peer_address} "
                                    f"timed out (link down)")
                        self._cond.wait(budget)
                        continue
                inner = self.inner
            if reconnect:
                self._reconnect()
                continue
            slice_t: Optional[float] = None
            if deadline is not None:
                slice_t = deadline - time.monotonic()
                if slice_t <= 0:
                    raise CommTimeoutError(
                        f"recv from {self.peer_address} timed out")
            try:
                codec, payload = inner._recv_frame(slice_t)
            except CommTimeoutError:
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    raise
                continue
            except CommError:
                with self._lock:
                    self._on_break_locked(inner)
                continue
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
                continue
            except CommError:
                continue  # undecodable stray frame
            if not isinstance(env, dict):
                continue
            ack = env.get("a")
            with self._lock:
                if ack is not None:
                    self._drop_acked_locked(int(ack))
                if "n" in env:
                    self._retransmit_locked(int(env["n"]))
                    continue
                if "h" in env:
                    # Heartbeat: ack it (the worker prunes + resends
                    # off our rx) and deliver it upward so the driver
                    # can feed its failure detector.
                    self._send_control_locked({"a": self._rx})
                    self._maybe_retransmit_locked()
                    msg: object = {"op": "hb", "clock": env["h"]}
                elif "s" in env:
                    seq = int(env["s"])
                    if seq <= self._rx:
                        self.dup_frames += 1
                        continue
                    if seq > self._rx + 1:
                        self._send_control_locked({"n": self._rx + 1,
                                                   "a": self._rx})
                        continue
                    self._rx = seq
                    msg = env["m"]
                else:
                    # Ack-only: the peer is alive but may be missing
                    # frames it has not nacked yet (its nack may have
                    # been dropped) — sweep, rate-limited.
                    self._maybe_retransmit_locked()
                    continue
            self.received_messages += 1
            self.received_bytes += nbytes
            if self.counters is not None:
                self.counters.record(self.path, nbytes)
            if self.observer is not None:
                self.observer("recv", msg, nbytes, codec, len(payload))
            return msg

    # -- reconnection --------------------------------------------------
    def attach(self, inner: Comm, peer_rx: int) -> bool:
        """Driver side: splice in a freshly-accepted resync connection
        (the acceptor already answered the plain ``resync`` with our
        ``resync-ack``)."""
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
            self._cond.notify_all()
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
            with self._lock:
                if self._closed or self._dead:
                    raise CommClosedError("closed during reconnect")
                start = self._break_time
            if time.monotonic() - start > self.deadline:
                with self._lock:
                    self._dead = True
                raise CommClosedError(
                    f"reconnect budget ({self.deadline}s) exhausted")
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
            with self._lock:
                self.inner = inner
                self._broken = False
                self.reconnects += 1
                peer_rx = int(ack.get("rx", 0))  # type: ignore[union-attr]
                self._drop_acked_locked(peer_rx)
                self._retransmit_locked(peer_rx + 1)
            if self.observer is not None:
                self.observer("reopen", None, 0, -1, -1)
            return

    # -- teardown ------------------------------------------------------
    def mark_dead(self) -> None:
        """Declare the peer dead *now* (the driver killed it on
        purpose): recv stops waiting for a reconnect immediately."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
            with contextlib.suppress(Exception):
                self.inner._close_transport()
            self._cond.notify_all()

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            with contextlib.suppress(Exception):
                self.inner._close_transport()
            self._cond.notify_all()
        if self.observer is not None:
            self.observer("close", None, 0, -1, -1)

    def _close_transport(self) -> None:  # pragma: no cover - close()
        self.inner._close_transport()    # is fully overridden above

    def _send_frame(self, frame: bytes) -> None:  # pragma: no cover
        raise NotImplementedError("ReliableComm frames its own sends")

    def _recv_frame(self, timeout: Optional[float]  # pragma: no cover
                    ) -> Tuple[int, bytes]:
        raise NotImplementedError("ReliableComm frames its own recvs")
