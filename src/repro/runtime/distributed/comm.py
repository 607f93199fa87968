"""Pluggable point-to-point comm layer for the distributed runtime.

The abstraction is deliberately small — three nouns and two verbs:

* :class:`Comm` — a connected, message-oriented, bidirectional channel.
* :class:`Listener` — a bound endpoint that :meth:`~Listener.accept`\\ s
  incoming connections as :class:`Comm` objects.
* :func:`connect` / :func:`listen` — scheme-dispatched constructors.
  The scheme prefix of the address (``inproc://`` or ``tcp://``) picks
  the transport; everything above this module is transport-agnostic.

Messages are arbitrary picklable Python objects.  On the wire each
message is one *frame*::

    8 bytes   payload length, big-endian unsigned
    1 byte    codec tag (``CODEC_PICKLE`` or ``CODEC_MSGPACK``,
              optionally OR'd with ``FLAG_CRC``)
    n bytes   payload

With ``FLAG_CRC`` set (``encode_frame(msg, crc=True)`` or a comm's
``crc_frames``) the last four payload bytes are a big-endian CRC32 of
the rest, *inside* the declared length — transports and anything that
reasons about frame sizes are oblivious to the trailer.  A mismatch
raises :class:`FrameCorruptError` (retryable) without desynchronising
the stream: the frame was read in full, only its bytes are bad, so
the reliable layer can simply ask for it again.

msgpack is used opportunistically when (a) the package is importable
and (b) the message is plain data (dict/list/str/int/float/bytes/None);
otherwise frames fall back to pickle.  The container image this repo
targets does not ship msgpack — the tag byte keeps the wire format
stable so environments that *do* have it interoperate.

Every comm counts frames and bytes in both directions; when built with
a :class:`~repro.comm.counters.CommCounters` the same numbers feed the
existing per-path accounting (parent↔worker traffic is intra-node, so
it lands on :data:`TransferPath.INTRA_NODE`).

Failure surface: every error raised by this layer is a
:class:`CommError`.  ``retryable`` distinguishes "peer went away /
timed out" (safe to re-dispatch elsewhere) from programming errors.
A dropped connection raises :class:`CommClosedError` promptly — recv
never hangs past its timeout.
"""

from __future__ import annotations

import contextlib
import pickle
import queue
import socket
import struct
import threading
import zlib
from typing import Callable, Dict, Optional, Tuple

try:  # pragma: no cover - exercised only where msgpack is installed
    import msgpack  # type: ignore
except Exception:  # pragma: no cover
    msgpack = None

from ...comm.counters import CommCounters
from ...comm.network import TransferPath

__all__ = [
    "Comm",
    "Listener",
    "CommError",
    "CommClosedError",
    "CommTimeoutError",
    "AddressInUseError",
    "FrameCorruptError",
    "connect",
    "listen",
    "register_transport",
    "encode_frame",
    "decode_frame",
    "verify_crc",
    "CODEC_PICKLE",
    "CODEC_MSGPACK",
    "FLAG_CRC",
    "DEFAULT_TIMEOUT",
]

#: Default blocking budget (seconds) for connect/accept/recv.  The
#: comm-layer contract (and its tests) promise that a dead peer turns
#: into an exception well under this.
DEFAULT_TIMEOUT = 5.0

_HEADER = struct.Struct(">QB")  # (payload_len, codec)

CODEC_PICKLE = 0
CODEC_MSGPACK = 1

#: High bit of the codec byte: the payload carries a 4-byte CRC32
#: trailer (counted in the declared length).
FLAG_CRC = 0x80


class CommError(RuntimeError):
    """Base class for all comm-layer failures."""

    #: Whether the operation that raised may be retried (possibly on a
    #: different comm) without risking duplicated side effects here.
    retryable = False


class CommClosedError(CommError):
    """The peer disconnected (EOF, reset, or local close)."""

    retryable = True


class CommTimeoutError(CommError):
    """The operation did not complete within its timeout."""

    retryable = True


class AddressInUseError(CommError):
    """``listen()`` on an address that already has a listener."""

    retryable = False


class FrameCorruptError(CommError):
    """A CRC-protected frame arrived damaged.

    The stream itself is still synchronised (the frame was consumed
    in full), so the right reaction is to discard the frame and ask
    the peer to retransmit — which is exactly what the reliable layer
    does."""

    retryable = True


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _msgpack_safe(msg: object) -> bool:
    if isinstance(msg, (str, bytes, int, float, bool)) or msg is None:
        return True
    if isinstance(msg, (list, tuple)):
        return all(_msgpack_safe(v) for v in msg)
    if isinstance(msg, dict):
        return all(isinstance(k, str) and _msgpack_safe(v)
                   for k, v in msg.items())
    return False


def encode_frame(msg: object, crc: bool = False) -> bytes:
    """Serialise ``msg`` into one length-prefixed frame.

    With ``crc`` a CRC32 trailer is appended to the payload (and the
    declared length covers it), and ``FLAG_CRC`` is set on the codec
    byte."""
    if msgpack is not None and _msgpack_safe(msg):  # pragma: no cover
        payload = msgpack.packb(msg, use_bin_type=True)
        codec = CODEC_MSGPACK
    else:
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        codec = CODEC_PICKLE
    if crc:
        payload += struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF)
        codec |= FLAG_CRC
    return _HEADER.pack(len(payload), codec) + payload


def verify_crc(codec: int, payload: bytes) -> Tuple[int, bytes]:
    """Strip and check a frame's CRC trailer when ``FLAG_CRC`` is set.

    Returns the bare ``(codec, payload)``; raises
    :class:`FrameCorruptError` on a checksum mismatch or a truncated
    trailer."""
    if not codec & FLAG_CRC:
        return codec, payload
    if len(payload) < 4:
        raise FrameCorruptError(
            f"CRC frame too short for its trailer ({len(payload)} bytes)")
    body, trailer = payload[:-4], payload[-4:]
    expect = struct.unpack(">I", trailer)[0]
    got = zlib.crc32(body) & 0xFFFFFFFF
    if got != expect:
        raise FrameCorruptError(
            f"frame CRC mismatch: computed {got:#010x}, "
            f"trailer {expect:#010x} ({len(body)} payload bytes)")
    return codec & ~FLAG_CRC, body


def decode_frame(codec: int, payload: bytes) -> object:
    """Inverse of :func:`encode_frame` (header already consumed; any
    CRC trailer already stripped via :func:`verify_crc`)."""
    if codec == CODEC_PICKLE:
        return pickle.loads(payload)
    if codec == CODEC_MSGPACK:
        if msgpack is None:
            raise CommError(
                "received a msgpack frame but msgpack is not installed")
        return msgpack.unpackb(payload, raw=False)  # pragma: no cover
    raise CommError(f"unknown frame codec {codec}")


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------

class Comm:
    """A connected message channel.

    Subclasses implement :meth:`_send_frame` / :meth:`_recv_frame`;
    the byte/message accounting and counter feed live here so every
    transport reports identically.
    """

    def __init__(self, local_address: str, peer_address: str,
                 counters: Optional[CommCounters] = None,
                 path: TransferPath = TransferPath.INTRA_NODE):
        self.local_address = local_address
        self.peer_address = peer_address
        self.counters = counters
        self.path = path
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0
        #: Optional frame observer (DistSan protocol recording):
        #: ``observer(direction, msg, nbytes, codec, declared)`` is
        #: called just before each frame is written, after each
        #: successful recv, and once with ``("close", None, 0, -1,
        #: -1)`` when the comm closes.
        self.observer = None
        #: Append a CRC32 trailer to every sent frame (and expect the
        #: peer to verify).  Inbound CRC frames are always verified,
        #: flag or no flag — the codec byte says what each frame has.
        self.crc_frames = False
        self._closed = False

    # -- transport hooks -------------------------------------------------
    def _send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def _recv_frame(self, timeout: Optional[float]) -> Tuple[int, bytes]:
        raise NotImplementedError

    def _close_transport(self) -> None:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def fileno(self) -> int:
        """OS-level descriptor of the transport, or ``-1`` when the
        transport has none (in-process queues)."""
        return -1

    def send(self, msg: object) -> int:
        """Send one message; returns the frame size in bytes."""
        if self._closed:
            raise CommClosedError(f"send on closed comm to "
                                  f"{self.peer_address}")
        frame = encode_frame(msg, crc=self.crc_frames)
        if self.observer is not None:
            # Record *before* the wire write: the peer's reply is
            # recorded by a reader thread, and observing after the
            # write would let a fast reply appear first in the frame
            # log, inverting the send→recv happens-before edge.
            length, codec = _HEADER.unpack(frame[:_HEADER.size])
            self.observer("send", msg, len(frame), codec, length)
        self._send_frame(frame)
        self.sent_messages += 1
        self.sent_bytes += len(frame)
        if self.counters is not None:
            self.counters.record(self.path, len(frame))
        return len(frame)

    def recv(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> object:
        """Receive one message; :class:`CommTimeoutError` on timeout,
        :class:`CommClosedError` if the peer is gone."""
        if self._closed:
            raise CommClosedError(f"recv on closed comm to "
                                  f"{self.peer_address}")
        wire_codec, payload = self._recv_frame(timeout)
        nbytes = _HEADER.size + len(payload)
        declared = len(payload)  # on-wire length: CRC trailer included
        self.received_messages += 1
        self.received_bytes += nbytes
        if self.counters is not None:
            self.counters.record(self.path, nbytes)
        codec, payload = verify_crc(wire_codec, payload)
        msg = decode_frame(codec, payload)
        if self.observer is not None:
            self.observer("recv", msg, nbytes, wire_codec, declared)
        return msg

    def close(self) -> None:
        """Idempotent close; the peer's next recv sees EOF."""
        if self._closed:
            return
        self._closed = True
        self._close_transport()
        if self.observer is not None:
            self.observer("close", None, 0, -1, -1)

    def __enter__(self) -> "Comm":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"<{type(self).__name__} {self.local_address} -> "
                f"{self.peer_address} [{state}]>")


class Listener:
    """A bound endpoint producing server-side :class:`Comm` objects."""

    #: The concrete (resolved) address, e.g. ``tcp://127.0.0.1:45123``
    #: after binding port 0.
    address: str

    def accept(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> Comm:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------

_TRANSPORTS: Dict[str, Tuple[Callable, Callable]] = {}


def register_transport(scheme: str, listen_fn: Callable,
                       connect_fn: Callable) -> None:
    """Register a transport under ``scheme`` (without ``://``)."""
    _TRANSPORTS[scheme] = (listen_fn, connect_fn)


def _split(address: str) -> Tuple[str, str]:
    if "://" not in address:
        raise CommError(f"address {address!r} has no scheme "
                        f"(expected e.g. tcp://host:port)")
    scheme, rest = address.split("://", 1)
    if scheme not in _TRANSPORTS:
        raise CommError(f"unknown comm scheme {scheme!r} "
                        f"(registered: {sorted(_TRANSPORTS)})")
    return scheme, rest


def listen(address: str, counters: Optional[CommCounters] = None,
           path: TransferPath = TransferPath.INTRA_NODE) -> Listener:
    """Bind ``address`` and return a :class:`Listener`."""
    scheme, rest = _split(address)
    return _TRANSPORTS[scheme][0](rest, counters, path)


def connect(address: str, timeout: float = DEFAULT_TIMEOUT,
            counters: Optional[CommCounters] = None,
            path: TransferPath = TransferPath.INTRA_NODE) -> Comm:
    """Connect to a listening ``address`` and return a :class:`Comm`."""
    scheme, rest = _split(address)
    return _TRANSPORTS[scheme][1](rest, timeout, counters, path)


# ---------------------------------------------------------------------------
# In-process transport (queue pair)
# ---------------------------------------------------------------------------

_CLOSE = object()          # sentinel frame: peer closed

_inproc_lock = threading.Lock()
_inproc_listeners: Dict[str, "InProcListener"] = {}


class InProcComm(Comm):
    """One end of a queue pair.  Frames are the serialised bytes — the
    wire-format round-trip is real even in-process, so byte counters
    mean the same thing on every transport."""

    def __init__(self, local_address: str, peer_address: str,
                 rx: "queue.SimpleQueue", tx: "queue.SimpleQueue",
                 counters: Optional[CommCounters] = None,
                 path: TransferPath = TransferPath.INTRA_NODE):
        super().__init__(local_address, peer_address, counters, path)
        self._rx = rx
        self._tx = tx
        self._peer_gone = False

    def _send_frame(self, frame: bytes) -> None:
        if self._peer_gone:
            raise CommClosedError(f"peer {self.peer_address} is gone")
        self._tx.put(frame)

    def _recv_frame(self, timeout: Optional[float]) -> Tuple[int, bytes]:
        if self._peer_gone:
            raise CommClosedError(f"peer {self.peer_address} is gone")
        try:
            item = self._rx.get(timeout=timeout)
        except queue.Empty:
            raise CommTimeoutError(
                f"recv from {self.peer_address} timed out after "
                f"{timeout} s") from None
        if item is _CLOSE:
            self._peer_gone = True
            raise CommClosedError(f"peer {self.peer_address} closed "
                                  f"the connection")
        return _HEADER.unpack(item[:_HEADER.size])[1], item[_HEADER.size:]

    def _close_transport(self) -> None:
        with contextlib.suppress(Exception):  # pragma: no cover - in-memory
            self._tx.put(_CLOSE)
        # Wake any thread blocked in our *own* recv as well (TCP gets
        # this for free: closing the fd errors a blocked read).
        with contextlib.suppress(Exception):  # pragma: no cover - in-memory
            self._rx.put(_CLOSE)


class InProcListener(Listener):
    def __init__(self, name: str, counters: Optional[CommCounters],
                 path: TransferPath):
        self.name = name
        self.address = f"inproc://{name}"
        self._counters = counters
        self._path = path
        self._pending: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False

    def accept(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> Comm:
        if self._closed:
            raise CommClosedError(f"accept on closed listener "
                                  f"{self.address}")
        try:
            item = self._pending.get(timeout=timeout)
        except queue.Empty:
            raise CommTimeoutError(
                f"accept on {self.address} timed out after "
                f"{timeout} s") from None
        if item is _CLOSE or self._closed:
            # close() raced us: re-arm the sentinel for any other
            # blocked accepter and surface the close, never hang.
            self._pending.put(_CLOSE)
            raise CommClosedError(f"listener {self.address} closed "
                                  f"during accept")
        a2b, b2a, client_addr = item
        return InProcComm(self.address, client_addr, rx=a2b, tx=b2a,
                          counters=self._counters, path=self._path)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with _inproc_lock:
            if _inproc_listeners.get(self.name) is self:
                del _inproc_listeners[self.name]
        # Wake threads blocked in accept(); they raise CommClosedError.
        self._pending.put(_CLOSE)


def _inproc_listen(name: str, counters: Optional[CommCounters],
                   path: TransferPath) -> Listener:
    with _inproc_lock:
        if name in _inproc_listeners:
            raise AddressInUseError(f"inproc://{name} already has a "
                                    f"listener")
        lst = InProcListener(name, counters, path)
        _inproc_listeners[name] = lst
        return lst


_inproc_client_seq = [0]


def _inproc_connect(name: str, timeout: float,
                    counters: Optional[CommCounters],
                    path: TransferPath) -> Comm:
    with _inproc_lock:
        lst = _inproc_listeners.get(name)
        _inproc_client_seq[0] += 1
        seq = _inproc_client_seq[0]
    if lst is None or lst._closed:
        raise CommClosedError(f"no listener at inproc://{name}")
    client_addr = f"inproc://{name}#client{seq}"
    a2b: "queue.SimpleQueue" = queue.SimpleQueue()  # client -> server
    b2a: "queue.SimpleQueue" = queue.SimpleQueue()  # server -> client
    lst._pending.put((a2b, b2a, client_addr))
    return InProcComm(client_addr, lst.address, rx=b2a, tx=a2b,
                      counters=counters, path=path)


register_transport("inproc", _inproc_listen, _inproc_connect)


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------

class TCPComm(Comm):
    def __init__(self, sock: socket.socket,
                 counters: Optional[CommCounters] = None,
                 path: TransferPath = TransferPath.INTRA_NODE):
        with contextlib.suppress(OSError):  # pragma: no cover - AF dependent
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        host, port = sock.getsockname()[:2]
        local = f"tcp://{host}:{port}"
        try:
            host, port = sock.getpeername()[:2]
            peer = f"tcp://{host}:{port}"
        except OSError:  # pragma: no cover - already reset
            peer = "tcp://?"
        super().__init__(local, peer, counters, path)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()

    def _send_frame(self, frame: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionError, OSError) as e:
            self._closed = True
            raise CommClosedError(
                f"send to {self.peer_address} failed: {e}") from e

    def _read_exactly(self, n: int, deadline: Optional[float]) -> bytes:
        chunks = []
        got = 0
        while got < n:
            if deadline is not None:
                import time
                left = deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout()
                self._sock.settimeout(left)
            else:
                self._sock.settimeout(None)
            chunk = self._sock.recv(min(1 << 20, n - got))
            if not chunk:
                raise CommClosedError(
                    f"peer {self.peer_address} closed the connection"
                    + (" mid-frame" if got else ""))
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _recv_frame(self, timeout: Optional[float]) -> Tuple[int, bytes]:
        import time
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            with self._recv_lock:
                header = self._read_exactly(_HEADER.size, deadline)
                length, codec = _HEADER.unpack(header)
                payload = self._read_exactly(length, deadline)
        except socket.timeout:
            raise CommTimeoutError(
                f"recv from {self.peer_address} timed out after "
                f"{timeout} s") from None
        except CommError:
            self._closed = True
            raise
        except (ConnectionError, OSError) as e:
            self._closed = True
            raise CommClosedError(
                f"recv from {self.peer_address} failed: {e}") from e
        return codec, payload

    def _close_transport(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):  # pragma: no cover
            self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()


class TCPListener(Listener):
    def __init__(self, host: str, port: int,
                 counters: Optional[CommCounters], path: TransferPath):
        self._counters = counters
        self._path = path
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 0)
        try:
            sock.bind((host, port))
        except OSError as e:
            sock.close()
            raise AddressInUseError(
                f"cannot bind tcp://{host}:{port}: {e}") from e
        sock.listen(128)
        self._sock = sock
        host, port = sock.getsockname()[:2]
        self.address = f"tcp://{host}:{port}"
        self._closed = False

    def accept(self, timeout: Optional[float] = DEFAULT_TIMEOUT) -> Comm:
        if self._closed:
            raise CommClosedError(f"accept on closed listener "
                                  f"{self.address}")
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise CommTimeoutError(
                f"accept on {self.address} timed out after "
                f"{timeout} s") from None
        except OSError as e:
            if self._closed:
                raise CommClosedError(
                    f"listener {self.address} closed during "
                    f"accept") from None
            raise CommClosedError(
                f"accept on {self.address} failed: {e}") from e
        if self._closed:  # close() raced the accept
            with contextlib.suppress(OSError):
                conn.close()
            raise CommClosedError(f"listener {self.address} closed "
                                  f"during accept")
        return TCPComm(conn, self._counters, self._path)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # shutdown() before close() pops any thread blocked in
        # accept() out with an OSError (close() alone leaves it
        # hanging until its timeout on some platforms).
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):  # pragma: no cover
            self._sock.close()


def _parse_hostport(rest: str) -> Tuple[str, int]:
    if ":" not in rest:
        raise CommError(f"tcp address needs host:port, got {rest!r}")
    host, port_s = rest.rsplit(":", 1)
    try:
        port = int(port_s)
    except ValueError:
        raise CommError(f"bad tcp port in {rest!r}") from None
    return host or "127.0.0.1", port


def _tcp_listen(rest: str, counters: Optional[CommCounters],
                path: TransferPath) -> Listener:
    host, port = _parse_hostport(rest)
    return TCPListener(host, port, counters, path)


def _tcp_connect(rest: str, timeout: float,
                 counters: Optional[CommCounters],
                 path: TransferPath) -> Comm:
    host, port = _parse_hostport(rest)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout:
        raise CommTimeoutError(
            f"connect to tcp://{host}:{port} timed out after "
            f"{timeout} s") from None
    except OSError as e:
        raise CommClosedError(
            f"connect to tcp://{host}:{port} failed: {e}") from e
    sock.settimeout(None)
    return TCPComm(sock, counters, path)


register_transport("tcp", _tcp_listen, _tcp_connect)
