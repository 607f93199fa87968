"""Comm-layer isolation tests (repro.runtime.distributed.comm).

Both transports behind the one ``Comm``/``Listener`` interface:
round-trips, counters that match wire bytes exactly, refused double
binds, and — the property the executor's crash recovery leans on — a
dropped connection surfacing as a *retryable* error well under the
5 s timeout budget instead of a hang.  The frame decoder is fuzzed:
whatever bytes arrive, the comm layer raises nothing but
:class:`CommError` (the executor's event loop survives on that rule).
"""

import gc
import socket
import struct
import threading
import time
import warnings
import zlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.comm.counters import CommCounters
from repro.comm.network import TransferPath
from repro.runtime.distributed.comm import (
    CODEC_PICKLE,
    DEFAULT_TIMEOUT,
    FLAG_CRC,
    AddressInUseError,
    CommClosedError,
    CommError,
    CommTimeoutError,
    connect,
    decode_frame,
    encode_frame,
    listen,
    register_transport,
    verify_crc,
)

TRANSPORT_ADDRESSES = [
    pytest.param("inproc://test-{}", id="inproc"),
    pytest.param("tcp://127.0.0.1:0", id="tcp"),
]

_uniq = iter(range(10 ** 6))


class _Box:
    """Module-level so pickle can resolve it."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, _Box) and other.v == self.v


def _pair(address_tpl, counters=None):
    """A connected (server_comm, client_comm, listener) triple."""
    address = address_tpl.format(next(_uniq))
    lst = listen(address, counters=counters)
    out = {}

    def _accept():
        out["server"] = lst.accept(timeout=5.0)

    t = threading.Thread(target=_accept)
    t.start()
    client = connect(lst.address, timeout=5.0, counters=counters)
    t.join(timeout=5.0)
    assert "server" in out, "accept did not complete"
    return out["server"], client, lst


@pytest.mark.parametrize("address", TRANSPORT_ADDRESSES)
class TestRoundTrip:
    def test_messages_round_trip_both_directions(self, address):
        server, client, lst = _pair(address)
        try:
            msgs = [{"op": "task", "tid": 7, "attempt": 0},
                    [1, 2.5, "three", None, b"bytes"],
                    ("tuples", "pickle", {"nested": [True, False]})]
            for m in msgs:
                client.send(m)
                assert server.recv(timeout=5.0) == m
                server.send(m)
                assert client.recv(timeout=5.0) == m
        finally:
            client.close()
            server.close()
            lst.close()

    def test_counters_match_wire_bytes_exactly(self, address):
        counters = CommCounters()
        server, client, lst = _pair(address, counters=counters)
        try:
            sent = [client.send({"op": "hello", "wid": i})
                    for i in range(5)]
            for _ in sent:
                server.recv(timeout=5.0)
            # Sender- and receiver-side accounting both see each frame.
            assert client.sent_messages == 5
            assert server.received_messages == 5
            assert client.sent_bytes == sum(sent)
            assert server.received_bytes == sum(sent)
            # The shared CommCounters sees both halves, on INTRA_NODE.
            assert counters.messages[TransferPath.INTRA_NODE] == 10
            assert counters.bytes[TransferPath.INTRA_NODE] == 2 * sum(sent)
        finally:
            client.close()
            server.close()
            lst.close()

    def test_double_bind_is_refused(self, address):
        lst = listen(address.format(next(_uniq)))
        try:
            with pytest.raises(AddressInUseError):
                listen(lst.address)
        finally:
            lst.close()
        # The address is reusable once the first listener is gone.
        lst2 = listen(lst.address)
        lst2.close()

    def test_dropped_connection_is_retryable_and_prompt(self, address):
        server, client, lst = _pair(address)
        try:
            client.close()
            t0 = time.perf_counter()
            with pytest.raises(CommClosedError) as err:
                server.recv(timeout=5.0)
            assert time.perf_counter() - t0 < 5.0
            assert err.value.retryable
        finally:
            server.close()
            lst.close()

    def test_recv_timeout_is_retryable(self, address):
        server, client, lst = _pair(address)
        try:
            t0 = time.perf_counter()
            with pytest.raises(CommTimeoutError) as err:
                server.recv(timeout=0.05)
            assert 0.04 <= time.perf_counter() - t0 < 2.0
            assert err.value.retryable
        finally:
            client.close()
            server.close()
            lst.close()

    def test_send_on_closed_comm_raises(self, address):
        server, client, lst = _pair(address)
        client.close()
        server.close()
        lst.close()
        with pytest.raises(CommClosedError):
            client.send({"op": "task"})
        with pytest.raises(CommClosedError):
            server.recv(timeout=0.5)


class TestFraming:
    def test_frame_round_trip(self):
        msg = {"op": "done", "tid": 3, "t0": 1.25, "side": [None, b"x"]}
        frame = encode_frame(msg)
        length = int.from_bytes(frame[:8], "big")
        codec = frame[8]
        assert length == len(frame) - 9
        assert decode_frame(codec, frame[9:]) == msg

    def test_pickle_fallback_for_rich_objects(self):
        frame = encode_frame(_Box(41))
        assert frame[8] == CODEC_PICKLE
        assert decode_frame(frame[8], frame[9:]) == _Box(41)

    def test_unknown_codec_rejected(self):
        with pytest.raises(CommError):
            decode_frame(250, b"junk")
        with pytest.raises(CommError, match="unknown frame codec 1"):
            decode_frame(1, encode_frame({"op": "task"})[9:])


#: A codec byte: mostly the real tag and the one it lost (1, now
#: unknown), with and without the CRC flag.
_CODECS = st.one_of(
    st.sampled_from([CODEC_PICKLE, 1, CODEC_PICKLE | FLAG_CRC, 1 | FLAG_CRC]),
    st.integers(0, 255))


class TestDecoderFuzz:
    """Every error the frame decoder raises is a :class:`CommError`."""

    @given(codec=_CODECS, payload=st.binary(max_size=96),
           sealed=st.booleans())
    @example(codec=CODEC_PICKLE, payload=b"garbage", sealed=False)
    @example(codec=CODEC_PICKLE, payload=b"", sealed=False)
    @example(codec=CODEC_PICKLE, payload=b"garbage", sealed=True)
    def test_any_codec_and_payload(self, codec, payload, sealed):
        # ``sealed``: a valid CRC trailer, so the payload reaches the
        # codec however it is flagged.
        if sealed:
            payload += struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF)
            codec |= FLAG_CRC
        try:
            decode_frame(*verify_crc(codec, payload))
        except CommError:
            pass

    @given(data=st.binary(max_size=160))
    @example(data=struct.pack(">QB", 7, CODEC_PICKLE) + b"garbage")
    @example(data=struct.pack(">QB", 0, CODEC_PICKLE))
    @example(data=struct.pack(">QB", 1 << 40, CODEC_PICKLE) + b"\x80")
    def test_any_bytes_on_a_tcp_comm(self, data):
        # Whatever a peer writes and then hangs up on: whole frames
        # decode or raise CommError, a torn one is a CommClosedError.
        server, client, lst = _pair("tcp://127.0.0.1:0")
        try:
            client._sock.sendall(data)
            client.close()
            for _ in range(len(data) + 1):
                try:
                    server.recv(timeout=5.0)
                except CommError:
                    break
            else:
                pytest.fail("recv never reached the hang-up")
        finally:
            server.close()
            lst.close()


class TestSchemeRegistry:
    def test_unknown_scheme_and_missing_scheme(self):
        with pytest.raises(CommError, match="unknown comm scheme"):
            listen("carrier-pigeon://roost")
        with pytest.raises(CommError, match="no scheme"):
            connect("localhost:1234")

    def test_register_transport_dispatches(self):
        seen = {}

        def fake_listen(rest, counters, path):
            seen["listen"] = rest
            return None

        def fake_connect(rest, timeout, counters, path):
            seen["connect"] = (rest, timeout)
            return None

        from repro.runtime.distributed import comm as comm_mod
        register_transport("fake", fake_listen, fake_connect)
        try:
            listen("fake://somewhere")
            connect("fake://elsewhere", timeout=1.5)
            assert seen == {"listen": "somewhere",
                            "connect": ("elsewhere", 1.5)}
        finally:
            comm_mod._TRANSPORTS.pop("fake", None)

    def test_default_timeout_contract(self):
        assert DEFAULT_TIMEOUT == 5.0


class TestTcpSpecifics:
    def test_port_zero_resolves_to_concrete_port(self):
        lst = listen("tcp://127.0.0.1:0")
        try:
            assert not lst.address.endswith(":0")
        finally:
            lst.close()

    def test_peer_process_death_equivalent_reset(self):
        # Closing the raw socket out from under the peer (what a
        # SIGKILLed worker does to its parent) surfaces promptly as a
        # retryable CommError, never a hang.
        server, client, lst = _pair("tcp://127.0.0.1:0")
        try:
            client._sock.close()
            t0 = time.perf_counter()
            with pytest.raises(CommError) as err:
                server.recv(timeout=5.0)
            assert time.perf_counter() - t0 < 5.0
            assert err.value.retryable
        finally:
            server.close()
            lst.close()

    def test_a_comm_closed_by_eof_leaks_no_socket(self):
        # EOF marks the comm closed; close() must still release its
        # socket, which then reports fileno() == -1.
        server, client, lst = _pair("tcp://127.0.0.1:0")
        client.close()
        lst.close()
        with pytest.raises(CommClosedError):
            server.recv(timeout=5.0)
        assert server.closed and server.fileno() >= 0
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", ResourceWarning)
            server.close()
            fd = server.fileno()
            del server, client, lst
            gc.collect()
        assert not [str(w.message) for w in seen
                    if issubclass(w.category, ResourceWarning)]
        assert fd == -1

    def test_an_ip_literal_dials_without_a_resolver(self, monkeypatch):
        # A freshly forked worker's first getaddrinfo costs
        # milliseconds: an IP-literal address must not call it.  A
        # hostname still resolves.
        real, asked = socket.getaddrinfo, []

        def no_resolver(*args, **kw):
            raise OSError("name resolution is not allowed here")

        def resolver(host, *args, **kw):
            asked.append(host)
            return real(host, *args, **kw)

        lst = listen("tcp://127.0.0.1:0")
        port = lst.address.rsplit(":", 1)[1]
        try:
            for host, patch in (("127.0.0.1", no_resolver),
                                ("localhost", resolver)):
                monkeypatch.setattr(socket, "getaddrinfo", patch)
                client = connect(f"tcp://{host}:{port}", timeout=5.0)
                monkeypatch.undo()
                server = lst.accept(timeout=5.0)
                try:
                    client.send({"op": "hello", "host": host})
                    assert server.recv(timeout=5.0) == {"op": "hello",
                                                        "host": host}
                    server.send({"op": "shutdown"})
                    assert client.recv(timeout=5.0) == {"op": "shutdown"}
                finally:
                    client.close()
                    server.close()
        finally:
            lst.close()
        assert asked == ["localhost"]
