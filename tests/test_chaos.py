"""ChaosComm, ReliableComm, and chaos-under-load executor tests.

Four layers:

* Listener/Comm close semantics — closing a listener mid-``accept``
  unblocks the accepter with :class:`CommClosedError` (never a hang),
  and every close is idempotent.
* :class:`ReliableComm` in isolation, driving one side by hand with
  raw CRC frames: exactly-once in-order delivery under duplicates,
  gaps, and corrupt frames; the reconnect-and-resync handshake from
  both roles; a driver side that never waits on a link that is down;
  application-level accounting that counts each message once with
  wire retransmission cost reported separately.
* :class:`ChaosComm` injection: seeded decisions are deterministic
  frame-for-frame across runs, connection cuts fire on the driver
  side after the planned frame count, partitions drop scheduled
  windows, and corruption is always CRC-detectable.
* The processes backend end to end under a net plan: connection cuts
  are resynced, the default chaos plan converges bit-identically, a
  one-way link stall is caught by phi-accrual heartbeat suspicion
  (not the task timeout) while a driver deaf inside its own payload
  suspects nobody, a lost shutdown frame or link ends its window
  promptly, and an unrecoverable backend loss degrades
  processes → threads → eager instead of raising.
"""

import math
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix
from repro.resilience.faults import FaultPlan
from repro.resilience.live import RecoveryPolicy
from repro.resilience.net import (ConnectionCut, FrameCorrupt, FrameDrop,
                                  LinkStall, NetFaultPlan, NetPartition,
                                  default_chaos_plan)
from repro.runtime import Runtime
from repro.runtime.distributed import scan_segments
from repro.runtime.distributed.chaos import (assign_peer, chaos_stats,
                                             clear_net_plan,
                                             install_net_plan)
from repro.runtime.distributed.comm import (CommClosedError, CommError,
                                            CommTimeoutError,
                                            FrameCorruptError, connect,
                                            encode_frame, listen)
from repro.runtime.distributed.reliable import ReliableComm

TRANSPORT_ADDRESSES = [
    pytest.param("inproc://chaos-test-{}", id="inproc"),
    pytest.param("tcp://127.0.0.1:0", id="tcp"),
]

_uniq = iter(range(10 ** 6))


def _pair(address_tpl="inproc://chaos-test-{}"):
    """A connected (server_comm, client_comm, listener) triple."""
    address = address_tpl.format(next(_uniq))
    lst = listen(address)
    out = {}

    def _accept():
        out["server"] = lst.accept(timeout=5.0)

    t = threading.Thread(target=_accept)
    t.start()
    client = connect(lst.address, timeout=5.0)
    t.join(timeout=5.0)
    assert "server" in out, "accept did not complete"
    return out["server"], client, lst


# ----------------------------------------------------------------------
# Listener / Comm close semantics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("address", TRANSPORT_ADDRESSES)
class TestCloseSemantics:
    def test_close_unblocks_pending_accept(self, address):
        lst = listen(address.format(next(_uniq)))
        out = {}

        def _accept():
            t0 = time.perf_counter()
            try:
                lst.accept(timeout=10.0)
            except CommError as exc:
                out["exc"] = exc
            out["elapsed"] = time.perf_counter() - t0

        t = threading.Thread(target=_accept)
        t.start()
        time.sleep(0.05)
        lst.close()
        t.join(timeout=5.0)
        assert not t.is_alive(), "accept hung across listener close"
        assert isinstance(out.get("exc"), CommClosedError)
        assert out["elapsed"] < 5.0

    def test_accept_after_close_raises_immediately(self, address):
        lst = listen(address.format(next(_uniq)))
        lst.close()
        t0 = time.perf_counter()
        with pytest.raises(CommClosedError):
            lst.accept(timeout=10.0)
        assert time.perf_counter() - t0 < 1.0

    def test_listener_double_close_is_noop(self, address):
        lst = listen(address.format(next(_uniq)))
        lst.close()
        lst.close()

    def test_comm_double_close_is_noop(self, address):
        server, client, lst = _pair(address)
        for c in (client, server):
            c.close()
            c.close()
        lst.close()
        lst.close()


# ----------------------------------------------------------------------
# ReliableComm: exactly-once delivery over a lossy wire
# ----------------------------------------------------------------------

class TestReliableComm:
    def test_duplex_round_trip_and_heartbeat(self):
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0)
        wrk = ReliableComm(client, role="worker", wid=0,
                           address=lst.address)
        try:
            wrk.send({"op": "done", "tid": 4})
            assert drv.recv(timeout=5.0) == {"op": "done", "tid": 4}
            drv.send({"op": "task", "tid": 5, "attempt": 0})
            assert wrk.recv(timeout=5.0) == {"op": "task", "tid": 5,
                                             "attempt": 0}
            wrk.send_heartbeat()
            hb = drv.recv(timeout=5.0)
            assert hb["op"] == "hb" and "clock" in hb
            # Heartbeats are control frames: not application messages.
            assert wrk.sent_messages == 1
            assert drv.sent_messages == 1
        finally:
            drv.close()
            wrk.close()
            lst.close()

    def test_duplicate_frames_delivered_once(self):
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0)
        try:
            msg = {"op": "done", "tid": 9}
            frame = encode_frame({"s": 1, "a": 0, "m": msg}, crc=True)
            client._send_frame(frame)
            client._send_frame(frame)           # wire-level duplicate
            assert drv.recv(timeout=5.0) == msg
            with pytest.raises(CommTimeoutError):
                drv.recv(timeout=0.2)           # the copy was discarded
            assert drv.dup_frames == 1
            assert drv.received_messages == 1
        finally:
            drv.close()
            client.close()
            lst.close()

    def test_gap_is_nacked_and_refilled(self):
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0)
        try:
            m1, m2 = {"op": "done", "tid": 1}, {"op": "done", "tid": 2}
            # Frame 2 arrives first: out of order, must not deliver.
            client._send_frame(encode_frame({"s": 2, "a": 0, "m": m2},
                                            crc=True))
            with pytest.raises(CommTimeoutError):
                drv.recv(timeout=0.2)
            nack = client.recv(timeout=5.0)
            assert nack == {"n": 1, "a": 0}
            # Peer replays from the gap: both deliver, in order.
            client._send_frame(encode_frame({"s": 1, "a": 0, "m": m1},
                                            crc=True))
            client._send_frame(encode_frame({"s": 2, "a": 0, "m": m2},
                                            crc=True))
            assert drv.recv(timeout=5.0) == m1
            assert drv.recv(timeout=5.0) == m2
        finally:
            drv.close()
            client.close()
            lst.close()

    def test_corrupt_frame_is_nacked_and_rerequested(self):
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0)
        try:
            msg = {"op": "done", "tid": 3}
            frame = encode_frame({"s": 1, "a": 0, "m": msg}, crc=True)
            bad = frame[:-1] + bytes([frame[-1] ^ 0x5A])
            client._send_frame(bad)
            with pytest.raises(CommTimeoutError):
                drv.recv(timeout=0.2)
            assert drv.corrupt_frames == 1
            assert client.recv(timeout=5.0) == {"n": 1, "a": 0}
            client._send_frame(frame)           # clean retransmission
            assert drv.recv(timeout=5.0) == msg
        finally:
            drv.close()
            client.close()
            lst.close()

    def test_attach_retransmits_only_the_missing_tail(self):
        # Satellite: counters across a reconnect.  Application-level
        # accounting counts each message exactly once; the wire cost of
        # the replay shows up only in retrans_messages/retrans_bytes.
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=2,
                           deadline=5.0)
        try:
            m1, m2 = {"op": "task", "tid": 1}, {"op": "task", "tid": 2}
            drv.send(m1)
            env1 = client.recv(timeout=5.0)
            assert env1["s"] == 1 and env1["m"] == m1
            app_bytes = drv.sent_bytes
            client.close()                      # link breaks
            drv.send(m2)                        # buffered, not lost
            # The worker dials back; the executor's loop accepts the
            # new connection, which we splice in at the peer's rx=1.
            out = {}
            t = threading.Thread(
                target=lambda: out.update(server=lst.accept(timeout=5.0)))
            t.start()
            client2 = connect(lst.address, timeout=5.0)
            t.join(timeout=5.0)
            assert drv.attach(out["server"], peer_rx=1)
            env2 = client2.recv(timeout=5.0)
            assert env2["s"] == 2 and env2["m"] == m2
            with pytest.raises(CommTimeoutError):
                client2.recv(timeout=0.2)       # m1 was NOT replayed
            assert drv.reconnects == 1
            assert drv.sent_messages == 2       # each counted once
            assert drv.sent_bytes == app_bytes + len(
                encode_frame({"s": 2, "a": 0, "m": m2}, crc=True))
            assert drv.retrans_messages == 1    # wire cost, separate
            assert drv.retrans_bytes > 0
            client2.close()
        finally:
            drv.close()
            lst.close()

    def test_close_racing_recv_on_broken_link_is_not_lost(self):
        # The driver side never waits on a link that is down: there is
        # nothing to wait on (no condition variable, so no notify to
        # lose), and the executor's event loop decides when the link is
        # lost.  While a resync may still come, recv says "down" at
        # once; a close, or the deadline running out, says "closed".
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0, deadline=0.3)
        try:
            assert not hasattr(drv, "_cond")
            with drv._lock:
                drv._on_break_locked(drv.inner)     # link breaks
            for timeout in (None, 30.0):
                t0 = time.monotonic()
                with pytest.raises(CommTimeoutError, match="down"):
                    drv.recv(timeout=timeout)
                assert time.monotonic() - t0 < 0.1
            assert not drv.lost
            time.sleep(0.35)                        # past the deadline
            assert drv.lost
            t0 = time.monotonic()
            with pytest.raises(CommClosedError, match="lost"):
                drv.recv(timeout=None)
            drv.close()
            with pytest.raises(CommClosedError, match="lost"):
                drv.recv(timeout=None)
            assert time.monotonic() - t0 < 0.1
        finally:
            drv.close()
            client.close()
            lst.close()

    def test_worker_reconnect_resync_handshake(self):
        server, client, lst = _pair()
        wrk = ReliableComm(client, role="worker", wid=3,
                           address=lst.address, deadline=5.0)
        try:
            m1 = {"op": "done", "tid": 1}
            wrk.send(m1)
            env = server.recv(timeout=5.0)
            assert env["s"] == 1 and env["m"] == m1
            m2 = {"op": "done", "tid": 2}
            wrk.send(m2)                        # will be lost in transit
            server._close_transport()           # driver side of the link dies

            def _driver_side():
                # What the executor's event loop does on resync: answer
                # with our rx, then resume the stream.
                conn = lst.accept(timeout=5.0)
                rs = conn.recv(timeout=5.0)
                out["resync"] = rs
                conn.send({"op": "resync-ack", "rx": 1})
                out["replay"] = conn.recv(timeout=5.0)
                conn._send_frame(encode_frame(
                    {"s": 1, "a": 2, "m": {"op": "shutdown"}},
                    crc=True))
                out["conn"] = conn

            out = {}
            t = threading.Thread(target=_driver_side)
            t.start()
            # recv drives the reconnect: dial, resync at rx=0, replay
            # the un-acked tail (m2), then deliver the driver's next.
            assert wrk.recv(timeout=5.0) == {"op": "shutdown"}
            t.join(timeout=5.0)
            assert out["resync"] == {"op": "resync", "wid": 3, "rx": 0}
            assert out["replay"]["s"] == 2 and out["replay"]["m"] == m2
            assert wrk.reconnects == 1
            assert wrk.sent_messages == 2       # app-level: still once each
            assert wrk.retrans_messages == 1
            out["conn"].close()
        finally:
            wrk.close()
            lst.close()

    def test_mark_dead_short_circuits_the_reconnect_wait(self):
        # The driver killed the worker on purpose: the link is lost
        # now, not after the 30 s resync deadline, and a recv on it
        # raises at once rather than waiting for a reconnect.
        server, client, lst = _pair()
        drv = ReliableComm(server, role="driver", wid=0, deadline=30.0)
        try:
            client.close()
            assert not drv.lost
            drv.mark_dead()
            assert drv.lost and drv.fileno() == -1
            t0 = time.perf_counter()
            with pytest.raises(CommClosedError, match="lost"):
                drv.recv(timeout=30.0)
            with pytest.raises(CommClosedError, match="lost"):
                drv.pump()
            assert time.perf_counter() - t0 < 0.1
        finally:
            drv.close()
            lst.close()


# ----------------------------------------------------------------------
# ChaosComm injection
# ----------------------------------------------------------------------

@pytest.fixture()
def chaos_state():
    yield
    clear_net_plan()


def _chaos_pair():
    return _pair("chaos+inproc://chaos-inj-{}")


class TestChaosInjection:
    def test_seeded_drops_are_deterministic(self, chaos_state):
        def run_once():
            install_net_plan(NetFaultPlan(
                seed=3, drops=(FrameDrop(probability=0.4),)))
            server, client, lst = _chaos_pair()
            try:
                for i in range(40):
                    client.send({"i": i})
                got = []
                while True:
                    try:
                        got.append(server.recv(timeout=0.2)["i"])
                    except CommTimeoutError:
                        break
                dropped = chaos_stats().get("drop", 0)
            finally:
                client.close()
                server.close()
                lst.close()
                clear_net_plan()
            return got, dropped

        got1, dropped1 = run_once()
        got2, dropped2 = run_once()
        assert got1 == got2 and dropped1 == dropped2
        assert dropped1 >= 1
        assert len(got1) == 40 - dropped1
        assert got1[0] == 0                     # handshake frame exempt

    def test_connection_cut_fires_after_planned_frames(self, chaos_state):
        install_net_plan(NetFaultPlan(
            seed=0, cuts=(ConnectionCut(wid=0, after_frames=5),)))
        server, client, lst = _chaos_pair()
        try:
            # The executor tags the driver-side comm with the worker's
            # lane; the cut counts frames there (the driver survives
            # per-window forks, so thresholds accumulate).
            assign_peer(server, wid=17, lane=0)
            for i in range(10):
                client.send({"i": i})
            got = []
            with pytest.raises(CommClosedError, match="cut"):
                for _ in range(10):
                    got.append(server.recv(timeout=1.0)["i"])
            assert got == [0, 1, 2, 3]          # severed on frame 5
            assert chaos_stats().get("cut") == 1
        finally:
            client.close()
            server.close()
            lst.close()

    def test_partition_window_drops_scheduled_lane(self, chaos_state):
        install_net_plan(NetFaultPlan(
            seed=0, partitions=(NetPartition(wids=(0,), start=0.0,
                                             end=math.inf),)),
            epoch=time.monotonic())
        server, client, lst = _chaos_pair()
        try:
            assign_peer(server, wid=17, lane=0)
            server.send({"op": "hello"})        # first frame: exempt
            assert client.recv(timeout=5.0) == {"op": "hello"}
            for i in range(3):
                server.send({"i": i})           # silently dropped
            with pytest.raises(CommTimeoutError):
                client.recv(timeout=0.25)
            stats = chaos_stats()
            assert stats.get("partition", 0) >= 1
            assert stats.get("drop", 0) >= 3
            # The un-tagged direction (client→server) is unaffected.
            client.send({"op": "done"})
            assert server.recv(timeout=5.0) == {"op": "done"}
        finally:
            client.close()
            server.close()
            lst.close()

    def test_corruption_is_always_crc_detectable(self, chaos_state):
        install_net_plan(NetFaultPlan(
            seed=1, corrupts=(FrameCorrupt(probability=1.0,
                                           max_events=1),)))
        server, client, lst = _chaos_pair()
        try:
            assign_peer(server, wid=17, lane=0)
            server.crc_frames = True
            server.send({"op": "hello"})        # first frame: exempt
            assert client.recv(timeout=5.0) == {"op": "hello"}
            server.send({"op": "task", "tid": 1})
            with pytest.raises(FrameCorruptError):
                client.recv(timeout=5.0)
            server.send({"op": "task", "tid": 2})   # max_events spent
            assert client.recv(timeout=5.0) == {"op": "task", "tid": 2}
            assert chaos_stats().get("corrupt") == 1
        finally:
            client.close()
            server.close()
            lst.close()


# ----------------------------------------------------------------------
# Executor end to end under chaos
# ----------------------------------------------------------------------

def _run_eager(a, nb):
    rt = Runtime(ProcessGrid(1, 1))
    d = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, d)
    u, h = res.u.to_array(), res.h.to_array()
    rt.close()
    return u, h, res


def _run_processes(a, nb, workers, faults=None, recovery=None):
    rt = Runtime(ProcessGrid(1, 1), faults=faults, recovery=recovery)
    d = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, d, backend="processes", workers=workers)
    u, h = res.u.to_array(), res.h.to_array()
    ex = rt._executor
    leaked = ex.inflight_attempts
    prefix = ex.store.prefix
    stats = rt.exec_stats
    rt.close()
    return u, h, res, stats, leaked, scan_segments(prefix)


class TestExecutorChaos:
    def test_connection_cut_resyncs_bit_identical(self):
        a = generate_matrix(96, cond=1e6, seed=21)
        u0, h0, _ = _run_eager(a, 32)
        plan = FaultPlan(seed=7, net=NetFaultPlan(
            seed=7, cuts=(ConnectionCut(wid=0, after_frames=40),)))
        u, h, res, stats, leaked, shm = _run_processes(
            a, 32, 2, faults=plan, recovery=RecoveryPolicy(max_retries=3))
        rec = stats.recovery
        assert rec.net_reconnects >= 1
        assert res.converged
        assert np.array_equal(u, u0)
        assert np.array_equal(h, h0)
        assert leaked == 0 and shm == []

    def test_default_chaos_plan_converges_bit_identical(self):
        a = generate_matrix(128, cond=1e6, seed=23)
        u0, h0, _ = _run_eager(a, 32)
        plan = FaultPlan(seed=11, net=default_chaos_plan(seed=11))
        u, h, res, stats, leaked, shm = _run_processes(
            a, 32, 3, faults=plan, recovery=RecoveryPolicy(max_retries=3))
        rec = stats.recovery
        assert res.converged
        assert rec.net_drops >= 1
        assert np.array_equal(u, u0)
        assert np.array_equal(h, h0)
        assert leaked == 0 and shm == []

    def test_heartbeat_suspicion_catches_stalled_link(self):
        # One-way stall: lane 1's replies and heartbeats vanish for
        # 0.6 s.  Phi-accrual suspicion must fire (placement moves off
        # the lane) long before the 60 s task timeout would, and the
        # run must finish from retransmission once the stall lifts —
        # no kill, no timeout, bit-identical result.
        a = generate_matrix(96, cond=1e6, seed=29)
        u0, h0, _ = _run_eager(a, 32)
        plan = FaultPlan(seed=13, net=NetFaultPlan(
            seed=13, stalls=(LinkStall(wid=1, direction="w2d",
                                       start=0.02, end=0.6),)))
        pol = RecoveryPolicy(max_retries=3, heartbeat_interval=0.01,
                             heartbeat_grace=0.05, phi_suspect=3.0,
                             phi_dead=1e6, task_timeout=60.0)
        t0 = time.perf_counter()
        u, h, res, stats, leaked, shm = _run_processes(
            a, 32, 2, faults=plan, recovery=pol)
        elapsed = time.perf_counter() - t0
        rec = stats.recovery
        assert rec.heartbeat_suspects >= 1
        assert rec.timeouts == 0            # heartbeats beat the timeout
        assert elapsed < 30.0
        assert res.converged
        assert np.array_equal(u, u0)
        assert np.array_equal(h, h0)
        assert leaked == 0 and shm == []

    def test_a_deaf_driver_suspects_no_live_worker(self):
        # One thread reads every worker socket, and a helping driver is
        # deaf for the length of its own payload: here a 0.5 s
        # driver-only task (it writes a scalar box) that waits on the
        # worker's task and so runs with nothing in flight, while the
        # worker beats every 10 ms.  Fifty beats wait in the socket;
        # stamped when they were sent, and judged only up to when the
        # driver last listened, they keep phi far below phi_suspect.
        from repro.runtime.task import TaskKind
        pol = RecoveryPolicy(heartbeat_interval=0.01, heartbeat_grace=0.05,
                             phi_suspect=3.0, phi_dead=1e6)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=2,
                     backend="processes", recovery=pol) as rt:
            a = DistMatrix(rt, 64, 64, 32, np.float64, name="a")
            box = rt.new_scalar_ref()
            for j in range(2):
                rt.submit(TaskKind.GEMM, writes=(a.ref(0, j),), rank=0,
                          fn=lambda: None, label="noop")
            rt.submit(TaskKind.GEMM, reads=(a.ref(0, 0), a.ref(0, 1)),
                      writes=(box,), rank=0, fn=lambda: time.sleep(0.5),
                      label="deaf")
            rt.sync()
            stats = rt.exec_stats
            assert rt._executor.inflight_attempts == 0
        assert stats.forks == 1 and stats.shipped == 1
        assert stats.recovery.heartbeat_suspects == 0

    @pytest.mark.parametrize("fault", ["dropped", "cut-after-it"])
    def test_a_lost_shutdown_ends_the_window_promptly(self, monkeypatch,
                                                      fault):
        # The wire eats each worker's first shutdown frame, or cuts the
        # link right after writing it.  The window retires its workers
        # and returns at once either way; each must still exit by
        # itself before rt.close() returns.  Dropped: the retiring link
        # stays in the loop, so the worker's next heartbeat is acked and
        # the ack's sweep re-sends the shutdown.  Cut: the worker exits
        # on the shutdown it got, and the socket the cut closed must
        # have left the loop.
        from repro.runtime import ProcessExecutor
        from repro.runtime.task import TaskKind
        put, hit = ReliableComm._put_locked, []

        def lossy_put(rc, frame):
            if b"shutdown" not in frame or rc in hit:
                return put(rc, frame)
            hit.append(rc)
            if fault == "dropped":
                return True
            ok = put(rc, frame)
            rc._on_break_locked(rc.inner)
            return ok

        shut, walls, procs = ProcessExecutor._shut, [], []

        def timed_shut(ex, failure):
            procs.extend(w.proc for w in ex._pool.values())
            t0 = time.perf_counter()
            shut(ex, failure)
            walls.append(time.perf_counter() - t0)

        monkeypatch.setattr(ReliableComm, "_put_locked", lossy_put)
        monkeypatch.setattr(ProcessExecutor, "_shut", timed_shut)
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=3,
                     backend="processes", recovery=RecoveryPolicy()) as rt:
            a = DistMatrix(rt, 32, 96, 32, np.float64, name="a")
            for j in range(3):
                rt.submit(TaskKind.GEMM, writes=(a.ref(0, j),), rank=0,
                          fn=lambda: None, label="noop")
            rt.sync()
            assert rt.exec_stats.forks == 2
            t_close = time.perf_counter()
        t_close = time.perf_counter() - t_close
        assert len(hit) == 2 and len(procs) == 2
        assert max(walls) < 0.1
        assert t_close < 1.0
        assert [p.exitcode for p in procs] == [0, 0]


# ----------------------------------------------------------------------
# Graceful backend degradation
# ----------------------------------------------------------------------

class TestGracefulDegradation:
    def _run_degraded(self, patches):
        a = generate_matrix(96, cond=1e6, seed=31)
        u0, h0, _ = _run_eager(a, 32)
        rt = Runtime(ProcessGrid(1, 1))
        try:
            d = DistMatrix.from_array(rt, a.copy(), 32)
            with warnings_ignored():
                with patches:
                    res = tiled_qdwh(rt, d, backend="processes",
                                     workers=2)
            u, h = res.u.to_array(), res.h.to_array()
        finally:
            rt.close()
        return u0, h0, u, h, res

    def test_dead_processes_backend_degrades_to_threads(self):
        from repro.runtime.distributed.executor import (ProcessExecutor,
                                                        WorkerCrashError)
        patches = mock.patch.object(
            ProcessExecutor, "run",
            side_effect=WorkerCrashError("all workers lost"))
        u0, h0, u, h, res = self._run_degraded(patches)
        assert res.degraded
        assert any("degrading to the threads backend" in line
                   for line in res.health_log)
        assert np.allclose(u, u0, atol=1e-12)
        assert np.allclose(h, h0, atol=1e-10 * np.linalg.norm(h0))

    def test_degradation_chain_reaches_eager(self):
        from repro.runtime.distributed.executor import (ProcessExecutor,
                                                        WorkerCrashError)
        from repro.runtime.parallel import ParallelExecutor
        p1 = mock.patch.object(
            ProcessExecutor, "run",
            side_effect=WorkerCrashError("all workers lost"))
        p2 = mock.patch.object(
            ParallelExecutor, "run",
            side_effect=WorkerCrashError("thread pool lost"))
        with p1, p2:
            a = generate_matrix(96, cond=1e6, seed=31)
            rt = Runtime(ProcessGrid(1, 1))
            try:
                d = DistMatrix.from_array(rt, a.copy(), 32)
                with warnings_ignored():
                    res = tiled_qdwh(rt, d, backend="processes",
                                     workers=2)
                u, h = res.u.to_array(), res.h.to_array()
            finally:
                rt.close()
        assert res.degraded
        assert sum("degrading to" in line for line in res.health_log) == 2
        assert any("eager" in line for line in res.health_log)
        u0, h0, _ = _run_eager(a, 32)
        assert np.allclose(u, u0, atol=1e-12)


def warnings_ignored():
    import warnings

    class _Ctx:
        def __enter__(self):
            self._cw = warnings.catch_warnings()
            self._cw.__enter__()
            warnings.simplefilter("ignore", RuntimeWarning)

        def __exit__(self, *exc):
            return self._cw.__exit__(*exc)

    return _Ctx()
