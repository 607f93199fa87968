"""ChaosComm: seeded, deterministic network fault injection.

Registers ``chaos+tcp://`` / ``chaos+inproc://`` transports that wrap
the real ones and perturb frames on their way *out* of each endpoint,
driven by the :class:`~repro.resilience.net.NetFaultPlan` installed in
the process (:func:`install_net_plan`).  The executor simply listens
on ``chaos+tcp://`` instead of ``tcp://`` when a net plan is active;
workers inherit the scheme through the listener's resolved address,
so both directions of every driver↔worker link are covered without
either side knowing about the other.

Injection points (all send-side, per endpoint):

* **drop** — the frame is silently discarded;
* **duplicate** — the frame is written twice (sequence numbers at the
  reliable layer discard the copy);
* **delay** — a bounded, seeded sleep before the write;
* **corrupt** — one payload byte is XOR-flipped (driver-side only so
  the plan's ``max_events`` is a per-run bound; never the header, so
  the stream stays framed and the CRC32 trailer takes the blame);
* **stall / partition** — window-scheduled 100% drops, one-way
  (:class:`LinkStall`) or both ways (:class:`NetPartition`);
* **cut** — the connection is severed after a fixed frame count
  (worker-side, so the frame index is unambiguous).

Determinism: every probabilistic decision draws from
``plan.frame_rng(salt, index)`` where ``salt`` encodes (side, wid)
and ``index`` is the frame's position on its connection — the same
plan perturbs the same frames identically on every run.  The first
frame of each connection is always exempt: that is the plain
``hello``/``resync`` handshake, which has no retransmission layer
under it yet.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ...comm.counters import CommCounters
from ...comm.network import TransferPath
from ...resilience.net import NetFaultPlan
from .comm import (_HEADER, Comm, CommClosedError, Listener, connect,
                   listen, register_transport)

__all__ = [
    "ChaosComm",
    "ChaosListener",
    "install_net_plan",
    "clear_net_plan",
    "active_net_plan",
    "set_local_wid",
    "assign_peer",
    "chaos_stats",
]

#: Fault kinds reported through the ``on_fault`` callback.
KIND_DROP = "drop"
KIND_CORRUPT = "corrupt"
KIND_PARTITION = "partition"
KIND_DELAY = "delay"
KIND_DUPLICATE = "duplicate"
KIND_CUT = "cut"


class _ChaosState:
    """Per-process injection state (inherited over fork)."""

    def __init__(self) -> None:
        self.plan: Optional[NetFaultPlan] = None
        self.epoch = 0.0
        self.wid = -1           # local wid (worker side); -1 on the driver
        self.lane = -1          # local worker slot (worker side)
        self.worker_side = False
        self.on_fault: Optional[Callable[[str, int, str], None]] = None
        self.lock = threading.Lock()
        self.cut_done: set = set()
        #: Driver-side frame count per worker *lane* for cut
        #: scheduling.  Kept in the driver process (which survives the
        #: per-window worker forks) so a cut threshold accumulates
        #: across every connection a slot ever makes instead of
        #: resetting with each fresh window.
        self.frames_by_lane: Dict[int, int] = {}
        self.drop_events: Dict[int, int] = {}
        self.corrupt_events: Dict[int, int] = {}
        self.stats: Dict[str, int] = {}

    def count(self, kind: str) -> None:
        with self.lock:
            self.stats[kind] = self.stats.get(kind, 0) + 1


_STATE = _ChaosState()


def install_net_plan(plan: NetFaultPlan, epoch: Optional[float] = None,
                     on_fault: Optional[Callable[[str, int, str],
                                                 None]] = None) -> None:
    """Arm the process (and every future fork) with ``plan``.

    ``epoch`` anchors the plan's time windows (defaults to now);
    ``on_fault(kind, wid, detail)`` — driver-side observability hook,
    called from whichever thread performed the send."""
    global _STATE
    _STATE = _ChaosState()
    _STATE.plan = plan
    _STATE.epoch = time.monotonic() if epoch is None else epoch
    _STATE.on_fault = on_fault


def clear_net_plan() -> None:
    global _STATE
    _STATE = _ChaosState()


def active_net_plan() -> Optional[NetFaultPlan]:
    return _STATE.plan


def set_local_wid(wid: int, lane: int = -1) -> None:
    """Mark this process as worker ``wid`` in slot ``lane`` (call
    before connecting).  Plans target the *lane* — the stable worker
    slot 0..workers-1 — because wids are unique per fork and therefore
    never repeat across execution windows."""
    _STATE.wid = wid
    _STATE.lane = lane
    _STATE.worker_side = True
    _STATE.on_fault = None  # events are driver-side observability


def assign_peer(comm: Any, wid: int, lane: int = -1) -> None:
    """Tell the driver-side chaos wrapper which worker sits behind
    ``comm`` (walks wrapper chains, e.g. ReliableComm → ChaosComm)."""
    seen = 0
    while comm is not None and seen < 8:
        if isinstance(comm, ChaosComm):
            comm.peer_wid = wid
            comm.peer_lane = lane
            return
        comm = getattr(comm, "inner", None)
        seen += 1


def chaos_stats() -> Dict[str, int]:
    """This process's injection counts (driver-side: the whole story
    for corrupts; drops/delays also fire inside workers)."""
    with _STATE.lock:
        return dict(_STATE.stats)


class ChaosComm(Comm):
    """A :class:`Comm` that perturbs its own sends per the installed
    :class:`NetFaultPlan` and delegates the wire to ``inner``."""

    def __init__(self, inner: Comm,
                 counters: Optional[CommCounters] = None,
                 path: TransferPath = TransferPath.INTRA_NODE):
        super().__init__(_rewrite(inner.local_address),
                         _rewrite(inner.peer_address), counters, path)
        self.inner = inner
        self.peer_wid = -1          # driver side: set via assign_peer
        self.peer_lane = -1         # driver side: set via assign_peer
        self._idx = 0               # frames sent on this connection
        self._nframes = 0           # sent + received (cut counting)
        self._window_announced: set = set()

    # -- identity ------------------------------------------------------
    @property
    def _wid(self) -> int:
        """The worker id of this link (whichever side we are)."""
        return _STATE.wid if _STATE.worker_side else self.peer_wid

    @property
    def _lane(self) -> int:
        """The worker slot of this link — what plans target, because
        wids never repeat across execution-window forks."""
        return _STATE.lane if _STATE.worker_side else self.peer_lane

    def _salt(self) -> int:
        return (self._wid + 7) * 10_007 + (1 if _STATE.worker_side else 0)

    def _emit(self, kind: str, detail: str) -> None:
        _STATE.count(kind)
        cb = _STATE.on_fault
        if cb is not None:
            cb(kind, self._wid, detail)

    # -- injection pipeline --------------------------------------------
    def _cut_fires(self) -> bool:
        st = _STATE
        if st.plan is None or st.worker_side:
            return False
        lane = self.peer_lane
        if lane < 0:
            return False
        with st.lock:
            n = st.frames_by_lane.get(lane, 0) + 1
            st.frames_by_lane[lane] = n
            for c in st.plan.cuts:
                if c.wid != lane or c.wid in st.cut_done:
                    continue
                if n >= c.after_frames:
                    st.cut_done.add(c.wid)
                    self._nframes = n
                    return True
        return False

    def _window_drop(self, now: float) -> Optional[str]:
        """A stall/partition window covering this send, or None."""
        st = _STATE
        plan = st.plan
        assert plan is not None
        lane = self._lane
        for i, p in enumerate(plan.partitions):
            if lane in p.wids and p.start <= now < p.end:
                return f"partition[{i}] lane {lane} " \
                       f"[{p.start:g}, {p.end:g})"
        me_sending = "w2d" if st.worker_side else "d2w"
        for i, s in enumerate(plan.stalls):
            if (s.wid == lane and s.direction == me_sending
                    and s.start <= now < s.end):
                return f"stall[{i}] {s.direction} lane {lane} " \
                       f"[{s.start:g}, {s.end:g})"
        return None

    def _send_frame(self, frame: bytes) -> None:
        st = _STATE
        plan = st.plan
        idx = self._idx
        self._idx += 1
        if plan is None:
            self.inner._send_frame(frame)
            return
        if self._cut_fires():
            self._emit(KIND_CUT, f"cut after {self._nframes} frames")
            self.inner._close_transport()
            raise CommClosedError(
                f"chaos: connection to {self.peer_address} cut")
        if idx == 0:  # handshake frame: always exempt
            self.inner._send_frame(frame)
            return
        now = time.monotonic() - st.epoch
        window = self._window_drop(now)
        if window is not None:
            if window not in self._window_announced:
                self._window_announced.add(window)
                self._emit(KIND_PARTITION, window)
            st.count(KIND_DROP)
            return  # dropped
        rng = plan.frame_rng(self._salt(), idx)
        for i, d in enumerate(plan.drops):
            if d.probability <= 0.0 or rng.random() >= d.probability:
                continue
            with st.lock:
                fired = st.drop_events.get(i, 0)
                if d.max_events is not None and fired >= d.max_events:
                    continue
                st.drop_events[i] = fired + 1
            self._emit(KIND_DROP, f"frame {idx} dropped "
                                  f"({len(frame)} bytes)")
            return
        if not st.worker_side:  # corrupt: driver-side only
            for i, c in enumerate(plan.corrupts):
                if (c.probability <= 0.0
                        or rng.random() >= c.probability
                        or len(frame) <= _HEADER.size):
                    continue
                with st.lock:
                    fired = st.corrupt_events.get(i, 0)
                    if fired >= c.max_events:
                        continue
                    st.corrupt_events[i] = fired + 1
                pos = rng.randrange(_HEADER.size, len(frame))
                flip = rng.randrange(1, 256)
                frame = frame[:pos] + bytes([frame[pos] ^ flip]) \
                    + frame[pos + 1:]
                self._emit(KIND_CORRUPT,
                           f"frame {idx} byte {pos} ^= {flip:#04x}")
                break
        for d in plan.delays:
            if d.probability <= 0.0 or rng.random() >= d.probability:
                continue
            pause = rng.uniform(d.min_seconds, d.seconds)
            self._emit(KIND_DELAY, f"frame {idx} delayed "
                                   f"{pause * 1e3:.1f}ms")
            time.sleep(pause)
            break
        dup = any(d.probability > 0.0 and rng.random() < d.probability
                  for d in plan.duplicates)
        self.inner._send_frame(frame)
        if dup:
            self._emit(KIND_DUPLICATE, f"frame {idx} duplicated")
            self.inner._send_frame(frame)

    def _recv_frame(self, timeout: Optional[float]) -> Tuple[int, bytes]:
        # Counted once a frame arrived (an EOF is none); the frame that
        # reaches the count is lost with the connection.
        frame = self.inner._recv_frame(timeout)
        if self._cut_fires():
            self._emit(KIND_CUT, f"cut after {self._nframes} frames")
            self.inner._close_transport()
            raise CommClosedError(
                f"chaos: connection to {self.peer_address} cut")
        return frame

    def _close_transport(self) -> None:
        self.inner._close_transport()

    def fileno(self) -> int:
        return self.inner.fileno()


class ChaosListener(Listener):
    def __init__(self, inner: Listener):
        self.inner = inner
        self.address = _rewrite(inner.address)

    def accept(self, timeout: Optional[float] = None) -> Comm:
        return ChaosComm(self.inner.accept(timeout=timeout),
                         counters=self._counters, path=self._path)

    def close(self) -> None:
        self.inner.close()

    def fileno(self) -> int:
        return self.inner.fileno()

    # set by _chaos_listen
    _counters: Optional[CommCounters] = None
    _path: TransferPath = TransferPath.INTRA_NODE


def _rewrite(address: str) -> str:
    """``tcp://host:port`` → ``chaos+tcp://host:port`` (idempotent)."""
    if "://" not in address or address.startswith("chaos+"):
        return address
    return "chaos+" + address


def _make_transport(base: str) -> None:
    def chaos_listen(rest: str, counters: Optional[CommCounters],
                     path: TransferPath) -> Listener:
        lst = ChaosListener(listen(f"{base}://{rest}"))
        lst._counters = counters
        lst._path = path
        return lst

    def chaos_connect(rest: str, timeout: float,
                      counters: Optional[CommCounters],
                      path: TransferPath) -> Comm:
        inner = connect(f"{base}://{rest}", timeout=timeout)
        return ChaosComm(inner, counters=counters, path=path)

    register_transport(f"chaos+{base}", chaos_listen, chaos_connect)


_make_transport("tcp")
_make_transport("inproc")
