"""The forked-process transport: central scheduler + worker pool.

``ProcessExecutor`` replays recorded task windows on real OS
processes, sidestepping the GIL that bounds the threaded backend on
dispatch-heavy, small-tile graphs.  It is the
:class:`~repro.runtime.window.WindowExecutor` driver over a pool of
forked workers: the driver owns ``run``, the one dispatch loop, retry
budgets, accounting, death revocation and replay, and the stall rule;
the window's :class:`~.scheduling.DynamicScheduler` owns readiness,
the lookahead gate, locality-aware placement and steal-on-idle; this
module is the transport between them and the workers:

* **Fork per window** (``_open``/``_shut``).  Payload closures capture
  driver objects and cannot be pickled, so nothing is shipped: workers
  are forked at the start of each execution window and inherit the
  graph, the payload table and every shared-memory tile mapping
  copy-on-write.  One scheduler lane per worker, each at most
  :data:`PIPELINE_DEPTH` dispatches deep.  ``workers=W`` is W lanes
  and the driver is one of them
  (:meth:`~repro.runtime.window.WindowExecutor._lanes`, the rule the
  threads transport shares): a window forks ``min(W, eligible) - 1``
  processes, so ``workers=1`` forks none.  A window none of whose
  tasks is worth a hand-off
  (:meth:`~repro.runtime.window.WindowExecutor._pays`) forks nothing,
  pins nothing and runs on the driver lane, like a one-lane one.
* **Shared-memory tiles.**  Before forking, the parent pins every tile
  in the window's declared footprints into its matrix's
  :class:`SharedTileStore` segment (one segment per matrix, created by
  the first pin of any of its tiles); worker writes land directly in
  the parent's mapping (zero-copy), so there is no gather step and no
  result payload.  Tiles are the only state tasks share — QR's T and V
  factors are tiles like any other
  (:class:`~repro.tiled.qr.QRFactors`).  A tile is pinned once, by the
  first forking window that touches it, and keeps that buffer for life.
* **Dispatch** (``_send``).  A message carries a tid and an attempt
  number; a reply adds timings — a few hundred bytes per task, never
  matrix data.  The retry ledger snapshots the task's write tiles
  first, so a SIGKILL at any instant leaves the driver able to
  restore and replay.
* **Driver lane.**  The waiting thread works (OpenMP ``taskwait``,
  what SLATE's host thread does): each turn of the dispatch loop the
  driver keeps the lowest ready tid for itself, feeds the workers,
  then runs its task inline in the parent through the same
  :func:`~repro.runtime.attempt.run_attempt` (slot ``drv``) — every
  tile of the window is a shared-memory view in the parent too, so a
  driver write is a write the workers see.  Tasks whose footprint
  touches driver-local state (scalar reduction boxes, gather buffers)
  run *only* there — the split SLATE uses to keep latency-bound scalar
  work off the accelerator path.  An executor that exercises its
  transport (fault plan, ``task_timeout``, DistSan recorder:
  :attr:`~repro.runtime.window.WindowExecutor.exercises_transport`)
  keeps its driver out of worker-eligible payloads — it has crashes,
  timeouts and heartbeats to watch, and a recorded run must cross the
  wire — and forks ``min(W, eligible)`` workers instead.
* **Replies and deaths** (``_recv``).  Per-worker reader threads
  stream replies into one event queue; the driver polls it at
  ``poll_interval``.  A worker death (SIGKILL, injected ``RankCrash``,
  a task-timeout or heartbeat kill) is detected as comm EOF and
  reported to the driver, which requeues the victim's tasks onto
  survivors.  The shared-memory registry lives only in the parent, so
  no worker death can leak or tear down a segment.
* **Periodic work** (``_tick``).  Injected crashes (pending until a
  worker holds an attempt to lose), the liveness poll, phi-accrual
  heartbeat suspicion, task-timeout kills, and the respawn of a worker
  when every lane is dead.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue
import signal
import threading
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..attempt import Attempt, run_attempt
from ..task import Task
from ..window import Death, Report, WindowExecutor, WorkerCrashError
from .chaos import assign_peer, clear_net_plan, install_net_plan
from .comm import (Comm, CommError, CommTimeoutError, Listener, listen)
from .events import (EV_CLOSE, EV_COMPLETE, EV_DEATH, EV_DISPATCH,
                     EV_DRIVER, EV_FAIL, EV_REPLAY, EV_SPAWN)
from .reliable import ReliableComm
from .scheduling import DynamicScheduler
from .shm import SharedTileStore
from .worker import worker_main
from ...comm.counters import CommCounters
from ...resilience.net import PhiAccrualDetector

__all__ = ["ProcessExecutor", "WorkerCrashError"]

#: Dispatches one worker may hold unanswered: the task it runs plus
#: what it works through while the driver cannot refill it.  Measured,
#: not tuned: the driver is a lane, so it is deaf to replies for a whole
#: payload (0.3-6 ms at nb >= 128), and at depth 2 — sized for a driver
#: that only dispatched — a worker ran dry behind it (p90 gap between
#: its tasks 1.2-1.7 ms in the sizing prototype).  ``processes_over_eager``, ten interleaved
#: rounds a depth on this repo's 2-core sizing host, median (min-max):
#: ``big_tiles`` 0.93 (0.79-1.13) at 2, 0.84 (0.67-1.05) at 4, 0.85
#: (0.64-0.96) at 8; ``illcond_tall`` 1.31 (1.09-1.66), 1.23
#: (1.05-1.52), 1.20 (0.91-1.52) — 4 beats 2 in both series and in the
#: two six-round ones before them (EXPERIMENTS.md, PR 24), 8 buys
#: nothing a run can resolve, and every queued attempt is one more to
#: replay when its worker dies and one the driver cannot take at a
#: window's tail.  A module constant on purpose: not a parameter, an
#: environment variable or a CLI flag.
PIPELINE_DEPTH = 4


class _Worker:
    """Parent-side handle of one forked worker process."""

    __slots__ = ("wid", "lane", "proc", "comm", "pid", "clock_offset",
                 "reader", "sent", "kill_reason")

    def __init__(self, wid: int, proc: multiprocessing.process.BaseProcess,
                 comm: Comm, pid: int,
                 clock_offset: float, lane: int = 0):
        self.wid = wid
        #: Stable timeline slot (0..workers-1).  wids grow monotonically
        #: across windows/respawns; lanes are what occupancy reports
        #: and Chrome traces group by.
        self.lane = lane
        self.proc = proc
        self.comm = comm
        self.pid = pid
        self.clock_offset = clock_offset
        self.reader: Optional[threading.Thread] = None
        #: tid -> (attempt, send time) of dispatches awaiting a reply.
        self.sent: Dict[int, Tuple[int, float]] = {}
        #: Set when the parent killed it on purpose (timeout/injected).
        self.kill_reason: Optional[str] = None


class ProcessExecutor(WindowExecutor):
    """Replay a recorded task graph on forked worker processes."""

    def __init__(self, rt: Any, *, workers: Optional[int] = None,
                 sink: Any = None, validate: bool = True,
                 recovery: Any = None, injector: Any = None,
                 tiles: Any = None) -> None:
        super().__init__(rt.graph, rt._pending_fns, workers=workers,
                         lookahead=rt._exec_lookahead, sink=sink,
                         validate=validate, sanitizer=rt.sanitizer,
                         recovery=recovery, injector=injector, tiles=tiles)
        self.rt = rt
        pol = self.recovery_policy
        self.comm_counters = CommCounters()
        self.store = SharedTileStore()
        #: DistSan event recorder, attached by the owner as
        #: ``rt.dist_recorder`` before the first sync.  Strictly
        #: opt-in: with no recorder every hook site is a None check.
        self.recorder = getattr(rt, "dist_recorder", None)
        self.fault_plan = rt.fault_plan
        if self.recorder is not None:
            self.store.observer = self.recorder.store_observer()
        #: Injected crashes (live): fired once each, by time since the
        #: executor epoch, against ``rank % nworkers``.  Read from the
        #: runtime's plan directly — a crash-only plan has no live
        #: in-payload faults, so its injector reports inactive.
        plan = self.fault_plan
        if plan is not None:
            self._seed = int(plan.seed)
        self._crashes = sorted(plan.crashes, key=lambda c: c.time) \
            if plan is not None else []
        self._crash_idx = 0
        #: Live network faults (ChaosComm): active when the plan has a
        #: non-empty ``net`` component.  Network chaos REQUIRES the
        #: reliable layer with heartbeats — a dropped tail frame is only
        #: recovered by heartbeat-driven retransmission sweeps — which
        #: is why ``resolve_recovery`` gives such a plan (and a crash
        #: plan) the default RecoveryPolicy.
        net = plan.net if plan is not None else None
        self._net_plan = net if net is not None and not net.empty else None
        #: Reliable (seq/ack/CRC/heartbeat) comm wrapping: on whenever
        #: heartbeats are configured; off for plain runs so the
        #: fault-free wire stays byte-identical to previous releases.
        self._reliable = (self._net_plan is not None
                          or pol.heartbeat_interval is not None)
        self._chaos_installed = False
        #: (comm, hello, recorder-key, recv-time) of handshakes the
        #: acceptor thread has fielded but no spawn has claimed yet.
        self._hello_q: "queue.Queue[Tuple[Comm, Dict[str, Any], str, float]]" \
            = queue.Queue()
        self._acceptor: Optional[threading.Thread] = None
        self._accept_seq = 0
        #: Per-worker phi-accrual failure detectors (reliable mode) and
        #: when each worker was adopted (suspicion grace anchor).
        self._hb: Dict[int, PhiAccrualDetector] = {}
        self._hb_since: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._listener: Optional[Listener] = None
        self._pool: Dict[int, _Worker] = {}
        self._next_wid = 0
        #: ``("msg", wid, reply)`` and ``("eof", wid, None)`` from the
        #: reader threads, ``("drv", -1, (tid, attempt, outcome))`` from
        #: the driver lane.
        self._events: "queue.Queue[Tuple[str, int, Any]]" = queue.Queue()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear everything down: workers, comms, listener, and every
        shared-memory segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_pool(force=True)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
            self._acceptor = None
        if self._chaos_installed:
            clear_net_plan()
            self._chaos_installed = False
        self.store.close()
        if self.recorder is not None:
            self.recorder.leaked = self.store.leaked_segments()
            self.recorder.record(EV_CLOSE)
        from ...obs.metrics import get_registry
        self.comm_counters.publish(get_registry(), prefix="dist.comm")

    # ------------------------------------------------------------------
    # Window preparation
    # ------------------------------------------------------------------

    def _worker_ok(self, t: Task) -> bool:
        """True when every ref the task touches is process-shared: a
        registered DistMatrix tile (shared memory).  Anything else —
        scalar boxes, gather buffers — pins the task to the driver."""
        mats = self.rt._matrices
        return (self.fns.get(t.tid) is not None
                and all(mats.get(ref[0]) is not None
                        for ref in t.reads + t.writes))

    def _materialize(self, start: int, end: int) -> None:
        """Pin every matrix tile in the window's declared footprints
        into its matrix's shared-memory segment (idempotent: a tile
        already pinned keeps its view)."""
        tasks = self.graph.tasks
        for tid in range(start, end):
            t = tasks[tid]
            for ref in tuple(t.reads) + tuple(t.writes):
                mat = self.rt._matrices.get(ref[0])
                if mat is None:
                    continue
                _, i, j = ref
                self.store.pin_tile(
                    mat, i, j, (mat.tile_rows(i), mat.tile_cols(j)),
                    mat.dtype)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _ensure_listener(self) -> Listener:
        lst = self._listener
        if lst is not None and not getattr(lst, "_closed", False):
            return lst
        scheme = ("chaos+tcp" if self._net_plan is not None else "tcp")
        # In reliable mode the per-frame byte accounting moves up to
        # the ReliableComm wrapper (which counts each application
        # message exactly once); raw comms must not double-count.
        self._listener = lst = listen(
            f"{scheme}://127.0.0.1:0",
            counters=None if self._reliable else self.comm_counters)
        self._acceptor = threading.Thread(
            target=self._acceptor_loop, args=(lst,), daemon=True,
            name="repro-dist-accept")
        self._acceptor.start()
        return lst

    def _acceptor_loop(self, lst: Listener) -> None:
        """Owns ``accept`` for the listener's whole life: fields worker
        hellos (handed to the spawn paths through ``_hello_q``) and
        reconnect ``resync`` handshakes (spliced into the existing
        :class:`ReliableComm` via :meth:`ReliableComm.attach`)."""
        while True:
            try:
                comm = lst.accept(timeout=None)
            except CommError:
                return  # listener closed
            if self._reliable:
                comm.crc_frames = True
            key = ""
            if self.recorder is not None:
                key = f"pending{self._accept_seq}"
                self._accept_seq += 1
                comm.observer = self.recorder.frame_observer(key)
            try:
                msg = comm.recv(timeout=10.0)
            except CommError:
                comm.close()
                continue
            t_recv = perf_counter()
            if not isinstance(msg, dict):
                comm.close()
                continue
            op = msg.get("op")
            if op == "hello":
                self._hello_q.put((comm, msg, key, t_recv))
            elif op == "resync":
                # The resync/resync-ack handshake is recorded on the
                # pending connection (the protocol checker knows its
                # shape); after the splice the connection reports
                # under the worker's key (attach marks a "reopen").
                self._handle_resync(comm, msg)
            else:
                comm.close()

    def _handle_resync(self, comm: Comm, msg: Dict[str, Any]) -> None:
        w = self._pool.get(int(msg.get("wid", -1)))
        rc = w.comm if w is not None else None
        if not isinstance(rc, ReliableComm):
            comm.close()
            return
        try:
            comm.send({"op": "resync-ack", "rx": rc.rx})
        except CommError:
            comm.close()
            return
        # Handshake recorded; from here the connection reports under
        # the worker's key via the ReliableComm observer.
        comm.observer = None
        rc.attach(comm, int(msg.get("rx", 0)))

    def _next_hello(self, deadline: float) -> Tuple[Comm, Dict[str, Any],
                                                    str, float]:
        try:
            return self._hello_q.get(
                timeout=max(0.001, deadline - time.monotonic()))
        except queue.Empty:
            raise CommTimeoutError(
                "timed out waiting for a worker hello") from None

    def _adopt(self, proc: multiprocessing.process.BaseProcess,
               comm: Comm, hello: Dict[str, Any], key: str,
               t_recv: float, lane: int) -> _Worker:
        """Register a freshly-handshaken worker: reliable wrapping,
        failure detector, chaos peer tagging, reader thread."""
        wid = int(hello["wid"])
        if self.recorder is not None:
            comm.observer = self.recorder.frame_observer(f"w{wid}")
            self.recorder.rename_connection(key, f"w{wid}")
            self.recorder.record(EV_SPAWN, wid=wid)
        if self._reliable:
            observer = comm.observer
            comm.observer = None
            rc = ReliableComm(
                comm, role="driver", wid=wid,
                deadline=self.recovery_policy.net_deadline,
                seed=self._seed,
                counters=self.comm_counters, on_net=self._net_event)
            rc.observer = observer
            comm = rc
        if self._net_plan is not None:
            assign_peer(comm, wid, lane)
        w = _Worker(wid, proc, comm, int(hello["pid"]),
                    t_recv - float(hello["clock"]), lane=lane)
        self._pool[wid] = w
        pol = self.recovery_policy
        if self._reliable and pol.heartbeat_interval is not None:
            det = PhiAccrualDetector(pol.heartbeat_interval)
            det.beat(t_recv)  # the hello counts as the first sign of life
            self._hb[wid] = det
            self._hb_since[wid] = t_recv
        w.reader = threading.Thread(
            target=self._reader, args=(w,), daemon=True,
            name=f"repro-dist-r{wid}")
        w.reader.start()
        return w

    def _fork_one(self, wid: int, lane: int, address: str,
                  close_fds: List[int]) -> multiprocessing.process.BaseProcess:
        proc = multiprocessing.get_context("fork").Process(
            target=worker_main, args=(wid, lane, address, self, close_fds),
            daemon=True, name=f"repro-dist-w{wid}")
        proc.start()
        self.stats.forks += 1
        return proc

    def _spawn_worker(self) -> _Worker:
        lst = self._ensure_listener()
        wid = self._next_wid
        self._next_wid += 1
        # fds of live worker comms: a child forked now would inherit
        # them — the worker closes them before connecting.
        close_fds = [w.comm.fileno() for w in self._pool.values()
                     if not w.comm.closed]
        # Reuse the lowest free lane — stable slots are what chaos
        # plans and trace rows target, so they must be decided before
        # the fork (the worker salts its injections with its lane).
        used = {w.lane for w in self._pool.values()
                if w.proc.is_alive() and w.kill_reason is None}
        lane = next(i for i in range(len(self._pool) + 1)
                    if i not in used)
        proc = self._fork_one(wid, lane, lst.address, close_fds)
        comm, hello, key, t_recv = self._next_hello(
            time.monotonic() + 15.0)
        if hello.get("wid") != wid:
            comm.close()
            raise CommError(f"bad hello from worker {wid}: {hello!r}")
        return self._adopt(proc, comm, hello, key, t_recv, lane)

    def _spawn_pool(self, n: int) -> None:
        lst = self._ensure_listener()
        # Fork all children before adopting any connection: an adopted
        # comm fd must never leak into a later fork (an inheriting
        # sibling would mask the owner's death-EOF).
        wids: List[int] = []
        by_wid: Dict[int, multiprocessing.process.BaseProcess] = {}
        for lane in range(n):
            wid = self._next_wid
            self._next_wid += 1
            by_wid[wid] = self._fork_one(wid, lane, lst.address, [])
            wids.append(wid)
        deadline = time.monotonic() + 15.0
        for _ in range(n):
            comm, hello, key, t_recv = self._next_hello(deadline)
            wid = int(hello.get("wid", -1))
            if wid not in by_wid:
                comm.close()
                raise CommError(f"bad worker hello: {hello!r}")
            self._adopt(by_wid[wid], comm, hello, key, t_recv,
                        lane=wids.index(wid))

    def _reader(self, w: _Worker) -> None:
        """Per-worker reader thread: streams replies into the event
        queue; heartbeats feed the failure detector; EOF (any cause)
        becomes a death event."""
        while True:
            try:
                msg = w.comm.recv(timeout=None)
            except CommError:
                self._events.put(("eof", w.wid, None))
                return
            if isinstance(msg, dict) and msg.get("op") == "hb":
                det = self._hb.get(w.wid)
                if det is not None:
                    det.beat(perf_counter())
                continue
            self._events.put(("msg", w.wid, msg))

    def _net_event(self, kind: str, detail: str) -> None:
        """Driver-side ReliableComm observability → recovery stats."""
        rec = self.stats.recovery
        if kind == "retransmit":
            rec.net_retransmits += 1
        elif kind == "reconnect":
            rec.net_reconnects += 1
        elif kind == "corrupt":
            rec.net_corrupt_frames += 1

    def _chaos_fault(self, kind: str, wid: int, detail: str) -> None:
        """Driver-side ChaosComm injection hook → stats + trace lane."""
        from ...obs.timeline import (FAULT_NET_CORRUPT, FAULT_NET_DROP,
                                     FAULT_NET_PARTITION)
        rec = self.stats.recovery
        if kind == "drop":
            rec.net_drops += 1
            self._fault_event(FAULT_NET_DROP, -1, detail, rank=wid)
        elif kind == "corrupt":
            rec.net_corrupt_frames += 1
            self._fault_event(FAULT_NET_CORRUPT, -1, detail, rank=wid)
        elif kind == "partition":
            self._fault_event(FAULT_NET_PARTITION, -1, detail, rank=wid)

    def _check_heartbeats(self, sched: DynamicScheduler,
                          now: float) -> None:
        """Phi-accrual failure detection over worker heartbeats.

        Above ``phi_suspect`` the scheduler stops placing new work on
        the worker (it keeps what it holds); above ``phi_dead`` the
        driver kills it outright, so a hung worker's tasks are replayed
        onto survivors well before ``task_timeout`` would fire."""
        from ...obs.timeline import FAULT_HEARTBEAT_SUSPECT
        pol = self.recovery_policy
        fault_event = self._fault_event
        rec = self.stats.recovery
        for wid, w in list(self._pool.items()):
            if w.kill_reason is not None:
                continue
            det = self._hb.get(wid)
            if det is None or now - self._hb_since.get(wid, now) \
                    < pol.heartbeat_grace:
                continue
            phi = det.phi(now)
            if phi >= pol.phi_dead:
                if wid not in self._suspected:
                    self._suspected.add(wid)
                    rec.heartbeat_suspects += 1
                reason = (f"heartbeat silence: phi {phi:.1f} >= "
                          f"{pol.phi_dead:g}")
                self._kill(w, reason)
                fault_event(FAULT_HEARTBEAT_SUSPECT, -1, reason, rank=wid)
            elif phi >= pol.phi_suspect:
                if wid not in self._suspected:
                    self._suspected.add(wid)
                    rec.heartbeat_suspects += 1
                    sched.mark_suspect(wid, True)
                    fault_event(FAULT_HEARTBEAT_SUSPECT, -1,
                                f"phi {phi:.1f} >= {pol.phi_suspect:g}; "
                                f"placement avoiding worker {wid}",
                                rank=wid)
            elif wid in self._suspected:
                # Heartbeats recovered (e.g. a transient stall, not a
                # hang): lift the placement penalty.
                self._suspected.discard(wid)
                sched.mark_suspect(wid, False)

    @staticmethod
    def _mark_dead(w: _Worker) -> None:
        """Short-circuit the reliable layer's reconnect wait when the
        driver knows the worker is gone (deliberate kill or observed
        process exit)."""
        if isinstance(w.comm, ReliableComm):
            w.comm.mark_dead()

    def _shutdown_pool(self, force: bool = False) -> None:
        for w in list(self._pool.values()):
            if not w.comm.closed:
                with contextlib.suppress(CommError):
                    w.comm.send({"op": "shutdown"})
        deadline = time.monotonic() + (0.1 if force else 5.0)
        for w in list(self._pool.values()):
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=5.0)
            w.comm.close()
            if w.reader is not None:
                w.reader.join(timeout=5.0)
            if isinstance(w.comm, ReliableComm):
                self.stats.comm_retrans_messages += w.comm.retrans_messages
                self.stats.comm_retrans_bytes += w.comm.retrans_bytes
        self._pool.clear()
        self._hb.clear()
        self._hb_since.clear()
        self._suspected.clear()
        # Drain stale events from dead readers.
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _open(self, start: int, end: int) -> DynamicScheduler:
        tasks = self.graph.tasks
        # A window that gets no forked lane — it does not pay for a
        # hand-off, or the helping driver is the only lane (workers=1,
        # one eligible task) — marks nothing worker-eligible: no fork,
        # no frame, nothing pinned.
        worker_ok = {t.tid: self._worker_ok(t) for t in tasks[start:end]
                     } if self._pays(start, end) else {}
        forks = self._lanes(sum(worker_ok.values()))
        if forks:
            self._materialize(start, end)
        else:
            worker_ok = {}
        if self._net_plan is not None and not self._chaos_installed:
            # Arm before forking: workers inherit the plan (and the
            # epoch anchoring its stall/partition windows) through
            # fork; corruption events fire driver-side only, so the
            # callback needs no cross-process plumbing.
            install_net_plan(self._net_plan, epoch=self._epoch,
                             on_fault=self._chaos_fault)
            self._chaos_installed = True
        sched = DynamicScheduler(tasks, start, end, worker_ok,
                                 pipeline_depth=PIPELINE_DEPTH,
                                 lookahead=self.lookahead,
                                 driver_helps=self.driver_helps)
        if forks:
            self._spawn_pool(forks)
            for wid in self._pool:
                sched.add_worker(wid)
        return sched

    def _send(self, lane: Optional[int], tid: int, attempt: int) -> bool:
        t = self.graph.tasks[tid]
        assert self._ledger is not None
        if lane is None:
            # The driver lane: tasks touching driver-local state, and
            # the helping driver's own share of the rest, run the same
            # attempt body inline.
            self._ledger.arm(t)
            res = run_attempt(
                t, self.fns.get(tid), attempt, injector=self.injector,
                tiles=self.tiles, sanitizer=self.sanitizer,
                scrub=self.recovery_policy.scrub_writes)
            self._events.put(("drv", -1, (tid, attempt, res)))
            return True
        w = self._pool.get(lane)
        if w is None or w.comm.closed:
            return False
        self._ledger.arm(t)
        try:
            w.comm.send({"op": "task", "tid": tid, "attempt": attempt})
        except CommError:
            # Death will surface as EOF; the scheduler keeps the tid
            # in the dead worker's inflight set until then.
            return False
        w.sent[tid] = (attempt, perf_counter())
        if self.recorder is not None:
            self.recorder.record(EV_DISPATCH, tid=tid, wid=lane,
                                 attempt=attempt)
        return True

    def _recv(self, timeout: Optional[float]
              ) -> List[Union[Report, Death]]:
        out: List[Union[Report, Death]] = []
        try:
            event = self._events.get(True, timeout)
            while True:
                item = self._accept(*event)
                if item is not None:
                    out.append(item)
                event = self._events.get_nowait()
        except queue.Empty:
            return out

    def _accept(self, kind: str, wid: int,
                payload: Any) -> Union[Report, Death, None]:
        """Turn one queued event into what the driver accounts."""
        assert self._epoch is not None
        if kind == "drv":
            tid, attempt, res = payload
            return self._accepted(tid, None, attempt, res, "drv",
                                  -self._epoch)
        w = self._pool.get(wid)
        if kind == "eof":
            return self._buried(wid, w)
        op = payload.get("op")
        tid = payload.get("tid")
        if op not in ("done", "fail") or tid is None:
            return None
        if w is None or w.sent.pop(tid, None) is None:
            return None  # stale reply (revoked or duplicated)
        return self._accepted(
            tid, wid, int(payload.get("attempt", 0)),
            Attempt(payload["t0"], payload["t1"],
                    payload["cpu"], payload.get("events") or [],
                    payload["exc"] if op == "fail" else None,
                    bool(payload.get("retryable"))),
            f"w{w.lane}", w.clock_offset - self._epoch)

    def _accepted(self, tid: int, wid: Optional[int], attempt: int,
                  res: Attempt, slot: str, shift: float) -> Report:
        """A worker's reply or the driver lane's own (``wid=None``)."""
        if self.recorder is not None:
            ok = EV_DRIVER if wid is None else EV_COMPLETE
            self.recorder.record(
                EV_FAIL if res.exc is not None else ok, tid=tid,
                wid=-1 if wid is None else wid, attempt=attempt)
        return Report(tid, wid, res, slot, shift)

    def _buried(self, wid: int, w: Optional[_Worker]) -> Death:
        """EOF from ``wid``: release its process and link, forget its
        failure detector, and tell the driver what never reports."""
        reason: Optional[str] = None
        sent = 0
        if w is not None:
            reason, sent = w.kill_reason, len(w.sent)
            w.sent.clear()
            w.comm.close()
            w.proc.join(timeout=5.0)
        self._hb.pop(wid, None)
        self._hb_since.pop(wid, None)
        self._suspected.discard(wid)
        if self.recorder is not None:
            self.recorder.record(EV_DEATH, wid=wid, detail=reason or "eof")
            assert self._sched is not None
            ws = self._sched.workers.get(wid)
            if ws is not None:
                for tid in list(ws.queue) + sorted(ws.inflight):
                    self.recorder.record(EV_REPLAY, tid=tid, wid=wid)
        return Death(wid, reason, sent)

    def _tick(self, now: float) -> float:
        """Injected crashes, liveness, heartbeats, task timeouts and
        respawn; the loop polls at ``poll_interval``, sooner when an
        injected crash is due."""
        sched, pol = self._sched, self.recovery_policy
        assert sched is not None and self._epoch is not None
        elapsed = now - self._epoch
        while (self._crash_idx < len(self._crashes)
               and elapsed >= self._crashes[self._crash_idx].time):
            busy = [w for w in self._pool.values()
                    if w.sent and w.proc.is_alive()
                    and w.kill_reason is None]
            if not busy:
                # Stays pending until a worker holds an attempt: killing
                # an idle one (or none, in a window that forked nothing)
                # would consume the crash without anything to replay.
                break
            c = self._crashes[self._crash_idx]
            self._crash_idx += 1
            self._kill(busy[c.rank % len(busy)],
                       f"injected crash (rank {c.rank})")
        # Liveness poll: a worker that exited without the driver
        # killing it must not leave its reliable link waiting out
        # the reconnect deadline — no process, no reconnect.
        for w in self._pool.values():
            if w.kill_reason is None and not w.proc.is_alive():
                self._mark_dead(w)
        if pol.heartbeat_interval is not None and self._hb:
            self._check_heartbeats(sched, now)
        if pol.task_timeout is not None:
            from ...obs.timeline import FAULT_TIMEOUT
            for wid, w in self._pool.items():
                if w.kill_reason is not None:
                    continue
                for tid, (_, sent) in w.sent.items():
                    if now - sent > pol.task_timeout:
                        reason = (f"task {tid} exceeded "
                                  f"{pol.task_timeout}s timeout")
                        self.stats.recovery.timeouts += 1
                        self._kill(w, reason)
                        self._fault_event(FAULT_TIMEOUT, tid, reason,
                                          rank=wid)
                        break
        if self._pool and sched.pending and not sched.alive_workers():
            sched.add_worker(self._spawn_worker().wid)
        budget = pol.poll_interval
        if self._crash_idx < len(self._crashes):
            due = self._crashes[self._crash_idx].time - elapsed
            if due > 0.0:  # an overdue crash is waiting for a victim
                budget = min(budget, due)
        return max(0.001, budget)

    def _kill(self, w: _Worker, reason: str) -> None:
        w.kill_reason = reason
        os.kill(w.pid, signal.SIGKILL)
        self._mark_dead(w)

    def _shut(self, failure: Optional[BaseException]) -> None:
        self._shutdown_pool(force=failure is not None)
        self.stats.comm_messages = self.comm_counters.total_messages
        self.stats.comm_bytes = self.comm_counters.total_bytes
