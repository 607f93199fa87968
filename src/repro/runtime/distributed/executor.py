"""The forked-process transport: central scheduler + worker pool.

``ProcessExecutor`` replays recorded task windows on real OS
processes, sidestepping the GIL that bounds the threaded backend on
dispatch-heavy, small-tile graphs.  It is the
:class:`~repro.runtime.window.WindowExecutor` driver over a pool of
forked workers: the driver owns ``run``, the sweep, the one dispatch
loop, retry budgets, accounting, death revocation and replay, and the
stall rule; a forking window's :class:`~.scheduling.DynamicScheduler`
owns readiness and the one ready heap every lane pops the lowest tid
from; this module is the transport between them and the workers:

* **Fork per window** (``_open``/``_shut``).  Payload closures capture
  driver objects and cannot be pickled, so nothing is shipped: workers
  are forked at the start of each execution window and inherit the
  graph, the payload table and every shared-memory tile mapping
  copy-on-write.  One scheduler lane per worker, each at most
  :data:`PIPELINE_DEPTH` dispatches deep.  ``workers=W`` is W lanes
  and the driver is one of them
  (:meth:`~repro.runtime.window.WindowExecutor._lanes`, the rule the
  threads transport shares): a window forks ``min(W, eligible) - 1``
  processes, where ``eligible`` counts the tasks :meth:`_worker_ok`
  admits (``_eligible``, once a task per window).  Neither end of a
  window waits on more than it must: a worker dials the IP-literal
  listener address with no name resolution, ``_open`` waits only for
  the hellos, and ``_shut`` *retires* the workers — it sends each its
  shutdown and returns, joining nothing; the event loop reaps a
  retiring worker once its exit sentinel fires, in whatever later turn
  that is, and :meth:`close` reaps the rest (5 s, then SIGKILL).  Only
  a failed window waits for its workers, 0.1 s before a kill.
* **Sweeps.**  A window that gets no fork — ``workers=1``, a window
  none of whose tasks is worth a hand-off
  (:meth:`~repro.runtime.window.WindowExecutor._pays`), or one whose
  every task is driver-only — is swept on the driver in program order
  (:meth:`~repro.runtime.window.WindowExecutor._sweep`): no scheduler,
  no event loop, none of ``_open``/``_send``/``_recv``/``_tick``/
  ``_shut`` — so nothing is forked, pinned or sent, and an injected
  crash that comes due meanwhile waits for the next forking window.
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
* **Driver lane** (``_inline``).  The waiting thread works (OpenMP
  ``taskwait``, what SLATE's host thread does): each turn of the
  dispatch loop the driver keeps the lowest ready tid for itself, feeds
  the workers, then runs its task in the parent through the same
  :func:`~repro.runtime.attempt.run_attempt` (slot ``drv``) and
  accounts it at once — every tile of the window is a shared-memory
  view in the parent too, so a driver write is a write the workers
  see.  Tasks whose footprint
  touches driver-local state (scalar reduction boxes, gather buffers)
  run *only* there — the split SLATE uses to keep latency-bound scalar
  work off the accelerator path.  An executor that exercises its
  transport (fault plan, ``task_timeout``, DistSan recorder:
  :attr:`~repro.runtime.window.WindowExecutor.exercises_transport`)
  keeps its driver out of worker-eligible payloads — it has crashes,
  timeouts and heartbeats to watch, and a recorded run must cross the
  wire — and forks ``min(W, eligible)`` workers instead.
* **Replies and deaths** (``_recv``).  One thread drives the transport,
  the way dask's scheduler is one event loop: a :mod:`selectors` loop
  over the listener and every worker socket reads hellos, ``resync``
  splices, replies and heartbeats (stamped when the worker sent them,
  so a driver deaf inside its own payload never makes a live worker
  look silent), each frame once its socket is readable, and whole.  A
  death — SIGKILL, injected ``RankCrash``, a task-timeout or heartbeat
  kill — is an EOF, or a reliable link dead or down past its
  reconnect deadline; the driver requeues what it held.  A *retiring*
  worker never dies into a window: its EOF is no death and its
  detector is gone, but its link stays in the loop, so every later
  turn — the next spawn's wait, the next drive, :meth:`close` — acks
  its heartbeats, answers its ``resync`` and re-sends a shutdown the
  wire dropped.  The shared-memory registry lives only in the parent,
  so no worker death can leak or tear down a segment.
* **Periodic work** (``_tick``).  Injected crashes (pending until a
  worker holds an attempt to lose), phi-accrual heartbeat suspicion,
  task-timeout kills, and the respawn of a worker when every lane is
  dead.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import selectors
import signal
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..attempt import Attempt
from ..task import Task
from ..window import Death, Report, WindowExecutor, WorkerCrashError
from .chaos import assign_peer, clear_net_plan, install_net_plan
from .comm import Comm, CommError, CommTimeoutError, Listener, listen
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
                 "sent", "kill_reason")

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
                         sink=sink, validate=validate, sanitizer=rt.sanitizer,
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
        #: The driver's event loop over the listener (data ``None``),
        #: new connections (``(comm, key)``), worker links (``_Worker``)
        #: and the exit sentinels of retiring workers (their wid).
        self._sel = selectors.DefaultSelector()
        #: When a turn of the loop last found no socket readable: every
        #: frame sent before then has been read, heartbeats included.
        self._heard = 0.0
        #: wid -> (process, lane) of workers forked but not yet adopted.
        self._forked: Dict[int, Tuple[multiprocessing.process.BaseProcess,
                                      int]] = {}
        self._accept_seq = 0
        #: Per-worker phi-accrual failure detectors (reliable mode),
        #: each made as its worker is adopted.
        self._hb: Dict[int, PhiAccrualDetector] = {}
        self._suspected: Set[int] = set()
        self._listener: Optional[Listener] = None
        self._pool: Dict[int, _Worker] = {}
        #: Workers sent their shutdown and not yet reaped: their links
        #: stay in the loop until their processes exit (:meth:`_retire`).
        self._retiring: Dict[int, _Worker] = {}
        self._next_wid = 0
        #: The running window's ``tid -> worker-eligible`` marks.
        self._ok: Dict[int, bool] = {}
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
        # Every window's _shut emptied the pool: what is left retires.
        self._drain(list(self._retiring), 5.0)
        for key in list(self._sel.get_map().values()):
            if isinstance(key.data, tuple):  # its first frame never came
                key.data[0].close()
        self._sel.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
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
        if self._listener is None:
            scheme = ("chaos+tcp" if self._net_plan is not None else "tcp")
            # In reliable mode the per-frame byte accounting moves up
            # to the ReliableComm wrapper (which counts each application
            # message exactly once); raw comms must not double-count.
            self._listener = listen(
                f"{scheme}://127.0.0.1:0",
                counters=None if self._reliable else self.comm_counters)
            self._watch(self._listener.fileno(), None)
        return self._listener

    def _watch(self, fd: int, data: Any) -> None:
        self._sel.register(fd, selectors.EVENT_READ, data)

    def _unwatch(self, w: _Worker) -> None:
        """Take ``w``'s socket out of the loop, before whatever closes
        or replaces it."""
        for key in list(self._sel.get_map().values()):
            if key.data is w:
                self._sel.unregister(key.fd)

    def _track(self, w: _Worker) -> None:
        """After a send or read: a comm that closed its own socket (a
        reliable link it broke, a chaos cut) leaves the loop."""
        if w.comm.fileno() < 0:
            self._unwatch(w)

    def _poll(self, wait: Optional[float],
              out: Optional[List[Union[Report, Death]]]) -> bool:
        """One turn of the loop: wait up to ``wait``, then serve every
        readable socket (reports into ``out``; ``None`` outside a
        window's drive, where replies are stale).  True if any was."""
        ready = self._sel.select(wait)
        if not ready:
            self._heard = perf_counter()
        keys = self._sel.get_map()
        for key, _ in ready:
            if keys.get(key.fd) is not key:
                continue  # unwatched by an earlier socket of this turn
            if key.data is None:
                self._admit()
            elif isinstance(key.data, _Worker):
                self._serve(key.data, out)
            elif isinstance(key.data, int):
                self._release(self._retiring[key.data])
            else:
                self._first_frame(key.fd, *key.data)
        return bool(ready)

    def _admit(self) -> None:
        assert self._listener is not None
        try:
            comm = self._listener.accept()
        except CommError:
            return
        if self._reliable:
            comm.crc_frames = True
        key = ""
        if self.recorder is not None:
            key = f"pending{self._accept_seq}"
            self._accept_seq += 1
            comm.observer = self.recorder.frame_observer(key)
        self._watch(comm.fileno(), (comm, key))

    def _first_frame(self, fd: int, comm: Comm, key: str) -> None:
        """A ``hello`` adopts the forked worker it names; a ``resync``
        splices into that worker's link; anything else is closed."""
        self._sel.unregister(fd)
        try:
            msg = comm.recv(timeout=None)
        except CommError:
            msg = None
        if not isinstance(msg, dict):
            comm.close()
        elif msg.get("op") == "hello" and msg.get("wid") in self._forked:
            proc, lane = self._forked.pop(msg["wid"])
            self._adopt(proc, comm, msg, key, perf_counter(), lane)
        elif msg.get("op") == "resync":
            self._resync(comm, msg)
        else:
            comm.close()

    def _resync(self, comm: Comm, msg: Dict[str, Any]) -> None:
        """Answer a worker's ``resync`` and splice the connection into
        its :class:`ReliableComm` (the handshake is recorded under the
        pending key, the rest under the worker's: attach marks a
        "reopen")."""
        wid = msg.get("wid", -1)
        w = self._pool.get(wid) or self._retiring.get(wid)
        rc = w.comm if w is not None else None
        if w is None or not isinstance(rc, ReliableComm) or rc.lost:
            comm.close()
            return
        try:
            comm.send({"op": "resync-ack", "rx": rc.rx})
        except CommError:
            comm.close()
            return
        comm.observer = None
        self._unwatch(w)
        if rc.attach(comm, int(msg.get("rx", 0))) and rc.fileno() >= 0:
            self._watch(rc.fileno(), w)

    def _serve(self, w: _Worker,
               out: Optional[List[Union[Report, Death]]]) -> None:
        """Read one frame of ``w``'s: a heartbeat beats its detector at
        the time the worker sent it, a reply is reported, EOF on a plain
        link is a death — unless ``w`` is retiring, whose exit its
        sentinel reports; a broken reliable link leaves the loop until a
        resync re-attaches it or :meth:`_reap` gives up on it."""
        try:
            msg = w.comm.pump()
        except CommError:
            if (out is not None and w.wid in self._pool
                    and not isinstance(w.comm, ReliableComm)):
                out.append(self._buried(w))
            else:
                self._unwatch(w)
            return
        self._track(w)
        if not isinstance(msg, dict):
            return
        if msg.get("op") == "hb":
            det = self._hb.get(w.wid)
            if det is not None:
                det.beat(float(msg["clock"]) + w.clock_offset)
        elif out is not None:
            report = self._report(w, msg)
            if report is not None:
                out.append(report)

    def _reap(self, out: List[Union[Report, Death]]) -> None:
        """The deaths no EOF announces, on a reliable link: marked dead
        (:meth:`_kill`), its process gone, or down past its reconnect
        deadline without a resync."""
        for w in list(self._pool.values()):
            rc = w.comm
            if (isinstance(rc, ReliableComm) and not rc.closed
                    and (rc.lost or not w.proc.is_alive())):
                out.append(self._buried(w))

    def _adopt(self, proc: multiprocessing.process.BaseProcess,
               comm: Comm, hello: Dict[str, Any], key: str,
               t_recv: float, lane: int) -> _Worker:
        """Register a freshly-handshaken worker: reliable wrapping,
        failure detector, chaos peer tagging, a place in the loop."""
        wid = int(hello["wid"])
        if self.recorder is not None:
            comm.observer = self.recorder.frame_observer(f"w{wid}")
            self.recorder.rename_connection(key, f"w{wid}")
            self.recorder.record(EV_SPAWN, wid=wid)
        if self._reliable:
            observer = comm.observer
            comm.observer = None
            rc = ReliableComm(
                comm, role="driver", wid=wid, seed=self._seed,
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
        self._watch(comm.fileno(), w)
        return w

    def _spawn(self, lanes: Sequence[int]) -> range:
        """Fork a worker into each of ``lanes`` — all before any is
        adopted, each closing the live comm fds it inherits (a leaked
        one masks its owner's death-EOF) — then turn the loop until each
        said hello.  Nothing reports meanwhile: ``_open`` forks into an
        empty pool, a respawn comes once every lane is buried."""
        lst = self._ensure_listener()
        close_fds = [fd for w in (*self._pool.values(),
                                  *self._retiring.values())
                     if (fd := w.comm.fileno()) >= 0]
        wids = range(self._next_wid, self._next_wid + len(lanes))
        self._next_wid += len(lanes)
        for wid, lane in zip(wids, lanes):
            proc = multiprocessing.get_context("fork").Process(
                target=worker_main,
                args=(wid, lane, lst.address, self, close_fds),
                daemon=True, name=f"repro-dist-w{wid}")
            proc.start()
            self._forked[wid] = (proc, lane)
            self.stats.forks += 1
        deadline = time.monotonic() + 15.0
        while not all(wid in self._pool for wid in wids):
            left = deadline - time.monotonic()
            if left <= 0:
                raise CommTimeoutError("timed out waiting for a worker hello")
            self._poll(left, None)
        return wids

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
        onto survivors well before ``task_timeout`` would fire.  Phi is
        read when the loop last heard everything (``_heard``), not at
        ``now``: a helping driver hears nothing while it runs a payload
        of its own, and its deafness is not the worker's silence."""
        from ...obs.timeline import FAULT_HEARTBEAT_SUSPECT
        pol = self.recovery_policy
        fault_event = self._fault_event
        rec = self.stats.recovery
        for wid, w in list(self._pool.items()):
            if w.kill_reason is not None:
                continue
            det = self._hb.get(wid)
            if det is None or now - det.born < pol.heartbeat_grace:
                continue
            phi = det.phi(self._heard)
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

    def _retire(self) -> None:
        """Send every pool worker its shutdown and stop waiting on it:
        it leaves the pool (no phi, no crash, no timeout, no respawn
        sees it again) for the retiring set, whose links stay in the
        loop — every later turn acks their heartbeats, answers their
        ``resync`` and so re-sends a shutdown the wire dropped — and
        whose exit sentinels :meth:`_release` them once they are gone."""
        for w in self._pool.values():
            if not w.comm.closed:
                with contextlib.suppress(CommError):
                    w.comm.send({"op": "shutdown"})
                self._track(w)
            self._retiring[w.wid] = w
            self._watch(w.proc.sentinel, w.wid)
        self._pool.clear()
        self._hb.clear()
        self._suspected.clear()

    def _release(self, w: _Worker) -> None:
        """A retiring worker has exited: out of the loop, its link
        closed, its process reaped (at once: it is gone)."""
        del self._retiring[w.wid]
        self._sel.unregister(w.proc.sentinel)
        self._unwatch(w)
        w.comm.close()
        w.proc.join(timeout=5.0)
        if isinstance(w.comm, ReliableComm):
            self.stats.comm_retrans_messages += w.comm.retrans_messages
            self.stats.comm_retrans_bytes += w.comm.retrans_bytes

    def _drain(self, wids: Sequence[int], timeout: float) -> None:
        """Turn the loop until each retiring worker of ``wids`` has
        exited, for at most ``timeout`` seconds, then SIGKILL and
        release the rest (a reaped pid is never signalled); kill what
        was forked but never said hello."""
        deadline = time.monotonic() + timeout
        while any(wid in self._retiring for wid in wids) and (
                left := deadline - time.monotonic()) > 0:
            self._poll(left, None)
        for wid in wids:
            w = self._retiring.get(wid)
            if w is not None:
                w.proc.kill()
                self._release(w)
        for proc, _ in self._forked.values():
            proc.kill()
            proc.join(timeout=5.0)
        self._forked.clear()

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------

    def _eligible(self, start: int, end: int) -> int:
        """Of a window that pays, the tasks a worker may run
        (:meth:`_worker_ok`, asked once a task), kept for :meth:`_open`."""
        pays = super()._eligible(start, end)
        self._ok = {t.tid: self._worker_ok(t)
                    for t in self.graph.tasks[start:end]} if pays else {}
        return sum(self._ok.values())

    def _inline(self, t: Task, attempt: int) -> Attempt:
        """The driver lane: tasks touching driver-local state, and the
        helping driver's own share of the rest, run the window driver's
        attempt body in the parent — every pinned tile is a shared view
        here too, so a driver write is a write the workers see.  Only
        the DistSan recorder's event is this transport's own."""
        res = super()._inline(t, attempt)
        if self.recorder is not None:
            self.recorder.record(
                EV_FAIL if res.exc is not None else EV_DRIVER, tid=t.tid,
                wid=-1, attempt=attempt)
        return res

    def _open(self, start: int, end: int, forks: int) -> DynamicScheduler:
        self._materialize(start, end)
        if self._net_plan is not None and not self._chaos_installed:
            # Arm before forking: workers inherit the plan (and the
            # epoch anchoring its stall/partition windows) through
            # fork; corruption events fire driver-side only, so the
            # callback needs no cross-process plumbing.
            install_net_plan(self._net_plan, epoch=self._epoch,
                             on_fault=self._chaos_fault)
            self._chaos_installed = True
        sched = DynamicScheduler(self.graph.tasks, start, end, self._ok,
                                 pipeline_depth=PIPELINE_DEPTH,
                                 driver_helps=self.driver_helps)
        for wid in self._spawn(range(forks)):
            sched.add_worker(wid)
        return sched

    def _send(self, lane: int, tid: int, attempt: int) -> bool:
        w = self._pool.get(lane)
        if w is None or w.comm.closed:
            return False
        assert self._ledger is not None
        self._ledger.arm(self.graph.tasks[tid])
        try:
            w.comm.send({"op": "task", "tid": tid, "attempt": attempt})
        except CommError:
            # Death will surface as EOF; the scheduler keeps the tid
            # in the dead worker's inflight set until then.
            return False
        self._track(w)
        w.sent[tid] = (attempt, perf_counter())
        if self.recorder is not None:
            self.recorder.record(EV_DISPATCH, tid=tid, wid=lane,
                                 attempt=attempt)
        return True

    def _recv(self, timeout: Optional[float]
              ) -> List[Union[Report, Death]]:
        """Turn the loop until something reports or ``timeout`` runs
        out, then collect whatever else is already readable."""
        out: List[Union[Report, Death]] = []
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            self._reap(out)
            wait = 0.0 if out else (
                None if end is None else max(0.0, end - time.monotonic()))
            while self._poll(wait, out):
                wait = 0.0
            if out or (end is not None and time.monotonic() >= end):
                return out

    def _report(self, w: _Worker, msg: Dict[str, Any]) -> Optional[Report]:
        """Turn a worker's reply into what the driver accounts."""
        assert self._epoch is not None
        op = msg.get("op")
        tid = msg.get("tid")
        if op not in ("done", "fail") or tid is None:
            return None
        if w.sent.pop(tid, None) is None:
            return None  # stale reply (revoked or duplicated)
        attempt = int(msg.get("attempt", 0))
        if self.recorder is not None:
            self.recorder.record(EV_FAIL if op == "fail" else EV_COMPLETE,
                                 tid=tid, wid=w.wid, attempt=attempt)
        return Report(tid, w.wid, Attempt(
            msg["t0"], msg["t1"], msg["cpu"], msg.get("events") or [],
            msg["exc"] if op == "fail" else None,
            bool(msg.get("retryable"))),
            f"w{w.lane}", w.clock_offset - self._epoch)

    def _buried(self, w: _Worker) -> Death:
        """``w`` is gone: take it out of the loop, release its process
        and link, forget its failure detector, and tell the driver what
        never reports."""
        wid = w.wid
        reason, sent = w.kill_reason, len(w.sent)
        w.sent.clear()
        self._unwatch(w)
        w.comm.close()
        w.proc.join(timeout=5.0)
        self._hb.pop(wid, None)
        self._suspected.discard(wid)
        if self.recorder is not None:
            self.recorder.record(EV_DEATH, wid=wid, detail=reason or "eof")
            assert self._sched is not None
            ws = self._sched.workers.get(wid)
            if ws is not None:
                for tid in sorted(ws.inflight):
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
            # The lowest free lane: chaos plans and trace rows target
            # stable slots, so they are decided before the fork.
            used = {w.lane for w in self._pool.values()
                    if w.proc.is_alive() and w.kill_reason is None}
            lane = next(i for i in range(len(self._pool) + 1)
                        if i not in used)
            sched.add_worker(self._spawn([lane])[0])
        budget = pol.poll_interval
        if self._crash_idx < len(self._crashes):
            due = self._crashes[self._crash_idx].time - elapsed
            if due > 0.0:  # an overdue crash is waiting for a victim
                budget = min(budget, due)
        return max(0.001, budget)

    def _kill(self, w: _Worker, reason: str) -> None:
        w.kill_reason = reason
        os.kill(w.pid, signal.SIGKILL)
        if isinstance(w.comm, ReliableComm):
            # Lost now, not after the reconnect deadline: _reap reports
            # the death.
            self._unwatch(w)
            w.comm.mark_dead()

    def _shut(self, failure: Optional[BaseException]) -> None:
        """Retire the window's workers; only a failed window (or one
        whose spawn failed) waits for them, 0.1 s before a kill."""
        wids = list(self._pool)
        self._retire()
        if failure is not None or self._forked:
            self._drain(wids, 0.1)
        self.stats.comm_messages = self.comm_counters.total_messages
        self.stats.comm_bytes = self.comm_counters.total_bytes
