"""Multi-process executor: central scheduler + forked worker pool.

``ProcessExecutor`` replays recorded task windows on real OS
processes, sidestepping the GIL that bounds the threaded backend on
dispatch-heavy, small-tile graphs.  The execution model:

* **Fork per window.**  Payload closures capture driver objects and
  cannot be pickled, so nothing is shipped: workers are forked at the
  start of each execution window and inherit the graph, the payload
  table and every shared-memory tile mapping copy-on-write.  Dispatch
  messages carry a tid, an attempt number and (rarely) a few side-store
  entries — a few hundred bytes per task.
* **Shared-memory tiles.**  Before forking, the parent pins every tile
  in the window's declared footprints into a :class:`SharedTileStore`
  segment; worker writes land directly in the parent's mapping
  (zero-copy), so there is no gather step and no result payload.
* **Central dynamic scheduling.**  A :class:`DynamicScheduler` tracks
  dependency counts and hands ready tasks to workers event-driven,
  with locality-aware placement and steal-on-idle
  (see :mod:`.scheduling`).
* **Driver tasks.**  Tasks whose footprint touches driver-local state
  (scalar reduction boxes, gather buffers) run inline in the parent —
  the same split SLATE uses to keep latency-bound scalar work off the
  accelerator path.  Everything tile-to-tile goes to workers.
* **One attempt body, one retry ledger.**  Workers and the driver
  lane run :func:`repro.runtime.attempt.run_attempt`; retries, backoff
  and pre-dispatch write-tile snapshots live in the same
  :class:`~repro.runtime.attempt.RetryLedger` the threaded backend
  drives (``recovery=None`` is its zero-budget policy).
* **Crash recovery.**  A worker death (SIGKILL, injected
  ``RankCrash``, or a task-timeout kill) is detected as comm EOF; the
  victim's in-flight tasks are requeued onto survivors and the ledger
  restores their write tiles before the re-run — the PR 5 lineage
  recovery loop.  The shared-memory registry lives only in the
  parent, so no worker death can leak or tear down a segment.

The public surface mirrors :class:`ParallelExecutor` exactly
(``run``/``close``/``abandon_window``/``stats``/``inflight_attempts``)
so ``Runtime.sync`` drives either backend unchanged.
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
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Set,
                    Tuple)

from ..attempt import NO_RECOVERY, Attempt, RetryLedger, run_attempt
from ..graph import TaskGraph
from ..parallel import (ExecutionStats, _peak_rss_bytes, default_workers)
from ..task import Task, TileRef
from .chaos import assign_peer, clear_net_plan, install_net_plan
from .comm import (Comm, CommError, CommTimeoutError, Listener, listen)
from .events import (EV_CLOSE, EV_COMPLETE, EV_DEATH, EV_DISPATCH,
                     EV_DRIVER, EV_FAIL, EV_REPLAY, EV_SPAWN)
from .reliable import ReliableComm
from .scheduling import DynamicScheduler
from .shm import SharedTileStore
from .worker import SideEntry, worker_main
from ...comm.counters import CommCounters
from ...resilience.net import PhiAccrualDetector

__all__ = ["ProcessExecutor", "SideStore", "WorkerCrashError"]


class SideStore(NamedTuple):
    """Driver-held dict state addressed through pseudo-tile refs."""

    mapping: dict
    key_of: Callable[[TileRef], object]


class WorkerCrashError(RuntimeError):
    """A worker process died and recovery was off (or exhausted)."""


class _Worker:
    """Parent-side handle of one forked worker process."""

    __slots__ = ("wid", "lane", "proc", "comm", "pid", "clock_offset",
                 "reader", "shipped", "kill_reason")

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
        #: Side-entry refs already shipped to this worker (dedup).
        self.shipped: Set[TileRef] = set()
        #: Set when the parent killed it on purpose (timeout/injected).
        self.kill_reason: Optional[str] = None


class ProcessExecutor:
    """Replay a recorded task graph on forked worker processes."""

    def __init__(self, rt: Any, *, workers: Optional[int] = None,
                 sink: Any = None, validate: bool = True,
                 recovery: Any = None, injector: Any = None,
                 tiles: Any = None,
                 pipeline_depth: int = 2) -> None:
        self.rt = rt
        self.graph: TaskGraph = rt.graph
        self.fns: Dict[int, Callable[[], None]] = rt._pending_fns
        self.workers = max(1, int(workers) if workers
                           else default_workers())
        self.sink = sink
        self.validate = validate
        self.sanitizer = rt.sanitizer
        #: ``NO_RECOVERY`` (``recovery=None``) is the zero-budget policy:
        #: no retries, plain comm, and a worker death is fatal.
        self.recovery_policy = pol = \
            NO_RECOVERY if recovery is None else recovery
        self.injector = injector
        self.tiles = tiles
        self.stats = ExecutionStats(workers=self.workers)
        self.comm_counters = CommCounters()
        self.store = SharedTileStore()
        #: DistSan event recorder, attached by the owner as
        #: ``rt.dist_recorder`` before the first sync.  Strictly
        #: opt-in: with no recorder every hook site is a None check.
        self.recorder = getattr(rt, "dist_recorder", None)
        if self.recorder is not None:
            self.store.observer = self.recorder.store_observer()
        if validate:
            self.graph.validate()
        #: Injected crashes (live): fired once each, by time since the
        #: executor epoch, against ``rank % nworkers``.  Read from the
        #: runtime's plan directly — a crash-only plan has no live
        #: in-payload faults, so its injector reports inactive.
        plan = rt.fault_plan
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
        #: Global side-entry registry: ref -> produced value.  Lives in
        #: the parent, so it survives any worker death (replay re-ships
        #: whatever a successor needs).
        self._entries: Dict[TileRef, object] = {}
        self._done: Dict[int, bool] = {}
        self._floor = 0
        self._prep_cursor = 0
        self._window_tids: Set[int] = set()
        self._epoch: Optional[float] = None
        self._inflight = 0
        self._pipeline = pipeline_depth
        self._listener: Optional[Listener] = None
        self._pool: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._events: "queue.Queue[Tuple[str, int, object]]" = queue.Queue()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def inflight_attempts(self) -> int:
        """Dispatched-but-unreported attempts; zero after every
        completed :meth:`run` — the no-leak invariant."""
        return self._inflight

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

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Window preparation
    # ------------------------------------------------------------------

    def _worker_ok(self, t: Task) -> bool:
        """True when every ref the task touches is process-shared:
        a registered DistMatrix tile (shared memory) or a registered
        side store (shipped by value).  Anything else — scalar boxes,
        gather buffers — pins the task to the driver."""
        if self.fns.get(t.tid) is None:
            return False
        for ref in tuple(t.reads) + tuple(t.writes):
            if ref[0] in self.rt._side_stores:
                continue
            if self.rt._matrices.get(ref[0]) is not None:
                continue
            return False
        return True

    def _materialize(self, start: int, end: int) -> None:
        """Pin every matrix tile in the window's declared footprints
        into shared memory (idempotent; migrates driver-replaced
        tiles)."""
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

    def _account_external(self, upto: int) -> None:
        for tid in range(self._floor, upto):
            self._done[tid] = True
        self._floor = max(self._floor, upto)

    def abandon_window(self) -> None:
        """Fold the failed window's unexecuted tasks into the done
        table (payloads discarded) so algorithm-level recovery can
        resubmit fresh work — mirrors
        :meth:`ParallelExecutor.abandon_window`."""
        if self._inflight:
            raise RuntimeError(
                f"abandon_window with {self._inflight} attempt(s) still "
                "in flight; the failed run() must drain first")
        for tid in self._window_tids:
            self._done[tid] = True
            self.fns.pop(tid, None)
        self._window_tids = set()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _plan_seed(self) -> int:
        plan = self.rt.fault_plan
        return int(plan.seed) if plan is not None else 0

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
                seed=self._plan_seed(),
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
                w.kill_reason = (f"heartbeat silence: phi {phi:.1f} >= "
                                 f"{pol.phi_dead:g}")
                fault_event(FAULT_HEARTBEAT_SUSPECT, -1, w.kill_reason,
                            rank=wid)
                os.kill(w.pid, signal.SIGKILL)
                self._mark_dead(w)
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
    # Execution
    # ------------------------------------------------------------------

    def run(self, start: int = 0, end: Optional[int] = None) -> float:
        """Execute tasks ``[start, end)``; returns the window's wall
        seconds.  Dependencies before ``start`` are satisfied."""
        tasks = self.graph.tasks
        if end is None:
            end = len(tasks)
        if self.validate:
            self.graph.validate(end)
        if start > self._floor:
            self._account_external(start)
        if end <= start:
            return 0.0
        self._floor = end
        self._window_tids = set(range(start, end))

        worker_ok = {t.tid: self._worker_ok(t)
                     for t in tasks[start:end]}
        self._materialize(start, end)

        n_workers = min(self.workers,
                        max(1, sum(1 for v in worker_ok.values() if v)))
        need_pool = any(worker_ok.values())

        t_wall0 = perf_counter()
        if self._epoch is None:
            self._epoch = t_wall0
        if self._net_plan is not None and not self._chaos_installed:
            # Arm before forking: workers inherit the plan (and the
            # epoch anchoring its stall/partition windows) through
            # fork; corruption events fire driver-side only, so the
            # callback needs no cross-process plumbing.
            install_net_plan(self._net_plan, epoch=self._epoch,
                             on_fault=self._chaos_fault)
            self._chaos_installed = True

        sched = DynamicScheduler(tasks, start, end, worker_ok,
                                 pipeline_depth=self._pipeline)
        if need_pool:
            self._spawn_pool(n_workers)
            for wid in self._pool:
                sched.add_worker(wid)

        failure: Optional[BaseException] = None
        try:
            failure = self._drive(sched, end - start)
        finally:
            self._shutdown_pool(force=failure is not None)
            self._window_tids = set() if failure is None \
                else self._window_tids
            for tid in list(self._done):
                self._window_tids.discard(tid)

        wall = perf_counter() - t_wall0
        self.stats.wall_seconds += wall
        self.stats.windows += 1
        self.stats.peak_rss_bytes = max(self.stats.peak_rss_bytes,
                                        _peak_rss_bytes())
        self.stats.comm_messages = self.comm_counters.total_messages
        self.stats.comm_bytes = self.comm_counters.total_bytes
        if failure is not None:
            raise failure
        return wall

    # -- dispatch loop -------------------------------------------------

    def _fault_event(self, kind: str, tid: int, detail: str,
                     rank: int = 0) -> None:
        if self.sink is None or self._epoch is None:
            return
        from ...obs.timeline import FaultEvent
        self.sink.on_fault(FaultEvent(
            kind=kind, time=perf_counter() - self._epoch, rank=rank,
            tid=tid, detail=detail))

    def _drive(self, sched: DynamicScheduler,
               n_window: int) -> Optional[BaseException]:
        tasks = self.graph.tasks
        pol = self.recovery_policy
        rec = self.stats.recovery
        fault_event = self._fault_event
        ledger = RetryLedger(pol, self.tiles, self._plan_seed(), rec,
                             fault_event)
        #: tid -> (attempt, send time) of the dispatch awaiting a reply.
        dispatched: Dict[int, Tuple[int, float]] = {}
        failure: Optional[BaseException] = None
        crash_budget = 2 * self.workers + 2
        epoch = self._epoch
        assert epoch is not None

        def ship_side(w: _Worker, t: Task) -> List[SideEntry]:
            out: List[SideEntry] = []
            for ref in tuple(t.reads) + tuple(t.writes):
                store = self.rt._side_stores.get(ref[0])
                if store is None or ref in w.shipped:
                    continue
                if ref in self._entries:
                    out.append((ref[0], store.key_of(ref),
                                self._entries[ref]))
                    w.shipped.add(ref)
            return out

        def dispatch(wid: int, tid: int) -> bool:
            w = self._pool.get(wid)
            if w is None or w.comm.closed:
                return False
            t = tasks[tid]
            ledger.arm(t)
            a = ledger.next_attempt(tid)
            try:
                w.comm.send({"op": "task", "tid": tid, "attempt": a,
                             "side": ship_side(w, t)})
            except CommError:
                # Death will surface as EOF; the scheduler keeps the
                # tid in the dead worker's inflight set until then.
                return False
            self._inflight += 1
            dispatched[tid] = (a, perf_counter())
            if self.recorder is not None:
                self.recorder.record(EV_DISPATCH, tid=tid, wid=wid,
                                     attempt=a)
            return True

        completed = 0

        def report(tid: int, wid: Optional[int], attempt: int,
                   res: Attempt, slot: str,
                   side: List[SideEntry]) -> None:
            """Account one reported attempt — a worker's reply or the
            driver lane's own (``wid=None``); times are epoch-relative."""
            nonlocal completed, failure
            t = tasks[tid]
            ledger.note(t, res.events)
            if self.recorder is not None:
                ok = EV_DRIVER if wid is None else EV_COMPLETE
                self.recorder.record(
                    EV_FAIL if res.exc is not None else ok, tid=tid,
                    wid=-1 if wid is None else wid, attempt=attempt)
            if res.exc is not None:
                if wid is not None:
                    sched.workers[wid].inflight.discard(tid)
                if not ledger.failed(t, res.exc,
                                     res.retryable and failure is None,
                                     res.t1 - res.t0):
                    failure = failure or res.exc
                return
            self._done[tid] = True
            completed += 1
            sched.on_done(tid, wid)
            ledger.settle(tid)
            for mat_id, key, value in side:
                store = self.rt._side_stores.get(mat_id)
                if store is not None and key not in store.mapping:
                    store.mapping[key] = value
            for ref in t.writes:
                if ref[0] in self.rt._side_stores \
                        and ref not in self._entries:
                    store = self.rt._side_stores[ref[0]]
                    key = store.key_of(ref)
                    if key in store.mapping:
                        self._entries[ref] = store.mapping[key]
            self.stats.record_task(
                t, res.t0, res.t1, res.cpu, slot, self.sink,
                self.fns.pop(tid, None) is not None)

        def on_worker_death(wid: int) -> Optional[BaseException]:
            from ...obs.timeline import FAULT_CRASH, FAULT_REPLAY
            w = self._pool.get(wid)
            queued, inflight = sched.remove_worker(wid)
            # Only attempts that actually went over the wire count as
            # revoked (a dispatch that failed at send never raised
            # the in-flight counter).
            for tid in inflight:
                if dispatched.pop(tid, None) is not None:
                    self._inflight -= 1
            reason = w.kill_reason if w is not None else None
            if self.recorder is not None:
                self.recorder.record(EV_DEATH, wid=wid,
                                     detail=reason or "eof")
            if w is not None:
                w.comm.close()
                w.proc.join(timeout=5.0)
            self._hb.pop(wid, None)
            self._hb_since.pop(wid, None)
            if wid in self._suspected:
                self._suspected.discard(wid)
                sched.mark_suspect(wid, False)
            if not queued and not inflight and reason is None \
                    and sched.pending == 0:
                return None  # clean exit race at window end
            rec.crashes += 1
            rec.dead_ranks = tuple(rec.dead_ranks) + (wid,)
            rec.revoked_inflight += len(inflight)
            fault_event(FAULT_CRASH, -1,
                        f"worker {wid} died "
                        f"({reason or 'unexpectedly'}); "
                        f"{len(inflight)} in-flight, "
                        f"{len(queued)} queued", rank=wid)
            if pol is NO_RECOVERY:
                return WorkerCrashError(
                    f"worker process {wid} died "
                    f"({reason or 'unexpectedly'}) with "
                    f"{len(inflight)} task(s) in flight and no "
                    "recovery policy configured")
            if rec.crashes > crash_budget:
                return WorkerCrashError(
                    f"giving up after {rec.crashes} worker crashes "
                    f"(budget {crash_budget})")
            # The ledger restores each victim's write tiles when the
            # replay is dispatched.
            for tid in inflight:
                rec.replayed_tasks += 1
                fault_event(FAULT_REPLAY, tid,
                            f"replaying task {tid} lost to worker "
                            f"{wid}", rank=wid)
            if self.recorder is not None:
                for tid in queued + inflight:
                    self.recorder.record(EV_REPLAY, tid=tid, wid=wid)
            sched.requeue(queued + inflight)
            if not sched.alive_workers() and sched.pending > 0:
                nw = self._spawn_worker()
                sched.add_worker(nw.wid)
            return None

        def fire_crashes_and_timeouts() -> None:
            now = perf_counter()
            while (self._crash_idx < len(self._crashes)
                   and now - epoch
                   >= self._crashes[self._crash_idx].time):
                c = self._crashes[self._crash_idx]
                self._crash_idx += 1
                alive = [w for w in self._pool.values()
                         if w.proc.is_alive()
                         and w.kill_reason is None]
                if not alive:
                    continue
                victim = alive[c.rank % len(alive)]
                victim.kill_reason = f"injected crash (rank {c.rank})"
                os.kill(victim.pid, signal.SIGKILL)
                self._mark_dead(victim)
            # Liveness poll: a worker that exited without the driver
            # killing it must not leave its reliable link waiting out
            # the reconnect deadline — no process, no reconnect.
            for w in self._pool.values():
                if w.kill_reason is None and not w.proc.is_alive():
                    self._mark_dead(w)
            if pol.heartbeat_interval is not None and self._hb:
                self._check_heartbeats(sched, now)
            if pol.task_timeout is not None:
                for wid, w in list(self._pool.items()):
                    if w.kill_reason is not None:
                        continue
                    ws = sched.workers.get(wid)
                    if ws is None or not ws.alive:
                        continue
                    for tid in list(ws.inflight):
                        sent = dispatched.get(tid)
                        if sent is not None \
                                and now - sent[1] > pol.task_timeout:
                            from ...obs.timeline import FAULT_TIMEOUT
                            rec.timeouts += 1
                            w.kill_reason = (
                                f"task {tid} exceeded "
                                f"{pol.task_timeout}s timeout")
                            fault_event(FAULT_TIMEOUT, tid,
                                        w.kill_reason, rank=wid)
                            os.kill(w.pid, signal.SIGKILL)
                            self._mark_dead(w)
                            break

        stall_guard = 0

        while True:
            if failure is None and completed >= n_window:
                break
            if failure is not None and self._inflight == 0:
                break

            progressed = False
            if failure is None:
                for tid in ledger.pop_due(perf_counter()):
                    sched.requeue([tid])
                    progressed = True
                fire_crashes_and_timeouts()
                for wid in list(self._pool):
                    while True:
                        tid = sched.next_for(wid)
                        if tid is None:
                            break
                        if dispatch(wid, tid):
                            progressed = True
                dtid = sched.next_driver()
                if dtid is not None:
                    # The driver lane: tasks touching driver-local
                    # state run the same attempt body inline.
                    t = tasks[dtid]
                    ledger.arm(t)
                    a = ledger.next_attempt(dtid)
                    self._inflight += 1
                    res = run_attempt(
                        t, self.fns.get(dtid), a, injector=self.injector,
                        tiles=self.tiles, sanitizer=self.sanitizer,
                        scrub=pol.scrub_writes)
                    self._inflight -= 1
                    report(dtid, None, a,
                           res._replace(t0=res.t0 - epoch,
                                        t1=res.t1 - epoch), "drv", [])
                    progressed = True

            drained = False
            while True:
                try:
                    kind_, wid, payload = self._events.get(
                        block=not (progressed or drained),
                        timeout=None if progressed or drained
                        else self._wait_budget(ledger, pol.poll_interval))
                except queue.Empty:
                    if (failure is None and not progressed
                            and self._inflight == 0 and not ledger.due):
                        # Nothing out, nothing due, nothing dispatched
                        # this pass: the bookkeeping wedged — fail
                        # loudly instead of spinning forever.
                        stall_guard += 1
                        if stall_guard > 200:
                            return RuntimeError(
                                "process executor stalled with "
                                f"{n_window - completed} task(s) "
                                "unfinished and none ready — "
                                "dependency bookkeeping bug")
                    else:
                        stall_guard = 0
                    break
                drained = True
                stall_guard = 0
                if kind_ == "eof":
                    err = on_worker_death(wid)
                    if err is not None and failure is None:
                        failure = err
                    continue
                msg = payload
                op = msg.get("op")
                tid = msg.get("tid")
                if op not in ("done", "fail") or tid is None:
                    continue
                if self._done.get(tid) or tid not in dispatched:
                    continue  # stale reply (revoked or duplicated)
                w = self._pool.get(wid)
                if w is None:
                    continue
                self._inflight -= 1
                del dispatched[tid]
                off = w.clock_offset - epoch
                report(tid, wid, int(msg.get("attempt", 0)),
                       Attempt(msg["t0"] + off, msg["t1"] + off,
                               msg["cpu"], msg.get("events") or [],
                               msg["exc"] if op == "fail" else None,
                               bool(msg.get("retryable"))),
                       f"w{w.lane}", msg.get("side") or [])
                if not self._events.qsize():
                    break
        return failure

    # -- helpers -------------------------------------------------------

    def _wait_budget(self, ledger: RetryLedger, poll: float) -> float:
        budget = ledger.wait(poll)
        assert budget is not None
        if self._crash_idx < len(self._crashes) and self._epoch:
            budget = min(budget, self._crashes[self._crash_idx].time
                         - (perf_counter() - self._epoch))
        return max(0.001, budget)
