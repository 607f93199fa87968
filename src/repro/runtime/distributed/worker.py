"""Worker-process side of the distributed runtime.

Workers are **forked per execution window** — ``workers - 1`` of them
beside a driver that is itself a lane, ``workers`` beside one that only
dispatches (:meth:`~repro.runtime.window.WindowExecutor._lanes`).  Task
payloads recorded by the deferred runtime are closures over driver
objects (tile payloads, ``QRFactors``, scalar boxes) and are not
picklable, so instead of shipping code we ship *nothing*: the fork
inherits the task graph, the payload table, and every shared-memory
mapping (one segment per matrix) copy-on-write, and the parent then
streams tiny ``task`` messages (tid + attempt) over the comm layer.
Every tile a task touches is a view into shared memory, so payload
writes land directly in the parent's (and every sibling's) view —
zero-copy by construction — and so do the writes of the tasks the
driver runs itself while the workers run theirs.

What executes here is :func:`repro.runtime.attempt.run_attempt`, the
same attempt body the threaded executor's workers and the driver lane
run: injected stalls sleep, injected transients raise, payloads run
inside a sanitizer frame when the task asks for one, injected
corruption and non-finite scrubbing act on the local (shared) tiles.
This module only adds what a process boundary needs — a reply that
pickles.  Snapshots are *not* taken here —
the parent's :class:`~repro.runtime.attempt.RetryLedger` snapshots
write tiles before dispatching so a SIGKILL at any instant leaves it
able to restore and replay (lineage recovery, PR 5).

The worker never touches the shared-memory registry, never spawns
threads, and exits through ``os._exit`` so a teardown cannot corrupt
parent-owned resources (atexit handlers, shm unlinking and the
multiprocessing resource tracker all belong to the parent).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..attempt import run_attempt
from .chaos import active_net_plan, set_local_wid
from .comm import Comm, CommClosedError, CommError, connect
from .reliable import ReliableComm

__all__ = ["worker_main"]


def _portable_exc(exc: BaseException) -> BaseException:
    """Return ``exc`` if it pickles cleanly, else a plain stand-in
    (the ``retryable`` verdict travels separately)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_one(ex: Any, tid: int, attempt: int) -> Dict[str, Any]:
    """Execute one task; returns the reply message (``done``/``fail``).
    The retryable verdict is evaluated here so it survives exceptions
    that do not pickle faithfully."""
    t = ex.rt.graph.tasks[tid]
    res = run_attempt(t, ex.fns.get(tid), attempt, injector=ex.injector,
                      tiles=ex.tiles, sanitizer=ex.sanitizer,
                      scrub=ex.recovery_policy.scrub_writes)
    reply: Dict[str, Any] = {"op": "done", "tid": tid, "attempt": attempt,
                             "t0": res.t0, "t1": res.t1, "cpu": res.cpu,
                             "events": res.events}
    if res.exc is not None:
        reply.update(op="fail", retryable=res.retryable,
                     exc=_portable_exc(res.exc))
    return reply


def _heartbeat_loop(rc: ReliableComm, interval: float,
                    stop: threading.Event) -> None:
    """Worker-side liveness beacon.  A beat that cannot be written is
    not an error here — the reliable layer marks the link broken and
    the main loop's next recv drives the reconnect."""
    while not stop.wait(interval):
        try:
            rc.send_heartbeat()
        except CommError:
            return


def worker_main(wid: int, lane: int, address: str, ex: Any,
                close_fds: List[int]) -> None:
    """Entry point of a forked worker: everything it needs — runtime,
    payload table, injector, policy, tile accessor — is the inherited
    :class:`ProcessExecutor` ``ex``.  Never returns — exits the process
    via ``os._exit``."""
    code = 0
    comm: Optional[Comm] = None
    hb_stop = threading.Event()
    try:
        # Inherited fds of live sibling comms would keep a dead
        # sibling's socket half-open and mask its EOF.
        for fd in close_fds:
            with contextlib.suppress(OSError):
                os.close(fd)
        # Inherited driver state must not re-enter the deferred
        # machinery: accessing a tile or scalar box inside a payload
        # would otherwise try to sync the runtime recursively.
        ex.rt._in_execution = True
        ex.rt._worker_mode = True
        policy = ex.recovery_policy
        if active_net_plan() is not None:
            # Inherited over fork from the driver's install_net_plan;
            # tag this process so our ChaosComms salt frame decisions
            # with (worker side, wid) and match lane-targeted faults.
            set_local_wid(wid, lane)
        comm = connect(address, timeout=10.0)
        if ex._reliable:
            comm.crc_frames = True
        # The hello travels on the raw transport: the driver's acceptor
        # routes on it before any reliable wrapping exists.
        comm.send({"op": "hello", "wid": wid, "pid": os.getpid(),
                   "clock": perf_counter()})
        if ex._reliable:
            comm = ReliableComm(
                comm, role="worker", wid=wid, address=address,
                deadline=policy.net_deadline, seed=ex._seed)
            if policy.heartbeat_interval is not None:
                threading.Thread(
                    target=_heartbeat_loop,
                    args=(comm, policy.heartbeat_interval, hb_stop),
                    daemon=True, name=f"repro-dist-hb{wid}").start()
        while True:
            msg = comm.recv(timeout=None)
            op = msg.get("op")
            if op == "shutdown":
                break
            if op != "task":
                continue
            comm.send(_run_one(ex, msg["tid"], msg["attempt"]))
    except (CommClosedError, KeyboardInterrupt):
        code = 0  # parent went away / interrupted: silent exit
    except BaseException:
        code = 1
    finally:
        hb_stop.set()
        if comm is not None:
            with contextlib.suppress(Exception):
                comm.close()
        # Release this fork's inherited shared-memory mappings (views
        # and mmaps only — segments, refcounts and unlinking stay with
        # the parent) so a worker exit never pins a dead mapping.
        with contextlib.suppress(Exception):
            ex.store.release_inherited()
        # Skip interpreter teardown entirely: the fork inherited
        # atexit hooks, shm objects and executor state that belong to
        # the parent.
        os._exit(code)
