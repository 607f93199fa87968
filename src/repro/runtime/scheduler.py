"""Event-driven schedule simulation of a task DAG on a machine model.

Models what the paper's two runtimes do with the same algorithm:

* **task-based (SLATE)** — tasks run as soon as their DAG dependencies
  are satisfied and a core/GPU on their owning rank is free, with an
  optional lookahead window bounding how many program phases ahead the
  execution may run (SLATE's lookahead panels);
* **fork-join (ScaLAPACK/POLAR)** — a barrier after every phase: no
  task of phase p+1 starts before every task of phase <= p completed,
  plus the barrier's own log(P) latency.  This is the bulk-synchronous
  execution the paper identifies as POLAR's scalability bottleneck.

Transfers: consumer-driven.  When a task reads a tile last written on
another rank (or another device), the transfer is scheduled on the
α-β link model with per-rank send/receive/staging serialization, and a
broadcast cache ensures each tile version crosses each link once per
destination (SLATE's tileBcast).

Resilience: an optional :class:`repro.resilience.faults.FaultPlan`
injects rank crashes, transient kernel failures, link degradation, and
straggler slots into the run.  Recovery is dask/Spark-style: transient
failures retry with exponential backoff, and a crash invalidates the
rank's resident tiles and the scheduler re-executes the minimal
lineage-replay subgraph on surviving ranks.  A straggler-inflated
task only runs slower, as it does on the real runtime.  Every
fault consult site is guarded by ``faults is not None``, so a
fault-free run is bit-identical to the pre-resilience scheduler.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..comm.counters import CommCounters
from ..comm.network import TransferPath
from ..obs.timeline import (
    FAULT_CRASH,
    FAULT_REPLAY,
    FAULT_TRANSIENT,
    STALL_DEPENDENCY,
    STALL_GATE,
    STALL_LINK,
    BarrierEvent,
    FaultEvent,
    StallEvent,
    TaskEvent,
    TransferEvent,
)
from ..resilience.faults import FaultPlan, RecoveryStats
from ..resilience.recovery import ResilienceState, lineage_replay_set
from .graph import TaskGraph
from .task import DEVICE_ELIGIBLE, PANEL_KINDS, TileRef

if TYPE_CHECKING:  # machines imports runtime.task; avoid the cycle
    from ..machines.machine import MachineModel
    from ..obs.timeline import TraceSink


@dataclass(frozen=True)
class RunConfig:
    """One simulated run configuration."""

    machine: "MachineModel"
    nodes: int
    ranks_per_node: int
    use_gpu: bool
    #: Lookahead window in gate units; ``None`` = unbounded (pure DAG
    #: order), ``0`` = bulk-synchronous fork-join.
    lookahead: Optional[int] = None
    #: Charge an explicit barrier each time the gate advances.
    barrier_per_phase: bool = False
    #: Gate unit for the lookahead window: "phase" (panel steps —
    #: SLATE's lookahead semantics) or "op" (whole library calls —
    #: the ScaLAPACK fork-join semantics: each pdgeqrf/pdgemm is
    #: internally parallel but calls never overlap).
    barrier_granularity: str = "phase"

    @property
    def total_ranks(self) -> int:
        return self.machine.ranks(self.nodes, self.ranks_per_node)


@dataclass
class ScheduleResult:
    """Outcome of a simulated schedule."""

    makespan: float
    total_flops: float
    task_count: int
    comm: CommCounters
    per_kind_busy: Dict[str, float]
    per_rank_busy: List[float]
    critical_path: float
    config: RunConfig
    #: Execution slots each rank exposed (cores + GPUs, or the two
    #: aggregated gang slots); normalizes busy time to true utilization.
    slots_per_rank: int = 1
    #: Scheduler-attributed stall seconds by cause (summed over slots).
    stall_seconds: Optional[Dict[str, float]] = None
    #: Fault/recovery accounting of the run (None for fault-free runs).
    recovery: Optional[RecoveryStats] = None

    @property
    def gflops(self) -> float:
        """Achieved Gflop/s over the executed task flops."""
        return self.total_flops / self.makespan / 1e9 if self.makespan else 0.0

    def tflops(self, model_flops: Optional[float] = None) -> float:
        """Tflop/s the paper's way: *useful* (model) flops over time."""
        fl = self.total_flops if model_flops is None else model_flops
        return fl / self.makespan / 1e12 if self.makespan else 0.0


class _Pool:
    """Execution slots of one (rank, device-class) pair."""

    __slots__ = ("free",)

    def __init__(self, slots: int) -> None:
        # Heap of (slot-free time, slot index); the index identifies
        # the core/GPU for timeline capture and breaks ties
        # deterministically without changing any completion time.
        self.free: List[Tuple[float, int]] = [(0.0, i) for i in range(slots)]
        heapq.heapify(self.free)


#: Sentinel tid for rank-crash markers in the event queue.  Markers
#: sort before same-instant task completions (tid -1 < any real tid),
#: so a task finishing exactly at the crash instant counts as killed.
_CRASH_TID = -1


def simulate(graph: TaskGraph, cfg: RunConfig, *,
             sink: Optional["TraceSink"] = None,
             faults: Optional[FaultPlan] = None) -> ScheduleResult:
    """Simulate the DAG on the machine; returns makespan and breakdowns.

    Task ranks in the graph must be < cfg.total_ranks.

    ``sink`` (a :class:`repro.obs.timeline.TraceSink`) receives a
    structured event for every task execution, tile transfer, barrier,
    and lookahead-gate stall.  Every emit site is guarded, so a run
    with ``sink=None`` records nothing and pays nothing.

    ``faults`` (a :class:`repro.resilience.faults.FaultPlan`) injects
    rank crashes, transient kernel failures, link degradation, and
    stragglers; the scheduler recovers via retry and lineage replay,
    charging all re-execution and re-communication to the makespan.
    ``ScheduleResult.recovery`` then reports what recovery cost.  With
    ``faults=None`` the schedule is bit-identical to the fault-unaware
    scheduler.
    """
    tasks = graph.tasks
    n_tasks = len(tasks)
    ranks = cfg.total_ranks
    res = cfg.machine.rank_resources(cfg.ranks_per_node, use_gpu=cfg.use_gpu)
    net = cfg.machine.network
    rpn = cfg.ranks_per_node

    if any(t.rank >= ranks for t in tasks):
        raise ValueError(
            f"graph contains ranks >= {ranks}; build the graph on a grid "
            f"matching the run configuration")

    fstate = (ResilienceState(faults, n_tasks, ranks, net)
              if faults is not None else None)

    # Everything machine-independent (edges, their payloads, the
    # distinct price keys) is derived once per recorded graph.
    tab = graph.schedule_tables()
    succ = tab.succ
    dep_bytes = tab.dep_bytes
    cold_reads = tab.cold
    price_keys = tab.price_keys
    price_of = tab.price_of

    # Device routing: GPU-eligible kernels go to the GPU pool when the
    # run uses GPUs; everything else runs on host cores.  Coarsened
    # panel tasks are mostly trailing-update work and route to the GPU
    # with a blended rate (see MachineModel.task_duration).
    gpu_ok = cfg.use_gpu and res.gpus > 0
    key_gpu = [gpu_ok and (kind in DEVICE_ELIGIBLE
                           or (coarse > 1.01 and kind in PANEL_KINDS))
               for kind, _, _, coarse in price_keys]

    # Gang scheduling for coarsened graphs: a coarse task models many
    # real-nb kernels, which fine-grained execution would spread over
    # all of a rank's devices.  Each rank then exposes one aggregated
    # slot per device class whose rate scales with the device count.
    ganged = any(coarse > 1.01 for _, _, _, coarse in price_keys)
    cpu_gang = res.cores if ganged else 1
    gpu_gang = max(res.gpus, 1) if ganged else 1
    cpu_pools = [_Pool(1 if ganged else res.cores) for _ in range(ranks)]
    gpu_pools = ([_Pool(1 if ganged else res.gpus) for _ in range(ranks)]
                 if cfg.use_gpu and res.gpus else None)

    # Each distinct price key is priced once, for this configuration;
    # dispatch, the fault path and the critical path read the table.
    key_dur = [cfg.machine.task_duration(
                   kind, flops, tile_dim, coarse, g, host_cores=res.cores,
                   gang=gpu_gang if g else cpu_gang)
               for (kind, flops, tile_dim, coarse), g
               in zip(price_keys, key_gpu)]
    key_kind = [kind.value for kind, _, _, _ in price_keys]
    on_gpu = [key_gpu[c] for c in price_of]
    dur_of = [key_dur[c] for c in price_of]

    indeg = [len(t.deps) for t in tasks]

    finish = [0.0] * n_tasks
    done = [False] * n_tasks
    dispatched = [False] * n_tasks
    #: Executing/last-execution rank per task; diverges from t.rank
    #: only when recovery remaps work off dead ranks.
    rank_of = [t.rank for t in tasks]
    #: Fault path only: task events buffered at dispatch, emitted at
    #: completion (so revoked executions never reach the trace).
    pending_ev: Dict[int, TaskEvent] = {}
    #: Fault path only: busy/re-execution accounting buffered the same
    #: way — (kind, span, rank, reexec_seconds) applied when the
    #: execution completes, dropped when a crash revokes it
    #: (utilization must only count work that ran to completion, like
    #: the trace).
    pending_busy: Dict[int, Tuple[str, float, int, float]] = {}

    # Window bookkeeping over the configured gate unit.
    lookahead = cfg.lookahead
    if cfg.barrier_granularity == "op":
        gate = [t.op for t in tasks]
    elif cfg.barrier_granularity == "phase":
        gate = [t.phase for t in tasks]
    else:
        raise ValueError(
            f"barrier_granularity must be 'phase' or 'op', got "
            f"{cfg.barrier_granularity!r}")
    max_phase = max(gate, default=0)
    phase_remaining = [0] * (max_phase + 1)
    for g in gate:
        phase_remaining[g] += 1
    completed_prefix = 0  # all tasks with phase < completed_prefix done
    while (completed_prefix <= max_phase
           and phase_remaining[completed_prefix] == 0):
        completed_prefix += 1
    parked: Dict[int, List[int]] = {}
    barrier_floor = 0.0

    # Link serialization state.
    send_free = [0.0] * ranks
    recv_free = [0.0] * ranks
    stage_free = [0.0] * ranks  # CPU<->GPU staging link per rank
    # Broadcast state: per produced tile version, the ranks that hold a
    # copy and when it arrived.  A rank holding a copy can relay it
    # onward, so repeated consumption forms a broadcast *tree* (SLATE's
    # tileBcast / MPI tree bcast) rather than serializing the
    # producer's injection link O(consumers) times.
    copies: Dict[int, Dict[int, float]] = {}
    # producer_tid -> (dst_rank, dst_on_gpu) -> arrival on device class;
    # keyed by producer so a crash purges one producer's entries alone.
    xfer_cache: Dict[int, Dict[Tuple[int, bool], float]] = {}
    # Same machinery for *initial* tiles (no producer task): they start
    # in host memory on their owning rank at t=0.
    cold_copies: Dict[Tuple[int, int, int], Dict[int, float]] = {}
    cold_cache: Dict[Tuple[Tuple[int, int, int], int, bool], float] = {}

    comm = CommCounters()
    per_kind_busy: Dict[str, float] = {}
    per_rank_busy = [0.0] * ranks

    def _best_holder(holders: Dict[int, float], dst: int
                     ) -> Tuple[int, float]:
        """Relay source whose copy + free link starts earliest.

        Iterates holders in insertion order (producer first), keeping
        the first strict minimum — the same winner the pre-resilience
        scheduler picked, without assuming the producer's copy still
        exists (a crash may have pruned it).
        """
        best_src = -1
        best_beg = float("inf")
        for r, avail in holders.items():
            beg = max(avail, send_free[r], recv_free[dst])
            if beg < best_beg:
                best_src, best_beg = r, beg
        if best_src < 0:
            raise RuntimeError(
                "transfer requested for a tile with no surviving copy; "
                "lineage replay missed a producer (recovery bug)")
        return best_src, best_beg

    def transfer_in(dep: int, nbytes: int, dst: int, t_gpu: bool) -> float:
        """Arrival time of the ``nbytes`` a consumer on rank ``dst``
        (device class ``t_gpu``) reads of dep's output.  Only called
        for an edge that moves data: ``nbytes > 0`` and another rank or
        device than the producer's (dispatch prices the rest free)."""
        d_gpu = on_gpu[dep]
        src = rank_of[dep]
        cache = xfer_cache.get(dep)
        if cache is None:
            cache = xfer_cache[dep] = {}
        else:
            cached = cache.get((dst, t_gpu))
            if cached is not None:
                return cached
        holders = copies.setdefault(dep, {src: finish[dep]})
        if dst in holders:
            # A copy already lives on this rank (relayed earlier or the
            # producer itself); only cross-device staging may remain.
            arrival = holders[dst]
            if dst == src or (t_gpu and not net.nic_on_gpu):
                path = TransferPath.H2D if t_gpu else TransferPath.D2H
                dur = net.transfer_time(nbytes, path)
                beg = max(arrival, stage_free[dst])
                stage_free[dst] = beg + dur
                comm.record(path, nbytes)
                if sink is not None:
                    sink.on_transfer(TransferEvent(
                        src=dst, dst=dst, nbytes=nbytes, leg=path.value,
                        start=beg, end=beg + dur))
                arrival = beg + dur
            cache[(dst, t_gpu)] = arrival
            return arrival
        best_src, best_beg = _best_holder(holders, dst)
        same_node = (cfg.machine.node_of_rank(best_src, rpn)
                     == cfg.machine.node_of_rank(dst, rpn))
        src_gpu = d_gpu if best_src == src else t_gpu
        dur = net.remote_gpu_transfer_time(
            nbytes, same_node, src_on_gpu=src_gpu, dst_on_gpu=t_gpu)
        if fstate is not None:
            dur = fstate.degrade_transfer(best_src, dst, best_beg,
                                          nbytes, same_node, dur)
        send_free[best_src] = best_beg + dur
        recv_free[dst] = best_beg + dur
        path = (TransferPath.INTRA_NODE if same_node
                else TransferPath.INTER_NODE)
        comm.record(path, nbytes)
        if sink is not None:
            sink.on_transfer(TransferEvent(
                src=best_src, dst=dst, nbytes=nbytes, leg=path.value,
                start=best_beg, end=best_beg + dur))
        if not same_node and not net.nic_on_gpu:
            if src_gpu:
                comm.record(TransferPath.D2H, nbytes)
            if t_gpu:
                comm.record(TransferPath.H2D, nbytes)
        arrival = best_beg + dur
        holders[dst] = arrival
        cache[(dst, t_gpu)] = arrival
        return arrival

    def cold_transfer(ref: TileRef, src: int, nbytes: int, dst: int,
                      t_gpu: bool) -> float:
        """Arrival of an initial tile (``nbytes``, hosted by rank
        ``src``) at a consumer on rank ``dst``, device class ``t_gpu``.
        Dispatch skips a host read on a live owner (free at t = 0)."""
        avail0 = 0.0
        if fstate is not None and src in fstate.dead:
            # The owner died: initial data is durable (regenerable /
            # on the parallel filesystem) and is re-hosted by the
            # replacement rank, available once the crash is detected.
            src = fstate.remap_rank(src)
            avail0 = fstate.recovery_floor
        if src == dst and not t_gpu:
            return avail0
        key = (ref, dst, t_gpu)
        cached = cold_cache.get(key)
        if cached is not None:
            return cached
        holders = cold_copies.setdefault(ref, {src: avail0})
        if fstate is not None and not holders:
            holders[src] = avail0  # every pre-crash copy was pruned
        if dst in holders:
            arrival = holders[dst]
            if t_gpu and (dst == src or not net.nic_on_gpu):
                dur = net.transfer_time(nbytes, TransferPath.H2D)
                beg = max(arrival, stage_free[dst])
                stage_free[dst] = beg + dur
                comm.record(TransferPath.H2D, nbytes)
                if sink is not None:
                    sink.on_transfer(TransferEvent(
                        src=dst, dst=dst, nbytes=nbytes,
                        leg=TransferPath.H2D.value,
                        start=beg, end=beg + dur))
                arrival = beg + dur
            cold_cache[key] = arrival
            return arrival
        best_src, best_beg = _best_holder(holders, dst)
        same_node = (cfg.machine.node_of_rank(best_src, rpn)
                     == cfg.machine.node_of_rank(dst, rpn))
        dur = net.remote_gpu_transfer_time(
            nbytes, same_node, src_on_gpu=False, dst_on_gpu=t_gpu)
        if fstate is not None:
            dur = fstate.degrade_transfer(best_src, dst, best_beg,
                                          nbytes, same_node, dur)
        send_free[best_src] = best_beg + dur
        recv_free[dst] = best_beg + dur
        path = (TransferPath.INTRA_NODE if same_node
                else TransferPath.INTER_NODE)
        comm.record(path, nbytes)
        if sink is not None:
            sink.on_transfer(TransferEvent(
                src=best_src, dst=dst, nbytes=nbytes, leg=path.value,
                start=best_beg, end=best_beg + dur))
        if not same_node and t_gpu and not net.nic_on_gpu:
            comm.record(TransferPath.H2D, nbytes)
        arrival = best_beg + dur
        holders[dst] = arrival
        cold_cache[key] = arrival
        return arrival

    # Event queue of task completions: (time, tid, attempt-epoch).
    # Crash markers use tid=_CRASH_TID with the crash index as epoch.
    events: List[Tuple[float, int, int]] = []

    # Stall accounting (scheduler-attributed idle time, by cause).
    stall_acc = {STALL_DEPENDENCY: 0.0, STALL_LINK: 0.0, STALL_GATE: 0.0}
    park_time: Dict[int, float] = {}

    def dispatch(tid: int, floor: float = 0.0) -> None:
        """Assign a ready-and-eligible task to a slot; create its event."""
        t = tasks[tid]
        t_gpu = on_gpu[tid]
        rank = rank_of[tid]
        pool = (gpu_pools[rank] if t_gpu else cpu_pools[rank])  # type: ignore[index]
        base = barrier_floor if fstate is None else max(barrier_floor, floor)
        dep_ready = base   # producers done (no transfer cost)
        data_ready = base  # producers done AND data arrived
        for d, nbytes in zip(t.deps, dep_bytes[tid]):
            arr = finish[d]
            if arr > dep_ready:
                dep_ready = arr
            # Free unless data moves to another rank or device; a pure
            # ordering edge (WAR, 0 bytes) moves none.
            if nbytes and (rank_of[d] != rank or on_gpu[d] != t_gpu):
                arr = transfer_in(d, nbytes, rank, t_gpu)
            if arr > data_ready:
                data_ready = arr
        for ref, owner, nbytes in cold_reads[tid]:
            if (owner == rank and not t_gpu
                    and (fstate is None or owner not in fstate.dead)):
                continue  # in the owner's host memory since t = 0
            arr = cold_transfer(ref, owner, nbytes, rank, t_gpu)
            if arr > data_ready:
                data_ready = arr
        slot_free, slot_idx = heapq.heappop(pool.free)
        beg = slot_free
        if data_ready > slot_free:
            # The slot sat idle: time past the producers' completion
            # was spent on the wire (link busy / transfer latency), the
            # rest waiting on the dependencies themselves.
            beg = data_ready
            idle = beg - slot_free
            link = data_ready - dep_ready
            if link > idle:
                link = idle
            stall_acc[STALL_LINK] += link
            stall_acc[STALL_DEPENDENCY] += idle - link
        dur = dur_of[tid]
        kind = key_kind[price_of[tid]]
        dispatched[tid] = True

        if fstate is None:
            end = beg + dur
            heapq.heappush(pool.free, (end, slot_idx))
            finish[tid] = end
            per_kind_busy[kind] = per_kind_busy.get(kind, 0.0) + dur
            per_rank_busy[rank] += dur
            if sink is not None:
                sink.on_task(TaskEvent(
                    tid=tid, kind=kind, rank=rank,
                    slot=f"gpu{slot_idx}" if t_gpu else f"cpu{slot_idx}",
                    phase=t.phase, flops=t.flops, start=beg, end=end,
                    duration=dur, label=t.label))
            heapq.heappush(events, (end, tid, 0))
            return

        # ---- fault-aware execution path ------------------------------
        sf = fstate.straggler_factor(rank, beg)
        if sf != 1.0:
            dur = dur * sf
        fails, extra = fstate.transient_schedule(tid, kind, dur)
        end = beg + extra + dur
        if fails and sink is not None:
            sink.on_fault(FaultEvent(
                kind=FAULT_TRANSIENT, time=beg, rank=rank, tid=tid,
                detail=f"{fails} failed attempt(s), retried with backoff"))

        heapq.heappush(pool.free, (end, slot_idx))
        finish[tid] = end
        span = end - beg
        # A post-revocation re-execution (crash replay / re-run) is
        # recovery cost.
        reexec = span if fstate.attempt[tid] > 0 else 0.0
        pending_busy[tid] = (kind, span, rank, reexec)
        if sink is not None:
            # Buffered, not emitted: a crash can revoke this execution
            # before it completes, and the trace must only show work
            # that actually ran to completion.  The event loop emits it
            # when the matching-epoch completion pops.
            pending_ev[tid] = TaskEvent(
                tid=tid, kind=kind, rank=rank,
                slot=f"gpu{slot_idx}" if t_gpu else f"cpu{slot_idx}",
                phase=t.phase, flops=t.flops, start=beg, end=end,
                duration=span, label=t.label)
        heapq.heappush(events, (end, tid, fstate.attempt[tid]))

    def make_eligible(tid: int, now: float = 0.0, floor: float = 0.0) -> None:
        if lookahead is None or gate[tid] <= completed_prefix + lookahead:
            dispatch(tid, floor)
        elif tid not in park_time:
            # The membership guard matters only under crash recovery: a
            # replayed producer's completion re-arms a consumer that
            # may still be sitting in `parked`, and appending it again
            # would dispatch it twice when the window opens.
            parked.setdefault(gate[tid], []).append(tid)
            park_time[tid] = now

    # ------------------------------------------------------------------
    # Crash recovery (lineage replay); only reachable with a fault plan.
    # ------------------------------------------------------------------

    def _purge_task_output(tid: int) -> None:
        copies.pop(tid, None)
        pending_ev.pop(tid, None)
        pending_busy.pop(tid, None)
        xfer_cache.pop(tid, None)

    def on_crash(dead_rank: int, now: float) -> None:
        nonlocal completed
        assert fstate is not None
        fstate.mark_dead(dead_rank, now)

        # In-flight work on the dead rank is void: bump the attempt
        # epoch (queued completion events turn stale) and un-dispatch.
        revoked = 0
        for tid in range(n_tasks):
            if (dispatched[tid] and not done[tid]
                    and rank_of[tid] == dead_rank):
                dispatched[tid] = False
                fstate.attempt[tid] += 1
                finish[tid] = 0.0
                _purge_task_output(tid)
                revoked += 1
        fstate.stats.revoked_inflight += revoked

        # Tiles whose only copy lived on the dead rank are lost.
        lost = set()
        for tid in range(n_tasks):
            if done[tid] and rank_of[tid] == dead_rank:
                holders = copies.get(tid)
                if not holders or all(r in fstate.dead for r in holders):
                    lost.add(tid)
        for holders in copies.values():
            holders.pop(dead_rank, None)
        for holders in cold_copies.values():
            holders.pop(dead_rank, None)
        fstate.stats.lost_tiles += sum(len(tasks[tid].writes)
                                       for tid in lost)

        # Minimal replay subgraph: lost producers the remaining program
        # still needs, transitively (last-writer lineage walk).
        replay = lineage_replay_set(tasks, done, lost)
        for tid in sorted(replay):
            done[tid] = False
            completed -= 1
            phase_remaining[gate[tid]] += 1
            dispatched[tid] = False
            fstate.attempt[tid] += 1
            finish[tid] = 0.0
            _purge_task_output(tid)
            if sink is not None:
                sink.on_fault(FaultEvent(
                    kind=FAULT_REPLAY, time=now, rank=rank_of[tid],
                    tid=tid, detail="lost output; lineage replay"))
        fstate.stats.replayed_tasks += len(replay)

        # Move every pending task off dead ranks (deterministic remap).
        for tid in range(n_tasks):
            if not done[tid] and rank_of[tid] in fstate.dead:
                rank_of[tid] = fstate.remap_rank(rank_of[tid])

        # Re-derive readiness for everything that still has to run.
        for tid in range(n_tasks):
            if not done[tid] and not dispatched[tid]:
                indeg[tid] = sum(1 for d in tasks[tid].deps if not done[d])
        floor = fstate.recovery_floor
        for tid in range(n_tasks):
            if (not done[tid] and not dispatched[tid]
                    and tid not in park_time and indeg[tid] == 0):
                make_eligible(tid, now, floor)

        if sink is not None:
            sink.on_fault(FaultEvent(
                kind=FAULT_CRASH, time=now, rank=dead_rank, tid=-1,
                detail=(f"{revoked} in-flight revoked, "
                        f"{len(replay)} task(s) replayed, "
                        f"{len(lost)} output(s) lost")))

    # Seed: all zero-indegree tasks, then the plan's crash markers.
    for t in tasks:
        if indeg[t.tid] == 0:
            make_eligible(t.tid)
    if fstate is not None:
        for i, c in enumerate(fstate.plan.crashes):
            heapq.heappush(events, (c.time, _CRASH_TID, i))

    makespan = 0.0
    completed = 0
    while events:
        now, tid, epoch = heapq.heappop(events)
        if tid == _CRASH_TID:
            on_crash(fstate.plan.crashes[epoch].rank, now)  # type: ignore[union-attr]
            continue
        if done[tid]:
            continue
        if fstate is not None and epoch != fstate.attempt[tid]:
            continue  # stale completion of a revoked execution
        done[tid] = True
        if fstate is not None:
            pb = pending_busy.pop(tid, None)
            if pb is not None:
                kindv, span, prank, reexec = pb
                per_kind_busy[kindv] = per_kind_busy.get(kindv, 0.0) + span
                per_rank_busy[prank] += span
                if reexec:
                    fstate.stats.reexecution_seconds += reexec
            if sink is not None:
                pev = pending_ev.pop(tid, None)
                if pev is not None:
                    sink.on_task(pev)
        completed += 1
        if now > makespan:
            makespan = now
        phase_remaining[gate[tid]] -= 1
        # Advance the phase window; release parked tasks.
        while (completed_prefix <= max_phase
               and phase_remaining[completed_prefix] == 0):
            if cfg.barrier_per_phase:
                from ..comm.collectives import barrier_time
                barrier_floor = max(barrier_floor,
                                    now + barrier_time(net, ranks))
                if sink is not None:
                    sink.on_barrier(BarrierEvent(
                        time=now, until=barrier_floor,
                        phase=completed_prefix))
            completed_prefix += 1
            if lookahead is not None:
                release_upto = completed_prefix + lookahead
                for ph in list(parked.keys()):
                    if ph <= release_upto:
                        for ptid in parked.pop(ph):
                            if done[ptid] or dispatched[ptid]:
                                # Stale entry: crash recovery already
                                # re-armed and dispatched this task.
                                park_time.pop(ptid, None)
                                continue
                            # A released task starts at its slot/data
                            # time, which may precede the release, so a
                            # later release can pop at an earlier `now`
                            # than this task's park: it was held no time.
                            gated_since = min(park_time.pop(ptid, now), now)
                            stall_acc[STALL_GATE] += now - gated_since
                            if sink is not None:
                                sink.on_stall(StallEvent(
                                    tid=ptid, cause=STALL_GATE,
                                    start=gated_since, end=now))
                            if fstate is not None and indeg[ptid] > 0:
                                # A crash revoked one of its producers
                                # while parked; it re-arms when the
                                # replayed producer completes.
                                continue
                            dispatch(ptid)
        for s in succ[tid]:
            if fstate is not None and (done[s] or dispatched[s]):
                continue  # already ran against the pre-crash data
            indeg[s] -= 1
            if indeg[s] == 0:
                make_eligible(s, now)

    if completed != n_tasks:
        raise RuntimeError(
            f"schedule deadlock: {completed}/{n_tasks} tasks completed "
            f"(cyclic graph or window bug)")

    crit = graph.critical_path_seconds(lambda t: dur_of[t.tid])

    slots_per_rank = ((1 if ganged else res.cores)
                      + ((1 if ganged else res.gpus) if gpu_pools else 0))

    # Publish aggregate run metrics to the process-wide registry (one
    # O(1) batch at the end; the hot loop stays uninstrumented).
    from ..obs.metrics import get_registry
    reg = get_registry()
    reg.counter("scheduler.simulations").inc()
    reg.counter("scheduler.tasks_executed").inc(n_tasks)
    for cause, sec in stall_acc.items():
        reg.counter(f"scheduler.stall_seconds.{cause}").inc(sec)
    reg.gauge("scheduler.makespan_seconds").set(makespan)
    comm.publish(reg)
    if fstate is not None:
        fstate.stats.publish(reg)
    if sink is not None:
        hist = reg.histogram("scheduler.task_seconds")
        for ev in getattr(sink, "tasks", ()):
            hist.observe(ev.duration)

    return ScheduleResult(
        makespan=makespan,
        total_flops=graph.total_flops(),
        task_count=n_tasks,
        comm=comm,
        per_kind_busy=per_kind_busy,
        per_rank_busy=per_rank_busy,
        critical_path=crit,
        config=cfg,
        slots_per_rank=slots_per_rank,
        stall_seconds=dict(stall_acc),
        recovery=fstate.stats if fstate is not None else None,
    )


def forkjoin_config(machine: "MachineModel", nodes: int, ranks_per_node: int,
                    *, use_gpu: bool = False,
                    granularity: str = "op") -> RunConfig:
    """The ScaLAPACK/POLAR execution model: fork-join over library
    calls (each call internally parallel, calls never overlap), CPU
    ranks.  ``granularity="phase"`` gives the stricter per-panel BSP
    model (the A4 ablation's extreme point).
    """
    return RunConfig(machine=machine, nodes=nodes,
                     ranks_per_node=ranks_per_node, use_gpu=use_gpu,
                     lookahead=0, barrier_per_phase=True,
                     barrier_granularity=granularity)


def taskbased_config(machine: "MachineModel", nodes: int, ranks_per_node: int,
                     *, use_gpu: bool, lookahead: Optional[int] = None
                     ) -> RunConfig:
    """The SLATE execution model: dependency-driven, optional lookahead."""
    return RunConfig(machine=machine, nodes=nodes,
                     ranks_per_node=ranks_per_node, use_gpu=use_gpu,
                     lookahead=lookahead, barrier_per_phase=False)
