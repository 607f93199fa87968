"""Recovery machinery for the event-driven scheduler.

:class:`ResilienceState` is the live fault/recovery state of one
simulated run.  The scheduler (:func:`repro.runtime.scheduler.simulate`)
creates one when a :class:`~repro.resilience.faults.FaultPlan` is
supplied and consults it at guarded points — every consult site is
behind ``if fstate is not None``, so a fault-free run touches none of
this and stays bit-identical to the pre-resilience scheduler.

Recovery semantics (dask/Spark-style lineage replay):

* a **transient** task failure retries on the same slot with
  exponential backoff, up to ``max_attempts``;
* a **rank crash** kills the rank's in-flight work and invalidates
  every tile whose only copy lived there; the minimal replay subgraph
  — the last-writer lineage closure of the lost tiles restricted to
  what the remaining program still needs — is recomputed via
  :func:`lineage_replay_set` and re-executed on surviving ranks,
  charging re-execution and re-communication to the makespan;
* a **straggler**-inflated task only runs slower: it is neither
  duplicated nor moved, as on the real runtime.

The scheduler owns all timing state; this module owns fault policy
(who dies when, which attempts fail, who is slow) and the pure graph
computation of what must be replayed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from .faults import FaultPlan, RecoveryStats

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.network import NetworkModel
    from ..runtime.task import Task


class FaultToleranceExceeded(RuntimeError):
    """A task failed more times than the plan's retry budget allows."""


class AllRanksDead(RuntimeError):
    """The fault plan killed every rank; nothing can recover."""


def lineage_replay_set(tasks: Sequence["Task"], done: Sequence[bool],
                       lost: Set[int]) -> Set[int]:
    """Minimal set of completed tasks to re-execute after tile loss.

    ``lost`` holds tids of completed tasks whose outputs have no
    surviving copy.  Walk the dependency (last-writer) chains of every
    task that still has to run: any lost producer it needs must be
    replayed, and a replayed producer in turn needs *its* inputs, so
    lost producers of replayed tasks join the set transitively —
    exactly the recursive recomputation dask's scheduler performs when
    a worker holding intermediate results dies.

    Completed tasks whose outputs are lost but that nothing pending
    (transitively) reads are *not* replayed — their results are dead.
    """
    replay: Set[int] = set()
    stack: List[int] = [t.tid for t in tasks if not done[t.tid]]
    seen: Set[int] = set(stack)
    while stack:
        tid = stack.pop()
        for d in tasks[tid].deps:
            if d in lost and d not in replay:
                replay.add(d)
            # A dep that is itself rerunning (lost, or revoked) pulls
            # its own inputs back into consideration.
            if (d in replay or not done[d]) and d not in seen:
                seen.add(d)
                stack.append(d)
    return replay


class ResilienceState:
    """Per-run fault state the scheduler consults and mutates."""

    def __init__(self, plan: FaultPlan, n_tasks: int, ranks: int,
                 net: "NetworkModel") -> None:
        for c in plan.crashes:
            if c.rank >= ranks:
                raise ValueError(
                    f"fault plan crashes rank {c.rank} but the run has "
                    f"only {ranks} ranks")
        if len({c.rank for c in plan.crashes}) >= ranks:
            raise AllRanksDead(
                f"fault plan kills all {ranks} ranks; at least one must "
                f"survive to recover")
        self.plan = plan
        self.net = net
        self.ranks = ranks
        self.dead: Set[int] = set()
        self.last_crash_time = 0.0
        #: Per-task attempt epoch; bumping it invalidates queued
        #: completion events (lazy revocation).
        self.attempt = [0] * n_tasks
        self.stats = RecoveryStats()
        # Pre-sort stragglers/links once; lookups are O(#faults).
        self._stragglers = plan.stragglers
        self._links = plan.links

    # ------------------------------------------------------------------
    # Crash bookkeeping
    # ------------------------------------------------------------------

    def survivors(self) -> List[int]:
        return [r for r in range(self.ranks) if r not in self.dead]

    def mark_dead(self, rank: int, now: float) -> None:
        self.dead.add(rank)
        if len(self.dead) >= self.ranks:
            raise AllRanksDead("every rank has crashed")
        self.last_crash_time = max(self.last_crash_time, now)
        self.stats.crashes += 1
        self.stats.dead_ranks = tuple(sorted(self.dead))

    def remap_rank(self, rank: int) -> int:
        """Deterministic replacement rank for a dead rank's work."""
        if rank not in self.dead:
            return rank
        alive = self.survivors()
        return alive[rank % len(alive)]

    @property
    def recovery_floor(self) -> float:
        """No replayed/remapped work starts before detection completes."""
        return self.last_crash_time + self.plan.crash_detect_delay

    # ------------------------------------------------------------------
    # Transient failures
    # ------------------------------------------------------------------

    def transient_schedule(self, tid: int, kind: str,
                           attempt_dur: float) -> Tuple[int, float]:
        """(failed attempts, extra seconds before the winning attempt).

        Deterministic per (task, epoch): the same plan produces the
        same retry storm regardless of dispatch order.  Raises
        :class:`FaultToleranceExceeded` when every allowed attempt
        fails.
        """
        tf = self.plan.transient
        if tf is None or tf.probability <= 0.0:
            return 0, 0.0
        rng = self.plan.task_rng(tid, self.attempt[tid])
        fails = 0
        while fails < tf.max_attempts and rng.random() < tf.probability:
            fails += 1
        if fails >= tf.max_attempts:
            raise FaultToleranceExceeded(
                f"task {tid} ({kind}) failed {fails} consecutive "
                f"attempts (max_attempts={tf.max_attempts}, "
                f"p={tf.probability})")
        if fails == 0:
            return 0, 0.0
        extra = 0.0
        for k in range(fails):
            extra += attempt_dur + tf.backoff * (2.0 ** k)
        self.stats.transient_failures += fails
        self.stats.retried_tasks += 1
        self.stats.reexecution_seconds += fails * attempt_dur
        return fails, extra

    # ------------------------------------------------------------------
    # Stragglers & link degradation
    # ------------------------------------------------------------------

    def straggler_factor(self, rank: int, t: float) -> float:
        """Combined slowdown factor on ``rank`` at time ``t`` (>= 1)."""
        f = 1.0
        for s in self._stragglers:
            if s.rank == rank and s.start <= t < s.end:
                f *= s.factor
        return f

    def degrade_transfer(self, src: int, dst: int, t: float, nbytes: int,
                         same_node: bool, dur: float) -> float:
        """Apply matching link degradations to a transfer duration.

        α and β multipliers act on the base leg's latency and byte
        time separately: ``dur' = dur + (αf-1)·α + (βf-1)·bytes/β``.
        """
        af = bf = 1.0
        for f in self._links:
            if f.matches(src, dst, t):
                af *= f.alpha_factor
                bf *= f.beta_factor
        if af == 1.0 and bf == 1.0:
            return dur
        net = self.net
        if same_node:
            lat, bw = net.intra_latency, net.intra_bandwidth
        else:
            lat, bw = net.inter_latency, net.inter_bandwidth
        self.stats.degraded_transfers += 1
        return dur + (af - 1.0) * lat + (bf - 1.0) * nbytes / bw
