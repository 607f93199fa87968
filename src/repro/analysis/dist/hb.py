"""Cross-process happens-before checking over *executed* runs.

PR 4's ``check_races`` proves the declared task graph race-free; this
module proves the **execution** was.  The distinction matters for the
processes backend: tiles live in shared memory mapped by several
processes at once, so ordering comes only from the runtime's own
machinery — a dispatch message, a completion reply, the driver's
single-threaded event loop.  If the scheduler ever let two attempts
touching one tile overlap, the graph checker would stay green while
the bytes raced.

The happens-before relation is rebuilt from a recorded
:class:`~repro.runtime.distributed.events.DistTraceRecorder`:

* **Driver program order** — every recorded event happened on (or was
  observed by) the single driver loop; its sequence numbers give a
  total order on driver-side nodes.
* **Worker program order** — a worker executes tasks in the order the
  driver dispatched to it (sequential recv loop), so per-worker
  execution nodes chain in dispatch order.
* **Message edges** — dispatch → execution (the task message's
  send→recv) and execution → accepted reply (recv of done/fail).

Execution nodes exist only for attempts whose reply the executor
*accepted*; an attempt revoked by a crash has no reply, so its
(discarded, snapshot-restored) accesses are conservatively skipped.
Shared-tile accesses hang off execution nodes (worker attempts) and
driver-lane/pin nodes (the driver); any write unordered with another
access to the same segment-backed tile is a finding.  Reachability is
the same transitive-ancestor bitset trick as
:func:`repro.analysis.races.ancestor_bitsets` — one shift+mask per
query.

:func:`audit_refcounts` separately replays the recorded shm lifecycle
(create/pin/incref/decref/unlink) and cross-checks it against the OS-level
``/dev/shm`` scan taken at close — bookkeeping and kernel must agree
that nothing leaked and nothing was freed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...runtime.distributed.events import (EV_COMPLETE, EV_CREATE,
                                           EV_DECREF, EV_DISPATCH, EV_DRIVER,
                                           EV_FAIL, EV_INCREF, EV_PIN,
                                           EV_UNLINK, DistEvent,
                                           DistTraceRecorder)
from ...runtime.task import Task, TileRef

__all__ = ["HBFinding", "check_hb", "audit_refcounts"]


@dataclass(frozen=True)
class HBFinding:
    """One ordering or refcount defect in a recorded run."""

    kind: str       # race-* | refcount-* | leak
    ref: Tuple[int, ...] = ()
    segment: str = ""
    first: int = -1     # tid of the earlier access (races)
    second: int = -1
    detail: str = ""

    def message(self) -> str:
        if self.kind.startswith("race"):
            return (f"{self.kind} on shared tile {self.ref} "
                    f"[{self.segment}]: task {self.first} and task "
                    f"{self.second} unordered by happens-before"
                    + (f" ({self.detail})" if self.detail else ""))
        return f"{self.kind}: {self.detail}"


@dataclass
class _Node:
    """One vertex of the happens-before graph."""

    idx: int
    actor: str                      # "driver" | "w{wid}"
    tid: int = -1
    reads: Tuple[TileRef, ...] = ()
    writes: Tuple[TileRef, ...] = ()
    preds: List[int] = field(default_factory=list)


def _build_graph(rec: DistTraceRecorder,
                 tasks: Sequence[Task]) -> Tuple[List[_Node],
                                                 Dict[TileRef, str]]:
    """Nodes in topological order + the shared-tile universe."""
    by_tid: Dict[int, Task] = {t.tid: t for t in tasks}
    shared: Dict[TileRef, str] = dict(rec.tile_segment)

    def accesses(tid: int) -> Tuple[Tuple[TileRef, ...],
                                    Tuple[TileRef, ...]]:
        t = by_tid.get(tid)
        if t is None:
            return (), ()
        reads = tuple(r for r in t.reads if r in shared)
        writes = tuple(w for w in t.writes if w in shared)
        return reads, writes

    nodes: List[_Node] = []
    prev_driver = -1          # last driver-loop node
    last_exec: Dict[int, int] = {}       # wid -> last execution node
    dispatch_node: Dict[Tuple[int, int, int], int] = {}

    def add(actor: str, *, tid: int = -1,
            reads: Tuple[TileRef, ...] = (),
            writes: Tuple[TileRef, ...] = (),
            preds: Sequence[int] = ()) -> int:
        nonlocal prev_driver
        idx = len(nodes)
        node = _Node(idx=idx, actor=actor, tid=tid, reads=reads,
                     writes=writes, preds=list(preds))
        if actor == "driver":
            if prev_driver >= 0:
                node.preds.append(prev_driver)
            prev_driver = idx
        nodes.append(node)
        return idx

    for ev in sorted(rec.events, key=lambda e: e.seq):
        if ev.kind == EV_DISPATCH:
            n = add("driver", tid=ev.tid)
            dispatch_node[(ev.tid, ev.wid, ev.attempt)] = n
        elif ev.kind in (EV_COMPLETE, EV_FAIL) and ev.wid >= 0:
            dn = dispatch_node.get((ev.tid, ev.wid, ev.attempt))
            if dn is None:
                continue        # reply without a recorded dispatch
            # The worker-side execution: after the dispatch message,
            # after the worker's previous execution (sequential loop).
            reads, writes = accesses(ev.tid)
            if ev.kind == EV_FAIL:
                # A failed attempt read its inputs but its outputs
                # were discarded/restored by the driver.
                writes = ()
            preds = [dn]
            prior = last_exec.get(ev.wid)
            if prior is not None:
                preds.append(prior)
            en = add(f"w{ev.wid}", tid=ev.tid, reads=reads,
                     writes=writes, preds=preds)
            last_exec[ev.wid] = en
            # The accepted reply, back on the driver loop.
            add("driver", tid=ev.tid, preds=[en])
        elif ev.kind == EV_DRIVER:
            reads, writes = accesses(ev.tid)
            add("driver", tid=ev.tid, reads=reads, writes=writes)
        elif ev.kind == EV_PIN:
            # Installing the view (data migration from the heap tile)
            # is a driver-side write to the tile.
            add("driver", tid=-1, writes=(tuple(ev.ref),))
    return nodes, shared


def _ancestors(nodes: Sequence[_Node]) -> List[int]:
    """Transitive-ancestor bitsets; nodes are already topological
    (every pred index < node index by construction)."""
    anc: List[int] = []
    for n in nodes:
        bits = 0
        for p in n.preds:
            bits |= anc[p] | (1 << p)
        anc.append(bits)
    return anc


def check_hb(rec: DistTraceRecorder,
             tasks: Sequence[Task]) -> List[HBFinding]:
    """Race-check a recorded distributed run.

    ``tasks`` is the runtime's task list (``rt.graph.tasks``) —
    needed to resolve each executed tid's declared tile accesses.
    Returns one finding per unordered conflicting pair on a
    shared-memory tile (plus a ``leak`` finding if the close-time
    ``/dev/shm`` scan saw surviving segments).
    """
    nodes, shared = _build_graph(rec, tasks)
    anc = _ancestors(nodes)
    findings: List[HBFinding] = []

    def ordered(a: int, b: int) -> bool:
        return bool(anc[b] >> a & 1) or bool(anc[a] >> b & 1)

    # Frontier sweep per tile: keep the accesses not yet proven
    # ordered-before a later write; compare each new access against
    # the frontier only (same scheme as analysis.races).
    writers: Dict[TileRef, List[int]] = {}
    readers: Dict[TileRef, List[int]] = {}
    seen_pairs: Set[Tuple[TileRef, int, int]] = set()

    def emit(kind: str, ref: TileRef, a: int, b: int) -> None:
        pair = (ref, nodes[a].tid, nodes[b].tid)
        if pair in seen_pairs:
            return
        seen_pairs.add(pair)
        findings.append(HBFinding(
            kind=kind, ref=ref, segment=shared.get(ref, ""),
            first=nodes[a].tid, second=nodes[b].tid,
            detail=f"{nodes[a].actor} vs {nodes[b].actor}"))

    for n in nodes:
        for ref in n.writes:
            for w in writers.get(ref, ()):
                if not ordered(w, n.idx):
                    emit("race-write-write", ref, w, n.idx)
            for r in readers.get(ref, ()):
                if r != n.idx and not ordered(r, n.idx):
                    emit("race-read-write", ref, r, n.idx)
            # New write dominates any frontier entry it is ordered
            # after; keep only still-concurrent history.
            writers[ref] = [w for w in writers.get(ref, ())
                            if not (anc[n.idx] >> w & 1)] + [n.idx]
            readers[ref] = [r for r in readers.get(ref, ())
                            if not (anc[n.idx] >> r & 1)]
        for ref in n.reads:
            for w in writers.get(ref, ()):
                if w != n.idx and not ordered(w, n.idx):
                    emit("race-write-read", ref, w, n.idx)
            readers.setdefault(ref, []).append(n.idx)

    for name in rec.leaked:
        findings.append(HBFinding(
            kind="leak", segment=name,
            detail=f"segment {name} survived close() in /dev/shm"))
    return findings


def audit_refcounts(rec: DistTraceRecorder) -> List[HBFinding]:
    """Replay the recorded shm lifecycle and flag imbalance.

    Checks, per segment (one per matrix): created exactly once,
    refcount never negative, the recorded post-event counts are
    self-consistent, unlinked exactly once, and nothing created was
    still missing an unlink when the store closed; per tile: pinned at
    most once, into a segment that exists.
    """
    findings: List[HBFinding] = []
    expect: Dict[str, int] = {}
    unlinked: Set[str] = set()
    pinned: Set[Tuple[int, ...]] = set()

    def flag(kind: str, seg: str, detail: str) -> None:
        findings.append(HBFinding(kind=kind, segment=seg, detail=detail))

    for ev in rec.events:
        seg = ev.segment
        if ev.kind == EV_CREATE:
            if seg in expect:
                flag("refcount-repin", seg,
                     f"segment {seg} created twice")
            expect[seg] = 1
        elif ev.kind == EV_PIN:
            if seg not in expect or seg in unlinked:
                flag("refcount-unknown", seg,
                     f"tile {ev.ref} pinned into unknown segment {seg}")
            if ev.ref in pinned:
                flag("refcount-repin", seg, f"tile {ev.ref} pinned twice")
            pinned.add(ev.ref)
        elif ev.kind == EV_INCREF:
            if seg not in expect:
                flag("refcount-unknown", seg,
                     f"incref of unknown segment {seg}")
                continue
            expect[seg] += 1
            if ev.refs != expect[seg]:
                flag("refcount-skew", seg,
                     f"segment {seg}: store says {ev.refs} refs, "
                     f"replay says {expect[seg]}")
        elif ev.kind == EV_DECREF:
            if seg not in expect:
                flag("refcount-unknown", seg,
                     f"decref of unknown segment {seg}")
                continue
            expect[seg] -= 1
            if expect[seg] < 0:
                flag("refcount-negative", seg,
                     f"segment {seg} refcount went negative")
            elif ev.refs != expect[seg]:
                flag("refcount-skew", seg,
                     f"segment {seg}: store says {ev.refs} refs, "
                     f"replay says {expect[seg]}")
        elif ev.kind == EV_UNLINK:
            if seg in unlinked:
                flag("refcount-double-unlink", seg,
                     f"segment {seg} unlinked twice")
            unlinked.add(seg)

    for seg in sorted(set(expect) - unlinked):
        flag("refcount-leak", seg,
             f"segment {seg} created but never unlinked")
    for name in rec.leaked:
        flag("leak", name,
             f"segment {name} survived close() in /dev/shm")
    return findings
