"""Exporters and aggregate views over captured timelines.

Two renderings of a :class:`~repro.obs.timeline.TimelineSink`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format, loadable in Perfetto or
  ``chrome://tracing``: one "process" per rank, one "thread" per
  execution slot (core / GPU), complete ("X") events per task with the
  kernel kind as category, counter tracks for in-flight transfers, and
  instant events for barriers.
* :func:`ascii_gantt` — a terminal Gantt/utilization strip (rank ×
  time, kernel-kind letters) so a trace is inspectable without leaving
  the shell.

This module is also the single source of truth for the post-mortem
aggregates (:func:`kernel_breakdown`, :func:`rank_utilization`); the
CLI and :mod:`repro.perf.report` read them from here.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .timeline import NET_FAULT_KINDS, TimelineSink

#: Chrome-trace thread ids: cpu/thr slot i -> i, gpu slot i -> base + i.
GPU_TID_BASE = 1000


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def _kind_busy(source) -> Dict[str, float]:
    """per-kind busy seconds from a ScheduleResult or TimelineSink."""
    pk = source.per_kind_busy
    return pk() if callable(pk) else pk


def kernel_breakdown(source) -> List[Tuple[str, float, float]]:
    """(kind, busy seconds, share of total busy time), sorted descending.

    ``source`` is a ``ScheduleResult`` or a :class:`TimelineSink`.
    """
    busy = _kind_busy(source)
    total = sum(busy.values())
    if total == 0.0:
        return []
    rows = [(k, v, v / total) for k, v in busy.items()]
    rows.sort(key=lambda r: -r[1])
    return rows


def rank_utilization(result, normalize: bool = True) -> Dict[str, float]:
    """min/mean/max busy fraction over ranks.

    With ``normalize=True`` (default) the per-rank busy-slot-seconds
    are divided by ``makespan * slots_per_rank``, so the fraction is a
    true utilization in [0, 1].  ``normalize=False`` restores the
    legacy view (busy seconds over makespan only), which exceeds 1 for
    multi-slot ranks.
    """
    if result.makespan == 0.0 or not result.per_rank_busy:
        return {"min": 0.0, "mean": 0.0, "max": 0.0}
    denom = result.makespan
    if normalize:
        denom *= max(getattr(result, "slots_per_rank", 1) or 1, 1)
    fracs = [b / denom for b in result.per_rank_busy]
    return {
        "min": min(fracs),
        "mean": sum(fracs) / len(fracs),
        "max": max(fracs),
    }


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def _slot_tid(slot: str) -> int:
    """Stable thread id for a slot label ("cpu3" -> 3, "gpu1" -> 1001,
    "thr2" -> 2 for the threaded backend's pool lanes; the real
    backends' driver lane "drv" and process lanes "wN" hash like any
    custom label)."""
    if slot.startswith("gpu"):
        return GPU_TID_BASE + int(slot[3:] or 0)
    if slot.startswith(("cpu", "thr")):
        return int(slot[3:] or 0)
    # Custom sinks' labels: stable across processes (hash() is not).
    return sum(ord(c) * 31 ** i for i, c in enumerate(slot)) % GPU_TID_BASE

def chrome_trace(timeline: TimelineSink) -> Dict[str, object]:
    """Render a timeline as a Chrome ``trace_event`` JSON object.

    Timestamps are microseconds (the format's unit).  Every task event
    carries ``ph``/``ts``/``dur``/``pid``/``tid``; ``dur`` is the
    scheduler-charged duration, so summed per-pid durations equal
    ``ScheduleResult.per_rank_busy`` exactly.
    """
    events: List[Dict[str, object]] = []
    ranks = sorted({t.rank for t in timeline.tasks}
                   | {x.src for x in timeline.transfers}
                   | {x.dst for x in timeline.transfers})
    sched_pid = (max(ranks) + 1) if ranks else 0

    for rank in ranks:
        events.append({"name": "process_name", "ph": "M", "pid": rank,
                       "args": {"name": f"rank {rank}"}})
    events.append({"name": "process_name", "ph": "M", "pid": sched_pid,
                   "args": {"name": "scheduler"}})
    for rank, slot in timeline.slots():
        events.append({"name": "thread_name", "ph": "M", "pid": rank,
                       "tid": _slot_tid(slot), "args": {"name": slot}})
    # Label the scheduler-process rows Perfetto would otherwise show as
    # bare tids; only rows that actually carry events get a name, so
    # traces without faults/stalls are unchanged.
    all_faults = list(getattr(timeline, "faults", ()))
    net_faults = [f for f in all_faults if f.kind in NET_FAULT_KINDS]
    other_faults = [f for f in all_faults if f.kind not in NET_FAULT_KINDS]
    for tid, name, stream in (
            (0, "barriers", timeline.barriers),
            (1, "stalls", timeline.stalls),
            (2, "faults / health", other_faults),
            (3, "sanitizer", getattr(timeline, "sanitizer", ())),
            (4, "distsan", getattr(timeline, "analysis", ())),
            (5, "chaos / net", net_faults)):
        if stream:
            events.append({"name": "thread_name", "ph": "M",
                           "pid": sched_pid, "tid": tid,
                           "args": {"name": name}})

    for t in timeline.tasks:
        args: Dict[str, object] = {"tid": t.tid, "phase": t.phase,
                                   "flops": t.flops}
        if getattr(t, "measured", False):
            # Only measured runs carry the flag, so simulated traces
            # stay byte-identical to their pre-measured-backend form.
            args["measured"] = True
            if getattr(t, "cpu", 0.0) > 0.0:
                args["cpu_ms"] = t.cpu * 1e3
        events.append({
            "name": t.label or t.kind,
            "cat": t.kind,
            "ph": "X",
            "ts": t.start * 1e6,
            "dur": t.duration * 1e6,
            "pid": t.rank,
            "tid": _slot_tid(t.slot),
            "args": args,
        })

    # In-flight transfer counters: one track, one series per link leg.
    deltas: List[Tuple[float, int, str]] = []
    for x in timeline.transfers:
        deltas.append((x.start, +1, x.leg))
        deltas.append((x.end, -1, x.leg))
    deltas.sort(key=lambda d: (d[0], -d[1]))
    inflight: Dict[str, int] = {}
    for ts, step, leg in deltas:
        inflight[leg] = inflight.get(leg, 0) + step
        events.append({
            "name": "inflight transfers",
            "ph": "C",
            "ts": ts * 1e6,
            "pid": sched_pid,
            "args": dict(sorted(inflight.items())),
        })

    for b in timeline.barriers:
        events.append({
            "name": f"barrier phase {b.phase}",
            "cat": "barrier",
            "ph": "X",
            "ts": b.time * 1e6,
            "dur": max((b.until - b.time) * 1e6, 0.0),
            "pid": sched_pid,
            "tid": 0,
        })

    for s in timeline.stalls:
        events.append({
            "name": s.cause,
            "cat": "stall",
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": sched_pid,
            "tid": 1,
            "args": {"tid": s.tid},
        })

    # Fault/recovery actions as instant events on the scheduler row;
    # network-chaos kinds land on their own lane (tid 5) so a trace of
    # a chaotic run separates injected wire trouble from recovery.
    for f in all_faults:
        chaotic = f.kind in NET_FAULT_KINDS
        events.append({
            "name": f"{f.kind} r{f.rank}",
            "cat": "chaos" if chaotic else "fault",
            "ph": "i",
            "s": "g",
            "ts": f.time * 1e6,
            "pid": sched_pid,
            "tid": 5 if chaotic else 2,
            "args": {"tid": f.tid, "kind": f.kind, "rank": f.rank,
                     "detail": f.detail},
        })

    # TileSan footprint findings as instants on their own row.
    for s in getattr(timeline, "sanitizer", ()):
        events.append({
            "name": f"{s.kind} t{s.tid}",
            "cat": "sanitizer",
            "ph": "i",
            "s": "g",
            "ts": s.time * 1e6,
            "pid": sched_pid,
            "tid": 3,
            "args": {"tid": s.tid, "kind": s.kind,
                     "task_kind": s.task_kind, "label": s.label,
                     "ref": list(s.ref), "detail": s.detail},
        })

    # DistSan findings (model checker / HB / protocol) as instants.
    for a in getattr(timeline, "analysis", ()):
        events.append({
            "name": f"{a.checker}:{a.kind}",
            "cat": "distsan",
            "ph": "i",
            "s": "g",
            "ts": a.time * 1e6,
            "pid": sched_pid,
            "tid": 4,
            "args": {"tid": a.tid, "checker": a.checker,
                     "kind": a.kind, "detail": a.detail},
        })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(timeline: TimelineSink, path: str) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(timeline), fh)
    return path


# ---------------------------------------------------------------------------
# Terminal Gantt
# ---------------------------------------------------------------------------

def _kind_symbols(kinds: List[str]) -> Dict[str, str]:
    """Assign each kind a distinct single letter (first free char)."""
    symbols: Dict[str, str] = {}
    used: set = set()
    for kind in sorted(kinds):
        chosen = None
        for ch in kind + kind.upper():
            if ch not in used:
                chosen = ch
                break
        if chosen is None:  # > 2x alphabet collisions: degenerate fallback
            chosen = "?"
        symbols[kind] = chosen
        used.add(chosen)
    return symbols


def ascii_gantt(timeline: TimelineSink, width: int = 72,
                max_ranks: int = 16) -> str:
    """Terminal Gantt of a captured timeline.

    One heat-strip row per rank: each column is a ``span/width`` time
    bucket showing the symbol of the kernel kind that occupied most of
    that bucket (``.`` = idle); the right margin shows the rank's true
    utilization (busy-slot-seconds over ``span * slots``).  A legend
    maps symbols back to kernel kinds.
    """
    span = timeline.span
    if not timeline.tasks or span == 0.0:
        return "gantt: empty timeline\n"
    ranks = sorted({t.rank for t in timeline.tasks})
    shown = ranks[:max_ranks]
    symbols = _kind_symbols(sorted({t.kind for t in timeline.tasks}))
    slots_of: Dict[int, set] = {r: set() for r in ranks}
    for t in timeline.tasks:
        slots_of[t.rank].add(t.slot)

    # occupancy[rank][bucket] -> {kind: seconds}
    occ: Dict[int, List[Dict[str, float]]] = {
        r: [{} for _ in range(width)] for r in shown}
    busy = {r: 0.0 for r in ranks}
    for t in timeline.tasks:
        busy[t.rank] += t.duration
        if t.rank not in occ:
            continue
        b0 = min(int(t.start / span * width), width - 1)
        b1 = min(int(t.end / span * width), width - 1)
        row = occ[t.rank]
        for b in range(b0, b1 + 1):
            lo = max(t.start, b * span / width)
            hi = min(t.end, (b + 1) * span / width)
            if hi > lo:
                row[b][t.kind] = row[b].get(t.kind, 0.0) + hi - lo

    lines = [f"gantt: {span:.3g} s captured span, "
             f"{len(shown)} of {len(ranks)} ranks, "
             f"{len(timeline.tasks)} tasks"]
    for rank in shown:
        strip = []
        for bucket in occ[rank]:
            if not bucket:
                strip.append(".")
            else:
                strip.append(symbols[max(bucket, key=bucket.get)])
        util = busy[rank] / (span * max(len(slots_of[rank]), 1))
        lines.append(f"r{rank:<4}|{''.join(strip)}| {util * 100:5.1f}%")
    legend = "  ".join(f"{sym}={kind}"
                       for kind, sym in sorted(symbols.items()))
    lines.append(f"legend: {legend}  .=idle")
    stalls = timeline.stall_seconds()
    if stalls:
        lines.append("stalls: " + "  ".join(
            f"{cause}={sec:.3g}s" for cause, sec in sorted(stalls.items())))
    return "\n".join(lines) + "\n"


def gantt_and_legend(timeline: TimelineSink, width: int = 72,
                     max_ranks: int = 16) -> Optional[str]:
    """``ascii_gantt`` or ``None`` for an empty timeline (CLI helper)."""
    if not timeline.tasks:
        return None
    return ascii_gantt(timeline, width=width, max_ranks=max_ranks)
