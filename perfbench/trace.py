"""In-memory span recorder for the traced pass.

Spans are recorded by perfbench around its calls into each layer (no
span lives inside ``src/``), kept in memory, and written once as a
Chrome trace (``chrome://tracing`` / Perfetto ``traceEvents`` JSON).
Per-task events a ``TimelineSink`` collected during a traced clock are
added on worker lanes under the span that ran them.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional

#: Chrome-trace process ids: perfbench's own spans, then one per traced
#: clock's worker lanes.
_PID_SPANS = 0


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one workload run (one identifier)."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.origin = perf_counter()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: (lane pid name, task events, perf_counter origin of the run)
        self._task_lanes: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        sp = Span(sid=len(self.spans), name=name, start=perf_counter(),
                  parent=self._stack[-1] if self._stack else None,
                  args=dict(args))
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def add_tasks(self, lane: str, events: Iterable[object],
                  origin: float) -> None:
        """Attach a sink's measured ``TaskEvent``s; their timestamps are
        seconds since ``origin`` (a ``perf_counter`` reading)."""
        self._task_lanes.append((lane, list(events), origin))

    def self_times(self) -> Dict[str, float]:
        """Self time by span name: duration minus the part of it that
        child spans cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child[sp.sid]
        return out

    def chrome_events(self) -> List[Dict[str, object]]:
        def us(t: float) -> float:
            return (t - self.origin) * 1e6

        ev: List[Dict[str, object]] = [
            {"ph": "M", "pid": _PID_SPANS, "name": "process_name",
             "args": {"name": f"perfbench {self.workload_id}"}}]
        for sp in self.spans:
            ev.append({"ph": "X", "pid": _PID_SPANS, "tid": 0,
                       "name": sp.name, "ts": us(sp.start),
                       "dur": sp.duration * 1e6,
                       "args": {"workload": self.workload_id,
                                "span": sp.sid, "parent": sp.parent,
                                **sp.args}})
        for pid, (lane, tasks, origin) in enumerate(self._task_lanes, 1):
            ev.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": lane}})
            slots: Dict[tuple, int] = {}
            for t in tasks:
                tid = slots.setdefault((t.rank, t.slot), len(slots))
                ev.append({"ph": "X", "pid": pid, "tid": tid,
                           "name": t.kind, "ts": us(origin + t.start),
                           "dur": t.duration * 1e6,
                           "args": {"tid": t.tid, "label": t.label}})
            for (rank, slot), tid in slots.items():
                ev.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": f"rank{rank}.{slot}"}})
        return ev

    def write(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms",
                       "otherData": {"workload": self.workload_id,
                                     "self_time_s": self.self_times()}},
                      fh, sort_keys=True)
            fh.write("\n")
        return path
