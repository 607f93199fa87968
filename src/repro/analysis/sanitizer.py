"""TileSan: dynamic footprint sanitizer for task payloads.

The task runtime (``Runtime.submit``) trusts the caller's declared
``reads``/``writes`` tile footprints: dependencies are inferred from
them, and the threaded backend (:class:`~repro.runtime.parallel.ParallelExecutor`)
reorders anything they leave unordered.  A payload that touches a tile
it did not declare is therefore a *silent data race* — correct under
eager execution, flaky under ``backend="threads"``.

TileSan closes that hole dynamically.  While a payload runs, a
per-thread *frame* is active; :class:`~repro.dist.matrix.DistMatrix`
``tile()``/``set_tile()`` (and the scalar pseudo-tile sync points)
report every actual access into the frame, where it is diffed against
the declaration:

* **undeclared-read** — payload read a tile absent from ``reads`` and
  ``writes`` (reading a declared *write* tile is fine: declared writes
  are in/out, payloads update tiles in place);
* **undeclared-write** — payload wrote a tile absent from ``writes``
  (seen only through ``set_tile``, which then refuses the call: it is
  driver-level);
* **phantom-declaration** — a declared *observable* tile the payload
  never touched: not a race, but over-synchronization that serializes
  the DAG for nothing (reported on frame exit, never fatal mid-run
  numerics-wise — in ``raise`` mode it still raises after the payload
  completed, so state is consistent);
* **sync-in-payload** — ``DistMatrix.to_array()`` or
  ``ScalarResult.value`` used inside a payload: a re-entrant sync
  hazard (on a deferred runtime the inner sync is a no-op and the
  value read is stale/partial).

"Observable" means the ref is registered in the graph's tile registry
with a real owner rank (``DistMatrix`` tiles: QR's T and V factors and
the reduction partials included).  The only other kind of ref, a scalar
ref (reduction results, gather buffers, LU pivots), names a
driver-local box the sanitizer cannot see, so it is exempt from the
phantom check and its accesses are not recorded.

Modes (``Runtime(sanitize=...)`` or the ``REPRO_SANITIZE`` env var):
``"raise"`` aborts on the first finding (:class:`SanitizerError`),
``"warn"`` emits :class:`SanitizerWarning` and keeps collecting,
``None``/unset disables instrumentation entirely.  Individual tasks
opt out with ``submit(..., sanitize=False)``.

Observed footprints are kept per task so the happens-before checker
(:func:`repro.analysis.races.check_races`) can run on *actual* rather
than declared accesses; findings are also forwarded to a trace sink as
:class:`~repro.obs.timeline.SanitizerEvent` instants.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..runtime.task import Task, TileRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.timeline import TraceSink
    from ..runtime.graph import TaskGraph

#: Recognized sanitizer modes (``None`` means "off" and is also valid).
SANITIZE_MODES = ("warn", "raise")

#: Finding kinds.
UNDECLARED_READ = "undeclared-read"
UNDECLARED_WRITE = "undeclared-write"
PHANTOM_DECLARATION = "phantom-declaration"
SYNC_IN_PAYLOAD = "sync-in-payload"


def sanitize_mode_from_env(default: Optional[str] = None) -> Optional[str]:
    """Resolve the sanitizer mode from ``REPRO_SANITIZE``.

    Empty / ``0`` / ``off`` / ``none`` disable the sanitizer; ``warn``
    and ``raise`` select the mode; any other value is an error so CI
    typos fail loudly instead of silently disabling the check.
    """

    raw = os.environ.get("REPRO_SANITIZE")
    if raw is None:
        return default
    val = raw.strip().lower()
    if val in ("", "0", "off", "none", "false"):
        return None
    if val in SANITIZE_MODES:
        return val
    raise ValueError(
        f"REPRO_SANITIZE={raw!r}: expected one of {SANITIZE_MODES} or off/none/0"
    )


class SanitizerWarning(UserWarning):
    """Emitted for each finding when the sanitizer runs in warn mode."""


@dataclass(frozen=True)
class SanitizerFinding:
    """One footprint violation observed while a payload ran."""

    kind: str  # UNDECLARED_READ | UNDECLARED_WRITE | PHANTOM_DECLARATION | SYNC_IN_PAYLOAD
    tid: int
    task_kind: str
    label: str
    ref: TileRef
    detail: str = ""

    def message(self) -> str:
        where = f"task {self.tid} {self.task_kind}"
        if self.label:
            where += f" [{self.label}]"
        msg = f"TileSan: {self.kind} in {where}: ref {self.ref}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


class SanitizerError(RuntimeError):
    """Raised in ``raise`` mode on the first footprint violation."""

    def __init__(self, finding: SanitizerFinding):
        super().__init__(finding.message())
        self.finding = finding


@dataclass
class ObservedFootprint:
    """Actual tile accesses recorded for one task payload."""

    reads: Set[TileRef] = field(default_factory=set)
    writes: Set[TileRef] = field(default_factory=set)


class _Frame:
    """Per-payload recording scope (lives on one worker thread)."""

    __slots__ = ("task", "decl_reads", "decl_writes", "reads", "writes")

    def __init__(self, task: Task):
        self.task = task
        self.decl_reads = frozenset(task.reads)
        self.decl_writes = frozenset(task.writes)
        self.reads: Set[TileRef] = set()
        self.writes: Set[TileRef] = set()


class _TaskScope:
    """Context manager pushing a sanitizer frame around one payload."""

    __slots__ = ("san", "task", "frame")

    def __init__(self, san: "TileSanitizer", task: Task):
        self.san = san
        self.task = task
        self.frame: Optional[_Frame] = None

    def __enter__(self) -> "_TaskScope":
        self.frame = _Frame(self.task)
        self.san._stack().append(self.frame)
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        frame = self.frame
        self.san._stack().pop()
        # Record what we saw even on failure so post-mortem race checks
        # run on actual accesses; skip the phantom check if the payload
        # blew up (it may not have reached its declared tiles yet).
        self.san._finish_frame(frame, payload_ok=exc_type is None)
        return False


class TileSanitizer:
    """Dynamic footprint sanitizer shared by a :class:`Runtime`.

    Thread-safe: frames are thread-local (payloads run on executor
    worker threads), findings and observed footprints are appended
    under a lock.  Accesses made outside any payload (driver-level
    ``tile()`` calls, gathers) are ignored.
    """

    def __init__(self, graph: "TaskGraph", mode: str = "raise",
                 sink: Optional["TraceSink"] = None):
        if mode not in SANITIZE_MODES:
            raise ValueError(f"sanitize mode {mode!r}: expected one of {SANITIZE_MODES}")
        self.graph = graph
        self.mode = mode
        self.sink = sink
        self.findings: List[SanitizerFinding] = []
        self.observed: Dict[int, ObservedFootprint] = {}
        self.tasks_checked = 0
        self._tls = threading.local()
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- frames

    def _stack(self) -> List[_Frame]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = []
            self._tls.stack = st
        return st

    def _current(self) -> Optional[_Frame]:
        st = getattr(self._tls, "stack", None)
        return st[-1] if st else None

    @property
    def in_payload(self) -> bool:
        """True when a payload frame is active on the calling thread."""

        return self._current() is not None

    def task_scope(self, task: Task) -> _TaskScope:
        """Context manager instrumenting one payload execution."""

        return _TaskScope(self, task)

    # ---------------------------------------------------------------- hooks

    def _observable(self, ref: TileRef) -> bool:
        # DistMatrix tiles are registered with their owner rank;
        # scalar refs are not, so they are exempt from the phantom
        # check.
        return ref in self.graph.tile_owner

    def on_access(self, ref: TileRef, write: bool) -> None:
        """Record one actual tile access from ``DistMatrix``.

        No-op when called outside a payload (driver-level access).
        """

        frame = self._current()
        if frame is None:
            return
        if write:
            frame.writes.add(ref)
            if ref not in frame.decl_writes:
                self._report(
                    SanitizerFinding(
                        UNDECLARED_WRITE,
                        frame.task.tid,
                        frame.task.kind.name,
                        frame.task.label,
                        ref,
                        "payload wrote a tile absent from writes=",
                    )
                )
        elif ref in frame.decl_writes:
            # Declared writes are in/out: payloads update tiles in place,
            # so a read of a declared-write tile is part of the write.
            frame.writes.add(ref)
        elif ref in frame.decl_reads:
            frame.reads.add(ref)
        else:
            frame.reads.add(ref)
            self._report(
                SanitizerFinding(
                    UNDECLARED_READ,
                    frame.task.tid,
                    frame.task.kind.name,
                    frame.task.label,
                    ref,
                    "payload read a tile absent from reads=/writes=",
                )
            )

    def on_sync(self, ref: TileRef, what: str) -> None:
        """Flag a re-entrant sync point used inside a payload.

        ``DistMatrix.to_array()`` and ``ScalarResult.value`` are sync
        points: on a deferred runtime they normally drain the executor,
        but inside a payload the inner sync is suppressed and the value
        read may be stale or partial.  No-op outside payloads.
        """

        frame = self._current()
        if frame is None:
            return
        self._report(
            SanitizerFinding(
                SYNC_IN_PAYLOAD,
                frame.task.tid,
                frame.task.kind.name,
                frame.task.label,
                ref,
                f"{what} inside a payload is a re-entrant sync hazard",
            )
        )

    # ------------------------------------------------------------- reporting

    def _report(self, finding: SanitizerFinding) -> None:
        with self._lock:
            self.findings.append(finding)
        if self.sink is not None:
            # Sinks must never break a run.
            with contextlib.suppress(Exception):  # pragma: no cover
                from ..obs.timeline import SanitizerEvent

                self.sink.on_sanitizer(
                    SanitizerEvent(
                        kind=finding.kind,
                        tid=finding.tid,
                        task_kind=finding.task_kind,
                        label=finding.label,
                        ref=finding.ref,
                        detail=finding.detail,
                    )
                )
        if self.mode == "raise":
            raise SanitizerError(finding)
        warnings.warn(finding.message(), SanitizerWarning, stacklevel=4)

    def _finish_frame(self, frame: _Frame, payload_ok: bool) -> None:
        task = frame.task
        with self._lock:
            self.tasks_checked += 1
            obs = self.observed.setdefault(task.tid, ObservedFootprint())
            obs.reads |= frame.reads
            obs.writes |= frame.writes
        if not payload_ok:
            return
        touched = frame.reads | frame.writes
        for ref in task.reads + task.writes:
            if ref in touched or not self._observable(ref):
                continue
            self._report(
                SanitizerFinding(
                    PHANTOM_DECLARATION,
                    task.tid,
                    task.kind.name,
                    task.label,
                    ref,
                    "declared tile never touched by the payload "
                    "(over-synchronization)",
                )
            )

    # --------------------------------------------------------------- queries

    def footprints(self) -> Dict[int, Tuple[Set[TileRef], Set[TileRef]]]:
        """Merged declared ∪ observed footprints, keyed by tid.

        Suitable for :func:`repro.analysis.races.check_races`: declared
        footprints keep the pseudo-tile dependencies the sanitizer
        cannot observe, observed footprints add anything a payload
        touched beyond its declaration (warn mode only — raise mode
        aborts before that happens).
        """

        with self._lock:
            observed = {
                tid: (set(fp.reads), set(fp.writes))
                for tid, fp in self.observed.items()
            }
        out: Dict[int, Tuple[Set[TileRef], Set[TileRef]]] = {}
        for task in self.graph.tasks:
            reads = set(task.reads)
            writes = set(task.writes)
            obs = observed.get(task.tid)
            if obs is not None:
                reads |= obs[0]
                writes |= obs[1]
            out[task.tid] = (reads - writes, writes)
        return out

    def summary(self) -> Dict[str, int]:
        """Counts by finding kind plus tasks checked (for CLI output)."""

        with self._lock:
            counts: Dict[str, int] = {}
            for f in self.findings:
                counts[f.kind] = counts.get(f.kind, 0) + 1
            counts["tasks_checked"] = self.tasks_checked
        return counts
