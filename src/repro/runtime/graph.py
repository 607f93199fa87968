"""DAG construction by read/write dependency inference.

Implements exactly the semantics of OpenMP ``task depend`` clauses,
which is how SLATE sequences its tiles:

* read-after-write: a task reading tile t depends on t's last writer;
* write-after-write: a task writing t depends on t's last writer;
* write-after-read: a task writing t depends on every reader of t
  since the last write.

Tasks are added in program order; the builder maintains per-tile
last-writer and reader sets and emits explicit dependency edges so the
scheduler never needs the tile tables again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .task import Task, TaskKind, TileRef


class GraphValidationError(ValueError):
    """A task graph violates the OpenMP-depend structural invariants."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = problems
        preview = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        super().__init__(f"{len(problems)} graph invariant violation(s): "
                         f"{preview}{more}")


class ScheduleTables:
    """What a recorded graph says about scheduling it, on any machine.

    Built once per recorded graph by :meth:`TaskGraph.schedule_tables`
    for :func:`repro.runtime.scheduler.simulate`, which only reads it:

    * ``succ[tid]`` — the dependents of ``tid``, in program order;
    * ``dep_bytes[tid][k]`` — the payload of the edge
      ``tasks[tid].deps[k] -> tid``: bytes of the tiles ``tid`` reads
      that this producer wrote (0 for a pure ordering edge);
    * ``cold[tid]`` — ``(ref, owner, nbytes)`` of each cold read;
    * ``price_keys`` — the distinct ``(kind, flops, tile_dim, coarse)``
      a task's duration depends on, and ``price_of[tid]`` the index of
      ``tid``'s key (what a machine model prices once per key).
    """

    __slots__ = ("succ", "dep_bytes", "cold", "price_keys", "price_of")

    def __init__(self, graph: "TaskGraph") -> None:
        tasks = graph.tasks
        size = graph.tile_bytes.get
        owner = graph.tile_owner
        succ: List[List[int]] = [[] for _ in tasks]
        dep_bytes: List[Tuple[int, ...]] = []
        keys: Dict[Tuple[TaskKind, float, int, float], int] = {}
        price_of: List[int] = []
        for t in tasks:
            reads = t.reads
            row = []
            for d in t.deps:
                succ[d].append(t.tid)
                wr = tasks[d].writes
                nbytes = 0
                for ref in reads:
                    if ref in wr:
                        nbytes += size(ref, 0)
                row.append(nbytes)
            dep_bytes.append(tuple(row))
            price_of.append(keys.setdefault(
                (t.kind, t.flops, t.tile_dim, t.coarse), len(keys)))
        self.succ = succ
        self.dep_bytes = dep_bytes
        self.cold = [tuple([(ref, owner[ref], size(ref, 0))
                            for ref in t.cold_reads]) if t.cold_reads else ()
                     for t in tasks]
        self.price_keys = list(keys)
        self.price_of = price_of


class TaskGraph:
    """An append-only task DAG with dependency inference."""

    def __init__(self) -> None:
        self.tasks: List[Task] = []
        self._last_writer: Dict[TileRef, int] = {}
        self._readers: Dict[TileRef, Set[int]] = {}
        #: bytes of each tile ref seen (for transfer costs).
        self.tile_bytes: Dict[TileRef, int] = {}
        #: owning rank of registered tiles (initial placement).
        self.tile_owner: Dict[TileRef, int] = {}
        #: ``validate(end)`` resume state: tasks ``[0, _checked)`` passed,
        #: and the per-tile replay tables as of that prefix.
        self._checked = 0
        self._checked_writer: Dict[TileRef, int] = {}
        self._checked_readers: Dict[TileRef, Set[int]] = {}
        self._tables: Optional[ScheduleTables] = None

    def __len__(self) -> int:
        return len(self.tasks)

    def add(self, task: Task) -> Task:
        """Append a task, inferring its dependency edges."""
        deps: Set[int] = set()
        cold = []
        for ref in task.reads:
            w = self._last_writer.get(ref)
            if w is not None:
                deps.add(w)
            elif ref in self.tile_owner:
                cold.append(ref)
        for ref in task.writes:
            w = self._last_writer.get(ref)
            if w is not None:
                deps.add(w)
            for r in self._readers.get(ref, ()):
                deps.add(r)
        deps.discard(task.tid)
        task.deps = tuple(sorted(deps))
        task.cold_reads = tuple(cold)
        # Update tables after computing deps.
        for ref in task.reads:
            self._readers.setdefault(ref, set()).add(task.tid)
        for ref in task.writes:
            self._last_writer[ref] = task.tid
            self._readers[ref] = set()
        self.tasks.append(task)
        self._tables = None
        return task

    def register_tile(self, ref: TileRef, nbytes: int,
                      owner: int = -1) -> None:
        """Record a tile's byte size and (optionally) its owning rank."""
        self.tile_bytes[ref] = nbytes
        if owner >= 0:
            self.tile_owner[ref] = owner
        self._tables = None

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def schedule_tables(self) -> ScheduleTables:
        """The graph's :class:`ScheduleTables`, built on first use and
        rebuilt after the next :meth:`add` or :meth:`register_tile`."""
        if self._tables is None:
            self._tables = ScheduleTables(self)
        return self._tables

    def validate_topological(self) -> bool:
        """Program order must already be a topological order."""
        return all(all(d < t.tid for d in t.deps) for t in self.tasks)

    def validate(self, end: Optional[int] = None, *,
                 raise_on_error: bool = True) -> List[str]:
        """Check the structural invariants real DAG execution relies on.

        * task ids equal their position (the executor indexes by tid);
        * every dependency edge points backwards (``dep < tid``) to a
          valid task — program order is a topological order, which
          also rules out cycles;
        * explicit cycle detection over the edge set, so graphs whose
          ``deps`` were mutated after :meth:`add` still get a precise
          "cycle" report rather than an executor hang;
        * OpenMP ``task depend`` serialization per tile: a task reading
          a tile depends on its last writer (RAW), a task writing a
          tile depends on its last writer (WAW — hence no two
          concurrent writers per tile) and on every reader since that
          write (WAR).

        ``validate()`` is the full stateless rescan of the whole graph
        — what tests, ``repro lint`` and mutated-graph detection rely
        on.  ``validate(end)`` is what an executor calls once per
        window: it checks ``[0, end)`` by resuming from the prefix a
        previous ``validate(end)`` already passed (carrying the
        last-writer/reader replay tables), so a run checks every task
        exactly once with the same rules.  A prefix with problems is
        never remembered.

        Returns the list of problems (empty when valid); raises
        :class:`GraphValidationError` instead when ``raise_on_error``.
        """
        if end is None:
            problems = self._check(0, len(self.tasks), {}, {})
        elif end <= self._checked:
            return []
        else:
            problems = self._check(self._checked, end, self._checked_writer,
                                   self._checked_readers)
            if problems:
                self._checked = 0
                self._checked_writer.clear()
                self._checked_readers.clear()
            else:
                self._checked = end
        if problems and raise_on_error:
            raise GraphValidationError(problems)
        return problems

    def _check(self, lo: int, hi: int, last_writer: Dict[TileRef, int],
               readers: Dict[TileRef, Set[int]]) -> List[str]:
        """Problems of tasks ``[lo, hi)`` given the per-tile tables as
        of ``[0, lo)``; leaves the tables as of ``[0, hi)``."""
        tasks = self.tasks
        problems: List[str] = []
        backwards = True
        for idx in range(lo, hi):
            t = tasks[idx]
            if t.tid != idx:
                problems.append(f"task at position {idx} has tid {t.tid}")
            for d in t.deps:
                if not (0 <= d < hi):
                    problems.append(
                        f"task {t.tid} depends on out-of-range task {d}")
                    backwards = False
                elif d == t.tid:
                    problems.append(f"task {t.tid} depends on itself")
                    backwards = False
                elif d > t.tid:
                    problems.append(
                        f"forward dependency edge {d} -> {t.tid} "
                        f"(program order is not topological)")
                    backwards = False

        # Kahn's algorithm over the (valid-range) edges of [0, hi).
        # Redundant when every edge already points backwards; decisive
        # when a mutated graph needs a cycle called out explicitly.
        if not backwards:
            indeg = [0] * hi
            succ: Dict[int, List[int]] = {}
            for idx in range(hi):
                for d in tasks[idx].deps:
                    if 0 <= d < hi and d != idx:
                        succ.setdefault(d, []).append(idx)
                        indeg[idx] += 1
            frontier = [i for i in range(hi) if indeg[i] == 0]
            seen = 0
            while frontier:
                seen += 1
                for s in succ.get(frontier.pop(), ()):
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        frontier.append(s)
            if seen < hi:
                problems.append(
                    f"dependency cycle among {hi - seen} task(s)")

        # Replay the per-tile writer/reader tables and require the
        # builder's direct edges (the semantics of OpenMP depend
        # clauses; guarantees no two writers of a tile can overlap).
        for idx in range(lo, hi):
            t = tasks[idx]
            deps = set(t.deps)
            for ref in t.reads:
                w = last_writer.get(ref)
                if w is not None and w not in deps and w != t.tid:
                    problems.append(
                        f"task {t.tid} reads tile {ref} without depending "
                        f"on its last writer {w}")
            for ref in t.writes:
                w = last_writer.get(ref)
                if w is not None and w not in deps and w != t.tid:
                    problems.append(
                        f"tasks {w} and {t.tid} both write tile {ref} "
                        f"with no ordering edge (concurrent writers)")
                for r in readers.get(ref, ()):
                    if r not in deps and r != t.tid:
                        problems.append(
                            f"task {t.tid} writes tile {ref} without "
                            f"depending on reader {r}")
            for ref in t.reads:
                readers.setdefault(ref, set()).add(t.tid)
            for ref in t.writes:
                last_writer[ref] = t.tid
                readers[ref] = set()
        return problems

    def check_races(self, footprints=None, *, raise_on_error: bool = True):
        """Happens-before race check (transitive, unlike :meth:`validate`).

        :meth:`validate` demands the builder's *direct* per-tile edges;
        this accepts any graph where conflicting accesses are ordered
        by *some* dependency path, and is therefore the right check for
        mutated/replayed graphs and for footprints *observed* by the
        TileSan sanitizer (``footprints`` maps tid -> (reads, writes);
        pass ``TileSanitizer.footprints()``).  Returns the list of
        :class:`repro.analysis.races.RaceFinding`; raises
        :class:`repro.analysis.races.RaceError` when ``raise_on_error``
        and races were found.
        """
        from ..analysis.races import check_races as _check
        return _check(self, footprints, raise_on_error=raise_on_error)

    def critical_path_seconds(self, duration) -> float:
        """Length of the critical path under ``duration(task) -> s``.

        A lower bound on any schedule's makespan (ignores comm).
        Durations are non-negative: a task starts at 0 or when its
        last dependency finishes.
        """
        finish = [0.0] * len(self.tasks)
        for t in self.tasks:
            start = 0.0
            for d in t.deps:
                if finish[d] > start:
                    start = finish[d]
            finish[t.tid] = start + duration(t)
        return max(finish, default=0.0)

    def total_flops(self) -> float:
        """Sum of task flop counts (executed flops, not the paper model)."""
        return sum(t.flops for t in self.tasks)

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of task kinds (used by tests and the profiler)."""
        out: Dict[str, int] = {}
        for t in self.tasks:
            out[t.kind.value] = out.get(t.kind.value, 0) + 1
        return out

    def edges(self) -> List[Tuple[int, int]]:
        """All (dep, task) edges; test/visualization helper."""
        return [(d, t.tid) for t in self.tasks for d in t.deps]
