"""Zero-copy shared-memory tile storage for the processes backend.

Tiles that worker processes read or write live in POSIX shared memory
(:mod:`multiprocessing.shared_memory`), one segment per tile, so a
forked worker maps the parent's tile *in place* — dispatching a task
ships only a few hundred bytes of metadata, never matrix data.

Lifecycle rules (all enforced here):

* Segments are created **only in the parent** (the scheduler process).
  Workers inherit the mappings through ``fork`` and never create,
  close, or unlink segments — a SIGKILLed worker therefore cannot leak
  or tear down shared state.  The registry of live segments lives in
  the parent and survives any worker death.
* Every segment is refcounted.  The owning ``DistMatrix`` holds the
  initial reference (dropped via a ``weakref.finalize`` when the
  matrix is collected); :meth:`incref`/:meth:`decref` let snapshots or
  long-lived views pin a segment past that.
* ``close()`` force-unlinks everything still live.  It is idempotent
  and is wired into ``Runtime.close()`` / the executor, so interpreter
  shutdown never warns about leaked ``/dev/shm`` entries.

Segment names are deliberately explicit and prefixed
(``repro{pid}x{nonce}_{seq}``) so tests and the CI ``smoke`` job
can *scan* ``/dev/shm`` for leaks by prefix rather than trusting
internal bookkeeping.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SharedTileStore", "scan_segments"]

_SHM_DIR = "/dev/shm"


def scan_segments(prefix: str) -> List[str]:
    """Names of OS-level shared-memory segments carrying ``prefix``.

    Ground truth for leak gating: reads the kernel's view (``/dev/shm``
    on Linux), not this process's bookkeeping.  Returns ``[]`` on
    platforms without a scannable shm filesystem.
    """
    try:
        return sorted(n for n in os.listdir(_SHM_DIR)
                      if n.startswith(prefix))
    except OSError:  # pragma: no cover - non-Linux
        return []


class _Segment:
    __slots__ = ("shm", "array", "refs")

    def __init__(self, shm: shared_memory.SharedMemory,
                 array: np.ndarray, refs: int):
        self.shm = shm
        self.array = array
        self.refs = refs


class SharedTileStore:
    """Parent-side registry of shared-memory tile segments."""

    def __init__(self, prefix: Optional[str] = None):
        if prefix is None:
            prefix = f"repro{os.getpid()}x{secrets.token_hex(3)}"
        self.prefix = prefix
        #: Optional lifecycle observer (DistSan refcount audit):
        #: ``observer(kind, segment_name, refs_after, ref)`` with kind
        #: one of pin/incref/decref/unlink/evacuate/close.
        self.observer = None
        self._lock = threading.Lock()
        self._seq = 0
        self._segments: Dict[str, _Segment] = {}
        #: (mat_id, i, j) -> segment name: a pinned tile keeps its segment.
        self._of_ref: Dict[Tuple[int, int, int], str] = {}
        self._mat_refs: Dict[int, List[str]] = {}
        #: mat_id -> weakref to the matrix, so close() can evacuate
        #: shm-backed tiles into private copies before unlinking
        #: (results must outlive the store; a stale view would be a
        #: use-after-unmap segfault, not an exception).
        self._mats: Dict[int, "weakref.ref"] = {}
        self._closed = False

    # -- allocation ------------------------------------------------------

    def _new_segment(self, shape: Tuple[int, ...],
                     dtype: np.dtype) -> Tuple[str, np.ndarray]:
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedTileStore is closed")
            self._seq += 1
            name = f"{self.prefix}_{self._seq}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=nbytes)
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        arr.fill(0)
        with self._lock:
            self._segments[name] = _Segment(shm, arr, refs=1)
        return name, arr

    def pin_tile(self, mat: Any, i: int, j: int,
                 shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Ensure tile ``(i, j)`` of ``mat`` is backed by shared memory.

        Idempotent: a tile that has its segment keeps it (nothing
        rebinds a tile once pinned — ``DistMatrix.set_tile`` writes
        through).  The first pin moves the heap array's contents into a
        new segment; an unmaterialised (``None`` = lazily-zero) tile is
        materialised as zeros.  Returns the shm-backed array installed
        in ``mat._tiles``.
        """
        key = (i, j)
        ref = (mat.mat_id, i, j)
        seg = self._segments.get(self._of_ref.get(ref))
        if seg is not None:
            return seg.array
        first = not self._mat_refs.get(mat.mat_id)
        name, arr = self._new_segment(shape, dtype)
        self._of_ref[ref] = name
        names = self._mat_refs.setdefault(mat.mat_id, [])
        names.append(name)
        self._mats[mat.mat_id] = weakref.ref(mat)
        if self.observer is not None:
            self.observer("pin", name, 1, ref)
        if first:
            # One finalizer per matrix releases every segment the
            # matrix ever owned (the list keeps growing after
            # registration — it is captured by reference).
            weakref.finalize(mat, self._release_many, names)
        cur = mat._tiles.get(key)
        if cur is not None:
            arr[...] = cur
        mat._tiles[key] = arr
        return arr

    # -- refcounting -----------------------------------------------------

    def incref(self, name: str) -> None:
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                raise KeyError(f"unknown shm segment {name!r}")
            seg.refs += 1
            refs = seg.refs
        if self.observer is not None:
            self.observer("incref", name, refs, ())

    def decref(self, name: str) -> None:
        self._decref_name(name)

    def _decref_name(self, name: str) -> None:
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                return
            seg.refs -= 1
            refs = seg.refs
            if refs <= 0:
                del self._segments[name]
        if self.observer is not None:
            self.observer("decref", name, max(refs, 0), ())
        if refs > 0:
            return
        self._destroy(seg)
        if self.observer is not None:
            self.observer("unlink", name, 0, ())

    def _release_many(self, names: List[str]) -> None:
        for name in names:
            self._decref_name(name)

    @staticmethod
    def _destroy(seg: _Segment) -> None:
        seg.array = None  # drop our view before closing the mapping
        # BufferError: someone still holds a numpy view (snapshot, user
        # code).  The mapping stays until those views die; unlink below
        # still removes the /dev/shm entry, so nothing leaks.
        with contextlib.suppress(BufferError):  # pragma: no cover
            seg.shm.close()
        with contextlib.suppress(FileNotFoundError):  # pragma: no cover
            seg.shm.unlink()

    def release_inherited(self) -> None:
        """Worker-side: drop every mapping this *fork* inherited.

        Called on the worker's ``os._exit`` path.  The parent owns the
        segments — refcounts, unlinking and the observer all stay with
        it — but each child holds its own mmap of every segment, and a
        child that exits without closing them leaves the kernel-side
        reference alive until process teardown gets around to it.
        Releases views and mappings only: never unlinks, never touches
        refcounts, never notifies the observer.
        """
        with self._lock:
            segs = list(self._segments.values())
            self._segments.clear()
            self._of_ref.clear()
            self._mat_refs.clear()
            self._mats.clear()
        for seg in segs:
            seg.array = None
            # BufferError: an inherited numpy view is still alive in a
            # payload closure; the mapping dies with the process anyway.
            with contextlib.suppress(BufferError):
                seg.shm.close()

    # -- queries ---------------------------------------------------------

    def refcount(self, name: str) -> int:
        with self._lock:
            seg = self._segments.get(name)
            return 0 if seg is None else seg.refs

    def segment_of(self, ref: Tuple[int, int, int]) -> Optional[str]:
        return self._of_ref.get(ref)

    def live_segments(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def leaked_segments(self) -> List[str]:
        """OS-level segments with our prefix (should be ``[]`` after
        :meth:`close`)."""
        return scan_segments(self.prefix)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- teardown --------------------------------------------------------

    def _evacuate(self) -> None:
        """Replace every live matrix's shm-backed tiles with private
        heap copies.

        Must run before the segments are unlinked: results
        (``DistMatrix`` U/H factors) routinely outlive the runtime, and
        a tile that stayed a view over an unmapped segment would be a
        use-after-free on the next read — a segfault, not an exception.
        """
        with self._lock:
            refs = list(self._of_ref.items())
            mats = dict(self._mats)
            segs = dict(self._segments)
        for (mat_id, i, j), name in refs:
            mat = mats.get(mat_id)
            mat = mat() if mat is not None else None
            seg = segs.get(name)
            if mat is None or seg is None:
                continue
            if mat._tiles.get((i, j)) is seg.array:
                mat._tiles[(i, j)] = np.array(seg.array)

    def close(self) -> None:
        """Unlink every live segment.  Idempotent.

        Tiles still installed in live matrices are copied out first so
        results remain readable after the runtime shuts down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._evacuate()
        if self.observer is not None:
            self.observer("evacuate", "", -1, ())
        with self._lock:
            named = list(self._segments.items())
            self._segments.clear()
            self._of_ref.clear()
            self._mat_refs.clear()
            self._mats.clear()
        for name, seg in named:
            self._destroy(seg)
            if self.observer is not None:
                self.observer("unlink", name, 0, ())
        if self.observer is not None:
            self.observer("close", "", -1, ())

    def __enter__(self) -> "SharedTileStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
