"""Zero-copy shared-memory tile storage for the processes backend.

Tiles that worker processes read or write live in POSIX shared memory
(:mod:`multiprocessing.shared_memory`), **one segment per matrix**, so
a forked worker maps the parent's tiles *in place* — dispatching a
task ships only a few hundred bytes of metadata, never matrix data.
The first pin of any tile of a matrix creates the segment for the
whole matrix (one ``shm_open`` + ``mmap``; tmpfs hands pages out lazily
and zeroed, so tiles that are never pinned cost no memory); pinning a
tile installs a view into it.  Every tile is C-contiguous at a fixed
64-byte-aligned offset derived from the matrix's ``row_heights`` x
``col_widths``, so a tile pinned by a later window lands in the same
segment at the same place.

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

#: Tile offsets inside a segment are multiples of this (a cache line;
#: the mapping itself is page-aligned).
_ALIGN = 64


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


def _layout(mat: Any) -> Tuple[List[List[int]], int]:
    """Byte offset of every tile of ``mat`` in its segment (tile-row
    major, each tile padded to ``_ALIGN``) and the segment's size."""
    item = mat.dtype.itemsize
    offsets: List[List[int]] = []
    at = 0
    for h in mat.row_heights:
        row = []
        for w in mat.col_widths:
            row.append(at)
            at += -(-h * w * item // _ALIGN) * _ALIGN
        offsets.append(row)
    return offsets, max(at, 1)


class _Segment:
    """One matrix's shared-memory segment."""

    __slots__ = ("name", "shm", "offsets", "mat", "views", "refs")

    def __init__(self, name: str, mat: Any):
        self.name = name
        self.offsets, nbytes = _layout(mat)
        self.shm = shared_memory.SharedMemory(name=name, create=True,
                                              size=nbytes)
        #: Weak: close() evacuates the matrix's shm-backed tiles into
        #: private copies before unlinking (results must outlive the
        #: store; a stale view would be a use-after-unmap segfault,
        #: not an exception).
        self.mat = weakref.ref(mat)
        #: (i, j) -> the view installed in the matrix: the pinned tiles.
        self.views: Dict[Tuple[int, int], np.ndarray] = {}
        self.refs = 1


class SharedTileStore:
    """Parent-side registry of shared-memory matrix segments."""

    def __init__(self, prefix: Optional[str] = None):
        if prefix is None:
            prefix = f"repro{os.getpid()}x{secrets.token_hex(3)}"
        self.prefix = prefix
        #: Optional lifecycle observer (DistSan refcount audit):
        #: ``observer(kind, segment_name, refs_after, ref)`` with kind
        #: one of create/pin/incref/decref/unlink/evacuate/close.
        self.observer = None
        self._lock = threading.Lock()
        self._seq = 0
        self._segments: Dict[str, _Segment] = {}
        #: mat_id -> its segment's name: a matrix keeps its segment.
        self._of_mat: Dict[int, str] = {}
        self._closed = False

    # -- allocation ------------------------------------------------------

    def _new_segment(self, mat: Any) -> _Segment:
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedTileStore is closed")
            self._seq += 1
            name = f"{self.prefix}_{self._seq}"
        seg = _Segment(name, mat)
        with self._lock:
            self._segments[name] = seg
        self._of_mat[mat.mat_id] = name
        # The matrix owns the initial reference.
        weakref.finalize(mat, self._decref_name, name)
        if self.observer is not None:
            self.observer("create", name, 1, ())
        return seg

    def pin_tile(self, mat: Any, i: int, j: int,
                 shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Ensure tile ``(i, j)`` of ``mat`` is backed by shared memory.

        Idempotent: a pinned tile keeps its view (nothing rebinds a
        tile once pinned — ``DistMatrix.set_tile`` writes through).
        The first pin of any tile creates the matrix's segment; pinning
        a tile copies the heap array's contents to the tile's place in
        it, and an unmaterialised (``None`` = lazily-zero) tile costs
        nothing — fresh shared-memory pages read as zeros.  Returns the
        shm-backed array installed in ``mat._tiles``.
        """
        key = (i, j)
        seg = self._segments.get(self._of_mat.get(mat.mat_id, ""))
        if seg is None:
            seg = self._new_segment(mat)
        arr = seg.views.get(key)
        if arr is not None:
            return arr
        if (tuple(shape) != (mat.row_heights[i], mat.col_widths[j])
                or np.dtype(dtype) != mat.dtype):
            raise ValueError(
                f"tile ({i},{j}) of matrix {mat.mat_id} is "
                f"{(mat.row_heights[i], mat.col_widths[j])} {mat.dtype}, "
                f"not {tuple(shape)} {np.dtype(dtype)}")
        arr = np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf,
                         offset=seg.offsets[i][j])
        cur = mat._tiles.get(key)
        if cur is not None:
            arr[...] = cur
        mat._tiles[key] = seg.views[key] = arr
        if self.observer is not None:
            self.observer("pin", seg.name, seg.refs, (mat.mat_id, i, j))
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

    @staticmethod
    def _destroy(seg: _Segment) -> None:
        seg.views.clear()  # drop our views before closing the mapping
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
            self._of_mat.clear()
        for seg in segs:
            seg.views.clear()
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
        """Name of the segment backing tile ``ref``; ``None`` while the
        tile is not pinned (whether or not its matrix has a segment)."""
        seg = self._segments.get(self._of_mat.get(ref[0], ""))
        if seg is None or (ref[1], ref[2]) not in seg.views:
            return None
        return seg.name

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
            segs = list(self._segments.values())
        for seg in segs:
            mat = seg.mat()
            if mat is None:
                continue
            for key, view in seg.views.items():
                if mat._tiles.get(key) is view:
                    mat._tiles[key] = np.array(view)

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
            segs = list(self._segments.values())
            self._segments.clear()
            self._of_mat.clear()
        for seg in segs:
            self._destroy(seg)
            if self.observer is not None:
                self.observer("unlink", seg.name, 0, ())
        if self.observer is not None:
            self.observer("close", "", -1, ())

    def __enter__(self) -> "SharedTileStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
