"""Tiled distributed matrices.

A :class:`DistMatrix` is an mt x nt grid of tiles of nominal size
nb x nb (edge tiles are smaller), each owned by the rank given by the
block-cyclic layout.  In numeric mode every tile is a real numpy
array; in symbolic mode tiles carry no data and only their metadata
(shape, bytes, owner) feeds the task graph.

Matrices do not implement math — all operations live in
:mod:`repro.tiled` and go through the :class:`repro.runtime.Runtime`
so the work is recorded as tasks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..config import check_dtype
from ..runtime.task import TileRef
from .layout import BlockCyclic

if TYPE_CHECKING:  # break the dist <-> runtime import cycle
    from ..runtime.executor import Runtime

__all__ = ["DistMatrix", "TileRef"]


def _uniform_partition(extent: int, nb: int) -> Tuple[int, ...]:
    """Tile heights/widths for a uniform-nb tiling with ragged tail."""
    if extent == 0:
        return ()
    full, rem = divmod(extent, nb)
    return (nb,) * full + ((rem,) if rem else ())


def _offsets(parts: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0]
    for p in parts[:-1]:
        out.append(out[-1] + p)
    return tuple(out) if parts else ()


class DistMatrix:
    """A block-cyclic tiled matrix bound to a runtime."""

    def __init__(self, rt: "Runtime", m: int, n: int, nb: int,
                 dtype=np.float64, layout: Optional[BlockCyclic] = None,
                 name: str = "",
                 row_heights: Optional[Tuple[int, ...]] = None,
                 col_widths: Optional[Tuple[int, ...]] = None) -> None:
        if m < 0 or n < 0:
            raise ValueError(f"matrix dims must be >= 0, got {m} x {n}")
        if nb < 1:
            raise ValueError(f"tile size must be >= 1, got {nb}")
        self.rt = rt
        self.m = m
        self.n = n
        self.nb = nb
        self.dtype = check_dtype(dtype)
        self.layout = layout if layout is not None else rt.default_layout()
        self.name = name
        self.mat_id = rt._new_matrix_id()
        # Tilings default to uniform nb with a ragged trailing tile;
        # explicit partitions support stacked workspaces like the
        # [sqrt(c) A; I] matrix of Algorithm 1, whose identity block
        # starts at an arbitrary row.
        self.row_heights = (tuple(row_heights) if row_heights is not None
                            else _uniform_partition(m, nb))
        self.col_widths = (tuple(col_widths) if col_widths is not None
                           else _uniform_partition(n, nb))
        if sum(self.row_heights) != m or any(h < 1 for h in self.row_heights):
            raise ValueError(f"row_heights {self.row_heights} do not tile {m}")
        if sum(self.col_widths) != n or any(w < 1 for w in self.col_widths):
            raise ValueError(f"col_widths {self.col_widths} do not tile {n}")
        self.mt = len(self.row_heights)
        self.nt = len(self.col_widths)
        self.row_offsets = _offsets(self.row_heights)
        self.col_offsets = _offsets(self.col_widths)
        self._tiles: Dict[Tuple[int, int], Optional[np.ndarray]] = {}
        rt.register_matrix(self)  # weak: executor-side tile access
        itemsize = self.dtype.itemsize
        for i in range(self.mt):
            for j in range(self.nt):
                ref = (self.mat_id, i, j)
                rt.register_tiles(
                    [ref],
                    self.tile_rows(i) * self.tile_cols(j) * itemsize,
                    owner=self.layout.owner(i, j))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    def tile_rows(self, i: int) -> int:
        """Row count of tile-row i (edge/custom tiles may be smaller)."""
        if not (0 <= i < self.mt):
            raise IndexError(f"tile row {i} outside 0..{self.mt - 1}")
        return self.row_heights[i]

    def tile_cols(self, j: int) -> int:
        """Column count of tile-column j."""
        if not (0 <= j < self.nt):
            raise IndexError(f"tile col {j} outside 0..{self.nt - 1}")
        return self.col_widths[j]

    def ref(self, i: int, j: int) -> TileRef:
        """Dependency-tracking reference of tile (i, j)."""
        if not (0 <= i < self.mt and 0 <= j < self.nt):
            raise IndexError(f"tile ({i}, {j}) outside {self.mt} x {self.nt}")
        return (self.mat_id, i, j)

    def owner(self, i: int, j: int) -> int:
        """Rank owning tile (i, j) under the block-cyclic layout."""
        return self.layout.owner(i, j)

    def tile_nbytes(self, i: int, j: int) -> int:
        return self.tile_rows(i) * self.tile_cols(j) * self.dtype.itemsize

    # ------------------------------------------------------------------
    # Tile data access (numeric mode)
    # ------------------------------------------------------------------

    def tile(self, i: int, j: int) -> np.ndarray:
        """The tile array; allocates zeros lazily in numeric mode.

        On a deferred runtime, a *driver-level* tile access (outside a
        running execution window) first flushes the pending task window
        so the data read is exactly what eager execution would show;
        accesses from task payloads during execution never re-enter.
        """
        rt = self.rt
        if not rt.numeric:
            raise RuntimeError(
                "tile data is unavailable in symbolic mode; the perf "
                "model must not touch numerics")
        if rt.deferred and not rt._in_execution:
            rt.sync()
        san = rt._sanitizer
        if san is not None:
            # TileSan: record the access (and possibly raise) *before*
            # handing out the array, so in raise mode an undeclared
            # access never observes or mutates tile data.  A ``tile()``
            # of a declared-write tile counts as the in-place write.
            san.on_access((self.mat_id, i, j), write=False)
        key = (i, j)
        t = self._tiles.get(key)
        if t is None:
            if getattr(rt, "_worker_mode", False):
                # Worker processes see only the shared-memory tiles the
                # parent materialised for the window's declared
                # footprints; allocating here would write child-local
                # memory and silently diverge from the parent.
                raise RuntimeError(
                    f"tile ({i},{j}) of matrix {self.mat_id} is not "
                    "materialised in this worker — undeclared access?")
            t = np.zeros((self.tile_rows(i), self.tile_cols(j)),
                         dtype=self.dtype)
            self._tiles[key] = t
        return t

    def set_tile(self, i: int, j: int, data: np.ndarray) -> None:
        """Copy ``data`` into tile (i, j); shape must match exactly.

        Driver-level only.  A tile is one buffer for life — forked
        workers and pinned shared-memory segments alias it — so this
        writes through into the existing array, and a task payload,
        which updates ``tile()`` in place under its declared footprint,
        may not call it.
        """
        expected = (self.tile_rows(i), self.tile_cols(j))
        if data.shape != expected:
            raise ValueError(
                f"tile ({i},{j}) expects shape {expected}, got {data.shape}")
        rt = self.rt
        if rt._in_execution:
            san = rt._sanitizer
            if san is not None:  # attribute the write to its task first
                san.on_access((self.mat_id, i, j), write=True)
            raise RuntimeError(
                f"set_tile({i},{j}) of matrix {self.mat_id} inside a task "
                "payload; write through tile(i, j)[...] instead")
        rt.sync()  # don't clobber a tile pending tasks still write
        cur = self._tiles.get((i, j))
        if cur is None:
            # Copy: a slice of the caller's array stored as a view would
            # let in-place tile updates mutate the caller's data.
            self._tiles[(i, j)] = np.array(data, dtype=self.dtype,
                                           copy=True, order="C")
        else:
            cur[...] = data

    # ------------------------------------------------------------------
    # Whole-matrix conversion (test/driver convenience, not a tiled op)
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, rt: "Runtime", arr: np.ndarray, nb: int,
                   layout: Optional[BlockCyclic] = None,
                   name: str = "") -> "DistMatrix":
        """Distribute a dense array into tiles (initial data placement).

        Initial distribution is free in the performance model, as in
        the paper's benchmarks (matrices are generated in place).
        """
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {arr.shape}")
        out = cls(rt, arr.shape[0], arr.shape[1], nb, arr.dtype,
                  layout=layout, name=name)
        if rt.numeric:
            for i in range(out.mt):
                r0 = out.row_offsets[i]
                for j in range(out.nt):
                    c0 = out.col_offsets[j]
                    out.set_tile(i, j, arr[r0:r0 + out.tile_rows(i),
                                           c0:c0 + out.tile_cols(j)])
        return out

    def to_array(self) -> np.ndarray:
        """Gather all tiles into a dense array (numeric mode only)."""
        if not self.rt.numeric:
            raise RuntimeError("cannot gather a symbolic matrix")
        san = self.rt._sanitizer
        if san is not None:
            # A gather inside a payload is a re-entrant sync hazard
            # (the inner sync is suppressed; pending writes are lost).
            san.on_sync((self.mat_id, -1, -1), "DistMatrix.to_array()")
        self.rt.sync()  # deferred runtimes: materialize pending writes
        out = np.zeros((self.m, self.n), dtype=self.dtype)
        for i in range(self.mt):
            r0 = self.row_offsets[i]
            for j in range(self.nt):
                t = self._tiles.get((i, j))
                if t is not None:
                    c0 = self.col_offsets[j]
                    out[r0:r0 + t.shape[0], c0:c0 + t.shape[1]] = t
        return out

    def save(self, path: str) -> str:
        """Persist the matrix (dense gather + geometry) to ``.npz``."""
        np.savez(path, data=self.to_array(), nb=self.nb,
                 row_heights=np.asarray(self.row_heights),
                 col_widths=np.asarray(self.col_widths))
        return path

    @classmethod
    def load(cls, rt: "Runtime", path: str) -> "DistMatrix":
        """Rebuild a saved matrix on this runtime's grid."""
        with np.load(path) as z:
            out = cls(rt, z["data"].shape[0], z["data"].shape[1],
                      int(z["nb"]),
                      dtype=z["data"].dtype,
                      row_heights=tuple(int(h) for h in z["row_heights"]),
                      col_widths=tuple(int(w) for w in z["col_widths"]))
            if rt.numeric:
                arr = z["data"]
                for i in range(out.mt):
                    r0 = out.row_offsets[i]
                    for j in range(out.nt):
                        c0 = out.col_offsets[j]
                        out.set_tile(i, j,
                                     arr[r0:r0 + out.tile_rows(i),
                                         c0:c0 + out.tile_cols(j)])
        return out

    def like(self, m: Optional[int] = None, n: Optional[int] = None,
             name: str = "") -> "DistMatrix":
        """A new (zero / symbolic) matrix with this one's nb/dtype/grid."""
        return DistMatrix(self.rt,
                          self.m if m is None else m,
                          self.n if n is None else n,
                          self.nb, self.dtype, layout=self.layout, name=name)

    def __repr__(self) -> str:
        mode = "numeric" if self.rt.numeric else "symbolic"
        nm = f" {self.name!r}" if self.name else ""
        return (f"DistMatrix({self.m}x{self.n}, nb={self.nb}, "
                f"{self.dtype.name}, {self.mt}x{self.nt} tiles, {mode}{nm})")
