"""Tests for the tiled DistMatrix container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistMatrix, ProcessGrid
from repro.runtime import Runtime

from .conftest import make_runtime


class TestGeometry:
    @given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 40))
    def test_tiling_covers_matrix(self, m, n, nb):
        rt = make_runtime()
        a = DistMatrix(rt, m, n, nb)
        assert sum(a.tile_rows(i) for i in range(a.mt)) == m
        assert sum(a.tile_cols(j) for j in range(a.nt)) == n

    def test_custom_partitions(self):
        rt = make_runtime()
        a = DistMatrix(rt, 10, 6, 4, row_heights=(4, 4, 2),
                       col_widths=(4, 2))
        assert a.mt == 3 and a.nt == 2
        assert a.tile_rows(2) == 2
        assert a.row_offsets == (0, 4, 8)

    def test_bad_partition_rejected(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            DistMatrix(rt, 10, 6, 4, row_heights=(4, 4))  # sums to 8

    def test_bad_dims_rejected(self):
        rt = make_runtime()
        with pytest.raises(ValueError):
            DistMatrix(rt, -1, 5, 4)
        with pytest.raises(ValueError):
            DistMatrix(rt, 5, 5, 0)

    def test_ref_bounds(self):
        rt = make_runtime()
        a = DistMatrix(rt, 8, 8, 4)
        with pytest.raises(IndexError):
            a.ref(2, 0)

    def test_owner_follows_layout(self):
        rt = make_runtime(2, 3)
        a = DistMatrix(rt, 40, 40, 8)
        for i in range(a.mt):
            for j in range(a.nt):
                assert a.owner(i, j) == a.layout.owner(i, j)

    def test_unique_matrix_ids(self):
        rt = make_runtime()
        a = DistMatrix(rt, 4, 4, 2)
        b = DistMatrix(rt, 4, 4, 2)
        assert a.mat_id != b.mat_id


class TestRoundTrip:
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 17))
    def test_from_to_array(self, m, n, nb):
        rng = np.random.default_rng(m * 1000 + n * 17 + nb)
        arr = rng.standard_normal((m, n))
        rt = make_runtime()
        d = DistMatrix.from_array(rt, arr, nb)
        assert np.array_equal(d.to_array(), arr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_dtype_preserved(self, dtype, rng):
        arr = rng.standard_normal((10, 8)).astype(dtype)
        rt = make_runtime()
        d = DistMatrix.from_array(rt, arr, 4)
        assert d.dtype == np.dtype(dtype)
        assert d.to_array().dtype == np.dtype(dtype)

    def test_lazy_zero_tiles(self):
        rt = make_runtime()
        d = DistMatrix(rt, 8, 8, 4)
        assert np.array_equal(d.tile(0, 0), np.zeros((4, 4)))

    def test_set_tile_shape_checked(self):
        rt = make_runtime()
        d = DistMatrix(rt, 8, 8, 4)
        with pytest.raises(ValueError):
            d.set_tile(0, 0, np.zeros((3, 4)))


class TestSetTileIsDriverLevel:
    def test_writes_through_the_existing_buffer(self):
        rt = make_runtime()
        d = DistMatrix(rt, 8, 8, 4)
        buf = d.tile(1, 1)
        src = np.arange(16.0).reshape(4, 4)
        d.set_tile(1, 1, src)
        assert d.tile(1, 1) is buf and np.array_equal(buf, src)
        src[...] = -1.0                      # the caller's array is its own
        assert d.tile(1, 1)[0, 1] == 1.0

    @pytest.mark.parametrize("backend", ["eager", "threads", "processes"])
    def test_refused_inside_a_payload(self, backend):
        from repro.runtime.task import TaskKind

        kw = {} if backend == "eager" else dict(deferred=True, workers=2,
                                                backend=backend)
        with Runtime(ProcessGrid(1, 1), **kw) as rt:
            d = DistMatrix.from_array(rt, np.ones((8, 8)), 4)

            def rebind():
                d.set_tile(0, 0, np.zeros((4, 4)))

            # No declared cost: the window keeps its lanes, so on
            # processes the payload runs in a forked worker.
            with pytest.raises(RuntimeError, match="set_tile.*payload"):
                rt.submit(TaskKind.SET, writes=(d.ref(0, 0),), rank=0,
                          fn=rebind)
                rt.sync()
            rt.abandon_pending()
            assert np.array_equal(d.to_array(), np.ones((8, 8)))


class TestSymbolicMode:
    def test_no_data_access(self):
        rt = make_runtime(numeric=False)
        d = DistMatrix(rt, 16, 16, 4)
        with pytest.raises(RuntimeError):
            d.tile(0, 0)
        with pytest.raises(RuntimeError):
            d.to_array()

    def test_metadata_still_available(self):
        rt = make_runtime(numeric=False)
        d = DistMatrix(rt, 16, 12, 4)
        assert d.mt == 4 and d.nt == 3
        assert d.tile_nbytes(0, 0) == 4 * 4 * 8

    def test_tile_bytes_registered(self):
        rt = make_runtime(numeric=False)
        d = DistMatrix(rt, 10, 10, 4)
        assert rt.graph.tile_bytes[d.ref(0, 0)] == 4 * 4 * 8
        assert rt.graph.tile_bytes[d.ref(2, 2)] == 2 * 2 * 8

    def test_like(self):
        rt = make_runtime()
        d = DistMatrix(rt, 12, 8, 4, np.complex64)
        e = d.like(n=4)
        assert e.shape == (12, 4)
        assert e.dtype == np.dtype(np.complex64)
        assert e.nb == 4
