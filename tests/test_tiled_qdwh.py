"""Tests for the tiled (SLATE-analogue) QDWH implementation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix
from repro.matrices import (
    generate_matrix,
    ill_conditioned,
    polar_report,
    well_conditioned,
)

from .conftest import make_runtime


def run_tiled(a, nb=32, grid=(2, 2), **kw):
    rt = make_runtime(*grid)
    da = DistMatrix.from_array(rt, a.copy(), nb)
    res = tiled_qdwh(rt, da, **kw)
    return res, rt


class TestNumericAccuracy:
    def test_ill_conditioned_machine_precision(self):
        a = ill_conditioned(128, seed=0)
        res, _ = run_tiled(a)
        rep = polar_report(a, res.u.to_array(), res.h.to_array())
        assert rep.orthogonality < 1e-13
        assert rep.backward < 1e-12
        assert rep.h_hermitian < 1e-14

    def test_paper_iteration_split(self):
        a = ill_conditioned(128, seed=1)
        res, _ = run_tiled(a)
        assert (res.it_qr, res.it_chol) == (3, 3)
        assert res.converged

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_all_dtypes(self, dtype):
        a = ill_conditioned(96, dtype=dtype, seed=2)
        res, _ = run_tiled(a)
        u = res.u.to_array()
        assert u.dtype == np.dtype(dtype)
        single = dtype in (np.float32, np.complex64)
        tol = 5e-5 if single else 1e-12
        rep = polar_report(a, u, res.h.to_array())
        assert rep.orthogonality < tol and rep.backward < tol

    @given(st.integers(20, 70), st.integers(10, 40), st.integers(7, 17))
    def test_rectangular_ragged_tiles(self, m, n, nb):
        if m < n:
            m, n = n, m
        a = generate_matrix(m, n, cond=1e6, seed=m + n)
        res, _ = run_tiled(a, nb=nb)
        rep = polar_report(a, res.u.to_array(), res.h.to_array())
        assert rep.orthogonality < 1e-11
        assert rep.backward < 1e-11

    def test_agrees_with_dense_qdwh(self):
        from repro import qdwh
        a = generate_matrix(96, cond=1e4, seed=3)
        res, _ = run_tiled(a)
        dres = qdwh(a)
        # Same algorithm, same estimator design: U's must agree to the
        # conditioning-limited level.
        assert np.allclose(res.u.to_array(), dres.u, atol=1e-6)
        assert np.allclose(res.h.to_array(), dres.h, atol=1e-6)

    def test_well_conditioned_fast(self):
        a = well_conditioned(96, seed=4)
        res, _ = run_tiled(a, cond_est=10.0)
        # The sqrt(n)-deflated hint may trigger one defensive QR step.
        assert res.it_qr <= 1
        assert res.iterations <= 5

    def test_different_grids_same_numbers(self):
        a = generate_matrix(64, cond=1e8, seed=5)
        r1, _ = run_tiled(a, grid=(1, 1))
        r2, _ = run_tiled(a, grid=(2, 3))
        assert np.allclose(r1.u.to_array(), r2.u.to_array(), atol=1e-10)

    def test_zero_matrix(self):
        rt = make_runtime()
        da = DistMatrix(rt, 16, 8, 4)  # all-zero
        res = tiled_qdwh(rt, da)
        assert res.iterations == 0
        u = res.u.to_array()
        assert np.allclose(u.T @ u, np.eye(8))
        assert np.allclose(res.h.to_array(), 0)

    def test_rejects_wide(self):
        rt = make_runtime()
        da = DistMatrix(rt, 8, 16, 4)
        with pytest.raises(ValueError):
            tiled_qdwh(rt, da)


class TestSymbolicMode:
    def test_requires_cond_est(self):
        rt = make_runtime(numeric=False)
        da = DistMatrix(rt, 64, 64, 16)
        with pytest.raises(ValueError):
            tiled_qdwh(rt, da)

    def test_schedule_matches_prediction(self):
        from repro.core.params import predict_iterations
        rt = make_runtime(numeric=False)
        da = DistMatrix(rt, 128, 128, 32)
        res = tiled_qdwh(rt, da, cond_est=1e16)
        assert (res.it_qr, res.it_chol) == predict_iterations(1e16, n=128)

    def test_graph_is_topological_and_nonempty(self):
        rt = make_runtime(numeric=False)
        da = DistMatrix(rt, 128, 128, 32)
        tiled_qdwh(rt, da, cond_est=1e16)
        assert len(rt.graph) > 1000
        assert rt.graph.validate_topological()

    def test_every_task_ref_has_a_registered_size(self):
        """The scheduler prices a transfer from ``graph.tile_bytes``
        alone; a ref missing there (or sized 0) moves for free."""
        rt = make_runtime(numeric=False)            # 2 x 2 grid
        da = DistMatrix(rt, 81, 42, 8)              # m > n, ragged
        res = tiled_qdwh(rt, da, cond_est=1e16)
        assert res.it_qr > 0 and res.it_chol > 0    # both iteration kinds
        sizes = rt.graph.tile_bytes
        unpriced = [(t.label, ref) for t in rt.graph.tasks
                    for ref in t.reads + t.writes
                    if sizes.get(ref, 0) <= 0]
        assert unpriced == []

    @pytest.mark.parametrize("m, n, nb", [(50, 50, 16), (81, 42, 8),
                                          (24, 24, 32)],
                             ids=["square", "tall-ragged", "nb>n"])
    def test_every_task_declares_a_cost(self, m, n, nb):
        """The simulator prices a task from ``flops`` and the real
        backends place a window by it: no recorded task may declare a
        negative cost (a ragged last tile row used to, through the
        m >= n QR formula) or none at all (0 means "not judged" and
        would give its whole window lanes)."""
        a = ill_conditioned(m, n=n, seed=8)
        res, rt = run_tiled(a, nb=nb, grid=(1, 1))
        assert res.converged and res.it_qr > 0
        assert [t for t in rt.graph.tasks if t.flops < 0] == []
        assert [t.label for t in rt.graph.tasks if t.flops == 0] == []
        # The symbolic recording of the same shape: same rule.
        rt_s = make_runtime(1, 1, numeric=False)
        tiled_qdwh(rt_s, DistMatrix(rt_s, m, n, nb), cond_est=1e16)
        assert [t.label for t in rt_s.graph.tasks if t.flops <= 0] == []

    def test_symbolic_and_numeric_graphs_align(self):
        """The same condition estimate must produce the same task-graph
        shape in both modes (the core promise of the perf model)."""
        a = ill_conditioned(96, seed=6)
        rt_n = make_runtime()
        da_n = DistMatrix.from_array(rt_n, a.copy(), 32)
        tiled_qdwh(rt_n, da_n)  # estimated path: runs the condest QR
        rt_s = make_runtime(numeric=False)
        da_s = DistMatrix(rt_s, 96, 96, 32)
        tiled_qdwh(rt_s, da_s, cond_est=1e16)
        kn = rt_n.graph.counts_by_kind()
        ks = rt_s.graph.counts_by_kind()
        # Estimator sweep counts differ (adaptive vs fixed); the heavy
        # kernels must match exactly.
        for kind in ("geqrt", "tpqrt", "potrf", "trsm", "tpmqrt"):
            assert kn[kind] == ks[kind], kind

    def test_executed_flops_close_to_model(self):
        """Executed task flops are within 25% of the paper's model (the
        dense TS/TT couple kernels account for the gap)."""
        import repro.flops as F
        rt = make_runtime(numeric=False)
        n = 256
        da = DistMatrix(rt, n, n, 32)
        res = tiled_qdwh(rt, da, cond_est=1e16)
        model = F.qdwh_total(n, res.it_qr, res.it_chol)
        executed = rt.graph.total_flops()
        assert model < executed < 1.25 * model

    def test_cholesky_only_graph_smaller(self):
        rt1 = make_runtime(numeric=False)
        tiled_qdwh(rt1, DistMatrix(rt1, 128, 128, 32), cond_est=1e16)
        rt2 = make_runtime(numeric=False)
        tiled_qdwh(rt2, DistMatrix(rt2, 128, 128, 32), cond_est=2.0)
        assert len(rt2.graph) < len(rt1.graph)
