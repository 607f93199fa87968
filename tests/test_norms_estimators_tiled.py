"""Tiled norms, norm2est (Algorithm 2), trcondest, gemmA tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistMatrix
from repro.tiled import (
    column_abs_sums,
    gemm_a,
    gemv_owner_c,
    geqrf,
    norm2est_tiled,
    norm_fro,
    norm_inf,
    norm_max,
    norm_one,
    trcondest_tiled,
)
from repro.runtime.task import TaskKind
from repro.tiled.estimators import _vector, trsv_upper

from .conftest import make_runtime


class TestTiledNorms:
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 9))
    def test_all_norms_match_numpy(self, m, n, nb):
        rng = np.random.default_rng(m * 17 + n + nb)
        A = rng.standard_normal((m, n))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, nb)
        assert norm_one(rt, dA).value == pytest.approx(
            np.linalg.norm(A, 1))
        assert norm_inf(rt, dA).value == pytest.approx(
            np.linalg.norm(A, np.inf))
        assert norm_fro(rt, dA).value == pytest.approx(
            np.linalg.norm(A, "fro"))
        assert norm_max(rt, dA).value == pytest.approx(np.abs(A).max())

    def test_complex(self, rng):
        A = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, 4)
        assert norm_fro(rt, dA).value == pytest.approx(np.linalg.norm(A))

    def test_column_abs_sums(self, rng):
        A = rng.standard_normal((14, 10))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, 4)
        x = _vector(rt, dA, of_cols=True)
        column_abs_sums(rt, dA, x)
        assert np.allclose(x.to_array().ravel(), np.sum(np.abs(A), axis=0))

    def test_symbolic_scalar_raises(self):
        rt = make_runtime(numeric=False)
        dA = DistMatrix(rt, 8, 8, 4)
        res = norm_fro(rt, dA)
        with pytest.raises(RuntimeError):
            _ = res.value


class TestGemmA:
    @given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 8),
           st.booleans())
    def test_gemm_a_matches_dense(self, m, n, nb, conj):
        rng = np.random.default_rng(m + n * 29 + nb)
        A = rng.standard_normal((m, n))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, nb)
        x = _vector(rt, dA, of_cols=not conj)
        y = _vector(rt, dA, of_cols=conj)
        xv = rng.standard_normal((x.m, 1))
        for i in range(x.mt):
            x.tile(i, 0)[...] = xv[x.row_offsets[i]:x.row_offsets[i]
                                   + x.tile_rows(i)]
        gemm_a(rt, dA, x, y, conj_a=conj)
        ref = (A.conj().T if conj else A) @ xv
        assert np.allclose(y.to_array(), ref, atol=1e-11)

    def test_owner_c_variant_identical_numerics(self, rng):
        A = rng.standard_normal((18, 14))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, 4)
        x = _vector(rt, dA, of_cols=True)
        for i in range(x.mt):
            x.tile(i, 0)[...] = 1.0
        y1 = _vector(rt, dA, of_cols=False)
        y2 = _vector(rt, dA, of_cols=False)
        gemm_a(rt, dA, x, y1)
        gemv_owner_c(rt, dA, x, y2)
        assert np.allclose(y1.to_array(), y2.to_array())

    def test_gemm_a_moves_less_data(self):
        """The point of gemmA: with A large, computing at A's owners
        moves O(n) vector bytes instead of O(n^2) matrix bytes."""
        from repro.machines import summit
        from repro.runtime.scheduler import taskbased_config, simulate

        def comm_bytes(use_gemma):
            rt = make_runtime(2, 2, numeric=False)
            dA = DistMatrix(rt, 4096, 4096, 256)
            x = _vector(rt, dA, of_cols=True)
            y = _vector(rt, dA, of_cols=False)
            (gemm_a if use_gemma else gemv_owner_c)(rt, dA, x, y)
            cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
            return simulate(rt.graph, cfg).comm.total_bytes

        assert comm_bytes(True) < comm_bytes(False) / 3

    def test_shape_validation(self, rng):
        rt = make_runtime()
        dA = DistMatrix.from_array(rt, rng.standard_normal((8, 6)), 4)
        bad = DistMatrix(rt, 5, 1, 4, col_widths=(1,))
        y = _vector(rt, dA, of_cols=False)
        with pytest.raises(ValueError):
            gemm_a(rt, dA, bad, y)


class TestNorm2estTiled:
    @given(st.integers(3, 30), st.integers(2, 9))
    def test_matches_dense_estimator_regime(self, n, nb):
        rng = np.random.default_rng(n * 3 + nb)
        A = rng.standard_normal((n, n))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, nb)
        est = norm2est_tiled(rt, dA).value
        true = np.linalg.norm(A, 2)
        assert true / 5 <= est <= true * 1.5

    def test_agrees_with_dense_implementation(self, rng):
        from repro.core.estimators import norm2est
        A = rng.standard_normal((24, 16))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A, 4)
        assert norm2est_tiled(rt, dA).value == pytest.approx(
            norm2est(A), rel=1e-10)

    def test_symbolic_emits_fixed_sweeps(self):
        rt = make_runtime(numeric=False)
        dA = DistMatrix(rt, 64, 64, 16)
        norm2est_tiled(rt, dA, sweeps=3)
        kinds = rt.graph.counts_by_kind()
        # 3 sweeps x 2 products x 16 tiles + column sums.
        assert kinds["gemv"] == 3 * 2 * 16

    def test_zero_matrix(self):
        rt = make_runtime()
        dA = DistMatrix(rt, 8, 8, 4)  # lazily zero
        assert norm2est_tiled(rt, dA).value == 0.0


class TestTrsvAndTrcondest:
    def test_trsv_solves_against_r(self, rng):
        A = rng.standard_normal((20, 12))
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A.copy(), 4)
        fac = geqrf(rt, dA)
        r_ref = np.linalg.qr(A, mode="r")
        b = rng.standard_normal(12)
        x = _vector(rt, fac.a, of_cols=True)
        for i in range(x.mt):
            x.tile(i, 0)[...] = b[x.row_offsets[i]:x.row_offsets[i]
                                  + x.tile_rows(i), None]
        trsv_upper(rt, fac, x, conj_trans=False)
        got = x.to_array().ravel()
        # R's sign convention may differ from LAPACK's; check residual.
        from repro.tiled.estimators import _r_block
        R = np.zeros((12, 12))
        for k in range(fac.a.nt):
            for j in range(k, fac.a.nt):
                blk = _r_block(fac, k, j)
                R[fac.a.col_offsets[k]:fac.a.col_offsets[k] + blk.shape[0],
                  fac.a.col_offsets[j]:fac.a.col_offsets[j] + blk.shape[1]] = blk
        assert np.allclose(R @ got, b, atol=1e-9)

    @given(st.floats(10.0, 1e10))
    def test_trcondest_tracks_condition(self, cond):
        from repro.matrices import generate_matrix
        A = generate_matrix(24, cond=cond, seed=int(cond) % 1000)
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A.copy(), 8)
        fac = geqrf(rt, dA)
        rc = trcondest_tiled(rt, fac)
        true = 1.0 / np.linalg.cond(A, 1)
        assert true / 30 <= rc.value <= true * 30

    def test_trcondest_symbolic_emits_solves(self):
        rt = make_runtime(numeric=False)
        dA = DistMatrix(rt, 32, 32, 8)
        fac = geqrf(rt, dA)
        before = len(rt.graph)
        trcondest_tiled(rt, fac, cycles=2)
        assert len(rt.graph) > before


#: >= 3 tile rows / ragged / nb > n (a single tile).
REDUCTION_SHAPES = [(96, 48, 16), (81, 42, 8), (24, 24, 32)]


def _reductions(rt, A, nb):
    """Record every partial -> combine reduction once; returns thunks
    that read the results (after the window ran)."""
    from repro.tiled.estimators import _r_norm1

    d = DistMatrix.from_array(rt, A, nb)
    xn = DistMatrix.from_array(rt, A[0, :, None].copy(), nb)
    xm = DistMatrix.from_array(rt, A[:, 0, None].copy(), nb)
    ym, yn, cs = (_vector(rt, d, of_cols=False), _vector(rt, d, of_cols=True),
                  _vector(rt, d, of_cols=True))
    w = DistMatrix.from_array(rt, A.copy(), nb)
    fac = geqrf(rt, w)
    rt.sync()  # the reductions below are recorded on their own
    scalars = [f(rt, d) for f in (norm_one, norm_inf, norm_fro, norm_max)]
    scalars.append(_r_norm1(rt, fac))
    column_abs_sums(rt, d, cs)
    gemm_a(rt, d, xn, ym)
    gemm_a(rt, d, xm, yn, conj_a=True)
    return lambda: ([s.value for s in scalars],
                    [v.to_array() for v in (cs, ym, yn)])


def _combine_hiding_a_partial(rt, ws, x):
    """Seeded-bad combine: adds two partial tiles, declares one."""

    def body():
        x.tile(0, 0)[...] = (ws.tile(0, 0) + ws.tile(1, 0)).T

    rt.submit(TaskKind.REDUCE, reads=(ws.ref(0, 0),),
              writes=(x.ref(0, 0),), rank=0, fn=body)


class TestPartialsAreTiles:
    """Reduction partials are tiles of a workspace matrix, so the
    footprint checkers cover them like any other tile."""

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128])
    def test_every_reduction_is_sanitizer_clean(self, dtype):
        from repro.dist import ProcessGrid
        from repro.matrices import generate_matrix
        from repro.runtime import Runtime

        A = generate_matrix(81, 42, cond=1e3, dtype=dtype, seed=5)
        rt = Runtime(ProcessGrid(2, 2), sanitize="raise")
        _reductions(rt, A, 8)()
        san, g = rt.sanitizer, rt.graph
        assert san.findings == [] and san.tasks_checked == len(g.tasks)
        assert g.check_races(footprints=san.footprints()) == []
        for t in g.tasks:   # a matrix tile or a scalar box, nothing else
            for ref in t.reads + t.writes:
                assert ref in g.tile_owner or ref[0] == rt.scalar_mat

    def test_combine_that_hides_a_partial_is_caught(self):
        """While partials sat in a captured dict behind hand-built refs
        neither checker could see this."""
        import inspect

        from repro.analysis.lint import PAYLOAD_FOOTPRINT, lint_source
        from repro.analysis.sanitizer import UNDECLARED_READ, SanitizerError
        from repro.dist import ProcessGrid
        from repro.runtime import Runtime
        from repro.tiled import norms

        rt = Runtime(ProcessGrid(1, 1), sanitize="raise")
        d = DistMatrix.from_array(rt, np.ones((16, 8)), 8)
        x = _vector(rt, d, of_cols=True)
        ws = norms.workspace(rt, d, np.float64, cols=True)
        with pytest.raises(SanitizerError) as exc:
            _combine_hiding_a_partial(rt, ws, x)
        assert exc.value.finding.kind == UNDECLARED_READ
        assert exc.value.finding.ref == ws.ref(1, 0)

        (f,) = lint_source(inspect.getsource(_combine_hiding_a_partial))
        assert f.rule == PAYLOAD_FOOTPRINT and "ws.tile(1, 0)" in f.message
        assert lint_source(inspect.getsource(norms)) == []


class TestReductionOrder:
    """Partials live in workspace tiles and every combine reads them in
    fixed index order: the result does not depend on the order the
    partial tasks finished in."""

    @pytest.mark.parametrize("m, n, nb", REDUCTION_SHAPES,
                             ids=["3x3", "ragged", "nb>n"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_partials_in_reverse_order_give_the_eager_bits(self, dtype,
                                                           m, n, nb):
        from repro.matrices import generate_matrix
        from repro.runtime.task import TaskKind

        A = generate_matrix(m, n, cond=1e3, dtype=dtype, seed=5)
        want_s, want_v = _reductions(make_runtime(1, 1), A, nb)()

        rt = make_runtime(1, 1)
        rt.enable_deferred(workers=1)
        read = _reductions(rt, A, nb)
        pending = rt.graph.tasks[rt._exec_cursor:]
        parts = [t for t in pending
                 if t.kind in (TaskKind.NORM, TaskKind.GEMV)]
        assert len(parts) == len(pending) - sum(
            t.kind is TaskKind.REDUCE for t in pending) > 0
        rt._in_execution = True   # replay by hand, partials last-first
        try:
            for t in parts[::-1]:
                rt._pending_fns[t.tid]()
            for t in pending:
                if t.kind is TaskKind.REDUCE:
                    rt._pending_fns[t.tid]()
        finally:
            rt._in_execution = False
        rt.abandon_pending()
        got_s, got_v = read()
        rt.close()
        assert got_s == want_s
        for g, w in zip(got_v, want_v):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_partials_keep_their_dtype(self, dtype):
        """Norm partials are what the kernel returns (the real base
        type), gemmA partials are A's type — the registered bytes are
        the bytes a transfer moves."""
        rt = make_runtime(2, 2, numeric=False)
        d = DistMatrix(rt, 24, 16, 8, dtype)
        x, y = _vector(rt, d, of_cols=True), _vector(rt, d, of_cols=False)
        norm_one(rt, d)
        gemm_a(rt, d, x, y)
        g = rt.graph
        by_label = {t.label: t for t in g.tasks}
        (ref,) = by_label["norm1.part(0,0)"].writes
        assert g.tile_bytes[ref] == 8 * 4          # 1 x 8 float32
        assert g.tile_owner[ref] == d.owner(0, 0)
        (ref,) = by_label["gemmA(2,1)"].writes
        assert g.tile_bytes[ref] == 8 * np.dtype(dtype).itemsize
        assert g.tile_owner[ref] == d.owner(2, 1)
