"""Tiled QR factorization tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistMatrix, ProcessGrid
from repro.runtime import Runtime
from repro.tiled import geqrf, qr_explicit, unmqr_identity

from .conftest import make_runtime


def _TREE_ID(value):
    """Case ids name the reduction under test (``float32-tree``), so
    the suite's recorded test names stay stable."""
    return f"{getattr(value, '__name__', value)}-tree"


def check_qr(A, nb, grid=(2, 2)):
    rt = make_runtime(*grid)
    dW = DistMatrix.from_array(rt, A.copy(), nb)
    fac, dQ = qr_explicit(rt, dW)
    Q = dQ.to_array()
    n = A.shape[1]
    R = np.triu(dW.to_array()[:n, :n])
    recon = np.abs(Q @ R - A).max()
    orth = np.abs(Q.conj().T @ Q - np.eye(n)).max()
    return recon, orth, R


class TestQRCorrectness:
    @given(st.integers(4, 40), st.integers(2, 20), st.integers(2, 11))
    def test_reconstruction_and_orthogonality(self, m, n, nb):
        if m < n:
            m, n = n, m
        rng = np.random.default_rng(m * 41 + n * 3 + nb)
        A = rng.standard_normal((m, n))
        recon, orth, _ = check_qr(A, nb)
        assert recon < 1e-12 * max(m, n)
        assert orth < 1e-13 * max(m, n)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64,
                                       np.complex128], ids=_TREE_ID)
    def test_dtypes(self, dtype, rng):
        A = rng.standard_normal((24, 16)).astype(dtype)
        if np.issubdtype(dtype, np.complexfloating):
            A = A + 1j * rng.standard_normal((24, 16)).astype(A.real.dtype)
            A = A.astype(dtype)
        single = dtype in (np.float32, np.complex64)
        tol = 1e-4 if single else 1e-12
        recon, orth, _ = check_qr(A, 8)
        assert recon < tol
        assert orth < tol

    def test_r_diag_real_sign_consistent_with_lapack(self, rng):
        """R from the tiled QR matches |R| from LAPACK (signs are a
        convention; magnitudes must agree)."""
        A = rng.standard_normal((20, 12))
        _, _, R = check_qr(A, 4)
        r_ref = np.linalg.qr(A, mode="r")
        assert np.allclose(np.abs(np.diag(R)), np.abs(np.diag(r_ref)),
                           atol=1e-10)

    def test_single_tile(self, rng):
        A = rng.standard_normal((6, 4))
        recon, orth, _ = check_qr(A, 8, grid=(1, 1))
        assert recon < 1e-13 and orth < 1e-13

    def test_stacked_identity_structure(self, rng):
        """QR of [A; I] — exactly the QDWH iteration's workspace."""
        rt = make_runtime()
        A = rng.standard_normal((12, 12))
        W = np.vstack([A, np.eye(12)])
        dW = DistMatrix.from_array(rt, W, 4)
        fac, dQ = qr_explicit(rt, dW)
        Q = dQ.to_array()
        R = np.triu(dW.to_array()[:12, :12])
        assert np.abs(Q @ R - W).max() < 1e-12

    def test_rejects_wide(self, rng):
        rt = make_runtime()
        d = DistMatrix.from_array(rt, rng.standard_normal((4, 8)), 2)
        with pytest.raises(ValueError):
            geqrf(rt, d)


class TestQRGraphShape:
    def test_tree_panel_has_log_depth_combines(self):
        """8 block rows combine in 3 rounds (pairs 4+2+1 = 7 TTQRTs)."""
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 64, 8, 8)
        geqrf(rt, d)
        counts = rt.graph.counts_by_kind()
        assert counts["geqrt"] == 8
        assert counts["tpqrt"] == 7  # tree combines

    def test_tree_critical_path_shorter(self):
        """The communication-avoiding panel's whole point: with unit
        task durations one panel of r block rows costs its geqrt plus
        log2(r) combine rounds, not r - 1 chained couples."""
        def crit(rows):
            rt = make_runtime(1, 1, numeric=False)
            d = DistMatrix(rt, 32 * rows, 32, 32)
            geqrf(rt, d)
            return rt.graph.critical_path_seconds(lambda t: 1.0)

        assert crit(16) <= 1 + math.log2(16)
        assert crit(32) == crit(16) + 1   # rows double: one more round

    def test_phases_advance_per_panel(self):
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 32, 16, 8)
        p0 = rt.phase
        geqrf(rt, d)
        assert rt.phase - p0 >= 2  # one per panel step


# ---------------------------------------------------------------------------
# Identity-aware stacked QR (``identity_from``) and orgqr-style Q formation
# ---------------------------------------------------------------------------

def _tiling(extent, nb):
    return (nb,) * (extent // nb) + ((extent % nb,) if extent % nb else ())


def _stacked(rt, A, nb, c=7.5):
    """QDWH's workspace [sqrt(c) A; I] with the identity block aligned
    to the column tiling; returns (DistMatrix, identity_from)."""
    m, n = A.shape
    rows, cols = _tiling(m, nb), _tiling(n, nb)
    w = DistMatrix(rt, m + n, n, nb, A.dtype, row_heights=rows + cols,
                   col_widths=cols)
    if rt.numeric:
        dense = np.vstack([np.sqrt(c) * A, np.eye(n, dtype=A.dtype)])
        for i in range(w.mt):
            for j in range(w.nt):
                r0, c0 = w.row_offsets[i], w.col_offsets[j]
                w.set_tile(i, j, dense[r0:r0 + w.tile_rows(i),
                                       c0:c0 + w.tile_cols(j)])
    return w, len(rows)


def _random(m, n, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal((m, n))
    return a.astype(dtype)


#: (m, n, nb): square, m >> n, ragged last tile (rows and columns), nb > n.
STACKED_SHAPES = [(24, 24, 8), (64, 16, 8), (27, 21, 8), (13, 10, 16)]


class TestIdentityAwareQR:
    @pytest.mark.parametrize("shape", STACKED_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128],
                             ids=_TREE_ID)
    def test_structured_matches_unstructured(self, dtype, shape):
        m, n, nb = shape
        A = _random(m, n, dtype, seed=m * 7 + n)
        out = {}
        for structured in (False, True):
            rt = make_runtime(2, 2)
            w, top_mt = _stacked(rt, A, nb)
            _, dq = qr_explicit(
                rt, w, identity_from=top_mt if structured else None)
            q = dq.to_array()
            out[structured] = (q[:m] @ q[m:].conj().T,
                               np.abs(np.triu(w.to_array()[:n])),
                               np.abs(q.conj().T @ q - np.eye(n)).max())
        tol = 50 * (m + n) * float(np.finfo(dtype).eps)
        (qq0, r0, orth0), (qq1, r1, orth1) = out[False], out[True]
        assert orth0 < tol and orth1 < tol
        # Q1 Q2^H is invariant under the column-sign freedom of a QR;
        # |R| is invariant under the matching row signs.
        assert np.abs(qq1 - qq0).max() < tol
        assert np.abs(r1 - r0).max() < tol * max(1.0, r0.max())

    @staticmethod
    def _record(m=40, n=24, nb=8):
        rt = make_runtime(1, 1, numeric=False)
        w, p = _stacked(rt, np.empty((m, n)), nb)
        fac, q = qr_explicit(rt, w, identity_from=p)
        fact, form = {}, {}
        for t in rt.graph.tasks:
            refs = t.reads + t.writes
            if t.label.startswith("eye"):
                continue
            bucket = form if any(r[0] == q.mat_id for r in refs) else fact
            bucket.setdefault(t.phase, []).append(refs)
        # One phase per panel: ascending k while factoring, descending
        # while forming Q.
        panels = {"fact": [fact[ph] for ph in sorted(fact)],
                  "form": [form[ph] for ph in sorted(form, reverse=True)]}
        return fac, w, q, panels

    def test_recorded_graph_touches_active_rows_only(self):
        fac, w, q, panels = self._record()
        p = fac.identity_from
        assert len(panels["fact"]) == len(panels["form"]) == fac.kt == w.nt
        for stage, mats in (("fact", (w.mat_id,)),
                            ("form", (w.mat_id, q.mat_id))):
            for k, tasks in enumerate(panels[stage]):
                rows = {r[1] for refs in tasks for r in refs
                        if r[0] in mats}
                active = set(range(k, p)) | set(range(p, p + k + 1))
                assert rows == active, (stage, k)
                assert rows == set(fac.active_rows(k))
                assert len(rows) == (p - k) + (k + 1)
                # Identity row p + r is first touched by panel r.
                assert all(i - p <= k for i in rows if i >= p)
        for k, tasks in enumerate(panels["form"]):
            cols = {r[2] for refs in tasks for r in refs
                    if r[0] == q.mat_id}
            assert cols == set(range(k, q.nt)), k  # orgqr: no j < k

    def test_pristine_tile_records_no_geqrt(self):
        rt = make_runtime(1, 1, numeric=False)
        w, p = _stacked(rt, np.empty((16, 16)), 8)
        geqrf(rt, w, identity_from=p)
        labels = [t.label for t in rt.graph.tasks]
        # panel 0: rows 0, 1 geqrt, row 2 = I enters as a triangle;
        # panel 1: rows 1, 2 (fill-in) geqrt, row 3 = I.
        assert [lb for lb in labels if lb.startswith("ts.geqrt")] == [
            "ts.geqrt(0,0)", "ts.geqrt(1,0)",
            "ts.geqrt(1,1)", "ts.geqrt(2,1)"]
        assert sum(lb.startswith("ttqrt") for lb in labels) == 2 + 2
        assert "ts.unmqr(2,1)" not in labels  # panel 0, pristine row

    def test_unstructured_q_formation_skips_leading_columns(self):
        """The column rule needs no precondition."""
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 32, 24, 8)
        fac = geqrf(rt, d)
        n0 = len(rt.graph.tasks)
        q = unmqr_identity(rt, fac)
        # Phases after the [I; 0] fill: one per panel, k = kt-1 down to 0.
        first = rt.graph.tasks[n0].phase + 1
        applied = [t for t in rt.graph.tasks[n0:] if t.label.startswith("q.")]
        assert applied
        for t in applied:
            k = fac.kt - 1 - (t.phase - first)
            assert all(r[2] >= k for r in t.writes if r[0] == q.mat_id)

    @pytest.mark.parametrize("bad", [0, 2, 4, 7, 9])
    def test_identity_from_must_describe_aligned_block(self, bad):
        rt = make_runtime(1, 1, numeric=False)
        w, p = _stacked(rt, np.empty((40, 24)), 8)   # 5 + 3 tile rows
        assert p == 5 and bad != p
        with pytest.raises(ValueError, match="identity_from"):
            geqrf(rt, w, identity_from=bad)

    def test_identity_block_heights_must_match_column_widths(self):
        rt = make_runtime(1, 1, numeric=False)
        # Uniform row tiling 8,8,8,8,8,1 does not end in the column
        # tiling 8,8,5: the bottom block's tiles are not I-or-zero.
        w = DistMatrix(rt, 20 + 21, 21, 8)
        with pytest.raises(ValueError, match="identity_from"):
            geqrf(rt, w, identity_from=3)
        rt2 = make_runtime(1, 1, numeric=False)
        wide_top = DistMatrix(rt2, 8 + 24, 24, 8)   # A is 1 x 3 tiles
        with pytest.raises(ValueError, match="identity_from"):
            geqrf(rt2, wide_top, identity_from=1)

    @pytest.mark.parametrize("workers", [None, 4], ids=_TREE_ID)
    def test_tilesan_and_race_check_clean(self, workers):
        kw = {} if workers is None else {"deferred": True,
                                         "workers": workers}
        rt = Runtime(ProcessGrid(1, 1), sanitize="raise", **kw)
        A = _random(27, 21, np.float64, seed=3)
        w, p = _stacked(rt, A, 8)
        _, dq = qr_explicit(rt, w, identity_from=p)
        q = dq.to_array()   # syncs; SanitizerError on a bad footprint
        san = rt.sanitizer
        assert san.findings == []
        assert san.tasks_checked == len(rt.graph.tasks)
        assert rt.graph.check_races(footprints=san.footprints()) == []
        assert np.abs(q.conj().T @ q - np.eye(21)).max() < 1e-13
        rt.close()


# ---------------------------------------------------------------------------
# The block-reflector factors are tiles (QRFactors.t / QRFactors.tt)
# ---------------------------------------------------------------------------

#: (m, n, nb): square, m >> n, ragged rows and columns, nb > n.
FACTOR_SHAPES = [(24, 24, 8), (64, 16, 8), (81, 42, 8), (13, 10, 16)]
BACKENDS = {"eager": {},
            "threads": dict(deferred=True, workers=4),
            "processes": dict(deferred=True, workers=2,
                              backend="processes")}


def _factor(rt, A, nb, stacked):
    """``qr_explicit`` of A, or of QDWH's [sqrt(c) A; I] with
    ``identity_from``; returns (factors, factored matrix, Q)."""
    if stacked:
        w, p = _stacked(rt, A, nb)
    else:
        w, p = DistMatrix.from_array(rt, A.copy(), nb), None
    fac, q = qr_explicit(rt, w, identity_from=p)
    return fac, w, q


@pytest.mark.usefixtures("lanes_for_tiny_tiles")
class TestFactorsAreTiles:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["plain", "identity_from"])
    @pytest.mark.parametrize("shape", FACTOR_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_sanitized_and_bit_identical_on_every_backend(
            self, dtype, shape, stacked, backend):
        m, n, nb = shape
        A = _random(m, n, dtype, seed=m + 3 * n)
        with Runtime(ProcessGrid(1, 1), sanitize=None) as rt0:
            _, w0, q0 = _factor(rt0, A, nb, stacked)
            want = (w0.to_array(), q0.to_array())
        # sanitize="raise": an undeclared access aborts the run, in a
        # forked worker as on a thread.
        with Runtime(ProcessGrid(1, 1), sanitize="raise",
                     **BACKENDS[backend]) as rt:
            fac, w, q = _factor(rt, A, nb, stacked)
            got = (w.to_array(), q.to_array())
            san = rt.sanitizer
            assert san.findings == []
            if backend != "processes":   # workers keep their own count
                assert san.tasks_checked == len(rt.graph.tasks)
            assert rt.graph.check_races(footprints=san.footprints()) == []
            # The factor refs are observable tiles now, not pseudo refs.
            refs = {r for t in rt.graph.tasks for r in t.reads + t.writes}
            assert fac.t.mat_id in {r[0] for r in refs}
            assert all(san._observable(r) for r in refs)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_sweep_that_hides_its_combine_tile_is_caught(self):
        """The seeded-bad footprint no checker could see while the
        combine ref was a pseudo ref: a ttmqrt sweep that reads the
        combine tile without declaring it."""
        import inspect

        from repro.analysis.lint import PAYLOAD_FOOTPRINT, lint_source
        from repro.analysis.sanitizer import UNDECLARED_READ, SanitizerError
        from repro.runtime.task import TaskKind
        from repro.tiled import qr

        rt = Runtime(ProcessGrid(1, 1), sanitize="raise")
        A = _random(16, 8, np.float64, seed=5)
        d = DistMatrix.from_array(rt, A, 8)
        fac = geqrf(rt, d)                  # one combine: rows (0, 1)
        tt, c = fac.tt, DistMatrix.from_array(rt, A, 8)

        def body():
            v_top, v_bot, t = qr._couple(tt.tile(1, 0), 8, 8)
            c.tile(0, 0)[...] -= v_top @ (t @ c.tile(1, 0))

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.TPMQRT, reads=(),
                      writes=(c.ref(0, 0), c.ref(1, 0)), rank=0, fn=body)
        assert exc.value.finding.kind == UNDECLARED_READ
        assert exc.value.finding.ref == tt.ref(1, 0)

        src = inspect.getsource(qr)
        assert lint_source(src) == []
        bad = src.replace("reads=(tt.ref(i2, k),),", "reads=(),")
        assert bad != src
        (f,) = lint_source(bad)
        assert f.rule == PAYLOAD_FOOTPRINT and "tt.tile" in f.message

    def test_failed_combine_is_retried_from_its_snapshot(self):
        """A TPQRT attempt dies after writing both its outputs; the
        ledger restores the combine tile (and the R tile) before the
        retry — the payload itself checks it starts from zeros."""
        from repro.resilience.live import (InjectedTransientError,
                                           RecoveryPolicy)
        from repro.runtime.task import TaskKind

        A = _random(32, 16, np.float64, seed=9)
        with Runtime(ProcessGrid(1, 1)) as rt0:
            _, w0, q0 = _factor(rt0, A, 8, False)
            want = (w0.to_array(), q0.to_array())
        # One worker: both attempts run in the same forked process, so
        # the closure below counts them.
        with Runtime(ProcessGrid(1, 1), deferred=True, workers=1,
                     backend="processes",
                     recovery=RecoveryPolicy(max_retries=2)) as rt:
            fac, w, q = _factor(rt, A, 8, False)
            task = next(t for t in rt.graph.tasks
                        if t.kind is TaskKind.TPQRT)
            (ttref,) = [r for r in task.writes if r[0] == fac.tt.mat_id]
            payload, attempts = rt._pending_fns[task.tid], []

            def flaky():
                tile = fac.tt.tile(ttref[1], ttref[2])
                attempts.append(1)
                if len(attempts) == 1:
                    payload()
                    assert np.any(tile != 0)
                    raise InjectedTransientError("seeded, after the writes")
                if np.any(tile != 0):
                    raise np.linalg.LinAlgError(
                        "combine tile not restored")   # not retryable
                payload()

            rt._pending_fns[task.tid] = flaky
            got = (w.to_array(), q.to_array())
            rec = rt.exec_stats.recovery
            assert (rec.transient_failures, rec.retried_tasks) == (1, 1)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
