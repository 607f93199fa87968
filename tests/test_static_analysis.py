"""Tests for the correctness-tooling subsystem (:mod:`repro.analysis`).

Three layers, each with its seeded known-bad fixture:

* TileSan footprint sanitizer — an undeclared read, an undeclared
  write, and a phantom declaration are each caught with the right
  finding kind, in raise and warn modes, on eager and threaded
  backends.
* Happens-before race checker — a true race (conflicting accesses
  with no dependency path) is reported; transitive ordering passes.
* repro-lint static rules — REP001..REP004 fire on crafted sources and
  are suppressible.

Plus the submit(rank=None) owner resolution, unconditional tile
registration, and the hypothesis property that sanitizer-clean random
graphs stay race-free and replay cleanly under workers=4.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    RaceError,
    SanitizerError,
    SanitizerWarning,
    ancestor_bitsets,
    check_races,
    lint_source,
)
from repro.analysis.lint import (
    BACKEND_UNKNOWN,
    FOOTPRINT_MISSING,
    FORK_UNSAFE_ARG,
    PAYLOAD_FOOTPRINT,
    RECV_UNDER_LOCK,
    SYNC_IN_PAYLOAD as LINT_SYNC_IN_PAYLOAD,
)
from repro.analysis.sanitizer import (
    PHANTOM_DECLARATION,
    SYNC_IN_PAYLOAD,
    UNDECLARED_READ,
    UNDECLARED_WRITE,
    sanitize_mode_from_env,
)
from repro.dist import DistMatrix, ProcessGrid
from repro.runtime import Runtime, TaskGraph, TaskKind
from repro.runtime.task import Task


def _runtime(p=1, q=1, **kw):
    kw.setdefault("sanitize", "raise")
    return Runtime(ProcessGrid(p, q), **kw)


def _matrix(rt, n=8, nb=4):
    a = np.arange(float(n * n)).reshape(n, n)
    return DistMatrix.from_array(rt, a, nb)


def _mk(tid, reads=(), writes=(), deps=None, kind=TaskKind.GEMM):
    t = Task(tid=tid, kind=kind, reads=tuple(reads), writes=tuple(writes),
             rank=0, phase=0)
    if deps is not None:
        t.deps = tuple(deps)
    return t


T0 = (0, 0, 0)
T1 = (0, 0, 1)


# ---------------------------------------------------------------------------
# TileSan: seeded known-bad footprints
# ---------------------------------------------------------------------------

class TestTileSanSeededBad:
    def test_undeclared_read_raises(self):
        rt = _runtime()
        m = _matrix(rt)

        def bad():
            m.tile(0, 0)[...] += m.tile(0, 1)  # (0,1) not declared

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                      rank=0, fn=bad, label="bad-read")
        f = exc.value.finding
        assert f.kind == UNDECLARED_READ
        assert f.ref == (m.mat_id, 0, 1)
        assert "bad-read" in f.message()

    def test_undeclared_write_raises(self):
        # A write TileSan can attribute goes through set_tile (writes
        # through the ndarray a tile() read returned are inherently
        # invisible to the hook — that gap is REP002's job statically).
        rt = _runtime()
        m = _matrix(rt)

        def bad():
            m.set_tile(1, 1, np.zeros((4, 4)))  # only (0,0) declared

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.SET, reads=(), writes=(m.ref(0, 0),),
                      rank=0, fn=bad, label="bad-write")
        f = exc.value.finding
        assert f.kind == UNDECLARED_WRITE
        assert f.ref == (m.mat_id, 1, 1)

    def test_set_tile_is_a_write(self):
        rt = _runtime()
        m = _matrix(rt)

        def bad():
            m.set_tile(0, 0, np.zeros((4, 4)))

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.SET, reads=(m.ref(0, 0),), writes=(),
                      rank=0, fn=bad)
        assert exc.value.finding.kind == UNDECLARED_WRITE

    def test_phantom_declaration_raises(self):
        rt = _runtime()
        m = _matrix(rt)

        def lazy():
            m.tile(0, 0)[...] *= 2.0  # never touches declared (1, 1)

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.SCALE, reads=(m.ref(1, 1),),
                      writes=(m.ref(0, 0),), rank=0, fn=lazy,
                      label="phantom")
        f = exc.value.finding
        assert f.kind == PHANTOM_DECLARATION
        assert f.ref == (m.mat_id, 1, 1)
        # The payload itself completed before the phantom check fired.
        assert float(m.tile(0, 0)[0, 1]) == 2.0

    def test_declared_write_read_in_place_is_clean(self):
        rt = _runtime()
        m = _matrix(rt)

        def inplace():
            t = m.tile(0, 0)  # read of a declared write: in/out
            t[...] = t + 1.0

        rt.submit(TaskKind.ADD, reads=(), writes=(m.ref(0, 0),),
                  rank=0, fn=inplace)
        assert rt.sanitizer.findings == []
        assert rt.sanitizer.tasks_checked == 1

    def test_pseudo_tiles_exempt_from_phantom_check(self):
        rt = _runtime()
        m = _matrix(rt)
        sref = rt.new_scalar_ref()
        box = [0.0]

        def reduce_body():
            box[0] = float(np.sum(m.tile(0, 0)))

        rt.submit(TaskKind.REDUCE, reads=(m.ref(0, 0),), writes=(sref,),
                  rank=0, fn=reduce_body)
        assert rt.sanitizer.findings == []

    def test_warn_mode_collects_without_raising(self):
        rt = _runtime(sanitize="warn")
        m = _matrix(rt)

        def bad():
            m.tile(0, 0)[...] += m.tile(0, 1)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                      rank=0, fn=bad)
        assert [f.kind for f in rt.sanitizer.findings] == [UNDECLARED_READ]
        assert any(issubclass(w.category, SanitizerWarning) for w in caught)
        # Observed footprints feed the race checker.
        reads, writes = rt.sanitizer.footprints()[0]
        assert (m.mat_id, 0, 1) in reads
        assert (m.mat_id, 0, 0) in writes

    def test_opt_out_per_task(self):
        rt = _runtime()
        m = _matrix(rt)

        def uninstrumented():
            m.tile(1, 0)[...] = 7.0

        rt.submit(TaskKind.SET, reads=(), writes=(m.ref(0, 0),),
                  rank=0, fn=uninstrumented, sanitize=False)
        assert rt.sanitizer.findings == []

    def test_driver_level_access_ignored(self):
        rt = _runtime()
        m = _matrix(rt)
        m.tile(0, 0)  # outside any payload: no frame, no finding
        assert rt.sanitizer.findings == []

    def test_sanitize_none_disables(self):
        rt = Runtime(ProcessGrid(1, 1), sanitize=None)
        assert rt.sanitizer is None
        m = _matrix(rt)

        def bad():
            m.tile(0, 1)

        rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                  rank=0, fn=bad)  # no checking at all

    def test_to_array_in_payload_flagged(self):
        rt = _runtime()
        m = _matrix(rt)

        def syncs():
            m.to_array()

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.REDUCE, reads=(m.ref(0, 0),),
                      writes=(rt.new_scalar_ref(),), rank=0, fn=syncs)
        assert exc.value.finding.kind == SYNC_IN_PAYLOAD

    def test_scalar_value_in_payload_flagged(self):
        from repro.tiled.norms import norm_fro

        rt = _runtime()
        m = _matrix(rt)
        res = norm_fro(rt, m)

        def syncs():
            _ = res.value

        with pytest.raises(SanitizerError) as exc:
            rt.submit(TaskKind.REDUCE, reads=(res.ref,),
                      writes=(rt.new_scalar_ref(),), rank=0, fn=syncs)
        assert exc.value.finding.kind == SYNC_IN_PAYLOAD

    def test_threads_backend_catches_undeclared_read(self):
        rt = _runtime(deferred=True, workers=2)
        m = _matrix(rt)

        def bad():
            m.tile(0, 0)[...] += m.tile(0, 1)

        rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                  rank=0, fn=bad)
        with pytest.raises(SanitizerError):
            rt.sync()
        rt.close()

    def test_findings_forwarded_to_sink(self):
        from repro.obs.timeline import TimelineSink

        sink = TimelineSink()
        rt = Runtime(ProcessGrid(1, 1), sanitize="warn", sink=sink)
        m = _matrix(rt)

        def bad():
            m.tile(0, 1)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SanitizerWarning)
            rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                      rank=0, fn=bad, label="sinky")
        assert len(sink.sanitizer) == 2  # undeclared read + phantom write
        kinds = {e.kind for e in sink.sanitizer}
        assert kinds == {UNDECLARED_READ, PHANTOM_DECLARATION}
        assert sink.sanitizer[0].label == "sinky"
        # And the chrome trace renders them as sanitizer instants.
        from repro.obs import chrome_trace

        evs = [e for e in chrome_trace(sink)["traceEvents"]
               if e.get("cat") == "sanitizer"]
        assert len(evs) == 2

    def test_summary_counts_by_kind(self):
        rt = _runtime(sanitize="warn")
        m = _matrix(rt)

        def bad():
            m.tile(0, 0)[...] += m.tile(0, 1)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SanitizerWarning)
            rt.submit(TaskKind.GEMM, reads=(), writes=(m.ref(0, 0),),
                      rank=0, fn=bad)
        s = rt.sanitizer.summary()
        assert s[UNDECLARED_READ] == 1
        assert s["tasks_checked"] == 1


class TestSanitizeEnv:
    def test_unset_gives_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_mode_from_env() is None
        assert sanitize_mode_from_env(default="warn") == "warn"

    @pytest.mark.parametrize("raw", ["", "0", "off", "none", "false", "OFF"])
    def test_disabled_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert sanitize_mode_from_env(default="warn") is None

    @pytest.mark.parametrize("raw,mode", [("warn", "warn"),
                                          ("raise", "raise"),
                                          ("RAISE", "raise")])
    def test_modes(self, monkeypatch, raw, mode):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert sanitize_mode_from_env() == mode

    def test_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "yes")
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            sanitize_mode_from_env()

    def test_runtime_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "warn")
        rt = Runtime(ProcessGrid(1, 1))
        assert rt.sanitizer is not None and rt.sanitizer.mode == "warn"
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert Runtime(ProcessGrid(1, 1)).sanitizer is None


# ---------------------------------------------------------------------------
# Happens-before race checker
# ---------------------------------------------------------------------------

class TestRaceChecker:
    def test_true_race_no_dep_path(self):
        # Seeded-bad graph: two writers of T0 with the dependency edge
        # stripped — exactly what a wrong footprint would build.
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, writes=[T0]))
        g.tasks[1].deps = ()  # sever the WAW edge
        with pytest.raises(RaceError) as exc:
            check_races(g)
        (f,) = exc.value.findings
        assert (f.ref, f.first, f.second, f.kind) == (T0, 0, 1, "write-write")
        assert "no dependency path" in f.message()

    def test_read_write_race(self):
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, reads=[T0]))
        g.add(_mk(2, writes=[T0]))
        g.tasks[2].deps = (0,)  # ordered after the writer, not the reader
        findings = check_races(g, raise_on_error=False)
        assert [(f.first, f.second, f.kind) for f in findings] == \
            [(1, 2, "read-write")]

    def test_transitive_order_is_enough(self):
        # 0 -> 1 -> 2; task 2 writes T0 ordered only *transitively*
        # after writer 0.  validate() would demand a direct edge; the
        # happens-before check accepts the path.
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, reads=[T0], writes=[T1]))
        g.add(_mk(2, reads=[T1], writes=[T0]))
        g.tasks[2].deps = (1,)
        assert check_races(g) == []

    def test_inferred_graph_is_race_free(self):
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, reads=[T0], writes=[T1]))
        g.add(_mk(2, reads=[T0, T1], writes=[T0]))
        assert g.check_races() == []

    def test_observed_footprints_override_declared(self):
        # Declared footprints are disjoint (so the builder emits no
        # edge); the observed footprints reveal the hidden conflict.
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, writes=[T1]))
        fps = {0: (set(), {T0}), 1: (set(), {T0, T1})}
        findings = check_races(g, footprints=fps, raise_on_error=False)
        assert [(f.ref, f.kind) for f in findings] == [(T0, "write-write")]

    def test_in_out_counts_as_write(self):
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        g.add(_mk(1, reads=[T0], writes=[T0]))
        g.tasks[1].deps = ()
        findings = check_races(g, raise_on_error=False)
        assert [f.kind for f in findings] == ["write-write"]

    def test_ancestor_bitsets_transitive(self):
        tasks = [_mk(0), _mk(1, deps=[0]), _mk(2, deps=[1])]
        anc = ancestor_bitsets(tasks)
        assert anc[2] & (1 << 0)  # 0 happens-before 2 via 1

    def test_ancestor_bitsets_rejects_forward_dep(self):
        with pytest.raises(ValueError, match="not an earlier task"):
            ancestor_bitsets([_mk(0, deps=[1]), _mk(1)])

    def test_error_message_caps_at_twenty(self):
        g = TaskGraph()
        g.add(_mk(0, writes=[T0]))
        for tid in range(1, 31):
            g.add(_mk(tid, writes=[T0]))
            g.tasks[tid].deps = ()
        with pytest.raises(RaceError, match="more"):
            check_races(g)


# ---------------------------------------------------------------------------
# repro-lint static rules
# ---------------------------------------------------------------------------

SUBMIT_OK = """
def op(rt, a):
    for i in range(a.mt):
        def body(i=i):
            a.tile(i, 0)[...] = 0
        rt.submit(TaskKind.SET, reads=(), writes=(a.ref(i, 0),),
                  rank=0, fn=body)
"""


class TestLintRules:
    def test_clean_source(self):
        assert lint_source(SUBMIT_OK) == []

    def test_rep001_missing_footprint(self):
        src = """
def op(rt, a):
    rt.submit(TaskKind.SET, rank=0, fn=lambda: None)
"""
        (f,) = lint_source(src)
        assert f.rule == FOOTPRINT_MISSING

    def test_rep002_undeclared_tile_in_payload(self):
        src = """
def op(rt, a):
    def body():
        a.tile(0, 0)[...] = a.tile(0, 1)
    rt.submit(TaskKind.COPY, reads=(a.ref(0, 1),), writes=(a.ref(0, 0),),
              rank=0, fn=body)
    def body2():
        a.tile(1, 1)[...] = 0
    rt.submit(TaskKind.SET, reads=(), writes=(a.ref(0, 0),),
              rank=0, fn=body2)
"""
        (f,) = lint_source(src)
        assert f.rule == PAYLOAD_FOOTPRINT
        assert "a.tile(1, 1)" in f.message

    def test_rep002_set_tile(self):
        src = """
def op(rt, a):
    def body():
        a.set_tile(2, 2, None)
    rt.submit(TaskKind.SET, reads=(), writes=(a.ref(0, 0),),
              rank=0, fn=body)
"""
        (f,) = lint_source(src)
        assert f.rule == PAYLOAD_FOOTPRINT
        assert "set_tile" in f.message

    def test_rep002_resolves_latest_preceding_def(self):
        # Two defs of the same payload name: each submit must match its
        # own (the nearest preceding) def, regardless of AST walk order.
        src = """
def op(rt, a):
    for i in range(a.mt):
        if i == 0:
            def body(i=i):
                a.tile(i, i)[...] = 0
            rt.submit(TaskKind.SET, reads=(), writes=(a.ref(i, i),),
                      rank=0, fn=body)
        else:
            def body(i=i):
                a.tile(i, 0)[...] = 0
            rt.submit(TaskKind.SET, reads=(), writes=(a.ref(i, 0),),
                      rank=0, fn=body)
"""
        assert lint_source(src) == []

    def test_rep002_tuple_unpack_and_ifexp(self):
        src = """
def op(rt, a, trans):
    src, dst = a.ref(0, 1), a.ref(1, 0)
    xref = a.ref(0, 0) if trans else a.ref(1, 1)
    def body():
        a.tile(1, 0)[...] = a.tile(0, 1)
        a.tile(0, 0)[...] += 1
        a.tile(1, 1)[...] += 1
    rt.submit(TaskKind.COPY, reads=(src,), writes=(dst, xref),
              rank=0, fn=body)
"""
        # xref may be either tile: both alternatives are declared, and
        # the union-resolution accepts accesses to either.
        assert lint_source(src) == []

    def test_rep002_opaque_footprint_skipped(self):
        src = """
def op(rt, a):
    refs = tuple(a.ref(i, 0) for i in range(a.mt))
    def body():
        a.tile(5, 5)[...] = 0
    rt.submit(TaskKind.SET, reads=(), writes=refs, rank=0, fn=body)
"""
        assert lint_source(src) == []

    def test_rep004_to_array_in_payload(self):
        src = """
def op(rt, a):
    def body():
        x = a.to_array()
    rt.submit(TaskKind.REDUCE, reads=(a.ref(0, 0),), writes=(), rank=0,
              fn=body)
"""
        (f,) = lint_source(src)
        assert f.rule == LINT_SYNC_IN_PAYLOAD

    def test_rep004_scalar_value_in_payload(self):
        src = """
def op(rt, a):
    nrm = norm_fro(rt, a)
    def body():
        x = nrm.value
    rt.submit(TaskKind.REDUCE, reads=(a.ref(0, 0),), writes=(), rank=0,
              fn=body)
"""
        (f,) = lint_source(src)
        assert f.rule == LINT_SYNC_IN_PAYLOAD

    def test_rep004_private_scalar_helper(self):
        src = """
def op(rt, fac):
    rn = _r_norm1(rt, fac)
    def body():
        x = rn.value
    rt.submit(TaskKind.REDUCE, reads=(rn.ref,), writes=(), rank=0,
              fn=body)
"""
        (f,) = lint_source(src)
        assert f.rule == LINT_SYNC_IN_PAYLOAD

    def test_rep004_knows_every_scalar_function(self):
        """REP004's name list is the set of functions under
        ``repro.tiled`` annotated ``-> ScalarResult`` — no stale name,
        none missing."""
        import ast
        import pathlib

        import repro.tiled
        from repro.analysis.lint import _SCALAR_FUNCS

        annotated = set()
        for path in pathlib.Path(repro.tiled.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) \
                        and isinstance(node.returns, ast.Name) \
                        and node.returns.id == "ScalarResult":
                    annotated.add(node.name)
        assert annotated == set(_SCALAR_FUNCS)

    def test_suppression_on_offending_line(self):
        src = """
def op(rt, a):
    rt.submit(TaskKind.SET, rank=0, fn=lambda: None)  # repro-lint: ignore[REP001]
"""
        assert lint_source(src) == []

    def test_suppression_all_rules(self):
        src = """
def op(rt, a):
    rt.submit(TaskKind.SET, rank=0, fn=lambda: None)  # repro-lint: ignore
"""
        assert lint_source(src) == []

    def test_suppression_wrong_rule_still_fires(self):
        src = """
def op(rt, a):
    rt.submit(TaskKind.SET, rank=0, fn=lambda: None)  # repro-lint: ignore[REP002]
"""
        (f,) = lint_source(src)
        assert f.rule == FOOTPRINT_MISSING

    def test_executor_submit_not_matched(self):
        # Thread-pool submit calls don't take a TaskKind first arg and
        # must not be linted.
        src = """
def drain(pool, work):
    for item in work:
        pool.submit(run_one, item)
"""
        assert lint_source(src) == []

    def test_repo_is_lint_clean(self):
        import os

        import repro
        from repro.analysis import lint_paths

        assert lint_paths([os.path.dirname(repro.__file__)]) == []


class TestDistributedLintRules:
    """REP006-REP008: rules targeting the distributed runtime."""

    def test_rep006_recv_under_lock(self):
        src = """
def pump(self, w):
    with self._send_lock:
        return w.comm.recv(timeout=None)
"""
        (f,) = lint_source(src)
        assert f.rule == RECV_UNDER_LOCK

    def test_rep006_recv_outside_lock_is_clean(self):
        src = """
def pump(self, w):
    with self._send_lock:
        w.comm.send(msg)
    return w.comm.recv(timeout=None)
"""
        assert lint_source(src) == []

    def test_rep006_block_is_not_a_lock(self):
        # 'block' must not token-match 'lock'.
        src = """
def pump(self, w, block):
    with block:
        return w.comm.recv(timeout=None)
"""
        assert lint_source(src) == []

    def test_rep006_nonblocking_receiver_names_are_clean(self):
        src = """
def pump(self, q):
    with self._lock:
        return q.recv()
"""
        assert lint_source(src) == []

    def test_rep007_lock_in_process_args(self):
        src = """
def spawn(ctx, fn):
    lock = threading.Lock()
    return ctx.Process(target=fn, args=(1, lock))
"""
        (f,) = lint_source(src)
        assert f.rule == FORK_UNSAFE_ARG

    def test_rep007_factory_call_in_args(self):
        src = """
def spawn(ctx, fn):
    return ctx.Process(target=fn, args=(Lock(),))
"""
        (f,) = lint_source(src)
        assert f.rule == FORK_UNSAFE_ARG

    def test_rep007_comm_attribute_in_args(self):
        src = """
def spawn(ctx, fn, w):
    return ctx.Process(target=fn, args=(w.wid, w.comm))
"""
        (f,) = lint_source(src)
        assert f.rule == FORK_UNSAFE_ARG

    def test_rep007_plain_data_args_are_clean(self):
        src = """
def spawn(ctx, fn, address, close_fds):
    return ctx.Process(target=fn,
                       args=(3, address, "tcp://x", close_fds))
"""
        assert lint_source(src) == []

    def test_rep008_unknown_backend_literal(self):
        src = """
def run(rt, da):
    return tiled_qdwh(rt, da, backend="proceses", workers=4)
"""
        (f,) = lint_source(src)
        assert f.rule == BACKEND_UNKNOWN
        assert "proceses" in f.message

    def test_rep008_known_backends_are_clean(self):
        src = """
def run(rt, da):
    a = tiled_qdwh(rt, da, backend="processes", workers=4)
    b = tiled_qdwh(rt, da, backend="threads")
    c = tiled_qdwh(rt, da, backend="eager")
    d = tiled_qdwh(rt, da, backend="dense")
    return a, b, c, d
"""
        assert lint_source(src) == []

    def test_new_rules_respect_suppression(self):
        src = """
def run(rt, da):
    return tiled_qdwh(rt, da, backend="proceses")  # repro-lint: ignore[REP008]
"""
        assert lint_source(src) == []


# ---------------------------------------------------------------------------
# repro lint CLI verb
# ---------------------------------------------------------------------------

class TestLintCli:
    def test_static_dirty_exit(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "def op(rt, a):\n"
            "    rt.submit(TaskKind.SET, rank=0, fn=lambda: None)\n")
        rc = main(["lint", "--static", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP001" in out

    def test_static_clean_exit(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["lint", "--static", str(good)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# submit(rank=None) owner resolution
# ---------------------------------------------------------------------------

class TestRankResolution:
    def test_single_rank_grid_defaults_to_zero(self):
        rt = _runtime(1, 1)
        t = rt.submit(TaskKind.SET)
        assert t.rank == 0

    def test_owner_resolved_from_write_ref(self):
        rt = _runtime(2, 2)
        m = _matrix(rt, n=8, nb=4)
        for i in range(m.mt):
            for j in range(m.nt):
                t = rt.submit(TaskKind.SET, reads=(),
                              writes=(m.ref(i, j),))
                assert t.rank == m.owner(i, j)

    def test_pseudo_ref_then_owned_ref_resolves(self):
        rt = _runtime(2, 2)
        m = _matrix(rt, n=8, nb=4)
        sref = rt.new_scalar_ref()
        t = rt.submit(TaskKind.REDUCE, reads=(),
                      writes=(sref, m.ref(1, 1)))
        assert t.rank == m.owner(1, 1)

    def test_unresolvable_raises(self):
        rt = _runtime(2, 2)
        with pytest.raises(ValueError, match="rank=None"):
            rt.submit(TaskKind.REDUCE, writes=(rt.new_scalar_ref(),),
                      label="orphan")

    def test_no_writes_raises_on_multirank(self):
        rt = _runtime(2, 2)
        with pytest.raises(ValueError, match="pass rank= explicitly"):
            rt.submit(TaskKind.SET)


class TestUnconditionalRegistration:
    def test_scalar_ref_registered_without_graph(self):
        rt = Runtime(ProcessGrid(1, 1))
        ref = rt.new_scalar_ref(16)
        assert rt.graph.tile_bytes[ref] == 16

    def test_register_tiles_without_graph(self):
        rt = Runtime(ProcessGrid(1, 1))
        rt.register_tiles([(9, 0, 0)], 64, owner=0)
        assert rt.graph.tile_bytes[(9, 0, 0)] == 64
        assert rt.graph.tile_owner[(9, 0, 0)] == 0


# ---------------------------------------------------------------------------
# Property: sanitizer-clean graphs stay race-free under workers=4
# ---------------------------------------------------------------------------

@st.composite
def _programs(draw):
    """Random tile programs: (reads, writes) index sets over 6 tiles."""
    n_tiles = 6
    n_tasks = draw(st.integers(2, 14))
    tiles = st.integers(0, n_tiles - 1)
    specs = []
    for _ in range(n_tasks):
        writes = draw(st.sets(tiles, min_size=1, max_size=2))
        reads = draw(st.sets(tiles, max_size=3)) - writes
        specs.append((sorted(reads), sorted(writes)))
    return specs


@settings(max_examples=25, deadline=None)
@given(specs=_programs())
def test_sanitizer_clean_programs_are_race_free(specs):
    rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=4,
                 sanitize="raise")
    n = 4 * 3  # 3x2 tiles of nb=4
    a = np.zeros((n, 8))
    m = DistMatrix.from_array(rt, a, 4)
    tile_of = [(i % 3, i // 3) for i in range(6)]

    for reads, writes in specs:
        def body(reads=tuple(reads), writes=tuple(writes)):
            acc = 1.0
            for r in reads:
                acc += float(m.tile(*tile_of[r])[0, 0])
            for w in writes:
                m.tile(*tile_of[w])[...] += acc

        rt.submit(TaskKind.GEMM,
                  reads=tuple(m.ref(*tile_of[r]) for r in reads),
                  writes=tuple(m.ref(*tile_of[w]) for w in writes),
                  rank=0, fn=body)
    rt.sync()  # raises SanitizerError / OrderingViolationError if dirty
    san = rt.sanitizer
    assert san.findings == []
    # Observed footprints match declarations, and the happens-before
    # check finds no unordered conflicting pair.
    assert rt.graph.check_races(footprints=san.footprints()) == []
    rt.close()
