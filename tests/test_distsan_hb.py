"""DistSan happens-before checker: synthetic traces + a real run."""

import numpy as np
import pytest

from repro.analysis.dist import audit_refcounts, check_frames, check_hb
from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix
from repro.runtime import Runtime
from repro.runtime.distributed.events import (EV_COMPLETE, EV_CREATE,
                                              EV_DISPATCH, EV_DRIVER, EV_PIN,
                                              EV_UNLINK, DistTraceRecorder)
from repro.runtime.task import Task, TaskKind

REF = (7, 0, 0)


def _task(tid, deps=(), reads=(), writes=()):
    return Task(tid=tid, kind=TaskKind.GEMM, reads=tuple(reads),
                writes=tuple(writes), rank=0, phase=0, deps=tuple(deps))


def _recorder_with_pin():
    # One segment per matrix, one pin per tile installed in it.
    rec = DistTraceRecorder()
    rec.record(EV_CREATE, segment="seg1")
    rec.record(EV_PIN, segment="seg1", ref=REF)
    return rec


class TestSyntheticTraces:
    def test_ordered_chain_is_clean(self):
        # t1 writes REF; t2 (dep on t1) reads it.  The executor
        # dispatches t2 only after t1's reply: ordered.
        tasks = [_task(0, writes=[REF]), _task(1, deps=[0], reads=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=1, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=1, attempt=0)
        assert check_hb(rec, tasks) == []

    def test_unordered_writes_are_a_race(self):
        # Both dispatched before either reply: nothing orders the two
        # worker-side writes to one shared tile.
        tasks = [_task(0, writes=[REF]), _task(1, writes=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=1, attempt=0)
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=1, attempt=0)
        findings = check_hb(rec, tasks)
        assert [f.kind for f in findings] == ["race-write-write"]
        assert findings[0].ref == REF
        assert findings[0].segment == "seg1"

    def test_unordered_write_read_is_a_race(self):
        tasks = [_task(0, writes=[REF]), _task(1, reads=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=1, attempt=0)
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=1, attempt=0)
        kinds = {f.kind for f in check_hb(rec, tasks)}
        assert kinds == {"race-write-read"}

    def test_same_worker_program_order_orders_accesses(self):
        # Both attempts on ONE worker: its sequential recv loop
        # orders them even with overlapping (pipelined) dispatches.
        tasks = [_task(0, writes=[REF]), _task(1, writes=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=0, attempt=0)
        assert check_hb(rec, tasks) == []

    def test_unshared_tiles_are_ignored(self):
        other = (8, 1, 1)   # never pinned into shm
        tasks = [_task(0, writes=[other]), _task(1, writes=[other])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=1, attempt=0)
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=1, attempt=0)
        assert check_hb(rec, tasks) == []

    def test_failed_attempt_writes_are_discarded(self):
        from repro.runtime.distributed.events import EV_FAIL

        tasks = [_task(0, writes=[REF]), _task(1, writes=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DISPATCH, tid=1, wid=1, attempt=0)
        rec.record(EV_FAIL, tid=0, wid=0, attempt=0)
        rec.record(EV_COMPLETE, tid=1, wid=1, attempt=0)
        # t0's attempt failed: its write was discarded/restored, so
        # only t1's write stands — no pair to race.
        assert check_hb(rec, tasks) == []

    def test_driver_task_vs_concurrent_worker_write_races(self):
        tasks = [_task(0, writes=[REF]), _task(1, reads=[REF])]
        rec = _recorder_with_pin()
        rec.record(EV_DISPATCH, tid=0, wid=0, attempt=0)
        rec.record(EV_DRIVER, tid=1, attempt=0)   # driver read, no HB
        rec.record(EV_COMPLETE, tid=0, wid=0, attempt=0)
        # The driver's read node precedes the worker's write node in
        # graph order, so the pair reports as read-then-write.
        kinds = {f.kind for f in check_hb(rec, tasks)}
        assert kinds == {"race-read-write"}

    def test_leaked_segment_reported(self):
        rec = _recorder_with_pin()
        rec.leaked = ["seg1"]
        findings = check_hb(rec, [])
        assert [f.kind for f in findings] == ["leak"]


class TestRefcountAudit:
    def test_balanced_lifecycle_is_clean(self):
        # Created with its matrix, unlinked once when the matrix goes.
        rec = _recorder_with_pin()
        rec.record(EV_UNLINK, segment="seg1")
        assert audit_refcounts(rec) == []

    def test_never_unlinked_is_a_leak(self):
        rec = _recorder_with_pin()
        findings = audit_refcounts(rec)
        assert [f.kind for f in findings] == ["refcount-leak"]

    def test_double_unlink_and_unknown_segment(self):
        rec = _recorder_with_pin()
        rec.record(EV_UNLINK, segment="seg1")
        rec.record(EV_UNLINK, segment="seg1")
        rec.record(EV_UNLINK, segment="ghost")
        kinds = {f.kind for f in audit_refcounts(rec)}
        assert "refcount-double-unlink" in kinds
        assert "refcount-unknown" in kinds

    def test_many_tiles_share_one_segment(self):
        # A second tile of the matrix pinned by a later window: same
        # segment, no second create, one unlink.
        rec = _recorder_with_pin()
        rec.record(EV_PIN, segment="seg1", ref=(7, 1, 0))
        rec.record(EV_UNLINK, segment="seg1")
        assert audit_refcounts(rec) == []
        assert rec.tile_segment == {REF: "seg1", (7, 1, 0): "seg1"}

    def test_repin_recreate_and_pin_after_unlink(self):
        rec = _recorder_with_pin()
        rec.record(EV_PIN, segment="seg1", ref=REF)   # tile twice
        rec.record(EV_CREATE, segment="seg1")         # segment twice
        rec.record(EV_UNLINK, segment="seg1")
        rec.record(EV_PIN, segment="seg1", ref=(7, 1, 1))
        rec.record(EV_PIN, segment="ghost", ref=(8, 0, 0))
        kinds = [f.kind for f in audit_refcounts(rec)]
        assert kinds == ["refcount-repin", "refcount-repin",
                         "refcount-unknown", "refcount-unknown"]


class TestRecordedRun:
    def test_processes_qdwh_run_is_clean(self):
        a = generate_matrix(48, cond=1e6, dtype=np.float64, seed=3)
        rt = Runtime(ProcessGrid(2, 2))
        rec = DistTraceRecorder()
        rt.dist_recorder = rec
        da = DistMatrix.from_array(rt, a.copy(), 16)
        res = tiled_qdwh(rt, da, backend="processes", workers=2)
        rt.sync()
        u = res.u.to_array()
        tasks = list(rt.graph.tasks)
        rt.close()

        # The run itself must be correct...
        np.testing.assert_allclose(u @ u.T.conj(), np.eye(48),
                                   atol=1e-8)
        # ...and the recorded trace must pass every checker.
        assert rec.events, "recorder saw no events"
        assert rec.frames, "recorder saw no frames"
        assert check_hb(rec, tasks) == []
        assert audit_refcounts(rec) == []
        assert check_frames(rec) == []
        # Segments follow matrices: far fewer creates than pinned
        # tiles, every create unlinked, every pinned tile's segment one
        # that was created.
        s = rec.summary()
        assert 0 < s["create"] == s["unlink"] < s["pin"]
        assert (set(rec.tile_segment.values())
                == {e.segment for e in rec.events_of(EV_CREATE)})

    def test_recorder_off_by_default(self):
        rt = Runtime(ProcessGrid(1, 1))
        assert rt.dist_recorder is None
        rt.close()
