"""Tests for the schedule post-mortem analysis (repro.obs views)."""

import pytest

from repro.dist import DistMatrix, ProcessGrid
from repro.machines import summit
from repro.obs import (
    TimelineSink,
    critical_path_kinds,
    kernel_breakdown,
    rank_utilization,
)
from repro.runtime import Runtime, simulate
from repro.runtime.scheduler import taskbased_config
from repro.tiled import geqrf


def qr_schedule(sink=None):
    rt = Runtime(ProcessGrid(2, 2), numeric=False)
    a = DistMatrix(rt, 1024, 512, 128)
    geqrf(rt, a)
    cfg = taskbased_config(summit(), 2, 2, use_gpu=False)
    return rt.graph, simulate(rt.graph, cfg, sink=sink)


class TestKernelBreakdown:
    def test_shares_sum_to_one(self):
        _, r = qr_schedule()
        rows = kernel_breakdown(r)
        assert sum(share for _, _, share in rows) == pytest.approx(1.0)
        assert rows == sorted(rows, key=lambda t: -t[1])

    def test_qr_kinds_present(self):
        _, r = qr_schedule()
        kinds = {k for k, _, _ in kernel_breakdown(r)}
        assert {"geqrt", "tpqrt", "unmqr", "tpmqrt"} <= kinds

    def test_empty_schedule(self):
        from repro.runtime import TaskGraph
        cfg = taskbased_config(summit(), 1, 2, use_gpu=False)
        r = simulate(TaskGraph(), cfg)
        assert kernel_breakdown(r) == []


class TestRankUtilization:
    def test_bounds(self):
        _, r = qr_schedule()
        u = rank_utilization(r)
        assert 0 < u["min"] <= u["mean"] <= u["max"]

    def test_empty(self):
        from repro.runtime import TaskGraph
        cfg = taskbased_config(summit(), 1, 2, use_gpu=False)
        r = simulate(TaskGraph(), cfg)
        assert rank_utilization(r)["mean"] == 0.0


class TestCriticalPath:
    def test_panel_kinds_dominate_qr_critical_path(self):
        """The QDWH paper's whole premise: panels serialize."""
        g, _ = qr_schedule()
        rows = critical_path_kinds(g, lambda t: t.flops + 1.0)
        kinds = [k for k, _ in rows]
        assert "geqrt" in kinds or "tpqrt" in kinds

    def test_total_equals_longest_chain(self):
        g, _ = qr_schedule()
        rows = critical_path_kinds(g, lambda t: 1.0)
        total = sum(v for _, v in rows)
        assert total == pytest.approx(
            g.critical_path_seconds(lambda t: 1.0))

    def test_empty_graph(self):
        from repro.runtime import TaskGraph
        assert critical_path_kinds(TaskGraph(), lambda t: 1.0) == []


class TestGantt:
    def test_rows_sorted_and_consistent(self):
        # The sink's task events are the Gantt rows: one per task,
        # matching the schedule's own accounting.
        sink = TimelineSink()
        _, r = qr_schedule(sink=sink)
        assert len(sink.tasks) == r.task_count
        rows = sorted(sink.tasks, key=lambda e: e.start)[:100]
        assert len(rows) == 100
        for e in rows:
            assert e.end >= e.start
            assert isinstance(e.kind, str)
            assert 0 <= e.rank < len(r.per_rank_busy)
        assert max(e.end for e in sink.tasks) == pytest.approx(r.makespan)
