"""Tests for dependency inference (TaskGraph) and the Runtime executor."""

import pytest

from repro.dist import ProcessGrid
from repro.runtime import Runtime, TaskGraph, TaskKind
from repro.runtime.task import Task


def mk(tid, reads=(), writes=(), phase=0, rank=0, flops=1.0):
    return Task(tid=tid, kind=TaskKind.GEMM, reads=tuple(reads),
                writes=tuple(writes), rank=rank, phase=phase, flops=flops)


T0 = (0, 0, 0)
T1 = (0, 0, 1)
T2 = (0, 1, 0)


class TestDependencyInference:
    def test_read_after_write(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        t = g.add(mk(1, reads=[T0]))
        assert t.deps == (0,)

    def test_write_after_write(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        t = g.add(mk(1, writes=[T0]))
        assert t.deps == (0,)

    def test_write_after_read(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        g.add(mk(1, reads=[T0]))
        g.add(mk(2, reads=[T0]))
        t = g.add(mk(3, writes=[T0]))
        # WAR on both readers (the writer is subsumed transitively but
        # still listed through the WAW edge).
        assert set(t.deps) >= {1, 2}

    def test_independent_tiles_no_edge(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        t = g.add(mk(1, writes=[T1]))
        assert t.deps == ()

    def test_readers_reset_after_write(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        g.add(mk(1, reads=[T0]))
        g.add(mk(2, writes=[T0]))          # WAR on 1
        t = g.add(mk(3, writes=[T0]))      # only WAW on 2, not on 1
        assert t.deps == (2,)

    def test_rmw_single_dep(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        t = g.add(mk(1, reads=[T0], writes=[T0]))
        assert t.deps == (0,)
        t2 = g.add(mk(2, reads=[T0], writes=[T0]))
        assert t2.deps == (1,)

    def test_chain_is_sequential(self):
        """gemm accumulation chains serialize through the output tile."""
        g = TaskGraph()
        for k in range(5):
            g.add(mk(k, reads=[T1, T2], writes=[T0]))
        for k in range(1, 5):
            assert g.tasks[k].deps == (k - 1,)

    def test_topological_by_construction(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        g.add(mk(1, reads=[T0], writes=[T1]))
        g.add(mk(2, reads=[T1]))
        assert g.validate_topological()

    def test_successors_inverse_of_deps(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        g.add(mk(1, reads=[T0]))
        g.add(mk(2, reads=[T0]))
        succ = g.schedule_tables().succ
        assert sorted(succ[0]) == [1, 2]

    def test_critical_path(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0], flops=3))
        g.add(mk(1, reads=[T0], writes=[T1], flops=2))
        g.add(mk(2, writes=[T2], flops=4))  # independent
        assert g.critical_path_seconds(lambda t: t.flops) == 5.0

    def test_counts_by_kind(self):
        g = TaskGraph()
        g.add(mk(0, writes=[T0]))
        assert g.counts_by_kind() == {"gemm": 1}


class TestRuntime:
    def test_phases_and_ops_monotone(self):
        rt = Runtime(ProcessGrid(1, 1))
        p0 = rt.phase
        rt.advance_phase()
        assert rt.phase == p0 + 1
        op1 = rt.begin_op()
        op2 = rt.begin_op()
        assert op2 == op1 + 1

    def test_numeric_executes_fn(self):
        rt = Runtime(ProcessGrid(1, 1))
        hits = []
        rt.submit(TaskKind.SET, writes=[rt.new_scalar_ref()],
                  fn=lambda: hits.append(1))
        assert hits == [1]

    def test_symbolic_skips_fn(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        hits = []
        rt.submit(TaskKind.SET, writes=[rt.new_scalar_ref()],
                  fn=lambda: hits.append(1))
        assert hits == []
        assert len(rt.graph) == 1

    def test_tile_dim_hint_overrides(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False, tile_dim_hint=320)
        t = rt.submit(TaskKind.GEMM, tile_dim=64)
        assert t.tile_dim == 320

    def test_coarse_hint_attached(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        rt.coarse_hint = 4.0
        t = rt.submit(TaskKind.GEMM)
        assert t.coarse == 4.0

    def test_task_ids_sequential(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        t0 = rt.submit(TaskKind.SET)
        t1 = rt.submit(TaskKind.SET)
        assert (t0.tid, t1.tid) == (0, 1)

    def test_scalar_refs_unique(self):
        rt = Runtime(ProcessGrid(1, 1))
        assert rt.new_scalar_ref() != rt.new_scalar_ref()


class TestFlopsScale:
    def test_scale_applied(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        rt.flops_scale = 4.0
        t = rt.submit(TaskKind.GEMM, flops=100.0)
        assert t.flops == 400.0

    def test_default_is_identity(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        t = rt.submit(TaskKind.GEMM, flops=100.0)
        assert t.flops == 100.0

    def test_op_index_recorded(self):
        rt = Runtime(ProcessGrid(1, 1), numeric=False)
        t0 = rt.submit(TaskKind.SET)
        rt.begin_op()
        t1 = rt.submit(TaskKind.SET)
        assert t1.op == t0.op + 1
