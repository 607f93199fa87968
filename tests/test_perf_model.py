"""Tests for the performance model (the simulated benchmark campaign)."""

import numpy as np
import pytest

from repro.machines import frontier, summit
from repro.perf.model import IMPLEMENTATIONS, simulate_custom, simulate_qdwh
from repro.perf.sweep import (
    figure_series,
    scaling_series,
    speedup_table,
    tile_size_sweep,
)

MT = 8  # tiny grids: keep the test suite fast


class TestSimulateQdwh:
    def test_basic_point(self):
        p = simulate_qdwh(summit(), 1, 20000, "slate_gpu", max_tiles=MT)
        assert p.makespan > 0
        assert p.tflops > 0
        assert (p.it_qr, p.it_chol) == (3, 3)
        assert p.nb == 320
        assert p.nb_sim >= p.nb

    def test_granularity_coarsening(self):
        p = simulate_qdwh(summit(), 1, 100000, "slate_gpu", max_tiles=MT)
        assert p.nb_sim == pytest.approx(100000 / MT, rel=0.01)
        small = simulate_qdwh(summit(), 1, 2000, "slate_gpu", max_tiles=MT)
        assert small.nb_sim == 320  # no coarsening needed

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            simulate_qdwh(summit(), 1, 1000, "magma")

    def test_model_flops_match_formula(self):
        import repro.flops as F
        p = simulate_qdwh(summit(), 1, 30000, "slate_cpu", max_tiles=MT)
        assert p.model_flops == F.qdwh_total(30000, p.it_qr, p.it_chol)

    def test_graph_recorded_once_and_only_read(self):
        """Implementations run at one tile size share one recorded
        graph; ``simulate()`` must not mutate it."""
        from repro.perf import model
        model._recorded_graph.cache_clear()
        first = [simulate_qdwh(summit(), 1, 6000, impl, nb=320,
                               max_tiles=MT)
                 for impl in ("slate_gpu", "slate_cpu", "scalapack")]
        info = model._recorded_graph.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        again = [simulate_qdwh(summit(), 1, 6000, impl, nb=320,
                               max_tiles=MT)
                 for impl in ("slate_gpu", "slate_cpu", "scalapack")]
        assert model._recorded_graph.cache_info().misses == 1
        for p, q in zip(first, again):
            assert q.makespan == p.makespan
            assert q.executed_flops == p.executed_flops
            assert q.task_count == p.task_count
        # ... and equals a freshly recorded, never simulated graph.
        nb = first[0].nb_sim
        fresh, it_qr, it_chol = model.build_qdwh_graph(
            6000, nb, model._grid_for(2), nb_rate=320)
        cached, *_ = model._recorded_graph(
            6000, 6000, nb, 320, model._grid_for(2), 1e16,
            np.dtype(np.float64))
        assert len(cached.tasks) == len(fresh.tasks) == first[0].task_count
        assert cached.total_flops() == fresh.total_flops()
        assert (it_qr, it_chol) == (first[0].it_qr, first[0].it_chol)
        # A different problem is a different entry, not a stale hit.
        other = simulate_qdwh(summit(), 1, 6000, "slate_gpu",
                              max_tiles=MT, cond=10.0)
        assert other.it_qr < first[0].it_qr
        custom = simulate_custom(summit(), 1, 6000, ranks_per_node=2,
                                 use_gpu=True, max_tiles=MT)
        assert custom.makespan == first[0].makespan

    def test_settings_table_complete(self):
        for mach in ("summit", "frontier"):
            for impl in ("slate_gpu", "slate_cpu", "scalapack"):
                assert "ranks_per_node" in IMPLEMENTATIONS[mach][impl]


class TestPaperShapes:
    """The qualitative claims of Figs. 2-6, at test-sized sweeps."""

    def test_gpu_beats_cpu_beats_nothing(self):
        g = simulate_qdwh(summit(), 1, 40000, "slate_gpu", max_tiles=MT)
        c = simulate_qdwh(summit(), 1, 40000, "slate_cpu", max_tiles=MT)
        s = simulate_qdwh(summit(), 1, 40000, "scalapack", max_tiles=MT)
        assert g.tflops > 5 * c.tflops
        assert g.tflops > 5 * s.tflops

    def test_slate_cpu_similar_to_scalapack(self):
        """Fig 2: 'SLATE's CPU performance is similar to ScaLAPACK'."""
        c = simulate_qdwh(summit(), 1, 40000, "slate_cpu", max_tiles=MT)
        s = simulate_qdwh(summit(), 1, 40000, "scalapack", max_tiles=MT)
        assert 0.7 < s.tflops / c.tflops <= 1.05

    def test_gpu_tflops_grow_with_n(self):
        """'performance grows as the matrix size increases'."""
        t = [simulate_qdwh(summit(), 1, n, "slate_gpu", max_tiles=MT).tflops
             for n in (10000, 40000, 80000)]
        assert t[0] < t[1] < t[2]

    def test_headline_speedup_regime(self):
        """Abstract: 'up to an 18-fold performance speedup'."""
        g = simulate_qdwh(summit(), 1, 80000, "slate_gpu", max_tiles=MT)
        s = simulate_qdwh(summit(), 1, 80000, "scalapack", max_tiles=MT)
        assert 10 < g.tflops / s.tflops < 30

    def test_weak_scaling_across_nodes(self):
        """Fig 4: good weak scalability at the largest size per node
        count."""
        t1 = simulate_qdwh(summit(), 1, 50000, "slate_gpu", max_tiles=MT)
        t4 = simulate_qdwh(summit(), 4, 100000, "slate_gpu", max_tiles=MT)
        assert t4.tflops > 2.2 * t1.tflops

    def test_frontier_regime(self):
        """Fig 5: ~180 Tflop/s on 16 nodes at n=175k (we accept a wide
        band; EXPERIMENTS.md records the precise measured value)."""
        p = simulate_qdwh(frontier(), 16, 175000, "slate_gpu",
                          max_tiles=12)
        assert 100 < p.tflops < 280

    def test_gpu_aware_mpi_matters_on_frontier_topology(self):
        """A2 ablation: putting Frontier's NICs on the CPUs (i.e.
        forcing staged transfers) must not speed it up."""
        import dataclasses
        fr = frontier()
        staged_net = dataclasses.replace(fr.network, nic_on_gpu=False)
        staged = dataclasses.replace(fr, network=staged_net)
        direct = simulate_qdwh(fr, 2, 40000, "slate_gpu", max_tiles=MT)
        nodirect = simulate_qdwh(staged, 2, 40000, "slate_gpu",
                                 max_tiles=MT)
        assert nodirect.tflops <= direct.tflops * 1.001


class TestSweeps:
    def test_figure_series_structure(self):
        out = figure_series(summit(), 1, ("slate_gpu", "scalapack"),
                            sizes=(10000, 20000), max_tiles=MT)
        assert set(out) == {"slate_gpu", "scalapack"}
        assert [p.n for p in out["slate_gpu"]] == [10000, 20000]

    def test_scaling_series(self):
        out = scaling_series(summit(), [1, 4],
                             sizes_per_nodes={1: (20000,), 4: (40000,)},
                             max_tiles=MT)
        assert out[4][0].nodes == 4

    def test_speedup_table(self):
        rows = speedup_table(summit(), [1],
                             sizes={1: (20000, 40000)}, max_tiles=MT)
        assert rows[0]["speedup"] > 5
        assert rows[0]["at_n"] in (20000, 40000)

    def test_tile_size_sweep_interior_optimum(self):
        """E10: neither the smallest nor the largest nb wins on GPU.
        (benchmarks/test_headline_and_tuning.py sweeps n=2560.)"""
        pts = tile_size_sweep(summit(), 1280, "slate_gpu",
                              nbs=(64, 160, 320, 640), max_tiles=64)
        perf = [p.tflops for p in pts]
        best = perf.index(max(perf))
        assert 0 < best < len(perf) - 1

    def test_custom_config_ablation(self):
        p = simulate_custom(summit(), 1, 20000, ranks_per_node=2,
                            use_gpu=True, lookahead=1, max_tiles=MT)
        assert p.makespan > 0
        assert "la=1" in p.impl
