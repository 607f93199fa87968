"""Tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def matrix_file(tmp_path, rng):
    p = tmp_path / "a.npy"
    np.save(p, rng.standard_normal((48, 32)))
    return str(p)


class TestPolarCommand:
    def test_basic(self, matrix_file, capsys):
        assert main(["polar", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "orthogonality" in out and "backward" in out

    def test_saves_factors(self, matrix_file, tmp_path, capsys):
        out_path = str(tmp_path / "factors.npz")
        main(["polar", matrix_file, "--output", out_path])
        data = np.load(out_path)
        a = np.load(matrix_file)
        assert np.allclose(data["u"] @ data["h"], a, atol=1e-10)

    def test_method_choice(self, matrix_file, capsys):
        main(["polar", matrix_file, "--method", "svd"])
        assert "method=svd" in capsys.readouterr().out

    def test_rejects_vector_file(self, tmp_path):
        p = tmp_path / "v.npy"
        np.save(p, np.ones(5))
        with pytest.raises(SystemExit):
            main(["polar", str(p)])


class TestSimulateCommand:
    def test_basic(self, capsys):
        assert main(["simulate", "--machine", "summit", "--nodes", "1",
                     "--n", "5000", "--impl", "slate_cpu",
                     "--max-tiles", "6"]) == 0
        out = capsys.readouterr().out
        assert "Tflop/s" in out and "3 QR + 3 Cholesky" in out

    def test_chrome_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        main(["simulate", "--n", "5000", "--max-tiles", "6",
              "--trace", trace])
        data = json.load(open(trace))
        tasks = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(tasks) > 100
        assert {"name", "ph", "ts", "dur", "pid"} <= set(tasks[0])

    def test_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--machine", "fugaku"])


class TestSweepCommand:
    def test_prints_series(self, capsys):
        assert main(["sweep", "--nodes", "1", "--sizes", "4000", "8000",
                     "--max-tiles", "6"]) == 0
        out = capsys.readouterr().out
        assert "slate_gpu" in out and "scalapack" in out
        assert "4000" in out


class TestMemoryCommand:
    def test_frontier_ceiling(self, capsys):
        assert main(["memory", "--machine", "frontier",
                     "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "175000" in out

    def test_cpu_flag(self, capsys):
        assert main(["memory", "--machine", "summit", "--nodes", "1",
                     "--cpu"]) == 0
        assert "CPU" in capsys.readouterr().out


class TestTraceCommand:
    def test_empty_dag_prints_empty_gantt(self, capsys):
        # Zero-task run (n=0): must not crash, must say so.
        assert main(["trace", "--machine", "summit", "--nodes", "1",
                     "--n", "0"]) == 0
        out = capsys.readouterr().out
        assert "makespan:  0.000" in out
        assert "gantt: empty timeline" in out

    def test_empty_dag_chrome_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "empty.json")
        assert main(["trace", "--machine", "summit", "--nodes", "1",
                     "--n", "0", "--chrome-trace", trace]) == 0
        data = json.load(open(trace))
        # Only process-name metadata survives; no task/fault events.
        assert all(e["ph"] == "M" for e in data["traceEvents"])

    def test_nonempty_dag_has_gantt(self, capsys):
        assert main(["trace", "--n", "4000", "--max-tiles", "6"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "gantt: empty" not in out


class TestPolarCheckpoint:
    def test_resume_matches_uninterrupted(self, matrix_file, tmp_path,
                                          capsys):
        ref = str(tmp_path / "ref.npz")
        res = str(tmp_path / "res.npz")
        ck = str(tmp_path / "ck")
        assert main(["polar", matrix_file, "--output", ref]) == 0
        # Interrupt after two iterations, then resume from disk.
        assert main(["polar", matrix_file, "--checkpoint-dir", ck,
                     "--max-iter", "2"]) == 0
        assert "iterations=2" in capsys.readouterr().out
        assert main(["polar", matrix_file, "--checkpoint-dir", ck,
                     "--output", res]) == 0
        a, b = np.load(ref), np.load(res)
        assert np.array_equal(a["u"], b["u"])
        assert np.array_equal(a["h"], b["h"])

    def test_checkpoint_requires_qdwh(self, matrix_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["polar", matrix_file, "--method", "svd",
                  "--checkpoint-dir", str(tmp_path / "ck")])


class TestFaultsCommand:
    ARGS = ["--machine", "summit", "--nodes", "1", "--n", "4000",
            "--max-tiles", "6"]

    def test_crash_run(self, capsys):
        assert main(["faults", *self.ARGS, "--crash", "1@2.0"]) == 0
        out = capsys.readouterr().out
        assert "fault-free makespan" in out
        assert "faulty makespan" in out
        assert "replayed" in out
        assert "checkpoint interval" in out.lower() or "mttf" in out.lower()

    def test_no_faults_is_baseline_only(self, capsys):
        assert main(["faults", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "fault-free makespan" in out
        assert "faulty makespan" not in out

    def test_emit_plan_simulate_roundtrip(self, tmp_path, capsys):
        plan = str(tmp_path / "plan.json")
        assert main(["faults", *self.ARGS, "--crash", "1@2.0",
                     "--straggler", "0@3", "--emit-plan", plan]) == 0
        out1 = capsys.readouterr().out
        rec1 = [l for l in out1.splitlines() if "recovery:" in l]
        assert main(["simulate", "--machine", "summit", "--nodes", "1",
                     "--n", "4000", "--max-tiles", "6",
                     "--fault-plan", plan]) == 0
        out2 = capsys.readouterr().out
        rec2 = [l for l in out2.splitlines() if "recovery:" in l]
        # Same plan file -> bit-identical recovery summary line.
        assert rec1 and rec1 == rec2
        assert "replayed" in out2

    def test_mttf_draws_plan(self, capsys):
        assert main(["faults", *self.ARGS, "--mttf", "30",
                     "--fault-seed", "11"]) == 0
        assert "fault-free makespan" in capsys.readouterr().out


class TestLiveFaultsCommand:
    def test_live_smoke_passes(self, capsys):
        assert main(["faults", "--live", "--live-n", "64",
                     "--live-nb", "16", "--workers", "2",
                     "--cond", "1e8", "--fault-seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "recovery" in out
        assert "leaked" not in out.lower() or "0" in out
        # 16 x 16 tiles are far below the granularity floor; the fault
        # plan is what makes the run ship them, and the gate says so.
        shipped = re.search(r"attempts shipped to a lane = (\d+)", out)
        assert shipped and int(shipped.group(1)) > 0

    def test_live_smoke_fails_when_nothing_was_shipped(self, monkeypatch,
                                                       capsys):
        # Were a fault plan ever to stop forcing lanes, the smoke would
        # run every task on the driver and exercise no retry or replay
        # path: the gate must refuse that, not pass vacuously.
        from repro.runtime.window import WindowExecutor

        monkeypatch.setattr(WindowExecutor, "exercises_transport",
                            property(lambda self: False))
        assert main(["faults", "--live", "--live-n", "64",
                     "--live-nb", "16", "--workers", "2",
                     "--cond", "1e8", "--fault-seed", "11"]) == 1
        out = capsys.readouterr().out
        assert "attempts shipped to a lane = 0" in out and "FAIL" in out

    def test_live_explicit_plan(self, tmp_path, capsys):
        from repro.resilience import plan_from_spec

        plan = str(tmp_path / "plan.json")
        plan_from_spec(seed=7, transient_p=0.2, stall_p=0.05,
                       stall_seconds=0.02).to_json(plan)
        assert main(["faults", "--live", "--fault-plan", plan,
                     "--live-n", "64", "--live-nb", "16",
                     "--workers", "2", "--cond", "1e4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "transient_failures" in out

    def test_live_rejects_crash_plans(self, tmp_path):
        from repro.resilience import plan_from_spec

        plan = str(tmp_path / "plan.json")
        plan_from_spec(seed=7, crash=("1@2.0",)).to_json(plan)
        with pytest.raises(SystemExit):
            main(["faults", "--live", "--fault-plan", plan])


class TestLintDistCommand:
    ARGS = ["lint", "--dist", "--n", "48", "--nb", "16", "--workers", "2"]

    def test_recorded_run_ships_tiny_tiles(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        shipped = re.search(r"(\d+) dispatch\(es\) to a lane", out)
        assert shipped and int(shipped.group(1)) > 0
        assert "0 hb + 0 refcount + 0 protocol finding(s)" in out

    def test_vacuous_recording_fails(self, monkeypatch, capsys):
        # Nothing on the wire means the checkers checked nothing.
        from repro.runtime.window import WindowExecutor

        monkeypatch.setattr(WindowExecutor, "exercises_transport",
                            property(lambda self: False))
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert " 0 dispatch(es) to a lane" in out
        assert "vacuous" in out


class TestPolarLiveFaults:
    def test_threads_with_fault_plan(self, matrix_file, tmp_path,
                                     capsys):
        from repro.resilience import plan_from_spec

        plan = str(tmp_path / "plan.json")
        plan_from_spec(seed=7, transient_p=0.3).to_json(plan)
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "2",
                     "--fault-plan", plan, "--retries", "3",
                     "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out
        assert "transient_failures" in out

    def test_dense_backend_rejects_live_flags(self, matrix_file):
        with pytest.raises(SystemExit):
            main(["polar", matrix_file, "--retries", "3"])
        with pytest.raises(SystemExit):
            main(["polar", matrix_file, "--backend", "dense",
                  "--task-timeout", "1.0"])

    def test_threads_checkpoint_resume(self, matrix_file, tmp_path,
                                       capsys):
        ref = str(tmp_path / "ref.npz")
        res = str(tmp_path / "res.npz")
        ck = str(tmp_path / "ck")
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "1", "--no-baseline",
                     "--output", ref]) == 0
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "1", "--no-baseline",
                     "--checkpoint-dir", ck, "--max-iter", "2"]) == 0
        assert "iterations=2" in capsys.readouterr().out
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "1", "--no-baseline",
                     "--checkpoint-dir", ck, "--output", res]) == 0
        a, b = np.load(ref), np.load(res)
        assert np.array_equal(a["u"], b["u"])
        assert np.array_equal(a["h"], b["h"])


class TestPolarObservability:
    def test_threads_prints_executor_stats(self, matrix_file, tmp_path,
                                           monkeypatch, capsys):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "2",
                     "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "executor:" in out
        assert "cpu" in out
        assert "in-flight after close 0" in out
        # No --chrome-trace, no trace: a plain run leaves the CWD alone.
        assert "chrome trace" not in out
        assert list(cwd.iterdir()) == []

    @pytest.mark.usefixtures("lanes_for_tiny_tiles")
    def test_critical_path_flag(self, matrix_file, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(["polar", matrix_file, "--backend", "threads",
                     "--nb", "16", "--workers", "2", "--no-baseline",
                     "--critical-path", "--chrome-trace", trace]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        # Two workers are two lanes: the driver and one pool thread.
        lanes = [ln.split()[1].rstrip(":") for ln in out.splitlines()
                 if ln.startswith("  lane ")]
        assert sorted(lanes) == ["drv", "thr0"]
        with open(trace) as fh:
            named = {e["args"]["name"] for e in json.load(fh)["traceEvents"]
                     if e.get("name") == "thread_name" and e["pid"] == 0}
        assert named == {"drv", "thr0"}

    def test_critical_path_requires_threads(self, matrix_file):
        with pytest.raises(SystemExit):
            main(["polar", matrix_file, "--backend", "eager",
                  "--critical-path"])
