"""perfbench's own tests: ``pytest perfbench/tests`` (not tier-1)."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from perfbench import clocks, compare, env, spec
from perfbench.clocks import Ledger, Problem, run_op

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def perfbench(*args: str, cwd: str = env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, env=env.child_env(), capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple:
    out = str(tmp_path_factory.mktemp("bench_out"))
    proc = perfbench("--smoke", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = os.path.join(out, "perfbench-smoke-seed0.json")
    with open(path) as fh:
        return path, json.load(fh), proc.stdout


def test_benchmark_json_restates_spec(benchmark_json):
    b = benchmark_json
    assert b["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in b["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in b["end_to_end"]] == \
        [(n, u, "lower", bd) for n, u, bd in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in b["per_layer"]] == \
        [(n, u, better) for n, u, better, _ in spec.PER_LAYER]
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert len(b["per_layer"]) <= 128 and len(b["end_to_end"]) <= 16


def test_smoke_measures_every_metric(smoke):
    _, doc, stdout = smoke
    w = doc["workloads"]["smoke"]
    assert w["failed"] == 0 and w["attempted"] > 0, w["failures"]
    end_to_end = [m for m, *_ in spec.END_TO_END]
    per_layer = [m for m, *_ in spec.PER_LAYER]
    assert set(w["end_to_end"]) == set(end_to_end)
    assert all(s["median"] > 0 for s in w["end_to_end"].values())
    assert set(w["metrics"]) == set(per_layer)
    assert not w["layers_skipped"]
    assert all(v is not None for v in w["metrics"].values())
    for name in end_to_end + per_layer:
        assert f"smoke {name} = " in stdout  # printed by name, with unit
    assert "fail_share = 0" in stdout
    assert doc["env"]["blas_threads"]["OMP_NUM_THREADS"] == "1"


def test_smoke_trace_has_spans_and_task_lanes(smoke):
    _, doc, _ = smoke
    with open(doc["workloads"]["smoke"]["trace_file"]) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    spans = {e["name"] for e in events if e["ph"] == "X" and e["pid"] == 0}
    assert {"workload", "matrices.generate", "dist.from_array",
            "core.tiled_qdwh", "dist.to_array", "matrices.verify",
            "perf.simulate_qdwh", "probe.tiled.kernels"} <= spans
    lanes = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"threads workers", "processes workers"} <= lanes
    root = next(e for e in events if e.get("name") == "workload")
    assert root["args"]["parent"] is None
    assert trace["otherData"]["self_time_s"]["workload"] >= 0.0


def test_compare_agrees_with_itself_and_flags_a_shift(smoke, tmp_path):
    path, doc, _ = smoke
    proc = perfbench("--compare", path, path)
    assert proc.returncode == 0 and "differ" not in proc.stdout
    slow = json.loads(json.dumps(doc))
    s = slow["workloads"]["smoke"]["end_to_end"]["eager_over_dense"]
    for key in ("median", "q1", "q3", "min", "max"):
        s[key] *= 2.0
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(slow))
    proc = perfbench("--compare", path, str(shifted))
    assert proc.returncode == 1
    assert re.search(r"smoke\s+eager_over_dense .* differ", proc.stdout)


def test_verdicts():
    a = {"median": 1.0, "q1": 0.9, "q3": 1.1}
    assert compare.verdict(a, {"median": 1.05, "q1": 1.0, "q3": 1.1},
                           0.10) == compare.AGREE
    assert compare.verdict(a, {"median": 1.3, "q1": 1.05, "q3": 1.4},
                           0.10) == compare.UNRESOLVED
    assert compare.verdict(a, {"median": 1.3, "q1": 1.2, "q3": 1.4},
                           0.10) == compare.DIFFER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_line_emits_every_benchmark_json_metric(
        benchmark_json, trace, tmp_path):
    proc = perfbench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = benchmark_json["end_to_end" if trace == "0" else "per_layer"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == "1":
        assert os.path.exists(tmp_path / "trace-smoke.json")


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ there is
    no ``src/repro``: non-zero exit, no result line."""
    import shutil
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(env.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "small_tiles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- a forced failure of each kind counts as a failed operation ------------

@pytest.fixture()
def problem() -> Problem:
    return Problem.make(spec.SMOKE, seed=7)


def test_healthy_operation_counts_as_attempted_only(problem):
    ledger = Ledger()
    assert run_op("eager", problem, ledger) is not None
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_degraded_result_is_a_failed_operation(problem, monkeypatch):
    real = clocks.tiled_qdwh

    def degraded(*args, **kw):
        return dataclasses.replace(real(*args, **kw), degraded=True)

    monkeypatch.setattr(clocks, "tiled_qdwh", degraded)
    ledger = Ledger()
    assert run_op("eager", problem, ledger) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "degraded=True" in ledger.failures[0]["reasons"]
    assert ledger.fail_share == 1.0


def test_health_log_entry_is_a_failed_operation(problem, monkeypatch):
    real = clocks.tiled_qdwh
    monkeypatch.setattr(
        clocks, "tiled_qdwh", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), health_log=["norm2est fell back"]))
    ledger = Ledger()
    assert run_op("threads", problem, ledger) is None
    assert ledger.failed == 1


def test_inverted_modelled_speedup_is_a_failed_operation(problem,
                                                         monkeypatch):
    real = clocks.simulate_qdwh

    def inverted(machine, nodes, n, impl, **kw):
        pt = real(machine, nodes, n, impl, **kw)
        if impl == "scalapack":
            pt.makespan *= 1e-3
        return pt

    monkeypatch.setattr(clocks, "simulate_qdwh", inverted)
    ledger = Ledger()
    assert run_op("sim", problem, ledger) is None
    assert ledger.failed == 1
    assert "fork-join" in ledger.failures[0]["reasons"]


def test_nonfinite_modelled_makespan_is_a_failed_operation():
    assert clocks.check_sim({"slate_gpu": float("nan"), "slate_cpu": 1.0,
                             "scalapack": 2.0})
    assert clocks.check_sim({"slate_gpu": 1.0, "slate_cpu": 0.0,
                             "scalapack": 2.0})
    assert not clocks.check_sim({"slate_gpu": 3.0, "slate_cpu": 1.0,
                                 "scalapack": 2.0})


def test_leaked_segment_is_a_failed_operation(problem):
    seg = shared_memory.SharedMemory(
        name=f"repro{os.getpid()}xleak_1", create=True, size=64)
    try:
        ledger = Ledger()
        assert run_op("eager", problem, ledger) is None
        assert ledger.failed == 1
        assert "leaked /dev/shm" in ledger.failures[0]["reasons"]
    finally:
        seg.close()
        seg.unlink()
    assert run_op("eager", problem, Ledger()) is not None


def test_raising_operation_is_a_failed_operation(problem, monkeypatch):
    def boom(*args, **kw):
        raise RuntimeError("worker pool gone")

    monkeypatch.setattr(clocks, "tiled_qdwh", boom)
    ledger = Ledger()
    assert run_op("processes", problem, ledger) is None
    assert "RuntimeError: worker pool gone" in ledger.failures[0]["reasons"]


def test_inaccurate_factors_fail_the_accuracy_gate():
    rep = type("R", (), {"orthogonality": 1e-15, "backward": 1e-9,
                         "h_hermitian": 0.0, "h_psd_defect": float("nan")})
    reasons = clocks.check_accuracy(rep)
    assert len(reasons) == 2
    assert any(r.startswith("backward=") for r in reasons)
    assert any(r.startswith("h_psd_defect=nan") for r in reasons)


def test_no_process_outlives_a_run(problem):
    """The processes backend starts multiprocessing's resource tracker,
    which the interpreter never waits for; ``stop_children`` does."""
    assert run_op("processes", problem, Ledger()) is not None
    assert env._children(), "expected the resource tracker as a child"
    env.stop_children()
    assert env._children() == []
