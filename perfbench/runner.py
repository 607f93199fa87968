"""One workload, start to finish: set-up, interleaved timed rounds with
tracing off, then (optionally) one traced pass with the layer probes.
"""

from __future__ import annotations

import json
import os
import resource
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import env
from .spec import (CALIB, CLOCKS, END_TO_END, FULL_ROUNDS, GATED_CLOCKS,
                   MIN_ROUNDS, MIN_SAMPLE_S, PARALLEL_CLOCKS, PER_LAYER,
                   RATIOS, WARMUP, Workload)
from .stats import summarize


@dataclass(frozen=True)
class Plan:
    """How much of everything one run does."""

    #: Fixed round count, or ``None`` to run rounds until ``seconds``.
    rounds: Optional[int]
    seconds: float = 0.0
    min_rounds: int = MIN_ROUNDS
    min_sample_s: float = MIN_SAMPLE_S
    #: Set-up repetitions (this process plus fresh child processes).
    setup_samples: int = 3
    traced: bool = False
    #: Rounds that also sample the clocks no gated ratio uses
    #: (``processes_guarded``), or ``None`` for every round.
    ungated_rounds: Optional[int] = None

    @classmethod
    def pipeline(cls, seconds: float, trace: bool) -> "Plan":
        """The benchmark contract's run: ``--trace 0`` times, ``--trace 1``
        spends under half of its time on rounds (they only feed derived
        layer numbers) and the rest on the traced pass.  ``--trace 0``
        prints gated metrics only, so it samples (and verifies) the
        ungated clock once and spends that quarter of every later round
        on more rounds instead (at least 4, which is what ``big_tiles``
        gets): a median of 4 rounds moved 19 % between runs on
        ``small_tiles``."""
        if trace:
            return cls(rounds=None, seconds=0.4 * seconds, min_rounds=1,
                       setup_samples=1, traced=True)
        return cls(rounds=None, seconds=seconds, min_rounds=4,
                   ungated_rounds=1)

    @classmethod
    def full(cls) -> "Plan":
        return cls(rounds=FULL_ROUNDS, traced=True)

    @classmethod
    def smoke(cls) -> "Plan":
        return cls(rounds=1, min_sample_s=0.0, setup_samples=2, traced=True)


def setup_once(seed: int, ledger: object) -> None:
    """What a user pays before the first result: matrix generation and
    one call of every gated clock (BLAS init, thread pool, first fork).
    The ungated ``processes_guarded`` is left to round 0: its 2 s
    shutdown stall (README) would make ``setup_s`` bimodal."""
    from .clocks import Problem, run_op

    p = Problem.make(WARMUP, seed)
    for clock in GATED_CLOCKS:
        run_op(clock, p, ledger)


def setup_child(seed: int) -> float:
    """``setup_s`` of a fresh interpreter: same code, own process."""
    proc = env.run_child(["--setup-only", "--seed", str(seed)],
                         timeout=120, capture=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def timed_rounds(p: object, plan: Plan, ledger: object
                 ) -> Tuple[Dict[str, List[float]], Dict[str, object]]:
    """Interleaved round-robin samples per clock and per-round ratios,
    and each clock's last outcome."""
    from .clocks import sample

    samples: Dict[str, List[float]] = {c: [] for c in (CALIB,) + CLOCKS}
    samples.update({r: [] for r in RATIOS})
    last: Dict[str, object] = {}
    # Round 0, discarded: the first parallel calls of a process run in
    # another OS regime than the steady state (threads on small_tiles:
    # 0.45 s while wake-affinity keeps both workers on one core, 1.05 s
    # once the kernel spreads them), and a median over a few rounds
    # cannot absorb a regime change in the middle of them.
    every = plan.ungated_rounds is None
    for clock in PARALLEL_CLOCKS:
        if every or clock in GATED_CLOCKS:
            sample(clock, p, ledger, 0.0)
    start = perf_counter()
    rounds = 0
    while True:
        t_round = perf_counter()
        this: Dict[str, float] = {CALIB: env.calibrate()}
        samples[CALIB].append(this[CALIB])
        for clock in (CLOCKS if every or rounds < plan.ungated_rounds
                      else GATED_CLOCKS):
            sec, out = sample(clock, p, ledger, plan.min_sample_s)
            if sec is not None:
                this[clock] = sec
                samples[clock].append(sec)
                last[clock] = out
        for ratio, (num, den) in RATIOS.items():
            if num in this and den in this:
                samples[ratio].append(this[num] / this[den])
        rounds += 1
        now = perf_counter()
        if plan.rounds is not None:
            if rounds >= plan.rounds:
                break
        elif rounds >= plan.min_rounds and \
                now + (now - t_round) > start + plan.seconds:
            break
    return samples, last


def traced_pass(w: Workload, seed: int, ledger: object, timed: Dict,
                last: Dict[str, object], out_dir: str) -> Dict[str, object]:
    """One pass with spans around every layer boundary perfbench calls
    through, the repo's ``TimelineSink`` on the parallel clocks, the
    workers=1 bit-identity check, and the layer probes."""
    import numpy as np
    from repro.obs import TimelineSink

    from . import layers as L
    from .clocks import Problem, run_op
    from .trace import Tracer

    tracer = Tracer(f"{w.name}-seed{seed}")

    def med(name: str) -> float:
        return timed[name]["median"]

    metrics: Dict[str, Optional[float]] = {
        f"{c}_s": med(f"{c}_s") for c in CLOCKS}
    metrics["host.calib_s"] = med("calib_s")
    skipped: Dict[str, str] = {}
    traced: Dict[str, object] = {}
    sinks: Dict[str, object] = {}

    with tracer.span("workload", workload=w.name, seed=seed):
        with tracer.span("matrices.generate") as sp:
            p = Problem.make(w, seed)
        metrics["matrices.generate_s"] = sp.duration

        for clock in CLOCKS:
            kw: Dict[str, object] = {"tracer": tracer}
            if clock in PARALLEL_CLOCKS:
                kw["sink"] = sinks[clock] = TimelineSink()
            if clock in ("eager", "threads"):
                kw["keep"] = True
            with tracer.span(f"clock.{clock}"):
                out = run_op(clock, p, ledger, **kw)
            traced[clock] = out
            if out is not None and clock in sinks:
                tracer.add_tasks(f"{clock} workers", sinks[clock].tasks,
                                 out.info["origin"])

        # workers=1 on either real backend is bit-identical to eager.
        eager = traced["eager"]
        for backend, layer in (("threads", "parallel"),
                               ("processes", "distributed")):
            with tracer.span(f"clock.{backend}_w1"):
                one = run_op(backend, p, ledger, tracer=tracer, workers=1,
                             keep=True)
            if one is None or eager is None:
                continue
            same = (np.array_equal(one.info["u"], eager.info["u"])
                    and np.array_equal(one.info["h"], eager.info["h"]))
            ledger.record(f"{backend}_w1_identity",
                          [] if same else
                          [f"{backend}(workers=1) differs from eager"])
            metrics[f"{layer}.w1_over_eager"] = one.seconds / eager.seconds

        # -- counts and numbers that fall out of the clocks -------------
        dense, thr, proc = (last.get(c) or traced.get(c)
                            for c in ("dense", "threads", "processes"))
        ref = last.get("eager") or eager
        if ref is not None:
            from repro import flops as F
            i = ref.info
            metrics.update({
                "core.iterations": i["iterations"], "core.it_qr": i["it_qr"],
                "core.it_chol": i["it_chol"], "core.tasks": i["tasks"],
                "dist.from_array_s": i["from_array_s"],
                "dist.to_array_s": i["to_array_s"],
                "matrices.verify_s": i["verify_s"]})
            if dense is not None:
                d = dense.info
                metrics["core.dense_gflops"] = F.qdwh_total(
                    w.n, d["it_qr"], d["it_chol"], m=w.m) \
                    / med("dense_s") / 1e9
        if thr is not None:
            metrics["core.windows"] = thr.info["windows"]
        if proc is not None:
            i = proc.info
            metrics.update({
                "distributed.msgs_per_task": i["comm_messages"] / i["tasks"],
                "distributed.bytes_per_task": i["comm_bytes"] / i["tasks"],
                "shm.segments": i["shm_segments"],
                "shm.bytes": i["shm_bytes"]})
        sim = last.get("sim") or traced.get("sim")
        if sim is not None:
            mk = sim.info["makespans"]
            metrics["perf.sim_makespan_s"] = mk["slate_gpu"]
            metrics["perf.sim_speedup_vs_forkjoin"] = \
                mk["scalapack"] / mk["slate_cpu"]
        metrics["resilience.threads_tax_frac"] = \
            med("threads_guarded_s") / med("threads_s") - 1.0
        metrics["resilience.processes_tax_frac"] = \
            med("processes_guarded_s") / med("processes_s") - 1.0

        # -- probes: timed calls into one layer each --------------------
        def probe(fn, *layers: str) -> None:
            """``fn`` measures what is still unmeasured of ``layers``."""
            owned = [m for m, _, _, layer in PER_LAYER
                     if layer in layers and m not in metrics]
            L.run_probe(layers[0], fn, metrics, skipped, owned, tracer)

        if ref is not None:
            probe(lambda: L.probe_kernels(w, ref.info["counts"]),
                  "tiled.kernels")
        probe(lambda: L.probe_tiled(p), "tiled")
        probe(lambda: L.probe_record(w), "runtime.executor", "runtime.graph")
        probe(lambda: L.probe_model(w), "perf", "runtime.scheduler")
        probe(lambda: L.probe_dispatch(w), "runtime.parallel",
              "runtime.distributed.executor", "resilience")
        probe(L.probe_comm, "runtime.distributed.comm")
        probe(lambda: L.probe_shm(p), "runtime.distributed.shm")
        if traced["threads"] is not None:
            probe(lambda: L.probe_obs(traced["threads"], sinks["threads"],
                                      med("threads_s")), "obs")

    tasks = metrics.get("core.tasks")
    floor = metrics.get("kernels.floor_s")
    if tasks and floor is not None:
        metrics["runtime.eager_overhead_us_per_task"] = \
            (med("eager_s") - floor) / tasks * 1e6
    noop = metrics.get("parallel.noop_us_per_task")
    if tasks and noop is not None:
        metrics["parallel.contention_us_per_task"] = \
            (med("threads_s") - med("eager_s")) / tasks * 1e6 - noop

    trace_file = tracer.write(os.path.join(out_dir, f"trace-{w.name}.json"))
    for m, *_ in PER_LAYER:
        if m not in metrics:
            metrics[m] = None
            skipped.setdefault(m, "its clock or probe did not complete")
    return {"metrics": metrics, "layers_skipped": skipped,
            "trace_file": trace_file, "self_time_s": tracer.self_times()}


def run_workload(w: Workload, seed: int, plan: Plan, out_dir: str,
                 t_start: float) -> Dict[str, object]:
    """Everything perfbench knows about one workload at one seed."""
    from .clocks import Ledger, Problem

    ledger = Ledger()
    setup_once(seed, ledger)
    setups = [perf_counter() - t_start]
    setups += [setup_child(seed) for _ in range(plan.setup_samples - 1)]

    p = Problem.make(w, seed)
    raw, last = timed_rounds(p, plan, ledger)

    timed: Dict[str, Dict[str, float]] = {"setup_s": summarize(setups)}
    for name, values in raw.items():
        if values:
            timed[name if name in RATIOS else f"{name}_s"] = summarize(values)
    doc: Dict[str, object] = {
        "problem": {"m": w.m, "n": w.n, "nb": w.nb, "cond": w.cond,
                    "dtype": "float64", "seed": seed, "why": w.why},
        "rounds": timed["calib_s"]["n"],
        "calib_s": timed["calib_s"]["median"],
    }
    missing = [f"{c}_s" for c in CLOCKS if f"{c}_s" not in timed] \
        + [r for r in RATIOS if r not in timed]
    if plan.traced and not missing:
        doc.update(traced_pass(w, seed, ledger, timed, last, out_dir))
    timed["peak_rss_mb"] = summarize([peak_rss_mb()])
    end_to_end = {}
    for name, unit, bound in END_TO_END:
        if name in timed:
            end_to_end[name] = dict(timed[name], unit=unit, bound=bound)
    seconds = {k: dict(v, unit="s") for k, v in timed.items()
               if k not in end_to_end}
    doc.update(end_to_end=end_to_end, seconds=seconds, missing=missing,
               attempted=ledger.attempted, failed=ledger.failed,
               fail_share=ledger.fail_share, failures=ledger.failures)
    return doc
