"""Command-line interface.

Subcommands, mirroring how a downstream user would drive the library:

* ``repro polar FILE.npy``      — decompose a matrix from disk.
* ``repro simulate``            — one performance point on a machine model.
* ``repro trace``               — simulate a point and export its timeline
  (Chrome/Perfetto trace, terminal Gantt, metrics snapshot).
* ``repro sweep``               — a figure-style size sweep.
* ``repro faults``              — fault-injected run vs. fault-free baseline,
  recovery accounting, and the Young/Daly checkpoint trade-off;
  ``--live`` runs the plan inside a real threaded QDWH instead of the
  simulator and gates on convergence + zero leaked attempts.
* ``repro memory``              — feasibility limits from the footprint model.
* ``repro lint``                — static rules, TileSan and DistSan checked runs.
* ``repro explore``             — model-check the scheduler's schedule space.
* ``repro validate``            — run the acceptance matrix (paper claims).

Run ``python -m repro.cli --help`` (or the ``repro`` console script).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np


def _machine(name: str):
    from .machines import aurora, frontier, summit

    try:
        return {"summit": summit, "frontier": frontier,
                "aurora": aurora}[name]()
    except KeyError:
        raise SystemExit(f"unknown machine {name!r}; "
                         f"expected summit, frontier, or aurora") from None


def _dump_metrics(path: str) -> None:
    import json

    from .obs import get_registry

    with open(path, "w") as fh:
        json.dump(get_registry().snapshot(), fh, indent=2, sort_keys=True)
    print(f"metrics snapshot written to {path}")


def _fault_plan_from_args(args: argparse.Namespace, ranks: int,
                          horizon: float):
    """FaultPlan from the CLI flags (file > compact specs > MTTF)."""
    from .resilience import FaultPlan, plan_from_spec

    if getattr(args, "fault_plan", None):
        return FaultPlan.from_json(args.fault_plan)
    if getattr(args, "mttf", None):
        return FaultPlan.poisson_crashes(
            args.mttf, horizon, ranks, seed=args.fault_seed)
    plan = plan_from_spec(
        seed=args.fault_seed,
        crash=getattr(args, "crash", None) or (),
        transient_p=getattr(args, "transient_p", 0.0),
        max_attempts=getattr(args, "max_attempts", 4),
        straggler=getattr(args, "straggler", None) or (),
        link_factor=getattr(args, "link_factor", 1.0),
        speculation=not getattr(args, "no_speculation", False),
        stall_p=getattr(args, "stall_p", 0.0),
        stall_seconds=getattr(args, "stall_seconds", 0.25),
        corrupt_p=getattr(args, "corrupt_p", 0.0))
    return None if plan.empty else plan


def _print_recovery(schedule) -> None:
    rec = schedule.recovery
    if rec is None:
        return
    print(f"  recovery:  {rec.crashes} crash(es) "
          f"(dead ranks {list(rec.dead_ranks) or '-'}), "
          f"{rec.replayed_tasks} replayed, "
          f"{rec.revoked_inflight} revoked in-flight, "
          f"{rec.lost_tiles} tiles lost")
    print(f"             {rec.transient_failures} transient failure(s) "
          f"over {rec.retried_tasks} task(s), "
          f"{rec.speculative_duplicates} speculative duplicate(s) "
          f"({rec.speculation_wins} won), "
          f"{rec.degraded_transfers} degraded transfer(s)")
    print(f"             {rec.reexecution_seconds:.3f} s re-executed, "
          f"{rec.recovery_bytes / 2**20:.1f} MiB recovery traffic")


def _polar_metrics(run: str, res, rep) -> None:
    from .obs import get_registry

    reg = get_registry()
    reg.counter(f"polar.runs.{run}").inc()
    reg.counter("polar.iterations").inc(res.iterations)
    reg.gauge("polar.orthogonality").set(rep.orthogonality)
    reg.gauge("polar.backward_error").set(rep.backward)


def _polar_input(args: argparse.Namespace) -> np.ndarray:
    """The input matrix: a .npy file or a generated test problem."""
    if args.generate is not None and args.matrix:
        raise SystemExit("give a matrix file or --generate N, not both")
    if args.generate is None:
        if not args.matrix:
            raise SystemExit("a matrix file or --generate N is required")
        a = np.load(args.matrix)
        if a.ndim != 2:
            raise SystemExit(f"{args.matrix} does not hold a matrix")
        return a
    from .matrices.generator import generate_matrix

    return generate_matrix(args.generate, cond=args.cond,
                           dtype=np.dtype(args.dtype), seed=args.seed)


def _live_recovery_from_args(args: argparse.Namespace, fault_plan):
    """RecoveryPolicy from ``polar``'s live-execution flags."""
    if (args.retries is None and args.task_timeout is None
            and fault_plan is None):
        return None
    from .resilience.live import RecoveryPolicy

    kw = {}
    if args.retries is not None:
        kw["max_retries"] = args.retries
    if args.task_timeout is not None:
        kw["task_timeout"] = args.task_timeout
    if fault_plan is not None:
        kw["scrub_writes"] = bool(fault_plan.corruptions)
    return RecoveryPolicy(**kw)


def _tiled_run(a: np.ndarray, nb: int, backend: str = "eager", workers=None,
               *, grid=(1, 1), faults=None, recovery=None, sink=None,
               recorder=None, sanitize=None, **qdwh_kw):
    """The one tiled-run recipe behind ``polar``, ``faults --live`` and
    ``lint``: fresh ``Runtime`` -> ``DistMatrix`` -> ``tiled_qdwh`` ->
    leak census -> ``close`` -> ``polar_report``.

    Returns ``(rt, res, rep, wall, leaked, leaked_shm)``; the closed
    runtime still serves ``graph``, ``exec_stats`` and ``sanitizer``.
    ``sanitize=None`` keeps the ``REPRO_SANITIZE`` default.
    """
    import time

    from . import polar_report
    from .core.tiled_qdwh import tiled_qdwh
    from .dist import DistMatrix, ProcessGrid
    from .runtime import Runtime
    from .runtime.distributed import scan_segments

    rt_kw = {} if sanitize is None else {"sanitize": sanitize}
    rt = Runtime(ProcessGrid(*grid), faults=faults, recovery=recovery,
                 sink=sink, **rt_kw)
    rt.dist_recorder = recorder
    d = DistMatrix.from_array(rt, a, nb, name="A")
    t0 = time.perf_counter()
    res = tiled_qdwh(rt, d, backend=backend, workers=workers, **qdwh_kw)
    wall = time.perf_counter() - t0
    ex = rt._executor
    leaked = ex.inflight_attempts if ex is not None else 0
    shm_prefix = ex.store.prefix if hasattr(ex, "store") else None
    rt.close()
    leaked_shm = (len(scan_segments(shm_prefix))
                  if shm_prefix is not None else 0)
    rep = polar_report(a, res.u.to_array(), res.h.to_array())
    return rt, res, rep, wall, leaked, leaked_shm


def _polar_tiled(args: argparse.Namespace, a: np.ndarray) -> int:
    """``repro polar --backend eager|threads|processes``: tiled QDWH."""
    from .obs import IterationLog
    from .obs.timeline import TimelineSink
    from .runtime.parallel import default_workers

    backend = args.backend
    parallel = backend in ("threads", "processes")
    workers = args.workers or (default_workers() if parallel else 1)

    fault_plan = None
    if args.fault_plan:
        from .resilience import FaultPlan

        fault_plan = FaultPlan.from_json(args.fault_plan)
    recovery = _live_recovery_from_args(args, fault_plan)
    if (fault_plan is not None or recovery is not None) and not parallel:
        raise SystemExit("--fault-plan/--retries/--task-timeout require "
                         "--backend threads or processes (live fault "
                         "tolerance runs inside the worker pool)")
    if fault_plan is not None and fault_plan.crashes \
            and backend != "processes":
        raise SystemExit("rank crashes in a live plan require --backend "
                         "processes (threads cannot lose a worker)")
    checkpoint = None
    if args.checkpoint_dir:
        from .resilience import CheckpointPolicy, QdwhCheckpointer

        checkpoint = QdwhCheckpointer(
            args.checkpoint_dir,
            CheckpointPolicy(every=args.checkpoint_every))
    kw = {} if args.max_iter is None else {"max_iter": args.max_iter}

    sink = TimelineSink() if parallel else None
    log = IterationLog() if args.iter_log else None
    rt, res, rep, wall, leaked, leaked_shm = _tiled_run(
        a, args.nb, backend, workers, faults=fault_plan, recovery=recovery,
        sink=sink, iter_log=log, checkpoint=checkpoint, **kw)
    stats = rt.exec_stats

    print(f"backend={backend} workers={workers if parallel else 1} "
          f"nb={args.nb} n={a.shape[1]} "
          f"iterations={res.iterations} "
          f"({res.it_qr} QR + {res.it_chol} Cholesky)"
          + (" [degraded to dense]" if res.degraded else ""))
    print(f"orthogonality={rep.orthogonality:.3e} "
          f"backward={rep.backward:.3e}")
    print(f"wall={wall:.3f} s")
    for msg in res.health_log:
        print(f"health: {msg}")
    if stats is not None:
        from .perf.report import recovery_report

        line = (f"executor: {stats.tasks_run} tasks | "
                f"busy {stats.busy_seconds:.3f} s | "
                f"cpu {stats.cpu_seconds:.3f} s | "
                f"utilization {stats.utilization:.2f}")
        if stats.peak_rss_bytes:
            line += f" | peak rss {stats.peak_rss_bytes / 2**20:.0f} MiB"
        line += f" | {stats.shipped} shipped to lanes"
        if backend == "processes":
            line += f" | {stats.forks} forks"
        line += f" | in-flight after close {leaked}"
        print(line)
        if stats.comm_messages:
            line = (f"comm: {stats.comm_messages} messages | "
                    f"{stats.comm_bytes / 2**20:.1f} MiB on the wire | "
                    f"leaked shm segments {leaked_shm}")
            if stats.comm_retrans_messages:
                line += (f" | {stats.comm_retrans_messages} frame(s) "
                         f"retransmitted")
            print(line)
        print(recovery_report(stats.recovery), end="")
        if leaked:
            print(f"WARNING: {leaked} attempt(s) still in flight "
                  f"after close")
        if leaked_shm:
            print(f"WARNING: {leaked_shm} shared-memory segment(s) "
                  f"leaked after close")
    if log is not None:
        print(log.table(), end="")

    if getattr(args, "critical_path", False):
        if not (parallel and sink is not None and len(sink)):
            raise SystemExit("--critical-path requires --backend threads "
                             "or processes (it analyzes the measured "
                             "task timeline)")
        from .obs.critical_path import critical_path, occupancy

        cp = critical_path(rt.graph, sink.tasks)
        print(cp.format(), end="")
        for lane in occupancy(sink.tasks):
            print(f"  lane {lane.slot}: {lane.tasks} tasks | "
                  f"busy {lane.busy_seconds:.3f} s | "
                  f"idle {lane.idle_seconds:.3f} s | "
                  f"utilization {lane.utilization:.2f}")

    if parallel and workers > 1 and not args.no_baseline:
        from .perf.report import parallel_efficiency

        wall1 = _tiled_run(a, args.nb, backend, 1, **kw)[3]
        eff = parallel_efficiency({1: wall1, workers: wall})
        print(f"baseline workers=1: {wall1:.3f} s | speedup "
              f"{wall1 / wall if wall else float('inf'):.2f}x | "
              f"parallel efficiency {eff[workers]:.2f}")

    if args.chrome_trace and sink is not None and len(sink):
        from .obs.export import write_chrome_trace

        write_chrome_trace(sink, args.chrome_trace)
        print(f"measured chrome trace written to {args.chrome_trace}")

    if args.metrics_json:
        from .obs import get_registry

        _polar_metrics(f"tiled_{backend}", res, rep)
        if parallel:
            get_registry().gauge("polar.wall_seconds").set(wall)
        _dump_metrics(args.metrics_json)
    if args.output:
        np.savez(args.output, u=res.u.to_array(), h=res.h.to_array())
        print(f"factors saved to {args.output}")
    return 0


def cmd_polar(args: argparse.Namespace) -> int:
    from . import polar, polar_report
    from .obs import IterationLog

    a = _polar_input(args)
    if args.backend != "dense":
        if args.method != "qdwh":
            raise SystemExit(f"--backend {args.backend} supports "
                             "--method qdwh only")
        return _polar_tiled(args, a)
    if args.workers is not None:
        raise SystemExit("--workers is only meaningful with "
                         "--backend threads or processes")
    if args.fault_plan or args.retries is not None \
            or args.task_timeout is not None:
        raise SystemExit("--fault-plan/--retries/--task-timeout require "
                         "--backend threads or processes")
    if args.iter_log and args.method != "qdwh":
        raise SystemExit("--iter-log requires --method qdwh")
    log = IterationLog() if args.iter_log else None
    kwargs = {}
    if args.checkpoint_dir:
        if args.method != "qdwh":
            raise SystemExit("--checkpoint-dir requires --method qdwh")
        from .resilience import CheckpointPolicy, QdwhCheckpointer

        kwargs["checkpoint"] = QdwhCheckpointer(
            args.checkpoint_dir,
            CheckpointPolicy(every=args.checkpoint_every))
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    res = polar(a, method=args.method, iter_log=log, **kwargs)
    rep = polar_report(a, res.u, res.h)
    print(f"method={args.method} iterations={res.iterations}")
    print(f"orthogonality={rep.orthogonality:.3e} "
          f"backward={rep.backward:.3e}")
    if log is not None:
        print(log.table(), end="")
    if args.output:
        np.savez(args.output, u=res.u, h=res.h)
        print(f"factors saved to {args.output}")
    if args.metrics_json:
        _polar_metrics(args.method, res, rep)
        _dump_metrics(args.metrics_json)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .obs import TimelineSink, kernel_breakdown, write_chrome_trace
    from .perf import simulate_qdwh

    machine = _machine(args.machine)
    point = dict(cond=args.cond, nb=args.nb, max_tiles=args.max_tiles)
    sink = TimelineSink() if args.trace else None
    p = simulate_qdwh(machine, args.nodes, args.n, args.impl, sink=sink,
                      **point)
    ranks = p.schedule.config.total_ranks
    plan = _fault_plan_from_args(args, ranks, p.makespan)
    if plan is not None:
        # The fault-free run sized the plan's horizon; the faulted one
        # is the point reported (and traced).
        sink = TimelineSink() if args.trace else None
        p = simulate_qdwh(machine, args.nodes, args.n, args.impl,
                          faults=plan, sink=sink, **point)
    print(f"{args.machine} x{args.nodes} nodes, n={args.n}, "
          f"{args.impl} (nb={p.nb}, sim nb={p.nb_sim})")
    print(f"  iterations: {p.it_qr} QR + {p.it_chol} Cholesky")
    print(f"  makespan:   {p.makespan:.2f} s ({p.task_count} tasks)")
    print(f"  Tflop/s:    {p.tflops:.2f} (paper flop model) / "
          f"{p.executed_tflops:.2f} (executed)")
    _print_recovery(p.schedule)
    for kind, _busy, share in kernel_breakdown(p.schedule)[:5]:
        print(f"    {kind:>8}: {share * 100:5.1f}% of busy time")
    if sink is not None:
        path = write_chrome_trace(sink, args.trace)
        print(f"  chrome trace written to {path} "
              "(open in chrome://tracing or Perfetto)")
    if args.metrics_json:
        _dump_metrics(args.metrics_json)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one simulated point with full timeline capture and export it."""
    from .obs import (
        TimelineSink,
        ascii_gantt,
        kernel_breakdown,
        write_chrome_trace,
    )
    from .perf import simulate_qdwh

    machine = _machine(args.machine)
    sink = TimelineSink()
    p = simulate_qdwh(machine, args.nodes, args.n, args.impl,
                      cond=args.cond, nb=args.nb,
                      max_tiles=args.max_tiles, lookahead=args.lookahead,
                      sink=sink)
    s = p.schedule
    print(f"{args.machine} x{args.nodes} nodes, n={args.n}, "
          f"{args.impl} (nb={p.nb}, sim nb={p.nb_sim})")
    print(f"  makespan:  {p.makespan:.3f} s | {p.task_count} tasks | "
          f"{len(sink.transfers)} transfers | {p.tflops:.2f} Tflop/s")
    stalls = s.stall_seconds or {}
    print("  stalls:    " + "  ".join(
        f"{cause}={sec:.3g}s" for cause, sec in sorted(stalls.items())))
    for kind, _busy, share in kernel_breakdown(sink)[:5]:
        print(f"    {kind:>8}: {share * 100:5.1f}% of busy time")
    if args.chrome_trace:
        path = write_chrome_trace(sink, args.chrome_trace)
        print(f"  chrome trace written to {path} "
              "(open in Perfetto or chrome://tracing)")
    if args.gantt or not args.chrome_trace:
        print(ascii_gantt(sink, width=args.gantt_width), end="")
    if args.metrics_json:
        _dump_metrics(args.metrics_json)
    return 0


def _faults_live(args: argparse.Namespace) -> int:
    """``repro faults --live``: seeded live-fault smoke on real workers.

    Runs a fault-injected tiled QDWH on the threads or processes
    backend next to a fault-free baseline and gates the exit code on
    the same invariants CI uses: the faulty run converges, its backward
    error stays within the condition-scaled tolerance, the executor
    leaks no in-flight attempts after close, and (processes) no
    shared-memory segments survive teardown.  On the processes backend
    rank crashes are real: the target worker is SIGKILLed and its
    in-flight work replayed onto the survivors.
    """
    from .config import backward_error_bound
    from .matrices import generate_matrix
    from .obs import TimelineSink
    from .perf.report import recovery_report
    from .resilience import plan_from_spec
    from .resilience.live import RecoveryPolicy

    backend = args.backend
    processes = backend == "processes"
    chaos = bool(getattr(args, "chaos", False))
    if chaos and not processes:
        raise SystemExit("--chaos injects network faults into the "
                         "driver<->worker comm layer; it needs "
                         "--backend processes")
    plan = _fault_plan_from_args(args, max(1, args.workers), 0.0)
    if plan is None:
        if processes:
            # Default smoke plan: one real worker SIGKILL mid-run plus
            # a light transient/stall background.
            plan = plan_from_spec(seed=args.fault_seed,
                                  crash=("1@0.05",), transient_p=0.05,
                                  max_attempts=4, stall_p=0.02,
                                  stall_seconds=0.02)
        else:
            # Default smoke plan: transients + stalls + one corruption.
            plan = plan_from_spec(seed=args.fault_seed, transient_p=0.1,
                                  max_attempts=4, stall_p=0.05,
                                  stall_seconds=0.05, corrupt_p=0.02)
    if plan.crashes and not processes:
        raise SystemExit("rank crashes need --backend processes, where "
                         "a crash SIGKILLs a real worker; threads "
                         "cannot lose a worker (drop --crash/--mttf)")
    if chaos:
        import dataclasses

        from .resilience.net import default_chaos_plan

        plan = dataclasses.replace(
            plan, net=default_chaos_plan(seed=args.fault_seed))
    pol = RecoveryPolicy(
        max_retries=args.retries if args.retries is not None else 3,
        task_timeout=args.task_timeout,
        scrub_writes=bool(plan.corruptions))
    a = generate_matrix(args.live_n, cond=args.cond, seed=args.fault_seed)

    sink = TimelineSink()
    rt, res, rep, _, leaked, leaked_shm = _tiled_run(
        a, args.live_nb, backend, args.workers, faults=plan, recovery=pol,
        sink=sink)
    stats = rt.exec_stats
    _, res0, rep0, *_ = _tiled_run(a, args.live_nb)

    tol = max(backward_error_bound(a.dtype, args.cond), 10.0 * rep0.backward)
    # The smoke is about the transport: a run that shipped nothing to
    # a lane exercised no retry, replay or wire path and must not pass.
    shipped = stats.shipped if stats is not None else 0
    ok = (res.converged and leaked == 0 and leaked_shm == 0
          and rep.backward <= tol and shipped > 0)
    print(f"live fault smoke: backend={backend} n={args.live_n} "
          f"nb={args.live_nb} cond={args.cond:g} "
          f"workers={args.workers} seed={args.fault_seed}"
          + (" chaos=on" if chaos else ""))
    print(f"  faulty:     converged={res.converged} "
          f"iterations={res.iterations} backward={rep.backward:.3e}"
          + (" [degraded to dense]" if res.degraded else ""))
    print(f"  fault-free: converged={res0.converged} "
          f"iterations={res0.iterations} backward={rep0.backward:.3e}")
    print(f"  gate: backward <= {tol:.3e}, leaked attempts = {leaked}"
          + (f", leaked shm segments = {leaked_shm}" if processes
             else "")
          + f", attempts shipped to a lane = {shipped} (must be > 0)")
    for msg in res.health_log:
        print(f"  health: {msg}")
    if stats is not None:
        print(recovery_report(stats.recovery), end="")
        if stats.comm_retrans_messages:
            print(f"  wire: {stats.comm_retrans_messages} retransmitted "
                  f"frame(s), {stats.comm_retrans_bytes / 2**10:.1f} KiB "
                  f"(app-level bytes counted once)")
    counts = sink.fault_counts()
    if counts:
        print("  events:    " + "  ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    if args.metrics_json:
        _dump_metrics(args.metrics_json)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injected run vs. fault-free baseline + checkpoint trade-off."""
    from .obs import TimelineSink
    from .perf import simulate_qdwh
    from .resilience import checkpoint_write_cost, recovery_overhead_curve

    if args.live:
        return _faults_live(args)
    machine = _machine(args.machine)
    base = simulate_qdwh(machine, args.nodes, args.n, args.impl,
                         cond=args.cond, nb=args.nb,
                         max_tiles=args.max_tiles)
    ranks = base.schedule.config.total_ranks
    print(f"{args.machine} x{args.nodes} nodes ({ranks} ranks), "
          f"n={args.n}, {args.impl}")
    print(f"  fault-free makespan: {base.makespan:.3f} s")

    plan = _fault_plan_from_args(args, ranks, base.makespan)
    if args.emit_plan:
        if plan is None:
            raise SystemExit("no faults specified; nothing to emit "
                             "(use --crash/--transient-p/--straggler/"
                             "--link-factor/--mttf)")
        plan.to_json(args.emit_plan)
        print(f"  fault plan written to {args.emit_plan}")
    if plan is not None:
        sink = TimelineSink()
        faulty = simulate_qdwh(machine, args.nodes, args.n, args.impl,
                               cond=args.cond, nb=args.nb,
                               max_tiles=args.max_tiles, faults=plan,
                               sink=sink)
        slowdown = (faulty.makespan / base.makespan
                    if base.makespan else 1.0)
        print(f"  faulty makespan:     {faulty.makespan:.3f} s "
              f"({slowdown:.2f}x fault-free)")
        _print_recovery(faulty.schedule)
        counts = sink.fault_counts()
        if counts:
            print("  events:    " + "  ".join(
                f"{k}={v}" for k, v in sorted(counts.items())))

    # Young/Daly checkpoint trade-off for this run.
    write_cost = checkpoint_write_cost(args.n, args.n)
    mttfs = args.mttfs or [base.makespan * f for f in (0.5, 1, 2, 5, 10)]
    print(f"  checkpoint trade-off (one write ~ {write_cost:.2f} s):")
    print(f"    {'MTTF s':>10} {'interval s':>11} {'#ckpts':>7} "
          f"{'overhead':>9} {'expected s':>11}")
    for row in recovery_overhead_curve(base.makespan, write_cost, mttfs):
        print(f"    {row['mttf']:>10.1f} {row['interval']:>11.2f} "
              f"{row['checkpoints']:>7d} {row['overhead']:>8.1%} "
              f"{row['expected_makespan']:>11.2f}")
    if args.metrics_json:
        _dump_metrics(args.metrics_json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.tables import format_series
    from .perf import figure_series

    machine = _machine(args.machine)
    sizes = args.sizes or None
    out = figure_series(machine, args.nodes, args.impls, sizes,
                        max_tiles=args.max_tiles)
    xs = [p.n for p in next(iter(out.values()))]
    series = {impl: [round(p.tflops, 3) for p in pts]
              for impl, pts in out.items()}
    print(format_series(
        f"{args.machine}, {args.nodes} node(s): Tflop/s vs matrix size",
        "n", xs, series))
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    from .perf.memory import max_feasible_n, qdwh_footprint, round_down_to

    machine = _machine(args.machine)
    rpn = args.ranks_per_node
    if rpn is None:
        rpn = 2 if args.machine == "summit" else 8
    nmax = round_down_to(max_feasible_n(machine, args.nodes,
                                        ranks_per_node=rpn,
                                        use_gpu=not args.cpu))
    fp = qdwh_footprint(machine, args.nodes, nmax, ranks_per_node=rpn,
                        use_gpu=not args.cpu)
    print(f"{args.machine} x{args.nodes} nodes "
          f"({rpn} ranks/node, {'CPU' if args.cpu else 'GPU'}):")
    print(f"  largest feasible n: {nmax}")
    print(f"  per-rank workspace: {fp.per_rank_bytes / 2**30:.1f} GiB "
          f"of {fp.capacity_bytes / 2**30:.0f} GiB")
    print(f"  workspace overhead: {fp.overhead_factor:.1f}x the input")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate_all

    rep = validate_all(n_numeric=args.n, max_tiles=args.max_tiles)
    print(rep.summary())
    return 0 if rep.passed else 1


def _lint_static(args: argparse.Namespace) -> int:
    import repro
    from .analysis import lint_paths

    paths = args.paths or [os.path.dirname(repro.__file__)]
    findings = lint_paths(paths)
    for f in findings:
        print(f.format())
    print(f"repro-lint: {len(findings)} finding(s) over {len(paths)} "
          f"path(s)")
    return 1 if findings else 0


def _lint_sanitize(args: argparse.Namespace) -> int:
    import warnings

    from .analysis.sanitizer import SanitizerWarning
    from .matrices import generate_matrix

    a = generate_matrix(args.n, cond=args.cond, seed=args.seed)
    dirty = 0
    for backend in ("eager", "threads"):
        with warnings.catch_warnings():
            # Findings are collected on the sanitizer; the per-finding
            # warnings would only duplicate the report below.
            warnings.simplefilter("ignore", SanitizerWarning)
            rt = _tiled_run(a, args.nb, backend, args.workers,
                            grid=(2, 2), sanitize="warn")[0]
        san = rt.sanitizer
        races = rt.graph.check_races(footprints=san.footprints(),
                                     raise_on_error=False)
        for f in san.findings:
            print(f"  {backend}: {f.message()}")
        for r in races:
            print(f"  {backend}: {r.message()}")
        print(f"tilesan[{backend}]: {san.summary()['tasks_checked']} task(s) "
              f"checked, {len(san.findings)} finding(s), "
              f"{len(races)} race(s)")
        dirty += len(san.findings) + len(races)
    return 1 if dirty else 0


def _distsan_trace(findings, path: str) -> None:
    """Write DistSan findings to a chrome trace as instant events."""
    from .obs.export import write_chrome_trace
    from .obs.timeline import AnalysisEvent, TimelineSink

    sink = TimelineSink()
    for checker, f in findings:
        sink.on_analysis(AnalysisEvent(
            checker=checker,
            kind=getattr(f, "invariant", None) or getattr(f, "rule", None)
            or getattr(f, "kind", "finding"),
            tid=getattr(f, "first", -1) if hasattr(f, "first")
            else getattr(f, "tid", -1),
            detail=f.message() if hasattr(f, "message") else str(f)))
    write_chrome_trace(sink, path)
    print(f"distsan trace written to {path}")


def _lint_dist(args: argparse.Namespace) -> int:
    """Record a processes-backend QDWH run, then check it with the
    DistSan happens-before, refcount and protocol checkers."""
    from .analysis.dist import audit_refcounts, check_frames, check_hb
    from .matrices import generate_matrix
    from .runtime.distributed.events import DistTraceRecorder

    a = generate_matrix(args.n, cond=args.cond, seed=args.seed)
    faults = recovery = None
    if getattr(args, "chaos", False):
        from .resilience import FaultPlan
        from .resilience.live import RecoveryPolicy
        from .resilience.net import default_chaos_plan

        faults = FaultPlan(seed=args.seed, net=default_chaos_plan(args.seed))
        recovery = RecoveryPolicy()
    recorder = DistTraceRecorder()
    rt = _tiled_run(a, args.nb, "processes", args.workers, grid=(2, 2),
                    faults=faults, recovery=recovery, recorder=recorder)[0]
    hb = check_hb(recorder, list(rt.graph.tasks))
    refs = audit_refcounts(recorder)
    proto = check_frames(recorder)
    found = ([("hb", f) for f in hb] + [("refcount", f) for f in refs]
             + [("protocol", f) for f in proto])
    for checker, f in found:
        print(f"  {checker}: {f.message()}")
    s = recorder.summary()
    shipped = s.get("dispatch", 0)
    print(f"distsan[processes]: {shipped} dispatch(es) to a lane, "
          f"{s.get('driver', 0)} driver task(s), {s.get('pin', 0)} tile(s) "
          f"pinned in {s.get('create', 0)} shm segment(s), "
          f"{s.get('frames', 0)} frame(s) | "
          f"{len(hb)} hb + {len(refs)} refcount + {len(proto)} protocol "
          f"finding(s)")
    if not shipped:
        # Nothing crossed the wire: the checkers had nothing to check.
        print("distsan[processes]: FAIL - nothing was dispatched to a "
              "lane, the recorded run is vacuous")
    if getattr(args, "chrome_trace", None):
        _distsan_trace(found, args.chrome_trace)
    return 1 if found or not shipped else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static AST rules, a QDWH run under the TileSan sanitizer,
    and/or a recorded processes run under the DistSan checkers."""
    any_selected = args.static or args.sanitize or args.dist
    rc = 0
    if args.static or not any_selected:
        rc |= _lint_static(args)
    if args.sanitize or not any_selected:
        rc |= _lint_sanitize(args)
    if args.dist:
        rc |= _lint_dist(args)
    return rc


def cmd_explore(args: argparse.Namespace) -> int:
    """Model-check the distributed scheduler's schedule space."""
    from .analysis.dist import builtin_scenarios, explore, mutant_gate

    scenarios = builtin_scenarios()
    if args.scenario:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            names = ", ".join(s.name for s in builtin_scenarios())
            print(f"unknown scenario {args.scenario!r} (have: {names})")
            return 2
    findings = []
    for sc in scenarios:
        rep = explore(sc, preemption_bound=args.bound,
                      max_schedules=args.max_schedules)
        cover = "truncated" if rep.truncated else "exhaustive"
        print(f"explore[{sc.name}]: {rep.schedules} schedule(s), "
              f"{rep.steps} step(s), bound {rep.preemption_bound} "
              f"({cover}) | {len(rep.findings)} finding(s)")
        for f in rep.findings:
            print(f"  {f}")
        findings.extend(rep.findings)
    rc = 1 if findings else 0
    if args.mutants:
        gate = mutant_gate(preemption_bound=args.bound,
                           max_schedules=args.max_schedules)
        for r in gate.results:
            verdict = (f"killed by {r.killing_invariant!r} "
                       f"on {r.scenario}" if r.killed else "SURVIVED")
            print(f"mutant[{r.name}]: {verdict} "
                  f"({r.schedules} schedule(s))")
        print(f"mutant gate: {len(gate.results)} mutant(s), "
              f"{len(gate.survivors)} survivor(s), "
              f"{len(gate.clean_findings)} clean finding(s)")
        if not gate.ok:
            rc = 1
    if args.chrome_trace:
        _distsan_trace([("explore", f) for f in findings],
                       args.chrome_trace)
    return rc


def _add_point_args(p: argparse.ArgumentParser, n: int) -> None:
    """The simulated-point flags ``simulate``, ``trace`` and ``faults`` share."""
    p.add_argument("--machine", default="summit")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--impl", default="slate_gpu",
                   choices=["slate_gpu", "slate_cpu", "scalapack"])
    p.add_argument("--cond", type=float, default=1e16)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--max-tiles", type=int, default=16)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Task-based QDWH polar decomposition "
                    "(SC-W 2023 reproduction)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polar", help="decompose a .npy matrix")
    p.add_argument("matrix", nargs="?",
                   help="path to a .npy file (m x n, m >= n); "
                        "alternatively use --generate N")
    p.add_argument("--method", default="qdwh",
                   choices=["qdwh", "svd", "newton", "newton_scaled",
                            "dwh", "zolo"])
    p.add_argument("--backend", default="dense",
                   choices=["dense", "eager", "threads", "processes"],
                   help="dense: the reference dense driver (default); "
                        "eager: tiled QDWH with eager task execution; "
                        "threads: tiled QDWH replayed on a thread pool "
                        "with measured timestamps; processes: replayed "
                        "on forked worker processes with shared-memory "
                        "tiles")
    p.add_argument("--workers", type=int, default=None,
                   help="execution lanes for --backend threads/processes "
                        "(default: one per core); the driver is one of "
                        "them, so 1 starts no thread and forks no process")
    p.add_argument("--nb", type=int, default=128,
                   help="tile size for the tiled backends (default 128)")
    p.add_argument("--generate", type=int, default=None, metavar="N",
                   help="generate an N x N test matrix instead of "
                        "loading one from disk")
    p.add_argument("--cond", type=float, default=1e16,
                   help="condition number for --generate (default 1e16)")
    p.add_argument("--dtype", default="float64",
                   choices=["float32", "float64", "complex64",
                            "complex128"],
                   help="dtype for --generate (default float64)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for --generate (default 0)")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="write the measured chrome://tracing JSON here "
                        "(threads/processes backends; no trace is "
                        "written without it)")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the workers=1 baseline run (the parallel "
                        "backends normally report speedup and parallel "
                        "efficiency against it; that baseline is the "
                        "driver running every task inline)")
    p.add_argument("--critical-path", action="store_true",
                   help="threads/processes backends: print the executed "
                        "critical chain (per-kind contribution, wait "
                        "causes) and per-worker-lane occupancy")
    p.add_argument("--output", help="save factors to this .npz path")
    p.add_argument("--iter-log", action="store_true",
                   help="print the per-iteration QDWH telemetry table")
    p.add_argument("--checkpoint-dir",
                   help="write/resume QDWH iteration checkpoints in this "
                        "directory (qdwh only; dense and tiled backends); "
                        "an interrupted run restarted with the same "
                        "directory resumes mid-iteration and returns "
                        "identical factors")
    p.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                   help="threads/processes backends: inject this "
                        "FaultPlan's live faults (transients, worker "
                        "stalls, tile corruption; rank crashes on the "
                        "processes backend) into the worker pool "
                        "(see repro faults --emit-plan)")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="threads/processes backends: per-task retry "
                        "budget for transient failures (default 2 when "
                        "recovery is active)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="threads/processes backends: wall-clock seconds "
                        "before a running attempt is flagged timed out "
                        "and a backup may be launched (processes: the "
                        "worker is killed and its tasks replayed)")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="checkpoint every k-th iteration (default 1)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="stop after this many iterations (testing aid; "
                        "combine with --checkpoint-dir to interrupt "
                        "and later resume a run)")
    p.add_argument("--metrics-json",
                   help="dump the metrics registry snapshot to this path")
    p.set_defaults(fn=cmd_polar)

    p = sub.add_parser("simulate", help="one simulated performance point")
    _add_point_args(p, n=40_000)
    p.add_argument("--trace", help="write a chrome://tracing JSON here")
    p.add_argument("--fault-plan",
                   help="inject faults from this JSON plan "
                        "(see repro faults --emit-plan)")
    p.add_argument("--mttf", type=float, default=None,
                   help="draw Poisson rank crashes for this system MTTF "
                        "(seconds) over the fault-free makespan")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--metrics-json",
                   help="dump the metrics registry snapshot to this path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "trace", help="simulate a point with full timeline capture")
    _add_point_args(p, n=40_000)
    p.add_argument("--lookahead", type=int, default=None,
                   help="lookahead window (task-based impls)")
    p.add_argument("--chrome-trace",
                   help="write a Perfetto-loadable trace_event JSON here")
    p.add_argument("--gantt", action="store_true",
                   help="print the terminal Gantt (default when no "
                        "--chrome-trace is given)")
    p.add_argument("--gantt-width", type=int, default=72)
    p.add_argument("--metrics-json",
                   help="dump the metrics registry snapshot to this path")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "faults",
        help="fault-injected run vs. baseline + checkpoint trade-off")
    _add_point_args(p, n=20_000)
    p.add_argument("--fault-plan", help="load the fault plan from this "
                                        "JSON file (overrides the spec "
                                        "flags below)")
    p.add_argument("--crash", action="append", metavar="RANK@TIME",
                   help="kill RANK at TIME seconds (repeatable)")
    p.add_argument("--transient-p", type=float, default=0.0,
                   help="per-attempt kernel failure probability")
    p.add_argument("--max-attempts", type=int, default=4)
    p.add_argument("--straggler", action="append", metavar="RANK@FACTOR",
                   help="slow RANK down by FACTOR for the whole run "
                        "(repeatable)")
    p.add_argument("--link-factor", type=float, default=1.0,
                   help="degrade every link's bandwidth by this factor")
    p.add_argument("--no-speculation", action="store_true",
                   help="disable speculative straggler duplication")
    p.add_argument("--stall-p", type=float, default=0.0,
                   help="live worker-stall probability per task "
                        "(--live and threads-backend plans)")
    p.add_argument("--stall-seconds", type=float, default=0.25,
                   help="injected stall duration (default 0.25 s)")
    p.add_argument("--corrupt-p", type=float, default=0.0,
                   help="live tile-corruption probability per task "
                        "(one NaN event budget)")
    p.add_argument("--live", action="store_true",
                   help="run the fault plan inside a real parallel QDWH "
                        "(n=--live-n) instead of the simulator, and "
                        "gate the exit code on convergence, backward "
                        "error, zero leaked attempts, and (processes) "
                        "zero leaked shared-memory segments")
    p.add_argument("--backend", default="threads",
                   choices=["threads", "processes"],
                   help="worker pool for --live (default threads; "
                        "processes SIGKILLs real workers for rank "
                        "crashes)")
    p.add_argument("--chaos", action="store_true",
                   help="with --live --backend processes: run under "
                        "the seeded ChaosComm network fault plan "
                        "(frame drops, duplicates, delays, one corrupt "
                        "frame, one partition window, one connection "
                        "cut) on top of the process fault plan")
    p.add_argument("--live-n", type=int, default=256,
                   help="matrix size for --live (default 256)")
    p.add_argument("--live-nb", type=int, default=64,
                   help="tile size for --live (default 64)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker count for --live (default 4)")
    p.add_argument("--retries", type=int, default=None,
                   help="per-task retry budget for --live (default 3)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="wall-clock task timeout for --live")
    p.add_argument("--mttf", type=float, default=None,
                   help="draw Poisson rank crashes for this system MTTF "
                        "(seconds) instead of explicit --crash specs")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--mttfs", nargs="+", type=float,
                   help="MTTF values for the checkpoint trade-off table")
    p.add_argument("--emit-plan",
                   help="write the constructed fault plan JSON here")
    p.add_argument("--metrics-json",
                   help="dump the metrics registry snapshot to this path")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("sweep", help="Tflop/s vs size sweep")
    p.add_argument("--machine", default="summit")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--impls", nargs="+",
                   default=["slate_gpu", "scalapack"])
    p.add_argument("--sizes", nargs="+", type=int)
    p.add_argument("--max-tiles", type=int, default=12)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("memory", help="feasibility from the footprint model")
    p.add_argument("--machine", default="frontier")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--ranks-per-node", type=int, default=None)
    p.add_argument("--cpu", action="store_true",
                   help="CPU-only run (host memory capacity)")
    p.set_defaults(fn=cmd_memory)

    p = sub.add_parser(
        "lint",
        help="correctness tooling: static footprint rules + TileSan")
    p.add_argument("--static", action="store_true",
                   help="run only the repro-lint AST rules")
    p.add_argument("--sanitize", action="store_true",
                   help="run only a small QDWH (eager + threads) under "
                        "the TileSan footprint sanitizer and the "
                        "happens-before race checker")
    p.add_argument("--dist", action="store_true",
                   help="record a small processes-backend QDWH and "
                        "check it with the DistSan happens-before, "
                        "shm-refcount and wire-protocol checkers")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="with --dist: write findings to a chrome "
                        "trace as instant events")
    p.add_argument("--chaos", action="store_true",
                   help="with --dist: record the run under the seeded "
                        "ChaosComm network fault plan — the protocol "
                        "checkers must stay clean across CRC'd frames, "
                        "retransmissions and resyncs")
    p.add_argument("paths", nargs="*",
                   help="files/directories for --static (default: the "
                        "installed repro package)")
    p.add_argument("--n", type=int, default=64,
                   help="matrix size for --sanitize (default 64)")
    p.add_argument("--nb", type=int, default=16,
                   help="tile size for --sanitize (default 16)")
    p.add_argument("--cond", type=float, default=1e8,
                   help="condition number for --sanitize (default 1e8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=4,
                   help="threads-backend worker count (default 4)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "explore",
        help="model-check the distributed scheduler: systematic "
             "bounded interleavings of completion/steal/crash events "
             "with invariant checks, plus the seeded-mutant gate")
    p.add_argument("--scenario", default=None,
                   help="explore one builtin scenario by name "
                        "(default: all)")
    p.add_argument("--bound", type=int, default=2,
                   help="preemption bound: max deviations from the "
                        "default schedule per run (default 2)")
    p.add_argument("--max-schedules", type=int, default=400,
                   help="schedule budget per scenario (default 400)")
    p.add_argument("--mutants", action="store_true",
                   help="also run the seeded-mutant gate: every known-"
                        "bad scheduler/store variant must be killed")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="write findings to a chrome trace as instant "
                        "events")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("validate",
                       help="run the paper-claim acceptance matrix")
    p.add_argument("--n", type=int, default=256,
                   help="size of the measured (numeric) checks")
    p.add_argument("--max-tiles", type=int, default=10,
                   help="granularity of the simulated checks")
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
