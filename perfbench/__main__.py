"""Command line of perfbench (see the package docstring)."""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from . import env  # noqa: E402
from .spec import PER_LAYER, SMOKE, WORKLOADS, workload  # noqa: E402

SCHEMA = "perfbench/1"
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def print_metrics(name: str, doc: Dict[str, object]) -> None:
    """Every metric by name, with its unit."""
    for metric, s in {**doc["end_to_end"], **doc["seconds"]}.items():
        print(f"{name} {metric} = {s['median']:.6g} {s['unit']}  "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, min {s['min']:.6g}, "
              f"max {s['max']:.6g}, n {s['n']}, "
              f"bound {s.get('bound', 'none')}]")
    for metric, value in doc.get("metrics", {}).items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name} {metric} = {shown} {UNITS[metric]}")
    for metric, why in doc.get("layers_skipped", {}).items():
        print(f"{name} skipped {metric}: {why}")
    print(f"{name} fail_share = {doc['fail_share']:.6g} "
          f"({doc['failed']} failed of {doc['attempted']} operations, "
          f"{doc['rounds']} rounds)")
    for f in doc["failures"]:
        print(f"{name} FAILED {f['clock']}: {f['reasons']}")
    for metric in doc["missing"]:
        print(f"{name} MISSING {metric}: no successful sample")


def contract_line(doc: Dict[str, object], trace: bool) -> str:
    """The pipeline's result object: end-to-end metrics with ``--trace
    0``, per-layer metrics with ``--trace 1`` (a skipped probe reads 0
    there and is named on stderr and under ``layers_skipped``)."""
    if trace:
        metrics = {m: {"value": 0.0 if v is None else float(v),
                       "unit": UNITS[m]}
                   for m, v in doc["metrics"].items()}
    else:
        metrics = {m: {"value": s["median"], "unit": s["unit"]}
                   for m, s in doc["end_to_end"].items()}
    return json.dumps({"correct": doc["failed"] == 0,
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process (the pipeline's invocation, and the
    child of the full set)."""
    env.pin()
    from .runner import Plan, run_workload

    w = workload(args.workload)
    if args.emit:
        plan = Plan.smoke() if w is SMOKE else Plan.full()
    else:
        plan = Plan.pipeline(args.seconds, args.trace == 1)
    doc = run_workload(w, args.seed, plan, args.out, T_START)
    print_metrics(w.name, doc)
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    if doc["missing"]:
        return 1  # a metric without a single good sample: no result line
    if not args.emit:
        for metric, why in doc.get("layers_skipped", {}).items():
            print(f"{w.name} skipped {metric}: {why}", file=sys.stderr)
        print(contract_line(doc, plan.traced))
    return 1 if doc["failed"] else 0


def run_setup_only(args: argparse.Namespace) -> int:
    env.pin()
    from .clocks import Ledger
    from .runner import setup_once

    ledger = Ledger()
    setup_once(args.seed, ledger)
    print(json.dumps({"setup_s": time.perf_counter() - T_START,
                      "failed": ledger.failed}))
    return 1 if ledger.failed else 0


def run_set(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; one JSON document and one
    Chrome trace per workload under ``--out``."""
    env.pin()
    os.makedirs(args.out, exist_ok=True)
    names = [SMOKE.name] if args.smoke else [w.name for w in WORKLOADS]
    docs: Dict[str, object] = {}
    status = 0
    for name in names:
        part = os.path.join(args.out, f".{name}-seed{args.seed}.part.json")
        proc = env.run_child(
            ["--workload", name, "--seed", str(args.seed), "--out", args.out,
             "--emit", part], timeout=900)
        status = status or proc.returncode
        if os.path.exists(part):
            with open(part) as fh:
                docs[name] = json.load(fh)
            os.remove(part)
    result = {"schema": SCHEMA, "seed": args.seed, "env": env.fingerprint(),
              "created_unix": int(time.time()), "workloads": docs}
    path = os.path.join(
        args.out, f"perfbench-{'smoke-' if args.smoke else ''}"
                  f"seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Seven clocks over one QDWH task graph.")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="bench_out",
                    help="directory for JSON and traces (default bench_out)")
    ap.add_argument("--smoke", action="store_true",
                    help="64x64/nb=32, one round: exercises everything")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the timed rounds (with --workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics, 1: traced pass and "
                         "per-layer metrics (with --workload)")
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        from .compare import main as compare_main
        return compare_main(*args.compare)
    # A terminated run unwinds like any other, through the finally below.
    def terminated(*_: object) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # clean up once
        sys.exit(143)

    signal.signal(signal.SIGTERM, terminated)
    try:
        if args.setup_only:
            return run_setup_only(args)
        if args.workload:
            return run_one(args)
        return run_set(args)
    finally:
        sys.stdout.flush()
        env.stop_children()


if __name__ == "__main__":
    sys.exit(main())
