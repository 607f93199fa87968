"""``python -m perfbench --compare A.json B.json``: do two result sets
agree within each metric's regression bound?"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

AGREE, UNRESOLVED, DIFFER = "agree", "unresolved", "differ"


def verdict(a: Dict[str, float], b: Dict[str, float], bound: float) -> str:
    """``agree`` when the medians are within ``bound`` of each other;
    ``unresolved`` when they are not but the quartile ranges overlap (the
    run-to-run spread is wider than the bound); otherwise ``differ``."""
    if abs(b["median"] - a["median"]) <= bound * abs(a["median"]):
        return AGREE
    if a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
        return UNRESOLVED
    return DIFFER


def compare(doc_a: Dict, doc_b: Dict) -> Tuple[List[str], bool]:
    """Report lines and whether the two sets are acceptable: no
    ``differ``, no failed operation, same workloads."""
    lines = [f"{'workload':<13} {'metric':<22} {'A median':>12} "
             f"{'B median':>12} {'rel diff':>9} {'bound':>6}  verdict"]
    ok = True
    wa, wb = doc_a["workloads"], doc_b["workloads"]
    for name in sorted(set(wa) | set(wb)):
        if name not in wa or name not in wb:
            lines.append(f"{name}: only in {'A' if name in wa else 'B'}")
            ok = False
            continue
        for side, doc in (("A", wa[name]), ("B", wb[name])):
            if doc["failed"]:
                lines.append(f"{name}: {side} has {doc['failed']} failed "
                             f"operation(s) of {doc['attempted']}")
                ok = False
        ea, eb = wa[name]["end_to_end"], wb[name]["end_to_end"]
        for metric in ea:
            if metric not in eb:
                lines.append(f"{name} {metric}: missing in B")
                ok = False
                continue
            a, b = ea[metric], eb[metric]
            v = verdict(a, b, a["bound"])
            ok = ok and v != DIFFER
            rel = (b["median"] - a["median"]) / a["median"]
            lines.append(
                f"{name:<13} {metric:<22} {a['median']:>12.6g} "
                f"{b['median']:>12.6g} {rel:>+9.1%} {a['bound']:>6.2f}  {v}")
        ca, cb = wa[name].get("calib_s"), wb[name].get("calib_s")
        if ca and cb:
            lines.append(f"{name:<13} host calibration B/A = {cb / ca:.3f}")
    return lines, ok


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines, ok = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print("compare:", "OK" if ok else "FAIL")
    return 0 if ok else 1
