"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json [--claim W/METRIC ...]

``A.json`` (the parent) and ``B.json`` (the change) are results files
written by ``run.py --out``, each holding one or more runs.  For every
(workload, metric) present on both sides it prints each side's median
and quartiles and a verdict, using the bound and direction from
``BENCHMARK.json``:

* ``identical`` — run *i* reads the same on both sides for every *i*
  (simulated and count metrics of runs with the same seeds);
* ``within`` / ``worse`` / ``better`` — B's median against A's, by the
  metric's bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, unless every B run beats every A run;
* ``info`` — the metric has no bound (per-layer and detail metrics).

``--claim`` applies the gain rule to one metric: at least 10 pairs (run
*i* of A with run *i* of B, alternating which side ran first), B better
in at least 9 of 10 pairs (ties count for neither), and medians apart by
more than A's quartile distance.  The exit code is 1 when a bounded
metric is worse or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import SPEC, unit_of

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, bound, sign) -> str:
    """``sign`` is +1 when lower is better, -1 when higher is."""
    if a == b:
        return "identical"
    if bound is None:
        return "info"
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def claim_holds(a, b, sign) -> tuple[bool, str]:
    """The pairs rule for claiming that B improved on A."""
    n = min(len(a), len(b))
    wins = sum(sign * (y - x) < 0 for x, y in zip(a[:n], b[:n]))
    q1, _, q3 = quartiles(a)
    gap = abs(statistics.median(b) - statistics.median(a))
    ok = n >= MIN_PAIRS and wins >= WIN_SHARE * n and gap > q3 - q1
    return ok, (f"{wins}/{n} pairs won, median gap {gap:.6g} vs "
                f"A quartile distance {q3 - q1:.6g}")


def series(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run, in run order."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        for workload, res in run["workloads"].items():
            for name, value in res["metrics"].items():
                out.setdefault((workload, name), []).append(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent results file")
    ap.add_argument("b", type=Path, help="change results file")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD/METRIC")
    args = ap.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = series(args.a), series(args.b)
    failed = False
    print(f"{'workload':18} {'metric':40} {'unit':6} "
          f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'change':>8}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        meta = declared.get(name, {})
        sign = -1 if meta.get("better") == "higher" else 1
        v = verdict(a[key], b[key], meta.get("bound"), sign)
        failed |= v == "worse"
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        print(f"{workload:18} {name:40} {unit_of(name):6} "
              f"{qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
              f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
              f"{change:+8.2%}  {v}")
    for claim in args.claim:
        workload, _, name = claim.partition("/")
        if (workload, name) not in a or (workload, name) not in b:
            print(f"claim {claim}: metric missing on a side")
            failed = True
            continue
        sign = -1 if declared.get(name, {}).get("better") == "higher" else 1
        ok, detail = claim_holds(a[workload, name], b[workload, name], sign)
        print(f"claim {claim}: {'met' if ok else 'NOT met'} ({detail})")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
