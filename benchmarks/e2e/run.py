"""End-to-end benchmark: four seeded workloads, two clocks, layer trace.

Each workload runs in fresh, single-threaded worker processes, one per
set-up (``worker.py``); together they measure for ``--seconds``.  Every
metric is printed as ``workload metric value unit``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
the ``BENCHMARK.json`` end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``).  Any wrong answer makes the exit code 1; a
crashed worker makes it 2 and prints no result.

Usage::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S]
        [--seconds T] [--trace 0|1] [--trace-dir DIR] [--smoke]
        [--out FILE]

``--out`` appends this run to a results file that ``compare.py`` reads;
``--trace-dir`` writes one Chrome trace-event file per worker.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parents[1] / "BENCHMARK.json"
WORKLOADS = ("maxwell-timestep", "fig10-batch", "serve-mixed",
             "maxwell-sharded4")
#: worker processes (cold set-ups) per workload
SETUPS = 3
#: seconds a worker may take beyond its share of the measuring time
WORKER_SLACK = 45.0
#: workers are single-threaded: no BLAS thread pools
WORKER_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}

_UNITS = (("_gflop", "Gflop"), ("_gb", "GB"), ("_mb", "MB"), ("_ms", "ms"),
          ("_us", "us"), ("_s", "s"), ("_frac", "ratio"),
          ("_ratio", "ratio"), ("_rate", "ratio"))


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix (``count`` otherwise)."""
    return next((u for suffix, u in _UNITS if name.endswith(suffix)),
                "count")


def _p99(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run_worker(workload: str, rep: int, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--rep", str(rep),
           "--seconds", repr(args.seconds / args.setups),
           "--trace", str(args.trace)]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV},
                          timeout=args.seconds / args.setups + WORKER_SLACK)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker {rep} exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(workers: list[dict]) -> dict:
    """Merge one workload's workers into its metrics.

    Host times are medians over every untraced op; simulated times come
    from each worker's first ``min_ops`` ops only, which run whatever
    the timing, so they are a pure function of the seed.
    """
    ops = [o for w in workers for o in w["ops"]]
    timed = [o for o in ops if not o["traced"]] or ops
    fixed = [o for w in workers for o in w["ops"][:w["min_ops"]]]
    sims = [v for o in fixed for v in o["sim_ms"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    m = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "host_ms": statistics.median(o["host_ms"] for o in timed),
        "sim_ms": statistics.median(sims),
        "sim_p99_ms": _p99(sims),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
        "peak_device_mb": statistics.median(o["peak_device_mb"]
                                            for o in fixed),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    for key, pool in (("factor_host_ms", timed), ("solve_host_ms", timed),
                      ("factor_sim_ms", fixed), ("solve_sim_ms", fixed)):
        values = [v for o in pool for v in o.get(key, ())]
        if values:
            m[key] = statistics.median(values)
    for w in workers:
        m.update(w["extras"])
    if all("layers" in w for w in workers):
        for key in workers[0]["layers"]:
            m[key] = statistics.median(w["layers"][key] for w in workers)
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "errors": [e for w in workers for e in w["errors"]],
            "metrics": m}


def append_run(path: Path, run: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(run)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced ops")
    ap.add_argument("--trace-dir",
                    help="write Chrome trace-event JSON here (with --trace 1)")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and one set-up, for tests")
    ap.add_argument("--out", help="append this run to a results JSON file")
    args = ap.parse_args(argv)
    args.setups = 1 if args.smoke else SETUPS
    if not (SPEC.parent / "src" / "repro").is_dir():
        print(f"error: no library source under {SPEC.parent / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    results = {}
    for workload in args.workload or WORKLOADS:
        try:
            workers = [run_worker(workload, rep, args)
                       for rep in range(args.setups)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        res = results[workload] = summarize(workers)
        for name, value in res["metrics"].items():
            print(f"{workload} {name} {value!r} {unit_of(name)}")
        for err in res["errors"]:
            print(f"{workload} FAILED {err}", file=sys.stderr)

    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for name in wanted:
            metrics[prefix + name] = {"value": res["metrics"][name],
                                      "unit": unit_of(name)}
    correct = all(r["correct"] for r in results.values())
    if args.out:
        append_run(Path(args.out), {
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "workloads": {w: {k: r[k] for k in ("correct", "attempted",
                                                 "failed", "metrics")}
                          for w, r in results.items()}})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
