"""Serving benchmark: coalesced dispatch vs one-request-per-launch.

A solver service amortizes kernel launch overhead by coalescing the
compatible requests waiting in its admission queue into a single
irregular batch (§III: the irregular kernels were built exactly so that
mixed-size work shares one launch).  This harness measures what that
buys on the paper's mixed workload — 500 independent ``factor_solve``
requests with local sizes ~ U[lo, hi] — in *simulated device seconds*:

* **solo**      — ``CoalescingPolicy(max_batch=1)``: every request is
  its own batched launch group (the baseline a naive server pays).
* **coalesced** — ``CoalescingPolicy(max_batch=32)``: requests sharing
  a compatibility key ride one launch group.

Both modes run the identical dispatch code path, so the comparison
isolates the batching policy.  Throughput is requests per simulated
second; the acceptance gate is **>= 2x** coalesced over solo.  Every
run verifies the parity contract first: the coalesced results are
bitwise identical to the solo results, and the coalesced launch count
is strictly smaller.

``--slo`` switches to the traffic-replay benchmark: the standard mixes
(steady Poisson, burst-storm, heavy-tail, closed-loop — see
:data:`repro.workloads.traffic.STANDARD_MIXES`) replay in virtual time
against (a) the hand-picked ``CoalescingPolicy()`` default and (b) the
same default with the :class:`~repro.serve.autotune.OnlineAutotuner`
hot-swapping refined policies mid-run.  Gates, per mix: the autotuned
run delivers **strictly higher simulated throughput**, meets **every
per-class p99 SLO**, and its per-request results are **bitwise
identical** to the static run's (tuning changes launch shapes, never
bits).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_serve.py --slo      # traffic/SLO

Writes ``BENCH_serve.json`` (repo root) and ``results/bench_serve.txt``
(``results/bench_serve_slo.txt`` and an ``slo`` JSON section for
``--slo``).  Exits non-zero if parity fails or any gate is missed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.device import A100, Device  # noqa: E402
from repro.serve import AutotuneConfig, CoalescingPolicy, \
    OnlineAutotuner, SolverService  # noqa: E402
from repro.workloads.traffic import STANDARD_MIXES, run_mix  # noqa: E402

TARGET_SPEEDUP = 2.0    # acceptance: coalesced >= 2x solo throughput
SMOKE_SPEEDUP = 1.5     # relaxed gate for the tiny CI workload


def workload(n_requests: int, lo: int, hi: int, seed: int = 0):
    """Mixed diagonally-dominant systems, sizes ~ U[lo, hi]."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(lo, hi + 1, size=n_requests)
    mats, rhss = [], []
    for i, n in enumerate(sizes):
        a = rng.standard_normal((int(n), int(n)))
        a += int(n) * np.eye(int(n))
        mats.append(a)
        rhss.append(rng.standard_normal(int(n)))
    return mats, rhss


def run_mode(mats, rhss, max_batch: int):
    """Push the whole workload through one inline service; return
    (results, simulated_seconds, host_seconds, stats_snapshot,
    launch_count)."""
    dev = Device(A100())
    svc = SolverService(dev, policy=CoalescingPolicy(
        max_batch=max_batch, max_queue=max(256, len(mats))), start=False)
    host0 = time.perf_counter()
    futs = [svc.submit_factor_solve(a, b) for a, b in zip(mats, rhss)]
    svc.run_once()
    sim = dev.synchronize()
    host = time.perf_counter() - host0
    out = [f.result(0) for f in futs]
    snap = svc.stats.snapshot()
    launches = dev.profiler.launch_count
    svc.close()
    assert dev.allocated_bytes == 0, "service leaked device memory"
    return out, sim, host, snap, launches


def check_parity(solo, coalesced) -> None:
    for i, ((x_s, h_s), (x_c, h_c)) in enumerate(zip(solo, coalesced)):
        if not (np.array_equal(x_s, x_c)
                and np.array_equal(h_s.lu, h_c.lu)
                and all(np.array_equal(p, q)
                        for p, q in zip(h_s.ipiv, h_c.ipiv))):
            raise SystemExit(f"PARITY FAILURE: request {i} differs "
                             "between solo and coalesced dispatch")


def _mix_parity(static, tuned) -> bool:
    """Bitwise identity of every per-request result across the two
    replays (both submitted byte-identical payloads)."""
    for a, b in zip(static.results, tuned.results):
        if (a is None) != (b is None):
            return False
        if a is not None and not np.array_equal(a, b):
            return False
    return True


def run_slo(smoke: bool, seed: int) -> tuple[str, dict, int]:
    """The traffic/SLO benchmark: static default vs online-autotuned on
    every standard mix.  Returns (report text, json payload, exit code).
    """
    policy = CoalescingPolicy(max_queue=4096)
    cfg = AutotuneConfig(min_requests=12, min_dispatches=2)

    def tuner(svc, clock):
        return OnlineAutotuner(svc, clock=clock, config=cfg, seed=seed)

    lines = [
        "bench_serve --slo: static CoalescingPolicy() vs online autotuner",
        f"mixes: {', '.join(STANDARD_MIXES)} (virtual-time replay, "
        f"seed {seed})",
        "",
        f"{'mix':<12} {'static r/s':>11} {'tuned r/s':>10} {'gain':>7} "
        f"{'parity':>7} {'slo':>5} {'swaps':>6} {'rollbacks':>10}",
    ]
    payload: dict = {}
    failures: list[str] = []
    for name, mix in STANDARD_MIXES.items():
        if smoke:
            mix = type(mix)(**{**mix.__dict__,
                               "count": max(64, mix.count // 3)})
        static = run_mix(mix, policy=policy, seed=seed)
        tuned = run_mix(mix, policy=policy, seed=seed, autotuner=tuner,
                        tune_every=1e-2)
        parity = _mix_parity(static, tuned)
        slo_ok = tuned.slo_met()
        # full run: the tuner must strictly beat the hand-picked
        # default; the smoke workload is too short for convergence, so
        # CI gates on "never worse" (+ parity + SLOs) instead
        beat = tuned.throughput >= static.throughput if smoke \
            else tuned.throughput > static.throughput
        if not parity:
            failures.append(f"{name}: PARITY failure (tuning changed "
                            f"result bits)")
        if not slo_ok:
            misses = {k: v for k, v in tuned.per_class.items()
                      if not v["met"]}
            failures.append(f"{name}: p99 SLO missed: {misses}")
        if not beat:
            failures.append(
                f"{name}: autotuned throughput {tuned.throughput:.1f} "
                f"did not beat static {static.throughput:.1f}")
        lines.append(
            f"{name:<12} {static.throughput:>11.1f} "
            f"{tuned.throughput:>10.1f} "
            f"{tuned.throughput / static.throughput:>6.3f}x "
            f"{'yes' if parity else 'NO':>7} "
            f"{'met' if slo_ok else 'MISS':>5} "
            f"{tuned.tuner['swaps']:>6d} {tuned.tuner['rollbacks']:>10d}")
        payload[name] = {
            "static": {"throughput": static.throughput,
                       "makespan": static.makespan,
                       "dispatches": static.dispatches,
                       "per_class": static.per_class},
            "tuned": {"throughput": tuned.throughput,
                      "makespan": tuned.makespan,
                      "dispatches": tuned.dispatches,
                      "per_class": tuned.per_class,
                      "final_policy": {
                          k: v for k, v in tuned.policy.items()
                          if k in ("max_batch", "max_wait",
                                   "hot_threshold", "panel_regime")},
                      "tuner": tuned.tuner},
            "gain": tuned.throughput / static.throughput
            if static.throughput else 0.0,
            "parity": parity,
            "slo_met": slo_ok,
        }
    lines.append("")
    if failures:
        lines.extend(f"FAIL: {f}" for f in failures)
    else:
        lines.append("all gates met: throughput beaten, SLOs met, "
                     "bitwise parity on every mix")
    return "\n".join(lines), payload, 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small workload + relaxed gate (CI)")
    ap.add_argument("--requests", type=int, default=None,
                    help="override workload size")
    ap.add_argument("--slo", action="store_true",
                    help="traffic-replay benchmark: static vs autotuned "
                         "policies under per-class p99 SLO gates")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    if args.slo:
        text, payload, rc = run_slo(args.smoke, args.seed)
        print(text)
        (ROOT / "results").mkdir(exist_ok=True)
        (ROOT / "results" / "bench_serve_slo.txt").write_text(text + "\n")
        bench_path = ROOT / "BENCH_serve.json"
        merged = json.loads(bench_path.read_text()) \
            if bench_path.exists() else {}
        merged["slo"] = {"seed": args.seed, "smoke": bool(args.smoke),
                         "mixes": payload}
        bench_path.write_text(json.dumps(merged, indent=2) + "\n")
        return rc

    n = args.requests or (60 if args.smoke else 500)
    lo, hi = 4, 64
    gate = SMOKE_SPEEDUP if args.smoke else TARGET_SPEEDUP

    mats, rhss = workload(n, lo, hi)
    solo, sim_s, host_s, snap_s, launches_s = run_mode(mats, rhss, 1)
    coal, sim_c, host_c, snap_c, launches_c = run_mode(mats, rhss, 32)

    check_parity(solo, coal)
    if launches_c >= launches_s:
        raise SystemExit("COALESCING FAILURE: coalesced dispatch did not "
                         f"reduce launches ({launches_c} vs {launches_s})")

    thr_s = n / sim_s
    thr_c = n / sim_c
    speedup = thr_c / thr_s

    lines = [
        "bench_serve: coalesced dispatch vs one-request-per-launch",
        f"workload: {n} factor_solve requests, sizes ~ U[{lo}, {hi}] "
        "float64",
        "",
        f"{'mode':<12} {'sim s':>10} {'req/sim s':>12} {'launches':>10} "
        f"{'dispatches':>11} {'coalesce':>9} {'occupancy':>10}",
        f"{'solo':<12} {sim_s:>10.6f} {thr_s:>12.1f} {launches_s:>10d} "
        f"{snap_s['dispatches']:>11d} {snap_s['coalescing_ratio']:>9.2f} "
        f"{snap_s['mean_occupancy']:>10.3f}",
        f"{'coalesced':<12} {sim_c:>10.6f} {thr_c:>12.1f} "
        f"{launches_c:>10d} {snap_c['dispatches']:>11d} "
        f"{snap_c['coalescing_ratio']:>9.2f} "
        f"{snap_c['mean_occupancy']:>10.3f}",
        "",
        f"parity: bitwise identical across {n} requests",
        f"speedup (simulated throughput): {speedup:.2f}x "
        f"(gate >= {gate:.1f}x)",
        f"host wall-clock: solo {host_s:.3f}s, coalesced {host_c:.3f}s",
    ]
    text = "\n".join(lines)
    print(text)

    (ROOT / "results").mkdir(exist_ok=True)
    (ROOT / "results" / "bench_serve.txt").write_text(text + "\n")
    bench_path = ROOT / "BENCH_serve.json"
    merged = json.loads(bench_path.read_text()) \
        if bench_path.exists() else {}
    merged.update({
        "workload": {"requests": n, "size_lo": lo, "size_hi": hi,
                     "dtype": "float64"},
        "solo": {"sim_seconds": sim_s, "throughput": thr_s,
                 "launches": launches_s,
                 "dispatches": snap_s["dispatches"],
                 "coalescing_ratio": snap_s["coalescing_ratio"],
                 "mean_occupancy": snap_s["mean_occupancy"],
                 "host_seconds": host_s},
        "coalesced": {"sim_seconds": sim_c, "throughput": thr_c,
                      "launches": launches_c,
                      "dispatches": snap_c["dispatches"],
                      "coalescing_ratio": snap_c["coalescing_ratio"],
                      "mean_occupancy": snap_c["mean_occupancy"],
                      "host_seconds": host_c},
        "speedup": speedup,
        "gate": gate,
        "parity": "bitwise",
        "smoke": bool(args.smoke),
    })
    bench_path.write_text(json.dumps(merged, indent=2) + "\n")

    if speedup < gate:
        print(f"FAIL: speedup {speedup:.2f}x below gate {gate:.1f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
