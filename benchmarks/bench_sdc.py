"""SDC-defense benchmark: circuit breaker vs no-breaker under a storm.

A persistently corrupting device makes every dispatch pay the repair
bill: the compiled fast path detects the corruption via its program
checksum, re-runs the whole program (twice — the bounded ABFT budget),
raises a typed ``CorruptionDetected``, and falls back to the bucketed
ladder.  The request completes bitwise-correct — but its latency
carries two wasted program re-runs, on *every* dispatch of the storm.

The circuit breaker bounds that second payment.  Fed per-dispatch
recovery-log deltas, it opens under the storm and skips the compiled
rung entirely: storm-phase dispatches go straight to the bucketed path
(whose launches are not ``fused[...]`` sites, so the pinned fault never
fires), then a half-open probe re-closes the breaker once the faults
clear and compiled dispatch resumes.

This harness pushes identical three-phase traffic (warm / storm /
recovery) through two services:

* **no-breaker** — ``CircuitBreaker(min_observations=10**9)``: the
  monitor never accumulates enough trusted evidence to open, so every
  storm dispatch pays the compiled-detect-fallback tax.
* **breaker**    — the default ``CircuitBreaker()``.

Gates (exit non-zero on miss):

1. the breaker **opens** during the storm and the no-breaker baseline
   never does;
2. every completed request in *both* runs is **bitwise identical** to
   the fault-free reference — zero failed requests, zero wrong answers;
3. storm-phase **p99 latency** (simulated seconds per dispatch) is
   strictly better with the breaker than without;
4. after the faults clear the breaker **closes** and the compiled fast
   path **resumes** (compiled dispatches strictly increase in the
   recovery phase).

Usage::

    PYTHONPATH=src python benchmarks/bench_sdc.py            # full run
    PYTHONPATH=src python benchmarks/bench_sdc.py --smoke    # CI smoke

Writes ``BENCH_sdc.json`` (repo root) and ``results/bench_sdc.txt``.
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

from repro.device import A100, PERSISTENT, Device, FaultPlan, \
    FaultRule  # noqa: E402
from repro.serve import CircuitBreaker, CoalescingPolicy, \
    SolverService  # noqa: E402

ORDER = 48          # one hot signature: every request compiles/coalesces


def reference_lu(a):
    svc = SolverService(Device(A100()), start=False)
    h = svc.factor(a)
    lu = h.lu.copy()
    svc.close()
    return lu


def run_service(a, ref_lu, *, with_breaker: bool, warm: int, storm: int,
                recover: int, seed: int):
    """Three-phase single-request traffic; returns a result dict with
    per-phase latencies (simulated seconds per dispatch) and counters."""
    dev = Device(A100())
    breaker = CircuitBreaker() if with_breaker else \
        CircuitBreaker(min_observations=10 ** 9)
    svc = SolverService(dev, policy=CoalescingPolicy(
        max_batch=4, compile_hot=True, hot_threshold=2),
        start=False, breaker=breaker)

    wrong = 0

    def round_trip():
        """One dispatch; returns (simulated latency, saw_fault)."""
        nonlocal wrong
        t0 = dev.synchronize()
        evidence0 = (svc.stats.corruptions_detected
                     + svc.stats.kernel_reexecs)
        fut = svc.submit_factor(a)
        svc.run_once()
        lat = dev.synchronize() - t0
        faulted = (svc.stats.corruptions_detected
                   + svc.stats.kernel_reexecs) > evidence0
        h = fut.result(0)
        if not np.array_equal(h.lu, ref_lu):
            wrong += 1
        return lat, faulted

    host0 = time.perf_counter()
    warm_lat = [round_trip()[0] for _ in range(warm)]

    plan = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                                match="fused[")], seed=seed)
    opened = False
    storm_lat = []
    with dev.fault_scope(plan):
        for _ in range(storm):
            storm_lat.append(round_trip())
            opened = opened or breaker.state != "closed"
    storm_snap = svc.stats.snapshot()

    compiled_before = storm_snap["compiled_dispatches"]
    recover_lat = [round_trip()[0] for _ in range(recover)]
    host = time.perf_counter() - host0

    # "unaffected traffic": storm dispatches that saw no fault evidence
    # (with the breaker open these run the clean bucketed path; the
    # half-open probes deliberately exercise the faulty rung and are
    # excluded).  The no-breaker baseline hits the fault on every
    # dispatch, so its unaffected set falls back to the whole phase.
    all_lat = [lat for lat, _ in storm_lat]
    clean_lat = [lat for lat, faulted in storm_lat if not faulted] \
        or all_lat

    snap = svc.stats.snapshot()
    res = {
        "breaker": with_breaker,
        "opened": opened,
        "final_state": snap["breaker_state"],
        "wrong_answers": wrong,
        "failed": snap["failed"],
        "corruptions_detected": snap["corruptions_detected"],
        "kernel_reexecs": snap["kernel_reexecs"],
        "degraded_dispatches": snap["degraded_dispatches"],
        "compiled_resumed": snap["compiled_dispatches"] - compiled_before,
        "probes": breaker.probes,
        "warm_p99": float(np.percentile(warm_lat, 99)),
        "storm_p50": float(np.percentile(all_lat, 50)),
        "storm_p99_all": float(np.percentile(all_lat, 99)),
        "storm_p99": float(np.percentile(clean_lat, 99)),
        "unaffected_dispatches": len(clean_lat)
        if clean_lat is not all_lat else 0,
        "recover_p99": float(np.percentile(recover_lat, 99)),
        "host_seconds": host,
    }
    svc.close()
    assert dev.allocated_bytes == 0, "service leaked device memory"
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small workload (CI)")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    warm, storm, recover = (4, 16, 24) if args.smoke else (4, 40, 48)

    rng = np.random.default_rng(0)
    a = rng.standard_normal((ORDER, ORDER)) + ORDER * np.eye(ORDER)
    ref_lu = reference_lu(a)

    base = run_service(a, ref_lu, with_breaker=False, warm=warm,
                       storm=storm, recover=recover, seed=args.seed)
    brk = run_service(a, ref_lu, with_breaker=True, warm=warm,
                      storm=storm, recover=recover, seed=args.seed)

    failures = []
    if not brk["opened"]:
        failures.append("breaker never opened during the storm")
    if base["opened"]:
        failures.append("no-breaker baseline opened (must stay closed)")
    for tag, res in (("no-breaker", base), ("breaker", brk)):
        if res["wrong_answers"]:
            failures.append(f"{tag}: {res['wrong_answers']} requests "
                            "returned wrong factors")
        if res["failed"]:
            failures.append(f"{tag}: {res['failed']} requests failed")
    if not brk["storm_p99"] < base["storm_p99"]:
        failures.append(
            f"storm p99 with breaker ({brk['storm_p99']:.3e}s) not "
            f"better than without ({base['storm_p99']:.3e}s)")
    if brk["final_state"] != "closed":
        failures.append("breaker did not re-close after the faults "
                        f"cleared (state: {brk['final_state']})")
    if brk["compiled_resumed"] <= 0:
        failures.append("compiled fast path did not resume after the "
                        "breaker closed")

    gain = base["storm_p99"] / brk["storm_p99"] \
        if brk["storm_p99"] else float("inf")
    lines = [
        "bench_sdc: circuit breaker vs no-breaker under a persistent "
        "corruption storm",
        f"traffic: {warm} warm + {storm} storm + {recover} recovery "
        f"factor({ORDER}) requests, compiled hot path, seed {args.seed}",
        "",
        f"{'mode':<12} {'storm p50':>11} {'p99 clean':>11} "
        f"{'p99 all':>11} {'corruptions':>12} {'reexecs':>8} "
        f"{'degraded':>9} {'wrong':>6} {'failed':>7}",
    ]
    for tag, res in (("no-breaker", base), ("breaker", brk)):
        lines.append(
            f"{tag:<12} {res['storm_p50']:>11.3e} "
            f"{res['storm_p99']:>11.3e} "
            f"{res['storm_p99_all']:>11.3e} "
            f"{res['corruptions_detected']:>12d} "
            f"{res['kernel_reexecs']:>8d} "
            f"{res['degraded_dispatches']:>9d} "
            f"{res['wrong_answers']:>6d} {res['failed']:>7d}")
    lines += [
        "",
        "('p99 clean' is the tail of storm dispatches that saw no fault "
        "evidence — the unaffected traffic the breaker protects; "
        "half-open probes are excluded)",
        f"unaffected storm p99 improvement with breaker: {gain:.2f}x",
        f"breaker: opened={brk['opened']} "
        f"final_state={brk['final_state']} probes={brk['probes']} "
        f"compiled_resumed={brk['compiled_resumed']}",
        "every completed request bitwise identical to the fault-free "
        "reference in both modes",
    ]
    if failures:
        lines += [""] + [f"FAIL: {f}" for f in failures]
    else:
        lines += ["", "all gates met: breaker opened, zero wrong/failed "
                       "requests, storm p99 improved, breaker re-closed "
                       "with compiled dispatch resuming"]
    text = "\n".join(lines)
    print(text)

    (ROOT / "results").mkdir(exist_ok=True)
    (ROOT / "results" / "bench_sdc.txt").write_text(text + "\n")
    (ROOT / "BENCH_sdc.json").write_text(json.dumps({
        "workload": {"order": ORDER, "warm": warm, "storm": storm,
                     "recover": recover, "seed": args.seed},
        "no_breaker": base,
        "breaker": brk,
        "storm_p99_gain": gain,
        "smoke": bool(args.smoke),
        "gates_met": not failures,
        "failures": failures,
    }, indent=2) + "\n")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
