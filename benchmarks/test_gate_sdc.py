"""Gate: the circuit breaker vs no breaker under a corruption storm.

A persistently corrupting device makes every dispatch pay the repair
bill: the compiled fast path detects the corruption through its program
checksum, re-runs the whole program (twice, the bounded ABFT budget),
raises a typed ``CorruptionDetected`` and falls back to the bucketed
ladder.  The request completes bitwise-correct, but its latency carries
two wasted program re-runs on every dispatch of the storm.

The circuit breaker bounds that second payment.  Fed per-dispatch
recovery-log deltas, it opens under the storm and skips the compiled
rung: storm dispatches go straight to the bucketed path (whose launches
are not ``fused[...]`` sites, so the pinned fault never fires), and a
half-open probe re-closes the breaker once the faults clear.

Identical three-phase traffic (warm / storm / recovery) goes through two
services: the default ``CircuitBreaker()``, and a baseline with
``CircuitBreaker(min_observations=10**9)`` that never gathers enough
evidence to open.  Gates:

1. the breaker opens during the storm and the baseline never does;
2. every request in both runs completes, bitwise identical to the
   fault-free reference, and device memory returns to zero;
3. the storm p99 latency of unaffected traffic (simulated seconds per
   dispatch) is strictly better with the breaker;
4. after the faults clear the breaker closes and compiled dispatch
   resumes.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule
from repro.experiments.common import is_fast_mode
from repro.serve import CircuitBreaker, CoalescingPolicy, SolverService

ORDER = 48          # one hot signature: every request compiles/coalesces
SEED = 5


def _reference_lu(a):
    svc = SolverService(Device(A100()), start=False)
    lu = svc.factor(a).lu.copy()
    svc.close()
    return lu


def _run(a, ref_lu, breaker, warm, storm, recover):
    """Three-phase single-request traffic; per-phase latencies in
    simulated seconds per dispatch, plus the service's counters."""
    dev = Device(A100())
    svc = SolverService(dev, policy=CoalescingPolicy(
        max_batch=4, compile_hot=True, hot_threshold=2),
        start=False, breaker=breaker)
    wrong = 0

    def round_trip():
        """One dispatch: (simulated latency, whether it saw a fault)."""
        nonlocal wrong
        t0 = dev.synchronize()
        evidence0 = svc.stats.corruptions_detected + svc.stats.kernel_reexecs
        fut = svc.submit_factor(a)
        svc.run_once()
        lat = dev.synchronize() - t0
        faulted = (svc.stats.corruptions_detected
                   + svc.stats.kernel_reexecs) > evidence0
        wrong += not np.array_equal(fut.result(0).lu, ref_lu)
        return lat, faulted

    for _ in range(warm):
        round_trip()
    plan = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                                match="fused[")], seed=SEED)
    opened = False
    storm_lat = []
    with dev.fault_scope(plan):
        for _ in range(storm):
            storm_lat.append(round_trip())
            opened = opened or breaker.state != "closed"
    compiled_before = svc.stats.snapshot()["compiled_dispatches"]
    for _ in range(recover):
        round_trip()

    # "unaffected traffic": storm dispatches that saw no fault evidence
    # (with the breaker open these run the clean bucketed path; the
    # half-open probes exercise the faulty rung and are excluded).  The
    # baseline hits the fault on every dispatch, so its unaffected set
    # falls back to the whole phase.
    all_lat = [lat for lat, _ in storm_lat]
    clean = [lat for lat, faulted in storm_lat if not faulted] or all_lat
    snap = svc.stats.snapshot()
    svc.close()
    return {"opened": opened, "final_state": snap["breaker_state"],
            "wrong": wrong, "failed": snap["failed"],
            "corruptions": snap["corruptions_detected"],
            "reexecs": snap["kernel_reexecs"],
            "degraded": snap["degraded_dispatches"],
            "resumed": snap["compiled_dispatches"] - compiled_before,
            "probes": breaker.probes,
            "p50": np.percentile(all_lat, 50),
            "p99_all": np.percentile(all_lat, 99),
            "p99": np.percentile(clean, 99), "leaked": dev.allocated_bytes}


def test_gate_sdc(archive):
    warm, storm, recover = (4, 16, 24) if is_fast_mode() else (4, 40, 48)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ORDER, ORDER)) + ORDER * np.eye(ORDER)
    ref_lu = _reference_lu(a)
    runs = {name: _run(a, ref_lu, breaker, warm, storm, recover)
            for name, breaker in (
                ("no-breaker", CircuitBreaker(min_observations=10 ** 9)),
                ("breaker", CircuitBreaker()))}
    base, brk = runs["no-breaker"], runs["breaker"]

    archive("bench_sdc", format_table(
        ["mode", "storm p50", "p99 clean", "p99 all", "corruptions",
         "reexecs", "degraded", "wrong", "failed"],
        [[name, f"{r['p50']:.3e}", f"{r['p99']:.3e}", f"{r['p99_all']:.3e}",
          r["corruptions"], r["reexecs"], r["degraded"], r["wrong"],
          r["failed"]] for name, r in runs.items()],
        title=f"circuit breaker vs no breaker under a persistent corruption "
              f"storm: {warm} warm + {storm} storm + {recover} recovery "
              f"factor({ORDER}) requests, compiled hot path, seed {SEED}") +
        "\n('p99 clean' is the tail of storm dispatches that saw no fault "
        "evidence, the unaffected traffic the breaker protects; half-open "
        "probes are excluded)\n"
        f"unaffected storm p99 improvement with breaker: "
        f"{base['p99'] / brk['p99']:.2f}x\n"
        f"breaker: opened={brk['opened']} final_state={brk['final_state']} "
        f"probes={brk['probes']} compiled_resumed={brk['resumed']}")

    assert brk["opened"] and not base["opened"]
    for r in runs.values():
        assert r["wrong"] == 0 and r["failed"] == 0 and r["leaked"] == 0
    assert brk["p99"] < base["p99"]
    assert brk["final_state"] == "closed"
    assert brk["resumed"] > 0
