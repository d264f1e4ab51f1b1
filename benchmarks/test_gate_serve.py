"""Gates: coalesced serving, and two fixed policies under per-class SLOs.

A solver service amortizes kernel launch overhead by coalescing the
compatible requests waiting in its admission queue into one irregular
batch (§III: the irregular kernels were built so that mixed-size work
shares one launch).  ``test_gate_serve`` pushes the paper's mixed
workload, independent ``factor_solve`` requests with sizes ~ U[4, 64],
through the same dispatch code twice, in simulated device seconds:

* **solo**: ``CoalescingPolicy(max_batch=1)``, one request per launch
  group (what a naive server pays);
* **coalesced**: ``CoalescingPolicy(max_batch=32)``.

Gates: bitwise-identical results, strictly fewer coalesced launches,
device memory back at zero, and coalesced throughput at least 1.5x solo
(2x with ``REPRO_FULL=1``).

``test_gate_serve_slo`` replays the standard traffic mixes
(:data:`repro.workloads.traffic.STANDARD_MIXES`) in virtual time under
two fixed policies that group very differently: the default
``CoalescingPolicy()`` (2 ms hold) and a 62.5 µs hold, which
dispatches three to six times as often.  Gates, per mix: every request's
result is bitwise identical across the two (a policy changes launch
shapes, never bits), and every class meets its p99 SLO under both.
Both simulated throughputs are archived.
"""

import time

import numpy as np

from repro.analysis.report import format_table
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.serve import CoalescingPolicy, SolverService
from repro.workloads.traffic import STANDARD_MIXES, run_mix

SPEEDUP = 2.0           # REPRO_FULL=1: coalesced over solo throughput
FAST_SPEEDUP = 1.5      # the default, smaller workload
SLO_SEED = 7
SHORT_WAIT = 62.5e-6    # test_gate_serve_slo's second policy's max_wait


def _workload(n_requests, lo, hi, seed=0):
    """Mixed diagonally-dominant systems, sizes ~ U[lo, hi]."""
    rng = np.random.default_rng(seed)
    mats, rhss = [], []
    for n in rng.integers(lo, hi + 1, size=n_requests):
        a = rng.standard_normal((int(n), int(n)))
        a += int(n) * np.eye(int(n))
        mats.append(a)
        rhss.append(rng.standard_normal(int(n)))
    return mats, rhss


def _serve(mats, rhss, max_batch):
    """The whole workload through one inline service."""
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
    return {"results": out, "sim": sim, "host": host, "snap": snap,
            "launches": launches, "leaked": dev.allocated_bytes}


def test_gate_serve(archive):
    fast = is_fast_mode()
    n, lo, hi = (60 if fast else 500), 4, 64
    gate = FAST_SPEEDUP if fast else SPEEDUP
    mats, rhss = _workload(n, lo, hi)
    solo = _serve(mats, rhss, 1)
    coal = _serve(mats, rhss, 32)
    parity = all(
        np.array_equal(xs, xc) and np.array_equal(hs.lu, hc.lu)
        and all(map(np.array_equal, hs.ipiv, hc.ipiv))
        for (xs, hs), (xc, hc) in zip(solo["results"], coal["results"]))
    speedup = (n / coal["sim"]) / (n / solo["sim"])
    rows = [[name, f"{r['sim']:.6f}", f"{n / r['sim']:.1f}", r["launches"],
             r["snap"]["dispatches"], f"{r['snap']['coalescing_ratio']:.2f}",
             f"{r['snap']['mean_occupancy']:.3f}", f"{r['host']:.3f}"]
            for name, r in (("solo", solo), ("coalesced", coal))]
    archive("bench_serve", format_table(
        ["mode", "sim s", "req/sim s", "launches", "dispatches", "coalesce",
         "occupancy", "host s"], rows,
        title=f"coalesced dispatch vs one-request-per-launch: {n} "
              f"factor_solve requests, sizes ~ U[{lo}, {hi}] float64") +
        f"\nparity: {'bitwise identical' if parity else 'FAILED'} across "
        f"{n} requests\nspeedup (simulated throughput): {speedup:.2f}x "
        f"(gate >= {gate:.1f}x)")

    assert solo["leaked"] == 0 and coal["leaked"] == 0
    assert parity
    assert coal["launches"] < solo["launches"]
    assert speedup >= gate


def _same_results(one, other):
    """Every request's result bitwise equal across the two replays (both
    submitted byte-identical payloads)."""
    return all((a is None) == (b is None)
               and (a is None or np.array_equal(a, b))
               for a, b in zip(one.results, other.results))


def test_gate_serve_slo(archive):
    fast = is_fast_mode()
    policies = (CoalescingPolicy(max_queue=4096),
                CoalescingPolicy(max_wait=SHORT_WAIT, max_queue=4096))

    rows, missed = [], {}
    for name, mix in STANDARD_MIXES.items():
        if fast:
            mix = type(mix)(**{**mix.__dict__,
                               "count": max(64, mix.count // 3)})
        runs = [run_mix(mix, policy=p, seed=SLO_SEED) for p in policies]
        missed[name] = [{k: v for k, v in r.per_class.items()
                         if not v["met"]} for r in runs]
        base, short = runs
        rows.append([name, f"{base.throughput:.1f}",
                     f"{short.throughput:.1f}",
                     f"{short.throughput / base.throughput:.3f}x",
                     base.dispatches, short.dispatches,
                     "yes" if _same_results(base, short) else "NO",
                     "met" if all(r.slo_met() for r in runs) else "MISS"])
    archive("bench_serve_slo", format_table(
        ["mix", "2 ms r/s", "62.5 us r/s", "ratio", "2 ms disp",
         "62.5 us disp", "parity", "slo"], rows,
        title="CoalescingPolicy(max_queue=4096): default max_wait 2 ms vs "
              f"62.5 us (virtual-time replay, seed {SLO_SEED})"))

    assert all(r[6] == "yes" for r in rows)
    assert all(r[7] == "met" for r in rows), missed
