"""Gates: coalesced serving, and autotuned serving under per-class SLOs.

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
(:data:`repro.workloads.traffic.STANDARD_MIXES`) in virtual time
against the default ``CoalescingPolicy()``, once static and once with
the :class:`~repro.serve.autotune.OnlineAutotuner` hot-swapping refined
policies.  Gates, per mix: the tuned run meets every per-class p99 SLO,
its results are bitwise identical to the static run's (tuning changes
launch shapes, never bits), and its simulated throughput is never lower
(strictly higher with ``REPRO_FULL=1``; the default workload is too
short for the tuner to converge).
"""

import time

import numpy as np

from repro.analysis.report import format_table
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.serve import AutotuneConfig, CoalescingPolicy, \
    OnlineAutotuner, SolverService
from repro.workloads.traffic import STANDARD_MIXES, run_mix

SPEEDUP = 2.0           # REPRO_FULL=1: coalesced over solo throughput
FAST_SPEEDUP = 1.5      # the default, smaller workload
SLO_SEED = 7


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


def _same_results(static, tuned):
    """Every request's result bitwise equal across the two replays (both
    submitted byte-identical payloads)."""
    return all((a is None) == (b is None)
               and (a is None or np.array_equal(a, b))
               for a, b in zip(static.results, tuned.results))


def test_gate_serve_slo(archive):
    fast = is_fast_mode()
    policy = CoalescingPolicy(max_queue=4096)
    cfg = AutotuneConfig(min_requests=12, min_dispatches=2)

    def tuner(svc, clock):
        return OnlineAutotuner(svc, clock=clock, config=cfg)

    rows, missed = [], {}
    for name, mix in STANDARD_MIXES.items():
        if fast:
            mix = type(mix)(**{**mix.__dict__,
                               "count": max(64, mix.count // 3)})
        static = run_mix(mix, policy=policy, seed=SLO_SEED)
        tuned = run_mix(mix, policy=policy, seed=SLO_SEED, autotuner=tuner,
                        tune_every=1e-2)
        beat = tuned.throughput >= static.throughput if fast \
            else tuned.throughput > static.throughput
        missed[name] = {k: v for k, v in tuned.per_class.items()
                        if not v["met"]}
        rows.append([name, f"{static.throughput:.1f}",
                     f"{tuned.throughput:.1f}",
                     f"{tuned.throughput / static.throughput:.3f}x",
                     "yes" if beat else "NO",
                     "yes" if _same_results(static, tuned) else "NO",
                     "met" if tuned.slo_met() else "MISS",
                     tuned.tuner["swaps"], tuned.tuner["rollbacks"]])
    archive("bench_serve_slo", format_table(
        ["mix", "static r/s", "tuned r/s", "gain", "beat", "parity", "slo",
         "swaps", "rollbacks"], rows,
        title="static CoalescingPolicy() vs online autotuner "
              f"(virtual-time replay, seed {SLO_SEED})"))

    assert all(r[5] == "yes" for r in rows)
    assert all(r[6] == "met" for r in rows), missed
    assert all(r[4] == "yes" for r in rows)
