"""Gate: FP32 factors + FP64 refinement vs native FP64.

``precision="fp32"`` halves every factor byte and doubles the modeled
arithmetic peak, and the half-sized factors double the effective
residency of a budgeted :class:`DeviceFactorCache`.  The solve phase
pays for the discount with FP64 iterative refinement against the
original matrix, so the question is end to end: does the refined mixed
path beat native FP64 *after* the refinement sweeps, at FP64 accuracy?
Measured in simulated device seconds:

* **warm sparse solves**: one factored system, repeated solves under a
  device budget of 0.6x the FP64 factor bytes.  The FP64 cache evicts
  and re-streams levels every solve; the FP32 cache (0.5x the bytes)
  stays resident.  Gate: >= 1.8x solves/sec.
* **served dense traffic**: recurring large-front ``factor_solve``
  rounds through :class:`SolverService` on its default bucketed path,
  ``precision="fp32"`` per request vs the FP64 default.  Halving the
  payload bytes and doubling the arithmetic peak show up directly as
  throughput.  Gate: >= 1.5x requests/sec.

Every solution from every mode must meet the FP64 backward-error target
``REFINE_TARGET``: the speedups only count because the answers are
full-precision.  A pathological case (a squared 1-D Laplacian,
condition number ~1e9) checks the safety net: the mixed solve must take
the logged FP64 fallback and return exactly the native FP64 answer.
The gates are the same at both scales.
"""

import numpy as np
import scipy.sparse as sp
from conftest import grid2d

from repro.analysis.errors import relative_residual
from repro.analysis.report import format_table
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.serve import CoalescingPolicy, SolverService
from repro.sparse import SparseLU
from repro.sparse.numeric.solve_plan import SolvePlan
from repro.sparse.solver import REFINE_TARGET

WARM_TARGET = 1.8       # warm budgeted solves/sec, fp32 over fp64
SERVE_TARGET = 1.5      # served requests/sec, fp32 over fp64
BUDGET_FRACTION = 0.6   # of the FP64 resident factor bytes
PRECISIONS = ("fp64", "fp32")


def _warm(nx, reps):
    a = grid2d(nx, nx)
    b = np.random.default_rng(7).standard_normal(a.shape[0])
    probe = SparseLU(a).factor()
    budget = int(BUDGET_FRACTION * SolvePlan(probe.factors).total_nbytes())
    out = {"n": a.shape[0], "budget": budget}
    for prec in PRECISIONS:
        dev = Device(A100())
        s = SparseLU(a).analyze()
        s.factor(backend="batched", device=dev, precision=prec)
        s.solve(b, device=dev, memory_budget=budget)    # cold: build cache
        sim0 = dev.synchronize()
        errs = []
        for _ in range(reps):
            x, _ = s.solve(b, device=dev, memory_budget=budget)
            errs.append(relative_residual(a, x, b))
        sim = dev.synchronize() - sim0
        cache = s.solve_cache
        out[prec] = {"sim_per_solve": sim / reps, "rate": reps / sim,
                     "max_err": max(errs),
                     "resident": cache.resident_nbytes if cache else 0}
    return out


def _serve(order, batch, rounds, warmup=3):
    """Recurring ``factor_solve`` rounds through the service; the
    warm-up rounds cover the plan-cache cold starts."""
    out = {}
    for prec in PRECISIONS:
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(
            max_batch=max(64, batch), max_queue=max(256, batch)),
            start=False)
        kw = {} if prec == "fp64" else {"precision": "fp32"}
        sims, errs = [], []
        for rnd in range(rounds):
            rng = np.random.default_rng(rnd % 3)
            mats = [rng.standard_normal((order, order))
                    + order * np.eye(order) for _ in range(batch)]
            rhss = [rng.standard_normal(order) for _ in range(batch)]
            futs = [svc.submit_factor_solve(a, b, **kw)
                    for a, b in zip(mats, rhss)]
            sim0 = dev.synchronize()
            svc.run_once()
            sims.append(dev.synchronize() - sim0)
            errs += [relative_residual(a, f.result(0)[0], b)
                     for a, b, f in zip(mats, rhss, futs)]
        snap = svc.stats.snapshot()
        svc.close()
        steady = float(np.mean(sims[warmup:]))
        out[prec] = {"sim_per_round": steady, "rate": batch / steady,
                     "max_err": max(errs),
                     "refine_passes": snap["refine_passes"],
                     "fallbacks": snap["precision_fallbacks"]}
    return out


def _fallback(n=120):
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                   format="csr")
    a = sp.csr_matrix(lap @ lap)          # kappa ~ 1e9: defeats FP32
    b = np.random.default_rng(3).standard_normal(n)
    x, info = SparseLU(a).factor(precision="fp32").solve(b)
    ref, _ = SparseLU(a).factor().solve(b)
    logged = info.recovery is not None and any(
        e.action == "precision-fallback" for e in info.recovery.events)
    return {"n": n, "gmres_cycles": info.gmres_cycles,
            "taken": bool(info.fallback), "logged": logged,
            "bitwise": np.array_equal(x, ref)}


def test_gate_precision(archive):
    fast = is_fast_mode()
    warm = _warm(*((20, 3) if fast else (24, 10)))
    order, batch, rounds = (768, 6, 5) if fast else (1024, 8, 6)
    serve = _serve(order, batch, rounds)
    fb = _fallback()
    warm_speedup = warm["fp32"]["rate"] / warm["fp64"]["rate"]
    serve_speedup = serve["fp32"]["rate"] / serve["fp64"]["rate"]

    warm_table = format_table(
        ["precision", "sim ms/solve", "solves/s", "resident B", "max err"],
        [[p, f"{warm[p]['sim_per_solve'] * 1e3:.3f}",
          f"{warm[p]['rate']:.1f}", warm[p]["resident"],
          f"{warm[p]['max_err']:.2e}"] for p in PRECISIONS],
        title=f"warm budgeted solves: n={warm['n']}, budget="
              f"{warm['budget']} B ({BUDGET_FRACTION:.0%} of FP64 factors)")
    serve_table = format_table(
        ["precision", "sim ms/round", "req/s", "refine passes", "fallbacks",
         "max err"],
        [[p, f"{serve[p]['sim_per_round'] * 1e3:.2f}",
          f"{serve[p]['rate']:.1f}", serve[p]["refine_passes"],
          serve[p]["fallbacks"], f"{serve[p]['max_err']:.2e}"]
         for p in PRECISIONS],
        title=f"served dense traffic: {batch} x order {order} factor_solve "
              f"per round, {rounds} rounds, bucketed path (steady state "
              "after 3 warm-up rounds)")
    archive("bench_precision", "\n".join([
        "mixed precision: FP32 factors + FP64 iterative refinement vs "
        "native FP64 (simulated device seconds; every solution checked "
        f"against the FP64 backward-error target {REFINE_TARGET:g})", "",
        warm_table, f"speedup {warm_speedup:.2f}x (gate >= {WARM_TARGET}x)",
        "", serve_table,
        f"speedup {serve_speedup:.2f}x (gate >= {SERVE_TARGET}x)", "",
        f"pathological fallback L^2 n={fb['n']}: gmres cycles "
        f"{fb['gmres_cycles']}, fallback={fb['taken']}, "
        f"logged={fb['logged']}, bitwise FP64 match={fb['bitwise']}"]))

    for res in (warm, serve):
        assert all(res[p]["max_err"] <= REFINE_TARGET for p in PRECISIONS)
    assert fb["taken"] and fb["logged"] and fb["bitwise"]
    assert warm_speedup >= WARM_TARGET
    assert serve_speedup >= SERVE_TARGET
