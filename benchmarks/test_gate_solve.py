"""Gate: repeated solves through the factor cache beat the streamed path.

A production solver factors once and solves many times (§V-B amortizes
the factorization over repeated right-hand sides, Fig 12).  The
streamed path (``engine="naive"``) re-uploads every factor level,
applies pivots row by row and scatter-updates front by front on every
solve.  Measured in host wall-clock per solve on the Maxwell system's
assembly tree:

* **naive**: the streamed path, fresh each round;
* **cold**: the first plan-driven solve, including building the
  ``SolvePlan`` and uploading the ``DeviceFactorCache`` (the one-time
  cost a request server pays once);
* **warm**: repeated solves against the warm plan and cache.

Every round checks bitwise-identical solutions and identical simulated
launch records between the naive and plan-driven paths.  Gates: warm
solves never re-upload a factor level, warm is at least 1.2x faster
than naive on every case, and with ``REPRO_FULL=1`` repeated single-RHS
warm solves are at least 3x faster.
"""

import time

import numpy as np
from conftest import launch_records, min_of_reps

from repro.analysis.report import format_table
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.sparse.numeric.cpu_factor import multifrontal_factor_cpu
from repro.sparse.numeric.gpu_solve import multifrontal_solve_gpu
from repro.sparse.numeric.solve_plan import DeviceFactorCache, SolvePlan
from repro.workloads.fronts import build_maxwell_workload

MIN_SPEEDUP = 1.2       # every case, both scales
HEADLINE_NRHS = 1       # REPRO_FULL=1: warm >= 3x naive here
HEADLINE_SPEEDUP = 3.0
WARM_SOLVES = 3         # per round


def _naive(factors, b):
    dev = Device(A100())
    t0 = time.perf_counter()
    res = multifrontal_solve_gpu(dev, factors, b, engine="naive")
    dev.synchronize()
    return time.perf_counter() - t0, (res.x, launch_records(dev))


def _planned(factors, b):
    """A cold solve, then warm ones; the last warm solve's launch records
    and the warm solves' factor re-uploads come back with the answers."""
    dev = Device(A100())
    t0 = time.perf_counter()
    plan = SolvePlan(factors)
    cache = DeviceFactorCache(dev, factors, plan)
    cold = multifrontal_solve_gpu(dev, factors, b, plan=plan, cache=cache)
    dev.synchronize()
    t_cold = time.perf_counter() - t0
    uploads = cache.uploads
    t_warm = []
    for _ in range(WARM_SOLVES):
        n0 = len(dev.profiler.records)
        t0 = time.perf_counter()
        warm = multifrontal_solve_gpu(dev, factors, b, plan=plan,
                                      cache=cache)
        dev.synchronize()
        t_warm.append(time.perf_counter() - t0)
    reuploads = cache.uploads - uploads
    cache.free()
    return (t_cold, min(t_warm)), \
        (cold.x, warm.x, launch_records(dev)[n0:], reuploads)


def _agree(naive, planned):
    (xn, rn), (xc, xw, rw, _) = naive, planned
    return np.array_equal(xn, xw) and np.array_equal(xn, xc) and rn == rw


def test_gate_solve(archive):
    fast = is_fast_mode()
    reps = 1 if fast else 3
    mesh_n, nrhs_list = (6, [1, 8]) if fast else (12, [1, 8, 64])
    wl = build_maxwell_workload(mesh_n)
    factors = multifrontal_factor_cpu(wl.a_perm, wl.symb)
    n = wl.symb.n
    rng = np.random.default_rng(42)
    rows, speedup = [], {}
    for nrhs in nrhs_list:
        b = rng.standard_normal((n, nrhs)) if nrhs > 1 else \
            rng.standard_normal(n)
        (tn, (tc, tw)), (_, planned), parity = min_of_reps(
            reps, [lambda: _naive(factors, b),
                   lambda: _planned(factors, b)], _agree)
        speedup[nrhs] = round(tn / tw, 2)
        rows.append([n, nrhs, f"{tn * 1e3:.2f}", f"{tc * 1e3:.2f}",
                     f"{tw * 1e3:.2f}", f"{speedup[nrhs]:.2f}",
                     f"{1 / tw:.1f}", planned[3],
                     "ok" if parity else "FAIL"])
    archive("bench_solve", format_table(
        ["n", "nrhs", "naive (ms)", "cold (ms)", "warm (ms)", "speedup",
         "solves/s", "warm re-uploads", "parity"], rows,
        title="solve phase: host time per solve on the Maxwell assembly "
              "tree, streamed naive path vs SolvePlan + DeviceFactorCache "
              "(min over interleaved reps; parity = bitwise solutions + "
              "identical simulated launch records)"))

    assert all(r[8] == "ok" for r in rows)
    assert all(r[7] == 0 for r in rows)
    assert min(speedup.values()) >= MIN_SPEEDUP
    if not fast:
        assert speedup[HEADLINE_NRHS] >= HEADLINE_SPEEDUP
