"""Gate: the bucketed engine beats the naive per-matrix loop in host time.

The simulated-device numbers (Figs 6/7/10) are engine-invariant by
construction: the bucketed engine replays the exact same ``KernelCost``
sequence.  What the engine changes is *host* time, how long the launch
bodies take on the machine driving the simulator.  Measured on the two
workloads the engine was built for:

* **Fig 10**: batches of square matrices with sizes ~ U[1, max], swept
  over ``max``; the paper's synthetic irregular-LU workload.
* **Fig 13**: the per-level front batches of the Maxwell problem's
  assembly tree; deep levels are large batches of small,
  shape-clustered fronts, the case the bucketing exploits.

The engines run interleaved and each reports its minimum over the
rounds, which suppresses the machine's clock drift.  Every round checks
bitwise-identical factors, pivots and info, and identical simulated
launch records.  Gates: the bucketed engine is never slower than naive
on a Fig 10 case; with ``REPRO_FULL=1`` the 500-matrix batch with sizes
up to 128 must run at least 3x faster.
"""

import time

import numpy as np
from conftest import launch_records, min_of_reps

from repro.analysis.report import format_table
from repro.batched import IrrBatch, irr_getrf
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.workloads.fronts import build_maxwell_workload, \
    level_front_dims, synthetic_front_batch
from repro.workloads.random_batch import random_square_batch

HEADLINE = "fig10 batch=500 max=128"
HEADLINE_SPEEDUP = 3.0
MIN_FRONTS = 8      # Fig 13 levels with fewer fronts are not batch work


def _factor(mats, engine):
    work = [m.copy() for m in mats]
    dev = Device(A100())
    batch = IrrBatch.from_host(dev, work)
    t0 = time.perf_counter()
    piv = irr_getrf(dev, batch, engine=engine)
    dev.synchronize()
    return time.perf_counter() - t0, (work, piv, launch_records(dev))


def _cases(fast):
    """Yield (name, batch) lazily: the full sweep's batches are large."""
    batch, max_sizes, mesh_n = (150, [48], 6) if fast else \
        (500, [32, 64, 128, 256, 512], 12)
    for mx in max_sizes:
        yield (f"fig10 batch={batch} max={mx}",
               random_square_batch(batch, mx, seed=17))
    wl = build_maxwell_workload(mesh_n)
    for lvl, dims in enumerate(level_front_dims(wl.symb)):
        if len(dims) >= MIN_FRONTS:
            mean = np.mean([s + u for s, u in dims])
            yield (f"fig13 level={lvl} batch={len(dims)} "
                   f"mean_front={mean:.1f}",
                   synthetic_front_batch(dims, seed=23 + lvl))


def _agree(naive, bucketed):
    (fn, pn, rn), (fb, pb, rb) = naive, bucketed
    return all(map(np.array_equal, fn, fb)) \
        and all(map(np.array_equal, pn.ipiv, pb.ipiv)) \
        and np.array_equal(pn.info, pb.info) and rn == rb


def test_gate_wallclock(archive):
    fast = is_fast_mode()
    reps = 1 if fast else 3
    rows, speedup = [], {}
    for name, mats in _cases(fast):
        (tn, tb), _, parity = min_of_reps(
            reps, [lambda: _factor(mats, "naive"),
                   lambda: _factor(mats, "bucketed")], _agree)
        speedup[name] = round(tn / tb, 2)
        rows.append([name, f"{tn:.3f}", f"{tb:.3f}", f"{speedup[name]:.2f}",
                     "ok" if parity else "FAIL"])
    archive("bench_wallclock", format_table(
        ["case", "naive (s)", "bucketed (s)", "speedup", "parity"], rows,
        title="irr_getrf host time, naive loop vs bucketed engine (min over "
              "interleaved reps; parity = bitwise factors/pivots/info + "
              "identical simulated launch records)"))

    assert all(r[4] == "ok" for r in rows)
    assert min(v for k, v in speedup.items() if k.startswith("fig10")) >= 1.0
    if not fast:
        assert speedup[HEADLINE] >= HEADLINE_SPEEDUP
