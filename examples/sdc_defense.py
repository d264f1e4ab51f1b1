"""The silent-data-corruption defense, end to end.

Walks the whole ladder on a simulated A100:

1. **ABFT repair** — a transient ``corrupt`` fault flips one output
   element of a batched LU launch; the checksum flags it, the launch
   re-executes, and the factors come out **bitwise identical** to a
   fault-free run.
2. **Typed detection** — a persistent corruption exhausts the bounded
   re-execution budget and raises
   :class:`~repro.errors.CorruptionDetected` naming the launch site and
   batch member; it is never returned as a wrong answer.
3. **Front quarantine** — the multifrontal driver isolates a
   persistently corrupt front (``report.info == -2``) and keeps the rest
   of the factorization; ``check_factors_ok`` refuses to solve through
   the quarantined front.
4. **Circuit breaker** — a :class:`~repro.serve.SolverService` under a
   sustained corruption storm: the breaker opens, dispatch degrades off
   the compiled fast path (every completed request still bitwise
   correct), and once the storm clears a half-open probe re-closes it
   and compiled dispatch resumes.

Run:  PYTHONPATH=src python examples/sdc_defense.py
"""

import numpy as np
import scipy.sparse as sp

from repro.batched import IrrBatch, irr_getrf
from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule
from repro.errors import CorruptionDetected
from repro.serve import CircuitBreaker, CoalescingPolicy, SolverService
from repro.sparse import (multifrontal_factor_gpu, nested_dissection,
                          symbolic_analysis)

rng = np.random.default_rng(0)


def grid2d(nx, ny):
    """Unsymmetric-valued 5-point grid operator."""
    g = np.random.default_rng(0)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            k = i * ny + j
            rows.append(k); cols.append(k); vals.append(4.0 + g.random())
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k)
                    cols.append(ii * ny + jj)
                    vals.append(-1.0 - 0.3 * g.random())
    n = nx * ny
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def spd_ish(n):
    a = rng.standard_normal((n, n))
    a[np.diag_indices(n)] += n
    return a


# ---------------------------------------------------------------- 1. repair
print("=== 1. ABFT repair of a transient corruption ===")
mats = [spd_ish(n) for n in (24, 40, 33)]

ref_dev = Device(A100())
ref = IrrBatch.from_host(ref_dev, [m.copy() for m in mats])
irr_getrf(ref_dev, ref)

dev = Device(A100())
batch = IrrBatch.from_host(dev, [m.copy() for m in mats])
plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm")], seed=7)
with dev.fault_scope(plan) as inj:
    irr_getrf(dev, batch)
bitwise = all(np.array_equal(batch.arrays[i].data, ref.arrays[i].data)
              for i in range(len(mats)))
print(f"  injected: {[(f.kind, f.site) for f in inj.injected]}")
print(f"  kernel re-executions: {dev.recovery_log.count('kernel-reexec')}")
print(f"  factors bitwise identical to fault-free run: {bitwise}")
assert bitwise

# --------------------------------------------------------------- 2. typed
print("\n=== 2. persistent corruption is a typed failure ===")
dev = Device(A100())
batch = IrrBatch.from_host(dev, [m.copy() for m in mats])
storm = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                             match="irrgemm")], seed=7)
try:
    with dev.fault_scope(storm):
        irr_getrf(dev, batch)
except CorruptionDetected as exc:
    print(f"  CorruptionDetected: site={exc.site!r} "
          f"batch_index={exc.batch_index}")

# ----------------------------------------------------------- 3. quarantine
print("\n=== 3. multifrontal front quarantine ===")
a = grid2d(12, 12)
nd = nested_dissection(a, leaf_size=8)
ap = a[nd.perm][:, nd.perm].tocsr()
symb = symbolic_analysis(ap, nd)
dev = Device(A100())
plan = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                            match="irrgemm:schur")], seed=3)
with dev.fault_scope(plan):
    res = multifrontal_factor_gpu(dev, ap, symb, breakdown="report",
                                  host_fallback=False)
bad = res.report.corrupted_fronts()
print(f"  quarantined fronts: {bad.tolist()} "
      f"(of {len(res.report.info)})")
print(f"  report: {res.report.summary()}")

# -------------------------------------------------------------- 4. breaker
print("\n=== 4. circuit breaker under a corruption storm ===")
a = rng.standard_normal((48, 48)) + 48 * np.eye(48)
dev = Device(A100())
breaker = CircuitBreaker()
svc = SolverService(dev, policy=CoalescingPolicy(
    max_batch=4, compile_hot=True, hot_threshold=2), start=False,
    breaker=breaker)
ref_handle = svc.factor(a)


def round_trip():
    fut = svc.submit_factor(a)
    svc.run_once()
    return fut.result(0)


round_trip()          # warm the compiled fast path
storm = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                             match="fused[")], seed=5)
with dev.fault_scope(storm):
    for _ in range(10):
        h = round_trip()
        assert np.array_equal(h.lu, ref_handle.lu)
snap = svc.stats.snapshot()
print(f"  during storm : breaker={snap['breaker_state']!r} "
      f"corruptions={snap['corruptions_detected']} "
      f"reexecs={snap['kernel_reexecs']} "
      f"degraded_dispatches={snap['degraded_dispatches']} "
      f"failed={snap['failed']}")
print(f"  degraded_reason: {snap['degraded_reason']}")

before = snap["compiled_dispatches"]
for _ in range(20):   # storm over: probes close the breaker
    h = round_trip()
    assert np.array_equal(h.lu, ref_handle.lu)
snap = svc.stats.snapshot()
print(f"  after storm  : breaker={snap['breaker_state']!r} "
      f"probes={breaker.probes} "
      f"compiled dispatches resumed="
      f"{snap['compiled_dispatches'] > before}")
svc.close()
print("\nEvery request completed bitwise-correct throughout.")
