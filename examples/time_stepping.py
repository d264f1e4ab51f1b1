"""Time stepping on the Maxwell mesh: re-factor one structure per step.

An implicit integrator for the second-order Maxwell wave equation
``M·E'' + K·E = f`` (curl-curl stiffness ``K``, Nédélec mass ``M``,
zero tangential trace on the boundary) solves one system per step,

    (c_k·M + K)·E_{k+1} = f + M·(c_k·E_k + d_k·(E_k − E_{k-1})),

where ``c_k`` and ``d_k`` come from the nonuniform second difference
over steps ``h_k``.  The step size adapts, so every step has new
matrix values on the same sparsity structure.  Each step calls
``update_values``, then ``factor``, then ``solve``.  The orderings,
symbolic analysis and solve layout are kept from the first step, and
the factors stay on the device from factor to solve.  Each step asserts
its backward error, zero factor uploads in the solve, five launches per
level per substitution pass (pivots, triangle and update forward;
update and triangle backward: every level's triangles take one irrTRSM
launch), and device memory back at the level the first factor left.
Each factor streams every level's F12 and F21 triangles in one irrTRSM
base launch per solve (no recursion GEMMs), and its left swaps and F21
solve share the device's one side stream: the device never holds more
than two streams.  The handle builds its DCWI plans once: from the
second step on, neither the factor nor the solve adds a plan-cache
miss, and the assembly replays the map built at the first factor.

Run:  python examples/time_stepping.py
"""

import numpy as np

from repro.device import A100, Device
from repro.fem import HexMesh, MaxwellProblem
from repro.sparse import SparseLU


def backward_error(a, x, b) -> float:
    """``‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)``."""
    anorm = float(abs(a).sum(axis=1).max())
    r = b - a @ x
    return float(np.abs(r).max()
                 / (anorm * np.abs(x).max() + np.abs(b).max()))


# --- the semi-discrete system on interior edges ---------------------------
prob = MaxwellProblem.build(HexMesh(6, 6, 6))
inner = prob.interior
K = prob.K[inner][:, inner].tocsr()
M = prob.M[inner][:, inner].tocsr()
f = prob.rhs_full[inner]
steps = 0.02 * (1.0 + 0.3 * np.sin(np.arange(7)))   # adaptive h_k
print(f"system: {K.shape[0]} interior edge dofs, {len(steps) - 1} steps "
      f"of size {steps.min():.4f} to {steps.max():.4f}\n")
e_prev = e = np.zeros(K.shape[0])
device = Device(A100())
solver = None
held = None

print(f"{'step':>4} {'h':>8} {'factor ms':>10} {'launches':>9} "
      f"{'solve ms':>9} {'launches':>9} {'backward err':>13} "
      f"{'device MB':>10}")
for k in range(1, len(steps)):
    h, h_prev = steps[k], steps[k - 1]
    s = 2.0 / (h + h_prev)
    c, d = s / h, s / h_prev
    a = (K + c * M).tocsr()
    b = f + M @ (c * e + d * (e - e_prev))

    first = len(device.profiler.records)
    if solver is None:
        # first step: orderings, symbolic analysis and the first factor
        solver = SparseLU(a)
        solver.factor(backend="batched", device=device)
        held = device.allocated_bytes
        caches = solver.factor_engine.cache, solver.solve_engine.cache
    else:
        built = caches[0].misses
        solver.update_values(a)
        solver.factor(backend="batched", device=device)
        assert device.allocated_bytes == held, "factor memory drifted"
        assert caches[0].misses == built, f"step {k}: the factor planned"
    factor_ms = solver.factor_result.elapsed * 1e3
    factored = [r.name for r in device.profiler.records[first:]]
    recursed = {"irrtrsm:f12:gemm", "irrtrsm:f21:gemm"} & set(factored)
    assert not recursed, f"step {k}: F12/F21 solves recursed: {recursed}"
    assert len(device._streams) <= 2, \
        f"step {k}: the device holds {len(device._streams)} streams"

    launched, built = device.profiler.launch_count, caches[1].misses
    with device.timed_region() as t:
        x, info = solver.solve(b, device=device)
    launched = device.profiler.launch_count - launched
    assert k == 1 or caches[1].misses == built, f"step {k}: the solve planned"
    eta = backward_error(a, x, b)
    assert eta < 1e-12, f"step {k}: backward error {eta:.2e}"
    assert solver.solve_cache.uploads == 0, "solve uploaded factors"
    assert device.allocated_bytes == held, "solve memory drifted"
    passes = len(info.residuals)     # the solve and its refinement steps
    assert launched == 5 * len(solver.solve_plan.levels) * passes, \
        f"step {k}: {launched} launches in {passes} substitution passes"
    assert len(device._streams) <= 2, \
        f"step {k}: the device holds {len(device._streams)} streams"
    print(f"{k:>4} {h:>8.4f} {factor_ms:>10.2f} {len(factored):>9d} "
          f"{t['elapsed'] * 1e3:>9.2f} {launched:>9d} {eta:>13.2e} "
          f"{held / 1e6:>10.2f}")
    e_prev, e = e, x

print(f"\n{len(steps) - 1} steps on one analysis: every re-factor kept the "
      f"factors on the device ({held / 1e6:.2f} MB) and no solve uploaded "
      f"them.")
