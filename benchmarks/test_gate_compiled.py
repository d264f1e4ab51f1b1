"""Gate: compiled workload programs vs per-call bucketed dispatch.

A ``WorkloadProgram`` pays the planning cost (DCWI inference, bucket
layout, permutation rehearsal, packed buffer allocation) once at compile
time; ``run()`` only copies payload bytes into a persistent arena (one
packed H2D transfer, one packed D2H) and replays the frozen schedule.
Measured in simulated device seconds on the paper's mixed getrf batch
(Fig 10, sizes ~ U[1, mx]) factored several times with fresh values.
The bucketed engine, its plan cache warm, re-allocates and moves every
matrix in its own transfer each iteration; the program replays against
its arena.  Host wall-clock is reported for reference: the elimination
numerics are bitwise identical on both sides, so host time mostly ties.

Gates: bitwise parity and an amortized replay speedup of at least 1.5x
(2x with ``REPRO_FULL=1``).
"""

import time

import numpy as np

from repro.analysis.report import format_table
from repro.batched import BatchEngine, IrrBatch, irr_getrf
from repro.batched.program import compile_workload
from repro.device import A100, Device
from repro.experiments.common import is_fast_mode
from repro.workloads import random_square_batch

REPLAY_GATE = 2.0              # REPRO_FULL=1
FAST_REPLAY_GATE = 1.5


def _fresh_values(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def _bucketed_iteration(dev, engine, mats):
    batch = IrrBatch.from_host(dev, [a.copy() for a in mats])
    piv = irr_getrf(dev, batch, engine=engine)
    out = batch.to_host()
    ipiv = [p.copy() for p in piv.ipiv]
    batch.free()
    return out, ipiv


def _timed_iterations(dev, iterate, payloads):
    """Mean simulated and host seconds per iteration over ``payloads``;
    returns them with the last iteration's result."""
    sim0 = dev.synchronize()
    t0 = time.perf_counter()
    for mats in payloads:
        res = iterate(mats)
    host = (time.perf_counter() - t0) / len(payloads)
    return (dev.synchronize() - sim0) / len(payloads), host, res


def _fig10_replay(bs, mx, reps):
    shapes = [a.shape for a in random_square_batch(bs, mx)]
    payloads = [_fresh_values(shapes, it) for it in range(reps)]
    warmup = _fresh_values(shapes, seed=999)

    dev_b = Device(A100())
    engine = BatchEngine("bucketed")
    # warm the plan cache so the bucketed side is at its steady state
    _bucketed_iteration(dev_b, engine, warmup)
    b_sim, b_host, (ref, ref_ipiv) = _timed_iterations(
        dev_b, lambda m: _bucketed_iteration(dev_b, engine, m), payloads)

    dev_c = Device(A100())
    t0 = time.perf_counter()
    prog = compile_workload(dev_c, "getrf", shapes)
    compile_s = time.perf_counter() - t0
    prog.run(a=warmup)
    c_sim, c_host, res = _timed_iterations(
        dev_c, lambda m: prog.run(a=m), payloads)
    prog.free()
    parity = all(map(np.array_equal, ref, res.factors)) \
        and all(map(np.array_equal, ref_ipiv, res.ipiv))
    return {"bucketed_sim": b_sim, "compiled_sim": c_sim,
            "bucketed_host": b_host, "compiled_host": c_host,
            "compile_s": compile_s, "n_launches": prog.n_launches,
            "n_fused": prog.n_fused, "parity": parity}


def test_gate_compiled(archive):
    fast = is_fast_mode()
    bs, mx, reps = (60, 48, 3) if fast else (500, 128, 5)
    replay_gate = FAST_REPLAY_GATE if fast else REPLAY_GATE

    fig10 = _fig10_replay(bs, mx, reps)
    replay_speedup = fig10["bucketed_sim"] / fig10["compiled_sim"]

    replay = format_table(
        ["path", "sim us/iter", "host ms/iter", "launches"],
        [["bucketed", f"{fig10['bucketed_sim'] * 1e6:.1f}",
          f"{fig10['bucketed_host'] * 1e3:.2f}", "per call"],
         ["compiled", f"{fig10['compiled_sim'] * 1e6:.1f}",
          f"{fig10['compiled_host'] * 1e3:.2f}",
          f"{fig10['n_launches']} ({fig10['n_fused']} fused)"]],
        title=f"fig10 getrf replay: batch {bs}, sizes ~ U[1, {mx}], {reps} "
              f"iterations (bucketed plans cached; one-time compile "
              f"{fig10['compile_s'] * 1e3:.1f} ms)")
    archive("bench_compiled", "\n".join([
        "workload-program replay vs per-call dispatch", "", replay,
        f"amortized simulated speedup: {replay_speedup:.2f}x "
        f"(gate >= {replay_gate:.1f}x); host "
        f"{fig10['bucketed_host'] / fig10['compiled_host']:.2f}x", "",
        f"parity: fig10 {'ok' if fig10['parity'] else 'FAIL'} (bitwise)"]))

    assert fig10["parity"]
    assert replay_speedup >= replay_gate
