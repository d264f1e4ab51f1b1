"""Compiled workload programs vs per-call bucketed dispatch.

A ``WorkloadProgram`` pays the planning cost — DCWI inference, bucket
layout, permutation rehearsal, packed buffer allocation — once at
compile time; ``run()`` only copies payload bytes into a persistent
arena (one packed H2D transfer, one packed D2H) and replays the frozen
schedule.  This harness measures what that buys on two repeated
workloads:

* **fig10 replay** — the paper's mixed getrf batch (sizes ~ U[1, mx])
  factored ``reps`` times with fresh values.  The bucketed engine
  re-plans, re-allocates and moves every matrix in its own transfer
  each iteration; the program replays against its arena.  Metric:
  amortized *simulated* seconds per iteration (what the device-timing
  model charges for transfers + kernels).  Host wall-clock is reported
  for reference — the elimination numerics are bitwise identical on
  both sides, so host time mostly ties.  Acceptance gate: **>= 2x**.
* **serve replay** — recurring mixed factor/factor_solve rounds through
  :class:`SolverService`, ``compile_hot`` on vs off.  Hot-signature
  groups dispatch through fused compiled programs with arena-packed
  transfers.  Metric: requests per simulated second.  Acceptance gate:
  **>= 1.5x**.

Both comparisons verify the bitwise-parity contract before timing
counts.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled.py            # full
    PYTHONPATH=src python benchmarks/bench_compiled.py --smoke    # CI

Writes ``BENCH_compiled.json`` (repo root) and
``results/bench_compiled.txt``.  Exits non-zero on parity failure or a
missed gate.
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

from repro.batched import BatchEngine, IrrBatch, irr_getrf  # noqa: E402
from repro.batched.program import compile_workload  # noqa: E402
from repro.device import A100, Device  # noqa: E402
from repro.serve import CoalescingPolicy, SolverService  # noqa: E402
from repro.workloads import random_square_batch  # noqa: E402

REPLAY_GATE = 2.0       # amortized simulated speedup, compiled vs bucketed
SERVE_GATE = 1.5        # simulated serve throughput, compile_hot on/off
SMOKE_REPLAY_GATE = 1.5
SMOKE_SERVE_GATE = 1.1


def fresh_values(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


# ----------------------------------------------------------------------
# part 1: repeated Fig 10 getrf — bucketed re-dispatch vs program replay
# ----------------------------------------------------------------------

def bucketed_iteration(dev, engine, mats):
    batch = IrrBatch.from_host(dev, [a.copy() for a in mats])
    piv = irr_getrf(dev, batch, engine=engine)
    out = batch.to_host()
    ipiv = [p.copy() for p in piv.ipiv]
    batch.free()
    return out, ipiv


def run_fig10(bs, mx, reps):
    shapes = [a.shape for a in random_square_batch(bs, mx)]
    payloads = [fresh_values(shapes, it) for it in range(reps)]

    dev_b = Device(A100())
    engine = BatchEngine("bucketed")
    # warm the plan cache so the bucketed side is at ITS steady state
    bucketed_iteration(dev_b, engine, fresh_values(shapes, seed=999))
    sim0 = dev_b.synchronize()
    t0 = time.perf_counter()
    ref = None
    for mats in payloads:
        ref = bucketed_iteration(dev_b, engine, mats)
    bucketed_host = (time.perf_counter() - t0) / reps
    bucketed_sim = (dev_b.synchronize() - sim0) / reps

    dev_c = Device(A100())
    t0 = time.perf_counter()
    prog = compile_workload(dev_c, "getrf", shapes)
    compile_s = time.perf_counter() - t0
    prog.run(a=fresh_values(shapes, seed=999))      # first run: warm
    sim0 = dev_c.synchronize()
    t0 = time.perf_counter()
    res = None
    for mats in payloads:
        res = prog.run(a=mats)
    compiled_host = (time.perf_counter() - t0) / reps
    compiled_sim = (dev_c.synchronize() - sim0) / reps

    # parity on the last iteration (identical payload values)
    for a, b in zip(ref[0], res.factors):
        if not np.array_equal(a, b):
            raise SystemExit("PARITY FAILURE: fig10 factors differ")
    for a, b in zip(ref[1], res.ipiv):
        if not np.array_equal(a, b):
            raise SystemExit("PARITY FAILURE: fig10 pivots differ")

    prog.free()
    return {"batch_size": bs, "max_size": mx, "reps": reps,
            "bucketed_sim_s_per_iter": bucketed_sim,
            "compiled_sim_s_per_iter": compiled_sim,
            "bucketed_host_s_per_iter": bucketed_host,
            "compiled_host_s_per_iter": compiled_host,
            "compile_s": compile_s,
            "n_launches": prog.n_launches, "n_fused": prog.n_fused,
            "speedup": bucketed_sim / compiled_sim,
            "host_speedup": bucketed_host / compiled_host}


# ----------------------------------------------------------------------
# part 2: recurring serve traffic — compile_hot on vs off
# ----------------------------------------------------------------------

# four sizes on both sides of TRSM_BASE_NB (8 and 16 run the base
# kernel, 40 and 64 recurse), all in one solve group: the bucketed path
# moves factors and right-hand sides in separate transfers, the compiled
# program packs everything into one arena transfer each way
SERVE_SIZES = [8, 8, 8, 8, 16, 16, 16, 16, 40, 40, 40, 40, 64, 64, 64, 64]


def serve_round(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
            for m in SERVE_SIZES]
    rhss = [rng.standard_normal((m, 2)) for m in SERVE_SIZES]
    return mats, rhss


def run_serve_mode(rounds, compile_hot):
    dev = Device(A100())
    policy = CoalescingPolicy(max_wait=0.0,
                              max_queue=max(256, len(SERVE_SIZES)),
                              compile_hot=compile_hot, hot_threshold=2)
    svc = SolverService(dev, policy=policy, start=False)
    results = []
    host0 = time.perf_counter()
    for rnd in range(rounds):
        mats, rhss = serve_round(rnd % 5)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        svc.run_once()
        results.extend(f.result(0) for f in futs)
    sim = dev.synchronize()
    host = time.perf_counter() - host0
    snap = svc.stats.snapshot()
    launches = dev.profiler.launch_count
    svc.close()
    return results, sim, host, snap, launches


def run_serve(rounds):
    n = rounds * len(SERVE_SIZES)
    base, sim_b, host_b, snap_b, launches_b = run_serve_mode(rounds, False)
    comp, sim_c, host_c, snap_c, launches_c = run_serve_mode(rounds, True)

    for i, ((x_b, h_b), (x_c, h_c)) in enumerate(zip(base, comp)):
        if not (np.array_equal(x_b, x_c)
                and np.array_equal(h_b.lu, h_c.lu)
                and np.array_equal(h_b.ipiv, h_c.ipiv)):
            raise SystemExit(f"PARITY FAILURE: serve request {i} differs "
                             "between compiled and bucketed dispatch")
    if launches_c >= launches_b:
        raise SystemExit("FUSION FAILURE: compiled serve did not reduce "
                         f"launches ({launches_c} vs {launches_b})")

    return {"rounds": rounds, "requests": n,
            "bucketed": {"sim_seconds": sim_b, "throughput": n / sim_b,
                         "launches": launches_b,
                         "host_seconds": host_b},
            "compiled": {"sim_seconds": sim_c, "throughput": n / sim_c,
                         "launches": launches_c,
                         "host_seconds": host_c,
                         "programs_compiled": snap_c["programs_compiled"],
                         "compiled_dispatches":
                             snap_c["compiled_dispatches"]},
            "speedup": (n / sim_c) / (n / sim_b)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small workload + relaxed gates (CI)")
    args = ap.parse_args()

    if args.smoke:
        bs, mx, reps, rounds = 60, 48, 3, 6
        replay_gate, serve_gate = SMOKE_REPLAY_GATE, SMOKE_SERVE_GATE
    else:
        bs, mx, reps, rounds = 500, 128, 5, 30
        replay_gate, serve_gate = REPLAY_GATE, SERVE_GATE

    fig10 = run_fig10(bs, mx, reps)
    serve = run_serve(rounds)

    lines = [
        "bench_compiled: workload-program replay vs per-call dispatch",
        "",
        f"fig10 getrf replay: batch {bs}, sizes ~ U[1, {mx}], "
        f"{reps} iterations",
        f"  bucketed  {fig10['bucketed_sim_s_per_iter'] * 1e6:9.1f} "
        "us/iter simulated (steady state, plans cached)",
        f"  compiled  {fig10['compiled_sim_s_per_iter'] * 1e6:9.1f} "
        f"us/iter simulated ({fig10['n_launches']} launches, "
        f"{fig10['n_fused']} fused, "
        f"one-time compile {fig10['compile_s'] * 1e3:.1f} ms)",
        f"  amortized simulated speedup: {fig10['speedup']:.2f}x "
        f"(gate >= {replay_gate:.1f}x)",
        f"  host wall-clock (identical numerics on both sides): "
        f"{fig10['bucketed_host_s_per_iter'] * 1e3:.2f} vs "
        f"{fig10['compiled_host_s_per_iter'] * 1e3:.2f} ms/iter "
        f"({fig10['host_speedup']:.2f}x)",
        "",
        f"serve replay: {serve['rounds']} rounds x {len(SERVE_SIZES)} "
        f"requests, hot-signature compilation",
        f"  bucketed  {serve['bucketed']['throughput']:9.1f} req/sim s "
        f"({serve['bucketed']['launches']} launches)",
        f"  compiled  {serve['compiled']['throughput']:9.1f} req/sim s "
        f"({serve['compiled']['launches']} launches, "
        f"{serve['compiled']['programs_compiled']} programs, "
        f"{serve['compiled']['compiled_dispatches']} compiled dispatches)",
        f"  simulated throughput speedup: {serve['speedup']:.2f}x "
        f"(gate >= {serve_gate:.1f}x)",
        "",
        "parity: bitwise identical in both comparisons",
    ]
    text = "\n".join(lines)
    print(text)

    (ROOT / "results").mkdir(exist_ok=True)
    (ROOT / "results" / "bench_compiled.txt").write_text(text + "\n")
    (ROOT / "BENCH_compiled.json").write_text(json.dumps({
        "fig10": fig10,
        "serve": serve,
        "gates": {"replay": replay_gate, "serve": serve_gate},
        "parity": "bitwise",
        "smoke": bool(args.smoke),
    }, indent=2) + "\n")

    ok = True
    if fig10["speedup"] < replay_gate:
        print(f"FAIL: fig10 replay speedup {fig10['speedup']:.2f}x below "
              f"gate {replay_gate:.1f}x", file=sys.stderr)
        ok = False
    if serve["speedup"] < serve_gate:
        print(f"FAIL: serve speedup {serve['speedup']:.2f}x below gate "
              f"{serve_gate:.1f}x", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
