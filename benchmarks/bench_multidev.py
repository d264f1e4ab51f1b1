"""Multi-device serving benchmark: one node, 1/2/4/8 pooled GPUs.

A :class:`~repro.serve.service.SolverService` built on a
:class:`~repro.device.node.Node` routes coalesced launch groups across
its member devices; each device advances its own simulated timeline, so
the node's makespan (the latest member clock once every device is idle)
shrinks as devices are added while the *results stay bitwise identical*
— placement changes where work runs, never what it computes.

Two phases:

* **scaling** — the paper-style mixed workload (independent
  ``factor_solve`` requests, local sizes ~ U[lo, hi]) served by the
  same service code at 1, 2, 4 and 8 devices.  Throughput is requests per
  simulated second of node makespan.  Gates: every device count
  returns bitwise-identical solutions to the 1-device run, and the
  4-device service delivers **>= 3x** the 1-device throughput.
* **budget** — sparse sessions opened under a node-wide
  ``sparse_memory_budget`` split evenly into per-device
  :class:`~repro.serve.session.MemoryArbiter` shares.  Gate: no
  device's resident factor bytes ever exceed its arbiter share.

Usage::

    PYTHONPATH=src python benchmarks/bench_multidev.py           # full run
    PYTHONPATH=src python benchmarks/bench_multidev.py --smoke   # CI smoke

Writes ``BENCH_multidev.json`` (repo root) and
``results/bench_multidev.txt``.  Exits non-zero if parity fails or any
gate is missed.
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

from repro.device import A100, Node  # noqa: E402
from repro.serve import CoalescingPolicy, SolverService  # noqa: E402

DEVICE_COUNTS = (1, 2, 4, 8)
SPEEDUP_GATE = 3.0          # 4-device throughput vs 1-device


def dense_workload(n_reqs, lo, hi, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_reqs):
        n = int(rng.integers(lo, hi))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        out.append((a, rng.standard_normal(n)))
    return out


def serve(node, work, *, max_batch=8, budget=None):
    svc = SolverService(node, policy=CoalescingPolicy(max_batch=max_batch),
                        sparse_memory_budget=budget, start=False)
    host_t0 = time.perf_counter()
    futs = [svc.submit_factor_solve(a, b) for a, b in work]
    while any(not f.done() for f in futs):
        svc.run_once()
    host_s = time.perf_counter() - host_t0
    xs = [f.result()[0] for f in futs]
    makespan = node.synchronize()
    snap = svc.stats.snapshot()
    svc.close()
    return xs, makespan, host_s, snap


def run_scaling(n_reqs, lo, hi, seed):
    work = dense_workload(n_reqs, lo, hi, seed)
    rows, ref_xs, base_thr = [], None, None
    for nd in DEVICE_COUNTS:
        node = Node(A100(), nd)
        xs, makespan, host_s, snap = serve(node, work)
        if ref_xs is None:
            ref_xs = xs
        elif not all(np.array_equal(a, b) for a, b in zip(ref_xs, xs)):
            raise AssertionError(
                f"parity failure: {nd}-device results differ from 1-device")
        thr = len(work) / makespan
        if base_thr is None:
            base_thr = thr
        devs = snap["devices"]
        rows.append({
            "devices": nd,
            "sim_seconds": makespan,
            "throughput": thr,
            "speedup": thr / base_thr,
            "host_seconds": host_s,
            "dispatches_per_device": {
                str(i): d["dispatches"] for i, d in devs.items()},
            "link_bytes": sum(d["link_bytes"] for d in devs.values()),
        })
    return rows


def run_budget(n_sessions, seed):
    sys.path.insert(0, str(ROOT / "tests" / "sparse"))
    from util import grid2d

    rng = np.random.default_rng(seed)
    budget = 64 << 20
    node = Node(A100(), 4)
    svc = SolverService(node, policy=CoalescingPolicy(max_batch=4),
                        sparse_memory_budget=budget, start=False)
    share = svc._slots[0].arbiter.share()
    sessions, peak, ok = [], 0, True
    for i in range(n_sessions):
        a = grid2d(10 + i % 5, 9, seed=i)
        fut = svc.submit_factor(a)
        while not fut.done():
            svc.run_once()
        s = fut.result()
        b = rng.standard_normal(a.shape[0])
        fut = svc.submit_solve(s, b)
        while not fut.done():
            svc.run_once()
        x, _ = fut.result()
        if not np.all(np.isfinite(x)):
            ok = False
        sessions.append(s)
        for idx, d in svc.stats.snapshot()["devices"].items():
            resident = d["resident_factor_bytes"]
            peak = max(peak, resident)
            if resident > svc._slots[idx].arbiter.share():
                ok = False
    for s in sessions:
        s.close()
    svc.close()
    return {"pool_budget": budget, "initial_share": share,
            "sessions": n_sessions, "peak_resident_bytes": peak,
            "respected": ok}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small workload for CI")
    ap.add_argument("--requests", type=int, default=None)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    n = args.requests or (64 if args.smoke else 256)
    lo, hi = 16, 64
    rows = run_scaling(n, lo, hi, args.seed)
    budget = run_budget(8 if args.smoke else 16, args.seed)

    speedup4 = next(r["speedup"] for r in rows if r["devices"] == 4)
    gate_ok = speedup4 >= SPEEDUP_GATE and budget["respected"]

    lines = [
        "Multi-device serving "
        f"({n} factor_solve requests, sizes U[{lo},{hi}))",
        f"{'devices':>8} {'sim s':>12} {'req/s':>12} {'speedup':>8}",
    ]
    for r in rows:
        lines.append(f"{r['devices']:>8} {r['sim_seconds']:>12.6f} "
                     f"{r['throughput']:>12.1f} {r['speedup']:>7.2f}x")
    lines += [
        "parity: bitwise identical at every device count",
        f"budget: peak resident {budget['peak_resident_bytes']} B of "
        f"{budget['initial_share']} B/device share -> "
        f"{'respected' if budget['respected'] else 'VIOLATED'}",
        f"gate: 4-device speedup {speedup4:.2f}x "
        f"(>= {SPEEDUP_GATE:.1f}x) -> {'PASS' if gate_ok else 'FAIL'}",
    ]
    text = "\n".join(lines)
    print(text)

    (ROOT / "results").mkdir(exist_ok=True)
    (ROOT / "results" / "bench_multidev.txt").write_text(text + "\n")
    bench_path = ROOT / "BENCH_multidev.json"
    merged = json.loads(bench_path.read_text()) \
        if bench_path.exists() else {}
    merged.update({
        "workload": {"requests": n, "size_lo": lo, "size_hi": hi,
                     "dtype": "float64"},
        "scaling": rows,
        "budget": budget,
        "speedup_at_4": speedup4,
        "gate": SPEEDUP_GATE,
        "parity": "bitwise",
        "smoke": bool(args.smoke),
    })
    bench_path.write_text(json.dumps(merged, indent=2) + "\n")

    if not gate_ok:
        print("FAIL: multi-device gates missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
