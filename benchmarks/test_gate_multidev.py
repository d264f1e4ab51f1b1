"""Gate: one serving node over 1, 2, 4 and 8 simulated GPUs.

A :class:`~repro.serve.service.SolverService` built on a
:class:`~repro.device.node.Node` routes coalesced launch groups across
its member devices.  Each device advances its own simulated timeline,
so the node's makespan shrinks as devices are added while the results
stay bitwise identical: placement changes where work runs, never what
it computes.

* **scaling**: independent ``factor_solve`` requests with sizes
  ~ U[16, 64) served by the same service code at each device count;
  throughput is requests per simulated second of node makespan.  Gates:
  every device count returns bitwise the 1-device solutions, and 4
  devices deliver at least 3x the 1-device throughput.
* **budget**: sparse sessions opened under a node-wide
  ``sparse_memory_budget`` split evenly into per-device
  :class:`~repro.serve.session.MemoryArbiter` shares.  Gate: no
  device's resident factor bytes ever exceed its share, and every
  solution is finite.

The gates are the same at both scales.
"""

import numpy as np
from conftest import grid2d

from repro.analysis.report import format_table
from repro.device import A100, Node
from repro.experiments.common import is_fast_mode
from repro.serve import CoalescingPolicy, SolverService

DEVICE_COUNTS = (1, 2, 4, 8)
SPEEDUP_GATE = 3.0          # 4-device throughput over 1-device
BUDGET = 64 << 20           # node-wide sparse memory budget
SEED = 7


def _drain(svc, fut):
    while not fut.done():
        svc.run_once()
    return fut.result()


def _scaling(n_reqs, lo, hi):
    """Per device count: (solutions, node makespan in simulated s)."""
    rng = np.random.default_rng(SEED)
    work = []
    for _ in range(n_reqs):
        n = int(rng.integers(lo, hi))
        work.append((rng.standard_normal((n, n)) + n * np.eye(n),
                     rng.standard_normal(n)))
    out = {}
    for nd in DEVICE_COUNTS:
        node = Node(A100(), nd)
        svc = SolverService(node, policy=CoalescingPolicy(max_batch=8),
                            start=False)
        futs = [svc.submit_factor_solve(a, b) for a, b in work]
        while any(not f.done() for f in futs):
            svc.run_once()
        xs = [f.result()[0] for f in futs]
        out[nd] = xs, node.synchronize()
        svc.close()
    return out


def _budget(n_sessions):
    """Peak resident factor bytes on any device, and whether every device
    stayed within its arbiter share with finite solutions throughout."""
    rng = np.random.default_rng(SEED)
    svc = SolverService(Node(A100(), 4),
                        policy=CoalescingPolicy(max_batch=4),
                        sparse_memory_budget=BUDGET, start=False)
    share = svc._slots[0].arbiter.share()
    sessions, peak, ok = [], 0, True
    for i in range(n_sessions):
        a = grid2d(10 + i % 5, 9, seed=i)
        s = _drain(svc, svc.submit_factor(a))
        x, _ = _drain(svc, svc.submit_solve(
            s, rng.standard_normal(a.shape[0])))
        ok = ok and bool(np.all(np.isfinite(x)))
        sessions.append(s)
        for idx, d in svc.stats.snapshot()["devices"].items():
            peak = max(peak, d["resident_factor_bytes"])
            ok = ok and d["resident_factor_bytes"] <= \
                svc._slots[idx].arbiter.share()
    for s in sessions:
        s.close()
    svc.close()
    return share, peak, ok


def test_gate_multidev(archive):
    fast = is_fast_mode()
    n, lo, hi = (64 if fast else 256), 16, 64
    scaling = _scaling(n, lo, hi)
    share, peak, respected = _budget(8 if fast else 16)
    ref_xs = scaling[1][0]
    parity = all(all(map(np.array_equal, ref_xs, xs))
                 for xs, _ in scaling.values())
    thr = {nd: n / makespan for nd, (_, makespan) in scaling.items()}
    speedup = {nd: t / thr[1] for nd, t in thr.items()}

    archive("bench_multidev", format_table(
        ["devices", "sim s", "req/s", "speedup"],
        [[nd, f"{makespan:.6f}", f"{thr[nd]:.1f}", f"{speedup[nd]:.2f}x"]
         for nd, (_, makespan) in scaling.items()],
        title=f"multi-device serving ({n} factor_solve requests, sizes "
              f"U[{lo},{hi}))") +
        f"\nparity: {'bitwise identical' if parity else 'FAILED'} at every "
        f"device count\nbudget: peak resident {peak} B of {share} B/device "
        f"share -> {'respected' if respected else 'VIOLATED'}\n"
        f"gate: 4-device speedup {speedup[4]:.2f}x (>= {SPEEDUP_GATE:.1f}x)")

    assert parity
    assert respected
    assert speedup[4] >= SPEEDUP_GATE
