"""A four-GPU node end to end: sharded factorization, solve, serving.

The paper's distributed design (§III-A) assigns assembly-tree subtrees
to ranks with their own GPUs and handles the top ``log P`` levels with
ScaLAPACK or SLATE.  This walks the single-node, multi-GPU realisation:

1. build a :class:`~repro.device.node.Node` — four simulated A100s
   joined by NVLink-class peer-to-peer links;
2. factor a 3-D problem **sharded** across the node
   (``SparseLU.factor(backend="sharded")``) and check the factors
   against the single-device run (bitwise on grid Laplacians like this
   one); every level stays on the devices and merges into the solve
   store on ``node[0]``, so the other devices end holding nothing;
3. solve against the sharded factors on ``node[0]`` — the first solve
   uploads no factors;
4. serve a mixed workload through a
   :class:`~repro.serve.service.SolverService` built on the node and
   watch the per-device counters and the throughput scaling.

Run:  python examples/multi_device.py
"""

import numpy as np
import scipy.sparse as sp

from repro.device import A100, Device, Node
from repro.serve import CoalescingPolicy, SolverService
from repro.sparse import SparseLU


def laplacian_3d(n):
    one = sp.eye(n)
    d1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.kron(d1, one), one) + sp.kron(sp.kron(one, d1), one) +
         sp.kron(sp.kron(one, one), d1)).tocsr()
    return a + 0.1 * sp.eye(n ** 3)


rng = np.random.default_rng(0)

# --- 1. the node ----------------------------------------------------------
node = Node(A100(), 4)
print(f"node: {len(node)} x {node.spec.name}, "
      f"p2p {node.p2p_link.bandwidth / 1e9:.0f} GB/s\n")

# --- 2. sharded factorization --------------------------------------------
a = laplacian_3d(9)
lu = SparseLU(a).factor(backend="sharded", device=node)
res = lu.factor_result
ref = SparseLU(a).factor(backend="batched", device=Device(A100()))
same = all(np.array_equal(x.f11, y.f11) and np.array_equal(x.ipiv, y.ipiv)
           for x, y in zip(lu.factors.fronts, ref.factors.fronts))
print(f"sharded factor: {a.shape[0]} unknowns, "
      f"imbalance {res.assignment.imbalance:.2f}")
print(f"  makespan {res.elapsed * 1e3:.2f} ms  "
      f"(per device {[f'{s * 1e3:.2f}' for s in res.per_device_seconds]} ms,"
      f" top {res.top_seconds * 1e3:.2f} ms)")
print(f"  {res.link_bytes / 1e3:.1f} kB over the links; "
      f"bitwise identical to single device: {same}")
store = lu.solve_cache
print(f"  levels resident on node[0]: {len(store.resident_levels)} of "
      f"{len(store.layout.levels)} ({node[0].allocated_bytes / 1e6:.2f} MB); "
      f"bytes on node[1:]: {[d.allocated_bytes for d in list(node)[1:]]}\n")

# --- 3. solve against the sharded factors ---------------------------------
b = rng.standard_normal(a.shape[0])
x, info = lu.solve(b, device=node[0])
print(f"solve on node[0]: backward error {info.final_residual:.2e}, "
      f"factor uploads {store.uploads}\n")

# --- 4. serving on the node ----------------------------------------------
work = []
for _ in range(128):
    n = int(rng.integers(16, 64))
    m = rng.standard_normal((n, n)) + n * np.eye(n)
    work.append((m, rng.standard_normal(n)))

print("serving on a node, 128 mixed factor_solve requests:")
base = None
for n_dev in (1, 2, 4):
    serve_node = Node(A100(), n_dev)
    svc = SolverService(serve_node, policy=CoalescingPolicy(max_batch=8),
                        start=False)
    futs = [svc.submit_factor_solve(m, rhs) for m, rhs in work]
    while any(not f.done() for f in futs):
        svc.run_once()
    xs = [f.result()[0] for f in futs]
    thr = len(work) / serve_node.synchronize()
    base = base or thr
    devs = svc.stats.snapshot()["devices"]
    spread = {i: d["dispatches"] for i, d in devs.items()}
    svc.close()
    print(f"  {n_dev} device(s): {thr:>9.0f} req/s "
          f"({thr / base:.2f}x), dispatches {spread}")
