"""Analyze the front-size distribution of a sparse matrix (Fig 13 style).

Shows how the assembly tree of a multifrontal factorization produces the
irregular batched workloads irrLU-GPU is designed for: thousands of small
fronts at the leaves shrinking to a single large front at the root.

Run:  python examples/front_distribution.py
"""

import numpy as np
import scipy.sparse as sp

from repro.analysis import format_table
from repro.sparse import nested_dissection, symbolic_analysis


def laplacian_3d(n: int) -> sp.csr_matrix:
    """7-point Laplacian on an n^3 grid — a typical PDE sparsity."""
    one = sp.eye(n)
    d1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(sp.kron(d1, one), one) +
            sp.kron(sp.kron(one, d1), one) +
            sp.kron(sp.kron(one, one), d1)).tocsr()


a = laplacian_3d(12)
print(f"matrix: {a.shape[0]} unknowns, {a.nnz} nonzeros (12^3 grid)\n")

nd = nested_dissection(a, leaf_size=16)
ap = a[nd.perm][:, nd.perm].tocsr()
symb = symbolic_analysis(ap, nd)

rows = []
for s in reversed(symb.level_statistics()):
    rows.append([s["level"], s["batch_size"], s["min_size"],
                 round(s["mean_size"], 1), s["max_size"]])
print(format_table(
    ["level", "batch size", "min front", "mean front", "max front"],
    rows, title="front distribution per assembly-tree level (root = 0)"))

print(f"\nfactor nonzeros: {symb.factor_nonzeros():,} "
      f"(vs {a.nnz:,} in A)")
print(f"factor flops:    {symb.factor_flops():.3e}")

# The irregularity irrLU-GPU must handle: sizes within one batch.
widest = max(symb.levels(), key=len)
sizes = np.array([symb.fronts[f].order for f in widest])
print(f"\nwidest level: batch of {len(sizes)} fronts, sizes "
      f"{sizes.min()}..{sizes.max()} "
      f"(mean {sizes.mean():.1f}) — no uniform-batch interface fits this.")
