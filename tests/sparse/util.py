"""Shared sparse-test matrix generators."""

import numpy as np
import scipy.sparse as sp

from repro import fem


def grid2d(nx, ny, seed=0, diag=4.0):
    """Unsymmetric-valued 5-point grid operator (symmetric pattern)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []

    def idx(i, j):
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            k = idx(i, j)
            rows.append(k)
            cols.append(k)
            vals.append(diag + rng.random())
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k)
                    cols.append(idx(ii, jj))
                    vals.append(-1.0 - 0.3 * rng.random())
    n = nx * ny
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def grid3d(n, seed=0, diag=7.0):
    """7-point 3-D grid operator."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []

    def idx(i, j, k):
        return (i * n + j) * n + k

    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = idx(i, j, k)
                rows.append(r)
                cols.append(r)
                vals.append(diag + rng.random())
                for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                          (0, 0, 1), (0, 0, -1)):
                    ii, jj, kk = i + d[0], j + d[1], k + d[2]
                    if 0 <= ii < n and 0 <= jj < n and 0 <= kk < n:
                        rows.append(r)
                        cols.append(idx(ii, jj, kk))
                        vals.append(-1.0 - 0.2 * rng.random())
    m = n ** 3
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def random_sparse(n, density=0.05, seed=0):
    """Random sparse matrix with a guaranteed nonzero diagonal and a
    symmetric pattern (as the solver's symmetrized analysis assumes)."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal)
    a = a + a.T  # symmetric pattern (values stay unsymmetric enough)
    a = a + sp.diags(n * (1.0 + rng.random(n)))
    return sp.csr_matrix(a)


def maxwell(n):
    """The paper's Maxwell edge-element system on an n×n×n hex mesh."""
    return fem.MaxwellProblem.build(fem.HexMesh(n, n, n)).reduced_system()[0]
