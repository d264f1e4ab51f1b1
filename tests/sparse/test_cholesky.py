"""SPD systems on the LU path.

The SPD-only multifrontal Cholesky variant is retired: no workload,
figure or gate ran it, and :class:`~repro.sparse.SparseLU` solves the
same systems.  These cases keep SPD systems covered there, on the CPU
and batched backends: answers against scipy, backend agreement,
several right-hand sides, refinement, and the argument checks.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.device import A100, Device
from repro.errors import FactorizationError
from repro.sparse import SparseLU

from .util import grid2d, grid3d


def spd_grid(n2d=None, n3d=None, shift=3.0, seed=0):
    a0 = grid2d(*n2d, seed=seed) if n2d else grid3d(n3d, seed=seed)
    n = a0.shape[0]
    return sp.csr_matrix((a0 + a0.T) / 2 + shift * sp.eye(n))


class TestSparseCholesky:
    @pytest.mark.parametrize("backend", ["cpu", "batched"])
    def test_solve_matches_scipy(self, rng, backend):
        a = spd_grid(n2d=(11, 9))
        b = rng.standard_normal(a.shape[0])
        dev = None if backend == "cpu" else Device(A100())
        lu = SparseLU(a).analyze().factor(backend=backend, device=dev)
        x, info = lu.solve(b)
        assert info.final_residual < 1e-13
        np.testing.assert_allclose(x, spla.spsolve(a.tocsc(), b),
                                   rtol=1e-8)

    def test_cpu_gpu_factors_match(self, rng):
        a = spd_grid(n3d=5)
        lu1 = SparseLU(a).analyze().factor()
        lu2 = SparseLU(a).analyze().factor(backend="batched",
                                           device=Device(A100()))
        for f1, f2 in zip(lu1.factors.fronts, lu2.factors.fronts):
            np.testing.assert_array_equal(f1.ipiv, f2.ipiv)
            for blk in ("f11", "f12", "f21"):
                np.testing.assert_allclose(getattr(f1, blk),
                                           getattr(f2, blk),
                                           rtol=1e-12, atol=1e-13)

    def test_multiple_rhs(self, rng):
        a = spd_grid(n2d=(8, 8))
        B = rng.standard_normal((64, 3))
        X, _ = SparseLU(a).factor().solve(B)
        assert np.abs(a @ X - B).max() < 1e-12

    def test_not_spd_raises(self, rng):
        """Pivoting factors an indefinite symmetric system; one that is
        singular raises a typed error."""
        a0 = grid2d(6, 6)
        indefinite = sp.csr_matrix((a0 + a0.T) / 2 - 50 * sp.eye(36))
        b = rng.standard_normal(36)
        _, info = SparseLU(indefinite).analyze().factor().solve(b)
        assert info.final_residual < 1e-12
        singular = spd_grid(n2d=(6, 6)).tolil()
        singular[17, :] = 0.0
        singular[:, 17] = 0.0
        for backend, dev in (("cpu", None), ("batched", Device(A100()))):
            with pytest.raises(FactorizationError):
                SparseLU(sp.csr_matrix(singular)).analyze().factor(
                    backend=backend, device=dev)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseLU(sp.csr_matrix(np.ones((2, 3))))

    def test_unknown_backend(self, rng):
        lu = SparseLU(spd_grid(n2d=(4, 4)))
        with pytest.raises(ValueError, match="backend"):
            lu.factor(backend="cholesky")

    def test_solve_before_factor(self, rng):
        lu = SparseLU(spd_grid(n2d=(4, 4)))
        with pytest.raises(RuntimeError, match="factor"):
            lu.solve(np.zeros(16))

    def test_refinement_improves(self, rng):
        a = spd_grid(n2d=(10, 10), shift=0.5)
        b = rng.standard_normal(100)
        _, info = SparseLU(a).factor().solve(b, refine_steps=2)
        assert info.residuals[-1] <= info.residuals[0]
        assert info.residuals[-1] < 1e-13
