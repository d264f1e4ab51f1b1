"""Tests for the SparseLU front-end and the baseline backends."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.device import A100, Device, Node
from repro.sparse import SparseLU

from .util import grid2d, grid3d, random_sparse


class TestPipeline:
    def test_cpu_backend_solves(self, rng):
        a = grid2d(12, 12)
        b = rng.standard_normal(144)
        s = SparseLU(a).analyze().factor()
        x, info = s.solve(b)
        assert info.final_residual < 1e-13
        np.testing.assert_allclose(x, spla.spsolve(a.tocsc(), b), rtol=1e-8)

    @pytest.mark.parametrize("backend", ["batched", "looped", "strumpack",
                                         "superlu"])
    def test_gpu_backends_solve(self, rng, backend):
        a = grid2d(10, 10)
        b = rng.standard_normal(100)
        s = SparseLU(a).analyze()
        s.factor(backend=backend, device=Device(A100()))
        x, info = s.solve(b)
        assert info.final_residual < 1e-13
        assert s.factor_result is not None
        assert s.factor_result.elapsed > 0

    def test_gpu_backend_requires_device(self, rng):
        s = SparseLU(grid2d(5, 5)).analyze()
        with pytest.raises(ValueError, match="needs a device"):
            s.factor(backend="batched")

    def test_unknown_backend(self):
        s = SparseLU(grid2d(5, 5)).analyze()
        with pytest.raises(ValueError, match="unknown backend"):
            s.factor(backend="quantum")

    def test_solve_before_factor_raises(self):
        s = SparseLU(grid2d(5, 5))
        with pytest.raises(RuntimeError, match="factor"):
            s.solve(np.zeros(25))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseLU(sp.csr_matrix(np.ones((3, 4))))

    def test_factor_auto_analyzes(self, rng):
        a = grid2d(6, 6)
        s = SparseLU(a).factor()
        x, info = s.solve(rng.standard_normal(36))
        assert info.final_residual < 1e-13


class TestArgumentChecks:
    """Bad devices and right-hand sides fail with one ValueError up
    front, before any device work."""

    def test_node_as_factor_device(self):
        node = Node(A100(), 2)
        s = SparseLU(grid2d(6, 6)).analyze()
        with pytest.raises(ValueError, match=r"node\[i\].*'sharded'"):
            s.factor(backend="batched", device=node)
        assert all(d.profiler.launch_count == 0 for d in node)

    def test_node_as_solve_device(self, rng):
        node = Node(A100(), 2)
        s = SparseLU(grid2d(6, 6)).factor()
        with pytest.raises(ValueError, match=r"node\[i\]"):
            s.solve(rng.standard_normal(36), device=node)
        x, _ = s.solve(rng.standard_normal(36), device=node[1])
        assert x.shape == (36,)

    @pytest.mark.parametrize("rows", [35, 37])
    @pytest.mark.parametrize("on_device", [False, True])
    def test_rhs_row_count(self, rng, rows, on_device):
        dev = Device(A100())
        s = SparseLU(grid2d(6, 6)).analyze()
        s.factor(backend="batched", device=dev)
        launches = dev.profiler.launch_count
        with pytest.raises(ValueError, match="expected 36 rows"):
            s.solve(rng.standard_normal((rows, 2)),
                    device=dev if on_device else None)
        assert dev.profiler.launch_count == launches

    @pytest.mark.parametrize("on_device", [False, True])
    def test_zero_column_rhs(self, on_device):
        dev = Device(A100())
        s = SparseLU(grid2d(6, 6)).analyze()
        s.factor(backend="batched", device=dev)
        x, info = s.solve(np.zeros((36, 0)),
                          device=dev if on_device else None)
        assert x.shape == (36, 0)
        assert info.final_residual == 0.0


class TestMc64Integration:
    def test_weak_diagonal_system(self, rng):
        # Diagonal ~0.05: static pivoting by MC64 keeps the restricted-
        # pivoting factorization stable.
        a = grid2d(10, 10, diag=0.05)
        b = rng.standard_normal(100)
        s = SparseLU(a, use_mc64=True).analyze().factor()
        x, info = s.solve(b)
        assert info.final_residual < 1e-12

    def test_mc64_on_hard_scaling_backward_stable(self, rng):
        # wildly scaled rows: the normwise metric saturates at
        # eps*||A||*||x||/||b||, so judge by the scaled backward error.
        a = grid2d(8, 8)
        scale = 10.0 ** rng.integers(-6, 6, size=64)
        a = sp.csr_matrix(sp.diags(scale) @ a)
        b = rng.standard_normal(64)
        s = SparseLU(a, use_mc64=True).analyze().factor()
        x, info = s.solve(b, refine_steps=2)
        norm_a = abs(a).max()
        norm_x = np.abs(x).max()
        backward = np.abs(a @ x - b).max() / (norm_a * norm_x +
                                              np.abs(b).max())
        assert backward < 1e-13

    def test_multiple_rhs(self, rng):
        a = grid2d(7, 7)
        B = rng.standard_normal((49, 4))
        s = SparseLU(a, use_mc64=True).factor()
        X, info = s.solve(B)
        assert np.abs(a @ X - B).max() < 1e-11


class TestIterativeRefinement:
    def test_residual_decreases_to_machine_precision(self, rng):
        """§V-B: the solution reaches ~machine precision after one step of
        iterative refinement."""
        a = grid3d(5)
        b = rng.standard_normal(125)
        s = SparseLU(a).factor()
        x, info = s.solve(b, refine_steps=1)
        assert len(info.residuals) == 2
        assert info.residuals[1] <= info.residuals[0]
        assert info.residuals[1] < 5e-15

    def test_zero_refine_steps(self, rng):
        a = grid2d(6, 6)
        s = SparseLU(a).factor()
        _, info = s.solve(rng.standard_normal(36), refine_steps=0)
        assert len(info.residuals) == 1

    def test_zero_rhs(self):
        a = grid2d(6, 6)
        s = SparseLU(a).factor()
        x, info = s.solve(np.zeros(36))
        assert np.allclose(x, 0.0)


class TestReuseOfFactorization:
    def test_factor_once_solve_many(self, rng):
        # §I: "the factorization of the operator can be reused multiple
        # times for the solution of different linear systems".
        a = grid2d(9, 9)
        s = SparseLU(a).factor()
        for _ in range(3):
            b = rng.standard_normal(81)
            x, info = s.solve(b)
            assert info.final_residual < 1e-13

    def test_device_solves_reuse_factor_cache(self, rng):
        # warm path: the refinement pass and every later solve perform
        # zero factor re-uploads (§V-B amortization)
        a = grid2d(10, 10)
        dev = Device(A100())
        s = SparseLU(a).factor()
        x, info = s.solve(rng.standard_normal(100), device=dev,
                          refine_steps=1)
        assert info.final_residual < 1e-13
        cache = s.solve_cache
        assert cache is not None
        uploads = cache.uploads
        assert uploads == len(s.solve_plan.levels)  # first pass only
        for _ in range(3):
            _, info = s.solve(rng.standard_normal(100), device=dev,
                              refine_steps=1)
            assert info.final_residual < 1e-13
        assert cache.uploads == uploads  # fully warm: zero re-uploads
        assert cache.hits > 0

    def test_refactor_invalidates_solve_cache(self, rng):
        a = grid2d(8, 8)
        dev = Device(A100())
        s = SparseLU(a).factor()
        s.solve(rng.standard_normal(64), device=dev)
        held = dev.allocated_bytes
        assert held > 0  # cache keeps factors resident
        s.factor()
        assert s.solve_cache is None
        assert dev.allocated_bytes == 0  # old cache released
        _, info = s.solve(rng.standard_normal(64), device=dev)
        assert info.final_residual < 1e-13

    def test_naive_engine_matches_bucketed(self, rng):
        a = grid2d(9, 9)
        b = rng.standard_normal(81)
        s = SparseLU(a).factor()
        xb, _ = s.solve(b, device=Device(A100()), engine="bucketed")
        xn, _ = s.solve(b, device=Device(A100()), engine="naive")
        assert np.array_equal(xb, xn)

    def test_zero_byte_budget_streams_every_level(self, rng):
        # a 5-column b in one pass, every level streamed under a 1-byte
        # budget, matches the host solve
        a = grid2d(9, 9)
        B = rng.standard_normal((81, 5))
        s = SparseLU(a).factor()
        dev = Device(A100())
        x1, info = s.solve(B, device=dev, memory_budget=1)
        assert s.solve_cache.resident_levels == set()
        assert dev.allocated_bytes == 0
        assert info.final_residual < 1e-13
        x2, _ = s.solve(B)
        np.testing.assert_allclose(x1, x2, rtol=1e-12, atol=1e-14)


class TestDtypePromotion:
    def test_complex_rhs_real_matrix_not_downcast(self, rng):
        # regression: np.asarray(b, dtype=a.dtype) silently dropped the
        # imaginary part of a complex b against a real A
        a = grid2d(8, 8)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        s = SparseLU(a).factor()
        x, info = s.solve(b)
        assert np.iscomplexobj(x)
        assert info.final_residual < 1e-13
        np.testing.assert_allclose(a @ x, b, rtol=1e-10, atol=1e-12)

    def test_complex_rhs_real_matrix_device(self, rng):
        a = grid2d(8, 8)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        s = SparseLU(a).factor()
        x_host, _ = s.solve(b)
        x_dev, info = s.solve(b, device=Device(A100()))
        assert np.iscomplexobj(x_dev)
        assert info.final_residual < 1e-13
        np.testing.assert_allclose(x_dev, x_host, rtol=1e-12, atol=1e-14)

    def test_real_rhs_complex_matrix_promotes(self, rng):
        a = (grid2d(7, 7) - (1.0 + 0.5j) * sp.eye(49)).tocsr()
        s = SparseLU(a).factor()
        x, info = s.solve(rng.standard_normal(49))
        assert np.iscomplexobj(x)
        assert info.final_residual < 1e-13
