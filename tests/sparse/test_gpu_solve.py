"""Tests for the batched GPU solve phase."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, Device
from repro.sparse import DeviceFactorCache, SolvePlan, SparseLU, \
    multifrontal_factor_cpu, multifrontal_solve, multifrontal_solve_gpu, \
    nested_dissection, symbolic_analysis

from .util import grid2d, grid3d


def factored(a, leaf_size=8):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    symb = symbolic_analysis(ap, nd)
    return nd, multifrontal_factor_cpu(ap, symb)


def _records(dev):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def _both_engines(fac, b, **kw):
    d_naive, d_buck = Device(A100()), Device(A100())
    rn = multifrontal_solve_gpu(d_naive, fac, b, engine="naive")
    rb = multifrontal_solve_gpu(d_buck, fac, b, engine="bucketed", **kw)
    return rn, rb, d_naive, d_buck


class TestGpuSolve:
    def test_matches_host_solve(self, a100, rng):
        a = grid2d(13, 11)
        nd, fac = factored(a)
        b = rng.standard_normal(143)
        ref = multifrontal_solve(fac, b[nd.perm])
        res = multifrontal_solve_gpu(a100, fac, b[nd.perm])
        np.testing.assert_allclose(res.x, ref, rtol=1e-12, atol=1e-14)

    def test_multiple_rhs(self, a100, rng):
        a = grid3d(4)
        nd, fac = factored(a, leaf_size=16)
        B = rng.standard_normal((64, 5))
        ref = multifrontal_solve(fac, B[nd.perm])
        res = multifrontal_solve_gpu(a100, fac, B[nd.perm])
        np.testing.assert_allclose(res.x, ref, rtol=1e-12, atol=1e-14)

    def test_complex_system(self, a100, rng):
        import scipy.sparse as sp
        a = (grid2d(8, 8) - (2.0 + 1.0j) * sp.eye(64)).tocsr()
        nd, fac = factored(a)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ref = multifrontal_solve(fac, b[nd.perm])
        res = multifrontal_solve_gpu(a100, fac, b[nd.perm])
        np.testing.assert_allclose(res.x, ref, rtol=1e-12)

    def test_rhs_size_mismatch(self, a100, rng):
        a = grid2d(5, 5)
        _nd, fac = factored(a)
        with pytest.raises(ValueError, match="expected"):
            multifrontal_solve_gpu(a100, fac, np.zeros(7))

    def test_batched_launch_structure(self, a100, rng):
        # per level (with nonzero pivots): fwd = 3 launches, bwd = 2.
        a = grid2d(12, 12)
        nd, fac = factored(a)
        levels = [lev for lev in fac.symb.levels()
                  if any(fac.symb.fronts[f].sep_size for f in lev)]
        n0 = a100.profiler.launch_count
        multifrontal_solve_gpu(a100, fac, rng.standard_normal(144))
        launches = a100.profiler.launch_count - n0
        assert launches == 5 * len(levels)

    def test_no_device_memory_leak(self, a100, rng):
        a = grid2d(9, 9)
        nd, fac = factored(a)
        before = a100.allocated_bytes
        multifrontal_solve_gpu(a100, fac, rng.standard_normal(81))
        assert a100.allocated_bytes == before

    def test_elapsed_positive(self, a100, rng):
        a = grid2d(8, 8)
        nd, fac = factored(a)
        res = multifrontal_solve_gpu(a100, fac, rng.standard_normal(64))
        assert res.elapsed > 0


class TestEngineParity:
    """Planned (bucketed) path vs the streamed naive reference."""

    @pytest.mark.parametrize("shape,nrhs", [
        pytest.param((13, 11), 1, id="1"),
        pytest.param((13, 11), 3, id="3"),
        pytest.param((13, 11), 17, id="17"),
        # separators, update sets and nrhs all above one 32-wide tile:
        # partial tiles along both grid axes and split-K partial sums
        pytest.param((40, 40), 40, id="wide-40"),
    ])
    def test_bitwise_and_cost_parity(self, rng, shape, nrhs):
        a = grid2d(*shape)
        n = a.shape[0]
        nd, fac = factored(a)
        if nrhs > 32:
            assert max(f.sep_size for f in fac.symb.fronts) > 32
            assert max(f.upd_size for f in fac.symb.fronts) > 32
        b = rng.standard_normal((n, nrhs)) if nrhs > 1 else \
            rng.standard_normal(n)
        rn, rb, dn, db = _both_engines(fac, b)
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)
        ref = multifrontal_solve(fac, b)
        if nrhs > 32:
            # the host reference sums in another order; on this larger
            # system its tiniest entries differ by roundoff: compare
            # normwise
            err = np.linalg.norm(rb.x - ref) / np.linalg.norm(ref)
            assert err < 1e-14
        else:
            np.testing.assert_allclose(rb.x, ref, rtol=1e-12, atol=1e-14)

    def test_complex128_parity(self, rng):
        a = (grid2d(8, 8) - (2.0 + 1.0j) * sp.eye(64)).tocsr()
        nd, fac = factored(a)
        b = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        rn, rb, dn, db = _both_engines(fac, b)
        assert rb.x.dtype == np.complex128
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)

    def test_complex_rhs_on_real_factors(self, rng):
        # mixed dtype: real f11/f21/f12 against a complex solution vector
        a = grid2d(9, 9)
        nd, fac = factored(a)
        b = rng.standard_normal(81) + 1j * rng.standard_normal(81)
        rn, rb, dn, db = _both_engines(fac, b)
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)
        np.testing.assert_allclose(rb.x, multifrontal_solve(fac, b),
                                   rtol=1e-12, atol=1e-14)

    def test_upd_size_zero_fronts(self, rng):
        # a block-diagonal system: every tree root has an empty update set
        a = sp.block_diag([grid2d(6, 5, seed=1), grid2d(4, 7, seed=2),
                           grid2d(5, 5, seed=3)]).tocsr()
        nd, fac = factored(a)
        assert any(fac.symb.fronts[f].upd_size == 0
                   for lev in fac.symb.levels() for f in lev)
        b = rng.standard_normal(a.shape[0])
        rn, rb, dn, db = _both_engines(fac, b)
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)

    def test_gpu_matches_host_multi_rhs(self, a100, rng):
        a = grid3d(4)
        nd, fac = factored(a, leaf_size=16)
        for nrhs in (1, 3, 17):
            B = rng.standard_normal((64, nrhs))
            ref = multifrontal_solve(fac, B[nd.perm])
            res = multifrontal_solve_gpu(a100, fac, B[nd.perm])
            np.testing.assert_allclose(res.x, ref, rtol=1e-12, atol=1e-14)


class TestSolvePlanCache:
    def test_warm_cache_matches_cold_path(self, rng):
        a = grid2d(12, 12)
        nd, fac = factored(a)
        b = rng.standard_normal(144)
        dev = Device(A100())
        plan = SolvePlan(fac)
        cache = DeviceFactorCache(dev, fac, plan)
        cold = multifrontal_solve_gpu(dev, fac, b, plan=plan, cache=cache)
        uploads = cache.uploads
        assert uploads == len(plan.levels)
        warm = multifrontal_solve_gpu(dev, fac, b, plan=plan, cache=cache)
        assert cache.uploads == uploads  # zero re-uploads when warm
        assert np.array_equal(cold.x, warm.x)
        assert warm.elapsed < cold.elapsed  # transfers amortized away
        # one-shot path (no cache) streams and matches too
        one_shot = multifrontal_solve_gpu(Device(A100()), fac, b)
        assert np.array_equal(one_shot.x, cold.x)
        cache.free()
        assert dev.allocated_bytes == 0

    def test_memory_budget_eviction(self, rng):
        a = grid2d(12, 12)
        nd, fac = factored(a)
        b = rng.standard_normal(144)
        plan = SolvePlan(fac)
        total = plan.total_nbytes()
        dev = Device(A100())
        cache = DeviceFactorCache(dev, fac, plan, memory_budget=total // 2)
        assert 0 < len(cache.resident_levels) < len(plan.levels)
        assert cache.resident_nbytes <= total // 2
        res = multifrontal_solve_gpu(dev, fac, b, plan=plan, cache=cache)
        full = multifrontal_solve_gpu(Device(A100()), fac, b)
        assert np.array_equal(res.x, full.x)
        # evicted levels stream per sweep; device holds only residents
        assert dev.allocated_bytes == cache.resident_nbytes
        cache.free()
        assert dev.allocated_bytes == 0

    def test_tiny_budget_streams_everything(self, rng):
        a = grid2d(9, 9)
        nd, fac = factored(a)
        plan = SolvePlan(fac)
        dev = Device(A100())
        # 1 byte fits no level, so every level is streamed per sweep
        cache = DeviceFactorCache(dev, fac, plan, memory_budget=1)
        assert cache.resident_levels == set()
        res = multifrontal_solve_gpu(dev, fac, rng.standard_normal(81),
                                     plan=plan, cache=cache)
        assert dev.allocated_bytes == 0
        # each level uploaded once per sweep direction
        assert cache.uploads == 2 * len(plan.levels)
        assert res.elapsed > 0

    def test_rhs_block_matches_full_pass(self, rng):
        a = grid2d(11, 9)
        nd, fac = factored(a)
        B = rng.standard_normal((99, 7))
        full = multifrontal_solve_gpu(Device(A100()), fac, B)
        blocked = multifrontal_solve_gpu(Device(A100()), fac, B,
                                         rhs_block=3)
        # blocking changes the GEMM column counts, so identity is to
        # rounding, not bitwise
        np.testing.assert_allclose(blocked.x, full.x, rtol=1e-12,
                                   atol=1e-14)

    def test_plan_reports_nbytes(self, rng):
        a = grid2d(8, 8)
        nd, fac = factored(a)
        plan = SolvePlan(fac)
        assert plan.total_nbytes() == sum(plan.level_nbytes(lp)
                                          for lp in plan.levels)
        assert plan.total_nbytes() > 0


class TestSolverIntegration:
    def test_sparse_lu_device_solve(self, rng):
        a = grid3d(5)
        b = rng.standard_normal(125)
        dev = Device(A100())
        s = SparseLU(a).analyze().factor(backend="batched", device=dev)
        x_gpu, info_gpu = s.solve(b, device=dev)
        x_cpu, info_cpu = s.solve(b)
        np.testing.assert_allclose(x_gpu, x_cpu, rtol=1e-12)
        assert info_gpu.final_residual < 5e-15

    def test_device_solve_with_mc64(self, rng):
        a = grid2d(9, 9, diag=0.1)
        b = rng.standard_normal(81)
        dev = Device(A100())
        s = SparseLU(a, use_mc64=True).analyze().factor()
        x, info = s.solve(b, device=dev)
        assert info.final_residual < 1e-12
