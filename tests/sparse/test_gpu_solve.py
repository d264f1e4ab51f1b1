"""Tests for the batched GPU solve phase."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, MI100, Device, FaultPlan, FaultRule
from repro.sparse import DeviceFactorCache, SolvePlan, SparseLU, \
    multifrontal_factor_cpu, multifrontal_solve, multifrontal_solve_gpu, \
    nested_dissection, symbolic_analysis

from .util import grid2d, grid3d, maxwell


def factored(a, leaf_size=8):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    symb = symbolic_analysis(ap, nd)
    return nd, multifrontal_factor_cpu(ap, symb)


def _records(dev):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def _both_engines(fac, b, spec=A100, **kw):
    d_naive, d_buck = Device(spec()), Device(spec())
    rn = multifrontal_solve_gpu(d_naive, fac, b, engine="naive")
    rb = multifrontal_solve_gpu(d_buck, fac, b, engine="bucketed", **kw)
    return rn, rb, d_naive, d_buck


def _level_trsm_names(dev):
    """The irrTRSM launch names of each level's triangle solve, in sweep
    order: each level's solve is one run of ``irrtrsm:`` launches, after
    the sweep's ``solve:pivots`` or the previous level's
    ``solve:scatter`` going forward, after the level's ``solve:gather``
    going backward.  A level without update rows (the root) makes no
    update launch, so its backward run also starts where the sweep
    turns from ``fwd`` to ``bwd``."""
    runs, prev = [], ""
    for r in dev.profiler.records:
        if r.name.startswith("irrtrsm:"):
            if not prev.startswith("irrtrsm:") or \
                    prev.split(":")[1] != r.name.split(":")[1]:
                runs.append([])
            runs[-1].append(r.name)
        prev = r.name
    return runs


def _solve_levels(fac):
    return [lev for lev in fac.symb.levels()
            if any(fac.symb.fronts[f].sep_size for f in lev)]


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
        # one pivot launch for every front, then per level: fwd = 2
        # launches, bwd = 2 — also where separators exceed one 32-wide
        # tile (Maxwell n=6: root separator 138), because each level's
        # triangles stream in one irrTRSM launch per sweep instead of
        # recursing; a level without update rows (the root) makes only
        # its two triangle launches
        for a, leaf_size in ((grid2d(12, 12), 8), (maxwell(6), 32)):
            nd, fac = factored(a, leaf_size)
            levels = _solve_levels(fac)
            no_upd = sum(not any(fac.symb.fronts[f].upd_size for f in lev)
                         for lev in levels)
            assert no_upd >= 1
            n0 = a100.profiler.launch_count
            multifrontal_solve_gpu(a100, fac,
                                   rng.standard_normal(a.shape[0]))
            launches = a100.profiler.launch_count - n0
            assert launches == 4 * len(levels) + 1 - 2 * no_upd
        assert max(f.sep_size for f in fac.symb.fronts) == 138

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

    @pytest.mark.parametrize("system,nrhs,spec", [
        pytest.param((13, 11), 1, A100, id="1"),
        pytest.param((13, 11), 3, A100, id="3"),
        pytest.param((13, 11), 17, A100, id="17"),
        # separators, update sets and nrhs all above one 32-wide tile:
        # partial tiles along both grid axes and split-K partial sums
        pytest.param((40, 40), 40, A100, id="wide-40"),
        # Maxwell n=8, separators 17..297, on the MI100's 64 KB blocks:
        # with one right-hand side every level streams its triangles in
        # one launch; with 40 the root's column tile (297×32 doubles
        # plus a diagonal tile, 84 KB) does not fit, so the root
        # recurses while the levels below it stream
        pytest.param("maxwell-8", 1, MI100, id="maxwell8-mi100-1"),
        pytest.param("maxwell-8", 40, MI100, id="maxwell8-mi100-40"),
    ])
    def test_bitwise_and_cost_parity(self, rng, system, nrhs, spec):
        if system == "maxwell-8":
            a, leaf_size = maxwell(8), 32
        else:
            a, leaf_size = grid2d(*system), 8
        n = a.shape[0]
        nd, fac = factored(a, leaf_size)
        if nrhs > 32:
            assert max(f.sep_size for f in fac.symb.fronts) > 32
            assert max(f.upd_size for f in fac.symb.fronts) > 32
        b = rng.standard_normal((n, nrhs)) if nrhs > 1 else \
            rng.standard_normal(n)
        rn, rb, dn, db = _both_engines(fac, b, spec)
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)
        if system == "maxwell-8":
            nlev = len(_solve_levels(fac))
            runs = _level_trsm_names(dn)
            assert runs == _level_trsm_names(db)
            # forward sweep leaves -> root, then backward root -> leaves
            recursed = {nlev - 1, nlev} if nrhs == 40 else set()
            for i, names in enumerate(runs):
                sweep = "fwd" if i < nlev else "bwd"
                if i in recursed:
                    assert f"irrtrsm:{sweep}:gemm" in names
                    assert len(names) > 1
                else:
                    assert names == [f"irrtrsm:{sweep}:base"]
            # indefinite: the host reference's other summation order
            # moves x by the condition number, so judge x against the
            # matrix instead
            ap = a[nd.perm][:, nd.perm]
            r = np.abs(ap @ rb.x - b).max()
            anorm = abs(ap).sum(axis=1).max()
            assert r / (anorm * np.abs(rb.x).max() + np.abs(b).max()) \
                < 1e-13
            return
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


class TestStreamedSolve:
    """Each level's triangles in one irrTRSM launch per sweep."""

    def test_naive_pass_uploads_each_level_part_once(self, rng):
        # Maxwell n=6: 4 levels, the root's f21/f12 parts hold no bytes,
        # so 7 non-empty parts per sweep, plus x up and down
        a = maxwell(6)
        nd, fac = factored(a, 32)
        b = rng.standard_normal(a.shape[0])
        rn, rb, dn, db = _both_engines(fac, b)
        assert dn.profiler.transfer_count == 16
        assert np.array_equal(rn.x, rb.x)
        assert _records(dn) == _records(db)
        assert dn.allocated_bytes == 0

    @pytest.mark.sdc
    @pytest.mark.parametrize("engine", ["naive", "bucketed"])
    def test_corrupt_streamed_launch_repaired_bitwise(self, rng, engine):
        # leaves of 48: the first forward base launch streams separators
        # of up to 47 rows
        a = grid2d(30, 30)
        nd, fac = factored(a, 48)
        first = _solve_levels(fac)[0]
        assert max(fac.symb.fronts[f].sep_size for f in first) > 32
        b = rng.standard_normal(a.shape[0])
        ref = multifrontal_solve_gpu(Device(A100()), fac, b, engine=engine)
        dev = Device(A100())
        plan = FaultPlan([FaultRule("corrupt", at=0,
                                    match="irrtrsm:fwd:base")], seed=7)
        with dev.fault_scope(plan) as inj:
            res = multifrontal_solve_gpu(dev, fac, b, engine=engine)
        assert [f.kind for f in inj.injected] == ["corrupt"]
        assert res.recovery.count("kernel-reexec") >= 1
        assert np.array_equal(res.x, ref.x)


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
        res = multifrontal_solve_gpu(dev, fac, b, plan=plan, cache=cache)
        full = multifrontal_solve_gpu(Device(A100()), fac, b)
        assert np.array_equal(res.x, full.x)
        # the levels that fit the budget stay; the rest stream per sweep
        assert 0 < len(cache.resident_levels) < len(plan.levels)
        assert cache.resident_nbytes <= total // 2
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

    def test_many_columns_take_one_pass(self, rng):
        # every column goes through one pass of the sweeps: a 7-column
        # solve makes the launches of a 1-column one, and matches the
        # column-by-column solves to rounding (the update GEMMs' column
        # counts differ, so not bitwise)
        a = grid2d(11, 9)
        nd, fac = factored(a)
        B = rng.standard_normal((99, 7))
        dev = Device(A100())
        full = multifrontal_solve_gpu(dev, fac, B)
        per_col = Device(A100())
        cols = np.stack([multifrontal_solve_gpu(per_col, fac, B[:, j]).x
                         for j in range(7)], axis=1)
        np.testing.assert_allclose(full.x, cols, rtol=1e-12, atol=1e-14)
        assert 7 * dev.profiler.launch_count == per_col.profiler.launch_count

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
