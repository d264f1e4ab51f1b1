"""Factors kept on the device from factor to solve.

``SparseLU.factor(backend="batched")`` packs each level into the
``DeviceFactorCache`` that becomes ``solve_cache``; ``factors.fronts``
downloads the host blocks only when read.  These tests pin that path:
bitwise equality with host factors, zero factor uploads, the release
rules, the recovery ladder and the sharded store path.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule, \
    Node
from repro.errors import FactorizationError, FactorsReleased, \
    TransferError
from repro.sparse import DeviceFactorCache, SolvePlan, SparseLU, \
    multifrontal_factor_gpu, multifrontal_solve_gpu

from .util import grid2d, grid3d, maxwell


def on_device(a, device=None, **kw):
    s = SparseLU(a).analyze()
    dev = device or Device(A100())
    s.factor(backend="batched", device=dev, **kw)
    return s, dev


def host_factors(s, **kw):
    """The same factorization without a store: blocks on the host."""
    return multifrontal_factor_gpu(Device(A100()), s.a_perm, s.symb,
                                   **kw).factors


def assert_fronts_equal(got, ref):
    assert len(got) == len(ref)
    for f, g in zip(got, ref):
        for k in ("f11", "f12", "f21", "ipiv"):
            x, y = getattr(f, k), getattr(g, k)
            assert x.dtype == y.dtype and np.array_equal(x, y), k
        assert (f.info, f.n_replaced, f.min_pivot, f.growth) == \
            (g.info, g.n_replaced, g.min_pivot, g.growth)


class TestResidentSolves:
    def test_solves_bitwise_equal_to_host_factors_with_zero_uploads(
            self, rng):
        a = grid3d(8)
        s, dev = on_device(a)
        assert dev.profiler.transfer_count == 1        # the CSR upload
        ref = host_factors(s)
        ref_dev = Device(A100())
        plan = SolvePlan(ref)
        cache = DeviceFactorCache(ref_dev, ref, plan)
        perm = s.nd.perm
        for _ in range(3):
            b = rng.standard_normal(a.shape[0])
            x, _ = s.solve(b, device=dev, refine_steps=0)
            y = multifrontal_solve_gpu(ref_dev, ref, b[perm], plan=plan,
                                       cache=cache).x
            expect = np.empty_like(y)
            expect[perm] = y
            assert np.array_equal(x, expect)
        assert s.solve_cache.uploads == 0
        # the CSR upload, then each solve's right-hand side up and back
        assert dev.profiler.transfer_count == 1 + 3 * 2
        cache.free()

    def test_lazy_fronts_bitwise_and_no_device_memory(self):
        s, dev = on_device(maxwell(5))
        ref = host_factors(s)
        held = dev.allocated_bytes
        assert held == s.solve_cache.resident_nbytes > 0
        t0 = dev.profiler.transfer_count
        fronts = s.factors.fronts
        assert dev.allocated_bytes == held
        assert dev.profiler.transfer_count > t0
        assert_fronts_equal(fronts, ref.fronts)
        t1 = dev.profiler.transfer_count
        assert s.factors.fronts is fronts                # downloads once
        assert dev.profiler.transfer_count == t1
        # the levels stay resident: solves still upload nothing
        s.solve(np.ones(s.n), device=dev)
        assert s.solve_cache.uploads == 0

    def test_free_returns_to_zero_and_solves_after(self, rng):
        a = grid3d(8)
        s, dev = on_device(a)
        b = rng.standard_normal(a.shape[0])
        x0, _ = s.solve(b, device=dev)
        s.solve_cache.free()
        assert dev.allocated_bytes == 0
        x1, info = s.solve(b, device=dev)
        assert np.array_equal(x0, x1)
        assert s.solve_cache.uploads == len(s.solve_plan.levels)
        s.solve_cache.free()
        assert dev.allocated_bytes == 0

    def test_budget_change_downloads_packed_levels_first(self, rng):
        a = grid3d(8)
        s, dev = on_device(a)
        b = rng.standard_normal(a.shape[0])
        x0, _ = s.solve(b, device=dev)
        budget = s.solve_cache.resident_nbytes // 2
        x1, _ = s.solve(b, device=dev, memory_budget=budget)
        assert np.array_equal(x0, x1)
        assert dev.allocated_bytes == s.solve_cache.resident_nbytes
        assert dev.allocated_bytes <= budget
        assert_fronts_equal(s.factors.fronts, host_factors(s).fronts)

    def test_eviction_downloads_the_victim_first(self, rng):
        a = grid3d(8)
        s, dev = on_device(a)
        b = rng.standard_normal(a.shape[0])
        x0, _ = s.solve(b, device=dev)
        cache = s.solve_cache
        t0 = dev.profiler.transfer_count
        li = cache.evict_lru()
        assert li is not None and li not in cache.resident_levels
        assert dev.profiler.transfer_count > t0          # the download
        assert dev.recovery_log.count("cache-evict") == 1
        x1, _ = s.solve(b, device=dev)                   # streams level li
        assert np.array_equal(x0, x1)


class TestRelease:
    @pytest.mark.parametrize("drop", ["factor", "update_values"])
    def test_released_factors_raise_typed_error(self, drop):
        a = maxwell(5)
        s, dev = on_device(a)
        factors = s.factors
        if drop == "factor":
            s.factor(backend="cpu")
        else:
            s.update_values(a)
        assert dev.allocated_bytes == 0
        with pytest.raises(FactorsReleased):
            factors.fronts

    def test_read_factors_survive_release(self):
        a = maxwell(5)
        s, dev = on_device(a)
        factors = s.factors
        fronts = factors.fronts
        s.update_values(a)
        assert factors.fronts is fronts

    @pytest.mark.parametrize("drop", ["free", "release"])
    def test_residency_reads_the_device(self, drop):
        s, dev = on_device(maxwell(5))
        cache = s.solve_cache
        assert cache.resident_nbytes == dev.allocated_bytes > 0
        assert cache.resident_levels == set(range(len(cache.layout.levels)))
        getattr(cache, drop)()
        assert cache.resident_nbytes == dev.allocated_bytes == 0
        assert cache.resident_levels == set()

    def test_breakdown_raise_leaves_memory_at_baseline(self):
        a = grid2d(9, 9).tolil()
        a[40, :] = 0.0
        a[:, 40] = 0.0
        dev = Device(A100())
        s = SparseLU(sp.csr_matrix(a)).analyze()
        with pytest.raises(FactorizationError):
            s.factor(backend="batched", device=dev)
        assert dev.allocated_bytes == 0
        assert s.solve_cache is None


class TestRecovery:
    def test_pack_alloc_fault_climbs_to_streaming_bitwise(self, rng):
        a = grid3d(8)
        s = SparseLU(a).analyze()
        ref = host_factors(s)
        fronts = sum(8 * f.order ** 2 for f in s.symb.fronts)
        # in-core fits; two halvings make the traversal multi-chunk
        dev = Device(dataclasses.replace(A100(),
                                         memory_capacity=2 * fronts))
        rule = FaultRule("alloc", at=0, match="pack_to_device",
                         times=PERSISTENT)
        with dev.fault_scope(FaultPlan([rule])):
            s.factor(backend="batched", device=dev)
        assert s.factor_report.recovery.count("chunk-shrink") == 2
        assert s.factor_result.counters["traversals"] > 1
        assert dev.allocated_bytes == 0                  # nothing packed
        assert_fronts_equal(s.factors.fronts, ref.fronts)
        _, info = s.solve(rng.standard_normal(a.shape[0]), device=dev)
        assert info.final_residual < 1e-13

    def test_persistent_download_fault_is_typed(self, rng):
        s, dev = on_device(maxwell(5))
        rule = FaultRule("d2h", at=0, times=PERSISTENT)
        with dev.fault_scope(FaultPlan([rule])):
            with pytest.raises(TransferError):
                s.solve(rng.standard_normal(s.n))
        # nothing half-downloaded: a clean read still gets every block
        assert_fronts_equal(s.factors.fronts, host_factors(s).fronts)

    def test_fp32_factors_pack_as_float32(self, rng):
        a = grid3d(8)
        s64, d64 = on_device(a)
        s32, d32 = on_device(a, precision="fp32")
        assert d32.allocated_bytes == s32.solve_cache.resident_nbytes
        assert 2 * d32.allocated_bytes == d64.allocated_bytes
        ref = multifrontal_factor_gpu(Device(A100()),
                                      s32.a_perm.astype(np.float32),
                                      s32.symb).factors
        assert_fronts_equal(s32.factors.fronts, ref.fronts)
        assert s32.factors.fronts[-1].f11.dtype == np.float32
        _, info = s32.solve(rng.standard_normal(a.shape[0]), device=d32)
        assert info.final_residual < 1e-12
        assert s32.solve_cache.uploads == 0


class TestSharded:
    def test_four_devices_keep_every_level_resident(self, rng):
        a = grid3d(8)
        s = SparseLU(a).analyze()
        node = Node(A100(), 4)
        s.factor(backend="sharded", device=node)
        cache = s.solve_cache
        assert cache.device is node[0]
        assert cache.resident_levels == set(range(len(cache.layout.levels)))
        assert node[0].allocated_bytes == sum(
            8 * lp.elements for lp in cache.layout.levels)
        assert all(node[d].allocated_bytes == 0 for d in (1, 2, 3))
        _, info = s.solve(rng.standard_normal(a.shape[0]), device=node[0])
        assert info.final_residual < 1e-13
        assert cache.uploads == 0
        batched, _ = on_device(a)
        assert_fronts_equal(s.factors.fronts, batched.factors.fronts)
