"""Resource-exhaustion recovery: budget validation, OOM ladders, typed
failures, leak regressions, and bitwise identity of recovered runs."""

import dataclasses

import numpy as np
import pytest

from repro.device import (A100, PERSISTENT, Device, DeviceOutOfMemory,
                          FaultPlan, FaultRule)
from repro.errors import ResourceExhausted, TransferError
from repro.recovery import RecoveryLog
from repro.sparse import (DeviceFactorCache, SolvePlan, SparseLU,
                          multifrontal_factor_cpu, multifrontal_factor_gpu,
                          multifrontal_solve_gpu, nested_dissection,
                          symbolic_analysis)
from repro.sparse.numeric.gpu_factor import plan_traversals

from .util import grid2d, grid3d, maxwell


def prepare(a, leaf_size=16):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return nd, ap, symbolic_analysis(ap, nd)


def front_floor(symb):
    """Bytes of the largest single front — the shrink ladder's floor."""
    return max(8 * f.order ** 2 for f in symb.fronts)


def assert_factors_equal(ref, res):
    for f_ref, f_res in zip(ref.fronts, res.fronts):
        np.testing.assert_array_equal(f_ref.f11, f_res.f11)
        np.testing.assert_array_equal(f_ref.f12, f_res.f12)
        np.testing.assert_array_equal(f_ref.f21, f_res.f21)
        np.testing.assert_array_equal(f_ref.ipiv, f_res.ipiv)


class TestBudgetValidation:
    """One ValueError, same message, at every public budget entry point."""

    BAD = [0, -4, 2.5, True, "1GB"]

    @pytest.mark.parametrize("bad", BAD)
    def test_factor_rejects_bad_budget(self, bad):
        _, ap, symb = prepare(grid2d(6, 6))
        with pytest.raises(ValueError, match="positive integer"):
            multifrontal_factor_gpu(Device(A100()), ap, symb,
                                    memory_budget=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_cache_rejects_bad_budget(self, bad):
        nd, ap, symb = prepare(grid2d(6, 6))
        fac = multifrontal_factor_cpu(ap, symb)
        plan = SolvePlan(fac)
        with pytest.raises(ValueError, match="positive integer"):
            DeviceFactorCache(Device(A100()), fac, plan, memory_budget=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_solver_rejects_bad_budget(self, bad, rng):
        s = SparseLU(grid2d(6, 6)).factor()
        with pytest.raises(ValueError, match="positive integer"):
            s.solve(rng.standard_normal(36), device=Device(A100()),
                    memory_budget=bad)

    def test_none_budget_still_means_unbounded(self, rng):
        _, ap, symb = prepare(grid2d(6, 6))
        res = multifrontal_factor_gpu(Device(A100()), ap, symb,
                                      memory_budget=None)
        assert res.counters["traversals"] == 1


class TestOutOfCoreEdgeCases:
    def test_floor_budget_makes_single_front_chunks(self):
        _, _, symb = prepare(grid2d(10, 10))
        chunks = plan_traversals(symb, front_floor(symb))
        assert any(len(c) == 1 for c in chunks)
        assert [f for c in chunks for f in c] == list(range(len(symb.fronts)))

    def test_floor_budget_factorization_bitwise_identical(self):
        for a in (grid2d(10, 10), maxwell(7)):
            _, ap, symb = prepare(a)
            ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
            # each budget cuts the levels into different chunk batches
            for scale in (1, 2, 4):
                res = multifrontal_factor_gpu(
                    Device(A100()), ap, symb,
                    memory_budget=scale * front_floor(symb))
                assert res.counters["traversals"] > 1
                assert_factors_equal(ref.factors, res.factors)

    def test_static_infeasibility_raises_eagerly(self):
        # "largest front needs X bytes" is a contract violation of the
        # requested budget — it must raise even with host_fallback on,
        # and before any device work happens
        _, ap, symb = prepare(grid2d(10, 10))
        dev = Device(A100())
        with pytest.raises(DeviceOutOfMemory, match="largest front"):
            multifrontal_factor_gpu(dev, ap, symb,
                                    memory_budget=front_floor(symb) - 8,
                                    host_fallback=True)
        assert dev.allocated_bytes == 0
        assert dev.profiler.launch_count == 0


class TestLeakRegression:
    def test_no_leak_on_success(self):
        _, ap, symb = prepare(grid2d(10, 10))
        dev = Device(A100())
        multifrontal_factor_gpu(dev, ap, symb,
                                memory_budget=front_floor(symb))
        assert dev.allocated_bytes == 0

    def test_no_leak_on_unrecoverable_failure(self):
        _, ap, symb = prepare(grid2d(8, 8))
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(ResourceExhausted):
                multifrontal_factor_gpu(dev, ap, symb, host_fallback=False)
        assert dev.allocated_bytes == 0

    def test_no_leak_on_transfer_failure(self, rng):
        # d2h corruption hits the factor download (flush_chunk)
        _, ap, symb = prepare(grid2d(8, 8))
        dev = Device(A100())
        plan = FaultPlan([FaultRule("d2h", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(TransferError):
                multifrontal_factor_gpu(dev, ap, symb, host_fallback=False)
        assert dev.allocated_bytes == 0

    def test_no_leak_after_solve_failure(self, rng):
        a = grid2d(9, 9)
        nd, ap, symb = prepare(a, leaf_size=8)
        fac = multifrontal_factor_cpu(ap, symb)
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(ResourceExhausted):
                multifrontal_solve_gpu(dev, fac, rng.standard_normal(81))
        assert dev.allocated_bytes == 0


class TestRecoveredRunsBitwiseIdentical:
    """The acceptance bar: a recovered run is indistinguishable (bitwise)
    from a fault-free run, and its RecoveryLog enumerates every action."""

    def _reference(self, ap, symb):
        return multifrontal_factor_gpu(Device(A100()), ap, symb)

    def test_transient_alloc_failure_recovered(self):
        # (system, fault, injections, the rung that recovers): a second
        # failure on the Maxwell level's retry splits its front batch
        for a, rule, n_injected, action in (
                (grid2d(10, 10), FaultRule("alloc", at=5), 1, "alloc-retry"),
                (maxwell(7), FaultRule("alloc", at=23, times=2), 2,
                 "level-split")):
            _, ap, symb = prepare(a)
            ref = self._reference(ap, symb)
            dev = Device(A100())
            with dev.fault_scope(FaultPlan([rule])) as inj:
                res = multifrontal_factor_gpu(dev, ap, symb)
            assert inj.n_injected == n_injected
            assert_factors_equal(ref.factors, res.factors)
            assert action in res.report.recovery.actions
            assert dev.allocated_bytes == 0

    def test_transient_launch_failure_recovered(self):
        _, ap, symb = prepare(grid2d(10, 10))
        ref = self._reference(ap, symb)
        dev = Device(A100())
        with dev.fault_scope(FaultPlan([FaultRule("launch", at=3)])) as inj:
            res = multifrontal_factor_gpu(dev, ap, symb)
        assert inj.n_injected == 1
        assert_factors_equal(ref.factors, res.factors)
        assert "launch-retry" in res.report.recovery.actions

    def test_transient_d2h_corruption_recovered(self):
        _, ap, symb = prepare(grid2d(10, 10))
        ref = self._reference(ap, symb)
        dev = Device(A100())
        with dev.fault_scope(FaultPlan([FaultRule("d2h", at=1)])) as inj:
            res = multifrontal_factor_gpu(dev, ap, symb)
        assert inj.n_injected == 1
        assert_factors_equal(ref.factors, res.factors)
        assert "transfer-retry" in res.report.recovery.actions

    def test_transient_h2d_corruption_recovered_while_streaming(self):
        # H2D transfers only exist in out-of-core mode (cross-traversal
        # Schur re-uploads); corrupt the first one
        _, ap, symb = prepare(grid2d(10, 10))
        budget = front_floor(symb) * 2
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb,
                                      memory_budget=budget)
        dev = Device(A100())
        with dev.fault_scope(FaultPlan([FaultRule("h2d", at=0)])) as inj:
            res = multifrontal_factor_gpu(dev, ap, symb,
                                          memory_budget=budget)
        assert inj.n_injected == 1
        assert_factors_equal(ref.factors, res.factors)
        assert "transfer-retry" in res.report.recovery.actions

    def test_combined_schedule_recovered(self, rng):
        a = grid2d(11, 9)
        nd, ap, symb = prepare(a, leaf_size=8)
        ref = self._reference(ap, symb)
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=4),
                          FaultRule("launch", at=2),
                          FaultRule("h2d", at=3),
                          FaultRule("d2h", at=0)], seed=11)
        with dev.fault_scope(plan) as inj:
            res = multifrontal_factor_gpu(
                dev, ap, symb, memory_budget=front_floor(symb) * 2)
        assert inj.n_injected >= 4
        assert_factors_equal(ref.factors, res.factors)
        rec = res.report.recovery
        assert rec.count("launch-retry") >= 1
        assert rec.count("transfer-retry") >= 2
        assert dev.allocated_bytes == 0

    def test_recovery_log_scoped_per_call(self):
        # two factorizations on one device: each report carries only its
        # own slice of the shared canonical log
        _, ap, symb = prepare(grid2d(8, 8))
        dev = Device(A100())
        with dev.fault_scope(FaultPlan([FaultRule("launch", at=1)])):
            r1 = multifrontal_factor_gpu(dev, ap, symb)
        r2 = multifrontal_factor_gpu(dev, ap, symb)
        assert r1.report.recovery.count("launch-retry") == 1
        assert len(r2.report.recovery) == 0

    def test_fault_free_run_has_empty_recovery(self):
        _, ap, symb = prepare(grid2d(8, 8))
        res = multifrontal_factor_gpu(Device(A100()), ap, symb)
        assert isinstance(res.report.recovery, RecoveryLog)
        assert not res.report.recovery
        assert res.report.recovery.summary() == "no recovery actions"


class TestExhaustionAndFallback:
    def test_exhausted_ladder_raises_typed_error_with_log(self):
        _, ap, symb = prepare(grid2d(8, 8))
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(ResourceExhausted) as ei:
                multifrontal_factor_gpu(dev, ap, symb, host_fallback=False)
        assert isinstance(ei.value.log, RecoveryLog)
        assert ei.value.log.count("chunk-shrink") >= 1
        assert isinstance(ei.value.__cause__, DeviceOutOfMemory)
        # never a bare MemoryError at the public boundary
        assert not isinstance(ei.value, MemoryError)

    def test_host_fallback_produces_working_factors(self, rng):
        a = grid2d(9, 9)
        nd, ap, symb = prepare(a, leaf_size=8)
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            res = multifrontal_factor_gpu(dev, ap, symb)   # default fallback
        assert res.counters.get("host_fallback") == 1
        assert "host-fallback" in res.report.recovery.actions
        cpu = multifrontal_factor_cpu(ap, symb)
        assert_factors_equal(cpu, res.factors)
        assert dev.allocated_bytes == 0

    def test_persistent_transfer_corruption_is_typed(self):
        _, ap, symb = prepare(grid2d(10, 10))
        dev = Device(A100())
        plan = FaultPlan([FaultRule("h2d", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            with pytest.raises(TransferError) as ei:
                multifrontal_factor_gpu(
                    dev, ap, symb, memory_budget=front_floor(symb) * 2,
                    host_fallback=False)
        assert ei.value.direction == "h2d"
        assert ei.value.attempts == 4
        assert dev.allocated_bytes == 0

    def test_solver_falls_back_to_host_path(self, rng):
        a = grid2d(9, 9)
        b = rng.standard_normal(81)
        s = SparseLU(a).factor()
        dev = Device(A100())
        plan = FaultPlan([FaultRule("alloc", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            x, info = s.solve(b, device=dev)
        assert info.final_residual < 1e-12
        assert "host-fallback" in info.recovery.actions
        x_ref, _ = s.solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)
        assert dev.allocated_bytes == 0

    def test_solver_survives_persistent_transfer_corruption(self, rng):
        a = grid2d(8, 8)
        b = rng.standard_normal(64)
        s = SparseLU(a).factor()
        dev = Device(A100())
        plan = FaultPlan([FaultRule("h2d", at=0, times=PERSISTENT)])
        with dev.fault_scope(plan):
            x, info = s.solve(b, device=dev)
        assert info.final_residual < 1e-12
        assert "host-fallback" in info.recovery.actions

    def test_clean_solve_attaches_empty_recovery(self, rng):
        s = SparseLU(grid2d(8, 8)).factor()
        x, info = s.solve(np.ones(64), device=Device(A100()))
        assert isinstance(info.recovery, RecoveryLog)
        assert not info.recovery

    def test_host_only_solve_has_no_recovery(self, rng):
        s = SparseLU(grid2d(8, 8)).factor()
        x, info = s.solve(np.ones(64))
        assert info.recovery is None


class TestCacheEviction:
    def _warm_cache(self):
        a = grid2d(11, 11)
        nd, ap, symb = prepare(a, leaf_size=8)
        fac = multifrontal_factor_cpu(ap, symb)
        plan = SolvePlan(fac)
        dev = Device(A100())
        cache = DeviceFactorCache(dev, fac, plan)
        return dev, cache, plan

    def test_evict_lru_frees_least_recent(self):
        dev, cache, plan = self._warm_cache()
        assert len(plan.levels) >= 3
        cache.acquire(0, "fwd")
        cache.acquire(1, "fwd")
        before = dev.allocated_bytes
        li = cache.evict_lru(exclude=1)
        assert li == 0
        assert 0 not in cache.resident_levels
        assert dev.allocated_bytes < before
        assert cache.evictions == 1
        assert dev.recovery_log.count("cache-evict") == 1

    def test_evict_empty_cache_returns_none(self):
        dev, cache, plan = self._warm_cache()
        assert cache.evict_lru() is None
        assert cache.evictions == 0

    def test_oom_during_acquire_spills_and_retries(self):
        dev, cache, plan = self._warm_cache()
        cache.acquire(0, "fwd")
        cache.acquire(1, "fwd")
        last = len(plan.levels) - 1
        with dev.fault_scope(FaultPlan([FaultRule("alloc", at=0)])):
            blocks, owned = cache.acquire(last, "fwd")
        assert not owned
        assert cache.evictions == 1
        assert 0 not in cache.resident_levels       # LRU victim
        assert last in cache.resident_levels
        assert dev.recovery_log.count("cache-evict") == 1

    def test_evicted_level_streams_again(self):
        dev, cache, plan = self._warm_cache()
        cache.acquire(0, "fwd")
        cache.evict_lru()
        blocks, owned = cache.acquire(0, "fwd")
        assert owned                    # streamed now: caller frees
        blocks.free()
        cache.free()
        assert dev.allocated_bytes == 0

    def test_solve_correct_after_eviction(self, rng):
        a = grid2d(11, 11)
        nd, ap, symb = prepare(a, leaf_size=8)
        fac = multifrontal_factor_cpu(ap, symb)
        b = rng.standard_normal(121)
        ref = multifrontal_solve_gpu(Device(A100()), fac, b)
        plan = SolvePlan(fac)
        dev = Device(A100())
        cache = DeviceFactorCache(dev, fac, plan)
        cache.acquire(0, "fwd")     # give the LRU policy a victim
        # first f21-stack upload of the solve hits a transient OOM
        fault = FaultRule("alloc", at=1, match="pack_to_device")
        with dev.fault_scope(FaultPlan([fault])):
            res = multifrontal_solve_gpu(dev, fac, b, plan=plan, cache=cache)
        assert cache.evictions == 1
        np.testing.assert_array_equal(res.x, ref.x)
        assert "cache-evict" in res.recovery.actions
