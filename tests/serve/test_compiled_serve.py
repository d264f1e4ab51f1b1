"""Hot-signature compiled dispatch in :class:`SolverService`.

``CoalescingPolicy(compile_hot=True)`` lets the service recognize
recurring dense dispatch signatures and swap the bucketed group runner
for a :class:`~repro.batched.program.WorkloadProgram` replay.  The
contract: results stay bitwise identical to the ``compile_hot=False``
service on identical traffic, replays touch neither the plan cache nor
the allocator, and a payload that trips the replay guard falls back to
the ordinary runner with per-request isolation intact.
"""

import numpy as np
import pytest

from repro.device import A100, Device, FaultPlan, FaultRule
from repro.errors import FactorizationError
from repro.serve import CoalescingPolicy, SolverService

pytestmark = [pytest.mark.serve, pytest.mark.compiled]

SIZES = [8, 12, 16, 20, 24, 16, 8, 12]


def make_round(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
            for m in SIZES]
    rhss = [rng.standard_normal((m, 2)) for m in SIZES]
    return mats, rhss


def inline_service(device=None, **policy_kw):
    dev = device if device is not None else Device(A100())
    policy_kw.setdefault("max_wait", 0.0)
    return SolverService(dev, policy=CoalescingPolicy(**policy_kw),
                         start=False)


def submit_round(svc, mats, rhss):
    """Alternate factor_solve / factor members (one mixed signature)."""
    futs = []
    for i, (a, b) in enumerate(zip(mats, rhss)):
        if i % 2 == 0:
            futs.append(svc.submit_factor_solve(a, b))
        else:
            futs.append(svc.submit_factor(a))
    svc.run_once()
    return futs


def unpack(fut):
    v = fut.result(0)
    return v if isinstance(v, tuple) else (None, v)


class TestHotSignatureCompilation:
    def test_bitwise_identical_to_uncompiled_service(self):
        svc_ref = inline_service()
        svc = inline_service(compile_hot=True, hot_threshold=2)
        for rnd in range(5):
            mats, rhss = make_round(seed=rnd)
            ref = [unpack(f) for f in submit_round(svc_ref, mats, rhss)]
            got = [unpack(f) for f in submit_round(svc, mats, rhss)]
            for (xr, hr), (xg, hg) in zip(ref, got):
                if xr is None:
                    assert xg is None
                else:
                    np.testing.assert_array_equal(xr, xg)
                np.testing.assert_array_equal(hr.lu, hg.lu)
                np.testing.assert_array_equal(hr.ipiv, hg.ipiv)
                assert (hr.info, hr.n_replaced, hr.min_pivot, hr.growth) \
                    == (hg.info, hg.n_replaced, hg.min_pivot, hg.growth)
        snap = svc.stats.snapshot()
        assert snap["programs_compiled"] == 1
        assert snap["compiled_dispatches"] == 4   # rounds 2..5
        assert snap["compiled_fallbacks"] == 0
        svc.close()
        svc_ref.close()

    def test_replay_zero_misses_zero_allocs(self):
        dev = Device(A100())
        svc = inline_service(device=dev, compile_hot=True, hot_threshold=2)
        for rnd in range(3):
            mats, rhss = make_round(seed=rnd)
            submit_round(svc, mats, rhss)
        misses0 = svc._slots[0].engine.cache.misses
        allocs0 = dev.alloc_count
        mats, rhss = make_round(seed=77)
        futs = submit_round(svc, mats, rhss)
        assert all(f.exception(0) is None for f in futs)
        assert svc._slots[0].engine.cache.misses == misses0
        assert dev.alloc_count == allocs0
        svc.close()

    def test_cold_signatures_stay_uncompiled(self):
        svc = inline_service(compile_hot=True, hot_threshold=3)
        mats, rhss = make_round(seed=0)
        submit_round(svc, mats, rhss)
        submit_round(svc, mats, rhss)
        assert svc.stats.snapshot()["programs_compiled"] == 0
        svc.close()

    def test_guard_fallback_isolates_broken_member(self):
        svc = inline_service(compile_hot=True, hot_threshold=2)
        for rnd in range(3):
            mats, rhss = make_round(seed=rnd)
            submit_round(svc, mats, rhss)
        # hot now; a breakdown payload must fall back, fail only its
        # own request, and still serve the rest of the group
        mats, rhss = make_round(seed=9)
        mats[0] = np.zeros_like(mats[0])
        futs = submit_round(svc, mats, rhss)
        assert isinstance(futs[0].exception(0), FactorizationError)
        assert all(f.exception(0) is None for f in futs[1:])
        snap = svc.stats.snapshot()
        assert snap["compiled_fallbacks"] == 1

        # the fallback round matches the uncompiled service bitwise
        svc_ref = inline_service()
        mats_r, rhss_r = make_round(seed=9)
        mats_r[0] = np.zeros_like(mats_r[0])
        futs_ref = submit_round(svc_ref, mats_r, rhss_r)
        for fr, fg in zip(futs_ref[1:], futs[1:]):
            (xr, hr), (xg, hg) = unpack(fr), unpack(fg)
            if xr is not None:
                np.testing.assert_array_equal(xr, xg)
            np.testing.assert_array_equal(hr.lu, hg.lu)
        svc.close()
        svc_ref.close()

    def test_program_store_is_bounded_lru(self):
        svc = inline_service(compile_hot=True, hot_threshold=1,
                             max_programs=2)
        # three distinct hot signatures with threshold 1: every round
        # compiles; the store must keep only the 2 most recent
        for sizes_seed in range(3):
            rng = np.random.default_rng(sizes_seed)
            m = 8 + 4 * sizes_seed
            a = rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
            svc.submit_factor(a)
            svc.run_once()
        assert svc.stats.snapshot()["programs_compiled"] == 3
        assert len(svc._slots[0].programs) == 2
        svc.close()
        assert len(svc._slots[0].programs) == 0

    def test_getrf_only_group_compiles_and_matches(self):
        svc_ref = inline_service()
        svc = inline_service(compile_hot=True, hot_threshold=2)
        for rnd in range(4):
            rng = np.random.default_rng(rnd)
            mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
                    for m in SIZES]
            futs_ref, futs = [], []
            for a in mats:
                futs_ref.append(svc_ref.submit_factor(a))
                futs.append(svc.submit_factor(a))
            svc_ref.run_once()
            svc.run_once()
            for fr, fg in zip(futs_ref, futs):
                hr, hg = fr.result(0), fg.result(0)
                np.testing.assert_array_equal(hr.lu, hg.lu)
                np.testing.assert_array_equal(hr.ipiv, hg.ipiv)
        assert svc.stats.snapshot()["programs_compiled"] == 1
        svc.close()
        svc_ref.close()


class TestRepairedRehearsal:
    @pytest.mark.sdc
    def test_repaired_compile_is_not_stored(self):
        # a corrupt fault repaired during the hot signature's rehearsal:
        # no program is kept, the signature stays compilable, and every
        # answer before and after matches the uncompiled service
        sizes = [40, 48, 40, 48]           # > 32: getrf runs irrGEMM
        svc_ref = inline_service()
        svc = inline_service(compile_hot=True, hot_threshold=2)
        dev = svc._slots[0].device
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm")],
                         seed=7)
        for rnd in range(5):
            rng = np.random.default_rng(rnd)
            mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
                    for m in sizes]
            rhss = [rng.standard_normal((m, 2)) for m in sizes]
            ref = [unpack(f) for f in submit_round(svc_ref, mats, rhss)]
            if rnd == 1:
                with dev.fault_scope(plan):
                    futs = submit_round(svc, mats, rhss)
                assert dev.recovery_log.count("kernel-reexec") >= 1
                assert svc.stats.snapshot()["programs_compiled"] == 0
            else:
                futs = submit_round(svc, mats, rhss)
            for (xr, hr), (xg, hg) in zip(ref, map(unpack, futs)):
                if xr is not None:
                    np.testing.assert_array_equal(xr, xg)
                np.testing.assert_array_equal(hr.lu, hg.lu)
        snap = svc.stats.snapshot()
        assert snap["programs_compiled"] == 1
        assert snap["compiled_dispatches"] == 3
        svc.close()
        svc_ref.close()


class TestBoundedPlanCache:
    def test_capacity_and_counters_in_snapshot(self):
        svc = inline_service(plan_cache_capacity=2)
        rng = np.random.default_rng(0)
        for m in (8, 12, 16, 20, 24):
            svc.factor(rng.standard_normal((m, m)) + 3.0 * m * np.eye(m))
        snap = svc.stats.snapshot()["plan_cache"]
        assert snap["capacity"] == 2
        assert snap["size"] <= 2
        assert snap["evictions"] > 0
        assert snap["misses"] > 0
        svc.close()

    def test_unbounded_by_default(self):
        svc = inline_service()
        rng = np.random.default_rng(0)
        svc.factor(rng.standard_normal((8, 8)) + 24 * np.eye(8))
        snap = svc.stats.snapshot()["plan_cache"]
        assert snap["capacity"] is None
        assert snap["evictions"] == 0
        svc.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="plan_cache_capacity"):
            CoalescingPolicy(plan_cache_capacity=0)
        with pytest.raises(ValueError, match="hot_threshold"):
            CoalescingPolicy(hot_threshold=0)
        with pytest.raises(ValueError, match="max_programs"):
            CoalescingPolicy(max_programs=0)


class TestServeReplayTraffic:
    def test_500_request_replay_parity(self):
        """The acceptance traffic: 500 requests of recurring signatures
        through a compiled service match the uncompiled service
        bitwise."""
        svc_ref = inline_service()
        svc = inline_service(compile_hot=True, hot_threshold=2)
        n_requests = 0
        rnd = 0
        while n_requests < 500:
            mats, rhss = make_round(seed=rnd % 7)
            ref = [unpack(f) for f in submit_round(svc_ref, mats, rhss)]
            got = [unpack(f) for f in submit_round(svc, mats, rhss)]
            for (xr, hr), (xg, hg) in zip(ref, got):
                if xr is not None:
                    np.testing.assert_array_equal(xr, xg)
                np.testing.assert_array_equal(hr.lu, hg.lu)
                np.testing.assert_array_equal(hr.ipiv, hg.ipiv)
                assert hr.info == hg.info
            n_requests += len(mats)
            rnd += 1
        snap = svc.stats.snapshot()
        assert snap["programs_compiled"] >= 1
        assert snap["compiled_dispatches"] > 0
        assert snap["compiled_fallbacks"] == 0
        svc.close()
        svc_ref.close()
