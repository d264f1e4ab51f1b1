"""Served dense groups against a direct factorization.

:class:`SolverService` serves every dense group on the bucketed group
runner: one packed upload per operand, one checked download per result
batch.  Its answers must equal, bit for bit, a direct bucketed
factorization of the same matrices uploaded one by one — factors,
pivots and diagnostics alike — also when a dispatch repairs a corrupted
kernel or a corrupted download.
"""

import numpy as np
import pytest

from repro.batched import IrrBatch, irr_getrf
from repro.device import A100, Device, FaultPlan, FaultRule
from repro.serve import CoalescingPolicy, SolverService

pytestmark = pytest.mark.serve

SIZES = [8, 12, 16, 20, 24, 16, 8, 12]


def make_round(seed, sizes=SIZES):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
            for m in sizes]
    rhss = [rng.standard_normal((m, 2)) for m in sizes]
    return mats, rhss


def inline_service(device=None, **policy_kw):
    dev = device if device is not None else Device(A100())
    policy_kw.setdefault("max_wait", 0.0)
    return SolverService(dev, policy=CoalescingPolicy(**policy_kw),
                         start=False)


def submit_round(svc, mats, rhss):
    """Alternate factor_solve / factor members (one coalesced group)."""
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


def direct_getrf(mats, dtype=None):
    """The reference: a fresh device, each matrix uploaded in its own
    transfer, one bucketed factorization."""
    dev = Device(A100())
    mats = [np.asarray(a, dtype=dtype) for a in mats]
    batch = IrrBatch(dev, [dev.from_host(a) for a in mats],
                     [a.shape[0] for a in mats], [a.shape[1] for a in mats])
    piv = irr_getrf(dev, batch)
    return batch.to_host(), piv


def assert_served_equals_direct(mats, handles):
    """The served handles equal the direct factorization bit for bit."""
    factors, piv = direct_getrf(mats, handles[0].lu.dtype)
    for i, h in enumerate(handles):
        np.testing.assert_array_equal(factors[i], h.lu)
        np.testing.assert_array_equal(piv.ipiv[i], h.ipiv)
        assert (piv.info[i], piv.ctrl.n_replaced[i], piv.ctrl.min_pivot[i],
                piv.ctrl.growth[i]) == (h.info, h.n_replaced, h.min_pivot,
                                        h.growth)


class TestHotSignatureCompilation:
    def test_bitwise_identical_to_uncompiled_service(self):
        svc = inline_service()
        for rnd in range(5):
            mats, rhss = make_round(seed=rnd)
            served = [unpack(f) for f in submit_round(svc, mats, rhss)]
            assert_served_equals_direct(mats, [h for _, h in served])
        svc.close()

    def test_replay_zero_misses_zero_allocs(self):
        # recurring groups re-plan nothing on the service's engine, and
        # each dispatch makes the same two allocations (one per packed
        # operand) and four transfers: A and B up, X and LU down
        dev = Device(A100())
        svc = inline_service(device=dev)
        engine = svc._slots[0].engine
        submit_round(svc, *make_round(seed=0))
        misses0 = engine.cache.misses
        for rnd in range(1, 4):
            allocs0 = dev.alloc_count
            n0 = dev.profiler.transfer_count
            mats, rhss = make_round(seed=rnd)
            futs = submit_round(svc, mats, rhss)
            assert dev.alloc_count - allocs0 == 2
            assert dev.profiler.transfer_count - n0 == 4
            assert dev.allocated_bytes == 0
            assert_served_equals_direct(mats, [unpack(f)[1] for f in futs])
        assert engine.cache.misses == misses0
        svc.close()

    def test_cold_signatures_stay_uncompiled(self):
        # however often a signature recurs, the service runs it on the
        # bucketed runner: the same launches every time, and no device
        # memory held between dispatches
        dev = Device(A100())
        svc = inline_service(device=dev)
        launches = []
        for _ in range(4):
            n0 = dev.profiler.launch_count
            futs = submit_round(svc, *make_round(seed=0))
            assert all(f.exception(0) is None for f in futs)
            launches.append(dev.profiler.launch_count - n0)
            assert dev.allocated_bytes == 0
        assert len(set(launches)) == 1
        assert not any(r.name.startswith("fused[")
                       for r in dev.profiler.records)
        svc.close()

    def test_getrf_only_group_compiles_and_matches(self):
        svc = inline_service()
        for rnd in range(4):
            mats, _ = make_round(seed=rnd)
            futs = [svc.submit_factor(a) for a in mats]
            svc.run_once()
            assert_served_equals_direct(mats, [f.result(0) for f in futs])
        svc.close()


class TestRepairedRehearsal:
    @pytest.mark.sdc
    def test_repaired_compile_is_not_stored(self):
        # a corrupted kernel and a corrupted download are both repaired
        # in one served dispatch: the answers match the fault-free
        # service and the direct factorization bit for bit
        sizes = [40, 48, 40, 48]           # > 32: getrf runs irrGEMM
        svc_ref = inline_service()
        svc = inline_service()
        dev = svc._slots[0].device
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm"),
                          FaultRule("d2h", at=0)], seed=7)
        mats, rhss = make_round(seed=1, sizes=sizes)
        ref = [unpack(f) for f in submit_round(svc_ref, mats, rhss)]
        with dev.fault_scope(plan):
            got = [unpack(f) for f in submit_round(svc, mats, rhss)]
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert dev.recovery_log.count("transfer-retry") == 1
        assert dev.allocated_bytes == 0
        for (xr, hr), (xg, hg) in zip(ref, got):
            if xr is not None:
                np.testing.assert_array_equal(xr, xg)
            np.testing.assert_array_equal(hr.lu, hg.lu)
        assert_served_equals_direct(mats, [h for _, h in got])
        svc.close()
        svc_ref.close()


class TestServeReplayTraffic:
    def test_500_request_replay_parity(self):
        """500 requests of one recurring signature: every served round's
        factors equal the direct factorization bitwise."""
        svc = inline_service()
        n_requests = 0
        rnd = 0
        while n_requests < 500:
            mats, rhss = make_round(seed=rnd % 7)
            served = [unpack(f) for f in submit_round(svc, mats, rhss)]
            assert_served_equals_direct(mats, [h for _, h in served])
            n_requests += len(mats)
            rnd += 1
        assert svc.stats.snapshot()["failed"] == 0
        svc.close()
