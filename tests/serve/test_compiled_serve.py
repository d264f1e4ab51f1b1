"""Served dense groups against compiled ``getrf`` replay.

:class:`SolverService` serves every dense group on the bucketed group
runner and keeps no compiled program.  A
:class:`~repro.batched.program.WorkloadProgram` recorded for a served
group's shapes must still replay the served factors, pivots and
diagnostics bitwise: that is the contract any later change relies on if
it replays recurring group signatures.  The service's own plan cache is
checked here too: it is bounded by ``PLAN_CACHE_CAPACITY`` and its
counters surface in the stats snapshot.
"""

import numpy as np
import pytest

from repro.batched.engine import PlanCache
from repro.batched.program import compile_workload
from repro.device import A100, Device, FaultPlan, FaultRule
from repro.serve import CoalescingPolicy, SolverService, service

pytestmark = [pytest.mark.serve, pytest.mark.compiled]

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


def assert_replays_served(res, handles):
    """The program's replay equals the served handles bit for bit."""
    for i, h in enumerate(handles):
        np.testing.assert_array_equal(res.factors[i], h.lu)
        np.testing.assert_array_equal(res.ipiv[i], h.ipiv)
        assert (res.info[i], res.n_replaced[i], res.min_pivot[i],
                res.growth[i]) == (h.info, h.n_replaced, h.min_pivot,
                                   h.growth)


class TestHotSignatureCompilation:
    def test_bitwise_identical_to_uncompiled_service(self):
        svc = inline_service()
        prog = compile_workload(Device(A100()), "getrf",
                                [(m, m) for m in SIZES])
        for rnd in range(5):
            mats, rhss = make_round(seed=rnd)
            served = [unpack(f) for f in submit_round(svc, mats, rhss)]
            assert_replays_served(prog.run(a=mats),
                                  [h for _, h in served])
        prog.free()
        svc.close()

    def test_replay_zero_misses_zero_allocs(self):
        # recurring groups re-plan nothing on the service's engine, and
        # a program recorded with that engine replays with no planning
        # and no allocation
        dev = Device(A100())
        svc = inline_service(device=dev)
        engine = svc._slots[0].engine
        submit_round(svc, *make_round(seed=0))
        misses0 = engine.cache.misses
        for rnd in range(1, 3):
            submit_round(svc, *make_round(seed=rnd))
        assert engine.cache.misses == misses0
        prog = compile_workload(dev, "getrf", [(m, m) for m in SIZES],
                                engine=engine)
        prog.run(a=make_round(seed=3)[0])
        misses0, allocs0 = engine.cache.misses, dev.alloc_count
        mats, rhss = make_round(seed=77)
        res = prog.run(a=mats)
        assert engine.cache.misses == misses0
        assert dev.alloc_count == allocs0
        futs = submit_round(svc, mats, rhss)
        assert_replays_served(res, [unpack(f)[1] for f in futs])
        prog.free()
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
        prog = compile_workload(Device(A100()), "getrf",
                                [(m, m) for m in SIZES])
        for rnd in range(4):
            mats, _ = make_round(seed=rnd)
            futs = [svc.submit_factor(a) for a in mats]
            svc.run_once()
            assert_replays_served(prog.run(a=mats),
                                  [f.result(0) for f in futs])
        prog.free()
        svc.close()


class TestRepairedRehearsal:
    @pytest.mark.sdc
    def test_repaired_compile_is_not_stored(self):
        # a corrupt fault is repaired in a served dispatch and in a
        # program's rehearsal alike: the served answers match the
        # fault-free service, the repaired rehearsal keeps no program,
        # and a later compile replays the served factors bitwise
        sizes = [40, 48, 40, 48]           # > 32: getrf runs irrGEMM
        shapes = [(m, m) for m in sizes]
        svc_ref = inline_service()
        svc = inline_service()
        dev = svc._slots[0].device
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm")],
                         seed=7)
        mats, rhss = make_round(seed=1, sizes=sizes)
        ref = [unpack(f) for f in submit_round(svc_ref, mats, rhss)]
        with dev.fault_scope(plan):
            got = [unpack(f) for f in submit_round(svc, mats, rhss)]
        assert dev.recovery_log.count("kernel-reexec") >= 1
        for (xr, hr), (xg, hg) in zip(ref, got):
            if xr is not None:
                np.testing.assert_array_equal(xr, xg)
            np.testing.assert_array_equal(hr.lu, hg.lu)
        cdev = Device(A100())
        with cdev.fault_scope(plan):
            assert compile_workload(cdev, "getrf", shapes) is None
        assert cdev.allocated_bytes == 0
        prog = compile_workload(cdev, "getrf", shapes)
        assert_replays_served(prog.run(a=mats), [h for _, h in got])
        prog.free()
        svc.close()
        svc_ref.close()


class TestBoundedPlanCache:
    def test_capacity_and_counters_in_snapshot(self, monkeypatch):
        monkeypatch.setattr(service, "PLAN_CACHE_CAPACITY", 2)
        svc = inline_service()
        rng = np.random.default_rng(0)
        for m in (8, 12, 16, 20, 24):
            svc.factor(rng.standard_normal((m, m)) + 3.0 * m * np.eye(m))
        snap = svc.stats.snapshot()["plan_cache"]
        assert snap["capacity"] == 2
        assert snap["size"] <= 2
        assert snap["evictions"] > 0
        assert snap["misses"] > 0
        svc.close()

    def test_bounded_by_default(self):
        svc = inline_service()
        rng = np.random.default_rng(0)
        svc.factor(rng.standard_normal((8, 8)) + 24 * np.eye(8))
        snap = svc.stats.snapshot()["plan_cache"]
        assert snap["capacity"] == service.PLAN_CACHE_CAPACITY
        assert snap["evictions"] == 0
        svc.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


class TestServeReplayTraffic:
    def test_500_request_replay_parity(self):
        """500 requests of one recurring signature: a program recorded
        once replays every served round's factors bitwise."""
        svc = inline_service()
        prog = compile_workload(Device(A100()), "getrf",
                                [(m, m) for m in SIZES])
        n_requests = 0
        rnd = 0
        while n_requests < 500:
            mats, rhss = make_round(seed=rnd % 7)
            served = [unpack(f) for f in submit_round(svc, mats, rhss)]
            assert_replays_served(prog.run(a=mats),
                                  [h for _, h in served])
            n_requests += len(mats)
            rnd += 1
        assert svc.stats.snapshot()["failed"] == 0
        prog.free()
        svc.close()
