"""Chaos suite for the serving layer (``-m "chaos and serve"``).

The service contract under injected faults mirrors the pipeline-level
chaos contract, sharpened to *per-request* granularity:

- every submitted future resolves — with a result or a typed error
  (never a hang, never an untyped exception);
- a request that resolves successfully is **bitwise identical** to the
  same request run sequentially on a fault-free device (launch faults
  fire before numerics and transfer corruption is checksum-repaired, so
  survival implies exactness);
- a fault pinned to one kernel family fails only the requests that use
  that kernel — their batch neighbours and other request kinds are
  untouched; and
- device memory accounting returns to baseline, success or failure.

Schedules are pure functions of ``(seed, rules)``: a failing seed
reproduces exactly.
"""

import threading

import numpy as np
import pytest

from repro.device import A100, Device, FaultPlan, FaultRule
from repro.device.faults import PERSISTENT
from repro.errors import (CorruptionDetected, KernelLaunchError,
                          ResourceExhausted, TransferError)
from repro.serve import CoalescingPolicy, SolverService

pytestmark = [pytest.mark.chaos, pytest.mark.serve,
              pytest.mark.filterwarnings("error::RuntimeWarning")]

TYPED_FAILURES = (TransferError, ResourceExhausted, KernelLaunchError)
SEEDS = [3, 17, 101, 2024]
SIZES = [8, 20, 12, 8, 24, 16, 12, 5]


def storm(seed, p=0.02):
    """A transient-fault storm: every fault site misbehaves sometimes."""
    return FaultPlan([FaultRule("alloc", probability=p),
                      FaultRule("h2d", probability=p),
                      FaultRule("d2h", probability=p),
                      FaultRule("launch", probability=p),
                      FaultRule("stall", probability=p, stall=1e-4)],
                     seed=seed)


def dense(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    return a


def traffic():
    mats = [dense(n, seed=i) for i, n in enumerate(SIZES)]
    rhss = [np.random.default_rng(100 + i).standard_normal(n)
            for i, n in enumerate(SIZES)]
    return mats, rhss


def fault_free_reference(mats, rhss):
    """Each request solo through the identical service code path."""
    svc = SolverService(Device(A100()),
                        policy=CoalescingPolicy(max_batch=1),
                        start=False)
    futs = [svc.submit_factor_solve(a, b) for a, b in zip(mats, rhss)]
    svc.run_once()
    out = [f.result(0) for f in futs]
    svc.close()
    return out


class TestServeStorm:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_inline_storm_isolates_per_request(self, seed):
        mats, rhss = traffic()
        ref = fault_free_reference(mats, rhss)

        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=4),
                            start=False)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        with dev.fault_scope(storm(seed)):
            svc.run_once()
        for fut, (x_ref, h_ref) in zip(futs, ref):
            err = fut.exception(0)
            if err is not None:
                assert isinstance(err, TYPED_FAILURES)
                continue
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        svc.close()
        assert dev.allocated_bytes == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_live_concurrent_storm(self, seed):
        mats, rhss = traffic()
        ref = fault_free_reference(mats, rhss)

        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=8,
                                                         max_wait=5e-3))
        results = {}
        lock = threading.Lock()

        def client(i):
            fut = svc.submit_factor_solve(mats[i], rhss[i])
            try:
                got = fut.result(30.0)
            except TYPED_FAILURES as exc:
                got = exc
            with lock:
                results[i] = got

        with dev.fault_scope(storm(seed)):
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(mats))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        svc.close()

        assert sorted(results) == list(range(len(mats)))
        for i, (x_ref, h_ref) in enumerate(ref):
            got = results[i]
            if isinstance(got, TYPED_FAILURES):
                continue                      # typed failure: in contract
            x, h = got
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        snap = svc.stats.snapshot()
        assert snap["completed"] + snap["failed"] == len(mats)
        assert dev.allocated_bytes == 0


class TestFaultKindIsolation:
    def test_persistent_solve_fault_spares_factors(self):
        """A launch fault pinned to the ``irrgetrs`` kernel kills solve
        requests with a typed error while factor requests — dispatched
        through different kernels on the same device — keep succeeding
        bitwise."""
        mats, _ = traffic()
        ref = fault_free_reference(mats, [np.zeros(n) for n in SIZES])

        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=8),
                            start=False)
        handles = [svc.submit_factor(a) for a in mats[:3]]
        svc.run_once()
        handles = [f.result(0) for f in handles]

        plan = FaultPlan([FaultRule("launch", at=0, times=PERSISTENT,
                                    match="irrgetrs")], seed=0)
        with dev.fault_scope(plan):
            solves = [svc.submit_solve(h, np.ones(h.n))
                      for h in handles]
            factors = [svc.submit_factor(a) for a in mats[3:]]
            svc.run_once()

        for fut in solves:
            assert isinstance(fut.exception(0), KernelLaunchError)
        for fut, a, (_, h_ref) in zip(factors, mats[3:], ref[3:]):
            h = fut.result(0)
            assert np.array_equal(h.lu, h_ref.lu)
        # the poisoned kernel family left no residue: the same solves
        # succeed once the scope lifts
        x = svc.solve(handles[0], np.ones(handles[0].n))
        assert np.all(np.isfinite(x))
        svc.close()
        assert dev.allocated_bytes == 0

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_transient_faults_recover_invisibly(self, seed):
        """A handful of positional transient faults (one retry each) are
        absorbed by the dispatch ladder: every request succeeds and the
        results are bitwise identical to the fault-free reference."""
        mats, rhss = traffic()
        ref = fault_free_reference(mats, rhss)

        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=4),
                            start=False)
        plan = FaultPlan([FaultRule("launch", at=1),
                          FaultRule("h2d", at=2),
                          FaultRule("d2h", at=0)], seed=seed)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        with dev.fault_scope(plan):
            svc.run_once()
        for fut, (x_ref, h_ref) in zip(futs, ref):
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        assert svc.stats.snapshot()["failed"] == 0
        svc.close()
        assert dev.allocated_bytes == 0


@pytest.mark.sdc
class TestServeCorruptionStorm:
    """Service-level SDC contract: every future resolves with either a
    result bitwise identical to the fault-free reference or a typed
    error; corruptions and re-executions are visible in the stats; a
    sustained storm opens the circuit breaker, and the breaker closes
    (compiled fast path resuming) once the faults clear."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupt_storm_zero_undetected(self, seed):
        mats, rhss = traffic()
        ref = fault_free_reference(mats, rhss)
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=4),
                            start=False)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        plan = FaultPlan([FaultRule("corrupt", probability=0.25)],
                         seed=seed)
        with dev.fault_scope(plan) as inj:
            svc.run_once()
        for fut, (x_ref, h_ref) in zip(futs, ref):
            err = fut.exception(0)
            if err is not None:
                assert isinstance(err, CorruptionDetected)
                continue
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        snap = svc.stats.snapshot()
        if inj.n_injected:
            assert snap["kernel_reexecs"] > 0
        svc.close()
        assert dev.allocated_bytes == 0

    def test_persistent_corruption_fails_typed_never_wrong(self):
        mats, rhss = traffic()
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_batch=4),
                            start=False)
        plan = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                                    match="irrgetf2")], seed=1)
        futs = [svc.submit_factor(a) for a in mats]
        with dev.fault_scope(plan):
            svc.run_once()
        # every future resolved: a handle that round-trips, or typed
        for fut, a in zip(futs, mats):
            err = fut.exception(0)
            if err is not None:
                assert isinstance(err, CorruptionDetected)
                continue
            h = fut.result(0)
            x = svc.solve(h, a @ np.ones(h.n))
            np.testing.assert_allclose(x, np.ones(h.n), atol=1e-8)
        snap = svc.stats.snapshot()
        assert snap["corruptions_detected"] > 0
        svc.close()
        assert dev.allocated_bytes == 0

    def test_breaker_opens_degrades_and_recloses(self):
        a = dense(48, 0)
        dev = Device(A100())
        pol = CoalescingPolicy(max_batch=4, compile_hot=True,
                               hot_threshold=2)
        svc = SolverService(dev, policy=pol, start=False)
        ref = svc.factor(a)

        def round_trip():
            fut = svc.submit_factor(a)
            svc.run_once()
            return fut.result(0)

        round_trip()
        assert svc.stats.snapshot()["compiled_dispatches"] >= 1

        # persistent corruption pinned to the compiled program's fused
        # replay steps: the compiled rung keeps failing, the bucketed
        # fallback (whose launches are not "fused[...]") stays clean
        plan = FaultPlan([FaultRule("corrupt", at=0, times=PERSISTENT,
                                    match="fused[")], seed=5)
        with dev.fault_scope(plan):
            for _ in range(10):
                h = round_trip()
                np.testing.assert_array_equal(h.lu, ref.lu)
            snap = svc.stats.snapshot()
            assert snap["breaker_state"] in ("open", "half-open")
            assert snap["corruptions_detected"] > 0
            assert snap["kernel_reexecs"] > 0
            assert snap["degraded_dispatches"] > 0
            assert snap["failed"] == 0
            assert "circuit breaker open" in snap["degraded_reason"]

        # faults clear: a half-open probe closes the breaker and the
        # compiled fast path resumes
        before = svc.stats.snapshot()["compiled_dispatches"]
        for _ in range(20):
            h = round_trip()
            np.testing.assert_array_equal(h.lu, ref.lu)
        snap = svc.stats.snapshot()
        assert snap["breaker_state"] == "closed"
        assert snap["degraded_reason"] is None
        assert snap["compiled_dispatches"] > before
        assert svc._slots[0].breaker.probes >= 1
        svc.close()
        assert dev.allocated_bytes == 0

    def test_severity_two_steers_sparse_sessions_to_host(self):
        from ..sparse.util import grid2d
        dev = Device(A100())
        svc = SolverService(dev, start=False)
        # drive the breaker to severity 2 directly (the state machine
        # is unit-tested in tests/serve/test_health.py; here we check
        # the service honours it)
        for _ in range(8):
            svc._slots[0].breaker.record(3)
        while not svc._slots[0].breaker.force_host():
            svc._slots[0].breaker.record(3)
        a = grid2d(9, 9)
        fut = svc.submit_factor(a)
        svc.run_once()
        session = fut.result(0)
        # the session factored on the host: no device kernels ran
        assert svc._slots[0].breaker.force_host()
        b = np.ones(81)
        x, info = svc.solve(session, b)
        assert np.abs(a @ x - b).max() < 1e-10
        session.close()
        svc.close()
        assert dev.allocated_bytes == 0

