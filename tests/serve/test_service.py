"""SolverService: coalescing, isolation, admission control, sessions.

The sequential reference throughout is the *same service code* with
``CoalescingPolicy(max_batch=1)`` — one request per launch group — which
runs each request through ``irr_getrf``/``irr_getrs``/``SparseLU``
exactly as a lone caller would.  Coalesced results must match it
bitwise (``np.array_equal``), never just to rounding.
"""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, Device
from repro.errors import (DeadlineExceeded, FactorizationError,
                          RequestCancelled, ServiceOverloaded)
from repro.serve import (CoalescingPolicy, FactorHandle, LatencyHistogram,
                         ServeSession, SolverService)
from repro.sparse import SparseLU

from ..sparse.util import grid2d

pytestmark = pytest.mark.serve

RNG = np.random.default_rng(42)


def dense(n, dtype=np.float64, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a.astype(dtype)


def inline_service(device=None, **policy_kw):
    dev = device if device is not None else Device(A100())
    return SolverService(dev, policy=CoalescingPolicy(**policy_kw),
                         start=False)


def sequential_reference(mats, rhss, device=None, **lu_kwargs):
    """One-request-per-launch results for factor_solve requests."""
    svc = inline_service(device=device, max_batch=1)
    futs = [svc.submit_factor_solve(a, b, **lu_kwargs)
            for a, b in zip(mats, rhss)]
    svc.run_once()
    out = [f.result(0) for f in futs]
    svc.close()
    return out


class TestDenseCoalescing:
    def test_factor_solve_bitwise_matches_sequential(self):
        sizes = [8, 24, 16, 8, 48, 33, 16, 5]
        mats = [dense(n, seed=100 + n) for n in sizes]
        rhss = [np.random.default_rng(n).standard_normal(n)
                for n in sizes]
        ref = sequential_reference(mats, rhss)

        svc = inline_service(max_batch=16)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        assert svc.run_once() == 1            # ONE coalesced dispatch
        for fut, (x_ref, h_ref) in zip(futs, ref):
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
            assert np.array_equal(h.ipiv, h_ref.ipiv)
        svc.close()

    def test_coalesced_dispatch_is_one_launch_group(self):
        # N compatible requests must cost the launch count of ONE
        # batched run — identical to a single request's launch count
        # (the batch-size-independent launch structure of the paper),
        # not N times it.
        solo = inline_service(max_batch=1)
        solo.submit_factor(dense(16, seed=1))
        solo.run_once()
        solo_launches = solo.stats.dispatches[0].launches
        solo.close()

        svc = inline_service(max_batch=8)
        for i in range(8):
            svc.submit_factor(dense(16, seed=i))
        svc.run_once()
        assert len(svc.stats.dispatches) == 1
        rec = svc.stats.dispatches[0]
        assert rec.batch_size == 8
        assert rec.launches == solo_launches
        assert svc.stats.coalescing_ratio == 8.0
        assert rec.occupancy == 1.0           # uniform sizes fill fully
        svc.close()

    def test_occupancy_reflects_irregularity(self):
        svc = inline_service(max_batch=4)
        for n in (8, 8, 8, 32):
            svc.submit_factor(dense(n, seed=n))
        svc.run_once()
        rec = svc.stats.dispatches[0]
        want = (3 * 8 * 8 + 32 * 32) / (4 * 32 * 32)
        assert rec.occupancy == pytest.approx(want)
        svc.close()

    def test_incompatible_requests_do_not_coalesce(self):
        svc = inline_service(max_batch=8)
        svc.submit_factor(dense(8, dtype=np.float32, seed=0))
        svc.submit_factor(dense(8, dtype=np.float64, seed=1))
        svc.submit_factor(dense(8, seed=2), pivot_tol=1e-8)
        assert svc.run_once() == 3            # dtype / LU-policy splits
        svc.close()

    def test_oversize_matrix_dispatches_alone(self):
        # A matrix taller than the fused-panel limit must not drag the
        # small ones into the recursive panel split (whose blocking
        # depends on the batch's max_m, breaking bitwise identity).  A
        # shrunken shared memory makes the limit 16 rows (4096/(32*8)),
        # so the 24x24 request is "oversize" cheaply.
        import dataclasses
        spec = dataclasses.replace(A100(), max_shared_per_block=4096)
        sizes = [12, 24, 12, 12]
        mats = [dense(n, seed=n) for n in sizes]
        rhss = [np.random.default_rng(n).standard_normal(n)
                for n in sizes]
        ref = sequential_reference(mats, rhss, device=Device(spec))

        svc = inline_service(device=Device(spec), max_batch=8)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        assert svc.run_once() == 2            # small group + big solo
        sizes_seen = sorted(d.batch_size for d in svc.stats.dispatches)
        assert sizes_seen == [1, 3]
        for fut, (x_ref, h_ref) in zip(futs, ref):
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        svc.close()

    def test_solves_of_any_orders_share_one_group(self):
        # irrTRSM blocks each member on its own order, so solves of
        # base-kernel and recursive orders alike share ONE getrs group
        # and stay bitwise equal to solving each alone.
        svc = inline_service(max_batch=8)
        h_small = [svc.submit_factor(dense(n, seed=i))
                   for i, n in enumerate([16, 24, 32])]
        h_big = [svc.submit_factor(dense(n, seed=i + 10))
                 for i, n in enumerate([40, 40, 48])]
        svc.run_once()
        handles = [f.result(0) for f in h_small + h_big]
        rhss = [np.random.default_rng(i).standard_normal(h.n)
                for i, h in enumerate(handles)]

        ref_svc = inline_service(max_batch=1)
        ref_futs = [ref_svc.submit_solve(h, b)
                    for h, b in zip(handles, rhss)]
        ref_svc.run_once()
        refs = [f.result(0) for f in ref_futs]
        ref_svc.close()

        n0 = len(svc.stats.dispatches)
        futs = [svc.submit_solve(h, b) for h, b in zip(handles, rhss)]
        assert svc.run_once() == 1
        recs = svc.stats.dispatches[n0:]
        assert [r.batch_size for r in recs] == [6]
        for fut, x_ref in zip(futs, refs):
            assert np.array_equal(fut.result(0), x_ref)
        svc.close()

    def test_multi_column_rhs_roundtrip(self):
        a = dense(20, seed=3)
        B = np.random.default_rng(4).standard_normal((20, 5))
        svc = inline_service()
        x, handle = svc.factor_solve(a, B)
        assert x.shape == (20, 5)
        np.testing.assert_allclose(a @ x, B, atol=1e-10)
        x2 = svc.solve(handle, B)
        assert np.array_equal(x2, x)
        svc.close()

    def test_rectangular_factor_allowed_solve_refused(self):
        svc = inline_service()
        h = svc.factor(np.random.default_rng(0).standard_normal((12, 8)))
        assert isinstance(h, FactorHandle) and (h.m, h.n) == (12, 8)
        with pytest.raises(ValueError, match="rectangular"):
            svc.submit_solve(h, np.zeros(8))
        with pytest.raises(ValueError, match="square"):
            svc.submit_factor_solve(
                np.random.default_rng(0).standard_normal((12, 8)),
                np.zeros(12))
        svc.close()

    def test_breakdown_isolated_to_its_request(self):
        good = [dense(10, seed=7), dense(10, seed=8)]
        rhss = [np.random.default_rng(i).standard_normal(10)
                for i in (7, 8)]
        ref = sequential_reference(good, rhss)

        svc = inline_service(max_batch=8)
        bad = np.zeros((10, 10))              # singular: breaks down
        f0 = svc.submit_factor_solve(good[0], rhss[0])
        fb = svc.submit_factor_solve(bad, np.ones(10))
        f1 = svc.submit_factor_solve(good[1], rhss[1])
        svc.run_once()
        with pytest.raises(FactorizationError, match="breakdown"):
            fb.result(0)
        # the poisoned batch member changed nothing for its neighbours
        for fut, (x_ref, h_ref) in zip((f0, f1), ref):
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        assert svc.stats.snapshot()["failed"] == 1
        svc.close()

    def test_static_pivot_recovers_in_service(self):
        a = dense(12, seed=9)
        a[:, 3] = a[:, 5]                     # singular: pivot ~ 1e-16
        svc = inline_service()
        with pytest.raises(FactorizationError):
            svc.factor(a, pivot_tol=1e-8)
        h = svc.factor(a, pivot_tol=1e-8, static_pivot=True)
        assert h.ok and h.n_replaced > 0
        svc.close()

    def test_solve_from_broken_handle_refused_synchronously(self):
        svc = inline_service()
        fut = svc.submit_factor(np.zeros((6, 6)))
        svc.run_once()
        with pytest.raises(FactorizationError):
            fut.result(0)
        h_ok = svc.factor(dense(6, seed=1))
        with pytest.raises(TypeError):
            svc.submit_solve(object(), np.zeros(6))
        with pytest.raises(ValueError, match="rows"):
            svc.submit_solve(h_ok, np.zeros(7))
        with pytest.raises(TypeError, match="dtype"):
            svc.submit_solve(svc.factor(dense(6, np.float32, seed=2)),
                             np.zeros(6, dtype=np.float64))
        svc.close()


class TestAdmissionControl:
    def test_bounded_queue_rejects_with_typed_error(self):
        svc = inline_service(max_queue=3)
        for i in range(3):
            svc.submit_factor(dense(8, seed=i))
        with pytest.raises(ServiceOverloaded, match="retry later") as ei:
            svc.submit_factor(dense(8, seed=99))
        assert ei.value.queue_depth == 3 and ei.value.max_queue == 3
        assert svc.stats.snapshot()["rejected"] == 1
        svc.run_once()                        # drains; admission reopens
        svc.submit_factor(dense(8, seed=100))
        svc.run_once()
        svc.close()

    def test_deadline_expires_before_dispatch(self):
        svc = inline_service()
        fut = svc.submit_factor(dense(8, seed=0), deadline=0.0)
        live = svc.submit_factor(dense(8, seed=1))
        svc.run_once()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            fut.result(0)
        assert live.result(0).ok
        assert svc.stats.snapshot()["expired"] == 1
        svc.close()

    def test_cancel_queued_request(self):
        svc = inline_service()
        fut = svc.submit_factor(dense(8, seed=0))
        live = svc.submit_factor(dense(8, seed=1))
        assert fut.cancel() is True
        assert fut.cancel() is False          # already resolved
        with pytest.raises(RequestCancelled):
            fut.result(0)
        svc.run_once()
        assert live.result(0).ok
        assert svc.stats.snapshot()["cancelled"] == 1
        svc.close()

    def test_cannot_cancel_after_dispatch(self):
        svc = inline_service()
        fut = svc.submit_factor(dense(8, seed=0))
        svc.run_once()
        assert fut.cancel() is False
        assert fut.result(0).ok
        svc.close()

    def test_close_drains_pending_work(self):
        dev = Device(A100())
        svc = SolverService(dev, policy=CoalescingPolicy(max_wait=10.0,
                                                         max_batch=64))
        futs = [svc.submit_factor(dense(8, seed=i)) for i in range(5)]
        svc.close()                            # must not strand futures
        for f in futs:
            assert f.result(0).ok
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit_factor(dense(8, seed=9))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            CoalescingPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            CoalescingPolicy(max_wait=-1.0)
        with pytest.raises(ValueError, match="max_queue"):
            CoalescingPolicy(max_queue=0)
        svc = inline_service()
        with pytest.raises(TypeError, match="unknown LU"):
            svc.submit_factor(dense(8), bogus=1)
        with pytest.raises(ValueError, match="deadline"):
            svc.submit_factor(dense(8), deadline=-1.0)
        svc.close()


class TestConcurrentTraffic:
    def test_threaded_submitters_all_bitwise_correct(self):
        n_threads, per_thread = 6, 4
        sizes = [10, 14, 18]
        mats, rhss = [], []
        for t in range(n_threads):
            for i in range(per_thread):
                n = sizes[(t + i) % len(sizes)]
                mats.append(dense(n, seed=1000 + t * 10 + i))
                rhss.append(np.random.default_rng(t * 10 + i)
                            .standard_normal(n))
        ref = sequential_reference(mats, rhss)

        dev = Device(A100())
        results = [None] * len(mats)
        with SolverService(dev, policy=CoalescingPolicy(
                max_batch=8, max_wait=5e-3)) as svc:
            def worker(t):
                for i in range(per_thread):
                    k = t * per_thread + i
                    results[k] = svc.factor_solve(mats[k], rhss[k],
                                                  timeout=60)

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            snap = svc.stats.snapshot()
        for k, (x_ref, h_ref) in enumerate(ref):
            x, h = results[k]
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        assert snap["completed"] == len(mats)
        assert snap["failed"] == 0
        assert dev.allocated_bytes == 0


class TestSparseSessions:
    def test_session_solve_bitwise_matches_direct_sparselu(self):
        a = grid2d(11, 9)
        b = np.random.default_rng(5).standard_normal(99)
        dev_ref = Device(A100())
        ref_solver = SparseLU(a).analyze()
        ref_solver.factor(backend="batched", device=dev_ref)
        x_ref, _ = ref_solver.solve(b, device=dev_ref)

        svc = inline_service()
        sess = None
        try:
            fut = svc.submit_factor(sp.csr_matrix(a))
            svc.run_once()
            sess = fut.result(0)
            assert isinstance(sess, ServeSession)
            fut2 = svc.submit_solve(sess, b)
            svc.run_once()
            x, info = fut2.result(0)
            assert np.array_equal(x, x_ref)
            assert info.final_residual < 1e-12
        finally:
            if sess is not None:
                sess.close()
            svc.close()

    def test_arbiter_splits_and_restores_budget(self):
        total = 1 << 22
        dev = Device(A100())
        svc = SolverService(dev, sparse_memory_budget=total, start=False)
        f1 = svc.submit_factor(grid2d(10, 10), backend="cpu")
        svc.run_once()
        s1 = f1.result(0)
        assert s1.budget == total
        f2 = svc.submit_factor(grid2d(8, 8), backend="cpu")
        svc.run_once()
        s2 = f2.result(0)
        assert s1.budget == total // 2 == s2.budget
        s2.close()
        assert s1.budget == total
        assert svc.stats.snapshot()["rebudgets"] >= 3
        s1.close()
        svc.close()
        assert dev.allocated_bytes == 0

    def test_closed_session_refuses_solves(self):
        svc = inline_service()
        fut = svc.submit_factor(grid2d(6, 6), backend="cpu")
        svc.run_once()
        sess = fut.result(0)
        sess.close()
        sess.close()                           # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit_solve(sess, np.zeros(36))
        svc.close()

    def test_sparse_factor_solve_one_shot(self):
        a = grid2d(9, 9)
        b = np.random.default_rng(6).standard_normal(81)
        svc = inline_service()
        fut = svc.submit_factor_solve(a, b, refine_steps=1)
        svc.run_once()
        x, info = fut.result(0)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-12
        assert svc._slots[0].arbiter.n_active == 0       # one-shot session closed
        svc.close()


class TestStats:
    def test_latency_histogram(self):
        h = LatencyHistogram()
        for v in (1e-7, 1e-5, 1e-3, 0.1, 5.0):
            h.record(v)
        assert h.count == 5
        assert h.max == 5.0
        assert h.mean == pytest.approx(sum((1e-7, 1e-5, 1e-3, 0.1, 5.0))
                                       / 5)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        snap = h.snapshot()
        assert snap["count"] == 5 and snap["p95"] >= snap["p50"]

    def test_wait_and_exec_latencies_recorded(self):
        svc = inline_service()
        svc.submit_factor(dense(8, seed=0))
        svc.run_once()
        snap = svc.stats.snapshot()
        assert snap["wait"]["count"] == 1
        assert snap["exec"]["count"] == 1
        assert snap["queue_peak"] == 1 and snap["queue_depth"] == 0
        svc.close()
