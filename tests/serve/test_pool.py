"""SolverService over a multi-device node — bitwise parity with the
one-device service, plus routing and isolation."""

import numpy as np
import pytest

from repro.device import A100, Device, Node
from repro.serve import CircuitBreaker, CoalescingPolicy, SolverService

pytestmark = pytest.mark.multidev


def dense_workload(n_reqs=24, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_reqs):
        n = int(rng.integers(8, 40))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        out.append((a, rng.standard_normal(n)))
    return out


def sparse_grid(nx, ny, seed=0):
    from ..sparse.util import grid2d
    return grid2d(nx, ny, seed=seed)


def drain(svc, futs):
    while any(not f.done() for f in futs):
        svc.run_once()
    return [f.result() for f in futs]


def make(n_devices, **kw):
    kw.setdefault("policy", CoalescingPolicy(max_batch=8))
    if n_devices == 1:
        return SolverService(Device(A100()), start=False, **kw)
    return SolverService(Node(A100(), n_devices), start=False, **kw)


class TestPooledParity:
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_factor_solve_bitwise_vs_single_service(self, n_devices):
        work = dense_workload()
        ref_svc = make(1)
        ref = drain(ref_svc, [ref_svc.submit_factor_solve(a, b)
                              for a, b in work])
        ref_svc.close()
        svc = make(n_devices)
        got = drain(svc, [svc.submit_factor_solve(a, b) for a, b in work])
        for (x0, h0), (x1, h1) in zip(ref, got):
            assert np.array_equal(x0, x1)
            assert np.array_equal(h0.lu, h1.lu)
            assert np.array_equal(h0.ipiv, h1.ipiv)
        svc.close()

    def test_dense_solve_routes_anywhere_bitwise(self, rng):
        work = dense_workload(8)
        svc = make(4)
        handles = [h for h in drain(
            svc, [svc.submit_factor(a) for a, _ in work])]
        xs = drain(svc, [svc.submit_solve(h, b)
                         for h, (_, b) in zip(handles, work)])
        ref_svc = make(1)
        ref_h = drain(ref_svc, [ref_svc.submit_factor(a) for a, _ in work])
        ref_x = drain(ref_svc, [ref_svc.submit_solve(h, b)
                                for h, (_, b) in zip(ref_h, work)])
        for x0, x1 in zip(ref_x, xs):
            assert np.array_equal(x0, x1)
        ref_svc.close()
        svc.close()


class TestRouting:
    def test_load_spreads_across_devices(self):
        svc = make(4, policy=CoalescingPolicy(max_batch=2))
        drain(svc, [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(32)])
        devs = svc.stats.snapshot()["devices"]
        assert set(devs) == {0, 1, 2, 3}
        assert all(d["dispatches"] > 0 for d in devs.values())
        assert all(d["link_bytes"] > 0 for d in devs.values())
        svc.close()

    def test_sparse_sessions_stick_to_their_device(self, rng):
        svc = make(4, policy=CoalescingPolicy(max_batch=4))
        node = svc.device
        mats = [sparse_grid(9 + i, 8, seed=i) for i in range(6)]
        sessions = [drain(svc, [svc.submit_factor(a)])[0] for a in mats]
        homes = {s.sid: node.index_of(s.device) for s in sessions}
        assert len(set(homes.values())) > 1      # spread over devices
        for s, a in zip(sessions, mats):
            b = rng.standard_normal(a.shape[0])
            launches = [d.profiler.launch_count for d in node]
            (x, info), = drain(svc, [svc.submit_solve(s, b)])
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10
            # stickiness: the solve ran on the session's home device only
            ran = [i for i, d in enumerate(node)
                   if d.profiler.launch_count != launches[i]]
            assert ran == [homes[s.sid]]
        for s in sessions:
            s.close()
        svc.close()
        assert node.allocated_bytes == 0

    def test_open_breaker_diverts_new_work(self):
        svc = make(4)
        # trip device 0's breaker by hand
        b0 = svc._slots[0].breaker
        for _ in range(b0.min_observations):
            b0.record(1)
        assert b0.state == "open"
        drain(svc, [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(16)])
        devs = svc.stats.snapshot()["devices"]
        assert 0 not in devs or devs[0]["dispatches"] == 0
        for i in (1, 2, 3):
            assert svc._slots[i].breaker.state == "closed"
        svc.close()

    def test_skipped_open_breaker_half_opens_and_serves_again(self):
        # an open breaker's cooldown counts the service's dispatches, so
        # a device that placement skips still half-opens, takes the
        # next group as its probe, and closes on a clean one
        svc = make(2)
        b0 = svc._slots[0].breaker
        for _ in range(b0.min_observations):
            b0.record(1)
        assert b0.state == "open"
        a = np.random.default_rng(3).standard_normal((16, 16)) \
            + 16 * np.eye(16)
        for _ in range(200):
            svc.factor(a)
        assert b0.state == "closed"
        assert b0.probes == 1
        devs = svc.stats.snapshot()["devices"]
        assert devs[0]["breaker_state"] == "closed"
        assert devs[0]["dispatches"] == devs[1]["dispatches"] == 100
        svc.close()

    def test_all_breakers_open_still_serves(self):
        svc = make(2)
        for slot in svc._slots:
            for _ in range(slot.breaker.min_observations):
                slot.breaker.record(1)
        (x, _), = drain(svc, [svc.submit_factor_solve(
            *dense_workload(1)[0])])
        assert np.all(np.isfinite(x))
        svc.close()


class TestBudgetsAndStats:
    def test_budget_splits_evenly_per_device(self):
        svc = make(4, sparse_memory_budget=64 << 20)
        shares = {slot.arbiter.share() for slot in svc._slots}
        assert shares == {(64 << 20) // 4}
        svc.close()

    def test_resident_bytes_stay_under_device_share(self, rng):
        svc = make(4, sparse_memory_budget=64 << 20)
        sessions = []
        for i in range(8):
            a = sparse_grid(10 + i, 9, seed=i)
            s, = drain(svc, [svc.submit_factor(a)])
            b = rng.standard_normal(a.shape[0])
            drain(svc, [svc.submit_solve(s, b)])
            sessions.append(s)
        devs = svc.stats.snapshot()["devices"]
        for idx, d in devs.items():
            assert d["resident_factor_bytes"] <= svc._slots[idx].arbiter.share()
        for s in sessions:
            s.close()
        svc.close()

    def test_opened_session_holds_no_more_than_its_share(self, rng):
        # the factorization leaves the factors on the device; a session
        # whose share cannot hold them keeps them on the host instead
        svc = make(1, sparse_memory_budget=4096)
        s, = drain(svc, [svc.submit_factor(sparse_grid(12, 9))])
        slot = svc._slots[0]
        cache = s.solver.solve_cache
        layout_nbytes = cache.factors.dtype.itemsize * sum(
            lp.elements for lp in cache.layout.levels)
        assert layout_nbytes > slot.arbiter.share()
        assert slot.device.allocated_bytes == 0
        (x, info), = drain(svc, [svc.submit_solve(s, rng.standard_normal(
            108))])
        assert info.final_residual < 1e-13
        s.close()
        svc.close()

    def test_resident_bytes_follow_the_device(self):
        # residency reports what is allocated, not the levels the cache
        # would keep: a session over its share holds nothing, and
        # neither does a freed or released cache
        def resident(svc):
            return svc.stats.snapshot()["devices"][0][
                "resident_factor_bytes"]

        svc = make(1, sparse_memory_budget=4096)
        s, = drain(svc, [svc.submit_factor(sparse_grid(12, 9))])
        assert svc._slots[0].device.allocated_bytes == 0
        assert s.solver.solve_cache.resident_nbytes == 0
        assert resident(svc) == 0
        s.close()
        svc.close()
        svc = make(1)
        dev = svc._slots[0].device
        for drop in ("free", "release"):
            s, = drain(svc, [svc.submit_factor(sparse_grid(12, 9))])
            cache = s.solver.solve_cache
            assert resident(svc) == cache.resident_nbytes == \
                dev.allocated_bytes > 0
            getattr(cache, drop)()
            drain(svc, [svc.submit_factor_solve(*dense_workload(1)[0])])
            assert cache.resident_nbytes == dev.allocated_bytes == 0
            assert cache.resident_levels == set()
            assert resident(svc) == 0
            s.close()
        svc.close()

    def test_snapshot_device_schema(self):
        svc = make(2)
        drain(svc, [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(6)])
        devs = svc.stats.snapshot()["devices"]
        assert devs, "per-device counters missing"
        for d in devs.values():
            for key in ("dispatches", "coalesced_requests", "launches",
                        "occupancy_total", "sim_seconds", "link_bytes",
                        "resident_factor_bytes", "degraded_dispatches",
                        "breaker_state", "mean_occupancy"):
                assert key in d
            assert d["breaker_state"] == "closed"
            assert d["mean_occupancy"] > 0
        svc.close()

    def test_plan_cache_sums_every_device(self):
        svc = make(4, policy=CoalescingPolicy(max_batch=2))
        drain(svc, [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(32)])
        snap = svc.stats.snapshot()["plan_cache"]
        caches = [slot.engine.cache for slot in svc._slots]
        assert sum(c.misses > 0 for c in caches) > 1
        assert snap["misses"] == sum(c.misses for c in caches)
        assert snap["hits"] == sum(c.hits for c in caches)
        assert snap["size"] == sum(len(c) for c in caches)
        svc.close()


class TestLifecycle:
    def test_rejects_neither_device_nor_node(self):
        with pytest.raises(TypeError, match="Device or a Node"):
            SolverService(A100(), start=False)

    def test_breaker_needs_a_single_device(self):
        with pytest.raises(TypeError, match="breaker"):
            SolverService(Node(A100(), 2), breaker=CircuitBreaker(),
                          start=False)

    def test_close_is_idempotent_and_frees_node(self):
        svc = make(4)
        drain(svc, [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(8)])
        svc.close()
        svc.close()
        assert svc.device.allocated_bytes == 0

    def test_threaded_pool_smoke(self):
        node = Node(A100(), 2)
        svc = SolverService(node, policy=CoalescingPolicy(max_batch=4))
        try:
            futs = [svc.submit_factor_solve(a, b)
                    for a, b in dense_workload(8)]
            xs = [f.result(timeout=30)[0] for f in futs]
            assert all(np.all(np.isfinite(x)) for x in xs)
        finally:
            svc.close()
        assert node.allocated_bytes == 0
