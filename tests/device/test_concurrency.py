"""Thread-safety of device memory accounting and the recovery log.

Concurrent service workers share one :class:`Device` (allocations,
frees) and one device-owned :class:`RecoveryLog` (resilience events).
Before the serving layer these counters were mutated without locks; a
lost update would either leak simulated memory forever or, worse, let
two workers over-commit the device past its capacity.  These tests
hammer the shared structures from many threads and assert the
accounting stays exact.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.batched import BatchEngine, PlanCache, irr_getrf
from repro.batched.interface import IrrBatch
from repro.device import A100, Device, DeviceOutOfMemory
from repro.recovery import RecoveryLog

pytestmark = pytest.mark.serve

N_THREADS = 8
N_ITERS = 150


def _run_threads(fn, n=N_THREADS):
    """Start n threads on fn(tid), propagate the first worker exception."""
    errors = []

    def wrap(tid):
        try:
            fn(tid)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(t,))
               for t in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestMemoryAccountingConcurrency:
    def test_alloc_free_storm_returns_to_baseline(self):
        dev = Device(A100())
        baseline = dev.allocated_bytes

        def worker(tid):
            rng = np.random.default_rng(1000 + tid)
            for _ in range(N_ITERS):
                n = int(rng.integers(1, 64))
                arr = dev.empty((n, n))
                assert arr.nbytes_owned == n * n * 8
                arr.free()

        _run_threads(worker)
        assert dev.allocated_bytes == baseline
        assert dev.peak_allocated_bytes <= dev.spec.memory_capacity

    def test_capacity_is_never_overcommitted(self):
        # A tiny device: threads loop claim/release of just over a
        # quarter of the capacity, so at most three claims may legally
        # coexist.  An unsynchronized check-then-claim would let racing
        # threads pass the capacity test together and over-commit —
        # which the (locked) peak counter would record.
        small = dataclasses.replace(A100(), memory_capacity=1 << 20)
        dev = Device(small)
        chunk = small.memory_capacity // 4 + 1

        def worker(tid):
            for _ in range(N_ITERS):
                try:
                    dev._claim(chunk, site="stress")
                except DeviceOutOfMemory:
                    continue
                assert dev.allocated_bytes <= small.memory_capacity
                dev._release(chunk)

        _run_threads(worker)
        assert dev.allocated_bytes == 0
        assert dev.peak_allocated_bytes <= small.memory_capacity

    def test_held_claim_rejects_every_contender(self):
        # Main holds half+1 bytes; no worker claim of half+1 can ever
        # succeed, whatever the interleaving — the capacity check and
        # the increment are atomic.
        small = dataclasses.replace(A100(), memory_capacity=1 << 20)
        dev = Device(small)
        half = small.memory_capacity // 2 + 1
        dev._claim(half, site="holder")

        def worker(tid):
            for _ in range(N_ITERS):
                try:
                    dev._claim(half, site="stress")
                except DeviceOutOfMemory:
                    continue
                raise AssertionError("over-committed past capacity")

        _run_threads(worker)
        assert dev.allocated_bytes == half
        dev._release(half)
        assert dev.allocated_bytes == 0

    def test_racing_free_releases_exactly_once(self):
        dev = Device(A100())
        for _ in range(50):
            arr = dev.empty((32, 32))
            before = dev.allocated_bytes
            barrier = threading.Barrier(N_THREADS)

            def worker(tid, arr=arr, barrier=barrier):
                barrier.wait()
                arr.free()    # must not raise "double release"

            _run_threads(worker)
            assert dev.allocated_bytes == before - 32 * 32 * 8

    def test_view_free_is_noop_under_concurrency(self):
        dev = Device(A100())
        arr = dev.empty((64, 64))
        views = [arr[0:8, 0:8] for _ in range(N_THREADS)]

        def worker(tid):
            for _ in range(N_ITERS):
                views[tid].free()

        _run_threads(worker)
        assert dev.allocated_bytes == arr.nbytes_owned
        arr.free()
        assert dev.allocated_bytes == 0


class TestPlanCacheConcurrency:
    """The service shares one :class:`BatchEngine` (one
    :class:`PlanCache`) across submitters and the dispatcher, and tests
    assert *zero* misses for recurring shapes — so the cache's counters
    must stay exact under racing ``get_or_build`` calls, and its LRU
    bound must hold."""

    def test_get_or_build_coherent_across_threads(self):
        cache = PlanCache()
        builds = []

        def worker(tid):
            rng = np.random.default_rng(300 + tid)
            for _ in range(N_ITERS):
                key = ("plan", int(rng.integers(0, 10)))

                def build(key=key):
                    builds.append(key)
                    return ("built", key)

                assert cache.get_or_build(key, build) == ("built", key)

        _run_threads(worker)
        # every call either hit or missed; every miss ran one build
        assert cache.hits + cache.misses == N_THREADS * N_ITERS
        assert len(builds) == cache.misses
        assert len(cache) == 10
        assert cache.evictions == 0

    def test_lru_bound_holds_under_racing_inserts(self):
        cache = PlanCache(capacity=4)

        def worker(tid):
            rng = np.random.default_rng(700 + tid)
            for _ in range(N_ITERS):
                key = ("plan", int(rng.integers(0, 16)))
                cache.get_or_build(key, lambda key=key: ("built", key))
                assert len(cache) <= 4

        _run_threads(worker)
        assert len(cache) <= 4
        assert cache.evictions > 0
        assert cache.hits + cache.misses == N_THREADS * N_ITERS

    def test_shared_cache_identical_factors_across_threads(self):
        # Many workers, one PlanCache: each drives its own device and
        # engine (the device wants a single launch owner and the
        # engine's scratch buffers are single-thread state — the
        # service's dispatcher funnel), but all route planning through
        # the shared cache.  Racing plan builds must never change the
        # numerics — every thread's factors must equal the
        # single-threaded reference bitwise.
        rng = np.random.default_rng(42)
        mats = [rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
                for m in (8, 13, 21, 16)]

        def factor_once(engine):
            dev = Device(A100())
            batch = IrrBatch.from_host(dev, [a.copy() for a in mats])
            piv = irr_getrf(dev, batch, engine=engine)
            out = batch.to_host()
            batch.free()
            return out, [ip.copy() for ip in piv.ipiv]

        ref_lu, ref_ipiv = factor_once(BatchEngine("bucketed"))

        shared_cache = PlanCache()
        results = [None] * N_THREADS

        def worker(tid):
            engine = BatchEngine("bucketed", cache=shared_cache)
            results[tid] = factor_once(engine)

        _run_threads(worker)
        for lu, ipiv in results:
            for a, b in zip(lu, ref_lu):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(ipiv, ref_ipiv):
                np.testing.assert_array_equal(a, b)
        # the recurring signature hit the shared cache across threads
        assert shared_cache.hits > 0
        assert shared_cache.hits + shared_cache.misses > 0


class TestRecoveryLogConcurrency:
    def test_concurrent_records_are_all_kept(self):
        log = RecoveryLog()

        def worker(tid):
            for i in range(N_ITERS):
                log.record("transfer-retry", site=f"w{tid}", attempt=i + 1)

        _run_threads(worker)
        assert len(log) == N_THREADS * N_ITERS
        counts = log.counts()
        assert counts == {"transfer-retry": N_THREADS * N_ITERS}
        # every worker's events survived, in a per-worker total of N_ITERS
        for tid in range(N_THREADS):
            assert sum(1 for ev in log if ev.site == f"w{tid}") == N_ITERS

    def test_mark_since_is_consistent_under_writers(self):
        log = RecoveryLog()
        stop = threading.Event()

        def writer(tid):
            while not stop.is_set():
                log.record("cache-evict", site=f"bg{tid}")

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(2)]
        for t in threads:
            t.start()
        try:
            for _ in range(100):
                mark = log.mark()
                log.record("host-fallback", site="me")
                sl = log.since(mark)
                # my event is visible in my slice; the slice is a
                # consistent snapshot (no partial events, no crash).
                assert any(ev.action == "host-fallback" and ev.site == "me"
                           for ev in sl)
        finally:
            stop.set()
            for t in threads:
                t.join()
