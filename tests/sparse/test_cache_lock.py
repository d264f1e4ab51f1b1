"""Concurrent solves on one SparseLU handle share one factor cache.

The serving layer multiplexes sessions: two `solve()` calls on the same
handle can land on different threads, yet they share a single
:class:`DeviceFactorCache`.  Without per-handle serialization, one
solve's LRU eviction interleaves with the other's upload and corrupts
the residency bookkeeping (or frees blocks out from under a running
sweep).  These tests storm a shared handle from many threads and assert
the solves stay bitwise-identical to sequential execution and the
device accounting stays exact.
"""

import sys
import threading

import numpy as np
import pytest

from repro.device import A100, Device
from repro.sparse import DeviceFactorCache, SolvePlan, SparseLU, \
    multifrontal_factor_cpu, nested_dissection, symbolic_analysis

from .util import grid2d

pytestmark = pytest.mark.serve

N_THREADS = 6
N_SOLVES = 5


def _run_threads(fn, n=N_THREADS):
    errors = []

    def wrap(tid):
        try:
            fn(tid)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(t,)) for t in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _factored_solver(budget_frac=None):
    """A factored handle + a budget that forces mid-solve evictions."""
    solver = SparseLU(grid2d(12, 12)).analyze().factor(backend="cpu")
    budget = None
    if budget_frac is not None:
        plan = SolvePlan(solver.factors)
        budget = max(1, plan.total_nbytes() // budget_frac)
    return solver, budget


class TestSharedHandleSolves:
    def test_concurrent_solves_match_sequential(self):
        # Budget holds roughly a third of the levels, so each sweep both
        # uploads and evicts — the interleaving a missing lock corrupts.
        solver, budget = _factored_solver(budget_frac=3)
        dev = Device(A100())
        rng = np.random.default_rng(7)
        rhs = [rng.standard_normal(144) for _ in range(N_THREADS)]
        want = [solver.solve(b, device=dev, memory_budget=budget)[0]
                for b in rhs]
        steady = dev.allocated_bytes  # resident levels stay on device

        def worker(tid):
            for _ in range(N_SOLVES):
                x, info = solver.solve(rhs[tid], device=dev,
                                       memory_budget=budget)
                # device never fell back to the host mid-storm
                assert not any(ev.action == "host-fallback"
                               for ev in info.recovery)
                assert np.array_equal(x, want[tid])

        _run_threads(worker)
        assert dev.allocated_bytes == steady
        solver.solve_cache.free()
        assert dev.allocated_bytes == 0

    def test_budget_churn_across_threads(self):
        # Threads alternate between two budgets on one handle: every
        # switch frees the old cache and builds a new one — the exact
        # window where an unsynchronized solve would sweep over freed
        # blocks.  Serialized, every solve still matches the host.
        solver, small = _factored_solver(budget_frac=4)
        dev = Device(A100())
        rng = np.random.default_rng(11)
        b = rng.standard_normal(144)
        want, _ = solver.solve(b)  # host reference

        def worker(tid):
            budget = small if tid % 2 else None
            for _ in range(N_SOLVES):
                x, _info = solver.solve(b, device=dev, memory_budget=budget)
                np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-14)

        _run_threads(worker)
        solver.solve_cache.free()
        assert dev.allocated_bytes == 0


class TestStoreBackedHandle:
    def test_host_and_device_solves_share_one_download(self):
        # The factorization's store backs the handle: the first host
        # solve downloads it while device solves sweep the same levels.
        def factored():
            s = SparseLU(grid2d(12, 12)).analyze()
            s.factor(backend="batched", device=Device(A100()))
            return s

        solver, ref = factored(), factored()
        dev = solver.solve_cache.device
        held = dev.allocated_bytes
        rng = np.random.default_rng(5)
        rhs = [rng.standard_normal(144) for _ in range(N_THREADS)]
        want = [ref.solve(b, device=ref.solve_cache.device)[0] if t % 2
                else ref.solve(b)[0] for t, b in enumerate(rhs)]

        def worker(tid):
            for _ in range(N_SOLVES):
                x, _info = solver.solve(rhs[tid],
                                        device=dev if tid % 2 else None)
                assert np.array_equal(x, want[tid])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert dev.allocated_bytes == held
        assert solver.solve_cache.uploads == 0


class TestCacheExclusive:
    def _fixture(self):
        a = grid2d(9, 9)
        nd = nested_dissection(a, leaf_size=8)
        ap = a[nd.perm][:, nd.perm].tocsr()
        fac = multifrontal_factor_cpu(ap, symbolic_analysis(ap, nd))
        plan = SolvePlan(fac)
        dev = Device(A100())
        return dev, fac, plan

    def test_exclusive_is_reentrant_with_operations(self):
        dev, fac, plan = self._fixture()
        cache = DeviceFactorCache(dev, fac, plan,
                                  memory_budget=plan.total_nbytes() // 2)
        li = min(cache.resident_levels) if cache.resident_levels else 0
        with cache.exclusive():
            blocks, owned = cache.acquire(li, "fwd")
            if owned:
                blocks.free()
            cache.evict_lru()   # nests under exclusive() without deadlock
            cache.free()
        assert dev.allocated_bytes == 0

    def test_exclusive_blocks_second_holder(self):
        dev, fac, plan = self._fixture()
        cache = DeviceFactorCache(dev, fac, plan)
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with cache.exclusive():
                entered.set()
                release.wait(timeout=5)
                order.append("holder-exit")

        def contender():
            entered.wait(timeout=5)
            with cache.exclusive():
                order.append("contender-enter")

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=contender)
        t1.start()
        t2.start()
        entered.wait(timeout=5)
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert order == ["holder-exit", "contender-enter"]
        cache.free()
