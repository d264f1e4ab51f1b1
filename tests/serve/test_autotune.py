"""SLO-aware admission, hot-swappable policies, hardened scheduler/stats.

Regression coverage for five hardening fixes —

* a forced configuration that cannot fit the device raises
  :class:`~repro.errors.InfeasibleConfig`, while an argument bug raises
  a plain :class:`ValueError`, so a sweep can skip the one and not the
  other;
* :class:`~repro.serve.stats.ServiceStats` keeps a bounded dispatch ring
  while its derived aggregates stay exact over the full history;
* :class:`~repro.serve.stats.LatencyHistogram` is exact at bin edges and
  ``quantile(0.0)`` skips empty leading bins;
* :meth:`~repro.serve.scheduler.AdmissionQueue.collect` iterates (never
  recurses) under cancellation storms, and a purged head hands the wait
  anchor to the next request's *own* submit time;
* :meth:`~repro.serve.scheduler.ServiceFuture.result` raises a fresh,
  context-chained copy per waiter —

plus feature tests for hot-swappable ``CoalescingPolicy`` knobs,
SLO-aware hold budgets and the virtual-time traffic replay.
"""

import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batched import IrrBatch, irr_getrf
from repro.device import A100, Device
from repro.errors import (DeadlineExceeded, InfeasibleConfig,
                          RequestCancelled, ServiceOverloaded)
from repro.serve import CoalescingPolicy, LatencyHistogram, SolverService
from repro.serve.scheduler import (AdmissionQueue, Request, ServiceFuture,
                                   getrs_key)
from repro.serve.stats import _DISPATCH_HISTORY, DispatchRecord, \
    ServiceStats
from repro.workloads import (RequestClass, TrafficMix, VirtualClock,
                             run_mix, traffic)

pytestmark = [pytest.mark.serve, pytest.mark.autotune]

RNG = np.random.default_rng(7)


def dense(n, dtype=np.float64, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a.astype(dtype)


def inline_service(device=None, **policy_kw):
    dev = device if device is not None else Device(A100())
    return SolverService(dev, policy=CoalescingPolicy(**policy_kw),
                         start=False)


def fresh_queue(clock=None):
    stats = ServiceStats()
    q = AdmissionQueue(stats, clock=clock) if clock is not None \
        else AdmissionQueue(stats)
    return q, stats


# ----------------------------------------------------------------------
# infeasible configurations are typed apart from argument bugs
# ----------------------------------------------------------------------
class TestInfeasibleConfig:
    #: 400×400 with a forced 64-wide fused panel needs 400·64·8 =
    #: 204 800 shared bytes > the A100 model's per-block limit.
    BIG = 400

    @classmethod
    def factor(cls, seed, **cfg):
        dev = Device(A100())
        batch = IrrBatch.from_host(dev, [dense(cls.BIG, seed=seed)])
        return dev, irr_getrf(dev, batch, **cfg)

    def test_all_candidates_infeasible_degrades_to_default(self):
        # every forced fused panel too wide for shared memory raises
        # before any launch; the defaults self-select a feasible path
        for nb in (64, 128):
            with pytest.raises(InfeasibleConfig):
                self.factor(1, panel="fused", nb=nb)
        dev, piv = self.factor(1)
        assert int(piv.info[0]) == 0
        assert dev.profiler.launch_count > 0

    def test_infeasible_candidates_skipped_not_fatal(self):
        with pytest.raises(InfeasibleConfig):
            self.factor(2, panel="fused", nb=64)
        _dev, piv = self.factor(2, panel="columnwise", nb=32)
        assert int(piv.info[0]) == 0

    def test_argument_bugs_still_propagate(self):
        # a malformed configuration is a bug, not an infeasibility
        with pytest.raises(ValueError, match="unknown panel mode") as err:
            self.factor(3, panel="bogus")
        assert not isinstance(err.value, InfeasibleConfig)

    def test_infeasible_is_a_valueerror_subclass(self):
        # backward compatibility: callers catching ValueError still work
        assert issubclass(InfeasibleConfig, ValueError)


# ----------------------------------------------------------------------
# bounded dispatch history with exact aggregates
# ----------------------------------------------------------------------
def record(i):
    return DispatchRecord(kind="getrf", batch_size=i + 1, launches=3,
                          occupancy=0.5, retries=i % 2, isolated=(i == 0),
                          sim_seconds=1e-3)


class TestStatsRing:
    def test_ring_bounds_history_but_aggregates_stay_exact(self):
        s = ServiceStats()
        n = _DISPATCH_HISTORY + 6
        for i in range(n):
            s.on_dispatch(record(i), [2e-4])
        # the ring keeps only the newest _DISPATCH_HISTORY records...
        assert len(s.dispatches) == _DISPATCH_HISTORY
        assert [r.batch_size for r in s.dispatches[:2]] == [7, 8]
        assert s.dispatches[-1].batch_size == n
        # ...while every derived number covers all n dispatches
        assert s.coalescing_ratio == pytest.approx((n + 1) / 2)
        assert s.mean_occupancy == pytest.approx(0.5)
        snap = s.snapshot()
        assert snap["dispatches"] == n
        assert snap["coalesced_requests"] == n * (n + 1) // 2
        assert snap["launches"] == 3 * n
        assert snap["retries"] == n // 2
        assert snap["isolated_dispatches"] == 1
        assert snap["sim_seconds"] == pytest.approx(1e-3 * n)
        assert snap["wait"]["count"] == n

    def test_dispatches_returns_a_snapshot(self):
        s = ServiceStats()
        s.on_dispatch(DispatchRecord("getrf", 1, 3, 1.0, 0, False), [])
        view = s.dispatches
        view.clear()
        assert len(s.dispatches) == 1

    def test_history_bound_validated(self):
        # the bound is fixed: a fresh ring is empty, and the oldest
        # record goes exactly when one more than the bound arrives
        s = ServiceStats()
        assert s.dispatches == []
        for i in range(_DISPATCH_HISTORY):
            s.on_dispatch(record(i), [])
        assert s.dispatches[0].batch_size == 1
        s.on_dispatch(record(_DISPATCH_HISTORY), [])
        assert len(s.dispatches) == _DISPATCH_HISTORY
        assert s.dispatches[0].batch_size == 2


# ----------------------------------------------------------------------
# histogram bin edges and quantile(0.0)
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_samples_on_a_bin_edge_stay_in_that_bin(self):
        h = LatencyHistogram()
        # the old float-log index pushed exact-edge samples (4 µs, 16 µs,
        # ...) one bin too high
        for b in range(h.NBINS - 1):
            assert h.bin_index(h.bin_edge(b)) == b
            assert h.bin_index(np.nextafter(h.bin_edge(b), np.inf)) == b + 1

    def test_subbase_and_overflow_clamp(self):
        h = LatencyHistogram()
        assert h.bin_index(0.0) == 0
        assert h.bin_index(h.BASE / 2) == 0
        assert h.bin_index(1e9) == h.NBINS - 1

    def test_quantile_zero_skips_empty_leading_bins(self):
        h = LatencyHistogram()
        h.record(1.0)
        # the smallest observed latency class, not the first bin's edge
        assert h.quantile(0.0) == h.bin_edge(h.bin_index(1.0))
        assert h.quantile(0.0) > 0.5

    def test_quantiles_rank_correctly(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(1e-5)
        h.record(1.0)
        low_edge = h.bin_edge(h.bin_index(1e-5))
        assert h.quantile(0.5) == low_edge
        assert h.quantile(0.99) == low_edge
        assert h.quantile(1.0) == h.bin_edge(h.bin_index(1.0))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    @given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bin_invariant(self, seconds):
        h = LatencyHistogram()
        b = h.bin_index(seconds)
        assert 0 <= b < h.NBINS
        assert seconds <= h.bin_edge(b)
        if b > 0:
            assert seconds > h.bin_edge(b - 1)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e2,
                              allow_nan=False), min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_monotone(self, samples, q1, q2):
        h = LatencyHistogram()
        for s in samples:
            h.record(s)
        lo, hi = sorted((q1, q2))
        assert h.quantile(lo) <= h.quantile(hi)


# ----------------------------------------------------------------------
# iterative collect + wait anchors
# ----------------------------------------------------------------------
class TestAdmissionHardening:
    KEY = ("getrf", "<f8", ())

    def request(self, clock=None, slo=None, deadline=None, key=None):
        kw = {"slo": slo}
        if clock is not None:
            kw["clock"] = clock
        return Request("factor", key or self.KEY, {}, deadline, **kw)

    def test_cancellation_storm_does_not_recurse(self):
        q, stats = fresh_queue()
        policy = CoalescingPolicy(max_batch=1, max_queue=4096)
        reqs = [self.request() for _ in range(1500)]
        for r in reqs:
            q.push(r, policy.max_queue)
        for r in reqs:
            assert r.future.cancel()
        # Simulate every cancellation landing *after* the purge pass so
        # the per-member claim race is the only guard — the recursive
        # collect unwound one stack frame pair per lost group and blew
        # the default 1000-frame limit well before 1500 requests.
        q._purge_locked = lambda now: None
        assert q.collect(policy, block=False) is None
        assert len(q) == 0
        assert stats.cancelled == 1500

    def test_cancelled_requests_never_dispatch(self):
        q, stats = fresh_queue()
        policy = CoalescingPolicy(max_batch=64, max_wait=10.0,
                                  max_queue=256)
        reqs = [self.request() for _ in range(50)]
        for r in reqs:
            q.push(r, policy.max_queue)
        for r in reqs[::2]:
            r.future.cancel()
        got = q.collect(policy, block=False)
        assert got == reqs[1::2]
        assert stats.cancelled == 25
        for r in got:
            assert not r.future.done()

    def test_wait_anchor_survives_head_cancellation(self):
        clock = VirtualClock()
        q, stats = fresh_queue(clock=clock)
        policy = CoalescingPolicy(max_batch=8, max_wait=2e-3,
                                  max_queue=256)
        r1 = self.request(clock=clock)          # t_submit = 0
        clock.advance(1e-3)
        r2 = self.request(clock=clock)          # t_submit = 1 ms
        q.push(r1, policy.max_queue)
        q.push(r2, policy.max_queue)
        assert q.next_ripe(policy, clock.now) == pytest.approx(2e-3)

        r1.future.cancel()
        # r2 is not ripe at 2.5 ms: its budget anchors at its OWN submit
        # time (1 ms + 2 ms = 3 ms), it neither inherits r1's elapsed
        # wait nor restarts from the adoption instant
        assert q.collect_ready(policy, 2.5e-3) is None
        assert stats.cancelled == 1
        assert q.next_ripe(policy, 2.5e-3) == pytest.approx(3e-3)
        assert q.collect_ready(policy, 3e-3) == [r2]

    def test_blocking_collect_recovers_after_head_cancellation(self):
        q, _ = fresh_queue()
        policy = CoalescingPolicy(max_batch=8, max_wait=0.25,
                                  max_queue=256)
        r1 = self.request()
        r2 = self.request()
        q.push(r1, policy.max_queue)
        q.push(r2, policy.max_queue)
        out = []
        t = threading.Thread(
            target=lambda: out.append(q.collect(policy)))
        t.start()
        r1.future.cancel()
        q.kick()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert out == [[r2]]

    def test_slo_caps_hold_budget_without_dropping_work(self):
        clock = VirtualClock()
        q, stats = fresh_queue(clock=clock)
        policy = CoalescingPolicy(max_batch=8, max_wait=10e-3,
                                  max_queue=256)
        r = self.request(clock=clock, slo=4e-3)
        q.push(r, policy.max_queue)
        # hold capped at 0.5 · slo = 2 ms, well under max_wait
        assert q.next_ripe(policy, 0.0) == pytest.approx(2e-3)
        got = q.collect_ready(policy, 2e-3)
        assert got == [r]                # dispatched, never expired
        assert stats.expired == 0

    def test_no_slo_uses_full_policy_budget(self):
        clock = VirtualClock()
        q, _ = fresh_queue(clock=clock)
        policy = CoalescingPolicy(max_batch=8, max_wait=10e-3,
                                  max_queue=256)
        q.push(self.request(clock=clock), policy.max_queue)
        assert q.next_ripe(policy, 0.0) == pytest.approx(10e-3)

    def test_deadline_still_hard(self):
        clock = VirtualClock()
        q, stats = fresh_queue(clock=clock)
        policy = CoalescingPolicy(max_batch=8, max_wait=50e-3,
                                  max_queue=256)
        r = self.request(clock=clock, slo=1.0, deadline=1e-3)
        q.push(r, policy.max_queue)
        assert q.collect_ready(policy, 2e-3) is None
        assert stats.expired == 1
        with pytest.raises(DeadlineExceeded):
            r.future.result(0)


# ----------------------------------------------------------------------
# per-waiter exception copies
# ----------------------------------------------------------------------
class TestFutureExceptionIsolation:
    def test_each_waiter_gets_a_fresh_copy(self):
        fut = ServiceFuture("factor")
        original = DeadlineExceeded(0.1, 0.25)
        fut._resolve(error=original)

        with pytest.raises(DeadlineExceeded) as exc1:
            fut.result(0)
        with pytest.raises(DeadlineExceeded) as exc2:
            fut.result(0)
        assert exc1.value is not original
        assert exc1.value is not exc2.value
        assert exc1.value.__traceback__ is not exc2.value.__traceback__
        # copies chain to — and faithfully mirror — the original
        assert exc1.value.__cause__ is original
        assert exc2.value.__cause__ is original
        assert exc1.value.args == original.args
        assert exc1.value.deadline == 0.1
        assert exc1.value.waited == 0.25
        # the stored original is never mutated by a waiter's raise
        assert fut.exception() is original
        assert original.__traceback__ is None

    def test_concurrent_waiters_see_distinct_tracebacks(self):
        fut = ServiceFuture("solve")
        fut._resolve(error=RequestCancelled("queued request cancelled"))
        caught = []
        barrier = threading.Barrier(2)

        def waiter():
            barrier.wait()
            try:
                fut.result(0)
            except RequestCancelled as err:
                caught.append(err)

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(caught) == 2
        assert caught[0] is not caught[1]
        assert caught[0].__traceback__ is not caught[1].__traceback__

    def test_multiarg_exceptions_copy_cleanly(self):
        # ServiceOverloaded's two-positional-arg __init__ breaks naive
        # re-instantiation (cls(*args) is fine, cls() is not) — the copy
        # path must not call __init__ at all
        fut = ServiceFuture("factor")
        fut._resolve(error=ServiceOverloaded(9, 8))
        with pytest.raises(ServiceOverloaded) as exc:
            fut.result(0)
        assert exc.value.args == fut.exception().args
        assert exc.value.__cause__ is fut.exception()


# ----------------------------------------------------------------------
# hot-swappable CoalescingPolicy knobs
# ----------------------------------------------------------------------
class TestPolicyHotSwap:
    def test_coalescing_policy_satisfies_protocol(self):
        p = CoalescingPolicy(max_batch=4, max_wait=1e-3)
        assert p.describe() == {"max_batch": 4, "max_wait": 1e-3,
                                "max_queue": 256}
        q = p.replace(max_batch=8)
        assert q.max_batch == 8
        assert q.describe() == {**p.describe(), "max_batch": 8}
        assert p.max_batch == 4               # a pure value: p unchanged
        with pytest.raises(ValueError, match="max_batch"):
            p.replace(max_batch=0)            # validation re-runs

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            CoalescingPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            CoalescingPolicy(max_wait=-1e-3)
        with pytest.raises(ValueError, match="max_queue"):
            CoalescingPolicy(max_queue=0)

    def test_set_policy_rejects_non_policies(self):
        svc = inline_service()
        # no duck typing: an object carrying every public attribute and
        # method of a real policy is refused all the same
        real = CoalescingPolicy()
        look_alike = types.SimpleNamespace(**{
            name: getattr(real, name) for name in dir(real)
            if not name.startswith("_")})
        for bad in (object(), look_alike):
            with pytest.raises(TypeError):
                svc.set_policy(bad)
        with pytest.raises(TypeError):
            SolverService(Device(A100()), policy=look_alike, start=False)
        assert svc.stats.policy_swaps == 0
        svc.close()

    def test_hot_swap_preserves_queued_work_and_bits(self):
        sizes = [8, 24, 16, 8, 12, 20]
        mats = [dense(n, seed=200 + i) for i, n in enumerate(sizes)]
        rhss = [np.random.default_rng(300 + i).standard_normal(n)
                for i, n in enumerate(sizes)]

        ref_svc = inline_service(max_batch=1)
        ref = [ref_svc.submit_factor_solve(a, b)
               for a, b in zip(mats, rhss)]
        ref_svc.run_once()
        ref = [f.result(0) for f in ref]
        ref_svc.close()

        svc = inline_service(max_batch=1)
        futs = [svc.submit_factor_solve(a, b)
                for a, b in zip(mats, rhss)]
        old = svc.set_policy(svc.policy.replace(max_batch=8))
        assert old.max_batch == 1
        assert svc.policy.max_batch == 8
        assert svc.stats.policy_swaps == 1
        # the queued six now coalesce into ONE dispatch under the new
        # policy — nothing was dropped by the swap — and stay bitwise
        # equal to the solo reference
        assert svc.run_once() == 1
        for fut, (x_ref, h_ref) in zip(futs, ref):
            x, h = fut.result(0)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(h.lu, h_ref.lu)
        svc.close()

    def test_policy_property_setter_swaps(self):
        svc = inline_service(max_wait=2e-3)
        svc.policy = svc.policy.replace(max_wait=0.0)
        assert svc.policy.max_wait == 0.0
        assert svc.stats.policy_swaps == 1
        svc.close()

    def test_solves_group_by_dtype_only(self):
        # orders on both sides of TRSM_BASE_NB, in two dtypes: one
        # solve group per dtype, each bitwise equal to solo dispatch
        orders = (8, 20, 40, 100)
        mats = [dense(n, dtype, seed=600 + n)
                for dtype in (np.float64, np.float32) for n in orders]
        rhss = [np.random.default_rng(700 + i).standard_normal(
            a.shape[0]).astype(a.dtype) for i, a in enumerate(mats)]

        def solve_all(max_batch):
            svc = inline_service(max_batch=max_batch, max_wait=0.0)
            handles = [svc.submit_factor(a) for a in mats]
            svc.run_once()
            handles = [f.result(0) for f in handles]
            before = svc.stats.dispatch_count
            futs = [svc.submit_solve(h, b)
                    for h, b in zip(handles, rhss)]
            svc.run_once()
            xs = [f.result(0) for f in futs]
            n_solve_dispatches = svc.stats.dispatch_count - before
            svc.close()
            return xs, n_solve_dispatches

        grouped, n_grouped = solve_all(16)
        solo, n_solo = solve_all(1)
        assert n_grouped == 2
        assert n_solo == len(mats)
        for x0, x1 in zip(grouped, solo):
            assert np.array_equal(x0, x1)

    def test_getrs_key_is_one_class_per_dtype(self):
        f8, f4 = np.float64, np.float32
        assert getrs_key(f8) == ("getrs", np.dtype(f8).str)
        assert getrs_key(f8) != getrs_key(f4)
        assert getrs_key(f4, mixed=True) == getrs_key(f4) + ("mixed",)


# ----------------------------------------------------------------------
# virtual-time traffic replay
# ----------------------------------------------------------------------
def mini_mix(arrival="poisson", count=40, **kw):
    classes = (RequestClass("mini", "factor_solve", 8, 16,
                            weight=1.0, slo=2e-2),)
    defaults = dict(rate=2000.0, clients=4, think_time=2e-3)
    defaults.update(kw)
    return TrafficMix(name=f"mini-{arrival}", classes=classes,
                      count=count, arrival=arrival, **defaults)


class TestTrafficReplay:
    def test_replay_is_deterministic(self):
        mix = mini_mix()
        r1 = run_mix(mix, seed=3)
        r2 = run_mix(mix, seed=3)
        assert r1.makespan == r2.makespan
        assert r1.dispatches == r2.dispatches
        assert r1.completed == r2.completed == mix.count
        for a, b in zip(r1.results, r2.results):
            assert np.array_equal(a, b)

    def test_policies_see_identical_payloads_and_match_bitwise(self):
        mix = mini_mix()
        solo = run_mix(mix, seed=5,
                       policy=CoalescingPolicy(max_batch=1, max_wait=0.0))
        coal = run_mix(mix, seed=5,
                       policy=CoalescingPolicy(max_batch=32,
                                               max_wait=5e-3))
        assert solo.completed == coal.completed == mix.count
        assert coal.dispatches < solo.dispatches   # coalescing happened
        for a, b in zip(solo.results, coal.results):
            assert np.array_equal(a, b)

    def test_closed_loop_completes_all_requests(self):
        mix = mini_mix(arrival="closed", count=24)
        res = run_mix(mix, seed=9)
        assert res.completed == 24
        assert res.rejected == 0
        assert res.slo_met() is not None      # per-class report exists
        assert set(res.per_class) == {"mini"}

    @pytest.mark.parametrize("arrival,max_queue", [("poisson", 4096),
                                                   ("closed", 2)])
    def test_replay_draws_each_request_once(self, monkeypatch, arrival,
                                            max_queue):
        """Each request's payload is drawn once, when it is submitted,
        and every request is submitted: a rejected one too, and a
        closed-loop client's requests after another's rejection."""
        calls = []
        payload = traffic._payload

        def counted(mix, seed, index):
            calls.append(index)
            return payload(mix, seed, index)

        monkeypatch.setattr(traffic, "_payload", counted)
        mix = mini_mix(arrival=arrival, count=32, clients=8)
        res = run_mix(mix, seed=4, policy=CoalescingPolicy(
            max_queue=max_queue))
        assert sorted(calls) == list(range(mix.count))
        assert [c.name for c in res.classes] == ["mini"] * mix.count
        assert res.per_class["mini"]["count"] == \
            sum(lat is not None for lat in res.latencies)
        assert res.completed + res.rejected == mix.count
        assert (res.rejected > 0) == (arrival == "closed")

    def test_burst_arrivals_replay(self):
        mix = mini_mix(arrival="burst", count=32, rate=400.0,
                       burst_factor=25.0, burst_period=5e-2,
                       storm_len=5e-3)
        res = run_mix(mix, seed=2)
        assert res.completed == 32
        assert res.per_class["mini"]["count"] == 32

    def test_autotuned_replay_keeps_parity(self):
        """The short fixed hold that out-served the retired online tuner
        on every standard mix groups far less than the default policy,
        and keeps every bit."""
        mix = mini_mix(count=64)
        base = run_mix(mix, policy=CoalescingPolicy(max_queue=4096), seed=11)
        short = run_mix(mix, seed=11, policy=CoalescingPolicy(
            max_wait=62.5e-6, max_queue=4096))
        assert base.completed == short.completed == mix.count
        assert short.dispatches > 2 * base.dispatches
        for a, b in zip(base.results, short.results):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# operator policy changes
# ----------------------------------------------------------------------
class TestOnlineAutotuner:
    """No policy moves by itself: the online tuner is retired, since a
    fixed policy served every standard mix at least as well.  An
    operator changes a live service's policy with ``set_policy``; these
    cases pin what such a change does, and what a replay reports."""

    def test_window_derived_rates(self):
        mix = mini_mix(count=40)
        res = run_mix(mix, seed=4)
        assert res.completed == mix.count
        assert res.throughput == pytest.approx(res.completed / res.makespan)
        lats = [lat for lat in res.latencies if lat is not None]
        entry = res.per_class["mini"]
        assert entry["count"] == len(lats) == mix.count
        assert entry["p50"] == pytest.approx(np.percentile(lats, 50))
        assert entry["p99"] == pytest.approx(np.percentile(lats, 99))
        assert 0 < entry["p50"] <= entry["p99"]
        assert res.stats["submitted"] == res.stats["coalesced_requests"] \
            == mix.count
        assert res.stats["dispatches"] == res.dispatches

    def test_objective_penalizes_shed_work(self):
        """Shed work never counts as served: a queue bound that rejects
        part of a burst lowers ``completed``; every request is completed
        or rejected, and the served answers keep their bits."""
        mix = mini_mix(arrival="burst", count=48, rate=400.0,
                       burst_factor=200.0, burst_period=5e-2,
                       storm_len=5e-3)
        full = run_mix(mix, seed=6, policy=CoalescingPolicy(max_queue=4096))
        shed = run_mix(mix, seed=6, policy=CoalescingPolicy(max_queue=2))
        assert full.rejected == 0 and full.completed == mix.count
        assert shed.rejected > 0 and shed.completed < full.completed
        assert shed.completed + shed.rejected == mix.count
        assert shed.stats["rejected"] == shed.rejected
        assert sum(x is None for x in shed.results) == shed.rejected
        for a, b in zip(full.results, shed.results):
            assert b is None or np.array_equal(a, b)

    def test_small_windows_hold(self):
        """A replay holds the one policy it is given from the first
        arrival to the last completion."""
        policy = CoalescingPolicy(max_batch=4, max_wait=1e-3, max_queue=512)
        res = run_mix(mini_mix(count=32), seed=8, policy=policy)
        assert res.policy == policy.describe()
        assert res.stats["policy_swaps"] == 0
        assert res.dispatches >= 32 // 4
        assert res.stats["coalescing_ratio"] <= 4

    def test_hysteresis_then_swap(self):
        """A swap to a shorter hold applies to work already queued: the
        oldest request ripens at the new budget, not the old one."""
        clock = VirtualClock()
        svc = SolverService(Device(A100()), start=False, clock=clock,
                            policy=CoalescingPolicy(max_wait=2e-3))
        fut = svc.submit_factor(dense(8, seed=1))
        assert svc._queue.next_ripe(svc.policy, clock.now) == \
            pytest.approx(2e-3)
        svc.set_policy(svc.policy.replace(max_wait=5e-4))
        assert svc._queue.next_ripe(svc.policy, clock.now) == \
            pytest.approx(5e-4)
        assert svc.stats.policy_swaps == 1
        assert svc.run_once() == 1
        assert fut.result(0).lu.shape == (8, 8)
        svc.close()

    def test_rollback_and_cooldown(self):
        """Rolling back is one more swap: ``set_policy`` returns the
        policy it replaced, and installing that again restores every
        knob."""
        svc = inline_service(max_wait=2e-3)
        before = svc.policy
        old = svc.set_policy(before.replace(max_wait=1e-3, max_batch=8))
        assert old is before
        assert svc.policy.describe() == {**before.describe(),
                                         "max_wait": 1e-3, "max_batch": 8}
        assert svc.set_policy(old).max_wait == 1e-3
        assert svc.policy == before
        assert svc.stats.snapshot()["policy_swaps"] == 2
        svc.close()

    def test_good_swap_is_kept(self):
        """A swapped-in policy stays installed across dispatches and
        shapes every later group."""
        svc = inline_service(max_batch=32, max_wait=0.0)
        svc.set_policy(svc.policy.replace(max_batch=2))
        for rnd in range(2):
            futs = [svc.submit_factor(dense(n, seed=40 + 6 * rnd + i))
                    for i, n in enumerate((8, 12, 16, 8, 12, 16))]
            assert svc.run_once() == 3
            assert all(f.done() for f in futs)
        assert svc.policy.max_batch == 2
        assert svc.stats.policy_swaps == 1
        svc.close()

    def test_saturated_groups_grow_max_batch(self):
        """Raising ``max_batch`` on a saturated queue collects the rest
        of the backlog in one group."""
        q, _ = fresh_queue()
        small = CoalescingPolicy(max_batch=4, max_wait=0.0, max_queue=64)
        reqs = [Request("factor", ("getrf", "<f8", ()), {}, None)
                for _ in range(12)]
        for r in reqs:
            q.push(r, small.max_queue)
        assert q.collect(small, block=False) == reqs[:4]
        assert q.collect(small.replace(max_batch=16), block=False) \
            == reqs[4:]
        assert len(q) == 0

    def test_mixed_order_window_moves_no_solve_grouping_knob(self):
        # solves of any orders share one group per dtype, and serving
        # them moves no knob: the policy after is the policy before
        svc = inline_service(max_wait=0.0)
        before = svc.policy.describe()
        mats = [dense(n, seed=900 + n) for n in (8, 20, 40, 100)]
        handles = [svc.submit_factor(a) for a in mats]
        svc.run_once()
        futs = [svc.submit_solve(f.result(0), np.ones(a.shape[0]))
                for f, a in zip(handles, mats)]
        assert svc.run_once() == 1
        for a, f in zip(mats, futs):
            assert np.abs(a @ f.result(0) - 1.0).max() < 1e-10
        assert svc.policy.describe() == before
        assert svc.stats.policy_swaps == 0
        svc.close()
