"""Tests for cross-stream events (cudaEvent semantics)."""

import numpy as np
import pytest

from repro.device import Device, Event, KernelCost

from .test_simulator import tiny_spec


class TestEventBasics:
    def test_record_captures_position(self):
        dev = Device(tiny_spec())
        dev.launch("a", None, KernelCost(flops=1e6, blocks=4), stream=1)
        ev = dev.record_event(stream=1)
        assert ev.stream == 1
        assert ev.seq == 0
        assert not ev.resolved

    def test_event_on_empty_stream_resolves_immediately(self):
        dev = Device(tiny_spec())
        ev = dev.record_event(stream=5)
        dev.launch("b", None, KernelCost(flops=4e6, blocks=400), stream=2,
                   wait_events=[ev])
        dev.synchronize()
        assert ev.resolved
        rec = dev.profiler.records[0]
        assert rec.start == pytest.approx(rec.host_issue)

    def test_new_stream_ids_unique(self):
        dev = Device(tiny_spec())
        s1 = dev.new_stream()
        s2 = dev.new_stream()
        assert s1.sid != s2.sid
        assert s1.sid != 0 and s2.sid != 0
        assert dev.side_stream.sid not in (s1.sid, s2.sid)

    def test_side_stream_is_built_with_the_device(self):
        # like stream 0: it exists from the start and costs no host time
        dev = Device(tiny_spec(sync_overhead_host=1e-3))
        assert dev.host_time == 0.0
        assert dev.side_stream.sid < 0
        assert sorted(dev._streams) == [dev.side_stream.sid, 0]


class TestEventOrdering:
    def test_waiter_starts_after_recorded_work(self):
        dev = Device(tiny_spec())
        slow = KernelCost(flops=4e9, blocks=400)  # ~1 s
        fast = KernelCost(flops=4e6, blocks=400)
        dev.launch("producer", None, slow, stream=1)
        ev = dev.record_event(stream=1)
        dev.launch("consumer", None, fast, stream=2, wait_events=[ev])
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["consumer"].start >= recs["producer"].end

    def test_work_after_record_does_not_gate(self):
        dev = Device(tiny_spec())
        fast = KernelCost(flops=4e6, blocks=400)
        slow = KernelCost(flops=4e9, blocks=400)
        dev.launch("early", None, fast, stream=1)
        ev = dev.record_event(stream=1)
        dev.launch("late-slow", None, slow, stream=1)  # after the record
        dev.launch("consumer", None, fast, stream=2, wait_events=[ev])
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["consumer"].end < recs["late-slow"].end

    def test_independent_streams_still_overlap(self):
        dev = Device(tiny_spec())
        cost = KernelCost(flops=2e9, blocks=64)  # 2 SMs each
        dev.launch("x", None, cost, stream=1)
        ev = dev.record_event(stream=1)
        dev.launch("y", None, cost, stream=2, wait_events=[ev])
        dev.launch("z", None, cost, stream=3)  # no dependency
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["z"].start < recs["x"].end  # overlapped with x

    def test_multiple_events(self):
        dev = Device(tiny_spec())
        cost = KernelCost(flops=4e8, blocks=400)
        dev.launch("p1", None, cost, stream=1)
        e1 = dev.record_event(stream=1)
        dev.launch("p2", None, cost, stream=2)
        e2 = dev.record_event(stream=2)
        dev.launch("join", None, cost, stream=3, wait_events=[e1, e2])
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["join"].start >= max(recs["p1"].end, recs["p2"].end)

    def test_wait_event_gates_the_next_launch(self):
        dev = Device(tiny_spec(sync_overhead_host=1e-3))
        slow = KernelCost(flops=4e9, blocks=400)  # ~1 s
        fast = KernelCost(flops=4e6, blocks=400)
        dev.launch("producer", None, slow, stream=1)
        ev = dev.record_event(stream=1)
        t0 = dev.host_time
        dev.wait_event(2, ev)
        # charged like record_event, and the wait is attached lazily
        assert dev.host_time == pytest.approx(t0 + 1e-3)
        dev.launch("consumer", None, fast, stream=2)
        dev.launch("follower", None, fast, stream=2)
        dev.launch("free", None, fast, stream=3)
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["consumer"].wait_events == [ev]
        assert recs["follower"].wait_events == []
        assert recs["consumer"].start >= recs["producer"].end
        assert recs["follower"].start >= recs["consumer"].end
        assert recs["free"].start < recs["producer"].end

    def test_wait_event_default_stream(self):
        dev = Device(tiny_spec())
        dev.launch("producer", None, KernelCost(flops=4e9, blocks=400),
                   stream=dev.side_stream)
        dev.wait_event(None, dev.record_event(dev.side_stream))
        dev.launch("consumer", None, KernelCost(flops=4e6, blocks=400))
        dev.synchronize()
        recs = {r.name: r for r in dev.profiler.records}
        assert recs["consumer"].stream == 0
        assert recs["consumer"].start >= recs["producer"].end

    def test_event_across_synchronize(self):
        dev = Device(tiny_spec())
        dev.launch("a", None, KernelCost(flops=4e6, blocks=400), stream=1)
        ev = dev.record_event(stream=1)
        dev.synchronize()
        # the recorded work already completed; the waiter is unblocked
        dev.launch("b", None, KernelCost(flops=4e6, blocks=400), stream=2,
                   wait_events=[ev])
        dev.synchronize()
        assert len(dev.profiler.records) == 2


class TestConcurrentSwaps:
    def test_getrf_with_concurrent_swaps_correct(self, rng):
        from repro.batched import IrrBatch, irr_getrf, lu_reconstruct
        from repro.device import A100
        dev = Device(A100())
        mats = [rng.standard_normal((int(n), int(n)))
                for n in rng.integers(2, 90, 12)]
        b = IrrBatch.from_host(dev, [m.copy() for m in mats])
        piv = irr_getrf(dev, b, concurrent_swaps=True)
        dev.synchronize()
        for i, a in enumerate(mats):
            rec = lu_reconstruct(b.matrix(i), piv[i])
            assert np.abs(rec - a).max() < 1e-11 * max(1, np.abs(a).max())

    def test_concurrent_swaps_not_slower(self, rng):
        from repro.batched import IrrBatch, irr_getrf
        from repro.device import A100
        from repro.workloads import random_square_batch
        mats = random_square_batch(80, 192, seed=9)
        times = {}
        for conc in (False, True):
            dev = Device(A100())
            b = IrrBatch.from_host(dev, [m.copy() for m in mats])
            with dev.timed_region() as t:
                irr_getrf(dev, b, concurrent_swaps=conc)
            times[conc] = t["elapsed"]
        assert times[True] <= times[False] * 1.02

    def _swaps(self, rng, dev):
        from repro.batched import IrrBatch, irr_getrf
        mats = [rng.standard_normal((int(n), int(n)))
                for n in rng.integers(40, 140, 10)]
        b = IrrBatch.from_host(dev, mats)
        with dev.timed_region() as t:
            irr_getrf(dev, b, concurrent_swaps=True)
        b.free()
        return t["elapsed"]

    def test_caller_stream_waits_for_the_last_left_swap(self, rng):
        from repro.device import A100
        from repro.batched import IrrBatch, irr_getrf
        dev = Device(A100())
        # the last panel's left swaps outlast the main stream's last
        # launch here, so only the join orders "after" behind them
        mats = [rng.standard_normal((n, n))
                for n in rng.integers(200, 257, 64)]
        b = IrrBatch.from_host(dev, mats)
        irr_getrf(dev, b, concurrent_swaps=True)
        dev.launch("after", None, KernelCost(flops=1e3, blocks=1))
        dev.synchronize()
        recs = sorted(dev.profiler.records, key=lambda r: r.seq)
        left = [r for r in recs if r.name.startswith("irrlaswp:left")]
        assert left and {r.stream for r in left} == {dev.side_stream.sid}
        after = recs[-1]
        assert after.name == "after" and after.stream == 0
        assert after.start >= max(r.end for r in left)

    def test_side_stream_is_reused(self, rng):
        from repro.device import A100
        dev = Device(A100())
        for _ in range(3):
            self._swaps(rng, dev)
        assert len(dev._streams) == 2
        assert {r.stream for r in dev.profiler.records} == \
            {0, dev.side_stream.sid}

    def test_repeated_calls_take_equal_time(self):
        from repro.device import A100
        dev = Device(A100())
        runs = [self._swaps(np.random.default_rng(7), dev) for _ in range(2)]
        assert runs[1] == pytest.approx(runs[0], rel=1e-12)
