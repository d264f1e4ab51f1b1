"""One group-selection rule for every collector of the admission queue.

The dispatcher thread (blocking ``collect``), the inline drain
(``run_once``) and the virtual-time replay (``collect_ready`` at
``next_ripe``) pick groups through one function, so they agree:

* a full group is taken at once, even behind an older group of another
  key that is still filling;
* a policy swap reaches a hold already in progress;
* a group is ripe at exactly the time ``next_ripe`` reports;
* a deadline wakes the dispatcher wherever its request is queued.
"""

import time

import numpy as np
import pytest

from repro.device import A100, Device
from repro.errors import DeadlineExceeded
from repro.serve import CoalescingPolicy, SolverService
from repro.serve.scheduler import AdmissionQueue, Request
from repro.serve.stats import ServiceStats
from repro.workloads import VirtualClock

pytestmark = pytest.mark.serve

KEYS = [("getrf", "<f8", ()), ("getrs", "<f8"), ("getrs", "<f4")]


def test_full_group_passes_an_older_filling_group():
    q = AdmissionQueue(ServiceStats())
    policy = CoalescingPolicy(max_batch=2, max_wait=0.3)
    old = Request("factor", KEYS[0], {}, None)
    pair = [Request("solve", KEYS[1], {}, None) for _ in range(2)]
    for r in (old, *pair):
        q.push(r, policy.max_queue)
    t0 = time.monotonic()
    assert q.collect(policy) == pair
    assert time.monotonic() - t0 < 0.15
    assert len(q) == 1


def test_policy_swap_shortens_a_hold_in_progress():
    svc = SolverService(Device(A100()),
                        policy=CoalescingPolicy(max_wait=3.0))
    try:
        rng = np.random.default_rng(3)
        fut = svc.submit_factor(rng.standard_normal((8, 8)) + 8 * np.eye(8))
        time.sleep(0.1)                 # the dispatcher is holding it
        assert not fut.done()
        t0 = time.monotonic()
        svc.set_policy(svc.policy.replace(max_wait=0.0))
        assert fut.result(timeout=5.0).lu.shape == (8, 8)
        assert time.monotonic() - t0 < 0.5
    finally:
        svc.close()


def test_deadline_behind_a_head_without_one_wakes_the_dispatcher():
    svc = SolverService(Device(A100()),
                        policy=CoalescingPolicy(max_wait=1.0))
    a = np.random.default_rng(5).standard_normal((8, 8)) + 8 * np.eye(8)
    try:
        head = svc.submit_factor(a)
        t0 = time.monotonic()
        late = svc.submit_factor(a, deadline=0.05)   # same key, queued 2nd
        with pytest.raises(DeadlineExceeded):
            late.result(timeout=5.0)
        assert time.monotonic() - t0 < 0.5    # the group holds for 1 s
    finally:
        svc.close()
    assert head.result(timeout=5.0).lu.shape == (8, 8)


def test_group_is_ripe_when_next_ripe_says():
    rng = np.random.default_rng(2024)
    misses = 0
    for _ in range(2000):
        clock = VirtualClock()
        q = AdmissionQueue(ServiceStats(), clock=clock)
        policy = CoalescingPolicy(
            max_batch=int(rng.integers(1, 6)),
            max_wait=float(rng.choice([62.5e-6, 2e-3, rng.uniform(0, 5e-3)])))
        t = float(rng.uniform(0.0, 1.0))
        for _ in range(int(rng.integers(1, 9))):
            t += float(rng.exponential(1e-3))
            clock.now = t
            slo = None if rng.random() < 0.5 else \
                float(rng.uniform(1e-4, 1e-2))
            q.push(Request("factor", KEYS[int(rng.integers(len(KEYS)))], {},
                           None, slo=slo, clock=clock), policy.max_queue)
        ripe = q.next_ripe(policy, clock.now)
        misses += q.collect_ready(policy, ripe) is None
    assert misses == 0, f"{misses} of 2000 states had no ripe group"
