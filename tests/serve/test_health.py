"""Unit tests for the health monitor and dispatch circuit breaker.

The breaker is dispatch-clocked and lock-free: its whole contract is a
deterministic state machine over per-dispatch fault counts.  These
tests drive it directly — the service-level integration (stats keys,
degraded dispatch ladders) lives in ``test_chaos_serve.py``.
"""

import pytest

from repro.errors import ServiceDegraded
from repro.serve.health import (FAULT_ACTIONS, MAX_SEVERITY,
                                CircuitBreaker, HealthMonitor)

pytestmark = [pytest.mark.serve, pytest.mark.sdc,
              pytest.mark.filterwarnings("error::RuntimeWarning")]


class TestHealthMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(window=0)

    def test_rate_counts_faulty_dispatches_not_events(self):
        mon = HealthMonitor(window=4)
        mon.observe(50)          # one pathological dispatch...
        mon.observe(0)
        mon.observe(0)
        mon.observe(0)
        # ...is one faulty dispatch out of four, not 50 events
        assert mon.fault_rate == pytest.approx(0.25)
        assert mon.faults_in_window == 50
        assert mon.total_faults == 50

    def test_window_slides(self):
        mon = HealthMonitor(window=2)
        mon.observe(1)
        mon.observe(1)
        assert mon.fault_rate == 1.0
        mon.observe(0)
        mon.observe(0)
        assert mon.fault_rate == 0.0        # faults slid out
        assert mon.total_faults == 2        # lifetime totals kept
        assert mon.observed == 4

    def test_reset_clears_window_keeps_totals(self):
        mon = HealthMonitor(window=8)
        for _ in range(5):
            mon.observe(2)
        mon.reset()
        assert len(mon) == 0
        assert mon.fault_rate == 0.0
        assert mon.total_faults == 10
        assert mon.observed == 5

    def test_empty_window_rate_is_zero(self):
        assert HealthMonitor().fault_rate == 0.0

    def test_negative_counts_clamped(self):
        mon = HealthMonitor()
        mon.observe(-3)
        assert mon.fault_rate == 0.0
        assert mon.total_faults == 0

    def test_fault_actions_cover_the_recovery_vocabulary(self):
        # the evidence set is resilience actions only — repair-side
        # memory bookkeeping must not feed the breaker
        assert "kernel-reexec" in FAULT_ACTIONS
        assert "transfer-retry" in FAULT_ACTIONS
        assert "front-quarantine" in FAULT_ACTIONS
        assert "cache-evict" not in FAULT_ACTIONS
        assert "chunk-shrink" not in FAULT_ACTIONS


class TestCircuitBreakerValidation:
    @pytest.mark.parametrize("kw", [dict(open_threshold=0.0),
                                    dict(open_threshold=1.5),
                                    dict(min_observations=0),
                                    dict(cooldown=0),
                                    dict(backoff=0.5)])
    def test_bad_params_raise(self, kw):
        with pytest.raises(ValueError):
            CircuitBreaker(**kw)


def trip(br, faults=1):
    """Feed faulty dispatches until the breaker opens."""
    n = 0
    while br.state == "closed":
        br.record(faults)
        n += 1
        assert n <= 1000, "breaker never opened"
    return n


class TestCircuitBreaker:
    def test_starts_closed_and_permissive(self):
        br = CircuitBreaker()
        assert br.state == "closed"
        assert not br.force_host()
        assert not br.degraded
        assert br.last_degraded is None

    def test_min_observations_guards_startup(self):
        br = CircuitBreaker(min_observations=4)
        for _ in range(3):
            assert br.record(5) == "closed"   # rate 1.0 but untrusted
        assert br.record(5) == "open"         # 4th observation trips

    def test_opens_at_threshold_severity_one(self):
        br = CircuitBreaker(open_threshold=0.5, min_observations=4)
        br.record(0)
        br.record(1)
        br.record(0)
        assert br.state == "closed"
        br.record(1)                          # rate hits 2/4
        assert br.state == "open"
        assert br.severity == 1
        assert br.trips == 1
        assert not br.force_host()            # severity 1: no host steering
        deg = br.last_degraded
        assert isinstance(deg, ServiceDegraded)
        assert deg.fault_rate >= 0.5
        assert "severity 1" in str(deg)

    def test_cooldown_ticks_in_dispatches_then_half_open(self):
        br = CircuitBreaker(min_observations=1, cooldown=3)
        trip(br)
        assert br.record(7) == "open"         # open faults are not probes
        assert br.record(7) == "open"
        assert br.record(7) == "half-open"    # cooldown elapsed
        assert not br.force_host()            # the probe runs normally

    def test_clean_probe_closes_and_resets(self):
        br = CircuitBreaker(min_observations=1, cooldown=1)
        trip(br)
        br.record(0)                          # cooldown tick
        assert br.state == "half-open"
        assert br.record(0) == "closed"       # clean probe
        assert br.probes == 1
        assert br.severity == 0
        assert br.last_degraded is None
        assert len(br.monitor) == 0           # stale evidence dropped
        # cooldown is back to the initial value for the next storm
        trip(br)
        assert br.record(1) == "half-open"

    def test_faulty_probe_reopens_with_backoff_and_escalation(self):
        br = CircuitBreaker(min_observations=1, cooldown=2, backoff=2.0,
                            max_cooldown=8)
        trip(br)
        cooldowns = []
        for _ in range(4):                    # four failed probes
            while br.state == "open":
                br.record(1)
            assert br.state == "half-open"
            br.record(1)                      # probe sees a fault
            assert br.state == "open"
            cooldowns.append(br._cooldown)
        assert cooldowns == [4, 8, 8, 8]      # doubled, then capped
        assert br.severity == MAX_SEVERITY    # escalated and clamped
        assert br.force_host()
        assert "severity 2" in str(br.last_degraded)

    def test_probe_runs_normal_path_even_at_severity_two(self):
        br = CircuitBreaker(min_observations=1, cooldown=1)
        trip(br)
        br.record(1)          # cooldown
        br.record(1)          # failed probe -> severity 2
        assert br.severity == MAX_SEVERITY
        br.record(1)          # cooldown tick(s) toward next probe
        br.record(1)
        assert br.state == "half-open"
        # half-open must not steer to host: the probe has to exercise
        # the real device path to prove recovery
        assert not br.force_host()
        assert br.state == "half-open"

    def test_recovery_after_escalation(self):
        br = CircuitBreaker(min_observations=1, cooldown=1)
        trip(br)
        br.record(1)          # cooldown
        br.record(1)          # failed probe: severity 2, cooldown 2
        for _ in range(2):
            br.record(1)      # burn the doubled cooldown
        assert br.state == "half-open"
        assert br.record(0) == "closed"       # device recovered
        assert br.severity == 0
        assert not br.force_host()
        assert br.trips == 1                  # re-opens are not new trips

    def test_huge_min_observations_never_opens(self):
        # a min_observations no run reaches keeps the breaker closed
        br = CircuitBreaker(min_observations=10 ** 9)
        for _ in range(100):
            assert br.record(10) == "closed"
        assert not br.force_host()
