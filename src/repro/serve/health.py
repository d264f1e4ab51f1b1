"""Service health: rolling fault monitoring and a dispatch circuit breaker.

A service running on a degrading device pays for every fault twice:
the recovery machinery (transfer retries with backoff, ABFT
re-executions, whole-batch retries) repairs the fault, but the repair
*cost* lands on the latency of the request that happened to be in
flight — and on a persistently faulty device that cost recurs on every
dispatch.  The classes here bound that second payment:

* :class:`HealthMonitor` keeps a rolling window of per-dispatch fault
  counts, fed from the device's
  :class:`~repro.recovery.RecoveryLog` deltas (``transfer-retry``,
  ``kernel-reexec``, ``launch-retry``, …) — every resilience action the
  stack already records, with no extra instrumentation in the kernels.
* :class:`CircuitBreaker` turns that signal into a dispatch-path
  decision.  **Closed**: the device serves normally.  **Open**: the
  service degrades — on a :class:`~repro.device.node.Node`, placement
  skips the device while another one is healthy, and at severity 2 new
  *sparse* sessions go to the host backend (dense batches have no host
  path — they stay on the bucketed device ladder, which still repairs
  or isolates every fault).  **Half-open**: after a cooldown measured
  in dispatches, one probe dispatch runs the normal path; a clean probe
  closes the breaker, a faulty probe re-opens it with the cooldown
  doubled (exponential backoff, bounded) and the severity escalated.

The breaker is deliberately *dispatch-clocked*, not wall-clocked: the
simulated device advances time only when work runs, so cooldowns are
counted in dispatches and the whole state machine is deterministic
under the seeded fault plans the chaos suites drive.  The dispatches
are the service's, not only the device's own: a device that placement
skips still counts down and gets its probe.

Degradation is never surfaced as a request failure — requests keep
completing on the degraded ladder.  The breaker's state and the typed
:class:`~repro.errors.ServiceDegraded` describing the trip are exposed
through ``ServiceStats.snapshot()`` (``breaker_state`` /
``degraded_reason``).
"""

from __future__ import annotations

from collections import deque

from ..errors import ServiceDegraded

__all__ = ["HealthMonitor", "CircuitBreaker", "FAULT_ACTIONS"]

#: Recovery-log actions that count as fault evidence for the health
#: window.  Repair-side bookkeeping (``cache-evict``, ``chunk-shrink``)
#: is excluded: it reflects memory pressure, not device faults.
FAULT_ACTIONS = ("transfer-retry", "launch-retry", "alloc-retry",
                 "kernel-reexec", "level-split", "front-quarantine",
                 "host-fallback")


class HealthMonitor:
    """Rolling window of per-dispatch fault observations.

    ``observe(n)`` records that one dispatch saw ``n`` fault events
    (recovery-log actions in :data:`FAULT_ACTIONS` plus any typed
    corruption/system errors the dispatcher caught).  The derived
    :attr:`fault_rate` is the fraction of windowed dispatches that saw
    at least one fault — a rate of faulty *dispatches*, not raw event
    counts, so one pathological dispatch with 50 retries cannot trip
    the breaker alone.
    """

    def __init__(self, window: int = 16):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._counts: deque[int] = deque(maxlen=window)
        self.total_faults = 0        #: fault events ever observed
        self.observed = 0            #: dispatches ever observed

    def observe(self, faults: int) -> None:
        faults = max(int(faults), 0)
        self._counts.append(faults)
        self.total_faults += faults
        self.observed += 1

    def reset(self) -> None:
        """Forget the window (kept totals stay); used when the breaker
        closes so stale storm evidence cannot re-trip it instantly."""
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def fault_rate(self) -> float:
        """Fraction of windowed dispatches that saw >= 1 fault event."""
        if not self._counts:
            return 0.0
        return sum(1 for c in self._counts if c) / len(self._counts)

    @property
    def faults_in_window(self) -> int:
        return sum(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HealthMonitor(window={self.window}, "
                f"rate={self.fault_rate:.2f}, "
                f"faults={self.faults_in_window})")


#: breaker states
_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"

#: severity rungs: 1 = open (placement skips the device), 2 = also
#: steer new sparse sessions to the host backend.
MAX_SEVERITY = 2


class CircuitBreaker:
    """Closed / open / half-open dispatch gate over a fault monitor.

    Parameters
    ----------
    monitor:
        The :class:`HealthMonitor` supplying the rolling fault rate
        (a fresh ``HealthMonitor()`` by default).
    open_threshold:
        Windowed fault rate at or above which the breaker opens.
    min_observations:
        Dispatches that must be in the window before the rate is
        trusted — a single faulty dispatch after startup never opens
        the breaker.
    cooldown:
        Dispatches the breaker stays open before probing (half-open).
    backoff:
        Cooldown multiplier applied on every failed probe, capped at
        ``max_cooldown`` — a persistently faulty device is probed
        geometrically less often.
    max_cooldown:
        Upper bound on the cooldown (in dispatches).

    Feed it one :meth:`record` per dispatch (the dispatch's fault-event
    count; an open breaker only counts the dispatch toward its
    cooldown); consult :attr:`state` / :meth:`force_host` *before*
    dispatching.  All methods are called from the single dispatcher
    thread — the breaker needs no lock of its own.
    """

    def __init__(self, *, monitor: HealthMonitor | None = None,
                 open_threshold: float = 0.5, min_observations: int = 4,
                 cooldown: int = 4, backoff: float = 2.0,
                 max_cooldown: int = 64):
        if not 0.0 < open_threshold <= 1.0:
            raise ValueError(
                f"open_threshold must be in (0, 1], got {open_threshold}")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.open_threshold = float(open_threshold)
        self.min_observations = int(min_observations)
        self.initial_cooldown = int(cooldown)
        self.backoff = float(backoff)
        self.max_cooldown = int(max_cooldown)
        self.state = _CLOSED
        self.severity = 0
        self.trips = 0               #: closed->open transitions
        self.probes = 0              #: half-open probe dispatches
        self.last_degraded: ServiceDegraded | None = None
        self._cooldown = int(cooldown)
        self._remaining = 0

    # -- queries (before dispatch) --------------------------------------
    def force_host(self) -> bool:
        """Should new sparse sessions be steered to the host backend?
        Only at severity 2 while degraded (open); probes run the
        normal path so a recovered device is actually exercised."""
        return self.state == _OPEN and self.severity >= MAX_SEVERITY

    @property
    def degraded(self) -> bool:
        return self.state != _CLOSED

    # -- state machine (after dispatch) ---------------------------------
    def record(self, faults: int) -> str:
        """Feed one dispatch's fault-event count; returns the state the
        breaker is in *after* absorbing it."""
        if self.state == _CLOSED:
            self.monitor.observe(faults)
            if (len(self.monitor) >= self.min_observations
                    and self.monitor.fault_rate >= self.open_threshold):
                self._trip(1)
        elif self.state == _OPEN:
            # degraded dispatches tick the cooldown; their fault counts
            # are not probe evidence (the normal path was not exercised)
            self._remaining -= 1
            if self._remaining <= 0:
                self.state = _HALF_OPEN
        else:  # half-open: this dispatch WAS the probe
            self.probes += 1
            if faults:
                self._cooldown = min(int(self._cooldown * self.backoff),
                                     self.max_cooldown)
                self._trip(min(self.severity + 1, MAX_SEVERITY))
            else:
                self._close()
        return self.state

    def _trip(self, severity: int) -> None:
        if self.state == _CLOSED:
            self.trips += 1
        self.state = _OPEN
        self.severity = severity
        self._remaining = self._cooldown
        self.last_degraded = ServiceDegraded(
            _OPEN, self.monitor.fault_rate,
            detail=f"severity {severity}, probing after "
                   f"{self._cooldown} dispatch(es)")

    def _close(self) -> None:
        self.state = _CLOSED
        self.severity = 0
        self._cooldown = self.initial_cooldown
        self.monitor.reset()
        self.last_degraded = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CircuitBreaker({self.state}, severity={self.severity}, "
                f"trips={self.trips}, rate={self.monitor.fault_rate:.2f})")
