"""Service observability: latency histograms, dispatch records, counters.

Everything here is updated from two kinds of threads — submitters (admission
counters) and the dispatcher (dispatch records, latencies) — so every
mutator takes the stats lock.  Reads return snapshots; nothing hands out
internal mutable state.

The numbers the acceptance tests key on:

* *coalescing ratio* — requests dispatched per batched dispatch.  A ratio
  of ``k`` means ``k`` requests shared one launch group; 1.0 means the
  service degenerated to one-request-per-launch.
* *batch occupancy* — ``Σ mᵢ·nᵢ / (batch · m_req · n_req)``: how full the
  irregular batch was relative to the uniform batch the vendor interface
  would have padded to.  This is the paper's irregularity measure applied
  to the admission mix.

Long-lived services get bounded memory: the per-dispatch record history
is a capped ring buffer (the newest 1024 records, ``_DISPATCH_HISTORY``),
while *running aggregates* (dispatch count, coalesced-request total,
occupancy/launch/sim-time sums) are updated on every dispatch so the
derived numbers — :attr:`~ServiceStats.coalescing_ratio`,
:attr:`~ServiceStats.mean_occupancy`, :meth:`~ServiceStats.snapshot` —
stay exact over the *full* history, not just the retained window.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "DispatchRecord", "ServiceStats"]

#: ring-buffer bound on the dispatch records a :class:`ServiceStats`
#: retains (its aggregates cover every dispatch).
_DISPATCH_HISTORY = 1024


class LatencyHistogram:
    """Log-bucketed latency accumulator (1 µs … ~17 min, ×4 per bin).

    Cheap enough to update under the stats lock on every request, precise
    enough for the "is wait time exploding" question a service dashboard
    answers.  Quantiles are bin-resolution estimates (upper bin edge).

    Bin semantics: bin 0 covers ``[0, BASE]``; bin ``b`` covers
    ``(BASE·FACTOR^(b-1), BASE·FACTOR^b]`` — a sample exactly on a bin's
    upper edge belongs to that bin, never the next one (the float-log
    rounding that used to push edge samples one bin too high is corrected
    against the exact edge values).
    """

    BASE = 1e-6          # smallest resolvable latency: 1 µs
    FACTOR = 4.0         # geometric bin width
    NBINS = 16           # last edge = 1e-6 * 4**15 ≈ 1074 s

    def __init__(self) -> None:
        self.counts = [0] * self.NBINS
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def bin_index(self, seconds: float) -> int:
        """The bin a sample belongs to (exact at bin edges)."""
        seconds = max(float(seconds), 0.0)
        if seconds <= self.BASE:
            return 0
        # float-log estimate, then correct against the exact edges: the
        # invariant is BASE*FACTOR**(b-1) < seconds <= BASE*FACTOR**b.
        b = int(math.ceil(math.log(seconds / self.BASE)
                          / math.log(self.FACTOR)))
        b = min(max(b, 1), self.NBINS - 1)
        while b > 1 and seconds <= self.BASE * self.FACTOR ** (b - 1):
            b -= 1
        while b < self.NBINS - 1 and seconds > self.BASE * self.FACTOR ** b:
            b += 1
        return b

    def bin_edge(self, b: int) -> float:
        """Upper edge of bin ``b``."""
        return self.BASE * self.FACTOR ** b

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        self.counts[self.bin_index(seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile (0 <= q <= 1).

        ``quantile(0.0)`` returns the upper edge of the first *non-empty*
        bin (the smallest latency class actually observed), not the edge
        of an empty leading bin.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count <= 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for b, c in enumerate(self.counts):
            if not c:
                continue
            seen += c
            if seen >= rank:
                return self.bin_edge(b)
        return self.max

    def snapshot(self) -> dict:
        return {"count": self.count, "mean": self.mean, "max": self.max,
                "total": self.total,
                "p50": self.quantile(0.5), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}


@dataclass(frozen=True)
class DispatchRecord:
    """One batched dispatch as the scheduler executed it.

    ``launches`` is the device launch-count delta of the whole dispatch —
    for a coalesced group of N compatible requests it must match the
    launch count of a *single* request through the same kernel path (the
    paper's batch-size-independent launch structure), which is exactly
    what the acceptance test checks.
    """

    kind: str           #: "getrf" | "getrs" | "sparse-open" | "sparse-solve"
    batch_size: int     #: requests fused into this dispatch
    launches: int       #: device launch-count delta
    occupancy: float    #: Σ mᵢ·nᵢ / (batch · m_req · n_req); 1.0 = uniform
    retries: int        #: whole-batch retries consumed before success
    isolated: bool      #: True when the group fell back to per-request runs
    sim_seconds: float = 0.0  #: simulated host seconds the dispatch consumed


@dataclass
class ServiceStats:
    """Aggregated service counters; every mutator is thread-safe.

    Per-dispatch :class:`DispatchRecord` history is a bounded ring
    (newest ``_DISPATCH_HISTORY`` records, exposed through
    :attr:`dispatches` as a list snapshot); the derived aggregates are
    maintained as running sums and stay exact over the full history.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0          #: futures resolved with an exception
    rejected: int = 0        #: ServiceOverloaded at admission
    expired: int = 0         #: DeadlineExceeded before dispatch
    cancelled: int = 0
    queue_depth: int = 0
    queue_peak: int = 0
    rebudgets: int = 0       #: sparse memory-arbiter budget recomputations
    precision_fallbacks: int = 0  #: reduced-precision work redone in FP64
    refine_passes: int = 0        #: iterative-refinement correction sweeps
    policy_swaps: int = 0         #: hot CoalescingPolicy replacements
    corruptions_detected: int = 0  #: CorruptionDetected caught dispatching
    kernel_reexecs: int = 0       #: ABFT re-execution rungs consumed
    degraded_dispatches: int = 0  #: dispatches run with the breaker open
    breaker_state: str = "closed"  #: circuit-breaker state after dispatch
    degraded_reason: str | None = None  #: str(ServiceDegraded) while open
    wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    exec: LatencyHistogram = field(default_factory=LatencyHistogram)
    # -- exact running aggregates over the FULL dispatch history --------
    dispatch_count: int = 0
    coalesced_requests: int = 0   #: Σ batch_size
    launches_total: int = 0
    occupancy_total: float = 0.0
    sim_seconds_total: float = 0.0
    isolated_dispatches: int = 0
    retries_total: int = 0
    _ring: deque = field(default=None, repr=False, compare=False)
    _plan_caches: list = field(default=None, repr=False, compare=False)
    _devices: dict = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __post_init__(self):
        self._ring = deque(maxlen=_DISPATCH_HISTORY)
        self._plan_caches = []
        self._devices = {}

    # -- admission -----------------------------------------------------
    def on_submit(self, depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self.queue_depth = depth
            if depth > self.queue_peak:
                self.queue_peak = depth

    def on_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def on_expire(self) -> None:
        with self._lock:
            self.expired += 1

    def on_cancel(self) -> None:
        with self._lock:
            self.cancelled += 1

    def on_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth

    # -- dispatch ------------------------------------------------------
    def on_dispatch(self, record: DispatchRecord,
                    waits: list[float]) -> None:
        with self._lock:
            self._ring.append(record)
            self.dispatch_count += 1
            self.coalesced_requests += record.batch_size
            self.launches_total += record.launches
            self.occupancy_total += record.occupancy
            self.sim_seconds_total += record.sim_seconds
            self.retries_total += record.retries
            if record.isolated:
                self.isolated_dispatches += 1
            for w in waits:
                self.wait.record(w)

    def on_done(self, ok: bool, exec_seconds: float) -> None:
        with self._lock:
            if ok:
                self.completed += 1
            else:
                self.failed += 1
            self.exec.record(exec_seconds)

    def on_rebudget(self) -> None:
        with self._lock:
            self.rebudgets += 1

    def on_policy_swap(self) -> None:
        with self._lock:
            self.policy_swaps += 1

    # -- plan caches -----------------------------------------------------
    def attach_plan_cache(self, cache) -> None:
        """Surface a :class:`~repro.batched.engine.PlanCache`'s
        hit/miss/eviction counters through :meth:`snapshot`, summed with
        every cache attached before (one per device; each cache keeps
        its own lock, stats only read it)."""
        with self._lock:
            self._plan_caches.append(cache)

    # -- corruption defense / circuit breaker ----------------------------
    def on_corruption(self) -> None:
        """One :class:`~repro.errors.CorruptionDetected` was caught by
        the dispatch ladder (the re-execution budget was exhausted)."""
        with self._lock:
            self.corruptions_detected += 1

    def on_kernel_reexec(self, n: int = 1) -> None:
        """``n`` ABFT re-execution rungs were consumed by a dispatch."""
        if n <= 0:
            return
        with self._lock:
            self.kernel_reexecs += n

    def on_degraded_dispatch(self) -> None:
        """One dispatch ran on the degraded ladder (breaker open)."""
        with self._lock:
            self.degraded_dispatches += 1

    def on_breaker_state(self, state: str,
                         degraded=None) -> None:
        """Record the breaker state after a dispatch; ``degraded`` is the
        :class:`~repro.errors.ServiceDegraded` describing an open
        breaker (``None`` once it closes)."""
        with self._lock:
            self.breaker_state = state
            self.degraded_reason = None if degraded is None \
                else str(degraded)

    # -- per-device counters ---------------------------------------------
    def _device(self, index: int) -> dict:
        """The (locked-caller) per-device counter dict for one slot."""
        d = self._devices.get(index)
        if d is None:
            d = self._devices[index] = {
                "dispatches": 0, "coalesced_requests": 0, "launches": 0,
                "occupancy_total": 0.0, "sim_seconds": 0.0,
                "link_bytes": 0, "resident_factor_bytes": 0,
                "degraded_dispatches": 0, "breaker_state": "closed",
            }
        return d

    def on_device_dispatch(self, index: int, record: DispatchRecord) -> None:
        """Account one dispatch against the device slot that executed it
        (the global :meth:`on_dispatch` aggregates still see it too)."""
        with self._lock:
            d = self._device(index)
            d["dispatches"] += 1
            d["coalesced_requests"] += record.batch_size
            d["launches"] += record.launches
            d["occupancy_total"] += record.occupancy
            d["sim_seconds"] += record.sim_seconds

    def on_device_link(self, index: int, nbytes: int) -> None:
        """``nbytes`` of request payload crossed a link to this device."""
        if nbytes <= 0:
            return
        with self._lock:
            self._device(index)["link_bytes"] += int(nbytes)

    def on_device_resident(self, index: int, nbytes: int) -> None:
        """Gauge: factor bytes currently resident on this device."""
        with self._lock:
            self._device(index)["resident_factor_bytes"] = int(nbytes)

    def on_device_breaker(self, index: int, state: str,
                          degraded: bool = False) -> None:
        """Record one device's breaker state after a dispatch."""
        with self._lock:
            d = self._device(index)
            d["breaker_state"] = state
            if degraded:
                d["degraded_dispatches"] += 1

    # -- mixed precision -------------------------------------------------
    def on_precision_fallback(self) -> None:
        with self._lock:
            self.precision_fallbacks += 1

    def on_refine_pass(self, n: int = 1) -> None:
        """``n`` members received one refinement correction sweep."""
        with self._lock:
            self.refine_passes += n

    # -- derived -------------------------------------------------------
    @property
    def dispatches(self) -> list:
        """Snapshot of the retained (newest) dispatch records."""
        with self._lock:
            return list(self._ring)

    @property
    def coalescing_ratio(self) -> float:
        """Mean requests per batched dispatch (1.0 = no coalescing);
        exact over the full history, not just the retained ring."""
        with self._lock:
            if not self.dispatch_count:
                return 0.0
            return self.coalesced_requests / self.dispatch_count

    @property
    def mean_occupancy(self) -> float:
        with self._lock:
            if not self.dispatch_count:
                return 0.0
            return self.occupancy_total / self.dispatch_count

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (safe to serialize).

        Every aggregate is exact over the full history even after the
        dispatch ring has wrapped.
        """
        with self._lock:
            caches = self._plan_caches
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "expired": self.expired,
                "cancelled": self.cancelled,
                "queue_depth": self.queue_depth,
                "queue_peak": self.queue_peak,
                "rebudgets": self.rebudgets,
                "dispatches": self.dispatch_count,
                "coalesced_requests": self.coalesced_requests,
                "coalescing_ratio": (
                    self.coalesced_requests / self.dispatch_count
                    if self.dispatch_count else 0.0),
                "mean_occupancy": (
                    self.occupancy_total / self.dispatch_count
                    if self.dispatch_count else 0.0),
                "occupancy_total": self.occupancy_total,
                "launches": self.launches_total,
                "sim_seconds": self.sim_seconds_total,
                "isolated_dispatches": self.isolated_dispatches,
                "retries": self.retries_total,
                "precision_fallbacks": self.precision_fallbacks,
                "refine_passes": self.refine_passes,
                "policy_swaps": self.policy_swaps,
                "corruptions_detected": self.corruptions_detected,
                "kernel_reexecs": self.kernel_reexecs,
                "degraded_dispatches": self.degraded_dispatches,
                "breaker_state": self.breaker_state,
                "degraded_reason": self.degraded_reason,
                "plan_cache": (None if not caches else {
                    "size": sum(len(c) for c in caches),
                    "capacity": (None if any(c.capacity is None
                                             for c in caches)
                                 else sum(c.capacity for c in caches)),
                    "hits": sum(c.hits for c in caches),
                    "misses": sum(c.misses for c in caches),
                    "evictions": sum(c.evictions for c in caches),
                }),
                "wait": self.wait.snapshot(),
                "exec": self.exec.snapshot(),
                "devices": {
                    idx: dict(d, mean_occupancy=(
                        d["occupancy_total"] / d["dispatches"]
                        if d["dispatches"] else 0.0))
                    for idx, d in sorted(self._devices.items())},
            }
