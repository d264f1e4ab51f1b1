"""Recovery logging: a structured trail of every resilience action.

The fault-tolerant device pipeline (checksummed transfers, OOM
backpressure, transactional level execution, ABFT kernel verification)
never recovers silently: each retry, split, shrink, eviction,
re-execution and fallback appends a :class:`RecoveryEvent` to a
:class:`RecoveryLog`.  The log is attached to the artifacts a caller
already holds — the
:class:`~repro.sparse.numeric.report.FactorReport` of a factorization,
the :class:`~repro.sparse.solver.SolveInfo` of a solve, and any
:class:`~repro.errors.ResourceExhausted` raised when the ladder runs
dry — so "the run succeeded but limped" is always observable.

Every :class:`~repro.device.simulator.Device` owns one canonical log
(``device.recovery_log``); layered code brackets its own work with
:meth:`RecoveryLog.mark` / :meth:`RecoveryLog.since` to carve out the
events belonging to a single factorization or solve while keeping the
device-wide ordering intact.

The log is **bounded**: event payloads live in a ring buffer of
``capacity`` entries (default :data:`DEFAULT_CAPACITY`), so a
long-running service under sustained chaos cannot grow it without
limit.  Counting stays **exact** regardless of eviction — ``len``,
:meth:`RecoveryLog.count`, :meth:`RecoveryLog.counts` and
:meth:`RecoveryLog.summary` are served from monotone per-action
counters, and :meth:`mark`/:meth:`since` speak absolute positions, so
a mark taken before old events were evicted still scopes correctly
over whatever is retained.

Actions (the closed vocabulary used across the stack):

========================  ====================================================
``transfer-retry``        a checksummed H2D/D2H transfer re-ran after
                          detected corruption (with exponential backoff
                          and seeded jitter, recorded in ``detail``)
``launch-retry``          a level transaction re-ran after an injected or
                          runtime kernel-launch failure
``alloc-retry``           a level transaction re-ran after a transient
                          allocation failure
``kernel-reexec``         a launch group re-executed
                          after ABFT checksum verification detected a
                          corrupted kernel output
``level-split``           a level's front batch was split into sub-batches
                          to shrink its transient footprint (or to isolate
                          a persistently corrupted front)
``front-quarantine``      a single front whose kernels stayed corrupted
                          through the re-execution budget was zeroed and
                          flagged (``info = -2``) instead of returning
                          silently wrong factors
``chunk-shrink``          the out-of-core traversal budget was reduced and
                          the factorization restarted
``cache-evict``           a device-resident factor level was spilled (freed;
                          the host copy is authoritative) to make room
``host-fallback``         the device path was abandoned for the host path
``precision-fallback``    a reduced-precision (FP32/complex64)
                          factorization was redone in FP64 because
                          refinement could not reach the FP64 target
========================  ====================================================
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

__all__ = ["RecoveryEvent", "RecoveryLog", "DEFAULT_CAPACITY"]

#: default ring-buffer bound on retained event payloads; chosen well
#: above what one factorization/solve produces so scoped ``since``
#: slices are lossless in practice, while bounding a service's
#: device-lifetime log.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action taken by the resilient pipeline.

    Attributes
    ----------
    action:
        Action slug (see the module docstring for the vocabulary).
    site:
        Where the action happened (kernel name, transfer site, phase).
    attempt:
        1-based attempt number for retry-shaped actions, else 1.
    detail:
        Free-form context (byte counts, front ids, backoff, error text).
    """

    action: str
    site: str = ""
    attempt: int = 1
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.action]
        if self.site:
            parts.append(f"@{self.site}")
        if self.attempt > 1:
            parts.append(f"attempt={self.attempt}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class RecoveryLog:
    """Bounded, ordered collection of :class:`RecoveryEvent` entries.

    Append-only with ring-buffer retention; :meth:`mark`/:meth:`since`
    slice out the events of one logical operation from a long-lived
    (device-owned) log using absolute positions, so they stay correct
    after old payloads are evicted.

    Thread safety: a device-owned log is shared by every worker a
    service runs against the device, so :meth:`record` and the
    :meth:`mark`/:meth:`since` slicers synchronize on an internal lock —
    concurrent recorders interleave whole events, never corrupt the
    ring.  Marks taken by one worker only delimit *its own* region when
    callers serialize their device work (the solver service does).
    """

    def __init__(self, events=(), *, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        events = list(events)
        self.capacity = int(capacity)
        self._ring: deque[RecoveryEvent] = deque(events, maxlen=capacity)
        self._total = len(events)
        self._counts: dict[str, int] = {}
        for ev in events:
            self._counts[ev.action] = self._counts.get(ev.action, 0) + 1
        self._lock = threading.Lock()

    def record(self, action: str, *, site: str = "", attempt: int = 1,
               detail: str = "") -> RecoveryEvent:
        """Append one event and return it."""
        ev = RecoveryEvent(action=action, site=site, attempt=attempt,
                           detail=detail)
        with self._lock:
            self._ring.append(ev)
            self._total += 1
            self._counts[action] = self._counts.get(action, 0) + 1
        return ev

    # -- slicing -----------------------------------------------------------
    def mark(self) -> int:
        """Current absolute position; pass to :meth:`since` to scope a
        region.  Positions are monotone over the log's whole lifetime,
        not ring offsets, so a mark survives eviction."""
        with self._lock:
            return self._total

    def since(self, mark: int) -> "RecoveryLog":
        """New log holding the events recorded after absolute position
        ``mark`` (those still retained; events evicted from the ring in
        the meantime are gone from the slice, never miscounted)."""
        with self._lock:
            dropped = self._total - len(self._ring)
            start = max(0, mark - dropped)
            return RecoveryLog(list(self._ring)[start:],
                               capacity=self.capacity)

    # -- inspection --------------------------------------------------------
    @property
    def events(self) -> list[RecoveryEvent]:
        """Snapshot of the retained event payloads (oldest first)."""
        with self._lock:
            return list(self._ring)

    @property
    def dropped(self) -> int:
        """Number of event payloads evicted by the ring bound (their
        per-action counts remain exact)."""
        with self._lock:
            return self._total - len(self._ring)

    def __len__(self) -> int:
        """Total number of events ever recorded (exact, unbounded)."""
        return self._total

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return self._total > 0

    @property
    def actions(self) -> list[str]:
        return [ev.action for ev in self.events]

    def count(self, action: str | None = None) -> int:
        """Exact number of events ever recorded, optionally restricted
        to one action — exact even after ring eviction."""
        with self._lock:
            if action is None:
                return self._total
            return self._counts.get(action, 0)

    def counts(self) -> dict[str, int]:
        """Exact event counts grouped by action."""
        with self._lock:
            return {a: n for a, n in self._counts.items() if n}

    def summary(self) -> str:
        """One-line digest, e.g. ``"transfer-retry x2, chunk-shrink x1"``."""
        counts = self.counts()
        if not counts:
            return "no recovery actions"
        return ", ".join(f"{action} x{n}"
                         for action, n in sorted(counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecoveryLog({self.summary()})"
