"""Admission queue and batching policy for the solver service.

The scheduler answers one question: *which pending requests may share a
single batched launch group without changing anyone's bits?*  Grouping is
by a compatibility key computed at admission:

* **Dense factorizations** group by ``(dtype, pivot policy)`` — any
  mix of sizes — as long as every matrix stays in the *fused-panel
  regime* (a 32-column panel, ``panel_shared_bytes(m, 0, 32,
  itemsize)``, within the device's per-block shared memory).  In that
  regime the blocked driver's panel grid and per-matrix kernels are
  independent of the batch's required dimensions, so the coalesced
  factors are bitwise-identical to a one-request batch.  A matrix too
  tall for the fused panel would pull the whole batch into the recursive
  panel split, whose blocking depends on ``max_m`` across the batch —
  those requests get singleton keys and dispatch alone.
* **Dense solves** group by dtype alone — any mix of orders.  The
  irrTRSM recursion cuts every triangle on one fixed power-of-two grid,
  so a member's blocking depends on its own order, never on the
  largest order in its group: a coalesced solve is bitwise-identical to
  a one-request one.  (The fused-panel fit above is the one rule left
  that depends on the whole batch.)
* **Sparse solves** are singletons — stacking right-hand sides changes
  the BLAS accumulation width and the refinement's global residual
  norm, neither bitwise-safe.

*How many requests to group and how long to hold them* are the two
batching knobs of :class:`CoalescingPolicy` (``max_batch``,
``max_wait``; ``max_queue`` bounds admission).  An operator swaps a new
policy in atomically between dispatches
(:meth:`~repro.serve.service.SolverService.set_policy`) without
dropping queued work.  Admission is SLO-aware: a request
submitted with ``slo=`` caps its own hold time at
:data:`SLO_HOLD_FRACTION` of ``slo``, so batching never spends a
request's whole latency budget waiting for company.

The queue is bounded (admission raises
:class:`~repro.errors.ServiceOverloaded` when full), FIFO per key, and
deadline/cancellation aware: expired and cancelled requests are resolved
and dropped during collection, never dispatched.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, replace as _dc_replace

import numpy as np

from ..batched.getrf import DEFAULT_PANEL_WIDTH
from ..batched.panel import panel_shared_bytes
from ..errors import DeadlineExceeded, RequestCancelled, ServiceOverloaded

__all__ = ["CoalescingPolicy", "ServiceFuture", "Request",
           "AdmissionQueue"]

#: Future/request states.
_PENDING, _DISPATCHED, _DONE = "pending", "dispatched", "done"

#: Fraction of a request's soft latency objective (``slo=`` at
#: submission) the scheduler may spend holding it for batching; the
#: remainder is headroom for execution.
SLO_HOLD_FRACTION = 0.5


@dataclass(frozen=True)
class CoalescingPolicy:
    """The service's batching knobs (a pure value; safe to share).

    Derive a changed instance with :meth:`replace` and install it with
    ``SolverService.set_policy``.  No knob changes the bits of a served
    answer: the admission keys make any grouping bitwise-safe, so any
    two policies produce bitwise-identical per-request results.  That is
    what makes hot-swapping safe.

    Attributes
    ----------
    max_batch:
        Largest number of requests fused into one launch group.
        ``max_batch=1`` disables coalescing — every request dispatches
        alone (the sequential reference the benchmarks compare against).
    max_wait:
        Longest time (host seconds) the oldest request of a group may
        sit in the queue while the scheduler waits for more compatible
        arrivals.  ``0.0`` dispatches whatever is present immediately.
    max_queue:
        Admission bound; a full queue rejects with
        :class:`~repro.errors.ServiceOverloaded`.
    """

    max_batch: int = 32
    max_wait: float = 2e-3
    max_queue: int = 256

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")

    def replace(self, **changes) -> "CoalescingPolicy":
        """A copy with ``changes`` applied (validation re-runs)."""
        return _dc_replace(self, **changes)

    def describe(self) -> dict:
        """The knobs as a plain dict (stable across swaps)."""
        return asdict(self)


class ServiceFuture:
    """Handle to one submitted request (thread-safe).

    ``result()`` blocks until the dispatcher resolves the request and
    returns the value or raises the request's own typed error —
    failures are *per-request*: a pivot breakdown or injected fault on
    one request of a coalesced batch surfaces here and nowhere else.

    Each ``result()`` call raises a *fresh* copy of the stored error,
    context-chained (``__cause__``) to the original: concurrent waiters
    each get their own exception object, so one waiter's raise never
    mutates the ``__traceback__`` another waiter is formatting.
    ``exception()`` returns the original object (read-only access does
    not raise, so it cannot race).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = _PENDING
        self._value = None
        self._error: BaseException | None = None

    # -- caller side ---------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        with self._lock:
            return isinstance(self._error, RequestCancelled)

    def cancel(self) -> bool:
        """Cancel iff still queued; returns whether cancellation won.

        A request the dispatcher already collected cannot be cancelled —
        its launches may be in flight — and resolves normally.
        """
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _DONE
            self._error = RequestCancelled(
                f"{self.kind} request cancelled while queued")
        self._event.set()
        return True

    def _rearmed_error(self) -> BaseException:
        """A per-waiter copy of the stored error, chained to the
        original.  Falls back to the original object only if the class
        cannot be shallow-copied at all."""
        err = self._error
        try:
            clone = err.__class__.__new__(err.__class__)
            clone.args = err.args
            if getattr(err, "__dict__", None):
                clone.__dict__.update(err.__dict__)
        except Exception:   # exotic exception class: degrade gracefully
            return err
        clone.__cause__ = err
        return clone

    def result(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"{self.kind} request not resolved within {timeout}s")
        if self._error is not None:
            raise self._rearmed_error()
        return self._value

    def exception(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"{self.kind} request not resolved within {timeout}s")
        return self._error

    # -- dispatcher side -----------------------------------------------
    def _claim(self) -> bool:
        """Move pending → dispatched; False if cancelled/resolved first."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _DISPATCHED
            return True

    def _resolve(self, value=None, error: BaseException | None = None
                 ) -> bool:
        with self._lock:
            if self._state == _DONE:
                return False
            self._state = _DONE
            self._value = value
            self._error = error
        self._event.set()
        return True


class Request:
    """One queued unit of work (internal to the service).

    ``deadline`` is the hard bound: a request that waits past it is
    dropped with :class:`~repro.errors.DeadlineExceeded`.  ``slo`` is
    the *soft* latency objective: it never drops work, it only caps how
    long the scheduler may hold the request for batching (see
    :meth:`AdmissionQueue.collect`).
    """

    __slots__ = ("kind", "key", "payload", "future", "t_submit",
                 "deadline", "t_deadline", "slo", "_clock")

    def __init__(self, kind: str, key: tuple, payload: dict,
                 deadline: float | None, *, slo: float | None = None,
                 clock=time.monotonic):
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        if slo is not None and slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        self.kind = kind
        self.key = key
        self.payload = payload
        self.future = ServiceFuture(kind)
        self._clock = clock
        self.t_submit = clock()
        self.deadline = deadline
        self.t_deadline = None if deadline is None else \
            self.t_submit + deadline
        self.slo = slo

    def waited(self, now: float | None = None) -> float:
        return (self._clock() if now is None else now) - self.t_submit

    def expired(self, now: float) -> bool:
        return self.t_deadline is not None and now > self.t_deadline


# ----------------------------------------------------------------------
# compatibility keys
# ----------------------------------------------------------------------
def getrf_key(m: int, n: int, dtype: np.dtype, lu_kwargs: dict,
              spec, serial: int, *, mixed: bool = False) -> tuple:
    """Group key for a dense factorization (and the factor step of
    ``factor_solve``): dtype + LU policy + fused-regime membership.

    Matrices outside the fused-panel regime get a singleton key (the
    ``serial`` discriminator) so they never drag a batch into the
    recursive panel split, whose blocking depends on the batch's
    ``max_m`` and is therefore not bitwise-stable under coalescing.

    ``mixed`` marks a reduced-precision (``precision="fp32"``) request:
    its dispatch carries an FP64 refinement finisher, so it must never
    coalesce with natively single-precision requests of the same device
    dtype.
    """
    itemsize = np.dtype(dtype).itemsize
    fused = panel_shared_bytes(max(m, n), 0, DEFAULT_PANEL_WIDTH,
                               itemsize) <= spec.max_shared_per_block
    policy = tuple(sorted(lu_kwargs.items()))
    key = ("getrf", np.dtype(dtype).str, policy)
    if mixed:
        key += ("mixed",)
    if not fused:
        key += ("solo", serial)
    return key


def getrs_key(dtype: np.dtype, *, mixed: bool = False) -> tuple:
    """Group key for a dense solve: one class per dtype.  Solves of any
    orders share a launch group bitwise-safely, because the irrTRSM
    recursion blocks each member on its own order (see
    :func:`~repro.batched.trsm.irr_trsm`).  ``mixed`` separates solves
    against reduced-precision (``precision="fp32"``) handles — they run
    the FP64 refinement finisher after the batched sweep."""
    key = ("getrs", np.dtype(dtype).str)
    if mixed:
        key += ("mixed",)
    return key


def sparse_key(session_id: int, solve_kwargs: tuple, *,
               serial: int) -> tuple:
    """Group key for a sparse solve: always a singleton (stacking
    right-hand sides is not bitwise-safe)."""
    return ("sparse-solve", session_id, solve_kwargs, "solo", serial)


# ----------------------------------------------------------------------
class AdmissionQueue:
    """Bounded FIFO with compatibility-key group collection.

    Every group is picked by one rule, :meth:`_take_ripe_locked`, for
    the dispatcher thread and the inline drain (:meth:`collect`) and
    for the virtual-time replay (:meth:`collect_ready` at
    :meth:`next_ripe`) alike.  ``clock`` is the monotonic time source
    of every wait, deadline and SLO (``time.monotonic`` by default; the
    traffic simulator injects a virtual clock so admission dynamics
    replay deterministically in virtual time).
    """

    def __init__(self, stats, clock=time.monotonic):
        self._q: list[Request] = []
        self._cond = threading.Condition()
        self._stopped = False
        self._stats = stats
        self._clock = clock

    def __len__(self) -> int:
        with self._cond:
            return len(self._q)

    # -- submit side ---------------------------------------------------
    def push(self, req: Request, max_queue: int) -> None:
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            if len(self._q) >= max_queue:
                self._stats.on_reject()
                raise ServiceOverloaded(len(self._q), max_queue)
            self._q.append(req)
            self._stats.on_submit(len(self._q))
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def kick(self) -> None:
        """Wake a blocked collector so it re-reads its policy — called
        after a hot swap, where a shortened hold budget must take effect
        now, not after the old budget's timeout."""
        with self._cond:
            self._cond.notify_all()

    # -- dispatcher side -----------------------------------------------
    def _purge_locked(self, now: float) -> None:
        """Resolve and drop cancelled/expired requests (lock held)."""
        keep = []
        for req in self._q:
            if req.future.done():           # cancelled by the caller
                self._stats.on_cancel()
                continue
            if req.expired(now):
                if req.future._resolve(error=DeadlineExceeded(
                        req.deadline, req.waited(now))):
                    self._stats.on_expire()
                continue
            keep.append(req)
        self._q = keep

    def _hold_budget(self, req: Request, policy: CoalescingPolicy) -> float:
        """How long ``req`` may be held waiting for company:
        ``policy.max_wait``, capped by the request's soft latency
        objective (SLO-aware admission — batching never spends more
        than :data:`SLO_HOLD_FRACTION` of a request's latency budget in
        the queue)."""
        budget = float(policy.max_wait)
        if req.slo is not None:
            budget = min(budget, SLO_HOLD_FRACTION * req.slo)
        return budget

    def _groups_locked(self) -> list[list[Request]]:
        """The queue split by key, each group in FIFO order and the
        groups ordered by their oldest member (lock held)."""
        groups: dict = {}
        for r in self._q:
            groups.setdefault(r.key, []).append(r)
        return list(groups.values())

    def _ripe_at(self, group: list[Request],
                 policy: CoalescingPolicy) -> float:
        """When ``group`` ripens: at once when full, else when its head
        has spent its hold budget.  :meth:`_take_ripe_locked` compares
        ``now`` against this very value, so a group is ripe at the time
        :meth:`next_ripe` reports, to the last bit."""
        if len(group) >= policy.max_batch:
            return -math.inf
        head = group[0]
        return head.t_submit + self._hold_budget(head, policy)

    def _take_locked(self, group: list[Request]) -> list[Request]:
        """Claim and remove ``group`` from the queue (lock held)."""
        taken = []
        for r in group:
            if r.future._claim():
                taken.append(r)
            else:                       # lost a cancellation race
                self._stats.on_cancel()
        ids = {id(r) for r in group}
        self._q = [r for r in self._q if id(r) not in ids]
        self._stats.on_depth(len(self._q))
        return taken

    def _take_ripe_locked(self, policy: CoalescingPolicy, now: float, *,
                          any_group: bool) -> list[Request] | None:
        """The one group-selection rule (lock held): purge, then claim
        the first ``max_batch`` members of the oldest group *ripe* at
        ``now`` (:meth:`_ripe_at`: full, or its head's hold budget
        spent) — or of the oldest group at all when ``any_group``.
        ``None`` when no group qualifies.  A group whose every member
        lost a cancellation race restarts the scan (a loop, never a
        recursion, however many are cancelled)."""
        while True:
            self._purge_locked(now)
            for group in self._groups_locked():
                if any_group or now >= self._ripe_at(group, policy):
                    taken = self._take_locked(group[:policy.max_batch])
                    if taken:
                        return taken
                    break
            else:
                return None

    def collect(self, policy, *, block: bool = True
                ) -> list[Request] | None:
        """Remove and return the next dispatchable group.

        ``policy`` is a :class:`CoalescingPolicy`, or a zero-argument
        callable returning the live one: the service passes its policy
        reader, which is read again every time the collector wakes, so
        a swap (:meth:`kick`) governs a hold already in progress.

        With ``block`` (the dispatcher thread) this takes the group
        ripe now, or else sleeps until :meth:`next_ripe`, an arrival or
        a kick, and looks again; once :meth:`stop` is called it drains
        the oldest group at once and returns ``None`` when the queue is
        empty.  With ``block=False`` (the inline drain) it takes the
        oldest group at once, ripe or not, and returns ``None`` on an
        empty queue.
        """
        read = policy if callable(policy) else (lambda: policy)
        with self._cond:
            while True:
                live, now = read(), self._clock()
                group = self._take_ripe_locked(
                    live, now, any_group=self._stopped or not block)
                if group is not None:
                    return group
                if not self._q and (self._stopped or not block):
                    self._stats.on_depth(0)
                    return None
                wake = self.next_ripe(live, now)    # the lock re-enters
                self._cond.wait(None if wake is None else wake - now)

    # -- virtual-time collection (traffic simulation) -------------------
    def collect_ready(self, policy: CoalescingPolicy,
                      now: float | None = None) -> list[Request] | None:
        """Non-blocking: the oldest group ripe at ``now`` (default: the
        queue's clock), by the rule :meth:`collect` applies; ``None``
        when nothing is ripe yet.  The traffic replay advances its
        virtual clock to :meth:`next_ripe` and takes groups here."""
        with self._cond:
            return self._take_ripe_locked(
                policy, self._clock() if now is None else now,
                any_group=False)

    def next_ripe(self, policy: CoalescingPolicy,
                  now: float | None = None) -> float | None:
        """Earliest time, no earlier than ``now``, at which
        :meth:`collect_ready` takes a group or purges an expired
        request, wherever it is queued; ``None`` when the queue is
        empty.  Purges nothing and takes nothing."""
        with self._cond:
            now = self._clock() if now is None else now
            # a request becomes purgeable at the first float past its
            # deadline (Request.expired) — also an event
            times = [math.nextafter(r.t_deadline, math.inf)
                     for r in self._q if r.t_deadline is not None]
            times += [self._ripe_at(group, policy)
                      for group in self._groups_locked()]
            return max(min(times), now) if times else None
