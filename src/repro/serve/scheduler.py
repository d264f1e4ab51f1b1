"""Admission queue and batching policy for the solver service.

The scheduler answers one question: *which pending requests may share a
single batched launch group without changing anyone's bits?*  Grouping is
by a compatibility key computed at admission:

* **Dense factorizations** group by ``(dtype, LU-policy kwargs)`` — any
  mix of sizes — as long as every matrix stays in the *fused-panel
  regime* (``panel_shared_bytes(m, 0, nb, itemsize)`` within the
  device's per-block shared memory).  In that regime the blocked driver's
  panel grid and per-matrix kernels are independent of the batch's
  required dimensions, so the coalesced factors are bitwise-identical to
  a one-request batch.  A matrix too tall for the fused panel would pull
  the whole batch into the recursive panel split, whose blocking depends
  on ``max_m`` across the batch — those requests get singleton keys and
  dispatch alone.
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
    nb = lu_kwargs.get("nb", DEFAULT_PANEL_WIDTH)
    if nb == "auto":
        nb = DEFAULT_PANEL_WIDTH
    itemsize = np.dtype(dtype).itemsize
    fused = panel_shared_bytes(max(m, n), 0, nb, itemsize) <= \
        spec.max_shared_per_block
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

    ``clock`` is the monotonic time source every wait/deadline/SLO
    computation uses (``time.monotonic`` by default; the traffic
    simulator injects a virtual clock so admission dynamics replay
    deterministically in virtual time).
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

    def collect(self, policy: CoalescingPolicy, *, block: bool = True
                ) -> list[Request] | None:
        """Remove and return the next dispatchable group, FIFO by oldest.

        Blocks (when ``block``) until work arrives or :meth:`stop`.
        Holds the oldest compatible request at most its hold budget
        (``policy.max_wait`` capped by the request's SLO) while waiting
        for the group to fill to ``policy.max_batch``.
        Returns ``None`` when stopped (or, with ``block=False``, when
        the queue is empty).

        Every restart path — the queue emptying while we waited, or all
        claimed members losing a cancellation race — *iterates* back to
        the head scan.  (The old implementation recursed while holding
        the condition; a cancellation storm could push it past the
        recursion limit.)
        """
        with self._cond:
            while True:      # one iteration per head-scan attempt
                self._purge_locked(self._clock())
                if not self._q:
                    if self._stopped or not block:
                        self._stats.on_depth(0)
                        return None
                    self._cond.wait()
                    continue

                head = self._q[0]
                while True:   # grow head's group until full/ripe
                    now = self._clock()
                    group = [r for r in self._q if r.key == head.key]
                    if len(group) >= policy.max_batch:
                        break
                    remaining = self._hold_budget(head, policy) - \
                        (now - head.t_submit)
                    if remaining <= 0 or self._stopped or not block:
                        break
                    self._cond.wait(timeout=remaining)
                    self._purge_locked(self._clock())
                    if not self._q:
                        group = []
                        break     # everything expired/cancelled: rescan
                    if self._q[0] is not head:
                        # head purged: adopt the new oldest request and
                        # account the wait it has *already* served — its
                        # own t_submit anchors the budget, so an old
                        # request adopted late never waits from zero.
                        head = self._q[0]
                if not group:
                    continue      # iterate, never recurse

                taken = self._take_locked(group[:policy.max_batch])
                if not taken:     # every member lost a cancellation race
                    continue      # iterate, never recurse
                return taken

    # -- virtual-time collection (traffic simulation) -------------------
    def collect_ready(self, policy: CoalescingPolicy,
                      now: float | None = None) -> list[Request] | None:
        """Non-blocking: the oldest group that is *ripe* at ``now`` —
        full to ``max_batch``, or its head's hold budget spent.
        ``None`` when nothing is ripe yet.

        This is the discrete-event twin of :meth:`collect`: the traffic
        simulator advances a virtual clock to :meth:`next_ripe` and
        drains ripe groups here, reproducing exactly the decisions the
        blocking dispatcher would make in real time.
        """
        with self._cond:
            while True:
                if now is None:
                    now = self._clock()
                self._purge_locked(now)
                seen: set = set()
                for head in list(self._q):
                    if head.key in seen:
                        continue
                    seen.add(head.key)
                    group = [r for r in self._q if r.key == head.key]
                    ripe = len(group) >= policy.max_batch or \
                        (now - head.t_submit) >= \
                        self._hold_budget(head, policy)
                    if not ripe:
                        continue
                    taken = self._take_locked(group[:policy.max_batch])
                    if taken:
                        return taken
                    break         # cancellation race: rescan from top
                else:
                    return None

    def next_ripe(self, policy: CoalescingPolicy,
                  now: float | None = None) -> float | None:
        """Earliest time at which some queued group becomes ripe
        (``now`` for already-full groups); ``None`` when the queue is
        empty.  Purges nothing and takes nothing."""
        with self._cond:
            if now is None:
                now = self._clock()
            best = None
            seen: set = set()
            counts: dict = {}
            for r in self._q:
                counts[r.key] = counts.get(r.key, 0) + 1
            for head in self._q:
                if head.key in seen:
                    continue
                seen.add(head.key)
                if counts[head.key] >= policy.max_batch:
                    t = now
                else:
                    t = head.t_submit + self._hold_budget(head, policy)
                if head.t_deadline is not None:
                    # an expired request becomes purgeable — also an event
                    t = min(t, head.t_deadline)
                best = t if best is None else min(best, t)
            return best
