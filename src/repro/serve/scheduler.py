"""Admission queue and dispatch policy for the solver service.

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
* **Sparse solves** are singleton by default — stacking right-hand sides
  changes the BLAS accumulation width and the refinement's global
  residual norm, neither bitwise-safe.  ``coalesce_sparse_rhs=True``
  opts a session into same-session RHS stacking (results then match to
  rounding, not bitwise).

*How long to hold a group open* is the :class:`DispatchPolicy`'s call.
:class:`CoalescingPolicy` is the static implementation — fixed
``max_batch``/``max_wait`` knobs — and the online autotuner
(:mod:`repro.serve.autotune`) swaps refined instances in atomically
between dispatches (:meth:`~repro.serve.service.SolverService.set_policy`)
without dropping queued work.  Admission is SLO-aware: a request
submitted with ``slo=`` caps its own hold time at
``slo_hold_fraction · slo``, so batching never spends a request's whole
latency budget waiting for company.

The queue is bounded (admission raises
:class:`~repro.errors.ServiceOverloaded` when full), FIFO per key, and
deadline/cancellation aware: expired and cancelled requests are resolved
and dropped during collection, never dispatched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace as _dc_replace
from typing import Protocol, runtime_checkable

import numpy as np

from ..batched.getrf import DEFAULT_PANEL_WIDTH
from ..batched.panel import panel_shared_bytes
from ..errors import DeadlineExceeded, RequestCancelled, ServiceOverloaded

__all__ = ["DispatchPolicy", "CoalescingPolicy", "ServiceFuture",
           "Request", "AdmissionQueue"]

#: Future/request states.
_PENDING, _DISPATCHED, _DONE = "pending", "dispatched", "done"

#: Attribute surface a hot-swappable policy must provide (validated by
#: ``SolverService.set_policy`` — duck-typed, any object with these
#: attributes and the two per-key hooks qualifies).
_POLICY_ATTRS = ("max_batch", "max_wait", "max_queue", "dispatch_retries",
                 "coalesce_sparse_rhs", "panel_regime", "slo_hold_fraction")


@runtime_checkable
class DispatchPolicy(Protocol):
    """What the service and queue ask of a batching policy.

    A policy is consulted at three points, always through one
    atomically-read reference (see ``SolverService.set_policy``):

    * **admission** — ``max_queue`` bounds the queue;
      ``coalesce_sparse_rhs`` shapes compatibility keys.
    * **collection** — :meth:`group_limit` and :meth:`wait_budget` decide
      how large a group may grow and how long its oldest member may be
      held waiting for company.
    * **dispatch** — ``dispatch_retries`` and ``panel_regime`` steer the
      execution ladder.

    Every knob changes *launch shapes only*: any two policies must
    produce bitwise-identical per-request results (the service's
    coalescing contract guarantees this for group composition; the
    remaining knobs are restricted to bit-stable ranges — see
    :class:`CoalescingPolicy`).  That is what makes hot-swapping safe.
    """

    max_batch: int
    max_wait: float
    max_queue: int
    dispatch_retries: int
    coalesce_sparse_rhs: bool
    panel_regime: str | None
    slo_hold_fraction: float

    def group_limit(self, key: tuple) -> int:
        """Largest group size for requests sharing ``key``."""
        ...

    def wait_budget(self, key: tuple) -> float:
        """Longest hold (seconds) for the oldest request under ``key``."""
        ...


@dataclass(frozen=True)
class CoalescingPolicy:
    """Static batching knobs of the service (a pure value; safe to share).

    The reference :class:`DispatchPolicy` implementation: every knob is a
    constant, :meth:`group_limit`/:meth:`wait_budget` ignore the key.
    The online autotuner derives refined instances via :meth:`replace`
    and installs them with ``SolverService.set_policy``.

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
    dispatch_retries:
        Whole-batch retries (from pristine host inputs) on a transient
        device fault before the group falls back to per-request
        isolation runs.
    coalesce_sparse_rhs:
        Allow same-session sparse solves to stack their right-hand
        sides into one multi-column sweep.  Off by default: stacked
        solves match to rounding, not bitwise.
    plan_cache_capacity:
        LRU bound for the service engine's DCWI plan cache (``None`` =
        unbounded, the historical behavior).  Long-lived services with
        unbounded shape diversity should set this.  Applied when the
        service constructs its engine; a hot swap does not resize the
        live cache.
    panel_regime:
        Dispatch-time default for the dense panel path when a request
        does not pin ``panel=`` itself: ``None`` (leave the kernel
        default, ``"auto"``), ``"auto"`` or ``"columnwise"``.  The fused
        and column-wise panel kernels are bitwise-identical (same
        elimination arithmetic, different launch structure), so this
        knob is tunable without parity loss; ``"fused"`` is deliberately
        not offered here because it raises on batches outside the
        shared-memory regime.
    slo_hold_fraction:
        Fraction of a request's soft latency objective (``slo=`` at
        submission) the scheduler may spend holding it for batching.
        The remainder is headroom for execution.
    """

    max_batch: int = 32
    max_wait: float = 2e-3
    max_queue: int = 256
    dispatch_retries: int = 2
    coalesce_sparse_rhs: bool = False
    plan_cache_capacity: int | None = None
    panel_regime: str | None = None
    slo_hold_fraction: float = 0.5

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.dispatch_retries < 0:
            raise ValueError(f"dispatch_retries must be >= 0, "
                             f"got {self.dispatch_retries}")
        if self.plan_cache_capacity is not None \
                and self.plan_cache_capacity < 1:
            raise ValueError(f"plan_cache_capacity must be >= 1 or None, "
                             f"got {self.plan_cache_capacity}")
        if self.panel_regime not in (None, "auto", "columnwise"):
            raise ValueError(
                f"panel_regime must be None, 'auto' or 'columnwise', got "
                f"{self.panel_regime!r} ('fused' raises outside the "
                f"shared-memory regime and is not a safe service default)")
        if not 0.0 < self.slo_hold_fraction <= 1.0:
            raise ValueError(f"slo_hold_fraction must be in (0, 1], got "
                             f"{self.slo_hold_fraction}")

    # -- DispatchPolicy hooks ------------------------------------------
    def group_limit(self, key: tuple) -> int:
        return self.max_batch

    def wait_budget(self, key: tuple) -> float:
        return self.max_wait

    def replace(self, **changes) -> "CoalescingPolicy":
        """A copy with ``changes`` applied (validation re-runs)."""
        return _dc_replace(self, **changes)

    def describe(self) -> dict:
        """The tunable knobs as a plain dict (stable across swaps)."""
        return {k: getattr(self, k) for k in _POLICY_ATTRS}


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
    :meth:`AdmissionQueue.collect`).  ``order`` is the request's
    characteristic problem size (min(m, n) / solve order), recorded for
    the run-time size-distribution summary the autotuner reads.
    """

    __slots__ = ("kind", "key", "payload", "future", "t_submit",
                 "deadline", "t_deadline", "slo", "order", "cls", "_clock")

    def __init__(self, kind: str, key: tuple, payload: dict,
                 deadline: float | None, *, slo: float | None = None,
                 order: int | None = None, cls: str | None = None,
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
        self.order = order
        self.cls = cls

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
               coalesce: bool, serial: int) -> tuple:
    """Group key for a sparse solve: singleton unless the policy opts
    the session into RHS stacking (same session + same solve kwargs)."""
    if coalesce:
        return ("sparse-solve", session_id, solve_kwargs)
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
            self._stats.on_submit(len(self._q), req.order)
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

    def _hold_budget(self, req: Request, policy: DispatchPolicy) -> float:
        """How long ``req`` may be held waiting for company: the
        policy's wait budget, capped by the request's soft latency
        objective (SLO-aware admission — batching never spends more
        than ``slo_hold_fraction`` of a request's latency budget in the
        queue)."""
        budget = float(policy.wait_budget(req.key))
        if req.slo is not None:
            frac = getattr(policy, "slo_hold_fraction", 0.5)
            budget = min(budget, frac * req.slo)
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

    def collect(self, policy: DispatchPolicy, *, block: bool = True
                ) -> list[Request] | None:
        """Remove and return the next dispatchable group, FIFO by oldest.

        Blocks (when ``block``) until work arrives or :meth:`stop`.
        Holds the oldest compatible request at most its hold budget
        (``policy.wait_budget`` capped by the request's SLO) while
        waiting for the group to fill to ``policy.group_limit``.
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
                    limit = policy.group_limit(head.key)
                    if len(group) >= limit:
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

                taken = self._take_locked(group[:policy.group_limit(
                    head.key)])
                if not taken:     # every member lost a cancellation race
                    continue      # iterate, never recurse
                return taken

    # -- virtual-time collection (traffic simulation) -------------------
    def collect_ready(self, policy: DispatchPolicy,
                      now: float | None = None) -> list[Request] | None:
        """Non-blocking: the oldest group that is *ripe* at ``now`` —
        full to its group limit, or its head's hold budget spent.
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
                    limit = policy.group_limit(head.key)
                    group = [r for r in self._q if r.key == head.key]
                    ripe = len(group) >= limit or \
                        (now - head.t_submit) >= \
                        self._hold_budget(head, policy)
                    if not ripe:
                        continue
                    taken = self._take_locked(group[:limit])
                    if taken:
                        return taken
                    break         # cancellation race: rescan from top
                else:
                    return None

    def next_ripe(self, policy: DispatchPolicy,
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
                if counts[head.key] >= policy.group_limit(head.key):
                    t = now
                else:
                    t = head.t_submit + self._hold_budget(head, policy)
                if head.t_deadline is not None:
                    # an expired request becomes purgeable — also an event
                    t = min(t, head.t_deadline)
                best = t if best is None else min(best, t)
            return best
