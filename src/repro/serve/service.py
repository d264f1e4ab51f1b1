"""SolverService — concurrent factor/solve serving with batch coalescing.

The paper's batched kernels amortize launch overhead across a batch; a
service receiving *independent* small factorizations one at a time
forfeits exactly that amortization.  :class:`SolverService` wins it
back: concurrent ``factor(A)`` / ``solve(handle, b)`` /
``factor_solve(A, b)`` submissions land in an admission queue, a single
dispatcher thread groups compatible requests (see
:mod:`repro.serve.scheduler` for the bitwise-safety rules), and each
group runs as **one** irregular-batch launch sequence through
:func:`~repro.batched.getrf.irr_getrf` /
:func:`~repro.batched.getrs.irr_getrs` — N requests, one launch group,
results sliced back per request.

Threading model
---------------
Submission (``submit_*``, the sync wrappers, ``cancel``) is safe from
any thread.  All device work runs on the dispatcher thread — the
simulated :class:`~repro.device.simulator.Device` requires a single
launch owner (its docstring states the contract) — so the service
funnels every kernel through one thread while callers block on
futures.  Construct with ``start=False`` and drive :meth:`run_once`
for deterministic single-threaded tests.

Devices
-------
The service serves one :class:`~repro.device.simulator.Device` or every
member of a :class:`~repro.device.node.Node`, and owns one slot per
device: batch engine (plan cache), circuit breaker and memory arbiter
(the sparse budget split evenly).  Each coalesced group runs whole on
one slot: a sparse solve goes to the device holding its session;
anything else goes to the device whose simulated clock is furthest
behind, skipping open breakers unless every breaker is open.  Every
dense group runs on the bucketed group runner.  Member devices share
one spec, so results are bitwise identical at every device count —
placement changes where work runs, never what it computes.

Isolation
---------
Failures are per-request.  A pivot breakdown poisons only its own
future (:class:`~repro.errors.FactorizationError`); an injected device
fault first triggers whole-batch retries from pristine host inputs
(launch faults fire before numerics, so retries are bitwise-safe), and
if the fault persists the group re-runs one request at a time so only
the genuinely faulted requests fail
(:class:`~repro.errors.ResourceExhausted`, transfer/launch errors).
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import scipy.sparse as sp

from ..batched.engine import PLAN_CACHE_CAPACITY, BatchEngine, PlanCache
from ..batched.getrf import irr_getrf
from ..batched.getrs import PivotView, irr_getrs
from ..batched.interface import IrrBatch
from ..device.memory import DeviceOutOfMemory, validate_memory_budget
from ..device.node import Node
from ..device.simulator import Device
from ..errors import CorruptionDetected, FactorizationError, \
    KernelLaunchError, ResourceExhausted, TransferError
from ..sparse.solver import ESCALATED_REFINE_STEPS, REFINE_TARGET, \
    SparseLU, _REDUCED_OF
from .health import FAULT_ACTIONS, CircuitBreaker
from .scheduler import AdmissionQueue, CoalescingPolicy, Request, \
    ServiceFuture, getrf_key, getrs_key, sparse_key
from .session import MemoryArbiter, ServeSession
from .stats import DispatchRecord, ServiceStats

__all__ = ["SolverService", "FactorHandle"]

#: Device-side failures the dispatch ladder retries / isolates.
#: :class:`CorruptionDetected` belongs here because every retry rung
#: re-uploads from the pristine host payloads — corrupted device bytes
#: never feed a retry.
_SYSTEM_ERRORS = (KernelLaunchError, TransferError, DeviceOutOfMemory,
                  ResourceExhausted, CorruptionDetected)

#: Whole-batch retries (from pristine host inputs) on a transient device
#: fault before a group falls back to per-request isolation runs.
DISPATCH_RETRIES = 2

#: Pivot-policy keywords a dense factor request may carry (all pass
#: through to :func:`~repro.batched.getrf.irr_getrf` and are part of the
#: compatibility key — requests with different policies never coalesce).
_LU_KWARGS = frozenset({"pivot_tol", "static_pivot", "replace_scale"})

#: Solve keywords a sparse solve request may carry.
_SPARSE_SOLVE_KWARGS = frozenset({"refine_steps"})

#: Keywords a sparse factor request may carry (``SparseLU`` constructor
#: + factor backend + breakdown policy + working precision).
_SPARSE_FACTOR_KWARGS = frozenset({"use_mc64", "leaf_size", "backend",
                                   "pivot_tol", "static_pivot",
                                   "replace_scale", "breakdown",
                                   "precision", "precision_fallback"})

#: Working precisions a dense/sparse request may ask for.
_PRECISIONS = (None, "fp64", "fp32")


def _pick_dtype(a: np.ndarray) -> np.dtype:
    """The device precision a host matrix factors in (mirrors
    :meth:`IrrBatch.from_host`): float32/complex stay, other floats
    promote to float64.  Integer/bool/object payloads are rejected with
    the same typed error :class:`IrrBatch` raises — never silently
    promoted to a precision the caller did not ask for."""
    d = np.asarray(a).dtype
    if d.kind not in "fc":
        raise ValueError(f"unsupported data type {d}")
    if d in (np.float32, np.complex64, np.complex128):
        return np.dtype(d)
    return np.dtype(np.float64)


class FactorHandle:
    """A served dense factorization: host-resident packed LU + pivots.

    Returned by ``factor``/``factor_solve`` on dense inputs; pass it to
    ``solve`` for coalesced repeated solves.  Holds the *host* copy of
    the factors (the service re-uploads per solve group), so a handle
    survives device resets and its solves can coalesce with systems
    from entirely different factor batches.

    Per-request diagnostics sliced from the batch factorization:
    ``info`` (LAPACK semantics), ``n_replaced`` / ``min_pivot`` /
    ``growth`` (static-pivot recovery and stability measures).

    Mixed precision: a handle factored with ``precision="fp32"`` keeps
    the original FP64 matrix in ``a_ref`` — solves against it run the
    batched sweep in the reduced dtype and refine the solution back to
    FP64 accuracy against ``a_ref``.  When refinement cannot reach the
    target the service re-factors ``a_ref`` in FP64 and *heals the
    handle in place* (``precision`` flips to ``"fp64"``), so later
    solves skip the doomed reduced path.
    """

    __slots__ = ("lu", "ipiv", "m", "n", "dtype", "info", "n_replaced",
                 "min_pivot", "growth", "precision", "a_ref")

    def __init__(self, lu: np.ndarray, ipiv: np.ndarray, info: int,
                 n_replaced: int, min_pivot: float, growth: float,
                 precision: str = "fp64", a_ref: np.ndarray | None = None):
        self.lu = lu
        self.ipiv = ipiv
        self.m, self.n = lu.shape
        self.dtype = lu.dtype
        self.info = info
        self.n_replaced = n_replaced
        self.min_pivot = min_pivot
        self.growth = growth
        self.precision = precision
        self.a_ref = a_ref

    @property
    def ok(self) -> bool:
        """True when the factors carry no unrecovered breakdown."""
        return self.info == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FactorHandle({self.m}x{self.n}, {self.dtype}, "
                f"info={self.info}, n_replaced={self.n_replaced})")


class _Slot:
    """Everything one device owns: its engine (plan cache), circuit
    breaker, memory arbiter and the sparse sessions it hosts."""

    __slots__ = ("index", "device", "engine", "breaker", "arbiter",
                 "sessions")

    def __init__(self, index: int, device: Device, breaker: CircuitBreaker,
                 arbiter: MemoryArbiter):
        self.index = index
        self.device = device
        # One engine for the service's lifetime: every dispatch reuses
        # the same DCWI plan cache, so recurring shapes re-plan nothing.
        self.engine = BatchEngine(
            cache=PlanCache(capacity=PLAN_CACHE_CAPACITY))
        self.breaker = breaker
        self.arbiter = arbiter
        self.sessions: list[ServeSession] = []


class SolverService:
    """Thread-safe serving front-end over one device or a whole node.

    Parameters
    ----------
    device:
        The :class:`~repro.device.simulator.Device` all dispatches run
        on, or a :class:`~repro.device.node.Node` whose member devices
        share the traffic (see "Devices" in the module docstring).  The
        dispatcher thread is the single launch owner of every device;
        don't launch kernels on them from other threads while the
        service is live.
    policy:
        The :class:`~repro.serve.scheduler.CoalescingPolicy` batching
        knobs.  ``CoalescingPolicy(max_batch=1)`` is the
        one-request-per-launch reference configuration.
    sparse_memory_budget:
        One device-byte budget split evenly across devices, and on each
        device across its open sparse sessions, by a per-device
        :class:`~repro.serve.session.MemoryArbiter` (``None`` =
        unbudgeted residency).
    start:
        Start the dispatcher thread immediately.  ``start=False`` +
        :meth:`run_once` gives deterministic inline dispatch for tests.
    breaker:
        The :class:`~repro.serve.health.CircuitBreaker` of a one-device
        service (a default-configured one when omitted; each device of
        a node always gets a default one, and passing ``breaker=`` with
        a node raises ``TypeError``).
        It is fed the recovery-log fault delta of every dispatch on its
        device; when it opens, dispatches degrade (placement skips the
        device while another is healthy, and at severity 2 new sparse
        sessions go to the host backend) until a half-open probe comes
        back clean.  Its cooldown counts the service's dispatches, so a
        skipped device still gets its probe.  Degradation is
        observable — ``stats.snapshot()["breaker_state"]`` /
        ``["degraded_reason"]``, per device under ``["devices"]`` —
        never raised at request callers.
    """

    def __init__(self, device: Device | Node, *,
                 policy: CoalescingPolicy | None = None,
                 sparse_memory_budget: int | None = None,
                 start: bool = True, clock=time.monotonic,
                 breaker: CircuitBreaker | None = None):
        if isinstance(device, Node):
            if breaker is not None:
                raise TypeError("breaker= configures a one-device service; "
                                "each device of a Node gets its own")
            devices = list(device)
        elif isinstance(device, Device):
            devices = [device]
        else:
            raise TypeError(f"SolverService needs a Device or a Node, "
                            f"got {type(device).__name__}")
        self.device = device
        self._policy_lock = threading.Lock()
        self._policy = policy if policy is not None else CoalescingPolicy()
        if not isinstance(self._policy, CoalescingPolicy):
            raise TypeError(f"policy must be a CoalescingPolicy, got "
                            f"{type(self._policy).__name__}")
        self.stats = ServiceStats()
        self._clock = clock
        self._queue = AdmissionQueue(self.stats, clock=clock)
        total = validate_memory_budget(sparse_memory_budget,
                                       name="sparse memory budget")
        share = None if total is None else max(1, total // len(devices))
        # plan caches are LRU-bounded by PLAN_CACHE_CAPACITY; their
        # summed hit/miss/eviction counters surface in stats.snapshot()
        self._slots = [
            _Slot(i, dev,
                  breaker if breaker is not None else CircuitBreaker(),
                  MemoryArbiter(share, stats=self.stats))
            for i, dev in enumerate(devices)]
        for slot in self._slots:
            self.stats.attach_plan_cache(slot.engine.cache)
        self._serial = 0
        self._serial_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        if start:
            self.start()

    # ------------------------------------------------------------------
    # policy (hot-swappable)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> CoalescingPolicy:
        """The live batching policy (read atomically; see
        :meth:`set_policy`)."""
        with self._policy_lock:
            return self._policy

    @policy.setter
    def policy(self, new: CoalescingPolicy) -> None:
        self.set_policy(new)

    def set_policy(self, new: CoalescingPolicy) -> CoalescingPolicy:
        """Atomically install ``new`` as the batching policy; returns
        the policy it replaced (``TypeError`` unless ``new`` is a
        :class:`~repro.serve.scheduler.CoalescingPolicy`).

        Safe at any time, from any thread, with work in flight: an
        admission reads the policy reference once, and the dispatcher
        reads it once each time it wakes, so no decision sees half of
        one policy and half of another.  Queued requests are **not**
        dropped or re-keyed — compatibility keys are fixed at admission
        and no policy knob enters them.  The swap wakes a dispatcher
        holding a group, so a shorter hold applies to that group at
        once.
        """
        if not isinstance(new, CoalescingPolicy):
            raise TypeError(f"policy must be a CoalescingPolicy, got "
                            f"{type(new).__name__}")
        with self._policy_lock:
            old, self._policy = self._policy, new
        self.stats.on_policy_swap()
        self._queue.kick()
        return old

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolverService":
        if self._thread is not None:
            raise RuntimeError("service already started")
        if self._closed:
            raise RuntimeError("service is closed")
        self._thread = threading.Thread(target=self._run,
                                        name="solver-service", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain the queue, dispatch everything pending, stop the
        dispatcher.  Idempotent; no future is left unresolved."""
        if self._closed:
            return
        self._closed = True
        self._queue.stop()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        else:
            self._drain_inline()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def run_once(self) -> int:
        """Dispatch every group currently admissible; return the number
        of groups dispatched.  Only valid with ``start=False`` (the
        dispatcher thread otherwise owns the queue)."""
        if self._thread is not None:
            raise RuntimeError("run_once() requires start=False")
        return self._drain_inline()

    def _drain_inline(self) -> int:
        n = 0
        while True:
            group = self._queue.collect(self.policy, block=False)
            if group is None:
                return n
            self._safe_dispatch(group)
            n += 1

    def _run(self) -> None:
        while True:
            group = self._queue.collect(lambda: self.policy)
            if group is None:
                return
            self._safe_dispatch(group)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _next_serial(self) -> int:
        with self._serial_lock:
            self._serial += 1
            return self._serial

    def _admit(self, req: Request) -> ServiceFuture:
        self._queue.push(req, self.policy.max_queue)
        return req.future

    @staticmethod
    def _check_kwargs(kwargs: dict, allowed: frozenset, what: str) -> None:
        bad = set(kwargs) - allowed
        if bad:
            raise TypeError(f"unknown {what} keyword(s) {sorted(bad)}; "
                            f"allowed: {sorted(allowed)}")

    def _dense_payload(self, a, need_square: bool) -> tuple[np.ndarray,
                                                            np.dtype]:
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={a.ndim}")
        if need_square and a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square to solve, "
                             f"got {a.shape}")
        dtype = _pick_dtype(a)
        return np.array(a, dtype=dtype, copy=True), dtype

    @staticmethod
    def _rhs_payload(b, n: int, dtype: np.dtype) -> tuple[np.ndarray, int]:
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(
                f"rhs must have {n} rows (1-D or 2-D), got {b.shape}")
        rt = np.result_type(dtype, b.dtype)
        if rt != dtype:
            raise TypeError(
                f"rhs dtype {b.dtype} does not fit the factor dtype "
                f"{dtype} (result type {rt}); factor in the wider type")
        ndim = b.ndim
        b2 = np.array(b if b.ndim == 2 else b[:, None], dtype=dtype,
                      copy=True)
        return b2, ndim

    @staticmethod
    def _check_precision(precision) -> None:
        if precision not in _PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}; "
                             f"choose 'fp32', 'fp64' or None")

    @staticmethod
    def _reduce_payload(host: np.ndarray, dtype: np.dtype,
                        precision) -> tuple[np.ndarray, np.dtype,
                                            np.ndarray | None]:
        """Cast a dense factor payload to the requested working
        precision: ``(device payload, device dtype, FP64 reference)``.
        The reference is ``None`` unless the request is mixed (natively
        single-precision inputs have no FP64 truth to refine against)."""
        if precision != "fp32" or np.dtype(dtype) not in _REDUCED_OF:
            return host, dtype, None
        work = _REDUCED_OF[np.dtype(dtype)]
        return host.astype(work), work, host

    def submit_factor(self, a, *, deadline: float | None = None,
                      slo: float | None = None,
                      precision: str | None = None,
                      **kwargs) -> ServiceFuture:
        """Queue a factorization.  Dense ``a`` resolves to a
        :class:`FactorHandle`; sparse ``a`` to an open
        :class:`~repro.serve.session.ServeSession`.  ``deadline`` is
        seconds in the queue before the request expires with
        :class:`~repro.errors.DeadlineExceeded`; ``slo`` is the *soft*
        latency objective — it never drops work, it only caps how long
        the scheduler may hold this request for batching
        (:data:`~repro.serve.scheduler.SLO_HOLD_FRACTION` of it).

        ``precision="fp32"`` factors in the reduced working precision
        (float32 / complex64): dense handles keep the FP64 matrix for
        refinement at solve time; sparse sessions delegate to
        ``SparseLU.factor(precision=...)``.  The working precision is
        part of the coalescing key — requests of different precisions
        never share a launch group.
        """
        self._check_precision(precision)
        if sp.issparse(a):
            self._check_kwargs(kwargs, _SPARSE_FACTOR_KWARGS,
                               "sparse factor")
            if precision is not None:
                kwargs["precision"] = precision
            key = ("sparse-open", "solo", self._next_serial())
            return self._admit(Request("sparse-factor", key,
                                       {"a": a.copy(), "kwargs": kwargs},
                                       deadline, slo=slo,
                                       clock=self._clock))
        self._check_kwargs(kwargs, _LU_KWARGS, "LU")
        host, dtype = self._dense_payload(a, need_square=False)
        host, dtype, a_ref = self._reduce_payload(host, dtype, precision)
        key = getrf_key(host.shape[0], host.shape[1], dtype, kwargs,
                        self.device.spec, self._next_serial(),
                        mixed=a_ref is not None)
        return self._admit(Request("factor", key,
                                   {"a": host, "a_ref": a_ref,
                                    "lu_kwargs": kwargs},
                                   deadline, slo=slo,
                                   clock=self._clock))

    def submit_solve(self, handle, b, *, deadline: float | None = None,
                     slo: float | None = None, **kwargs) -> ServiceFuture:
        """Queue a solve against a served factorization.

        Dense ``handle`` (:class:`FactorHandle`) resolves to ``x``;
        sparse ``handle`` (:class:`ServeSession`) resolves to
        ``(x, SolveInfo)``.  Broken dense factors are refused here,
        synchronously — they can never produce a solution.
        """
        if isinstance(handle, ServeSession):
            self._check_kwargs(kwargs, _SPARSE_SOLVE_KWARGS,
                               "sparse solve")
            if handle.closed:
                raise RuntimeError(f"session {handle.sid} is closed")
            key = sparse_key(handle.sid, tuple(sorted(kwargs.items())),
                             serial=self._next_serial())
            return self._admit(Request(
                "sparse-solve", key,
                {"session": handle, "b": np.array(np.asarray(b), copy=True),
                 "kwargs": kwargs}, deadline, slo=slo, clock=self._clock))
        if not isinstance(handle, FactorHandle):
            raise TypeError(f"expected FactorHandle or ServeSession, "
                            f"got {type(handle).__name__}")
        if kwargs:
            raise TypeError(f"dense solve takes no keywords, "
                            f"got {sorted(kwargs)}")
        if handle.m != handle.n:
            raise ValueError(
                f"cannot solve from a rectangular factorization "
                f"({handle.m}x{handle.n})")
        if not handle.ok:
            raise FactorizationError(
                f"cannot solve from broken-down LU factors (info="
                f"{handle.info}); re-factor with static_pivot=True")
        if handle.precision == "fp32":
            # mixed handle: the rhs is validated (and refined) against
            # the FP64 reference; the sweep runs in the reduced dtype
            b_ref, ndim = self._rhs_payload(b, handle.n,
                                            handle.a_ref.dtype)
            key = getrs_key(handle.dtype, mixed=True)
            return self._admit(Request(
                "solve", key,
                {"handle": handle, "b2": b_ref.astype(handle.dtype),
                 "b_ref": b_ref, "ndim": ndim}, deadline, slo=slo,
                clock=self._clock))
        b2, ndim = self._rhs_payload(b, handle.n, handle.dtype)
        key = getrs_key(handle.dtype)
        return self._admit(Request("solve", key,
                                   {"handle": handle, "b2": b2,
                                    "ndim": ndim}, deadline, slo=slo,
                                   clock=self._clock))

    def submit_factor_solve(self, a, b, *,
                            deadline: float | None = None,
                            slo: float | None = None,
                            precision: str | None = None,
                            **kwargs) -> ServiceFuture:
        """Queue factor+solve as one request.  Dense resolves to
        ``(x, FactorHandle)``; sparse to ``(x, SolveInfo)`` (one-shot:
        the session is closed after the solve).  The factor step
        coalesces with pending ``factor`` requests; the solve step runs
        as one solve over every clean member of the dispatch.
        ``precision="fp32"`` behaves as in :meth:`submit_factor`; the
        returned solution is always refined to FP64 accuracy."""
        self._check_precision(precision)
        if sp.issparse(a):
            self._check_kwargs(kwargs, _SPARSE_FACTOR_KWARGS |
                               _SPARSE_SOLVE_KWARGS, "sparse factor_solve")
            if precision is not None:
                kwargs["precision"] = precision
            key = ("sparse-open", "solo", self._next_serial())
            return self._admit(Request(
                "sparse-factor-solve", key,
                {"a": a.copy(), "b": np.array(np.asarray(b), copy=True),
                 "kwargs": kwargs}, deadline, slo=slo, clock=self._clock))
        self._check_kwargs(kwargs, _LU_KWARGS, "LU")
        host, dtype = self._dense_payload(a, need_square=True)
        b_ref, ndim = self._rhs_payload(b, host.shape[0], dtype)
        host, dtype, a_ref = self._reduce_payload(host, dtype, precision)
        b2 = b_ref if a_ref is None else b_ref.astype(dtype)
        key = getrf_key(host.shape[0], host.shape[1], dtype, kwargs,
                        self.device.spec, self._next_serial(),
                        mixed=a_ref is not None)
        return self._admit(Request("factor_solve", key,
                                   {"a": host, "a_ref": a_ref, "b2": b2,
                                    "b_ref": b_ref if a_ref is not None
                                    else None, "ndim": ndim,
                                    "lu_kwargs": kwargs}, deadline,
                                   slo=slo, clock=self._clock))

    # -- sync convenience ----------------------------------------------
    def _await(self, fut, timeout):
        """Wait for ``fut``; on an unstarted service, drain the queue on
        the calling thread first (there is no dispatcher to do it)."""
        if self._thread is None:
            self._drain_inline()
        return fut.result(timeout)

    def factor(self, a, *, timeout: float | None = None, **kwargs):
        """Synchronous :meth:`submit_factor` (submit + wait)."""
        return self._await(self.submit_factor(a, **kwargs), timeout)

    def solve(self, handle, b, *, timeout: float | None = None, **kwargs):
        """Synchronous :meth:`submit_solve`."""
        return self._await(self.submit_solve(handle, b, **kwargs), timeout)

    def factor_solve(self, a, b, *, timeout: float | None = None,
                     **kwargs):
        """Synchronous :meth:`submit_factor_solve`."""
        return self._await(self.submit_factor_solve(a, b, **kwargs),
                           timeout)

    # ------------------------------------------------------------------
    # dispatch (single dispatcher thread)
    # ------------------------------------------------------------------
    def _safe_dispatch(self, group: list[Request]) -> DispatchRecord:
        """Dispatch one group; guarantee every member's future resolves.

        Returns the :class:`DispatchRecord`, stamped with the
        *simulated* device seconds the dispatch consumed (host-clock
        delta across a final ``synchronize()``) — the currency the
        traffic replay runs on.
        """
        slot = self._place(group)
        device, breaker = slot.device, slot.breaker
        waits = [r.waited() for r in group]
        t0 = time.perf_counter()
        dev_t0 = device.host_time
        mark = device.recovery_log.mark()
        corr0 = self.stats.corruptions_detected
        was_open = breaker.state == "open"
        try:
            kind = group[0].key[0]
            if kind == "getrf":
                record = self._dispatch_dense(slot, group,
                                              self._run_getrf_group)
            elif kind == "getrs":
                record = self._dispatch_dense(slot, group,
                                              self._run_getrs_group)
            elif kind == "sparse-open":
                record = self._dispatch_sparse_open(slot, group)
            else:
                record = self._dispatch_sparse_solve(slot, group)
        except BaseException as exc:  # noqa: BLE001 - resolve, re-raise
            elapsed = time.perf_counter() - t0
            for r in group:
                self._fail(r, RuntimeError(
                    f"internal dispatch failure: {type(exc).__name__}: "
                    f"{exc}"))
                self.stats.on_done(False, elapsed)
            raise
        record = dataclasses.replace(
            record, sim_seconds=device.synchronize() - dev_t0)
        # feed the circuit breaker: this dispatch's recovery-log delta
        # (every repair action the stack recorded on its behalf) plus
        # the typed corruptions the ladder caught.
        delta = device.recovery_log.since(mark).counts()
        self.stats.on_kernel_reexec(delta.get("kernel-reexec", 0))
        faults = sum(delta.get(a, 0) for a in FAULT_ACTIONS) \
            + (self.stats.corruptions_detected - corr0)
        if was_open:
            self.stats.on_degraded_dispatch()
        state = breaker.record(faults)
        self.stats.on_breaker_state(state, breaker.last_degraded)
        self.stats.on_dispatch(record, waits)
        self.stats.on_device_dispatch(slot.index, record)
        self.stats.on_device_breaker(slot.index, state, degraded=was_open)
        # an open breaker's cooldown counts every dispatch of the
        # service: a device that placement skips half-opens all the same
        # and takes a later group as its probe
        for other in self._slots:
            if other is not slot and other.breaker.state == "open":
                self.stats.on_device_breaker(other.index,
                                             other.breaker.record(0))
        self.stats.on_device_link(slot.index, self._staged_nbytes(group))
        self.stats.on_device_resident(slot.index,
                                      self._resident_nbytes(slot))
        elapsed = time.perf_counter() - t0
        for r in group:
            if not r.future.done():
                self._fail(r, RuntimeError(
                    "dispatch completed without resolving this request"))
            self.stats.on_done(r.future.exception() is None, elapsed)
        return record

    def _place(self, group: list[Request]) -> _Slot:
        """The slot one coalesced group runs on (the placement rules of
        the module docstring; a one-device service has only one)."""
        slots = self._slots
        if len(slots) == 1:
            return slots[0]
        if group[0].key[0] == "sparse-solve":
            home = group[0].payload["session"].device
            for slot in slots:
                if slot.device is home:
                    return slot
        healthy = [s for s in slots if s.breaker.state != "open"]
        return min(healthy or slots,
                   key=lambda s: (s.device.host_time, s.index))

    @staticmethod
    def _staged_nbytes(group: list[Request]) -> int:
        """Host payload bytes this group stages onto its device (the
        matrices, right-hand sides and re-uploaded dense factors)."""
        total = 0
        for r in group:
            for key in ("a", "b2", "b"):
                v = r.payload.get(key)
                if v is None:
                    continue
                if sp.issparse(v):
                    total += v.data.nbytes + v.indices.nbytes + \
                        v.indptr.nbytes
                else:
                    total += v.nbytes
            h = r.payload.get("handle")
            if h is not None:
                total += h.lu.nbytes
        return total

    @staticmethod
    def _resident_nbytes(slot: _Slot) -> int:
        """Factor bytes currently device-resident for the slot's open
        sparse sessions (closed sessions are pruned as a side effect)."""
        slot.sessions = [s for s in slot.sessions if not s.closed]
        return sum(s.solver.solve_cache.resident_nbytes
                   for s in slot.sessions
                   if s.solver.solve_cache is not None)

    @staticmethod
    def _fail(req: Request, error: BaseException) -> None:
        req.future._resolve(error=error)

    def _caught(self, exc: BaseException) -> BaseException:
        """Count a caught :class:`CorruptionDetected` (the breaker's
        fault signal); returns ``exc`` for the caller to fail with."""
        if isinstance(exc, CorruptionDetected):
            self.stats.on_corruption()
        return exc

    def _dispatch_dense(self, slot: _Slot, group: list[Request], runner
                        ) -> DispatchRecord:
        """Retry-then-isolate ladder around one dense batch runner.

        Launch faults fire *before* kernel numerics and every attempt
        re-uploads from the pristine host payloads, so whole-batch
        retries are bitwise-safe.  When retries are spent the group
        degrades to per-request runs: only the requests whose own runs
        keep faulting fail.
        """
        kind = group[0].key[0]
        for attempt in range(DISPATCH_RETRIES + 1):
            try:
                launches, occupancy = runner(slot, group)
                return DispatchRecord(kind, len(group), launches,
                                      occupancy, attempt, False)
            except _SYSTEM_ERRORS as exc:
                self._caught(exc)
        launches = 0
        occs = []
        for req in group:
            done = False
            for attempt in range(DISPATCH_RETRIES + 1):
                try:
                    solo_launches, occ = runner(slot, [req])
                    launches += solo_launches
                    occs.append(occ)
                    done = True
                    break
                except _SYSTEM_ERRORS as exc:
                    last = self._caught(exc)
            if not done:
                self._fail(req, last)
        occupancy = sum(occs) / len(occs) if occs else 0.0
        return DispatchRecord(kind, len(group), launches, occupancy,
                              DISPATCH_RETRIES + 1, True)

    # -- dense runners ---------------------------------------------------
    def _run_getrf_group(self, slot: _Slot, group: list[Request]
                         ) -> tuple[int, float]:
        """One coalesced getrf (+ embedded getrs for factor_solve).

        Resolves every member future on success.  On a device fault the
        partial device state is freed and *no* future is touched — the
        caller's ladder retries from the pristine host payloads.
        """
        device, engine = slot.device, slot.engine
        dtype = np.dtype(group[0].key[1])
        launch0 = device.profiler.launch_count
        batch = IrrBatch.from_host_packed(device,
                                   [r.payload["a"] for r in group],
                                   dtype=dtype)
        try:
            occupancy = self._occupancy(batch.m_vec, batch.n_vec)
            pivots = irr_getrf(device, batch, engine=engine,
                               **group[0].payload["lu_kwargs"])
            # factor_solve members with clean factors: one solve over all
            # of them, reusing the still-resident factored arrays — no
            # re-upload.
            clean = [i for i, r in enumerate(group)
                     if r.kind == "factor_solve" and pivots.info[i] == 0]
            xs: dict[int, np.ndarray] = {}
            if clean:
                xs = dict(zip(clean, self._device_solve(
                    slot, batch, pivots.ipiv, clean,
                    [group[i].payload["b2"] for i in clean])))
            # the finisher refines against the still-resident factors
            self._finish_getrf(slot, group, batch, pivots, xs)
        finally:
            batch.free()
        return device.profiler.launch_count - launch0, occupancy

    def _finish_getrf(self, slot: _Slot, group: list[Request],
                      batch: IrrBatch, piv, xs: dict) -> None:
        """Tail of the getrf runner: handles → mixed refinement → FP64
        fallback → resolve.

        ``batch``/``piv`` are the factored batch, still device-resident,
        and its pivots; ``xs`` maps member index → solution of each
        clean factor_solve member.  Mixed members refine against the
        resident reduced factors; broken or stagnating ones take the
        solo FP64 fallback."""
        mixed = "mixed" in group[0].key
        lus = batch.to_host()
        handles = [FactorHandle(
            lus[i], np.array(piv.ipiv[i]),
            int(piv.info[i]), int(piv.n_replaced[i]),
            float(piv.min_pivot[i]), float(piv.growth[i]),
            precision="fp32" if mixed else "fp64",
            a_ref=group[i].payload.get("a_ref"))
            for i in range(len(group))]
        failures: dict[int, BaseException] = {}
        if mixed:
            items = [(i, group[i].payload["a_ref"],
                      group[i].payload["b_ref"], xs[i])
                     for i in xs if handles[i].info == 0]
            bad: list[int] = []
            if items:
                refined, bad = self._refine_members(
                    slot, batch, [h.ipiv for h in handles], items)
                xs.update(refined)
            for i, (req, h) in enumerate(zip(group, handles)):
                if h.info != 0 or i in bad:
                    try:
                        xs[i] = self._dense_precision_fallback(
                            slot, h, req.payload.get("b_ref"),
                            req.payload["lu_kwargs"])
                    except FactorizationError as exc:
                        failures[i] = exc
        for i, req in enumerate(group):
            if i in failures:
                self._fail(req, failures[i])
            else:
                self._resolve_getrf_member(req, handles[i], xs.get(i))

    def _resolve_getrf_member(self, req: Request, handle: FactorHandle,
                              x: np.ndarray | None) -> None:
        """Resolve one factor/factor_solve member from its handle (+
        solution, for clean factor_solve members)."""
        if handle.info != 0:
            self._fail(req, FactorizationError(
                f"pivot breakdown at elimination step {handle.info} "
                f"(min |pivot| = {handle.min_pivot:.3e}); re-factor "
                f"with static_pivot=True or a looser pivot_tol"))
        elif req.kind == "factor":
            req.future._resolve(value=handle)
        else:
            if req.payload["ndim"] == 1:
                x = x[:, 0]
            req.future._resolve(value=(x, handle))

    def _run_getrs_group(self, slot: _Slot, group: list[Request]
                         ) -> tuple[int, float]:
        """One coalesced getrs over handles of any orders (re-uploaded).

        Mixed (``precision="fp32"``) groups run the same batched sweep
        in the reduced dtype, then the shared FP64 refinement finisher
        against each handle's reference matrix; members whose
        refinement stagnates take the solo FP64 fallback (which heals
        their handles for later solves)."""
        device = slot.device
        dtype = np.dtype(group[0].key[1])
        mixed = "mixed" in group[0].key
        launch0 = device.profiler.launch_count
        handles = [r.payload["handle"] for r in group]
        ipivs = [h.ipiv for h in handles]
        bs = [r.payload["b2"] for r in group]
        occupancy = self._occupancy([b.shape[0] for b in bs],
                                    [b.shape[1] for b in bs])
        factored = IrrBatch.from_host_packed(device,
                                            [h.lu for h in handles],
                                      dtype=dtype)
        bad: list[int] = []
        try:
            sols = self._device_solve(slot, factored, ipivs,
                                      range(len(group)), bs)
            if mixed:
                items = [(i, handles[i].a_ref,
                          group[i].payload["b_ref"], sols[i])
                         for i in range(len(group))]
                xs, bad = self._refine_members(slot, factored, ipivs, items)
                sols = [xs[i] for i in range(len(group))]
        finally:
            factored.free()
        failures: dict[int, BaseException] = {}
        for i in bad:
            try:
                sols[i] = self._dense_precision_fallback(
                    slot, handles[i], group[i].payload["b_ref"])
            except FactorizationError as exc:
                failures[i] = exc
        launches = device.profiler.launch_count - launch0
        for i, (req, x) in enumerate(zip(group, sols)):
            if i in failures:
                self._fail(req, failures[i])
                continue
            if req.payload["ndim"] == 1:
                x = x[:, 0]
            req.future._resolve(value=x)
        return launches, occupancy

    @staticmethod
    def _occupancy(m_vec, n_vec) -> float:
        """The share of a group's padded ``max m × max n`` grid its
        members fill."""
        m, n = np.asarray(m_vec), np.asarray(n_vec)
        denom = len(m) * int(m.max()) * int(n.max()) if len(m) else 0
        return float(np.sum(m * n)) / denom if denom else 1.0

    @staticmethod
    def _device_solve(slot: _Slot, factored: IrrBatch, ipiv, members,
                      rhs: list[np.ndarray]) -> list[np.ndarray]:
        """Solve the ``members`` of the device-resident ``factored``
        batch (pivots ``ipiv``, indexed like it) for the host
        right-hand sides ``rhs``: one upload, one ``irr_getrs``, one
        synchronize and one download, the uploaded copy freed on every
        path.  Returns the host solutions, one per member."""
        device, idx = slot.device, np.asarray(members)
        fsub = IrrBatch(device, [factored.arrays[i] for i in idx],
                        factored.m_vec[idx], factored.n_vec[idx])
        batch = IrrBatch.from_host_packed(device, rhs, dtype=factored.dtype)
        try:
            view = PivotView([ipiv[i] for i in idx],
                             np.zeros(len(idx), dtype=np.int64))
            irr_getrs(device, fsub, view, batch, engine=slot.engine)
            device.synchronize()
            return batch.to_host()
        finally:
            batch.free()

    # -- mixed-precision finisher ----------------------------------------
    def _refine_members(self, slot: _Slot, batch: IrrBatch, ipiv,
                        items: list[tuple]) -> tuple[dict, list[int]]:
        """FP64 iterative-refinement finisher shared by the getrf and
        getrs group runners.

        ``batch`` holds the reduced-precision factored arrays
        (device-resident, indexed like the dispatch group); ``items``
        is ``(index, a_ref, b_ref, x_work)`` per mixed member.  Each
        pass computes FP64 residuals on the host against the members'
        reference matrices and runs **one irregular batched correction
        solve** over every active member in the working precision —
        N members of mixed orders refine for the launch cost of one
        sweep (the irregular kernels exist precisely so mixed sizes
        share a launch).  Each member's correction solve is blocked on
        its own order only (see :func:`~repro.batched.trsm.irr_trsm`)
        and whether it stays active depends on its own residual only,
        so a refined solution is bitwise the same whatever it was
        coalesced with.  Members that reach
        :data:`~repro.sparse.solver.REFINE_TARGET` drop out; the ones
        still above it after :data:`ESCALATED_REFINE_STEPS` passes are
        returned as stagnated (the caller runs the FP64 fallback).
        """
        work = batch.dtype
        xs, arefs, brefs, denoms = {}, {}, {}, {}
        for i, a_ref, b_ref, x0 in items:
            arefs[i], brefs[i] = a_ref, b_ref
            xs[i] = np.asarray(x0, dtype=b_ref.dtype)
            nb = float(np.linalg.norm(b_ref))
            denoms[i] = nb if nb else 1.0

        def err(i):
            return float(np.linalg.norm(brefs[i] - arefs[i] @ xs[i])) \
                / denoms[i]

        active = [i for i, *_ in items]
        for _ in range(ESCALATED_REFINE_STEPS):
            active = [i for i in active if err(i) > REFINE_TARGET]
            if not active:
                break
            self.stats.on_refine_pass(len(active))
            rs = [(brefs[i] - arefs[i] @ xs[i]).astype(work)
                  for i in active]
            cs = self._device_solve(slot, batch, ipiv, active, rs)
            for j, i in enumerate(active):
                xs[i] = xs[i] + np.asarray(cs[j], dtype=xs[i].dtype)
        bad = [i for i in active if err(i) > REFINE_TARGET]
        return xs, bad

    def _dense_precision_fallback(self, slot: _Slot, handle: FactorHandle,
                                  b_ref: np.ndarray | None,
                                  lu_kwargs: dict | None = None
                                  ) -> np.ndarray | None:
        """Solo FP64 re-factorization of a mixed handle whose reduced
        factors broke down or whose refinement stagnated.

        Heals the handle in place — its factors, pivots and
        ``precision`` flip to FP64, so later solves against it skip the
        doomed reduced path — records a ``precision-fallback`` in the
        device's recovery log, and returns the FP64 solution when a
        right-hand side is given."""
        device = slot.device
        a64 = handle.a_ref
        batch = IrrBatch.from_host_packed(device, [a64], dtype=a64.dtype)
        x = None
        try:
            pivots = irr_getrf(device, batch, engine=slot.engine,
                               **(lu_kwargs or {}))
            if b_ref is not None and pivots.info[0] == 0:
                x = self._device_solve(slot, batch, pivots.ipiv, [0],
                                       [b_ref])[0]
            lu_host = batch.to_host()[0]
        finally:
            batch.free()
        handle.lu = lu_host
        handle.ipiv = pivots.ipiv[0].copy()
        handle.dtype = lu_host.dtype
        handle.info = int(pivots.info[0])
        handle.n_replaced = int(pivots.n_replaced[0])
        handle.min_pivot = float(pivots.min_pivot[0])
        handle.growth = float(pivots.growth[0])
        handle.precision = "fp64"
        device.recovery_log.record(
            "precision-fallback", site="SolverService",
            detail=f"{handle.m}x{handle.n} {a64.dtype} re-factored in "
                   f"full precision")
        self.stats.on_precision_fallback()
        if handle.info != 0:
            raise FactorizationError(
                f"pivot breakdown at elimination step {handle.info} even "
                f"after the FP64 re-factorization (min |pivot| = "
                f"{handle.min_pivot:.3e}); re-factor with "
                f"static_pivot=True or a looser pivot_tol")
        return x

    # -- sparse runners --------------------------------------------------
    def _note_sparse_info(self, info) -> None:
        """Fold one sparse ``SolveInfo`` into the service counters."""
        self.stats.on_refine_pass(max(0, len(info.residuals) - 1))
        if getattr(info, "fallback", False):
            self.stats.on_precision_fallback()

    def _open_session(self, slot: _Slot, a, kwargs: dict) -> ServeSession:
        factor_kw = dict(kwargs)
        pinned = "backend" in factor_kw
        backend = factor_kw.pop("backend", "batched")
        if not pinned and slot.breaker.force_host():
            # severity-2 degradation: the device is persistently
            # faulting, so sessions the caller did not pin to a backend
            # factor on the host (an explicit backend= always wins)
            backend = "cpu"
            self.stats.on_degraded_dispatch()
        ctor_kw = {k: factor_kw.pop(k) for k in ("use_mc64", "leaf_size")
                   if k in factor_kw}
        solver = SparseLU(a, **ctor_kw).analyze()
        device = None if backend == "cpu" else slot.device
        solver.factor(backend=backend, device=device, **factor_kw)
        session = ServeSession(solver, slot.device, slot.arbiter)
        # the factorization leaves its factors on the device: keep them
        # there only within the session's share of the sparse budget
        cache, share = solver.solve_cache, session.budget
        if cache is not None and share is not None \
                and cache.resident_nbytes > share:
            cache.free()
        slot.sessions.append(session)
        return session

    def _dispatch_sparse_open(self, slot: _Slot, group: list[Request]
                              ) -> DispatchRecord:
        device = slot.device
        launch0 = device.profiler.launch_count
        for req in group:     # singleton keys: len(group) == 1
            try:
                if req.kind == "sparse-factor":
                    session = self._open_session(slot, req.payload["a"],
                                                 req.payload["kwargs"])
                    req.future._resolve(value=session)
                else:  # sparse-factor-solve: one-shot
                    kw = dict(req.payload["kwargs"])
                    solve_kw = {k: kw.pop(k) for k in
                                _SPARSE_SOLVE_KWARGS if k in kw}
                    session = self._open_session(slot, req.payload["a"], kw)
                    try:
                        x, info = session.solve_on_device(
                            req.payload["b"], **solve_kw)
                    finally:
                        session.close()
                    self._note_sparse_info(info)
                    req.future._resolve(value=(x, info))
            except (*_SYSTEM_ERRORS, FactorizationError,
                    ValueError) as exc:
                self._fail(req, self._caught(exc))
        device.synchronize()
        return DispatchRecord("sparse-open", len(group),
                              device.profiler.launch_count - launch0,
                              1.0, 0, False)

    def _dispatch_sparse_solve(self, slot: _Slot, group: list[Request]
                               ) -> DispatchRecord:
        device = slot.device
        launch0 = device.profiler.launch_count
        for req in group:     # singleton keys: len(group) == 1
            try:
                x, info = req.payload["session"].solve_on_device(
                    req.payload["b"], **req.payload["kwargs"])
                self._note_sparse_info(info)
                req.future._resolve(value=(x, info))
            except (*_SYSTEM_ERRORS, FactorizationError,
                    RuntimeError) as exc:
                self._fail(req, self._caught(exc))
        device.synchronize()
        return DispatchRecord("sparse-solve", len(group),
                              device.profiler.launch_count - launch0,
                              1.0, 0, False)
