"""Typed exceptions for the robustness layer (numerical and system).

Numerical failures
------------------
:class:`FactorizationError` is the single failure type the pipeline
raises when an LU factorization breaks down (a pivot below the
breakdown threshold that static pivoting did not, or could not,
recover) or when a solve cannot reach its accuracy target from a
perturbed factorization.  It subclasses :class:`numpy.linalg.LinAlgError`
so existing ``except LinAlgError`` call sites keep working, and carries
the per-front :class:`~repro.sparse.numeric.report.FactorReport` (when
one exists) so callers can see *which* fronts failed and why.

:class:`PrecisionFallback` is the mixed-precision specialization: a
reduced-precision (FP32/complex64) factorization could not deliver the
FP64 refinement target and the automatic re-factorization in full
precision was disabled.  It subclasses :class:`FactorizationError` and
records the backward error actually achieved next to the target, so a
caller can decide whether the cheap answer was good enough after all.

System failures
---------------
The device pipeline can also fail for non-numerical reasons — a transfer
that keeps arriving corrupted, a kernel launch the runtime rejects, or a
recovery ladder (retry → split → shrink → spill → host fallback) that
runs out of options.  These raise :class:`TransferError`,
:class:`KernelLaunchError` and :class:`ResourceExhausted` respectively;
never a bare :class:`MemoryError` and never silent garbage.  Each error
carries enough context (site, attempt count, the
:class:`~repro.recovery.RecoveryLog` of actions already taken) for a
caller to decide whether to re-run, re-budget, or re-host the work.
:class:`FactorsReleased` marks factors whose blocks lived only in a
device store that was dropped without a download: re-factor to use
them again.

Service failures
----------------
The serving layer (:mod:`repro.serve`) rejects and expires work with its
own typed errors so callers can distinguish "the solver broke" from "the
service would not take the job": :class:`ServiceOverloaded` (admission
queue full — back off and retry), :class:`DeadlineExceeded` (the request
waited past its deadline and was dropped before dispatch) and
:class:`RequestCancelled` (the caller cancelled a queued request).  None
of them subclass :class:`numpy.linalg.LinAlgError`: they carry no
numerical meaning.

Silent-data-corruption defense
------------------------------
A kernel that *completes* but computes wrong bytes is invisible to the
launch/transfer error types above.  The ABFT layer
(:mod:`repro.batched.abft`) checks checksum invariants after each
verified launch group and raises :class:`CorruptionDetected` when the
bounded re-execution budget cannot repair a mismatch.
:class:`ServiceDegraded` is the serving-layer counterpart: the health
monitor's circuit breaker opened on a sustained fault storm and the
service is running on a degraded dispatch path; it is surfaced through
``ServiceStats.snapshot()`` rather than raised at callers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FactorizationError", "PrecisionFallback", "TransferError",
           "KernelLaunchError", "ResourceExhausted", "CorruptionDetected",
           "ServiceOverloaded", "DeadlineExceeded", "RequestCancelled",
           "ServiceDegraded", "InfeasibleConfig", "FactorsReleased"]


class FactorizationError(np.linalg.LinAlgError):
    """An LU factorization broke down, or refinement could not recover.

    Attributes
    ----------
    report:
        The :class:`~repro.sparse.numeric.report.FactorReport` describing
        per-front breakdown diagnostics, or ``None`` when the error was
        raised below the sparse layer (e.g. by a batched kernel).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class PrecisionFallback(FactorizationError):
    """A reduced-precision factorization could not reach the FP64 target.

    Raised only when the automatic FP64 re-factorization is disabled
    (``precision_fallback=False``); with the default behavior the solver
    re-factors in full precision instead and records a
    ``precision-fallback`` action in the
    :class:`~repro.recovery.RecoveryLog`.

    Attributes
    ----------
    achieved:
        Backward error the reduced-precision path reached (after
        refinement and the GMRES-IR escalation), ``nan`` when the
        factorization itself failed before any solve.
    target:
        The backward-error target that was missed
        (:data:`~repro.sparse.solver.REFINE_TARGET` for solves).
    """

    def __init__(self, message: str, report=None, *,
                 achieved: float = float("nan"),
                 target: float = float("nan")):
        super().__init__(message, report)
        self.achieved = achieved
        self.target = target


class TransferError(RuntimeError):
    """A host<->device transfer failed integrity verification N times.

    Raised by the checksummed transfer paths in
    :mod:`repro.device.memory` once the bounded retry budget is spent —
    a transfer that keeps arriving corrupted is a persistent fault the
    device layer cannot repair.

    Attributes
    ----------
    site:
        Label of the failing transfer (e.g. ``"copy_from_host"``).
    direction:
        ``"h2d"`` or ``"d2h"``.
    attempts:
        Number of transfer attempts made before giving up.
    """

    def __init__(self, site: str, direction: str, attempts: int):
        super().__init__(
            f"{direction} transfer at {site!r} failed checksum "
            f"verification after {attempts} attempt(s)")
        self.site = site
        self.direction = direction
        self.attempts = attempts


class FactorsReleased(RuntimeError):
    """Factor blocks were read after their device store was released.

    A device factorization can leave its factors packed on the device
    (``SparseLU.factor(backend="batched")``); the host copy is
    downloaded on first read.  ``SparseLU.factor()``,
    ``SparseLU.update_values()`` and ``ServeSession.close()`` drop that
    store without downloading it, so reading the blocks of factors that
    were never downloaded raises this error instead of returning stale
    or missing data.
    """


class KernelLaunchError(RuntimeError):
    """The device runtime rejected a kernel launch.

    Injected by the fault layer *before* the kernel's numerics run, so a
    caller that catches this error can retry the launch (or the enclosing
    level transaction) from unchanged inputs.

    Attributes
    ----------
    kernel:
        Name of the rejected kernel.
    """

    def __init__(self, kernel: str, detail: str = ""):
        msg = f"kernel launch failed: {kernel!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.kernel = kernel


class ResourceExhausted(RuntimeError):
    """Every bounded recovery option for a device operation was spent.

    This is the terminal error of the resource-recovery ladder: level
    retries, sub-batch splits, out-of-core chunk shrinking, cache
    eviction and (when enabled) the host fallback all failed or were
    unavailable.  The original device error is chained as ``__cause__``
    and the :class:`~repro.recovery.RecoveryLog` of every action taken
    along the way is attached as ``log``.
    """

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log


class CorruptionDetected(RuntimeError):
    """ABFT verification caught a corrupted kernel output it cannot repair.

    Raised by the checksum-verified batched kernels
    (:mod:`repro.batched.abft`) after the
    bounded re-execution budget (``kernel-reexec`` rungs in the
    :class:`~repro.recovery.RecoveryLog`) is spent on a checksum
    mismatch that keeps coming back — a persistently corrupting device.
    The launch's numerics completed, so unlike
    :class:`KernelLaunchError` the output buffers hold *wrong bytes*;
    callers must re-stage inputs before any retry of their own.

    Attributes
    ----------
    site:
        Name of the kernel launch whose output failed
        verification.
    batch_index:
        Index of the first offending matrix within the launch's batch
        (``-1`` when the mismatch cannot be pinned to one member).
    """

    def __init__(self, site: str, batch_index: int = -1, detail: str = ""):
        msg = (f"silent data corruption detected at {site!r}"
               f" (batch index {batch_index})")
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.site = site
        self.batch_index = batch_index


class ServiceOverloaded(RuntimeError):
    """The solver service's bounded admission queue is full.

    This is backpressure, not failure: the submitted work was *not*
    enqueued and the caller should retry later (or shed load).  Raised
    synchronously by ``submit_*`` — an overloaded service never accepts
    a request it cannot hold.

    Attributes
    ----------
    queue_depth:
        Number of requests pending when the submission was rejected.
    max_queue:
        The admission queue bound in force.
    """

    def __init__(self, queue_depth: int, max_queue: int):
        super().__init__(
            f"service overloaded: admission queue holds {queue_depth} "
            f"request(s) (bound {max_queue}); retry later")
        self.queue_depth = queue_depth
        self.max_queue = max_queue


class DeadlineExceeded(RuntimeError):
    """A queued request's deadline expired before it was dispatched.

    The scheduler drops expired requests at collection time instead of
    spending device time on answers nobody is waiting for.

    Attributes
    ----------
    deadline:
        The relative deadline the request was submitted with (seconds).
    waited:
        How long the request actually sat in the queue (seconds).
    """

    def __init__(self, deadline: float, waited: float):
        super().__init__(
            f"request deadline of {deadline:.4g}s exceeded after waiting "
            f"{waited:.4g}s in the admission queue")
        self.deadline = deadline
        self.waited = waited


class RequestCancelled(RuntimeError):
    """The caller cancelled a queued request before it was dispatched.

    Raised by ``result()``/``exception()`` on a future whose
    ``cancel()`` succeeded; a request already running cannot be
    cancelled.
    """


class ServiceDegraded(RuntimeError):
    """The service circuit breaker opened on a sustained fault storm.

    Never raised at request callers — requests keep completing while
    degraded: on a node, placement skips the device; at severity 2, new
    sparse sessions factor on the host.  The instance is surfaced
    through ``ServiceStats.snapshot()`` (``breaker_state`` /
    ``degraded_reason``) so operators can observe *why* the service is
    degraded.

    Attributes
    ----------
    state:
        Breaker state when the degradation was declared (``"open"`` or
        ``"half-open"``).
    fault_rate:
        Rolling per-dispatch fault rate that tripped the breaker.
    """

    def __init__(self, state: str, fault_rate: float, detail: str = ""):
        msg = (f"service degraded: circuit breaker {state} at "
               f"{fault_rate:.3g} fault event(s)/dispatch")
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.state = state
        self.fault_rate = fault_rate


class InfeasibleConfig(ValueError):
    """A kernel configuration cannot run on this device/batch at all.

    Raised when a *forced* configuration violates a hard device limit —
    e.g. ``panel="fused"`` on a panel that does not fit the per-block
    shared memory.  Subclasses :class:`ValueError` for backward
    compatibility, but gives tuners a way to tell "this candidate can
    never work here" apart from an argument-validation bug:
    :func:`~repro.batched.tuning.autotune_getrf` skips
    :class:`InfeasibleConfig` candidates and propagates every other
    :class:`ValueError`.
    """
