"""Serving layer: concurrent solver requests coalesced into irregular
batches.

Public surface::

    from repro.serve import SolverService, CoalescingPolicy

    svc = SolverService(Device(A100()))        # or Node(A100(), 4)
    fut = svc.submit_factor_solve(A, b)        # thread-safe
    x, handle = fut.result()
    x2 = svc.solve(handle, b2)                 # sync convenience
    svc.close()

See :class:`~repro.serve.service.SolverService` for the threading and
isolation contracts, :class:`~repro.serve.scheduler.CoalescingPolicy`
for the batching knobs (a hot-swappable
:class:`~repro.serve.scheduler.DispatchPolicy` — see
:meth:`SolverService.set_policy`),
:class:`~repro.serve.autotune.OnlineAutotuner` for closed-loop policy
tuning, and :class:`~repro.serve.stats.ServiceStats` for observability.
"""

from .autotune import AutotuneConfig, OnlineAutotuner, TuneAction, Window
from .health import CircuitBreaker, HealthMonitor
from .scheduler import AdmissionQueue, CoalescingPolicy, DispatchPolicy, \
    ServiceFuture
from .service import FactorHandle, SolverService
from .session import MemoryArbiter, ServeSession
from .stats import DispatchRecord, LatencyHistogram, ServiceStats

__all__ = ["SolverService", "CoalescingPolicy",
           "DispatchPolicy",
           "ServiceFuture", "FactorHandle", "ServeSession",
           "MemoryArbiter", "ServiceStats", "DispatchRecord",
           "LatencyHistogram", "AdmissionQueue", "OnlineAutotuner",
           "AutotuneConfig", "TuneAction", "Window",
           "CircuitBreaker", "HealthMonitor"]
