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
for the three hot-swappable batching knobs (see
:meth:`SolverService.set_policy`), and
:class:`~repro.serve.stats.ServiceStats` for observability.
"""

from .health import CircuitBreaker, HealthMonitor
from .scheduler import AdmissionQueue, CoalescingPolicy, ServiceFuture
from .service import FactorHandle, SolverService
from .session import MemoryArbiter, ServeSession
from .stats import DispatchRecord, LatencyHistogram, ServiceStats

__all__ = ["SolverService", "CoalescingPolicy", "ServiceFuture",
           "FactorHandle", "ServeSession",
           "MemoryArbiter", "ServiceStats", "DispatchRecord",
           "LatencyHistogram", "AdmissionQueue",
           "CircuitBreaker", "HealthMonitor"]
