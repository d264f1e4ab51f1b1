"""GPU/CPU execution-model substrate.

The paper's measurements depend on a handful of architectural mechanisms
(kernel-launch overhead, SM sharing between streams, shared-memory
capacity, roofline throughput).  This package provides a simulated device
that executes kernel numerics eagerly in NumPy while accounting time with
a discrete-event model of those mechanisms.

Quick use::

    from repro.device import Device, A100

    dev = Device(A100())
    A = dev.from_host(host_matrix)
    ... launch kernels ...
    dev.synchronize()
    print(dev.host_time, dev.profiler.by_kernel())
"""

from .faults import CORRUPT_MAGNITUDE, FAULT_KINDS, PERSISTENT, \
    FaultInjector, FaultPlan, FaultRule, InjectedFault
from .kernel import KernelCost, LaunchRecord, gemm_compute_ramp, \
    intrinsic_duration, sm_demand, tile_blocks
from .memory import MAX_TRANSFER_ATTEMPTS, DeviceArray, DeviceOutOfMemory, \
    pack_to_device, validate_memory_budget
from .node import Link, Node, NVLINK, PCIE_STAGING
from .profiler import KernelSummary, Profiler
from .simulator import Device
from .spec import A100, MI100, XEON_6140_2S, CpuSpec, DeviceSpec
from .stream import Event, Stream

__all__ = [
    "Device", "Node", "Link", "NVLINK", "PCIE_STAGING",
    "DeviceArray", "DeviceOutOfMemory", "pack_to_device",
    "validate_memory_budget", "MAX_TRANSFER_ATTEMPTS",
    "FaultPlan", "FaultRule", "FaultInjector", "InjectedFault",
    "PERSISTENT", "FAULT_KINDS", "CORRUPT_MAGNITUDE",
    "DeviceSpec", "CpuSpec",
    "A100", "MI100", "XEON_6140_2S", "Stream", "Event", "KernelCost",
    "LaunchRecord",
    "Profiler", "KernelSummary", "intrinsic_duration", "sm_demand",
    "gemm_compute_ramp", "tile_blocks",
]
