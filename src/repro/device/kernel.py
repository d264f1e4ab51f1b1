"""Kernel cost descriptors and roofline timing.

Every simulated kernel returns a :class:`KernelCost` describing the work it
performed (flops, bytes moved) and its launch geometry (blocks,
threads/block, shared memory/block).  The device turns this into an
*intrinsic duration* with a roofline model:

``duration = max(flops / (eff_c * peak * sm_frac),
                 bytes / (eff_m * bandwidth * bw_frac))
            + launch_overhead_device``

where ``sm_frac`` is the fraction of the device's SMs the kernel can
occupy given its block count and occupancy limits, and ``bw_frac =
min(1, sm_frac / sm_bw_saturation_frac)`` reflects that a handful of SMs
cannot saturate HBM.  A kernel that streams a matrix block launches one
thread block per ``TILE``×``TILE`` tile of it (:func:`tile_blocks`), so
its SM share follows the work, not the number of matrices.  The efficiency
factors ``eff_c`` / ``eff_m`` are per-kernel-family asymptotes from the
:class:`~repro.device.spec.DeviceSpec`, optionally scaled by a size-
dependent ramp supplied in the cost (small GEMMs don't hit the GEMM
ceiling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spec import DeviceSpec

__all__ = ["KernelCost", "LaunchRecord", "intrinsic_duration", "sm_demand",
           "gemm_compute_ramp", "tile_blocks", "TILE", "PEAK_SCALE",
           "peak_scale_for"]

#: Edge of the square output tile one thread block owns (the irrGEMM
#: tile; every tiled grid in the library counts in it).
TILE = 32

#: Arithmetic-peak multiplier per data type relative to FP64 (the single
#: source of truth — the bucketed engine's ``IrrBatch.peak_scale`` and
#: the compiled programs' cost lowering both read this table, so a new
#: dtype cannot drift between the two cost paths).  FP32 doubles the
#: peak on A100/MI100-class hardware; complex arithmetic costs ~4 real
#: operations per counted flop, so complex128 runs at a quarter of the
#: FP64 rate and complex64 at half.
PEAK_SCALE = {
    "f4": 2.0,      # float32
    "f8": 1.0,      # float64
    "c8": 0.5,      # complex64
    "c16": 0.25,    # complex128
}


def peak_scale_for(dtype) -> float:
    """The :data:`PEAK_SCALE` entry for a numpy dtype.

    Raises :class:`KeyError` for dtypes outside the supported set —
    callers validate their dtypes first (``IrrBatch`` rejects anything
    but float32/float64/complex64/complex128 at construction).
    """
    dt = np.dtype(dtype)
    return PEAK_SCALE[f"{dt.kind}{dt.itemsize}"]


@dataclass
class KernelCost:
    """Work and geometry of one kernel launch.

    Attributes
    ----------
    flops:
        Floating-point operations performed (exact expressions, low-order
        terms kept, per §III-B of the paper).
    bytes_read, bytes_written:
        Global-memory traffic generated.
    blocks:
        Thread blocks in the grid.  A kernel that streams matrix blocks
        launches one block per ``TILE``×``TILE`` tile of each
        (:func:`tile_blocks`); kernels whose blocks own a whole small
        matrix (the panel, the getrs pivots) launch one per matrix.
        DESIGN.md §5 tabulates the rule of every kernel.
    threads_per_block:
        Block size (occupancy input).
    shared_mem_per_block:
        Dynamic shared memory per block in bytes.  Drives occupancy and
        the fused-panel capacity check.
    kernel_class:
        Efficiency family looked up in ``DeviceSpec.kernel_efficiency``
        (e.g. ``"gemm_irr"``, ``"gemm_vendor"``, ``"trsm_irr"``).
    compute_ramp, memory_ramp:
        Size-dependent multipliers in (0, 1] applied on top of the family
        asymptote; 1.0 means "at the asymptote".
    """

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    blocks: int = 1
    threads_per_block: int = 256
    shared_mem_per_block: int = 0
    kernel_class: str = "default"
    compute_ramp: float = 1.0
    memory_ramp: float = 1.0
    #: arithmetic-peak multiplier for the kernel's data type relative to
    #: FP64 (2.0 for FP32 on A100/MI100-class hardware).
    peak_scale: float = 1.0

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class LaunchRecord:
    """One kernel launch in the device trace (filled in by the simulator)."""

    name: str
    stream: int
    cost: KernelCost
    seq: int
    host_issue: float = 0.0
    #: events this launch must wait for (cross-stream dependencies)
    wait_events: list = field(default_factory=list)
    start: float = math.nan
    end: float = math.nan
    sm_demand: int = 0
    intrinsic: float = 0.0
    remaining: float = field(default=0.0, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


def tile_blocks(rows, cols) -> int:
    """Thread blocks of a grid with one block per ``TILE``×``TILE`` tile.

    ``rows``/``cols`` are the block dimensions, as ints or as arrays
    (one entry per matrix); returns ``Σ ⌈rows/TILE⌉·⌈cols/TILE⌉``.  An
    empty block needs no tile.
    """
    if isinstance(rows, int) and isinstance(cols, int):
        return -(-rows // TILE) * -(-cols // TILE)
    r = -(-np.asarray(rows, dtype=np.int64) // TILE)
    c = -(-np.asarray(cols, dtype=np.int64) // TILE)
    return int(np.sum(r * c))


def sm_demand(cost: KernelCost, spec: DeviceSpec) -> int:
    """Number of SMs a kernel can productively occupy.

    A grid of ``b`` blocks with occupancy ``r`` blocks/SM spreads over
    ``ceil(b / r)`` SMs, capped by the device.  Returns at least 1 (a
    kernel whose shared-memory request is infeasible must be rejected by
    the caller before launch, see ``DeviceSpec.resident_blocks_per_sm``).
    """
    r = spec.resident_blocks_per_sm(cost.shared_mem_per_block,
                                    cost.threads_per_block)
    r = max(r, 1)
    return int(min(spec.n_sm, max(1, math.ceil(cost.blocks / r))))


def intrinsic_duration(cost: KernelCost, spec: DeviceSpec) -> float:
    """Roofline duration of a kernel given exclusive use of its SM share."""
    demand = sm_demand(cost, spec)
    sm_frac = demand / spec.n_sm
    bw_frac = min(1.0, sm_frac / spec.sm_bw_saturation_frac)

    eff_c = spec.efficiency(cost.kernel_class) * cost.compute_ramp
    eff_m = spec.efficiency("memory", default=0.80) * cost.memory_ramp

    t_compute = 0.0
    if cost.flops > 0:
        peak = spec.peak_flops_fp64 * cost.peak_scale
        t_compute = cost.flops / max(eff_c * peak * sm_frac, 1.0)
    t_memory = 0.0
    if cost.bytes_total > 0:
        t_memory = cost.bytes_total / max(eff_m * spec.mem_bandwidth * bw_frac,
                                          1.0)
    return max(t_compute, t_memory) + spec.launch_overhead_device


def gemm_compute_ramp(m: float, n: float, k: float,
                      halfsize: float = 24.0) -> float:
    """Size-dependent efficiency ramp for matrix-multiply-like kernels.

    Approaches 1 as the smallest dimension grows past ``halfsize``; tiny
    products are launch/memory-latency bound and achieve a small fraction
    of the family asymptote.  Used by GEMM, TRSM and the Schur-update
    kernels.
    """
    s = min(max(m, 1.0), max(n, 1.0), max(k, 1.0))
    return s / (s + halfsize)
