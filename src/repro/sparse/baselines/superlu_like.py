"""SuperLU_Dist-style baseline: supernodal right-looking, partial offload.

The paper's fourth comparator (Table I) is SuperLU_Dist 7.2's
``pdgssvx3d``, which "offloads more operations to the GPU" but still
factors panels on the CPU and launches per-supernode GEMMs.  We model
that schedule on the same assembly-tree structure: per front, the panel
factorization runs on the host (16-thread CPU model), panels transfer to
the device, and the Schur update is a vendor GEMM — capturing why it
trails the fully batched solver on workloads dominated by many small
fronts.
"""

from __future__ import annotations

import scipy.sparse as sp

from ...analysis.flops import getrf_flops, trsm_flops
from ...batched.vendor import vendor_gemm
from ...device.simulator import Device
from ...device.spec import CpuSpec, XEON_6140_2S
from ..numeric.cpu_factor import factor_front_blocks
from ..numeric.factors import MultifrontalFactors, assemble_front
from ..numeric.gpu_factor import GpuFactorResult
from ..numeric.report import finish_factors
from ..symbolic.analysis import SymbolicFactorization

__all__ = ["superlu_like_factor"]


def _panel_seconds(s: int, order: int, cpu: CpuSpec, threads: int) -> float:
    """Host time to factor one s-wide panel of an order-sized front."""
    flops = getrf_flops(order, s) + 2 * trsm_flops(s, max(order - s, 0))
    cores = min(threads, cpu.n_cores)
    rate = cores * cpu.freq_hz * cpu.flops_per_cycle_per_core
    eff = cpu.getrf_efficiency(s) * 0.35  # panel path parallelizes poorly
    return cpu.per_call_overhead + flops / (rate * max(eff, 1e-3))


def superlu_like_factor(device: Device, a_perm: sp.spmatrix,
                        symb: SymbolicFactorization, *,
                        cpu: CpuSpec | None = None,
                        threads: int = 16,
                        pivot_tol: float = 0.0,
                        static_pivot: bool = False,
                        replace_scale: float | None = None,
                        breakdown: str = "raise") -> GpuFactorResult:
    """Factor with the SuperLU-style CPU-panel + GPU-GEMM schedule.

    A nonzero that no front gathers raises :class:`ValueError`, as on
    every backend."""
    if breakdown not in ("raise", "report"):
        raise ValueError(f"unknown breakdown mode {breakdown!r}; "
                         "choose 'raise' or 'report'")
    a_perm = symb.assembly.conform(a_perm)
    cpu = cpu or XEON_6140_2S()
    out = MultifrontalFactors(symb=symb)
    out.fronts = [None] * len(symb.fronts)  # type: ignore[list-item]
    schur: list = [None] * len(symb.fronts)

    seq0 = device.launch_seq
    with device.timed_region() as region:
        for fid, info in enumerate(symb.fronts):
            contribs = [schur[c] for c in info.children]
            for c in info.children:
                schur[c] = None
            F = assemble_front(a_perm, info, [x for x in contribs if x])
            s, u = info.sep_size, info.upd_size

            # CPU panel factorization + triangular solves.
            device.host_compute(_panel_seconds(s, info.order, cpu, threads))
            fac, S = factor_front_blocks(
                F, s, pivot_tol=pivot_tol, static_pivot=static_pivot,
                replace_scale=replace_scale, raise_on_breakdown=False)
            out.fronts[fid] = fac

            if u:
                # H2D for the panel blocks, GEMM on the device, D2H Schur.
                device._account_transfer((s * u * 2) * 8)
                S[...] = F[s:, s:]
                vendor_gemm(device, "N", "N", -1.0, fac.f21, fac.f12,
                            1.0, S, name="cublas_gemm:schur")
                device.synchronize()
                device._account_transfer(u * u * 8)
            if info.parent >= 0:
                schur[fid] = (S, info.upd)

    finish_factors(out, pivot_tol=pivot_tol, static_pivot=static_pivot,
                   replace_scale=replace_scale, breakdown=breakdown)
    counters = {k: region[k] for k in region if k != "elapsed"}
    return GpuFactorResult(factors=out, elapsed=region["elapsed"],
                           counters=counters, report=out.report,
                           breakdown=device.profiler.by_prefix(since=seq0))
