"""Figure 14 — per-operation runtime, batched vs vendor-in-a-loop.

"Figure 14 shows the runtime, on the A100 GPU, for the different
operations performed during the numerical factorization... The batch
operations are compared with a trivial implementation calling cuBLAS or
cuSOLVER in a loop.  cuBLAS outperforms irrGEMM for large matrix sizes
and small batchcounts, hence we combine irrGEMM for matrix sizes ≤ 256
with cuBLAS GEMM in a loop for matrix sizes > 256. ... irrLU and irrTRSM
outperform the corresponding routines GETRF and GETRS for almost all
matrix sizes."

We regenerate the comparison on the actual per-level front batches of the
Maxwell factorization: for each assembly-tree level, the three operations
(LU of the pivot blocks, the two triangular solves, the Schur GEMM) are
timed with the batched irr kernels and with the per-front vendor loop.
The two irrTRSMs use the factorization's own blocking
(:func:`~repro.sparse.numeric.gpu_factor.offdiag_base_nb`), so the
figure times the solves as the solver runs them.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import format_table
from ..batched.gemm import irr_gemm
from ..batched.getrf import irr_getrf
from ..batched.interface import IrrBatch
from ..batched.trsm import irr_trsm
from ..batched.vendor import vendor_gemm, vendor_getrf, vendor_trsm
from ..device.simulator import Device
from ..device.spec import A100
from ..sparse.numeric.gpu_factor import offdiag_base_nb
from ..workloads.fronts import build_maxwell_workload, level_front_dims, \
    synthetic_front_batch
from .common import resolve_fast

__all__ = ["run", "report", "main"]


def _block_batches(device, fronts, dims):
    s_vec = np.array([s for s, _ in dims], dtype=np.int64)
    u_vec = np.array([u for _, u in dims], dtype=np.int64)
    arrays = [device.from_host(f) for f in fronts]
    f11 = IrrBatch(device, [a[:s, :s] for a, (s, u) in zip(arrays, dims)],
                   s_vec, s_vec)
    f12 = IrrBatch(device, [a[:s, s:] for a, (s, u) in zip(arrays, dims)],
                   s_vec, u_vec)
    f21 = IrrBatch(device, [a[s:, :s] for a, (s, u) in zip(arrays, dims)],
                   u_vec, s_vec)
    f22 = IrrBatch(device, [a[s:, s:] for a, (s, u) in zip(arrays, dims)],
                   u_vec, u_vec)
    return arrays, f11, f12, f21, f22


def _time_batched(dims, fronts) -> dict[str, float]:
    device = Device(A100())
    _, f11, f12, f21, f22 = _block_batches(device, fronts, dims)
    smax = int(f11.max_m)
    umax = int(f22.max_m)
    out = {}
    with device.timed_region() as t:
        irr_getrf(device, f11)
    out["lu"] = t["elapsed"]
    if smax and umax:
        base_nb = offdiag_base_nb(device.spec, f11.itemsize)
        with device.timed_region() as t:
            irr_trsm(device, "L", "L", "N", "U", smax, umax, 1.0,
                     f11, (0, 0), f12, (0, 0), base_nb=base_nb)
            irr_trsm(device, "R", "U", "N", "N", umax, smax, 1.0,
                     f11, (0, 0), f21, (0, 0), base_nb=base_nb)
        out["trsm"] = t["elapsed"]
        with device.timed_region() as t:
            irr_gemm(device, "N", "N", umax, umax, smax, -1.0, f21, (0, 0),
                     f12, (0, 0), 1.0, f22, (0, 0))
        out["gemm"] = t["elapsed"]
    else:
        out["trsm"] = 0.0
        out["gemm"] = 0.0
    return out


def _time_looped(dims, fronts) -> dict[str, float]:
    device = Device(A100())
    arrays, *_ = _block_batches(device, fronts, dims)
    out = {}
    with device.timed_region() as t:
        for a, (s, u) in zip(arrays, dims):
            if s:
                vendor_getrf(device, a[:s, :s])
    out["lu"] = t["elapsed"]
    with device.timed_region() as t:
        for a, (s, u) in zip(arrays, dims):
            if s and u:
                vendor_trsm(device, "L", "L", "N", "U", 1.0,
                            a.data[:s, :s], a.data[:s, s:])
                vendor_trsm(device, "R", "U", "N", "N", 1.0,
                            a.data[:s, :s], a.data[s:, :s])
    out["trsm"] = t["elapsed"]
    with device.timed_region() as t:
        for a, (s, u) in zip(arrays, dims):
            if s and u:
                vendor_gemm(device, "N", "N", -1.0, a.data[s:, :s],
                            a.data[:s, s:], 1.0, a.data[s:, s:])
    out["gemm"] = t["elapsed"]
    return out


def run(fast: bool | None = None, *, seed: int = 0) -> dict:
    fast = resolve_fast(fast)
    n = 8 if fast else 12
    wl = build_maxwell_workload(n)
    per_level = level_front_dims(wl.symb)

    levels = []
    for depth, dims in enumerate(per_level):
        fronts = synthetic_front_batch(dims, seed=seed + depth)
        batched = _time_batched(dims, fronts)
        fronts = synthetic_front_batch(dims, seed=seed + depth)
        looped = _time_looped(dims, fronts)
        levels.append({
            "level": len(per_level) - 1 - depth,
            "batch_size": len(dims),
            "max_front": max(s + u for s, u in dims),
            "batched": batched,
            "looped": looped,
        })
    return {"mesh_n": n, "n_dofs": wl.matrix.shape[0], "levels": levels}


def report(results: dict) -> str:
    rows = []
    for lev in reversed(results["levels"]):
        b, lo = lev["batched"], lev["looped"]
        rows.append([
            lev["level"], lev["batch_size"], lev["max_front"],
            b["lu"] * 1e3, lo["lu"] * 1e3,
            b["trsm"] * 1e3, lo["trsm"] * 1e3,
            b["gemm"] * 1e3, lo["gemm"] * 1e3,
        ])
    return format_table(
        ["level", "batch", "max front",
         "irrLU ms", "cusolver ms",
         "irrTRSM ms", "cublasTRSM ms",
         "irrGEMM ms", "cublasGEMM ms"],
        rows,
        title=(f"Fig 14 — per-operation runtime by tree level "
               f"(Maxwell n={results['mesh_n']}, {results['n_dofs']} dofs, "
               f"A100 model)"))


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
