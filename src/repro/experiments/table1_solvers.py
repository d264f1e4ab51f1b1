"""Table I — total numerical-factorization time of the sparse solvers.

Compares, on the Maxwell system:

* the proposed solver (irrLU/irrTRSM/irrGEMM batched per level, hybrid
  GEMM) on the A100 and MI100 models;
* the naive cuBLAS/cuSOLVER loop;
* the STRUMPACK v6.3.1 model (naive ≤32×32 batch + per-op sync);
* the SuperLU_Dist-style model (CPU panels + GPU GEMM offload);
* the 16-thread CPU multifrontal reference.

The report gives the proposed solver's A100/MI100 ratio next to the
paper's 1.11x (1.77 s on the A100 against 1.97 s on the MI100).  Also
reports the Nsight-style counters the paper quotes: the batched
implementation cuts ``cudaStreamSynchronize``/``cudaLaunchKernel`` time by
more than an order of magnitude vs the STRUMPACK model (9.1 s → 0.33 s and
6.5 s → 0.16 s in the paper).  The §V-B accuracy claim (machine-precision
residual after one refinement step) is verified on the proposed solver.
"""

from __future__ import annotations

from ..analysis.flops import gemm_flops, getrf_flops, trsm_flops
from ..analysis.report import format_table
from ..device.simulator import Device
from ..device.spec import A100, MI100, XEON_6140_2S
from ..sparse.solver import SparseLU
from ..workloads.fronts import build_maxwell_workload
from .common import resolve_fast

__all__ = ["run", "report", "main"]


def _cpu_reference_seconds(symb, threads: int = 16) -> float:
    """16-OpenMP-thread CPU multifrontal time model (Table I's CPU rows).

    Tree-level parallelism across fronts plus threaded BLAS inside large
    fronts make the front flops ~threads-parallel at LAPACK efficiency.
    """
    cpu = XEON_6140_2S()
    core_rate = cpu.freq_hz * cpu.flops_per_cycle_per_core
    total = 0.0
    for f in symb.fronts:
        s, u = f.sep_size, f.upd_size
        flops = getrf_flops(s, s) + 2 * trsm_flops(s, u) \
            + gemm_flops(u, u, s)
        order = max(s + u, 1)
        eff = cpu.getrf_efficiency(order)
        # small fronts cannot keep 16 threads busy: effective parallelism
        # grows with the front order (tree + BLAS parallelism combined).
        eff_threads = min(threads, max(1.0, order / 48.0))
        total += flops / (eff_threads * core_rate * max(eff, 1e-3))
    return total


def run(fast: bool | None = None) -> dict:
    fast = resolve_fast(fast)
    n = 12 if fast else 16
    wl = build_maxwell_workload(n, leaf_size=16)
    rows = []
    counters = {}

    configs = [
        ("irr-batched", "batched", A100()),
        ("irr-batched", "batched", MI100()),
        ("cuBLAS/cuSOLVER loop", "looped", A100()),
        ("cuBLAS/cuSOLVER loop", "looped", MI100()),
        ("STRUMPACK-like", "strumpack", A100()),
        ("STRUMPACK-like", "strumpack", MI100()),
        ("SuperLU_Dist-like", "superlu", A100()),
        ("SuperLU_Dist-like", "superlu", MI100()),
    ]
    residuals = None
    for label, backend, spec in configs:
        dev = Device(spec)
        solver = SparseLU(wl.matrix, leaf_size=16)
        solver.analyze()
        solver.factor(backend=backend, device=dev)
        res = solver.factor_result
        rows.append({"solver": label, "device": spec.name,
                     "factor_seconds": res.elapsed,
                     "launches": res.counters["launch_count"],
                     "sync_wait": res.counters["sync_wait_time"],
                     "launch_time": res.counters["host_launch_time"]})
        if backend in ("batched", "strumpack") and spec.name.startswith("A"):
            counters[backend] = {
                "sync_wait": res.counters["sync_wait_time"],
                "launch_time": res.counters["host_launch_time"],
            }
        if backend == "batched" and spec.name.startswith("A"):
            x, info = solver.solve(wl.rhs, refine_steps=1)
            residuals = info.residuals

    rows.append({"solver": "CPU multifrontal (16 thr)", "device": "Xeon",
                 "factor_seconds": _cpu_reference_seconds(wl.symb),
                 "launches": 0, "sync_wait": 0.0, "launch_time": 0.0})
    return {"mesh_n": n, "n_dofs": wl.matrix.shape[0], "rows": rows,
            "counters": counters, "residuals": residuals}


def report(results: dict) -> str:
    table = format_table(
        ["solver", "device", "factor time (s)", "launches",
         "sync wait (s)", "launch time (s)"],
        [[r["solver"], r["device"], r["factor_seconds"], r["launches"],
          r["sync_wait"], r["launch_time"]] for r in results["rows"]],
        title=(f"Table I — Maxwell numerical factorization "
               f"(n={results['mesh_n']}, {results['n_dofs']} dofs)"))
    c = results["counters"]
    extra = ""
    if "batched" in c and "strumpack" in c:
        extra = (
            "\n\nNsight-style counters (A100): STRUMPACK-like sync "
            f"{c['strumpack']['sync_wait']:.4g}s / launch "
            f"{c['strumpack']['launch_time']:.4g}s  ->  batched sync "
            f"{c['batched']['sync_wait']:.4g}s / launch "
            f"{c['batched']['launch_time']:.4g}s")
    irr = {r["device"][:4]: r["factor_seconds"] for r in results["rows"]
           if r["solver"] == "irr-batched"}
    if {"A100", "MI10"} <= irr.keys():
        extra += (f"\nirr-batched MI100/A100 time ratio: "
                  f"{irr['MI10'] / irr['A100']:.2f}x (paper: 1.97 s / "
                  f"1.77 s = 1.11x)")
    res = results["residuals"]
    acc = ""
    if res:
        acc = (f"\nSolve residuals (batched, A100): initial {res[0]:.3e}, "
               f"after 1 refinement step {res[-1]:.3e}")
    return table + extra + acc


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
