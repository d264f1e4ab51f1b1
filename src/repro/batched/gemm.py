"""irrGEMM — matrix multiply on a nonuniform batch (§IV-C).

One kernel launch performs ``C[i] ← α·op(A[i])·op(B[i]) + β·C[i]`` for the
whole batch, with every matrix's actual workload inferred by DCWI from the
required dimensions, local dimensions and pointer offsets.  Matrices whose
inferred workload is NONE contribute no flops and no traffic (their thread
blocks retire immediately), which is how a single launch sequence written
against the largest matrix remains efficient as small matrices finish.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import TILE, KernelCost, gemm_compute_ramp, \
    tile_blocks
from ..device.simulator import Device
from .abft import gemm_check, verified_launch
from .dcwi import Workload, infer_gemm
from .engine import resolve_engine
from .interface import IrrBatch, Offsets

__all__ = ["irr_gemm"]


def _apply_op(a: np.ndarray, trans: str) -> np.ndarray:
    if trans == "N":
        return a
    return a.conj().T if trans == "C" else a.T


def _gemm_targets(transa: str, transb: str, m: int, n: int, k: int,
                  A: IrrBatch, a_off: Offsets, B: IrrBatch, b_off: Offsets,
                  beta: float, C: IrrBatch, c_off: Offsets
                  ) -> list[tuple[int, int, int, int]]:
    """``(i, mi, ni, ki)`` for every member whose C block gets written.

    Mirrors the kernel's own DCWI inference: NONE members and the
    ``ki == 0, beta == 1`` no-op are not outputs of the launch.
    """
    targets = []
    for i in range(len(C)):
        work, cls = infer_gemm(
            transa, transb, m, n, k,
            A.local_dims(i), a_off, B.local_dims(i), b_off,
            C.local_dims(i), c_off)
        if cls is Workload.NONE:
            continue
        if work.k == 0 and beta == 1.0:
            continue
        targets.append((i, work.m, work.n, work.k))
    return targets


def irr_gemm(device: Device, transa: str, transb: str,
             m: int, n: int, k: int, alpha: float,
             A: IrrBatch, a_off: Offsets,
             B: IrrBatch, b_off: Offsets,
             beta: float,
             C: IrrBatch, c_off: Offsets, *,
             stream=None, kernel_class: str = "gemm_irr",
             name: str = "irrgemm", engine=None) -> KernelCost:
    """Nonuniform batched GEMM with the expanded interface.

    Parameters mirror Fig 3 of the paper: ``m, n, k`` are the *required*
    dimensions (defined by the largest matrix); per-matrix local dims live
    in the batches; ``a_off``/``b_off``/``c_off`` are the scalar pointer
    offsets ``(Ai, Aj)`` etc.  Returns the accounted kernel cost.

    ``engine`` selects the host execution path for the launch body:
    ``None``/``"naive"`` runs the per-matrix reference loop,
    ``"bucketed"`` (or a shared :class:`~repro.batched.engine.BatchEngine`)
    executes shape buckets with stacked ``np.matmul`` calls — bitwise
    identical results and identical :class:`KernelCost`.
    """
    if not (len(A) == len(B) == len(C)):
        raise ValueError("operand batches must have equal batch size")
    if transa not in ("N", "T", "C") or transb not in ("N", "T", "C"):
        raise ValueError("trans must be 'N', 'T' or 'C'")
    if m < 0 or n < 0 or k < 0:
        raise ValueError("required dimensions must be nonnegative")

    itemsize = C.itemsize
    eng = resolve_engine(engine)

    def kernel() -> KernelCost:
        if eng is not None:
            return eng.exec_gemm(device, transa, transb, m, n, k, alpha,
                                 A, a_off, B, b_off, beta, C, c_off,
                                 kernel_class)
        flops = 0.0
        bytes_r = 0.0
        bytes_w = 0.0
        blocks = 0
        ramp_weighted = 0.0
        for i in range(len(C)):
            work, cls = infer_gemm(
                transa, transb, m, n, k,
                A.local_dims(i), a_off, B.local_dims(i), b_off,
                C.local_dims(i), c_off)
            if cls is Workload.NONE:
                continue
            mi, ni, ki = work.m, work.n, work.k
            c_sub = C.sub(i, c_off[0], c_off[1], mi, ni)
            if ki > 0:
                if transa == "N":
                    a_sub = A.sub(i, a_off[0], a_off[1], mi, ki)
                else:  # T or C: stored transposed
                    a_sub = A.sub(i, a_off[0], a_off[1], ki, mi)
                if transb == "N":
                    b_sub = B.sub(i, b_off[0], b_off[1], ki, ni)
                else:
                    b_sub = B.sub(i, b_off[0], b_off[1], ni, ki)
                prod = _apply_op(a_sub, transa) @ _apply_op(b_sub, transb)
                if beta == 0.0:
                    c_sub[...] = alpha * prod
                else:
                    c_sub[...] = alpha * prod + beta * c_sub
                flops += work.flops
                bytes_r += (mi * ki + ki * ni) * itemsize
                if beta != 0.0:
                    bytes_r += mi * ni * itemsize
                bytes_w += mi * ni * itemsize
                ramp_weighted += work.flops * gemm_compute_ramp(mi, ni, ki)
            else:
                # k exhausted for this matrix: only the beta scaling
                # remains.  beta == 0 writes zeros without reading C
                # (BLAS semantics); any other beta != 1 reads, scales
                # (one flop per element) and writes.
                if beta == 0.0:
                    c_sub[...] = 0.0
                    bytes_w += mi * ni * itemsize
                elif beta != 1.0:
                    c_sub *= beta
                    flops += mi * ni
                    bytes_r += mi * ni * itemsize
                    bytes_w += mi * ni * itemsize
            blocks += tile_blocks(mi, ni)
        # flop-weighted efficiency ramp: one tiny matrix must not drag the
        # whole batch, but a batch of tiny matrices runs far from peak.
        ramp = ramp_weighted / flops if flops > 0 else 1.0
        # tile buffers sized to the architecture (a real kernel picks a
        # smaller tiling on devices with little shared memory)
        smem = min(2 * TILE * TILE * itemsize,
                   device.spec.max_shared_per_block)
        return KernelCost(
            flops=flops, bytes_read=bytes_r, bytes_written=bytes_w,
            blocks=max(blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem,
            kernel_class=kernel_class,
            compute_ramp=ramp,
            peak_scale=C.peak_scale,
        )

    # Outputs are registered lazily (evaluated only when an injector is
    # installed), making this launch a ``corrupt`` fault site; with
    # kernel verification on, the launch also carries its ABFT checksum
    # invariant and re-executes on mismatch.
    def _targets():
        return _gemm_targets(transa, transb, m, n, k, A, a_off,
                             B, b_off, beta, C, c_off)

    if device.verify_kernels:
        check = gemm_check(transa, transb, alpha, beta, A, a_off,
                           B, b_off, C, c_off, _targets())
        return verified_launch(device, name, kernel, check, stream=stream)

    def _outputs():
        return [C.sub(i, c_off[0], c_off[1], mi, ni)
                for (i, mi, ni, _ki) in _targets()]

    return device.launch(name, kernel, stream=stream, outputs=_outputs)
