"""Interleaved-layout batch kernels for uniform small matrices (§II).

"Libraries such as Kokkos Kernels and MKL use interleaved data layouts
for batch kernels on small matrices, which provides a performance
advantage for SIMD architectures."  This module implements that layout as
a counterpoint to the pointer-array interface: the batch is ONE dense
3-D array ``A[b, i, j]`` — matrix index fastest-moving in memory for the
elementwise kernels — and every elimination step is a *vectorized*
operation across the whole batch (one argmax, one swap, one rank-1
update, all with batch-axis SIMD).

The price is exactly the paper's point: this only works when every
matrix has the *same* shape.  It is the right tool for the uniform small
fronts at the very bottom of an assembly tree, and the wrong interface
for everything irrLU-GPU targets; ``benchmarks/test_ablation_interleaved``
measures both sides of that trade.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost
from ..device.memory import DeviceArray
from ..device.simulator import Device

__all__ = ["interleaved_getrf", "interleave", "deinterleave",
           "InterleaveError", "INTERLEAVED_MAX_N"]

#: the small-matrix regime the layout targets (STRUMPACK's naive batch
#: kernels and the Kokkos/MKL interleaved kernels live below this, §II).
INTERLEAVED_MAX_N = 32


class InterleaveError(ValueError):
    """A batch cannot be packed into (or out of) the interleaved layout.

    Subclasses :class:`ValueError` so callers that guarded the old
    untyped errors keep working.
    """


def interleave(matrices: list[np.ndarray],
               dtype=None) -> np.ndarray:
    """Pack equal-shape matrices into the interleaved ``(m, n, batch)``
    layout (batch index contiguous: unit-stride SIMD over the batch).

    Every member must be a 2-D array of the same shape and dtype —
    non-square and zero-size shapes included — or an
    :class:`InterleaveError` is raised.  The members' dtype (complex
    included) is preserved through the packed layout; for an empty batch
    ``dtype`` selects the dtype of the ``(0, 0, 0)`` result (default
    ``float64``).
    """
    if not matrices:
        return np.empty((0, 0, 0),
                        dtype=np.float64 if dtype is None else dtype)
    mats = [np.asarray(m) for m in matrices]
    shape, dt = mats[0].shape, mats[0].dtype
    for m in mats:
        if m.ndim != 2:
            raise InterleaveError(
                f"interleaved layout requires 2-D matrices "
                f"(got a {m.ndim}-D array)")
        if m.shape != shape:
            raise InterleaveError(
                "interleaved layout requires equal shapes "
                f"(got {m.shape} vs {shape}) — use IrrBatch for irregular "
                "batches")
        if m.dtype != dt:
            raise InterleaveError(
                f"interleaved layout requires a single dtype "
                f"(got {m.dtype} vs {dt})")
    if dtype is not None and np.dtype(dtype) != dt:
        raise InterleaveError(
            f"requested dtype {np.dtype(dtype)} does not match the "
            f"members' dtype {dt}")
    if mats[0].size == 0:
        # np.stack handles zero-size members, but keep the exact shape
        # and dtype explicit.
        return np.empty(shape + (len(mats),), dtype=dt)
    return np.ascontiguousarray(np.stack(mats, axis=-1))


def deinterleave(packed: np.ndarray) -> list[np.ndarray]:
    """Unpack the interleaved layout back to a list of matrices.

    Inverse of :func:`interleave` for any uniform batch (non-square and
    zero-size shapes round-trip, dtype preserved).  Raises
    :class:`InterleaveError` unless ``packed`` is a 3-D
    ``(m, n, batch)`` array.
    """
    packed = np.asarray(packed)
    if packed.ndim != 3:
        raise InterleaveError(
            f"expected an interleaved (m, n, batch) array, got shape "
            f"{packed.shape}")
    return [np.ascontiguousarray(packed[..., b])
            for b in range(packed.shape[-1])]


def interleaved_getrf(device: Device, packed: DeviceArray | np.ndarray, *,
                      stream=None) -> np.ndarray:
    """LU with partial pivoting on an interleaved uniform batch.

    ``packed`` is ``(m, n, batch)``.  One kernel launch; inside, every
    elimination step is one vectorized operation over the batch axis —
    the SIMD structure the interleaved layout exists for.  Returns the
    ``(k, batch)`` pivot array; factors overwrite ``packed``.
    """
    data = packed.data if isinstance(packed, DeviceArray) else packed
    if data.ndim != 3:
        raise ValueError("expected an interleaved (m, n, batch) array")
    m, n, bs = data.shape
    k = min(m, n)
    ipiv = np.tile(np.arange(k, dtype=np.int64)[:, None], (1, bs))
    if k == 0 or bs == 0:
        return ipiv
    if max(m, n) > INTERLEAVED_MAX_N:
        raise ValueError(
            f"interleaved kernel is limited to matrices <= "
            f"{INTERLEAVED_MAX_N}x{INTERLEAVED_MAX_N} (got {m}x{n}); "
            "use irr_getrf")

    def kernel() -> KernelCost:
        # every elimination step is one vectorized operation across the
        # whole batch — elementwise, so each matrix's factors are bitwise
        # identical to a scalar unblocked elimination of that matrix.  A
        # zero or subnormal pivot skips the column's scale and update.
        tiny = np.finfo(data.dtype).tiny
        batch_ix = np.arange(bs)
        for c in range(k):
            p = np.argmax(np.abs(data[c:, c, :]), axis=0) + c   # (bs,)
            ipiv[c, :] = p
            rows_c = data[c, :, batch_ix]          # (bs, n)
            rows_p = data[p, :, batch_ix]
            data[c, :, batch_ix] = rows_p
            data[p, :, batch_ix] = rows_c
            piv = data[c, c, :]                    # (bs,)
            nz = ~(np.abs(piv) < tiny)
            if c + 1 < m:
                inv = np.where(nz, piv, 1.0)
                data[c + 1:, c, :] = np.where(
                    nz[None, :], data[c + 1:, c, :] / inv[None, :],
                    data[c + 1:, c, :])
                if c + 1 < n:
                    data[c + 1:, c + 1:, :] -= np.where(
                        nz[None, None, :],
                        data[c + 1:, c, :][:, None, :] *
                        data[c, c + 1:, :][None, :, :], 0.0)
        flops = 0.0
        for c in range(k):
            if c + 1 < m:
                flops += bs * ((m - c - 1) +
                               2.0 * (m - c - 1) * (n - c - 1))
        itemsize = data.dtype.itemsize
        # one pass over the packed array per column, but the batch axis is
        # unit-stride: perfectly coalesced (the layout's selling point).
        # one thread block per matrix (like the irr kernels), but the
        # elimination arithmetic vectorizes along the unit-stride batch
        # axis: a dedicated, higher efficiency class.
        nbytes = 2.0 * data.nbytes
        return KernelCost(
            flops=flops, bytes_read=nbytes / 2, bytes_written=nbytes / 2,
            blocks=max(1, bs), threads_per_block=256,
            shared_mem_per_block=min(m * n * itemsize,
                                     device.spec.max_shared_per_block),
            kernel_class="getf2_interleaved",
            compute_ramp=min(1.0, bs / 256.0),
            memory_ramp=0.95)

    device.launch("interleaved_getrf", kernel, stream=stream)
    return ipiv
