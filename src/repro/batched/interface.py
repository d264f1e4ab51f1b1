"""The expanded batch interface — §IV-A of the paper.

A :class:`IrrBatch` bundles what the paper's interface passes as separate
device arrays: the per-matrix buffers (``Aarray`` + ``lda_vec``) and the
*local dimension* vectors (``m_vec``, ``n_vec``).  Routines additionally
take *required dimensions* (scalars, defined by the largest matrix) and
*pointer offsets* (a scalar ``(i, j)`` pair per operand, applied uniformly:
``A[id] = Aarray[id] + Aj·lda_vec[id] + Ai``).

Embedding the offset arithmetic in the interface is the paper's key design
move: a blocked algorithm can descend into submatrices by changing two
scalars per operand, with *no* auxiliary kernels mutating pointer or
dimension arrays between steps, and hence no forced synchronization.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..device.kernel import peak_scale_for
from ..device.memory import DeviceArray
from ..device.simulator import Device

__all__ = ["IrrBatch", "Offsets"]

#: A scalar (row, col) pointer-offset pair, the ``(Ai, Aj)`` of the paper.
Offsets = tuple[int, int]

#: The data types a batch may hold.
_DTYPES = (np.float32, np.float64, np.complex64, np.complex128)


def _host_matrices(matrices: Iterable[np.ndarray],
                   dtype) -> tuple[list[np.ndarray], np.dtype]:
    """The host matrices as 2-D arrays of one supported device dtype.

    ``dtype`` when given; else float32 and complex inputs keep theirs
    and everything else is promoted to float64.  Everything is checked
    before any upload: a real ``dtype`` for complex input raises
    :class:`TypeError` (the cast would drop the imaginary part), and
    mixed or unsupported dtypes raise :class:`ValueError`.
    """
    mats = []
    for m in matrices:
        m = np.asarray(m)
        if dtype is None:
            dt = m.dtype if m.dtype in (np.float32, np.complex64,
                                        np.complex128) else np.float64
        else:
            dt = np.dtype(dtype)
            if np.iscomplexobj(m) and dt.kind != "c":
                raise TypeError(f"cannot cast complex input to {dt}: "
                                f"the imaginary part would be dropped")
        mats.append(np.atleast_2d(m.astype(dt, copy=False)))
    dtypes = {m.dtype for m in mats}
    if len(dtypes) > 1:
        raise ValueError(f"mixed data types in one batch: {dtypes}")
    dt = dtypes.pop() if dtypes else \
        np.dtype(np.float64 if dtype is None else dtype)
    if dt not in _DTYPES:
        raise ValueError(f"unsupported data type {dt}")
    return mats, dt


class IrrBatch:
    """A nonuniform batch of matrices resident on one device.

    Attributes
    ----------
    device:
        The owning :class:`~repro.device.simulator.Device`.
    arrays:
        Per-matrix :class:`DeviceArray` buffers.  ``arrays[i]`` has shape
        ``(lda_vec[i], lcols[i])`` with ``lda_vec[i] >= m_vec[i]`` — the
        leading-dimension generalization of the paper's interface.
    m_vec, n_vec:
        Local dimensions (int64 arrays).  Never mutated by any routine.
    """

    def __init__(self, device: Device, arrays: Sequence[DeviceArray],
                 m_vec: np.ndarray, n_vec: np.ndarray):
        m_vec = np.asarray(m_vec, dtype=np.int64)
        n_vec = np.asarray(n_vec, dtype=np.int64)
        if len(arrays) != len(m_vec) or len(arrays) != len(n_vec):
            raise ValueError("arrays, m_vec and n_vec must have equal length")
        if np.any(m_vec < 0) or np.any(n_vec < 0):
            raise ValueError("local dimensions must be nonnegative")
        for i, a in enumerate(arrays):
            if a.ndim != 2:
                raise ValueError(f"matrix {i} is not 2-D")
            if a.shape[0] < m_vec[i] or a.shape[1] < n_vec[i]:
                raise ValueError(
                    f"matrix {i}: buffer {a.shape} smaller than local dims "
                    f"({m_vec[i]}, {n_vec[i]})")
            if a.device is not device:
                raise ValueError(f"matrix {i} lives on a different device")
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) > 1:
            raise ValueError(f"mixed data types in one batch: {dtypes}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported data type {dtype}")
        self.device = device
        self.arrays = list(arrays)
        self.m_vec = m_vec
        self.n_vec = n_vec
        self.dtype = np.dtype(dtype)
        self._packed: DeviceArray | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_host(cls, device: Device, matrices: Iterable[np.ndarray],
                  dtype=None) -> "IrrBatch":
        """Upload a list of host matrices (sizes may all differ) in ONE
        H2D transfer.

        The matrices land back to back in one device allocation, each
        copied straight into its slice (no host staging copy), and the
        members are views of it: the per-transfer latency is paid once
        per batch, not once per matrix, as a pool that every ``Aarray``
        pointer (§IV-A) points into.  ``dtype`` selects the device
        precision; by default float32 and complex inputs keep their
        dtype and everything else is promoted to float64.  A real
        ``dtype`` for complex input raises :class:`TypeError`; mixed or
        unsupported dtypes raise :class:`ValueError` before anything is
        uploaded.
        """
        mats, _ = _host_matrices(matrices, dtype)
        return cls._pooled(device, mats, [m.shape[0] for m in mats],
                           [m.shape[1] for m in mats])

    @classmethod
    def _pooled(cls, device: Device, mats: list[np.ndarray], m_vec,
                n_vec) -> "IrrBatch":
        """A batch whose members are views of ONE device allocation
        holding the host arrays ``mats`` back to back."""
        packed = device.from_host(mats) if mats else None
        try:
            arrays, off = [], 0
            for m in mats:
                arrays.append(DeviceArray(
                    device, packed.data[off:off + m.size].reshape(m.shape),
                    base=packed))
                off += m.size
            batch = cls(device, arrays, m_vec, n_vec)
        except BaseException:
            if packed is not None:
                packed.free()
            raise
        batch._packed = packed
        return batch

    #: The serving layer's name for :meth:`from_host`, kept while the
    #: benchmark harness traces served uploads under it.
    from_host_packed = from_host

    @classmethod
    def zeros(cls, device: Device, m_vec, n_vec,
              dtype=np.float64) -> "IrrBatch":
        """Allocate a zero-initialized batch with the given local dims."""
        m_vec = np.asarray(m_vec, dtype=np.int64)
        n_vec = np.asarray(n_vec, dtype=np.int64)
        arrays = [device.zeros((int(m), int(n)), dtype=dtype)
                  for m, n in zip(m_vec, n_vec)]
        return cls(device, arrays, m_vec, n_vec)

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrays)

    @property
    def batch_size(self) -> int:
        return len(self.arrays)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def peak_scale(self) -> float:
        """Arithmetic-peak multiplier of this precision relative to FP64
        (the shared :data:`~repro.device.kernel.PEAK_SCALE` table)."""
        return peak_scale_for(self.dtype)

    @property
    def dims_key(self) -> tuple[bytes, bytes]:
        """Hashable signature of the local dimensions.

        ``m_vec``/``n_vec`` are immutable for the life of the batch, so
        the key is computed once and reused by the plan cache in
        :mod:`repro.batched.engine` — two batches with identical local
        dims share every cached inference plan.
        """
        key = getattr(self, "_dims_key", None)
        if key is None:
            key = (self.m_vec.tobytes(), self.n_vec.tobytes())
            self._dims_key = key
        return key

    @property
    def max_m(self) -> int:
        return int(self.m_vec.max()) if len(self.m_vec) else 0

    @property
    def max_n(self) -> int:
        return int(self.n_vec.max()) if len(self.n_vec) else 0

    @property
    def max_min_mn(self) -> int:
        """``max_i min(m_vec[i], n_vec[i])`` — the LU iteration bound
        DCWI requires the algorithm to be written against (§IV-B)."""
        if not len(self.m_vec):
            return 0
        return int(np.minimum(self.m_vec, self.n_vec).max())

    def local_dims(self, i: int) -> tuple[int, int]:
        return int(self.m_vec[i]), int(self.n_vec[i])

    def matrix(self, i: int) -> np.ndarray:
        """Writable view of matrix ``i`` restricted to its local dims."""
        m, n = self.local_dims(i)
        return self.arrays[i].data[:m, :n]

    def sub(self, i: int, oi: int, oj: int, rows: int, cols: int) -> np.ndarray:
        """Writable view of the ``rows × cols`` submatrix of matrix ``i``
        at offset ``(oi, oj)`` — the pointer arithmetic
        ``A + Aj·lda + Ai`` of the expanded interface."""
        return self.arrays[i].data[oi:oi + rows, oj:oj + cols]

    # -- transfers ----------------------------------------------------------
    def to_host(self) -> list[np.ndarray]:
        """Download every matrix (restricted to local dims).

        A batch built by :meth:`from_host` downloads its one allocation
        in ONE checked D2H transfer; a batch of separate allocations
        makes one transfer per matrix.  Either way each matrix comes
        back as its own host array, so holding one answer does not pin
        the rest of the batch.
        """
        members = zip(self.arrays, self.m_vec, self.n_vec)
        if self._packed is None:
            return [a.view(np.s_[:m, :n]).to_host() for a, m, n in members]
        flat, out, off = self._packed.to_host(), [], 0
        for a, m, n in members:
            out.append(flat[off:off + a.data.size].reshape(a.shape)[:m, :n]
                       .copy())
            off += a.data.size
        return out

    def copy(self) -> "IrrBatch":
        """Deep copy on the same device (one new allocation)."""
        return IrrBatch._pooled(self.device, [a.data for a in self.arrays],
                                self.m_vec.copy(), self.n_vec.copy())

    def total_elements(self) -> int:
        return int(np.sum(self.m_vec * self.n_vec))

    def free(self) -> None:
        """Release every owned member allocation (idempotent; members
        that are views never owned bytes, so freeing them is a no-op).
        A batch built by :meth:`from_host` releases its one allocation."""
        for a in self.arrays:
            a.free()
        if self._packed is not None:
            self._packed.free()

    def __enter__(self) -> "IrrBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"IrrBatch(batch={len(self)}, "
                f"m in [{self.m_vec.min() if len(self) else 0}, {self.max_m}], "
                f"n in [{self.n_vec.min() if len(self) else 0}, {self.max_n}])")
