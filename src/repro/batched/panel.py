"""Block-column (panel) factorization — §IV-E.

Two code paths, chosen by shared-memory capacity exactly as in the paper:

* :func:`fused_getf2` (``irrGETF2``) — one kernel factors every matrix's
  whole panel in shared memory.  Eligible when the *estimated largest
  panel*, ``ib × (M_max − j)`` doubles, fits in a thread block's shared
  memory; a GPU with a small shared memory (MI100, 64 KB) falls back to
  the column-wise path earlier than one with a large shared memory
  (A100, 192 KB).  Its advantage is memory traffic: the panel is read and
  written once.

* :func:`columnwise_getf2` — the four-kernel-per-column path
  (``irrIAMAX``, ``irrSWAP``, ``irrSCAL``, ``irrGER``), used when the
  panel cannot be cached.  The rank-1 update re-touches the trailing
  panel from global memory every column, so traffic grows by a factor of
  the panel width.

Per-matrix semantics (DCWI): at global column ``j`` with nominal width
``ib``, matrix ``i`` factors the rectangular block
``A_i[j:m_i, j:min(j+ib, n_i)]`` with partial pivoting restricted to its
first ``p_i = min(ib, min(m_i, n_i) − j)`` columns (its remaining pivot
columns).  Making the panel span the full nominal width (not just the
pivot columns) means a wide matrix whose last pivot column falls inside
this panel has its extra U columns updated here, and the driver's
uniform-offset TRSM/GEMM stay correct for every matrix shape.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost, tile_blocks
from ..device.simulator import Device
from ..errors import InfeasibleConfig
from .interface import IrrBatch

__all__ = ["fused_getf2", "columnwise_getf2", "panel_shared_bytes",
           "PanelPivots", "PivotControl", "factor_panel_block",
           "DEFAULT_REPLACE_SCALE", "default_replace_scale"]

_ITEM = 8

#: default static-pivot replacement magnitude, as a multiple of
#: ``max|A_i|``: ``sqrt(eps)`` keeps ``1/pivot`` bounded by
#: ``eps^{-1/2}/‖A‖`` so iterative refinement can absorb the
#: ``O(sqrt(eps)·‖A‖)`` perturbation (the STRUMPACK recipe).  This is
#: the FP64 value; ``PivotControl`` resolves the default against the
#: *working* precision's eps, so FP32/complex64 factorizations replace
#: pivots at ``sqrt(eps32) ≈ 3.5e-4`` instead of an FP64-sized value
#: their arithmetic could never distinguish from zero.
DEFAULT_REPLACE_SCALE = float(np.sqrt(np.finfo(np.float64).eps))


def default_replace_scale(dtype=np.float64) -> float:
    """``sqrt(eps)`` of the working precision (eps of the real kind for
    complex dtypes — ``np.finfo(complex64).eps`` is the float32 eps)."""
    return float(np.sqrt(np.finfo(np.dtype(dtype)).eps))


class PivotControl:
    """Per-matrix breakdown thresholds, replacement values and diagnostics.

    A pivot of matrix ``i`` breaks down when ``|pivot| < thresh[i]``,
    where ``thresh[i] = max(tiny, pivot_tol · anorm[i])`` and
    ``anorm[i] = max|A_i|`` at construction (``tiny`` is the smallest
    normal number of the dtype, so exactly-zero *and* subnormal pivots
    are always flagged — dividing by them overflows).  In static-pivot
    mode a broken pivot is replaced by ``±replace_scale · anorm[i]``
    (keeping the original sign/phase) and counted in ``n_replaced``
    instead of being reported in ``info``.

    Diagnostics, all per matrix: ``n_replaced`` (pivots perturbed),
    ``min_pivot`` (smallest ``|pivot|`` encountered, ``+inf`` until a
    pivot column is processed) and ``growth`` (element growth factor
    ``max|U,L| / max|A|``, filled by the driver after the factorization).
    """

    def __init__(self, anorm: np.ndarray, dtype=np.float64, *,
                 pivot_tol: float = 0.0, static_pivot: bool = False,
                 replace_scale: float | None = None):
        if pivot_tol < 0.0:
            raise ValueError("pivot_tol must be >= 0")
        if replace_scale is None:
            replace_scale = default_replace_scale(dtype)
        if replace_scale <= 0.0:
            raise ValueError("replace_scale must be > 0")
        self.tiny = float(np.finfo(np.dtype(dtype)).tiny)
        self.pivot_tol = float(pivot_tol)
        self.static_pivot = bool(static_pivot)
        self.replace_scale = float(replace_scale)
        self.reset(anorm)

    def reset(self, anorm: np.ndarray) -> None:
        """Thresholds and replacement values for ``anorm = max|A_i|``,
        with fresh diagnostics — the state a factorization starts from."""
        bs = len(anorm)
        self.anorm = np.asarray(anorm, dtype=np.float64)
        self.thresh = np.maximum(self.tiny, self.pivot_tol * self.anorm)
        # repl[i] == 0.0 disables replacement for matrix i (always when
        # static pivoting is off; also for an exactly-zero matrix, whose
        # breakdown is not recoverable by scaling its norm).
        if self.static_pivot:
            self.repl = np.where(self.anorm > 0.0,
                                 self.replace_scale * self.anorm, 0.0)
        else:
            self.repl = np.zeros(bs, dtype=np.float64)
        self.n_replaced = np.zeros(bs, dtype=np.int64)
        self.min_pivot = np.full(bs, np.inf, dtype=np.float64)
        self.growth = np.ones(bs, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.anorm)


def _batch_abs_max(batch: IrrBatch) -> np.ndarray:
    """``max|A_i|`` over each matrix's local dims (0.0 for empty)."""
    out = np.zeros(len(batch), dtype=np.float64)
    for i in range(len(batch)):
        mat = batch.matrix(i)
        if mat.size:
            out[i] = float(np.max(np.abs(mat)))
    return out


class PanelPivots:
    """Per-matrix pivot vectors for an LU factorization.

    ``ipiv[i][r] = p`` means row ``r`` was interchanged with row ``p >= r``
    (0-based LAPACK convention).  Also records ``info`` per matrix: the
    1-based index of the first *unrecovered* pivot breakdown
    (0 = nonsingular), matching LAPACK ``getrf`` semantics.  Breakdown
    thresholds and static-pivot replacement are governed by the attached
    :class:`PivotControl` (``self.ctrl``); with the default arguments the
    threshold is the smallest normal number of the dtype, so exact zeros
    and subnormal pivots are flagged and nothing is replaced.
    """

    def __init__(self, batch: IrrBatch, *, pivot_tol: float = 0.0,
                 static_pivot: bool = False,
                 replace_scale: float | None = None):
        self.ipiv = [np.arange(min(int(m), int(n)), dtype=np.int64)
                     for m, n in zip(batch.m_vec, batch.n_vec)]
        self.ctrl = PivotControl(
            _batch_abs_max(batch), batch.dtype, pivot_tol=pivot_tol,
            static_pivot=static_pivot, replace_scale=replace_scale)
        self.info = np.zeros(len(batch), dtype=np.int64)
        #: permutation rehearsal the engine memoizes for repeated solves
        #: (see ``BatchEngine.exec_apply_pivots``)
        self._rehearsal = None

    def reset(self, anorm: np.ndarray) -> None:
        """Start a new factorization of matrices with ``max|A_i| =
        anorm``: pivot control, ``info`` and the rehearsal memo as
        freshly constructed (every pivot column rewrites its ``ipiv``
        entry)."""
        self.ctrl.reset(anorm)
        self.info = np.zeros_like(self.info)
        self._rehearsal = None

    @property
    def n_replaced(self) -> np.ndarray:
        """Per-matrix count of statically replaced (perturbed) pivots."""
        return self.ctrl.n_replaced

    @property
    def min_pivot(self) -> np.ndarray:
        """Per-matrix smallest ``|pivot|`` seen during elimination."""
        return self.ctrl.min_pivot

    @property
    def growth(self) -> np.ndarray:
        """Per-matrix element growth factor ``max|LU| / max|A|``."""
        return self.ctrl.growth

    def __len__(self) -> int:
        return len(self.ipiv)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.ipiv[i]


def panel_shared_bytes(max_m: int, j: int, ib: int,
                       itemsize: int = _ITEM) -> int:
    """Paper's shared-memory estimate for the largest panel at step ``j``:
    all panels assumed ``ib`` wide, tallest is ``M_max − j`` rows."""
    return max(0, (int(max_m) - int(j))) * int(ib) * int(itemsize)


def _panel_extents(batch: IrrBatch, i: int, j: int, ib: int
                   ) -> tuple[int, int, int]:
    """(rows, panel width, pivot columns) of matrix ``i`` at step ``j``."""
    m, n = batch.local_dims(i)
    k = min(m, n)
    rows = max(0, m - j)
    width = max(0, min(j + ib, n) - j)
    pivots = max(0, min(ib, k - j))
    return rows, width, pivots


def factor_panel_block(a: np.ndarray, npiv: int, ipiv_out: np.ndarray,
                       info: np.ndarray, idx: int, j: int,
                       ctrl: PivotControl | None = None) -> float:
    """Unblocked right-looking LU of one panel block, in place.

    ``a`` is the ``rows × width`` panel view; pivoting happens in the first
    ``npiv`` columns but each rank-1 update spans the full panel width.
    Returns the flop count.  Shared by both code paths (they differ in
    launch structure and traffic, not in numerics).

    A pivot with ``|pivot| < thresh`` is a breakdown: with ``ctrl`` in
    static-pivot mode it is replaced by ``±repl`` (same sign/phase) and
    counted, otherwise ``info[idx]`` records the 1-based column and the
    column's scaling/update are skipped (dividing by a subnormal pivot
    would overflow).  Without ``ctrl`` the threshold is the smallest
    normal number of the dtype and nothing is replaced.
    """
    rows, width = a.shape
    if ctrl is not None:
        thresh = float(ctrl.thresh[idx])
        repl = float(ctrl.repl[idx])
    else:
        thresh = float(np.finfo(a.dtype).tiny)
        repl = 0.0
    flops = 0.0
    for c in range(npiv):
        col = a[c:, c]
        p = int(np.argmax(np.abs(col)))
        piv = col[p]
        # the ufunc, not builtin abs(): complex magnitudes must match
        # the vectorized engine paths bitwise
        apiv = float(np.abs(piv))
        ipiv_out[j + c] = j + c + p
        if p != 0:
            a[[c, c + p], :] = a[[c + p, c], :]
        if ctrl is not None and apiv < ctrl.min_pivot[idx]:
            ctrl.min_pivot[idx] = apiv
        if apiv < thresh:
            if repl > 0.0:
                # keep the sign/phase of the (possibly zero) tiny pivot
                piv = piv / apiv * repl if apiv > 0.0 else \
                    a.dtype.type(1.0) * repl
                a[c, c] = piv
                ctrl.n_replaced[idx] += 1
            else:
                if info[idx] == 0:
                    info[idx] = j + c + 1  # 1-based, like LAPACK
                continue
        if c + 1 < rows:
            a[c + 1:, c] /= a[c, c]
            flops += rows - c - 1
            if c + 1 < width:
                a[c + 1:, c + 1:] -= np.outer(a[c + 1:, c], a[c, c + 1:])
                flops += 2.0 * (rows - c - 1) * (width - c - 1)
    return flops


def fused_getf2(device: Device, batch: IrrBatch, pivots: PanelPivots,
                j: int, ib: int, *, stream=None,
                name: str = "irrgetf2", engine=None) -> KernelCost:
    """One launch factoring every matrix's panel in shared memory.

    ``engine`` selects the host execution path of the launch body: the
    bucketed engine groups matrices by row class and factors each group
    with one zero-padded, batch-vectorized right-looking elimination —
    bitwise-identical factors, pivots and cost.
    """
    smem = panel_shared_bytes(batch.max_m, j, ib, batch.itemsize)
    if smem > device.spec.max_shared_per_block:
        raise InfeasibleConfig(
            f"panel of {smem} B does not fit in shared memory "
            f"({device.spec.max_shared_per_block} B) — use columnwise_getf2")

    from .engine import resolve_engine  # deferred: engine imports panel
    eng = resolve_engine(engine)

    def kernel() -> KernelCost:
        if eng is not None:
            return eng.exec_panel(device, batch, pivots, j, ib, smem)
        flops = 0.0
        nbytes = 0.0
        blocks = 0
        for i in range(len(batch)):
            rows, width, npiv = _panel_extents(batch, i, j, ib)
            if npiv == 0:
                continue
            a = batch.sub(i, j, j, rows, width)
            flops += factor_panel_block(a, npiv, pivots.ipiv[i],
                                        pivots.info, i, j,
                                        ctrl=pivots.ctrl)
            nbytes += rows * width * batch.itemsize  # read + write once
            blocks += 1
        return KernelCost(
            flops=flops, bytes_read=nbytes, bytes_written=nbytes,
            blocks=max(blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class="getf2",
            compute_ramp=min(1.0, ib / 16.0),
            peak_scale=batch.peak_scale,
        )

    # Corrupt fault site: the fused panel has no per-launch checksum
    # (its pivot decisions entangle values and control flow); corruption
    # here is caught by the driver-level factor check in irr_getrf.
    def _outputs():
        outs = []
        for i in range(len(batch)):
            rows, width, npiv = _panel_extents(batch, i, j, ib)
            if npiv:
                outs.append(batch.sub(i, j, j, rows, width))
        return outs

    return device.launch(name, kernel, stream=stream, outputs=_outputs)


def columnwise_getf2(device: Device, batch: IrrBatch, pivots: PanelPivots,
                     j: int, ib: int, *, stream=None,
                     name: str = "irrpanel") -> None:
    """Four launches per column: irrIAMAX, irrSWAP, irrSCAL, irrGER.

    Numerically identical to :func:`fused_getf2`; the cost difference is
    4·ib kernel launches and the rank-1 update's repeated global-memory
    traffic over the trailing panel.
    """
    # Per-launch state shared across the column loop: the pivot row found
    # by irrIAMAX, consumed by irrSWAP/irrSCAL/irrGER (device-resident in
    # the real code; plain arrays here).
    bs = len(batch)
    ext = [_panel_extents(batch, i, j, ib) for i in range(bs)]
    piv_row = np.zeros(bs, dtype=np.int64)
    # Breakdown state shared between irrSCAL (which judges the pivot
    # against the threshold, replacing or flagging it) and irrGER (which
    # must skip the rank-1 update of a column whose pivot broke down
    # un-recovered) — device-resident in the real code.
    col_ok = np.zeros(bs, dtype=bool)
    ctrl = pivots.ctrl

    for c in range(ib):
        def iamax(c=c) -> KernelCost:
            nbytes = 0.0
            blocks = 0
            for i in range(bs):
                rows, width, npiv = ext[i]
                if c >= npiv:
                    continue
                col = batch.sub(i, j + c, j + c, rows - c, 1)
                piv_row[i] = int(np.argmax(np.abs(col[:, 0])))
                pivots.ipiv[i][j + c] = j + c + piv_row[i]
                nbytes += (rows - c) * batch.itemsize
                blocks += 1
            return KernelCost(bytes_read=nbytes, blocks=max(blocks, 1),
                              threads_per_block=128, kernel_class="swap")

        def swap(c=c) -> KernelCost:
            nbytes = 0.0
            blocks = 0
            for i in range(bs):
                rows, width, npiv = ext[i]
                if c >= npiv or piv_row[i] == 0:
                    continue
                a = batch.sub(i, j, j, rows, width)
                a[[c, c + piv_row[i]], :] = a[[c + piv_row[i], c], :]
                nbytes += 2 * width * batch.itemsize
                blocks += 1
            return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                              blocks=max(blocks, 1), threads_per_block=64,
                              kernel_class="swap", memory_ramp=0.15)

        def scal(c=c) -> KernelCost:
            flops = 0.0
            nbytes = 0.0
            blocks = 0
            for i in range(bs):
                rows, width, npiv = ext[i]
                col_ok[i] = False
                if c >= npiv:
                    continue
                a = batch.sub(i, j, j, rows, width)
                piv = a[c, c]
                apiv = float(np.abs(piv))
                if apiv < ctrl.min_pivot[i]:
                    ctrl.min_pivot[i] = apiv
                if apiv < ctrl.thresh[i]:
                    repl = float(ctrl.repl[i])
                    if repl > 0.0:
                        piv = piv / apiv * repl if apiv > 0.0 else \
                            batch.dtype.type(1.0) * repl
                        a[c, c] = piv
                        ctrl.n_replaced[i] += 1
                    else:
                        if pivots.info[i] == 0:
                            pivots.info[i] = j + c + 1
                        continue
                col_ok[i] = True
                if c + 1 < rows:
                    a[c + 1:, c] /= piv
                    flops += rows - c - 1
                    nbytes += 2 * (rows - c - 1) * batch.itemsize
                    blocks += 1
            return KernelCost(flops=flops, bytes_read=nbytes / 2,
                              bytes_written=nbytes / 2,
                              blocks=max(blocks, 1), threads_per_block=128,
                              kernel_class="swap")

        def ger(c=c) -> KernelCost:
            flops = 0.0
            nbytes = 0.0
            blocks = 0
            for i in range(bs):
                rows, width, npiv = ext[i]
                if c >= npiv:
                    continue
                if not col_ok[i]:
                    continue
                a = batch.sub(i, j, j, rows, width)
                if c + 1 < rows and c + 1 < width:
                    a[c + 1:, c + 1:] -= np.outer(a[c + 1:, c], a[c, c + 1:])
                    tr = (rows - c - 1) * (width - c - 1)
                    flops += 2.0 * tr
                    # The trailing panel is re-touched every column, but a
                    # <=32-wide panel is mostly L2-resident between the
                    # per-column kernels; charge the DRAM-visible fraction.
                    nbytes += 2 * tr * batch.itemsize * 0.3
                    blocks += tile_blocks(1, width - c - 1)
            return KernelCost(flops=flops, bytes_read=nbytes / 2,
                              bytes_written=nbytes / 2,
                              blocks=max(blocks, 1), threads_per_block=128,
                              kernel_class="getf2")

        device.launch(f"{name}:iamax", iamax, stream=stream)
        device.launch(f"{name}:swap", swap, stream=stream)
        device.launch(f"{name}:scal", scal, stream=stream)
        device.launch(f"{name}:ger", ger, stream=stream)
