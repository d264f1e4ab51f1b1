"""irrQR — Householder QR on a nonuniform batch.

The paper's conclusion singles QR out as the natural next decomposition
for the expanded interface: "the proposed interface and the DCWI layer
would work seamlessly for other decompositions, such as the QR
factorization, which can be used in Sparse QR algorithms."  This module
is that extension, built from the same ingredients as irrLU-GPU:

* ``irrGEQR2`` — a fused panel kernel computing the Householder QR of
  every matrix's current panel in shared memory (reflectors stored below
  the diagonal, R on/above, ``tau`` per column);
* ``irrLARFT`` — forms each panel's compact-WY ``T`` factor;
* ``irrLARFB`` — applies the block reflector ``(I − V·T·Vᵀ)ᵀ`` to the
  trailing columns, composed of two small triangular-multiply kernels
  plus two :func:`~repro.batched.gemm.irr_gemm` calls on offset
  submatrices — no pointer arithmetic, exactly like the LU driver.

Workspaces (the ``T`` factors and the ``W = VᵀC`` buffer) are allocated
*once* with fixed local dimensions and revisited with moving offsets, so
the factorization remains fully asynchronous — the property §IV-D credits
the interface for.

The result is LAPACK ``geqrf``-compatible per matrix: packed ``R`` and
reflectors plus a ``tau`` vector.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost, gemm_compute_ramp, tile_blocks
from ..device.simulator import Device
from .gemm import irr_gemm
from .interface import IrrBatch

__all__ = ["irr_geqrf", "QrTaus", "qr_reconstruct", "apply_q",
           "qr_least_squares", "geqrf_flops", "DEFAULT_QR_PANEL"]

DEFAULT_QR_PANEL = 32


class QrTaus:
    """Per-matrix Householder scalar vectors (``tau``)."""

    def __init__(self, batch: IrrBatch):
        dt = batch.dtype if np.issubdtype(batch.dtype,
                                          np.complexfloating) \
            else np.float64
        self.tau = [np.zeros(min(int(m), int(n)), dtype=dt)
                    for m, n in zip(batch.m_vec, batch.n_vec)]

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.tau[i]


def geqrf_flops(m: int, n: int) -> float:
    """Householder QR flop count (leading terms).

    ``Σ_c 4(m−c)(n−c)`` over the ``k = min(m, n)`` reflector columns —
    ``2mn² − 2n³/3`` in the familiar tall-matrix (m ≥ n) form.
    """
    m, n = float(m), float(n)
    k = min(m, n)
    return 4.0 * m * n * k - 2.0 * (m + n) * k ** 2 + 4.0 * k ** 3 / 3.0


def _panel_extents(batch: IrrBatch, i: int, j: int, ib: int):
    m, n = batch.local_dims(i)
    k = min(m, n)
    rows = max(0, m - j)
    width = max(0, min(j + ib, n) - j)
    nref = max(0, min(ib, k - j))
    return rows, width, nref


def _householder_panel(a: np.ndarray, nref: int, tau_out: np.ndarray,
                       j: int) -> float:
    """In-place Householder QR of one panel block; returns flops.

    Real path: the classical `dlarfg` convention.  Complex path: the
    `zlarfg`/`zgeqr2` convention — ``H = I − τ·v·vᴴ`` with real β, and
    the panel update applies ``Hᴴ`` (i.e. uses ``conj(τ)``).
    """
    rows, width = a.shape
    complex_path = np.issubdtype(a.dtype, np.complexfloating)
    flops = 0.0
    cf = 4.0 if complex_path else 1.0
    for c in range(nref):
        alpha = a[c, c]
        xnorm = np.linalg.norm(a[c + 1:, c]) if c + 1 < rows else 0.0
        if xnorm == 0.0 and (not complex_path or alpha.imag == 0.0):
            tau_out[j + c] = 0.0
            continue
        if complex_path:
            anorm = np.sqrt(alpha.real ** 2 + alpha.imag ** 2 +
                            xnorm ** 2)
            beta = -anorm if alpha.real >= 0 else anorm
            tau_out[j + c] = (beta - alpha) / beta
        else:
            beta = -np.sign(alpha) * np.hypot(alpha, xnorm)
            if beta == 0.0:
                beta = -np.hypot(alpha, xnorm)
            tau_out[j + c] = (beta - alpha) / beta
        a[c + 1:, c] /= (alpha - beta)
        a[c, c] = beta
        flops += cf * 3.0 * (rows - c)
        if c + 1 < width:
            v = np.empty(rows - c, dtype=a.dtype)
            v[0] = 1.0
            v[1:] = a[c + 1:, c]
            # apply H^H to the remaining panel columns
            tau_eff = np.conj(tau_out[j + c]) if complex_path \
                else tau_out[j + c]
            w = v.conj() @ a[c:, c + 1:]
            a[c:, c + 1:] -= tau_eff * np.outer(v, w)
            flops += cf * 4.0 * (rows - c) * (width - c - 1)
    return flops


def _geqr2_fused(device: Device, batch: IrrBatch, taus: QrTaus,
                 j: int, ib: int, stream) -> None:
    def kernel() -> KernelCost:
        flops = 0.0
        nbytes = 0.0
        blocks = 0
        for i in range(len(batch)):
            rows, width, nref = _panel_extents(batch, i, j, ib)
            if nref == 0:
                continue
            a = batch.sub(i, j, j, rows, width)
            flops += _householder_panel(a, nref, taus.tau[i], j)
            nbytes += rows * width * batch.itemsize
            blocks += 1
        smem = min(ib * 2048 * batch.itemsize,
                   device.spec.max_shared_per_block)
        return KernelCost(flops=flops, bytes_read=nbytes,
                          bytes_written=nbytes, blocks=max(blocks, 1),
                          threads_per_block=256, shared_mem_per_block=smem,
                          kernel_class="getf2",
                          compute_ramp=min(1.0, ib / 16.0),
                          peak_scale=batch.peak_scale)

    device.launch("irrgeqr2", kernel, stream=stream)


def _larft(device: Device, batch: IrrBatch, T: IrrBatch, taus: QrTaus,
           j: int, ib: int, stream) -> None:
    """T[i] ← compact-WY triangular factor of panel i's reflectors."""

    def kernel() -> KernelCost:
        flops = 0.0
        blocks = 0
        for i in range(len(batch)):
            rows, _w, nref = _panel_extents(batch, i, j, ib)
            if nref == 0:
                continue
            v = np.tril(batch.sub(i, j, j, rows, nref), -1)
            np.fill_diagonal(v, 1.0)
            t = T.arrays[i].data
            t[:] = 0.0
            for c in range(nref):
                tau = taus.tau[i][j + c]
                t[c, c] = tau
                if c > 0 and tau != 0.0:
                    # t[:c, c] = -tau * T[:c, :c] @ (V[:, :c]^H v_c)
                    w = v[:, :c].conj().T @ v[:, c]
                    t[:c, c] = -tau * (t[:c, :c] @ w)
                    flops += 2.0 * rows * c + 2.0 * c * c
            blocks += 1
        return KernelCost(flops=flops, blocks=max(blocks, 1),
                          threads_per_block=128, kernel_class="trsm_irr",
                          compute_ramp=gemm_compute_ramp(ib, ib, ib),
                          peak_scale=batch.peak_scale)

    device.launch("irrlarft", kernel, stream=stream)


def _trapezoid_apply(device: Device, batch: IrrBatch, T: IrrBatch,
                     W: IrrBatch, j: int, ib: int, phase: str,
                     stream) -> None:
    """The LARFB pieces that touch triangles (custom kernels).

    ``phase="head"``: ``W ← V₁ᵀ·C₁`` (unit-lower-triangular multiply into
    the workspace).  ``phase="t"``: ``W ← Tᵀ·W``.  ``phase="tail"``:
    ``C₁ ← C₁ − V₁·W``.
    """

    def kernel() -> KernelCost:
        flops = 0.0
        nbytes = 0.0
        blocks = 0
        for i in range(len(batch)):
            _rows, _w, nref = _panel_extents(batch, i, j, ib)
            n_i = int(batch.n_vec[i])
            n2 = max(0, n_i - j - ib)
            if nref == 0 or n2 == 0:
                continue
            c1 = batch.sub(i, j, j + ib, nref, n2)
            w = W.sub(i, 0, j + ib, nref, n2)
            if phase == "head":
                v1 = np.tril(batch.sub(i, j, j, nref, nref), -1) + \
                    np.eye(nref, dtype=batch.dtype.type)
                w[...] = v1.conj().T @ c1
            elif phase == "t":
                t = T.arrays[i].data[:nref, :nref]
                w[...] = t.conj().T @ w
            else:
                v1 = np.tril(batch.sub(i, j, j, nref, nref), -1) + \
                    np.eye(nref, dtype=batch.dtype.type)
                c1 -= v1 @ w
            flops += 2.0 * nref * nref * n2
            nbytes += 2.0 * nref * n2 * batch.itemsize
            blocks += tile_blocks(1, n2)
        return KernelCost(flops=flops, bytes_read=nbytes / 2,
                          bytes_written=nbytes / 2, blocks=max(blocks, 1),
                          threads_per_block=128, kernel_class="trsm_irr",
                          compute_ramp=gemm_compute_ramp(ib, ib, ib),
                          peak_scale=batch.peak_scale)

    device.launch(f"irrlarfb:{phase}", kernel, stream=stream)


def irr_geqrf(device: Device, batch: IrrBatch, *,
              nb: int = DEFAULT_QR_PANEL, stream=None) -> QrTaus:
    """Blocked Householder QR of every matrix in an irregular batch.

    Overwrites each matrix with its packed QR (R on/above the diagonal,
    reflector vectors below) and returns the per-matrix ``tau`` vectors —
    LAPACK ``geqrf`` semantics, sizes completely arbitrary.
    """
    if nb < 1:
        raise ValueError("panel width must be positive")
    taus = QrTaus(batch)
    kmax = batch.max_min_mn
    if kmax == 0 or len(batch) == 0:
        return taus
    bs = len(batch)
    m_req, n_req = batch.max_m, batch.max_n

    # Fixed-local-dimension workspaces revisited with moving offsets.
    T = IrrBatch.zeros(device, [nb] * bs, [nb] * bs, dtype=batch.dtype)
    W = IrrBatch.zeros(device, [nb] * bs, batch.n_vec, dtype=batch.dtype)

    for j in range(0, kmax, nb):
        ib = min(nb, kmax - j)
        _geqr2_fused(device, batch, taus, j, ib, stream)
        if n_req > j + ib:
            _larft(device, batch, T, taus, j, ib, stream)
            # W <- V1^T C1  (unit-lower triangle)
            _trapezoid_apply(device, batch, T, W, j, ib, "head", stream)
            # W += V2^H C2  (V2^T in the real case)
            opv = "C" if np.issubdtype(batch.dtype,
                                       np.complexfloating) else "T"
            if m_req > j + ib:
                irr_gemm(device, opv, "N", ib, n_req - j - ib,
                         m_req - j - ib, 1.0, batch, (j + ib, j),
                         batch, (j + ib, j + ib), 1.0, W, (0, j + ib),
                         stream=stream, name="irrgemm:qr")
            # W <- T^T W
            _trapezoid_apply(device, batch, T, W, j, ib, "t", stream)
            # C2 -= V2 W
            if m_req > j + ib:
                irr_gemm(device, "N", "N", m_req - j - ib, n_req - j - ib,
                         ib, -1.0, batch, (j + ib, j), W, (0, j + ib),
                         1.0, batch, (j + ib, j + ib), stream=stream,
                         name="irrgemm:qr")
            # C1 -= V1 W
            _trapezoid_apply(device, batch, T, W, j, ib, "tail", stream)

    T.free()
    W.free()
    return taus


# ----------------------------------------------------------------------
# host-side utilities (verification / least squares)
# ----------------------------------------------------------------------

def apply_q(factored: np.ndarray, tau: np.ndarray, x: np.ndarray,
            trans: bool = False) -> np.ndarray:
    """Apply ``Q`` (or ``Qᴴ`` with ``trans=True``) from packed QR factors.

    ``Q = H₁·H₂···H_k`` with ``H = I − τ·v·vᴴ`` (the LAPACK convention;
    for real data ``vᴴ = vᵀ`` and ``Qᴴ = Qᵀ``).
    """
    m = factored.shape[0]
    k = len(tau)
    dtype = np.result_type(factored.dtype, np.asarray(x).dtype,
                           tau.dtype if hasattr(tau, "dtype")
                           else np.float64)
    y = np.array(x, dtype=dtype, copy=True)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    order = range(k) if trans else range(k - 1, -1, -1)
    for c in order:
        if tau[c] == 0.0:
            continue
        v = np.zeros(m, dtype=dtype)
        v[c] = 1.0
        v[c + 1:] = factored[c + 1:, c]
        t = np.conj(tau[c]) if trans else tau[c]
        y -= t * np.outer(v, v.conj() @ y)
    return y[:, 0] if squeeze else y


def qr_reconstruct(factored: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rebuild ``A = Q·R`` from packed QR factors (test utility)."""
    m, n = factored.shape
    k = min(m, n)
    r = np.triu(factored[:k, :])
    qr = np.vstack([r, np.zeros((m - k, n), dtype=factored.dtype)])
    return apply_q(factored, tau, qr, trans=False)


def qr_least_squares(factored: np.ndarray, tau: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """Solve the least-squares problem ``min ‖A·x − b‖₂`` (m ≥ n)."""
    import scipy.linalg as sla

    m, n = factored.shape
    if m < n:
        raise ValueError("least squares needs m >= n")
    qtb = apply_q(factored, tau, b, trans=True)
    return sla.solve_triangular(factored[:n, :n], qtb[:n],
                                lower=False, check_finite=False)
