"""irrLU-GPU — blocked LU with partial pivoting on an irregular batch.

The driver composes the building blocks exactly as Fig 1 / §IV describe,
written against the *largest* workload in the batch
(``max_i min(m_i, n_i)``); DCWI inside every kernel shrinks each matrix's
contribution as it finishes:

for each panel ``j`` of width ``ib``:

1. panel factorization — fused ``irrGETF2`` when the largest panel fits
   in shared memory, else the column-wise 4-kernel path (§IV-E);
2. ``irrLASWP`` — propagate the panel's row interchanges to the columns
   left and right of the panel (§IV-F);
3. ``irrTRSM`` — ``A[j:j+ib, j+ib:] ← L₁₁⁻¹ · A[j:j+ib, j+ib:]`` (§IV-D);
4. ``irrGEMM`` — trailing update
   ``A[j+ib:, j+ib:] −= A[j+ib:, j:j+ib] · A[j:j+ib, j+ib:]`` (§IV-C).

There are no auxiliary pointer/integer-arithmetic kernels anywhere: the
host only moves scalar offsets.

The result overwrites each matrix with its LAPACK-style packed factors
(unit-lower ``L`` below the diagonal, ``U`` on and above), with per-matrix
pivot vectors in a :class:`PanelPivots`.
"""

from __future__ import annotations

import numpy as np

from ..device.simulator import Device
from .abft import verified_getrf
from .engine import resolve_engine
from .gemm import irr_gemm
from .interface import IrrBatch
from .laswp import apply_interchanges, irr_laswp
from .panel import PanelPivots, _batch_abs_max, columnwise_getf2, \
    fused_getf2, panel_shared_bytes
from .trsm import irr_trsm

__all__ = ["irr_getrf", "lu_reconstruct", "lu_solve_factored",
           "DEFAULT_PANEL_WIDTH"]

#: the paper's design parameter: 16–32 columns per panel iteration.
DEFAULT_PANEL_WIDTH = 32


def irr_getrf(device: Device, batch: IrrBatch, *,
              nb: int = DEFAULT_PANEL_WIDTH,
              panel: str = "auto", laswp_variant: str = "rehearsed",
              concurrent_swaps: bool = False,
              pivot_tol: float = 0.0, static_pivot: bool = False,
              replace_scale: float | None = None,
              stream=None, engine="bucketed") -> PanelPivots:
    """Factor every matrix of an irregular batch as ``P·A = L·U``.

    Parameters
    ----------
    batch:
        Matrices of arbitrary, independent sizes (including 0×0 and 1×1).
        Overwritten with the packed LU factors.
    nb:
        Panel width (the paper's 16–32 column design parameter;
        :data:`DEFAULT_PANEL_WIDTH`, 32, for every batch by default).
        The shared-memory-capacity dependence §IV-E describes is handled
        per panel instead (see ``panel``).
    panel:
        ``"auto"`` switches from the fused shared-memory kernel to the
        column-wise path when the largest panel no longer fits (the
        architecture-dependent behaviour of §IV-E); ``"fused"`` or
        ``"columnwise"`` force a path (``"fused"`` raises when the panel
        cannot fit).
    laswp_variant:
        ``"rehearsed"`` (default, §IV-F) or ``"looped"``.
    pivot_tol:
        Breakdown threshold as a multiple of ``max|A_i|``: a pivot with
        ``|pivot| < max(tiny, pivot_tol·max|A_i|)`` breaks down.  The
        default ``0.0`` still flags exactly-zero and subnormal pivots
        (dividing by them overflows), matching LAPACK ``info`` semantics.
    static_pivot:
        Replace broken pivots by ``±replace_scale·max|A_i|`` (keeping the
        sign/phase) instead of reporting them in ``info`` — the
        STRUMPACK-style static-pivot recovery; the perturbation count
        and diagnostics land in the returned ``PanelPivots``
        (``n_replaced``, ``min_pivot``, ``growth``).
    replace_scale:
        Replacement magnitude for static pivoting (default
        ``sqrt(eps) ≈ 1.5e-8``, small enough for iterative refinement to
        absorb, large enough that ``1/pivot`` cannot overwhelm it).
    concurrent_swaps:
        The §VI extension: run the *left* row interchanges on the
        device's side stream (:attr:`~repro.device.Device.side_stream`),
        overlapped with the right swaps / TRSM / GEMM of the same
        iteration.  Correct because nothing on the main stream reads
        columns left of the panel again; the side stream waits (via an
        event) for each iteration's panel, whose pivots it consumes.
        Before returning, the caller's stream waits for the last left
        swap (:meth:`~repro.device.Device.wait_event`), so the factors
        are complete for whatever it launches next.
    engine:
        Host execution path: ``"bucketed"`` (default — plan-cached,
        shape-bucketed vectorized launch bodies), ``"naive"``/``None``
        (the per-matrix reference loops), or a shared
        :class:`~repro.batched.engine.BatchEngine`.  Both paths produce
        bitwise-identical factors, pivots and simulated costs; only host
        wall-clock differs.  One plan cache is created per call and
        reused by every panel iteration.

    Returns
    -------
    PanelPivots
        Per-matrix pivot vectors and LAPACK-style ``info`` codes.
    """
    if panel not in ("auto", "fused", "columnwise"):
        raise ValueError(f"unknown panel mode {panel!r}")
    if not isinstance(nb, int) or nb < 1:
        raise ValueError("panel width must be a positive integer")
    engine = resolve_engine(engine)

    kmax = batch.max_min_mn
    if kmax == 0 or len(batch) == 0:
        return PanelPivots(batch, pivot_tol=pivot_tol,
                           static_pivot=static_pivot,
                           replace_scale=replace_scale)

    m_req = batch.max_m
    n_req = batch.max_n
    main = stream if stream is not None else 0
    side = device.side_stream if concurrent_swaps else None
    pivots = None

    def run() -> PanelPivots:
        # per-run pivot state from the current values: built on the
        # first run, reset on an ABFT re-execution
        nonlocal pivots
        if pivots is None:
            pivots = PanelPivots(batch, pivot_tol=pivot_tol,
                                 static_pivot=static_pivot,
                                 replace_scale=replace_scale)
        else:
            pivots.reset(_batch_abs_max(batch))

        for j in range(0, kmax, nb):
            ib = min(nb, kmax - j)

            # -- 1. panel ----------------------------------------------
            _factor_panel(device, batch, pivots, j, ib, panel=panel,
                          laswp_variant=laswp_variant, stream=stream,
                          engine=engine)

            # -- 2. row interchanges outside the panel ------------------
            if j > 0:
                if side is not None:
                    after_panel = device.record_event(stream=main)
                    irr_laswp(device, batch, pivots, j, ib, "left",
                              variant=laswp_variant, stream=side,
                              wait_events=[after_panel], engine=engine)
                else:
                    irr_laswp(device, batch, pivots, j, ib, "left",
                              variant=laswp_variant, stream=stream,
                              engine=engine)
            if n_req > j + ib:
                irr_laswp(device, batch, pivots, j, ib, "right",
                          variant=laswp_variant, stream=stream,
                          engine=engine)

                # -- 3. update the upper factor (unit-lower solve) -------
                irr_trsm(device, "L", "L", "N", "U", ib, n_req - j - ib,
                         1.0, batch, (j, j), batch, (j, j + ib),
                         stream=stream, engine=engine)

                # -- 4. trailing-matrix rank-ib update -------------------
                if m_req > j + ib:
                    irr_gemm(device, "N", "N", m_req - j - ib,
                             n_req - j - ib, ib, -1.0, batch, (j + ib, j),
                             batch, (j, j + ib), 1.0,
                             batch, (j + ib, j + ib), stream=stream,
                             engine=engine)

        if side is not None and kmax > nb:
            # join: L is final only once the last left swap has run
            device.wait_event(main, device.record_event(stream=side))

        # Element growth factor max|LU| / max|A|, a stability diagnostic
        # surfaced with the pivots.  Computed on the host after the last
        # launch (engine-independent, so both engines report identical
        # diagnostics); the guarded divide keeps empty matrices at 1.0.
        ctrl = pivots.ctrl
        np.divide(_batch_abs_max(batch), ctrl.anorm, out=ctrl.growth,
                  where=ctrl.anorm > 0.0)
        return pivots

    if not device.verify_kernels:
        return run()
    # ABFT: verify P^T.L.(U.w) = A0.w over the final packed factors and
    # re-factorize from the input snapshot on mismatch — the coarse
    # re-execution rung that covers the panel kernels, which have no
    # per-launch checksum of their own.
    return verified_getrf(device, batch, run)


#: sub-panel width below which the column-wise path is used when even the
#: recursion cannot make the fused kernel fit.
MIN_FUSED_WIDTH = 8


def _factor_panel(device: Device, batch: IrrBatch, pivots: PanelPivots,
                  j: int, ib: int, *, panel: str, laswp_variant: str,
                  stream, engine=None) -> None:
    """Factor the panel at global column ``j``, width ``ib``.

    ``panel="auto"`` is the shared-memory-adaptive path of §IV-E, extended
    with the *recursive* splitting the expanded interface makes possible
    (§IV-A: "the new interface ... also enables recursive algorithms"):
    when the largest panel does not fit in shared memory, the panel is
    split in halves — factor the left half, propagate its pivots to the
    right half (windowed irrLASWP), solve and update the right half
    (irrTRSM + irrGEMM restricted to the panel), factor it, and propagate
    its pivots back to the left half.  Only scalar offsets move; no
    pointer-arithmetic kernels run.
    """
    if panel == "columnwise":
        columnwise_getf2(device, batch, pivots, j, ib, stream=stream)
        return
    fits = panel_shared_bytes(batch.max_m, j, ib, batch.itemsize) <= \
        device.spec.max_shared_per_block
    if fits or panel == "fused":
        fused_getf2(device, batch, pivots, j, ib, stream=stream,
                    engine=engine)
        return
    if ib <= MIN_FUSED_WIDTH:
        columnwise_getf2(device, batch, pivots, j, ib, stream=stream)
        return

    ib1 = ib // 2
    ib2 = ib - ib1
    m_req = batch.max_m
    _factor_panel(device, batch, pivots, j, ib1, panel=panel,
                  laswp_variant=laswp_variant, stream=stream, engine=engine)
    # first-half pivots -> right half of this panel only
    irr_laswp(device, batch, pivots, j, ib1, (j + ib1, j + ib),
              variant=laswp_variant, stream=stream, engine=engine)
    irr_trsm(device, "L", "L", "N", "U", ib1, ib2, 1.0,
             batch, (j, j), batch, (j, j + ib1), stream=stream,
             engine=engine)
    if m_req > j + ib1:
        irr_gemm(device, "N", "N", m_req - j - ib1, ib2, ib1, -1.0,
                 batch, (j + ib1, j), batch, (j, j + ib1), 1.0,
                 batch, (j + ib1, j + ib1), stream=stream, engine=engine)
    _factor_panel(device, batch, pivots, j + ib1, ib2, panel=panel,
                  laswp_variant=laswp_variant, stream=stream, engine=engine)
    # second-half pivots -> left half of this panel
    irr_laswp(device, batch, pivots, j + ib1, ib2, (j, j + ib1),
              variant=laswp_variant, stream=stream, engine=engine)


def lu_reconstruct(factored: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """Rebuild ``A`` from packed LU factors and pivots (test utility).

    Applies the row interchanges in reverse to ``L·U``, undoing
    ``P·A = L·U``.
    """
    m, n = factored.shape
    k = min(m, n)
    lower = np.tril(factored[:, :k], -1) + np.eye(m, k, dtype=factored.dtype)
    upper = np.triu(factored[:k, :])
    a = lower @ upper
    apply_interchanges(a, ipiv[:k], reverse=True)
    return a


def lu_solve_factored(factored: np.ndarray, ipiv: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve ``A·x = b`` from packed square LU factors (test utility)."""
    import scipy.linalg as sla

    n = factored.shape[0]
    x = np.array(b, dtype=np.result_type(factored.dtype, np.asarray(b).dtype),
                 copy=True)
    if x.ndim == 1:
        x = x[:, None]
    apply_interchanges(x, ipiv[:n])
    x = sla.solve_triangular(factored, x, lower=True, unit_diagonal=True,
                             check_finite=False)
    x = sla.solve_triangular(factored, x, lower=False, check_finite=False)
    return x if np.ndim(b) == 2 else x[:, 0]
