"""irrGETRS — batched solve from irrLU factors.

Completes the LAPACK pairing (``getrf`` + ``getrs``) on irregular
batches: given the packed factors and pivots produced by
:func:`~repro.batched.getrf.irr_getrf` and a batch of right-hand sides
(each with its own count of columns), solve every system with three
launched phases — a pivot-application kernel, the unit-lower irrTRSM and
the upper irrTRSM.  This is the composition the paper's Fig 14 calls
GETRS ("2×TRSM + LASWP") — here built from the irr kernels instead of
the vendor loop.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost
from ..device.simulator import Device
from ..errors import FactorizationError
from .engine import resolve_engine
from .interface import IrrBatch
from .panel import PanelPivots
from .trsm import irr_trsm

__all__ = ["irr_getrs", "PivotView"]


class PivotView:
    """The pivot surface :func:`irr_getrs` reads (``ipiv`` + ``info``),
    for factors whose pivots come from elsewhere than one
    :class:`PanelPivots` — a sub-batch of one, or host-held handles."""

    def __init__(self, ipiv: list, info: np.ndarray):
        self.ipiv = ipiv
        self.info = info


def _check_info(pivots) -> None:
    if np.any(pivots.info != 0):
        bad = np.nonzero(pivots.info != 0)[0]
        raise FactorizationError(
            f"cannot solve from broken-down LU factors: matrices "
            f"{bad.tolist()} reported an unrecovered pivot breakdown "
            "(pivots.info != 0); re-factor with static_pivot=True or "
            "pass check_info=False")


def irr_getrs(device: Device, factored: IrrBatch, pivots: PanelPivots,
              rhs: IrrBatch, *, trans: str = "N", stream=None,
              engine="bucketed", check_info: bool = True) -> None:
    """Solve ``A_i·X_i = B_i`` in place in ``rhs`` for every matrix.

    ``factored`` holds the packed LU of square matrices; ``rhs`` the
    right-hand sides (``rhs.m_vec`` must match ``factored.m_vec``; column
    counts may differ per matrix).  Only ``trans='N'`` is supported (the
    transposed solve is a trivial composition left to the caller).

    ``check_info=True`` (default) refuses factors whose ``pivots.info``
    reports an unrecovered pivot breakdown with a typed
    :class:`~repro.errors.FactorizationError` — substituting through a
    singular ``U`` would silently fill the solutions with Inf/NaN.  Pass
    ``check_info=False`` to reproduce LAPACK ``getrs``, which does not
    re-examine ``info``.

    ``engine`` selects the host execution path (see
    :func:`~repro.batched.engine.resolve_engine`): the bucketed engine
    rehearses every matrix's pivot swaps into one permutation gather and
    plan-caches the TRSM inference; results and costs are bitwise
    identical to the naive loops.
    """
    if trans != "N":
        raise NotImplementedError("only trans='N' is supported")
    if len(factored) != len(rhs):
        raise ValueError("factor and rhs batches must have equal size")
    if check_info:
        device.host_step(lambda: _check_info(pivots))
    if np.any(factored.m_vec != factored.n_vec) or \
            np.any(rhs.m_vec != factored.m_vec):
        for i in range(len(factored)):
            m, n = factored.local_dims(i)
            if m != n:
                raise ValueError(f"matrix {i} is not square ({m}x{n})")
            if int(rhs.m_vec[i]) != m:
                raise ValueError(
                    f"rhs {i} has {int(rhs.m_vec[i])} rows, expected {m}")

    itemsize = rhs.itemsize
    engine = resolve_engine(engine)

    def apply_pivots() -> KernelCost:
        if engine is not None:
            return engine.exec_apply_pivots(rhs, pivots)
        nbytes = 0.0
        blocks = 0
        for i in range(len(rhs)):
            n, k = rhs.local_dims(i)
            if n == 0 or k == 0:
                continue
            b = rhs.matrix(i)
            for r in range(len(pivots.ipiv[i])):
                p = int(pivots.ipiv[i][r])
                if p != r:
                    b[[r, p], :] = b[[p, r], :]
                    nbytes += 4 * k * itemsize
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.3)

    device.launch("irrgetrs:pivots", apply_pivots, stream=stream)
    m_req = factored.max_m
    n_req = rhs.max_n
    irr_trsm(device, "L", "L", "N", "U", m_req, n_req, 1.0,
             factored, (0, 0), rhs, (0, 0), stream=stream,
             name="irrgetrs:ltrsm", engine=engine)
    irr_trsm(device, "L", "U", "N", "N", m_req, n_req, 1.0,
             factored, (0, 0), rhs, (0, 0), stream=stream,
             name="irrgetrs:utrsm", engine=engine)
