"""Forward/backward substitution through the assembly tree (phase 3).

Solves ``A_perm · x = b`` from the multifrontal factors: a postorder
forward sweep through the L factors (applying each front's restricted
pivoting), then a reverse sweep through the U factors.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ...batched.laswp import apply_interchanges
from .factors import MultifrontalFactors
from .report import check_factors_ok

__all__ = ["multifrontal_solve"]


def multifrontal_solve(factors: MultifrontalFactors,
                       b: np.ndarray) -> np.ndarray:
    """Solve the permuted system for one or more right-hand sides.

    Factors whose :class:`FactorReport` records an unrecovered pivot
    breakdown are refused with a
    :class:`~repro.errors.FactorizationError`.
    """
    check_factors_ok(factors, "substitute through the host factors")
    symb = factors.symb
    dtype = np.result_type(np.asarray(b).dtype,
                           factors.fronts[0].f11.dtype
                           if factors.fronts else np.float64)
    x = np.array(b, dtype=dtype, copy=True)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != symb.n:
        raise ValueError(
            f"right-hand side has {x.shape[0]} rows, expected {symb.n}")

    # Forward: y = L^{-1} (block-P) b, postorder.
    for fid, info in enumerate(symb.fronts):
        s = info.sep_size
        if s == 0:
            continue
        fac = factors.fronts[fid]
        sl = slice(info.sep_begin, info.sep_end)
        bs = x[sl]
        apply_interchanges(bs, fac.ipiv[:s])
        bs[...] = sla.solve_triangular(fac.f11, bs, lower=True,
                                       unit_diagonal=True,
                                       check_finite=False)
        if info.upd_size:
            x[info.upd, :] -= fac.f21 @ bs

    # Backward: x = U^{-1} y, reverse postorder.
    for fid in range(len(symb.fronts) - 1, -1, -1):
        info = symb.fronts[fid]
        s = info.sep_size
        if s == 0:
            continue
        fac = factors.fronts[fid]
        sl = slice(info.sep_begin, info.sep_end)
        rhs = x[sl]
        if info.upd_size:
            rhs = rhs - fac.f12 @ x[info.upd, :]
        x[sl] = sla.solve_triangular(fac.f11, rhs, lower=False,
                                     check_finite=False)

    return x[:, 0] if squeeze else x
