"""Reference CPU multifrontal LU (postorder traversal, LAPACK blocks).

The numerical ground truth the GPU backends are tested against, and the
"CPU, 16 OpenMP threads" row of Table I.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ...batched.laswp import apply_interchanges
from ...batched.panel import PivotControl, factor_panel_block
from ...errors import FactorizationError
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors, assemble_front
from .report import finish_factors

__all__ = ["multifrontal_factor_cpu", "factor_front_blocks"]


def factor_front_blocks(F: np.ndarray, s: int, *,
                        pivot_tol: float = 0.0, static_pivot: bool = False,
                        replace_scale: float | None = None,
                        raise_on_breakdown: bool = True
                        ) -> tuple[FrontFactors, np.ndarray]:
    """Partial LU of a dense front: factor the leading s×s block, update.

    Returns the stored factors and the trailing Schur complement.
    Pivoting is restricted to the pivot block; a pivot with magnitude
    below ``max(tiny, pivot_tol·max|F11|)`` breaks down.  With
    ``static_pivot=True`` broken pivots are replaced by
    ``±replace_scale·max|F11|`` and counted; an *unrecovered* breakdown
    raises a :class:`~repro.errors.FactorizationError` (the MC64 /
    static-pivoting combination is the paper's answer to that), or — with
    ``raise_on_breakdown=False`` — records ``info`` on the returned
    factors, zeroes ``f12``/``f21`` and returns a zero Schur complement
    so the caller can keep traversing without meeting Inf/NaN.
    """
    nf = F.shape[0]
    f11 = F[:s, :s]
    ipiv = np.arange(s, dtype=np.int64)
    info = np.zeros(1, dtype=np.int64)
    anorm = float(np.max(np.abs(f11))) if f11.size else 0.0
    ctrl = PivotControl(np.array([anorm]), F.dtype, pivot_tol=pivot_tol,
                        static_pivot=static_pivot,
                        replace_scale=replace_scale)
    factor_panel_block(f11, s, ipiv, info, 0, 0, ctrl=ctrl)
    growth = 1.0
    if f11.size and anorm > 0.0:
        growth = float(np.max(np.abs(f11))) / anorm
    if info[0] != 0:
        if raise_on_breakdown:
            raise FactorizationError(
                f"zero pivot (or |pivot| below threshold) at position "
                f"{int(info[0])} in a frontal matrix — re-factor with "
                "static_pivot=True (or MC64 scaling) to recover")
        # Quarantine: zeroed off-diagonal blocks and Schur complement
        # keep the rest of the traversal finite and warning-free.
        fac = FrontFactors(
            f11=f11.copy(), ipiv=ipiv, f12=np.zeros_like(F[:s, s:]),
            f21=np.zeros_like(F[s:, :s]), info=int(info[0]),
            n_replaced=int(ctrl.n_replaced[0]),
            min_pivot=float(ctrl.min_pivot[0]), growth=growth)
        return fac, np.zeros_like(F[s:, s:])
    f12 = F[:s, s:]
    f21 = F[s:, :s]
    if nf > s and s > 0:
        # apply the pivot-block row interchanges to F12
        apply_interchanges(f12, ipiv[:s])
        f12[...] = sla.solve_triangular(f11, f12, lower=True,
                                        unit_diagonal=True,
                                        check_finite=False)
        f21[...] = sla.solve_triangular(f11.T, f21.T, lower=True,
                                        unit_diagonal=False,
                                        check_finite=False).T
        schur = F[s:, s:] - f21 @ f12
    else:
        # s == 0 (an empty separator from a disconnected bisection) must
        # pass the assembled child contributions through unchanged.
        schur = np.array(F[s:, s:], copy=True)
    return FrontFactors(f11=f11.copy(), ipiv=ipiv, f12=f12.copy(),
                        f21=f21.copy(), info=0,
                        n_replaced=int(ctrl.n_replaced[0]),
                        min_pivot=float(ctrl.min_pivot[0]),
                        growth=growth), schur


def multifrontal_factor_cpu(a_perm: sp.spmatrix,
                            symb: SymbolicFactorization, *,
                            pivot_tol: float = 0.0,
                            static_pivot: bool = False,
                            replace_scale: float | None = None,
                            breakdown: str = "raise"
                            ) -> MultifrontalFactors:
    """Factor the permuted sparse matrix front by front (postorder).

    Pivot breakdown handling mirrors the GPU path: every front records
    ``(info, n_replaced, min_pivot, growth)`` diagnostics, aggregated
    into the returned factors' :class:`FactorReport`.
    ``breakdown="raise"`` (default) raises a typed
    :class:`~repro.errors.FactorizationError` carrying the report when
    any front broke down un-recovered; ``breakdown="report"`` returns
    the (quarantined) factors with ``report.ok == False`` instead.
    A nonzero that no front gathers raises :class:`ValueError`
    (:meth:`~repro.sparse.symbolic.analysis.AssemblyMap.conform`).
    """
    if breakdown not in ("raise", "report"):
        raise ValueError(f"unknown breakdown mode {breakdown!r}")
    a_perm = symb.assembly.conform(a_perm)
    schur: list[tuple[np.ndarray, np.ndarray] | None] = \
        [None] * len(symb.fronts)
    out = MultifrontalFactors(symb=symb)

    for fid, info in enumerate(symb.fronts):
        contribs = []
        for c in info.children:
            contribs.append(schur[c])
            schur[c] = None
        F = assemble_front(a_perm, info, [x for x in contribs if x])
        fac, S = factor_front_blocks(
            F, info.sep_size, pivot_tol=pivot_tol,
            static_pivot=static_pivot, replace_scale=replace_scale,
            raise_on_breakdown=False)
        out.fronts.append(fac)
        if info.parent >= 0:
            schur[fid] = (S, info.upd)
    return finish_factors(out, pivot_tol=pivot_tol,
                          static_pivot=static_pivot,
                          replace_scale=replace_scale, breakdown=breakdown)
