"""Numerical-quality metrics used across the experiments."""

from __future__ import annotations

import numpy as np

from ..batched.laswp import apply_interchanges

__all__ = ["trsm_backward_error", "lu_backward_error", "relative_residual",
           "max_trsm_backward_error"]


def trsm_backward_error(t: np.ndarray, x: np.ndarray, b: np.ndarray,
                        uplo: str = "L", trans: str = "N",
                        unit_diagonal: bool = False) -> float:
    """The paper's Fig 6 metric: ``max |b − T·x| / |b|`` (∞-norm ratio)."""
    tt = np.tril(t) if uplo == "L" else np.triu(t)
    if unit_diagonal:
        tt = tt.copy()
        np.fill_diagonal(tt, 1.0)
    if trans == "T":
        tt = tt.T
    r = b - tt @ x
    denom = np.abs(b).max()
    if denom == 0.0:
        return float(np.abs(r).max())
    return float(np.abs(r).max() / denom)


def max_trsm_backward_error(ts, xs, bs, **kw) -> float:
    """Maximum backward error across a batch (what Fig 6 plots)."""
    return max((trsm_backward_error(t, x, b, **kw)
                for t, x, b in zip(ts, xs, bs)), default=0.0)


def lu_backward_error(a: np.ndarray, factored: np.ndarray,
                      ipiv: np.ndarray) -> float:
    """``‖P·A − L·U‖_max / ‖A‖_max`` for packed LU factors."""
    m, n = a.shape
    k = min(m, n)
    pa = a.copy()
    apply_interchanges(pa, ipiv[:k])
    lower = np.tril(factored[:, :k], -1) + np.eye(m, k)
    upper = np.triu(factored[:k, :])
    denom = np.abs(a).max()
    num = np.abs(pa - lower @ upper).max()
    return float(num / denom) if denom else float(num)


def relative_residual(a, x, b) -> float:
    """``‖b − A·x‖₂ / ‖b‖₂`` with ``a`` dense, sparse, or a matvec."""
    if callable(a):
        r = b - a(x)
    else:
        r = b - a @ x
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(r) / denom) if denom else \
        float(np.linalg.norm(r))
