"""Per-front breakdown diagnostics for a multifrontal factorization.

:class:`FactorReport` aggregates the batched layer's per-matrix pivot
diagnostics — ``(info, n_replaced, min_pivot, growth)`` — over every
front of a factorization, grouped by assembly-tree level.  It is
attached to the factors (``MultifrontalFactors.report``), surfaced by
``SparseLU.factor()``, carried by every
:class:`~repro.errors.FactorizationError`, and consulted by the solve
layer to refuse broken factors and to escalate iterative refinement
when pivots were perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import FactorizationError
from ...recovery import RecoveryLog

__all__ = ["FactorReport", "check_factors_ok"]


def check_factors_ok(factors, action: str) -> None:
    """Refuse factors whose report records an unrecovered breakdown.

    Every solve-phase entry point (host sweep, device solve,
    :class:`SolvePlan`, :class:`DeviceFactorCache`) calls this so a
    broken-down factorization can never be substituted through —
    the failed fronts' columns would silently fill the solution with
    garbage.  Factors without a report (comparator baselines) pass.
    """
    report = getattr(factors, "report", None)
    if report is not None and not report.ok:
        raise FactorizationError(
            f"refusing to {action}: {report.summary()} — re-factor with "
            "static_pivot=True (or MC64 scaling) to recover", report)


@dataclass
class FactorReport:
    """Breakdown diagnostics of one multifrontal factorization.

    All arrays are indexed by front id (symbolic postorder):

    * ``info`` — LAPACK-style per-front status: 1-based pivot-block
      column of the first *unrecovered* pivot breakdown, 0 = clean.
      Negative values flag non-numerical damage: ``-2`` marks a front
      quarantined after persistent silent-data-corruption exhausted
      the ABFT re-execution budget (see
      :mod:`repro.sparse.numeric.gpu_factor`).
    * ``n_replaced`` — statically replaced (perturbed) pivots per front.
    * ``min_pivot`` — smallest ``|pivot|`` met in the front's pivot
      block (``+inf`` for an empty pivot block).
    * ``growth`` — element growth factor ``max|LU| / max|F11|``.
    * ``level`` — assembly-tree level of the front (0 = leaves).
    * ``sep_size`` — pivot-block (separator) size of the front.

    ``pivot_tol``/``static_pivot``/``replace_scale`` record the breakdown
    policy the factorization ran under.

    ``recovery`` — filled by the device factorization — is the
    :class:`~repro.recovery.RecoveryLog` slice of every resilience
    action (transfer retries, level retries/splits, chunk shrinks, host
    fallback) taken during this factorization; empty for a clean run,
    ``None`` for paths that never touched a device.
    """

    pivot_tol: float = 0.0
    static_pivot: bool = False
    replace_scale: float | None = None
    info: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    n_replaced: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.int64))
    min_pivot: np.ndarray = field(default_factory=lambda: np.zeros(0))
    growth: np.ndarray = field(default_factory=lambda: np.zeros(0))
    level: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    sep_size: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.int64))
    recovery: RecoveryLog | None = None

    @classmethod
    def from_factors(cls, factors, *, pivot_tol: float = 0.0,
                     static_pivot: bool = False,
                     replace_scale: float | None = None) -> "FactorReport":
        """Collect the per-front diagnostics stored on the factors."""
        symb = factors.symb
        nf = len(factors.fronts)
        level = np.array([inf.level for inf in symb.fronts],
                         dtype=np.int64)[:nf]
        return cls(
            pivot_tol=float(pivot_tol), static_pivot=bool(static_pivot),
            replace_scale=replace_scale,
            info=np.array([f.info for f in factors.fronts],
                          dtype=np.int64),
            n_replaced=np.array([f.n_replaced for f in factors.fronts],
                                dtype=np.int64),
            min_pivot=np.array([f.min_pivot for f in factors.fronts],
                               dtype=np.float64),
            growth=np.array([f.growth for f in factors.fronts],
                            dtype=np.float64),
            level=level,
            sep_size=np.array([inf.sep_size for inf in symb.fronts],
                              dtype=np.int64)[:nf],
        )

    # -- aggregate views ------------------------------------------------
    @property
    def n_fronts(self) -> int:
        return len(self.info)

    @property
    def ok(self) -> bool:
        """True when no front has an unrecovered pivot breakdown."""
        return not np.any(self.info != 0)

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(self.info))

    @property
    def n_perturbed(self) -> int:
        """Number of fronts with at least one replaced pivot."""
        return int(np.count_nonzero(self.n_replaced))

    @property
    def total_replaced(self) -> int:
        return int(self.n_replaced.sum()) if len(self.n_replaced) else 0

    @property
    def max_growth(self) -> float:
        return float(self.growth.max()) if len(self.growth) else 1.0

    def failed_fronts(self) -> np.ndarray:
        """Front ids whose pivot block broke down un-recovered."""
        return np.nonzero(self.info != 0)[0]

    def corrupted_fronts(self) -> np.ndarray:
        """Front ids quarantined for unrepaired silent-data-corruption
        (``info < 0``) — a subset of :meth:`failed_fronts`."""
        return np.nonzero(self.info < 0)[0]

    def perturbed_fronts(self) -> np.ndarray:
        """Front ids with at least one statically replaced pivot."""
        return np.nonzero(self.n_replaced != 0)[0]

    def summary(self) -> str:
        """One-line human-readable digest (used as exception text)."""
        if self.ok:
            head = f"factorization clean over {self.n_fronts} fronts"
        else:
            parts = []
            corrupt = self.corrupted_fronts()
            pivot_bad = np.nonzero(self.info > 0)[0]
            if len(pivot_bad):
                shown = ", ".join(str(int(f)) for f in pivot_bad[:8])
                if len(pivot_bad) > 8:
                    shown += ", ..."
                parts.append(f"pivot breakdown (zero pivot or |pivot| "
                             f"below threshold) in "
                             f"{len(pivot_bad)}/{self.n_fronts} fronts "
                             f"[{shown}]")
            if len(corrupt):
                shown = ", ".join(str(int(f)) for f in corrupt[:8])
                if len(corrupt) > 8:
                    shown += ", ..."
                parts.append(f"persistent corruption quarantined "
                             f"{len(corrupt)}/{self.n_fronts} fronts "
                             f"[{shown}]")
            head = "; ".join(parts)
        tail = (f"{self.total_replaced} pivot(s) statically replaced in "
                f"{self.n_perturbed} front(s)"
                if self.total_replaced else "no pivots replaced")
        finite = self.min_pivot[np.isfinite(self.min_pivot)] \
            if len(self.min_pivot) else np.zeros(0)
        minp = f"{finite.min():.3e}" if len(finite) else "n/a"
        return (f"{head}; {tail}; min |pivot| = {minp}, "
                f"max growth = {self.max_growth:.3e} "
                f"(pivot_tol={self.pivot_tol:g}, "
                f"static_pivot={self.static_pivot})")


def finish_factors(factors, *, pivot_tol: float, static_pivot: bool,
                   replace_scale: float | None, breakdown: str,
                   recovery: RecoveryLog | None = None, store=None):
    """The one epilogue of every multifrontal factorization: attach the
    :class:`FactorReport` of ``factors`` (with ``recovery``, the device
    recovery-log slice of the call, ``None`` off the device) and return
    them.  Under ``breakdown="raise"`` an unrecovered breakdown raises
    :class:`~repro.errors.FactorizationError` carrying the report, after
    releasing ``store``; else the ``store`` (a device factorization's
    solve store) backs the factors."""
    report = FactorReport.from_factors(
        factors, pivot_tol=pivot_tol, static_pivot=static_pivot,
        replace_scale=replace_scale)
    report.recovery = recovery
    factors.report = report
    if breakdown == "raise" and not report.ok:
        if store is not None:
            store.release()
        raise FactorizationError(report.summary(), report)
    if store is not None:
        store.bind(factors)
    return factors
