"""Factor storage shared by the CPU and GPU numeric phases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..symbolic.analysis import SymbolicFactorization

__all__ = ["FrontFactors", "MultifrontalFactors"]


@dataclass
class FrontFactors:
    """Factored blocks of one front.

    ``f11`` holds the packed LU of the pivot block (unit-lower L, U on and
    above the diagonal) with pivot vector ``ipiv`` (pivoting restricted to
    the pivot block, §III-A); ``f12`` is ``L⁻¹·P·F12`` (the U12 block) and
    ``f21`` is ``F21·U⁻¹`` (the L21 block).

    The trailing fields are the front's pivot-breakdown diagnostics (see
    :class:`~repro.sparse.numeric.report.FactorReport`): ``info`` is the
    LAPACK-style 1-based column of the first unrecovered breakdown in the
    pivot block (0 = clean; a failed front stores zeroed ``f12``/``f21``
    so nothing downstream meets Inf/NaN), ``n_replaced`` counts
    statically replaced pivots, ``min_pivot`` is the smallest ``|pivot|``
    met and ``growth`` the element growth factor ``max|LU|/max|F11|``.
    """

    f11: np.ndarray
    ipiv: np.ndarray
    f12: np.ndarray
    f21: np.ndarray
    info: int = 0
    n_replaced: int = 0
    min_pivot: float = np.inf
    growth: float = 1.0


class MultifrontalFactors:
    """All front factors, in the symbolic postorder.

    ``report`` carries the factorization-wide breakdown diagnostics
    (``None`` for factors produced by paths that predate the robustness
    layer, e.g. the comparator baselines).

    A device factorization given a solve store (``store=``) leaves the
    blocks on the device, packed in that
    :class:`~repro.sparse.numeric.solve_plan.DeviceFactorCache`; only
    each front's pivots and diagnostics are on the host.  The first read
    of :attr:`fronts` downloads the blocks, once.  Once the store is
    released without that download, reading :attr:`fronts` raises
    :class:`~repro.errors.FactorsReleased`.
    """

    def __init__(self, symb: SymbolicFactorization,
                 fronts: list[FrontFactors] | None = None,
                 report: "FactorReport | None" = None, *, dtype=None):
        self.symb = symb
        self._fronts = [] if fronts is None else fronts
        self.report = report
        #: the device store still holding some blocks, else ``None``
        self.store = None
        self._dtype = None if dtype is None else np.dtype(dtype)

    @property
    def fronts(self) -> list[FrontFactors]:
        """Every front's blocks on the host (downloaded on first read)."""
        store = self.store      # read once: another thread may clear it
        if store is not None:
            store.download()
            self.store = None
        return self._fronts

    @fronts.setter
    def fronts(self, fronts: list[FrontFactors]) -> None:
        self._fronts = fronts
        self.store = None

    @property
    def dtype(self) -> np.dtype:
        """The working dtype of the blocks (read without a download)."""
        if self._dtype is not None:
            return self._dtype
        return self._fronts[0].f11.dtype if self._fronts \
            else np.dtype(np.float64)

    def pivots(self, fids) -> list[np.ndarray]:
        """The pivot vectors of ``fids``; they are always on the host."""
        return [self._fronts[f].ipiv for f in fids]

    def nnz(self) -> int:
        return sum(f.f11.size + f.f12.size + f.f21.size
                   for f in self.fronts)

    def front(self, fid: int) -> FrontFactors:
        return self.fronts[fid]


def assemble_front(a_perm, info, child_schur: list[tuple[np.ndarray,
                                                         np.ndarray]]
                   ) -> np.ndarray:
    """Build one dense frontal matrix: A entries + children extend-add.

    ``child_schur`` is a list of ``(S, upd_indices)`` contributions; each
    child update index must appear in this front's index set (guaranteed
    by the symbolic analysis).
    """
    idx = info.indices
    nf = info.order
    s = info.sep_size
    F = np.zeros((nf, nf), dtype=a_perm.dtype)
    if nf == 0:
        return F
    # New A entries: rows and columns that touch the separator.
    block = a_perm[idx[:s], :][:, idx].toarray()
    F[:s, :] = block
    if info.upd_size and s:
        F[s:, :s] = a_perm[idx[s:], :][:, idx[:s]].toarray()
    # Extend-add the children's Schur complements.
    if child_schur:
        pos = {int(g): l for l, g in enumerate(idx)}
        for schur, upd in child_schur:
            if len(upd) == 0:
                continue
            loc = np.array([pos[int(g)] for g in upd], dtype=np.int64)
            F[np.ix_(loc, loc)] += schur
    return F
