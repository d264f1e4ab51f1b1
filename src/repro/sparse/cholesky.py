"""SparseCholesky — the SPD multifrontal variant (Cholmod's niche, §II).

The paper's related work singles out Cholmod as the SPD-only supernodal
solver.  This module is the multifrontal Cholesky counterpart of
:class:`~repro.sparse.solver.SparseLU`, sharing the ordering and symbolic
machinery and swapping the per-front numerics:

* ``F₁₁ = L₁₁·L₁₁ᵀ`` (batched ``irrPOTRF`` on the GPU path),
* ``L₂₁ = F₂₁·L₁₁⁻ᵀ`` (``irrTRSM``, right/lower/transposed),
* ``S = F₂₂ − L₂₁·L₂₁ᵀ`` (``irrGEMM`` in SYRK shape).

No pivoting, no row interchanges — for SPD systems the diagonal pivots
are always safe, which removes the LASWP machinery entirely (the reason
Cholesky fronts batch so well).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ..batched.gemm import irr_gemm
from ..batched.interface import IrrBatch
from ..batched.potrf import NotPositiveDefiniteError, irr_potrf
from ..batched.trsm import irr_trsm
from ..device.simulator import Device
from .numeric.factors import assemble_front
from .numeric.gpu_factor import GpuFactorResult, _assemble_level
from .ordering.nested_dissection import DEFAULT_LEAF_SIZE, nested_dissection
from .solver import SolveInfo
from .symbolic.analysis import SymbolicFactorization, canonical_csr, \
    symbolic_analysis

__all__ = ["SparseCholesky", "CholeskyFactors"]


@dataclass
class CholeskyFactors:
    """Per-front lower factors: ``l11`` (dense lower) and ``l21``."""

    symb: SymbolicFactorization
    l11: list[np.ndarray] = field(default_factory=list)
    l21: list[np.ndarray] = field(default_factory=list)


def _factor_front(F: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """Cholesky-eliminate the leading s×s block of one dense front."""
    try:
        l11 = np.linalg.cholesky(F[:s, :s]) if s else F[:s, :s]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    if F.shape[0] > s and s:
        l21 = sla.solve_triangular(l11, F[s:, :s].T, lower=True,
                                   check_finite=False).T
        schur = F[s:, s:] - l21 @ l21.T
    else:
        l21 = F[s:, :s].copy()
        schur = np.array(F[s:, s:], copy=True)
    return l11, l21, schur


def _factor_cpu(a_perm: sp.csr_matrix,
                symb: SymbolicFactorization) -> CholeskyFactors:
    schur: list = [None] * len(symb.fronts)
    out = CholeskyFactors(symb=symb)
    for fid, info in enumerate(symb.fronts):
        contribs = [schur[c] for c in info.children]
        for c in info.children:
            schur[c] = None
        F = assemble_front(a_perm, info, [x for x in contribs if x])
        l11, l21, S = _factor_front(F, info.sep_size)
        out.l11.append(l11)
        out.l21.append(l21)
        if info.parent >= 0:
            schur[fid] = (S, info.upd)
    return out


def _factor_gpu(device: Device, a_perm: sp.csr_matrix,
                symb: SymbolicFactorization, nb: int
                ) -> tuple[CholeskyFactors, GpuFactorResult]:
    buffers: dict = {}
    with device.timed_region() as region:
        for fids in symb.levels():
            for fid in fids:
                info = symb.fronts[fid]
                buffers[fid] = device.zeros((info.order, info.order),
                                            dtype=a_perm.dtype)
            _assemble_level(device, a_perm, symb, fids, buffers)

            s_vec = np.array([symb.fronts[f].sep_size for f in fids],
                             dtype=np.int64)
            u_vec = np.array([symb.fronts[f].upd_size for f in fids],
                             dtype=np.int64)
            f11 = IrrBatch(device, [buffers[f][:s, :s] for f, s in
                                    zip(fids, s_vec)], s_vec, s_vec)
            f21 = IrrBatch(device, [buffers[f][s:, :s] for f, s in
                                    zip(fids, s_vec)], u_vec, s_vec)
            f22 = IrrBatch(device, [buffers[f][s:, s:] for f, s in
                                    zip(fids, s_vec)], u_vec, u_vec)
            irr_potrf(device, f11, nb=nb)
            smax, umax = int(s_vec.max()), int(u_vec.max())
            if smax and umax:
                irr_trsm(device, "R", "L", "T", "N", umax, smax, 1.0,
                         f11, (0, 0), f21, (0, 0), name="irrpotrf:trsm")
                irr_gemm(device, "N", "T", umax, umax, smax, -1.0,
                         f21, (0, 0), f21, (0, 0), 1.0, f22, (0, 0),
                         name="irrsyrk")

    out = CholeskyFactors(symb=symb)
    for fid, info in enumerate(symb.fronts):
        s = info.sep_size
        data = buffers[fid].to_host()
        out.l11.append(np.tril(data[:s, :s]))
        out.l21.append(data[s:, :s].copy())
        buffers[fid].free()
    counters = {k: region[k] for k in region if k != "elapsed"}
    res = GpuFactorResult(factors=None, elapsed=region["elapsed"],
                          counters=counters,
                          breakdown=device.profiler.by_prefix())
    return out, res


def _solve(factors: CholeskyFactors, b: np.ndarray) -> np.ndarray:
    symb = factors.symb
    x = np.array(b, dtype=np.float64, copy=True)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != symb.n:
        raise ValueError(
            f"right-hand side has {x.shape[0]} rows, expected {symb.n}")
    for fid, info in enumerate(symb.fronts):       # forward: L y = b
        s = info.sep_size
        if s == 0:
            continue
        sl = slice(info.sep_begin, info.sep_end)
        x[sl] = sla.solve_triangular(factors.l11[fid], x[sl], lower=True,
                                     check_finite=False)
        if info.upd_size:
            x[info.upd, :] -= factors.l21[fid] @ x[sl]
    for fid in range(len(symb.fronts) - 1, -1, -1):  # backward: L^T x = y
        info = symb.fronts[fid]
        s = info.sep_size
        if s == 0:
            continue
        sl = slice(info.sep_begin, info.sep_end)
        rhs = x[sl]
        if info.upd_size:
            rhs = rhs - factors.l21[fid].T @ x[info.upd, :]
        x[sl] = sla.solve_triangular(factors.l11[fid].T, rhs, lower=False,
                                     check_finite=False)
    return x[:, 0] if squeeze else x


class SparseCholesky:
    """Multifrontal sparse Cholesky for SPD matrices.

    The same three-phase pipeline as :class:`SparseLU` minus MC64 and
    pivoting (neither is needed for SPD systems).
    """

    def __init__(self, a: sp.spmatrix, *,
                 leaf_size: int = DEFAULT_LEAF_SIZE):
        a = sp.csr_matrix(a).astype(np.float64)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if abs(a - a.T).max() > 1e-10 * max(abs(a).max(), 1e-300):
            raise ValueError("matrix must be symmetric")
        self.a = a
        self.leaf_size = leaf_size
        self._analyzed = False
        self._factored = False
        self.factor_result: GpuFactorResult | None = None

    def analyze(self) -> "SparseCholesky":
        self.nd = nested_dissection(self.a, leaf_size=self.leaf_size)
        self.a_perm = canonical_csr(self.a[self.nd.perm][:, self.nd.perm])
        self.symb = symbolic_analysis(self.a_perm, self.nd)
        self._analyzed = True
        return self

    def factor(self, *, backend: str = "cpu",
               device: Device | None = None, nb: int = 32
               ) -> "SparseCholesky":
        if not self._analyzed:
            self.analyze()
        a_perm = self.symb.assembly.conform(self.a_perm)
        if backend == "cpu":
            self.factors = _factor_cpu(a_perm, self.symb)
            self.factor_result = None
        elif backend == "batched":
            if device is None:
                raise ValueError("backend 'batched' needs a device")
            self.factors, self.factor_result = _factor_gpu(
                device, a_perm, self.symb, nb)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._factored = True
        return self

    def solve(self, b: np.ndarray, *, refine_steps: int = 1
              ) -> tuple[np.ndarray, SolveInfo]:
        if not self._factored:
            raise RuntimeError("factor() must run before solve()")
        b = np.asarray(b, dtype=np.float64)

        def once(rhs):
            z = _solve(self.factors, rhs[self.nd.perm])
            y = np.empty_like(z)
            y[self.nd.perm] = z
            return y

        x = once(b)
        info = SolveInfo()
        denom = float(np.linalg.norm(b)) or 1.0
        info.residuals.append(
            float(np.linalg.norm(b - self.a @ x) / denom))
        for _ in range(refine_steps):
            x = x + once(b - self.a @ x)
            info.residuals.append(
                float(np.linalg.norm(b - self.a @ x) / denom))
        return x, info
