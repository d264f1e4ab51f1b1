"""Compiled multifrontal level schedules: factor once, replay on
same-structure matrices.

The multifrontal traversal's launch sequence is a pure function of the
symbolic factorization: front shapes, level grouping, DCWI plans and the
assembly index arithmetic never depend on the matrix *values*.  For
applications that re-factor a sequence of matrices sharing one sparsity
structure (time stepping, Newton iterations, parameter sweeps),
:func:`compile_factor_program` runs the first factorization through the
ordinary in-core ``multifrontal_factor_gpu`` traversal (recovery ladder
included) while a :class:`~repro.batched.program.Recorder` captures its
launches and host steps — front zero-fill, pivot-state reset, growth,
per-front diagnostics, breakdown branch — into a :class:`FactorProgram`
that keeps the traversal's front buffers and uploaded-CSR claim.
``program.run(a_perm)`` then only overwrites the CSR payload bytes and
replays: zero plan-cache misses, zero new device allocations,
bitwise-identical factors, pivots, diagnostics and :class:`KernelCost`
records (modulo launch fusion).

A replay follows the rehearsal's branches: a payload whose breakdown
pattern differs raises :class:`~repro.batched.program.GuardTripped`, and
the caller (:meth:`SparseLU.factor`) falls back to the ordinary bucketed
path for it.  A rehearsal the recovery ladder had to repair yields no
program.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...batched.program import CompileError, PayloadMismatch, Recorder, \
    compile_engine, fuse_steps, replay
from ...device.simulator import Device
from ..symbolic.analysis import SymbolicFactorization
from .gpu_factor import HYBRID_GEMM_CUTOFF, GpuFactorResult, _factor_gpu, \
    download_fronts, factor_result

__all__ = ["FactorProgram", "compile_factor_program", "factor_policy",
           "same_structure"]


def factor_policy(*, gemm_mode: str = "hybrid",
                  hybrid_cutoff: int = HYBRID_GEMM_CUTOFF,
                  laswp_variant: str = "rehearsed", nb: int = 32,
                  pivot_tol: float = 0.0, static_pivot: bool = False,
                  replace_scale: float | None = None) -> dict:
    """The numeric keywords of a batched ``multifrontal_factor_gpu``
    call, normalized: a compiled level schedule bakes them in, and a
    replay must match them exactly."""
    return dict(gemm_mode=gemm_mode, hybrid_cutoff=int(hybrid_cutoff),
                laswp_variant=laswp_variant, nb=int(nb),
                pivot_tol=float(pivot_tol), static_pivot=bool(static_pivot),
                replace_scale=None if replace_scale is None
                else float(replace_scale))


def same_structure(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal shape, dtype and sparsity pattern (``indptr``/``indices``)."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


class FactorProgram:
    """A compiled level schedule over one sparse structure.

    Built by :func:`compile_factor_program`.  Holds the uploaded-CSR
    claim and every front buffer for its lifetime; :meth:`run` replays
    the recorded schedule on a same-structure matrix.
    """

    def __init__(self, device: Device, symb: SymbolicFactorization,
                 a_csr: sp.csr_matrix, resident: dict, steps: list,
                 policy: dict):
        self.device = device
        self.symb = symb
        self.a_csr = a_csr                  # .data overwritten per replay
        self.policy = policy
        self.runs = 0
        self._resident = resident           # the traversal's device state
        self._steps = steps
        self._freed = False

    def matches(self, a_perm: sp.spmatrix, policy: dict) -> bool:
        """True when ``a_perm`` shares the compiled structure and the
        factorization policy is identical."""
        return policy == self.policy and sp.issparse(a_perm) and \
            same_structure(sp.csr_matrix(a_perm), self.a_csr)

    def run(self, a_perm: sp.spmatrix, *,
            breakdown: str = "raise") -> GpuFactorResult:
        """Replay the schedule on a same-structure matrix.

        Raises :class:`PayloadMismatch` on a structure/dtype deviation
        and :class:`GuardTripped` when the payload's breakdown pattern
        differs from the rehearsal's.
        """
        if self._freed:
            raise RuntimeError("cannot run a freed FactorProgram")
        a = sp.csr_matrix(a_perm)
        if not same_structure(a, self.a_csr):
            raise PayloadMismatch(
                "matrix does not share the compiled sparse structure "
                "(shape/dtype/indptr/indices)")
        device, res = self.device, self._resident
        mark = device.recovery_log.mark()
        # payload upload: the CSR arrays already live on the device (the
        # claim persists); only the value bytes move.
        self.a_csr.data[...] = a.data
        device._account_transfer(res["a_dev_bytes"])
        with device.timed_region() as region:
            replay(device, self._steps)
        self.runs += 1
        host_factors: dict = {}
        download_fronts(self.symb, range(len(self.symb.fronts)),
                        res["buffers"], res["pivots_of"], res["diag_of"],
                        host_factors, release=False)
        pol = self.policy
        out = factor_result(device, self.symb, host_factors, region, 1,
                            mark, pivot_tol=pol["pivot_tol"],
                            static_pivot=pol["static_pivot"],
                            replace_scale=pol["replace_scale"],
                            breakdown=breakdown)
        out.counters["compiled_replay"] = 1
        return out

    def free(self) -> None:
        """Release the front buffers and the CSR claim (idempotent)."""
        if self._freed:
            return
        self._freed = True
        _release(self.device, self._resident)


def _release(device: Device, resident: dict) -> None:
    for arr in resident["buffers"].values():
        arr.free()
    device._release(resident["a_dev_bytes"])


def compile_factor_program(device: Device, a_perm: sp.spmatrix,
                           symb: SymbolicFactorization, policy: dict, *,
                           breakdown: str = "raise",
                           host_fallback: bool = True, engine=None,
                           fuse: bool = True
                           ) -> tuple["FactorProgram | None",
                                      GpuFactorResult]:
    """Factor ``a_perm`` once while recording the level schedule.

    ``policy`` is a :func:`factor_policy`; ``breakdown`` and
    ``host_fallback`` are ``multifrontal_factor_gpu``'s.  Returns
    ``(program, result)``: the result of this first factorization — the
    ordinary in-core bucketed ``multifrontal_factor_gpu`` call, recovery
    ladder included — plus the compiled program for same-structure
    replays.  ``program`` is ``None`` when the recovery log recorded any
    event during the call (the recorded launches would contain the
    repair) or the traversal did not stay in core; the result is still
    valid.
    """
    eng = compile_engine(engine)
    a_csr = sp.csr_matrix(a_perm).copy()
    if a_csr.shape[0] != symb.n:
        raise CompileError("matrix size does not match the symbolic "
                           "analysis")
    resident: dict = {}
    try:
        with Recorder(device) as rec:
            result = _factor_gpu(
                device, a_csr, symb, resident, strategy="batched",
                memory_budget=None, breakdown=breakdown, engine=eng,
                host_fallback=host_fallback, **policy)
    except BaseException:
        if resident:
            _release(device, resident)
        raise
    if not resident:
        return None, result
    if rec.repaired:
        _release(device, resident)
        return None, result
    steps = fuse_steps(rec.steps) if fuse else rec.steps
    result.counters["compiled"] = 1
    return FactorProgram(device, symb, a_csr, resident, steps,
                         policy), result
