"""Algorithm-based fault tolerance (ABFT) for the irregular batched kernels.

A kernel launch that *completes* but writes wrong bytes — silent data
corruption, the ``corrupt`` fault kind of :mod:`repro.device.faults` —
is invisible to the launch/transfer error machinery.  This module adds
the classic checksum defense: every verified launch group carries
host-side row-checksum vectors (``w = 1``), computed from the operands
at staging, and the algebraic identity each kernel must preserve is
re-checked on the outputs after the launch:

========================  ============================================
``irrGEMM``               ``C·w = α·op(A)·(op(B)·w) + β·(C₀·w)``
``irrTRSM`` (base)        ``op(T)·(X·w) = α·(B₀·w)`` (side ``R``
                          mirrored)
``irrGETRF`` (driver)     ``Pᵀ·L·(U·w) = A₀·w`` over the final packed
                          factors
========================  ============================================

Checks are *O(n²)* per matrix against the kernels' *O(n³)* work, the
standard ABFT cost profile.  Tolerances follow the elementwise
rounding-error bound of the checked product (``O(k·eps)`` times an
absolute-value magnitude checksum computed alongside each value
checksum) times a slack factor; the injected corruption magnitude
(:data:`~repro.device.faults.CORRUPT_MAGNITUDE` × the buffer scale) is
many orders above it, so detection never misses, while fault-free
launches never trip.

On a mismatch the launch group is **re-executed** from snapshots of its
in-place operands — a bounded ``kernel-reexec`` rung recorded in the
device :class:`~repro.recovery.RecoveryLog` — and re-verified; a
mismatch that survives :data:`ABFT_MAX_REEXEC` re-executions is a
persistent fault surfaced as a typed
:class:`~repro.errors.CorruptionDetected` carrying the launch site and
the first offending batch index.  Because re-execution restores the
exact input bytes and the kernels are deterministic, a repaired run is
bitwise-identical to a fault-free run.

Everything here is gated on ``device.verify_kernels`` (enabled
automatically by ``fault_scope`` when the plan carries ``corrupt``
rules): with verification off, no snapshot, checksum or launch changes
happen and every existing path stays byte-for-byte identical.

Members whose factorization broke down (``info != 0``) or took
static-pivot replacements (``n_replaced > 0``) perturb the LU identity
by design; broken members are excluded (they surface through the
breakdown report) and perturbed members are checked against a loose
gross-corruption threshold instead of the rounding bound.
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost
from ..errors import CorruptionDetected

__all__ = ["ABFT_MAX_REEXEC", "verified_launch", "verified_getrf",
           "gemm_check", "trsm_check", "getrf_check"]

#: bounded re-execution budget: a checksum mismatch may trigger at most
#: this many re-executions of its launch group before the corruption is
#: declared persistent and raised as CorruptionDetected.
ABFT_MAX_REEXEC = 2

#: relaxation over the elementwise rounding-error bound; large enough
#: that legitimate O(k·eps) accumulation differences never trip, small
#: enough that a CORRUPT_MAGNITUDE-scaled corruption always does.
_SLACK = 64.0

#: loose absolute-fraction threshold for members whose identity is
#: legitimately perturbed by static-pivot replacement.
_LOOSE_FRAC = 1e-2


def _finfo(dtype):
    return np.finfo(np.dtype(dtype))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Row checksum ``a @ w`` with ``w = 1`` (empty-safe)."""
    if a.size == 0:
        return np.zeros(a.shape[0], dtype=a.dtype)
    return a.sum(axis=1)


def _abs_row_sum(a: np.ndarray) -> np.ndarray:
    """Magnitude checksum ``|a| @ w`` (always real float64)."""
    if a.size == 0:
        return np.zeros(a.shape[0], dtype=np.float64)
    return np.abs(a).sum(axis=1, dtype=np.float64)


def _mismatch(got: np.ndarray, ref: np.ndarray,
              tol: np.ndarray | float) -> bool:
    """True when any checksum element falls outside tolerance.

    Written so non-finite garbage (NaN/Inf written by a corruption, or
    produced downstream of one) always counts as a mismatch.
    """
    err = np.abs(got - ref)
    return bool(np.any(~(err <= tol)))


# ----------------------------------------------------------------------
# per-kernel checks
# ----------------------------------------------------------------------
def _apply_op(a: np.ndarray, trans: str) -> np.ndarray:
    if trans == "N":
        return a
    return a.conj().T if trans == "C" else a.T


class gemm_check:
    """Checksum invariant of one irrGEMM launch.

    Built *before* the launch (snapshots ``C₀`` of every read-modify-
    write block); :meth:`first_bad` verifies the post-launch outputs;
    :meth:`restore` rewinds the in-place operands so the launch can
    re-execute bitwise.
    """

    def __init__(self, transa, transb, alpha, beta, A, a_off, B, b_off,
                 C, c_off, targets):
        self.transa, self.transb = transa, transb
        self.alpha, self.beta = alpha, beta
        self.A, self.a_off = A, a_off
        self.B, self.b_off = B, b_off
        self.C, self.c_off = C, c_off
        self.targets = targets          # [(i, mi, ni, ki)]
        # beta != 0 makes the update read-modify-write: snapshot C0 both
        # for the reference checksum and for bitwise re-execution.
        self.c0 = None
        if beta != 0.0:
            self.c0 = [C.sub(i, c_off[0], c_off[1], mi, ni).copy()
                       for (i, mi, ni, _ki) in self.targets]

    def outputs(self) -> list[np.ndarray]:
        return [self.C.sub(i, self.c_off[0], self.c_off[1], mi, ni)
                for (i, mi, ni, _ki) in self.targets]

    def restore(self) -> int:
        if self.c0 is None:
            return 0
        nbytes = 0
        for (i, mi, ni, _ki), c0 in zip(self.targets, self.c0):
            self.C.sub(i, self.c_off[0], self.c_off[1], mi, ni)[...] = c0
            nbytes += c0.nbytes
        return nbytes

    def first_bad(self) -> int | None:
        eps = _finfo(self.C.dtype).eps
        tiny = _finfo(self.C.dtype).tiny
        for t, (i, mi, ni, ki) in enumerate(self.targets):
            c = self.C.sub(i, self.c_off[0], self.c_off[1], mi, ni)
            got = _row_sum(c)
            if self.beta != 0.0:
                c0 = self.c0[t]
                ref = self.beta * _row_sum(c0)
                mag = abs(self.beta) * _abs_row_sum(c0)
            else:
                ref = np.zeros(mi, dtype=c.dtype)
                mag = np.zeros(mi, dtype=np.float64)
            if ki > 0:
                if self.transa == "N":
                    a_sub = self.A.sub(i, self.a_off[0], self.a_off[1],
                                       mi, ki)
                else:
                    a_sub = self.A.sub(i, self.a_off[0], self.a_off[1],
                                       ki, mi)
                if self.transb == "N":
                    b_sub = self.B.sub(i, self.b_off[0], self.b_off[1],
                                       ki, ni)
                else:
                    b_sub = self.B.sub(i, self.b_off[0], self.b_off[1],
                                       ni, ki)
                opa = _apply_op(a_sub, self.transa)
                opb = _apply_op(b_sub, self.transb)
                ref = ref + self.alpha * (opa @ _row_sum(opb))
                mag = mag + abs(self.alpha) * (
                    np.abs(opa) @ _abs_row_sum(opb))
            tol = _SLACK * eps * (ki + 8) * (mag + _abs_row_sum(c)) \
                + _SLACK * tiny
            if _mismatch(got, ref, tol):
                return i
        return None


def _tri_operator(t: np.ndarray, uplo: str, trans: str, diag: str,
                  absolute: bool = False) -> np.ndarray:
    """The dense operator op(T) a TRSM base solve inverted."""
    tt = np.tril(t) if uplo == "L" else np.triu(t)
    if diag == "U":
        np.fill_diagonal(tt, 1.0)
    if trans == "T":
        tt = tt.T
    elif trans == "C":
        tt = tt.conj().T
    return np.abs(tt) if absolute else tt


class trsm_check:
    """Checksum invariant of one irrTRSM base-case launch.

    The solve is in place in ``B``; ``B₀`` is snapshotted at
    construction for both the reference checksum and bitwise
    re-execution.
    """

    def __init__(self, side, uplo, trans, diag, alpha, T, t_off, B, b_off,
                 targets):
        self.side, self.uplo = side, uplo
        self.trans, self.diag = trans, diag
        self.alpha = alpha
        self.T, self.t_off = T, t_off
        self.B, self.b_off = B, b_off
        self.targets = targets          # [(i, mi, ni, order)]
        self.b0 = [B.sub(i, b_off[0], b_off[1], mi, ni).copy()
                   for (i, mi, ni, _o) in targets]

    def outputs(self) -> list[np.ndarray]:
        return [self.B.sub(i, self.b_off[0], self.b_off[1], mi, ni)
                for (i, mi, ni, _o) in self.targets]

    def restore(self) -> int:
        nbytes = 0
        for (i, mi, ni, _o), b0 in zip(self.targets, self.b0):
            self.B.sub(i, self.b_off[0], self.b_off[1], mi, ni)[...] = b0
            nbytes += b0.nbytes
        return nbytes

    def first_bad(self) -> int | None:
        eps = _finfo(self.B.dtype).eps
        tiny = _finfo(self.B.dtype).tiny
        for t, (i, mi, ni, order) in enumerate(self.targets):
            x = self.B.sub(i, self.b_off[0], self.b_off[1], mi, ni)
            t_sub = self.T.sub(i, self.t_off[0], self.t_off[1],
                               order, order)
            opt = _tri_operator(t_sub, self.uplo, self.trans, self.diag)
            opa = _tri_operator(t_sub, self.uplo, self.trans, self.diag,
                                absolute=True)
            if self.side == "L":
                got = opt @ _row_sum(x)
                mag = opa @ _abs_row_sum(x)
            else:
                got = x @ opt.sum(axis=1) if x.size else \
                    np.zeros(mi, dtype=x.dtype)
                mag = np.abs(x) @ opa.sum(axis=1) if x.size else \
                    np.zeros(mi, dtype=np.float64)
            ref = self.alpha * _row_sum(self.b0[t])
            mag = mag + abs(self.alpha) * _abs_row_sum(self.b0[t])
            tol = _SLACK * eps * (order + 8) * mag + _SLACK * tiny
            if _mismatch(got, ref, tol):
                return i
        return None


def _lu_checksum(fac: np.ndarray, ipiv: np.ndarray,
                 absolute: bool = False) -> np.ndarray:
    """``Pᵀ·L·(U·w)`` over packed factors (``Pᵀ·|L|·(|U|·w)`` when
    ``absolute`` — a magnitude bound on the value checksum)."""
    m, n = fac.shape
    k = min(m, n)
    f = np.abs(fac) if absolute else fac
    uw = _row_sum(np.triu(f[:k, :]))                    # U·w, length k
    y = np.zeros(m, dtype=f.dtype)
    y[:k] = uw                                          # unit diagonal of L
    if k:
        y += np.tril(f[:, :k], -1) @ uw
    for r in range(k - 1, -1, -1):                      # undo P·A = L·U
        p = int(ipiv[r])
        if p != r:
            y[[r, p]] = y[[p, r]]
    return y


class getrf_check:
    """Checksum invariant of one irrGETRF driver call.

    Takes ``snap``, the input matrices as they were before the
    factorization (a snapshot),
    with their checksums ``A₀·w``; verifies ``Pᵀ·L·(U·w) = A₀·w`` over
    the final packed factors in ``batch``.  Broken members
    (``info != 0``) are excluded — they surface through the breakdown
    report, not as corruption; members with static-pivot replacements
    are checked against the loose gross-corruption threshold (their
    identity is perturbed by design).
    """

    def __init__(self, batch, snap: list):
        self.batch = batch
        self.snap = snap
        self.r0 = [_row_sum(s) for s in self.snap]
        self.r0a = [_abs_row_sum(s) for s in self.snap]

    def restore(self) -> int:
        nbytes = 0
        for i, s in enumerate(self.snap):
            self.batch.matrix(i)[...] = s
            nbytes += s.nbytes
        return nbytes

    def first_bad(self, pivots) -> int | None:
        eps = _finfo(self.batch.dtype).eps
        tiny = _finfo(self.batch.dtype).tiny
        for i in range(len(self.batch)):
            m, n = self.batch.local_dims(i)
            k = min(m, n)
            if k == 0 or pivots.info[i] != 0:
                continue
            fac = self.batch.matrix(i)
            got = _lu_checksum(fac, pivots.ipiv[i])
            mag = _lu_checksum(fac, pivots.ipiv[i], absolute=True)
            tol = _SLACK * eps * (k + 8) * (mag + self.r0a[i]) \
                + _SLACK * tiny
            if pivots.n_replaced[i] > 0:
                tol = tol + _LOOSE_FRAC * (mag + self.r0a[i] + 1.0)
            if _mismatch(got, self.r0[i], tol):
                return i
        return None


# ----------------------------------------------------------------------
# bounded re-execution drivers
# ----------------------------------------------------------------------
def verified_launch(device, name, kernel, check, *, stream=None
                    ) -> KernelCost:
    """Launch ``kernel``, verify ``check``, re-execute on mismatch.

    ``check`` supplies the launch's registered outputs, the post-launch
    verification (:meth:`first_bad`) and the operand rewind
    (:meth:`restore`).  Each re-execution restores the in-place
    operands, records a ``kernel-reexec`` event and relaunches the same
    kernel closure — paying launch overhead and kernel time again, like
    a real re-execution; a mismatch surviving the budget raises
    :class:`~repro.errors.CorruptionDetected`.
    """
    for attempt in range(ABFT_MAX_REEXEC + 1):
        cost = device.launch(name, kernel, stream=stream,
                             outputs=check.outputs)
        bad = check.first_bad()
        if bad is None:
            return cost
        if attempt >= ABFT_MAX_REEXEC:
            raise CorruptionDetected(
                name, bad, f"checksum mismatch survived "
                f"{ABFT_MAX_REEXEC} re-execution(s)")
        nbytes = check.restore()
        device.recovery_log.record(
            "kernel-reexec", site=name, attempt=attempt + 1,
            detail=f"checksum mismatch at batch index {bad}; "
                   f"restored {nbytes}B and re-executed")


def verified_getrf(device, batch, run, *, name: str = "irrgetrf"):
    """Run a whole GETRF driver call under factor-checksum verification.

    ``run`` executes the factorization (all its panel/TRSM/GEMM
    launches) and returns fresh ``PanelPivots``.  On a factor-checksum
    mismatch the input batch is restored from the staging snapshot via
    a device-side copy launch and the entire driver re-runs with fresh
    pivot state — the coarse re-execution rung for corruption inside
    launches that have no per-launch check (the fused panel kernel).
    """
    check = getrf_check(batch, [batch.matrix(i).copy()
                                for i in range(len(batch))])
    for attempt in range(ABFT_MAX_REEXEC + 1):
        pivots = run()
        bad = check.first_bad(pivots)
        if bad is None:
            return pivots
        if attempt >= ABFT_MAX_REEXEC:
            raise CorruptionDetected(
                name, bad, f"factor checksum mismatch survived "
                f"{ABFT_MAX_REEXEC} re-execution(s)")
        device.recovery_log.record(
            "kernel-reexec", site=name, attempt=attempt + 1,
            detail=f"factor checksum mismatch at batch index {bad}; "
                   f"restored inputs and re-factorized")

        def restore_kernel() -> KernelCost:
            nbytes = float(check.restore())
            return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                              blocks=max(len(check.snap), 1),
                              kernel_class="swap")

        device.launch(f"{name}:abft-restore", restore_kernel)
