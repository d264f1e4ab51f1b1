"""irrTRSM — triangular solves on a nonuniform batch (§IV-D).

Two implementations:

* :func:`irr_trsm` — the paper's contribution: a *recursive* blocked solve
  written entirely against required dimensions and pointer offsets.  The
  host splits the triangular order on a fixed power-of-two grid,
  recursing into the diagonal blocks and turning the off-diagonal block
  into an :func:`irr_gemm`; the base case is a single in-place
  substitution kernel.  Because the expanded interface carries offsets
  as scalars, recursion requires *no* workspace and *no*
  pointer-arithmetic kernels — the property §IV-D credits for making the
  recursive scheme possible on irregular batches.

* :func:`magma_style_trsm` — the MAGMA-2.6.1 baseline the paper compares
  against (Fig 6): explicit inversion of the diagonal blocks so the sweep
  becomes matrix multiplies, computed *out of place* into a workspace and
  copied back.  The explicit inverse costs accuracy (larger backward
  error) and the workspace/copy cost bandwidth — both effects reproduce.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..device.kernel import TILE, KernelCost, gemm_compute_ramp, \
    tile_blocks
from ..device.simulator import Device
from .abft import trsm_check, verified_launch
from .dcwi import Workload, infer_trsm
from .engine import resolve_engine, trsm_base_cost, trsm_base_smem, \
    trsm_base_work, trsm_stream_order
from .gemm import irr_gemm
from .interface import IrrBatch, Offsets

__all__ = ["irr_trsm", "magma_style_trsm", "TRSM_BASE_NB"]

#: default base-case order: at or below it the recursion stops and one
#: substitution kernel holds each whole triangle in shared memory.  A
#: caller may pass a larger ``base_nb`` up to
#: :func:`~repro.batched.engine.trsm_stream_order`, where the streamed
#: base launch still fits in shared memory; the multifrontal
#: factorization and solve do so.
TRSM_BASE_NB = 32

_MAGMA_IB = 16  # diagonal-block size inverted by the MAGMA-style baseline


def _check_args(side: str, uplo: str, trans: str, diag: str) -> None:
    if side not in ("L", "R"):
        raise ValueError(f"invalid side {side!r}")
    if uplo not in ("L", "U"):
        raise ValueError(f"invalid uplo {uplo!r}")
    if trans not in ("N", "T"):
        raise ValueError(f"invalid trans {trans!r}")
    if diag not in ("N", "U"):
        raise ValueError(f"invalid diag {diag!r}")


def _solve_small(t: np.ndarray, b: np.ndarray, side: str, uplo: str,
                 trans: str, diag: str, alpha: float) -> None:
    """In-place reference substitution on one matrix (base-case numerics)."""
    unit = diag == "U"
    lower = (uplo == "L") != (trans == "T")
    tt = t.T if trans == "T" else t
    if side == "L":
        b[...] = sla.solve_triangular(tt, alpha * b, lower=lower,
                                      unit_diagonal=unit, check_finite=False)
    else:
        # X op(T) = alpha B  <=>  op(T)^T X^T = alpha B^T
        x = sla.solve_triangular(tt.T, alpha * b.T, lower=not lower,
                                 unit_diagonal=unit, check_finite=False)
        b[...] = x.T


def _trsm_targets(side: str, m: int, n: int, T: IrrBatch, t_off: Offsets,
                  B: IrrBatch, b_off: Offsets
                  ) -> list[tuple[int, int, int, int]]:
    """``(i, mi, ni, order)`` for every member the base solve writes."""
    targets = []
    for i in range(len(B)):
        mi, ni, cls = infer_trsm(side, m, n, T.local_dims(i), t_off,
                                 B.local_dims(i), b_off)
        if cls is Workload.NONE:
            continue
        targets.append((i, mi, ni, mi if side == "L" else ni))
    return targets


def _base_kernel(device: Device, side: str, uplo: str, trans: str, diag: str,
                 m: int, n: int, alpha: float, T: IrrBatch, t_off: Offsets,
                 B: IrrBatch, b_off: Offsets, stream, kernel_class: str,
                 name: str, eng=None) -> KernelCost:
    """One launch solving every matrix's (DCWI-inferred) triangle: held
    in shared memory up to ``TILE``, streamed from global memory above
    it (:func:`~repro.batched.engine.trsm_base_cost`)."""
    order_req, rhs_req = (m, n) if side == "L" else (n, m)

    def kernel() -> KernelCost:
        if eng is not None:
            return eng.exec_trsm_base(device, side, uplo, trans, diag,
                                      m, n, alpha, T, t_off, B, b_off,
                                      kernel_class, _solve_small)
        orders, rhs = [], []
        for (i, mi, ni, order) in _trsm_targets(side, m, n, T, t_off,
                                                B, b_off):
            t_sub = T.sub(i, t_off[0], t_off[1], order, order)
            b_sub = B.sub(i, b_off[0], b_off[1], mi, ni)
            _solve_small(t_sub, b_sub, side, uplo, trans, diag, alpha)
            orders.append(order)
            rhs.append(ni if side == "L" else mi)
        return trsm_base_cost(device.spec, order_req, rhs_req,
                              trsm_base_work(orders, rhs), B.itemsize,
                              kernel_class, B.peak_scale)

    # Same fault-site / ABFT wiring as irr_gemm: B blocks are the
    # launch's outputs; with verification on, the in-place solve is
    # checked against the pre-solve checksum and re-executed from the
    # snapshot on mismatch.
    def _targets():
        return _trsm_targets(side, m, n, T, t_off, B, b_off)

    if device.verify_kernels:
        check = trsm_check(side, uplo, trans, diag, alpha, T, t_off,
                           B, b_off, _targets())
        return verified_launch(device, name, kernel, check, stream=stream)

    def _outputs():
        return [B.sub(i, b_off[0], b_off[1], mi, ni)
                for (i, mi, ni, _o) in _targets()]

    return device.launch(name, kernel, stream=stream, outputs=_outputs)


def irr_trsm(device: Device, side: str, uplo: str, trans: str, diag: str,
             m: int, n: int, alpha: float,
             T: IrrBatch, t_off: Offsets,
             B: IrrBatch, b_off: Offsets, *,
             stream=None, base_nb: int = TRSM_BASE_NB,
             kernel_class: str = "trsm_irr",
             name: str = "irrtrsm", engine=None) -> None:
    """Recursive nonuniform batched triangular solve, in place in ``B``.

    Solves ``op(T)·X = α·B`` (``side='L'``, ``T`` of required order ``m``)
    or ``X·op(T) = α·B`` (``side='R'``, order ``n``), overwriting ``B``
    with ``X``.  All eight (side, uplo, trans) combinations are supported;
    ``diag='U'`` treats the diagonal as unit (the L factor of an LU).

    An order above ``base_nb`` splits at the largest ``base_nb·2^k``
    strictly below it, not at ``order // 2``.  Every recursion level then
    cuts on one power-of-two grid anchored at the triangle's first row,
    so a member's blocking — the base solves and GEMM updates it sees,
    and their accumulation order — depends on its own order only, never
    on the largest triangle sharing the launch.  Any partition of a
    batch into launches therefore gives every member the same bits,
    which is what lets the serving layer coalesce solves of any orders
    and the sharded factorization split levels across devices without
    losing bitwise parity.  (The §IV-E panel grid is anchored at
    multiples of ``nb`` for the same reason.)

    The base case is one launch with one thread block per matrix per
    32-column tile of ``B``.  Up to ``TILE`` = 32 (the default
    ``base_nb``) each triangle fits in shared memory.  A larger
    ``base_nb`` makes the base launch *stream* a bigger triangle from
    global memory, holding only the block's column tile of ``B`` and
    one diagonal tile in shared memory; a ``base_nb`` whose streamed
    base launch would not fit (above :func:`~repro.batched.engine.
    trsm_stream_order`) raises :class:`ValueError` before any launch.
    Each matrix's triangle is still one LAPACK ``trtrs`` call, so a
    member's bits depend on its own order and ``base_nb`` only.

    ``engine`` selects the host execution path (see
    :mod:`repro.batched.engine`); the base-case numerics stay per-matrix
    in both engines — bucketing only removes inference/accounting
    overhead here and speeds up the off-diagonal irrGEMM updates.
    """
    _check_args(side, uplo, trans, diag)
    engine = resolve_engine(engine)
    if m < 0 or n < 0:
        raise ValueError("required dimensions must be nonnegative")
    if base_nb < 1:
        raise ValueError(f"base_nb must be >= 1, got {base_nb}")
    if len(T) != len(B):
        raise ValueError("T and B batches must have equal batch size")
    order, rhs = (m, n) if side == "L" else (n, m)
    if order == 0 or rhs == 0:
        return
    base = min(order, base_nb)
    if base > TILE and base > trsm_stream_order(device.spec, rhs,
                                                B.itemsize):
        raise ValueError(
            f"base_nb={base_nb}: a streamed base solve of order {base} "
            f"with {rhs} right-hand sides needs "
            f"{trsm_base_smem(base, rhs, B.itemsize)} B of shared memory "
            f"({device.spec.max_shared_per_block} B per block)")

    if order <= base_nb:
        _base_kernel(device, side, uplo, trans, diag, m, n, alpha,
                     T, t_off, B, b_off, stream, kernel_class,
                     f"{name}:base", eng=engine)
        return

    # Split on the base_nb·2^k grid (see the docstring); recurse on the
    # diagonal blocks, GEMM the off-diagonal one.  Offsets move by
    # scalars only.
    n1 = base_nb
    while 2 * n1 < order:
        n1 *= 2
    n2 = order - n1
    ti, tj = t_off
    bi, bj = b_off

    # Whether the "first" diagonal block to solve is the leading one.
    # Side L: forward for (L,N)/(U,T).  Side R mirrors: X·op(T)=B consumes
    # the triangle column-wise, so forward for (U,N)/(L,T).
    if side == "L":
        forward = (uplo == "L") == (trans == "N")
    else:
        forward = (uplo == "U") == (trans == "N")
    # The stored off-diagonal block of T: T21 for lower, T12 for upper.
    off_lower = uplo == "L"
    o_off = (ti + n1, tj) if off_lower else (ti, tj + n1)

    def recurse(which: str, a: float) -> None:
        first = which == "first"
        d_off = (ti, tj) if first else (ti + n1, tj + n1)
        sz = n1 if first else n2
        if side == "L":
            sub_b = (bi, bj) if first else (bi + n1, bj)
            irr_trsm(device, side, uplo, trans, diag, sz, n, a, T, d_off,
                     B, sub_b, stream=stream, base_nb=base_nb,
                     kernel_class=kernel_class, name=name, engine=engine)
        else:
            sub_b = (bi, bj) if first else (bi, bj + n1)
            irr_trsm(device, side, uplo, trans, diag, m, sz, a, T, d_off,
                     B, sub_b, stream=stream, base_nb=base_nb,
                     kernel_class=kernel_class, name=name, engine=engine)

    def update(a: float) -> None:
        """B_other ← a·B_other − op(T_off)·X_solved (or the R-side mirror)."""
        # Effective op(T_off) maps the solved part to the unsolved part.
        # For forward order the unsolved part is the second block.
        opT = trans
        if side == "L":
            if forward:
                c_off2, x_off = (bi + n1, bj), (bi, bj)
                dims = (n2, n, n1)
            else:
                c_off2, x_off = (bi, bj), (bi + n1, bj)
                dims = (n1, n, n2)
            irr_gemm(device, opT, "N", dims[0], dims[1], dims[2], -1.0,
                     T, o_off, B, x_off, a, B, c_off2, stream=stream,
                     kernel_class=kernel_class, name=f"{name}:gemm",
                     engine=engine)
        else:
            if forward:
                c_off2, x_off = (bi, bj + n1), (bi, bj)
                dims = (m, n2, n1)
            else:
                c_off2, x_off = (bi, bj), (bi, bj + n1)
                dims = (m, n1, n2)
            irr_gemm(device, "N", opT, dims[0], dims[1], dims[2], -1.0,
                     B, x_off, T, o_off, a, B, c_off2, stream=stream,
                     kernel_class=kernel_class, name=f"{name}:gemm",
                     engine=engine)

    if forward:
        recurse("first", alpha)
        update(alpha)
        recurse("second", 1.0)
    else:
        recurse("second", alpha)
        update(alpha)
        recurse("first", 1.0)


def magma_style_trsm(device: Device, side: str, uplo: str, trans: str,
                     diag: str, m: int, n: int, alpha: float,
                     T: IrrBatch, t_off: Offsets,
                     B: IrrBatch, b_off: Offsets, *,
                     stream=None, ib: int = _MAGMA_IB,
                     name: str = "magmatrsm") -> None:
    """MAGMA-2.6.1-style vbatched TRSM baseline (Fig 6 comparator).

    Inverts the ``ib × ib`` diagonal blocks of ``T`` explicitly, computes
    the solution *out of place* in a workspace with GEMM sweeps, then
    copies the workspace back over ``B`` — the copy and workspace
    management the paper's profiling identifies as the bottleneck, and the
    explicit inversion that costs backward error.

    Supports the (side='L', trans='N') cases used by the LU update (both
    uplos), which is the configuration Fig 6 benchmarks.
    """
    _check_args(side, uplo, trans, diag)
    if side != "L" or trans != "N":
        raise NotImplementedError(
            "the MAGMA-style baseline reproduces the Fig 6 configuration "
            "(side='L', trans='N') only")
    if m == 0 or n == 0:
        return

    itemsize = B.itemsize
    batch = len(B)

    # Workspace: out-of-place solution X, one per matrix (sized by DCWI).
    works: list[tuple[int, int, int]] = []   # (i, mi, ni)
    for i in range(batch):
        mi, ni, cls = infer_trsm(side, m, n, T.local_dims(i), t_off,
                                 B.local_dims(i), b_off)
        if cls is not Workload.NONE:
            works.append((i, mi, ni))
    wspace = [device.empty((mi, ni), dtype=B.dtype)
              for (_, mi, ni) in works]
    inv_space = [device.empty((mi, min(ib, mi) if mi else 0), dtype=B.dtype)
                 for (_, mi, ni) in works]

    # Kernel 1: explicitly invert the diagonal blocks.
    def invert_kernel() -> KernelCost:
        flops = 0.0
        bytes_rw = 0.0
        blocks = 0
        for w, (i, mi, _ni) in enumerate(works):
            t_sub = T.sub(i, t_off[0], t_off[1], mi, mi)
            for j0 in range(0, mi, ib):
                j1 = min(j0 + ib, mi)
                blk = t_sub[j0:j1, j0:j1]
                if diag == "U":
                    blk = np.tril(blk, -1) + np.eye(j1 - j0) if uplo == "L" \
                        else np.triu(blk, 1) + np.eye(j1 - j0)
                else:
                    blk = np.tril(blk) if uplo == "L" else np.triu(blk)
                # trtri-style explicit inversion (substitution against I):
                # never refuses an ill-conditioned triangle, it just loses
                # accuracy — the behaviour Fig 6 measures.
                inv_space[w].data[j0:j1, :j1 - j0] = sla.solve_triangular(
                    blk, np.eye(j1 - j0), lower=(uplo == "L"),
                    check_finite=False)
                d = j1 - j0
                flops += 2.0 * d ** 3
                bytes_rw += 2.0 * d * d * itemsize
                blocks += 1
        return KernelCost(flops=flops, bytes_read=bytes_rw / 2,
                          bytes_written=bytes_rw / 2, blocks=max(blocks, 1),
                          kernel_class="trsm_magma",
                          compute_ramp=gemm_compute_ramp(ib, ib, ib))

    device.launch(f"{name}:invdiag", invert_kernel, stream=stream)

    # Sweep over diagonal blocks: X_j = invT_jj (alpha B_j - T_j,<j X_<j).
    # Each sweep step is two launches (update GEMM + diag GEMM), matching
    # the MAGMA composition of the solve out of vbatched GEMM calls.
    mmax = max((mi for (_i, mi, _n) in works), default=0)
    forward = uplo == "L"
    steps = list(range(0, mmax, ib))
    if not forward:
        steps = steps[::-1]

    for j0 in steps:
        def step_update(j0=j0) -> KernelCost:
            flops = 0.0
            bytes_rw = 0.0
            blocks = 0
            for w, (i, mi, ni) in enumerate(works):
                if j0 >= mi:
                    continue
                j1 = min(j0 + ib, mi)
                t_sub = T.sub(i, t_off[0], t_off[1], mi, mi)
                b_sub = B.sub(i, b_off[0], b_off[1], mi, ni)
                x = wspace[w].data
                rhs = alpha * b_sub[j0:j1, :]
                if forward and j0 > 0:
                    rhs = rhs - t_sub[j0:j1, :j0] @ x[:j0, :]
                    flops += 2.0 * (j1 - j0) * ni * j0
                elif not forward and j1 < mi:
                    rhs = rhs - t_sub[j0:j1, j1:] @ x[j1:, :]
                    flops += 2.0 * (j1 - j0) * ni * (mi - j1)
                inv = inv_space[w].data[j0:j1, :j1 - j0]
                x[j0:j1, :] = inv @ rhs
                flops += 2.0 * (j1 - j0) ** 2 * ni
                bytes_rw += ((j1 - j0) * (mi + 2 * ni)) * itemsize
                blocks += tile_blocks(1, ni)
            return KernelCost(flops=flops, bytes_read=bytes_rw * 0.7,
                              bytes_written=bytes_rw * 0.3,
                              blocks=max(blocks, 1),
                              kernel_class="trsm_magma",
                              compute_ramp=gemm_compute_ramp(ib, ib, ib))

        device.launch(f"{name}:sweep", step_update, stream=stream)

    # Final kernel: copy the workspace back over B (the overhead the
    # paper's profiler flags, significant for small sizes).
    def copy_back() -> KernelCost:
        nbytes = 0.0
        blocks = 0
        for w, (i, mi, ni) in enumerate(works):
            b_sub = B.sub(i, b_off[0], b_off[1], mi, ni)
            b_sub[...] = wspace[w].data
            nbytes += mi * ni * itemsize
            blocks += 1
        return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                          blocks=max(blocks, 1), kernel_class="swap")

    device.launch(f"{name}:copy", copy_back, stream=stream)

    for w_arr in wspace:
        w_arr.free()
    for w_arr in inv_space:
        w_arr.free()
