"""GPU multifrontal factorization: level-by-level batched fronts (§III-A).

"Our GPU implementation traverses the tree level-by-level, from leaves to
root, using batch algorithms for the dense linear algebra operations (LU,
triangular solve and matrix multiplication) for all fronts on a given
level."

Three kernel strategies, matching the paper's comparisons:

* ``"batched"`` — the paper's contribution: per level, one assembly
  kernel, then irrLU on the pivot blocks, one pivot-application kernel,
  two irrTRSMs and the Schur irrGEMM.  ``gemm_mode`` selects pure
  irrGEMM, a pure vendor-GEMM loop, or the paper's hybrid (irrGEMM for
  fronts ≤ 256, cuBLAS-style loop above — Fig 14).
* ``"looped"`` — the naive comparator: cuSOLVER/cuBLAS called in a loop
  over the fronts of each level.
* ``"strumpack"`` — the STRUMPACK v6.3.1 model: a naive batched kernel
  restricted to pivot blocks ≤ 32×32 (unblocked column-wise, a launch per
  elementary operation), a looped vendor path above, and a stream
  synchronization after every operation — the launch/sync profile
  Table I quotes.

Per-front pointer views (the F11/F12/F21/F22 blocks) are set up *once per
level* on the host, which is exactly what the expanded interface makes
cheap; no pointer-arithmetic kernels run on the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ...batched.engine import resolve_engine
from ...batched.gemm import irr_gemm
from ...batched.getrf import irr_getrf
from ...batched.interface import IrrBatch
from ...batched.trsm import irr_trsm
from ...batched.vendor import vendor_gemm, vendor_getrf, vendor_trsm
from ...device.kernel import KernelCost
from ...device.memory import DeviceArray, DeviceOutOfMemory, \
    validate_memory_budget
from ...device.simulator import Device
from ...errors import CorruptionDetected, FactorizationError, \
    KernelLaunchError, ResourceExhausted
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors
from .report import FactorReport

__all__ = ["multifrontal_factor_gpu", "GpuFactorResult", "plan_traversals",
           "HYBRID_GEMM_CUTOFF", "STRUMPACK_BATCH_LIMIT"]

HYBRID_GEMM_CUTOFF = 256   # Fig 14: irrGEMM below, vendor loop above
STRUMPACK_BATCH_LIMIT = 32

#: Bounded retries of one level transaction after a kernel-launch
#: failure before the failure is treated as persistent.
_MAX_LEVEL_RETRIES = 3
#: Bounded halvings of the out-of-core traversal budget after a dynamic
#: device OOM before the device path is declared exhausted.
_MAX_CHUNK_SHRINKS = 4


@dataclass
class GpuFactorResult:
    """Factors plus the simulated performance of the factorization.

    ``report`` is the per-front pivot-breakdown
    :class:`~repro.sparse.numeric.report.FactorReport` (also attached to
    ``factors.report``); ``breakdown`` is the *performance* breakdown by
    kernel prefix, unrelated to pivot breakdown.
    """

    factors: MultifrontalFactors
    elapsed: float
    counters: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    report: "FactorReport | None" = None


def multifrontal_factor_gpu(device: Device, a_perm: sp.spmatrix,
                            symb: SymbolicFactorization, *,
                            strategy: str = "batched",
                            gemm_mode: str = "hybrid",
                            hybrid_cutoff: int = HYBRID_GEMM_CUTOFF,
                            laswp_variant: str = "rehearsed",
                            nb: int = 32,
                            memory_budget: int | None = None,
                            pivot_tol: float = 0.0,
                            static_pivot: bool = False,
                            replace_scale: float | None = None,
                            breakdown: str = "raise",
                            engine="bucketed",
                            host_fallback: bool = True) -> GpuFactorResult:
    """Factor the permuted sparse matrix on the simulated device.

    ``engine`` selects the host execution path for the batched kernels
    (``"bucketed"`` default / ``"naive"``, see
    :mod:`repro.batched.engine`).  One :class:`BatchEngine` is shared by
    every level of the traversal, so levels with matching front-size
    vectors reuse each other's DCWI plans.  Same-level fronts are highly
    shape-clustered, which is exactly the case shape bucketing rewards.
    The strategies that *model* naive implementations (``"looped"``,
    ``"strumpack"``) always run their reference loops.

    ``memory_budget`` (bytes) enables the paper's §III-A out-of-core
    mode: "if the entire assembly tree does not fit in the device memory,
    then the factorization is split in multiple traversals of subtrees
    that do fit on the device".  Fronts are processed in postorder chunks
    whose working set fits the budget; finished chunks stream their
    factors (and the Schur complements crossing the chunk boundary) back
    to the host, and those Schur blocks are re-uploaded when their parent
    front is assembled.  Raises :class:`DeviceOutOfMemory` if a single
    front cannot fit (a *static* infeasibility — checked eagerly, never
    entering the recovery ladder below).

    Resource recovery: a *dynamic* failure during the traversal — a
    transient allocation failure, a rejected kernel launch, or an OOM
    from the traversal's working set — is retried through a bounded
    ladder: the failing level transaction re-runs from consistent
    inputs, its front batch is split into sub-batches, the traversal
    budget is shrunk (down to the largest-front floor) and the
    factorization restarted, and finally — with ``host_fallback=True``
    (default) — the host path takes over.  Every action is recorded in
    the device's recovery log; the slice belonging to this call is
    attached as ``report.recovery``.  Recovered runs produce factors
    bitwise identical to a fault-free run (host fallback preserves the
    math but not the batched kernels' operation order; a split front
    batch keeps it up to the fused-panel fit, see :func:`_run_level`).
    With ``host_fallback=False`` an exhausted ladder raises a typed
    :class:`~repro.errors.ResourceExhausted` carrying that log.

    ``pivot_tol``/``static_pivot``/``replace_scale`` set the pivot
    breakdown policy of the batched LU (see
    :func:`~repro.batched.getrf.irr_getrf`); every front's
    ``(info, n_replaced, min_pivot, growth)`` diagnostics are aggregated
    into the result's :class:`FactorReport`.  A front whose pivot block
    broke down un-recovered is *quarantined* — its F12/F21 factors and
    Schur complement are zeroed so the extend-add never consumes
    Inf/NaN — and with ``breakdown="raise"`` (default) a typed
    :class:`~repro.errors.FactorizationError` carrying the report is
    raised once the traversal completes; ``breakdown="report"`` returns
    the quarantined factors with ``report.ok == False``.
    """
    return _factor_gpu(
        device, a_perm, symb, None, strategy=strategy, gemm_mode=gemm_mode,
        hybrid_cutoff=hybrid_cutoff, laswp_variant=laswp_variant, nb=nb,
        memory_budget=memory_budget, pivot_tol=pivot_tol,
        static_pivot=static_pivot, replace_scale=replace_scale,
        breakdown=breakdown, engine=engine, host_fallback=host_fallback)


def _factor_gpu(device, a_perm, symb, resident, *, strategy, gemm_mode,
                hybrid_cutoff, laswp_variant, nb, memory_budget, pivot_tol,
                static_pivot, replace_scale, breakdown, engine,
                host_fallback) -> GpuFactorResult:
    """:func:`multifrontal_factor_gpu`; a ``resident`` dict takes over
    the device state of a successful single in-core traversal (see
    :func:`_attempt_factorization`) instead of it being freed."""
    a_perm, a_dev_bytes = check_factor_args(
        a_perm, symb, strategy=strategy, gemm_mode=gemm_mode,
        breakdown=breakdown)
    memory_budget = validate_memory_budget(memory_budget)
    engine = resolve_engine(engine)
    mark = device.recovery_log.mark()

    # Static infeasibility ("largest front needs X bytes") is a contract
    # violation of the requested budget: it raises eagerly, before any
    # recovery is attempted.  The ladder below only shrinks the budget
    # down to the largest-front floor, so the static raise cannot recur.
    itemsize = a_perm.dtype.itemsize
    plan_traversals(symb, memory_budget, itemsize=itemsize)
    floor = max((itemsize * f.order ** 2 for f in symb.fronts), default=0)

    budget = memory_budget
    host_factors = region = failure = None
    n_chunks = 0
    for _round in range(_MAX_CHUNK_SHRINKS + 1):
        try:
            host_factors, region, n_chunks = _attempt_factorization(
                device, a_perm, symb, budget, a_dev_bytes, strategy,
                gemm_mode, hybrid_cutoff, laswp_variant, nb, engine,
                pivot_tol, static_pivot, replace_scale, resident)
            break
        except KernelLaunchError as exc:
            failure = exc       # already retried per level: persistent,
            break               # and a smaller budget cannot fix it
        except DeviceOutOfMemory as exc:
            failure = exc
            if _round >= _MAX_CHUNK_SHRINKS:
                break           # no retry follows: don't log a shrink
            prev = budget if budget is not None \
                else int(device.spec.memory_capacity)
            smaller = max(floor, prev // 2)
            if floor <= 0 or smaller >= prev:
                break           # already at the largest-front floor
            device.recovery_log.record(
                "chunk-shrink", site="gpu_factor",
                detail=f"traversal budget {prev} -> {smaller} bytes")
            if engine is not None:
                engine.clear_plan_caches()
            budget = smaller

    if host_factors is None:
        recovery = device.recovery_log.since(mark)
        if host_fallback:
            device.recovery_log.record(
                "host-fallback", site="gpu_factor",
                detail=f"{type(failure).__name__}: {failure}")
            return _host_fallback_result(
                device, a_perm, symb, mark, pivot_tol=pivot_tol,
                static_pivot=static_pivot, replace_scale=replace_scale,
                breakdown=breakdown)
        raise ResourceExhausted(
            f"device factorization failed after exhausting its recovery "
            f"options ({recovery.summary()})", log=recovery) from failure

    return factor_result(device, symb, host_factors, region, n_chunks,
                         mark, pivot_tol=pivot_tol,
                         static_pivot=static_pivot,
                         replace_scale=replace_scale, breakdown=breakdown)


def check_factor_args(a_perm, symb, *, strategy, gemm_mode,
                      breakdown) -> tuple[sp.csr_matrix, int]:
    """Validate the options every device factorization shares; return
    ``a_perm`` as CSR and the bytes its device copy takes."""
    if strategy not in ("batched", "looped", "strumpack"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if gemm_mode not in ("irr", "vendor", "hybrid"):
        raise ValueError(f"unknown gemm_mode {gemm_mode!r}")
    if breakdown not in ("raise", "report"):
        raise ValueError(f"unknown breakdown mode {breakdown!r}")
    a_perm = sp.csr_matrix(a_perm)
    if a_perm.shape[0] != symb.n:
        raise ValueError("matrix size does not match the symbolic analysis")
    return a_perm, (a_perm.data.nbytes + a_perm.indices.nbytes
                    + a_perm.indptr.nbytes)


def factor_result(device, symb, host_factors, region, n_chunks, mark, *,
                  pivot_tol, static_pivot, replace_scale,
                  breakdown) -> GpuFactorResult:
    """The report-and-result tail of a device factorization: aggregate
    the per-front diagnostics, attach the recovery slice since ``mark``
    and raise on breakdown under ``breakdown="raise"``."""
    out = MultifrontalFactors(symb=symb)
    out.fronts = [host_factors[fid] for fid in range(len(symb.fronts))]

    out.report = FactorReport.from_factors(
        out, pivot_tol=pivot_tol, static_pivot=static_pivot,
        replace_scale=replace_scale)
    out.report.recovery = device.recovery_log.since(mark)
    if breakdown == "raise" and not out.report.ok:
        raise FactorizationError(out.report.summary(), out.report)

    counters = {k: region[k] for k in region if k != "elapsed"}
    counters["traversals"] = n_chunks
    return GpuFactorResult(factors=out, elapsed=region["elapsed"],
                           counters=counters,
                           breakdown=device.profiler.by_prefix(),
                           report=out.report)


def download_fronts(symb, fids, buffers, pivots_of, diag_of,
                    host_factors, host_schur=None, *,
                    release: bool) -> None:
    """Bring finished fronts' factors and diagnostics to the host (the
    Schur blocks a later traversal needs into ``host_schur``);
    ``release`` frees each front's buffer once it is down."""
    fid_set = set(fids)
    for fid in fids:
        info = symb.fronts[fid]
        s = info.sep_size
        data = buffers[fid].to_host()
        d_info, d_rep, d_minp, d_growth = diag_of.get(
            fid, (0, 0, np.inf, 1.0))
        host_factors[fid] = FrontFactors(
            f11=data[:s, :s].copy(), ipiv=pivots_of[fid].copy(),
            f12=data[:s, s:].copy(), f21=data[s:, :s].copy(),
            info=d_info, n_replaced=d_rep, min_pivot=d_minp,
            growth=d_growth)
        if host_schur is not None and info.parent >= 0 \
                and info.parent not in fid_set and info.upd_size:
            host_schur[fid] = data[s:, s:].copy()
        if release:
            buffers.pop(fid).free()


def _attempt_factorization(device, a_perm, symb, memory_budget,
                           a_dev_bytes, strategy, gemm_mode, hybrid_cutoff,
                           laswp_variant, nb, engine, pivot_tol,
                           static_pivot, replace_scale, resident) -> tuple:
    """One full traversal under a given budget; exception-safe accounting.

    Any failure releases every device allocation this attempt made (the
    uploaded A, live front buffers) before propagating, so a failed
    attempt leaves ``device.allocated_bytes`` exactly where it started.
    With a ``resident`` dict, a successful single in-core traversal
    hands its device state over instead — ``buffers``, ``pivots_of``,
    ``diag_of`` and the uploaded-A bytes ``a_dev_bytes`` — to a compiled
    program that replays the traversal on them.
    """
    chunks = plan_traversals(symb, memory_budget,
                             itemsize=a_perm.dtype.itemsize)
    streaming = len(chunks) > 1

    buffers: dict[int, DeviceArray] = {}
    pivots_of: dict[int, np.ndarray] = {}
    diag_of: dict[int, tuple[int, int, float, float]] = {}
    host_schur: dict[int, np.ndarray] = {}
    host_factors: dict[int, FrontFactors] = {}
    kept = False

    # Upload the sparse matrix (outside the timed factorization region,
    # as a solver would hold A on the device already).
    device._claim(a_dev_bytes, site="gpu_factor:a_csr")
    try:
        device._account_transfer(a_dev_bytes)
        with device.timed_region() as region:
            for chunk in chunks:
                for level_fids in _chunk_levels(symb, chunk):
                    _run_level(device, a_perm, symb, level_fids, buffers,
                               pivots_of, strategy, gemm_mode,
                               hybrid_cutoff, laswp_variant, nb,
                               host_schur=host_schur, engine=engine,
                               diag_of=diag_of, pivot_tol=pivot_tol,
                               static_pivot=static_pivot,
                               replace_scale=replace_scale)
                if streaming:
                    # stream the finished traversal back to the host
                    download_fronts(symb, chunk, buffers, pivots_of,
                                    diag_of, host_factors, host_schur,
                                    release=True)
        if not streaming:
            # Factors stayed resident (as a solver keeping them for the
            # solve phase would); download outside the measured region.
            download_fronts(symb, chunks[0], buffers, pivots_of, diag_of,
                            host_factors, release=resident is None)
            if resident is not None:
                resident.update(buffers=buffers, pivots_of=pivots_of,
                                diag_of=diag_of, a_dev_bytes=a_dev_bytes)
                kept = True
        return host_factors, region, len(chunks)
    finally:
        if not kept:
            for arr in buffers.values():
                arr.free()
            device._release(a_dev_bytes)


def _host_fallback_result(device, a_perm, symb, mark, *, pivot_tol,
                          static_pivot, replace_scale,
                          breakdown) -> GpuFactorResult:
    """Terminal rung of the recovery ladder: factor on the host.

    The result carries the same report/recovery surface as a device run
    so callers see one shape either way; simulated device timings are
    zero (no device work succeeded).
    """
    from .cpu_factor import multifrontal_factor_cpu
    try:
        factors = multifrontal_factor_cpu(
            a_perm, symb, pivot_tol=pivot_tol, static_pivot=static_pivot,
            replace_scale=replace_scale, breakdown=breakdown)
    except FactorizationError as exc:
        if exc.report is not None:
            exc.report.recovery = device.recovery_log.since(mark)
        raise
    factors.report.recovery = device.recovery_log.since(mark)
    return GpuFactorResult(factors=factors, elapsed=0.0,
                           counters={"traversals": 0, "host_fallback": 1},
                           breakdown={}, report=factors.report)


def plan_traversals(symb: SymbolicFactorization,
                    memory_budget: int | None, *,
                    itemsize: int = 8) -> list[list[int]]:
    """Split the postorder front sequence into device-sized traversals.

    Greedy: accumulate fronts (postorder, so children precede parents)
    while the chunk working set — its front buffers plus the
    cross-traversal child Schur blocks it must re-upload — fits the
    budget.  With ``memory_budget=None`` everything is one traversal.
    ``itemsize`` is the working precision's bytes per element (8 for
    FP64; FP32 factorizations fit twice the fronts per traversal).
    """
    n = len(symb.fronts)
    if memory_budget is None or n == 0:
        return [list(range(n))]

    front_bytes = [itemsize * f.order ** 2 for f in symb.fronts]
    biggest = max(front_bytes)
    if biggest > memory_budget:
        from ...device.memory import DeviceOutOfMemory
        raise DeviceOutOfMemory(
            f"largest front needs {biggest} bytes but the traversal "
            f"budget is {memory_budget} bytes")

    chunks: list[list[int]] = []
    current: list[int] = []
    current_set: set[int] = set()
    current_bytes = 0
    for fid in range(n):
        need = front_bytes[fid]
        # children factored in an earlier traversal: their Schur blocks
        # come back through the budget during assembly
        for c in symb.fronts[fid].children:
            if c not in current_set:
                need += itemsize * symb.fronts[c].upd_size ** 2
        if current and current_bytes + need > memory_budget:
            chunks.append(current)
            current, current_set, current_bytes = [], set(), 0
            need = front_bytes[fid] + sum(
                itemsize * symb.fronts[c].upd_size ** 2
                for c in symb.fronts[fid].children)
        current.append(fid)
        current_set.add(fid)
        current_bytes += need
    if current:
        chunks.append(current)
    return chunks


def _chunk_levels(symb: SymbolicFactorization,
                  chunk: list[int]) -> list[list[int]]:
    """Group a traversal's fronts by tree level (deepest first)."""
    by_level: dict[int, list[int]] = {}
    for fid in chunk:
        by_level.setdefault(symb.fronts[fid].level, []).append(fid)
    return [by_level[lev] for lev in sorted(by_level, reverse=True)]


# ----------------------------------------------------------------------
# level processing
# ----------------------------------------------------------------------

def _run_level(device, a_perm, symb, fids, buffers, pivots_of, strategy,
               gemm_mode, hybrid_cutoff, laswp_variant, nb, *,
               host_schur=None, engine=None, diag_of=None, pivot_tol=0.0,
               static_pivot=False, replace_scale=None) -> None:
    """Run one level as a transaction: bounded retries, then batch split.

    Level inputs are immutable while the level runs — children buffers
    are only read by the extend-add, and a consumed host Schur block is
    deleted only after the level commits — so a retry re-runs the level
    from identical state and produces bitwise-identical factors.  A
    failed attempt rolls back everything the level allocated or wrote.

    On a transient allocation failure the level is retried once (the
    fault layer's per-operation counters mean a transient rule passes on
    the retry); a second OOM splits the front batch into halves, which
    halves the engine's transient packing footprint (per-front numerics
    are batch-composition independent, the engines' bitwise contract —
    see the note below).
    Kernel-launch failures are retried up to :data:`_MAX_LEVEL_RETRIES`
    times, then treated as persistent.

    Silent-data-corruption escalation: a :class:`CorruptionDetected`
    reaching this level means the ABFT layer's own bounded re-execution
    already failed (the corruption is persistent at kernel scope).  The
    level re-runs once from its immutable inputs (a different launch
    composition after the sub-batching below can dodge positional
    rules), then the front batch is split in halves to *isolate* the
    corrupted front — per-front numerics are batch-composition
    independent, so the clean half commits bitwise-identical factors —
    and a single front that stays corrupted is **quarantined**: zeroed
    factors, identity pivots and the ``info = -2`` corruption sentinel,
    so the damage surfaces in the :class:`FactorReport` as a typed
    per-front failure rather than silently wrong numbers.

    Composition independence has one batch-level exception, the
    fused-panel fit (§IV-E): when the level's largest pivot block is too
    tall for the fused ``irrGETF2`` panel in shared memory, every front
    of the batch takes the recursive panel split sized on that largest
    block, so a sub-batch without it may block its panels differently.
    Every other kernel — irrTRSM included, which blocks each triangle on
    one fixed grid — gives a front the same bits in any batch.
    """
    kw = dict(host_schur=host_schur, engine=engine, diag_of=diag_of,
              pivot_tol=pivot_tol, static_pivot=static_pivot,
              replace_scale=replace_scale)
    launch_failures = alloc_failures = corrupt_failures = 0
    while True:
        try:
            consumed = _factor_level(device, a_perm, symb, fids, buffers,
                                     pivots_of, strategy, gemm_mode,
                                     hybrid_cutoff, laswp_variant, nb, **kw)
        except CorruptionDetected as exc:
            _rollback_level(fids, buffers, pivots_of, diag_of)
            corrupt_failures += 1
            if corrupt_failures < 2:
                device.recovery_log.record(
                    "kernel-reexec", site=f"level[{len(fids)} fronts]",
                    attempt=corrupt_failures, detail=str(exc))
                continue
            if len(fids) > 1:
                half = (len(fids) + 1) // 2
                device.recovery_log.record(
                    "level-split", site=f"level[{len(fids)} fronts]",
                    detail=f"corruption isolation: sub-batches of "
                           f"{half} and {len(fids) - half}")
                _run_level(device, a_perm, symb, fids[:half], buffers,
                           pivots_of, strategy, gemm_mode, hybrid_cutoff,
                           laswp_variant, nb, **kw)
                _run_level(device, a_perm, symb, fids[half:], buffers,
                           pivots_of, strategy, gemm_mode, hybrid_cutoff,
                           laswp_variant, nb, **kw)
                return
            _quarantine_corrupt_front(device, a_perm, symb, fids[0],
                                      buffers, pivots_of, diag_of, exc)
            return
        except (DeviceOutOfMemory, KernelLaunchError) as exc:
            _rollback_level(fids, buffers, pivots_of, diag_of)
            if isinstance(exc, KernelLaunchError):
                launch_failures += 1
                if launch_failures >= _MAX_LEVEL_RETRIES:
                    raise
                device.recovery_log.record(
                    "launch-retry", site=exc.kernel,
                    attempt=launch_failures, detail=str(exc))
                continue
            alloc_failures += 1
            if alloc_failures < 2:
                device.recovery_log.record(
                    "alloc-retry", site=f"level[{len(fids)} fronts]",
                    attempt=alloc_failures, detail=str(exc))
                continue
            if len(fids) <= 1:
                raise               # cannot split a single front
            half = (len(fids) + 1) // 2
            device.recovery_log.record(
                "level-split", site=f"level[{len(fids)} fronts]",
                detail=f"sub-batches of {half} and {len(fids) - half}")
            _run_level(device, a_perm, symb, fids[:half], buffers,
                       pivots_of, strategy, gemm_mode, hybrid_cutoff,
                       laswp_variant, nb, **kw)
            _run_level(device, a_perm, symb, fids[half:], buffers,
                       pivots_of, strategy, gemm_mode, hybrid_cutoff,
                       laswp_variant, nb, **kw)
            return
        else:
            # Commit: only now do consumed cross-traversal Schur blocks
            # leave the host store (they were needed for any retry).
            if host_schur is not None:
                for c in consumed:
                    host_schur.pop(c, None)
            return


#: ``info`` sentinel for a front quarantined after persistent silent
#: data corruption (negative so it can never collide with LAPACK's
#: 1-based breakdown-column codes).
CORRUPT_FRONT_INFO = -2


def _quarantine_corrupt_front(device, a_perm, symb, fid, buffers,
                              pivots_of, diag_of, exc) -> None:
    """Terminal corruption rung for one front: zero it out and flag it.

    The front's buffer is replaced by zeros (its Schur block then
    extend-adds nothing into the parent, keeping ancestors finite and
    *their* factors identical to a run where this front contributed a
    zero update), pivots become the identity, and the diagnostics carry
    :data:`CORRUPT_FRONT_INFO` so the aggregated
    :class:`FactorReport` reports the front as failed — the caller sees
    a typed per-front failure, never silently wrong factors.
    """
    info = symb.fronts[fid]
    buffers[fid] = device.zeros((info.order, info.order),
                                dtype=a_perm.dtype)
    pivots_of[fid] = np.arange(info.sep_size, dtype=np.int64)
    if diag_of is not None:
        diag_of[fid] = (CORRUPT_FRONT_INFO, 0, 0.0, 1.0)
    device.recovery_log.record(
        "front-quarantine", site=f"front[{fid}]",
        detail=f"persistent corruption: {exc}")


def _rollback_level(fids, buffers, pivots_of, diag_of) -> None:
    """Undo a failed level attempt: free its buffers, drop its outputs."""
    for fid in fids:
        arr = buffers.pop(fid, None)
        if arr is not None:
            arr.free()
        pivots_of.pop(fid, None)
        if diag_of is not None:
            diag_of.pop(fid, None)


def _factor_level(device, a_perm, symb, fids, buffers, pivots_of, strategy,
                  gemm_mode, hybrid_cutoff, laswp_variant, nb, *,
                  host_schur=None, engine=None, diag_of=None,
                  pivot_tol=0.0, static_pivot=False,
                  replace_scale=None) -> list[int]:
    infos = [symb.fronts[f] for f in fids]
    for fid, info in zip(fids, infos):
        buffers[fid] = device.empty((info.order, info.order),
                                    dtype=a_perm.dtype)

    def zero_fill() -> None:
        for fid in fids:
            buffers[fid].data[...] = 0.0

    device.host_step(zero_fill)
    consumed = _assemble_level(device, a_perm, symb, fids, buffers,
                               host_schur=host_schur)

    # Children buffers have been consumed by the extend-add; the factor
    # blocks were already harvested... they are still needed for download,
    # so buffers are retained until the end of the factorization.

    if strategy == "batched":
        _level_batched(device, symb, fids, buffers, pivots_of, gemm_mode,
                       hybrid_cutoff, laswp_variant, nb, engine=engine,
                       diag_of=diag_of, pivot_tol=pivot_tol,
                       static_pivot=static_pivot,
                       replace_scale=replace_scale)
    elif strategy == "looped":
        _level_looped(device, symb, fids, buffers, pivots_of,
                      diag_of=diag_of)
    else:
        _level_strumpack(device, symb, fids, buffers, pivots_of,
                         laswp_variant, nb, diag_of=diag_of,
                         pivot_tol=pivot_tol, static_pivot=static_pivot,
                         replace_scale=replace_scale)
    return consumed


def _assemble_level(device, a_perm, symb, fids, buffers, *,
                    host_schur=None) -> list[int]:
    """One kernel: gather A entries + extend-add children Schur blocks.

    Children factored in an earlier traversal (out-of-core mode) have
    their Schur complements on the host; those are re-uploaded first
    (H2D transfers the multi-traversal mode pays for) and used once.
    Returns the consumed child ids — the *caller* deletes them from
    ``host_schur`` once the level commits, so a retried level can
    re-stage them.  Staged uploads are freed on any exit path.
    """
    infos = [symb.fronts[f] for f in fids]

    staged: dict[int, DeviceArray] = {}

    def kernel() -> KernelCost:
        nbytes_r = 0.0
        nbytes_w = 0.0
        blocks = 0
        for fid, info in zip(fids, infos):
            F = buffers[fid].data
            idx = info.indices
            s = info.sep_size
            if info.order == 0:
                continue
            F[:s, :] = a_perm[idx[:s], :][:, idx].toarray()
            if info.upd_size and s:
                F[s:, :s] = a_perm[idx[s:], :][:, idx[:s]].toarray()
            nbytes_w += F.nbytes
            if info.children:
                pos = {int(g): l for l, g in enumerate(idx)}
                for c in info.children:
                    cinfo = symb.fronts[c]
                    cs = cinfo.sep_size
                    if cinfo.upd_size == 0:
                        continue
                    if c in staged:
                        schur = staged[c].data
                    else:
                        schur = buffers[c].data[cs:, cs:]
                    loc = np.array([pos[int(g)] for g in cinfo.upd],
                                   dtype=np.int64)
                    F[np.ix_(loc, loc)] += schur
                    nbytes_r += schur.nbytes
            blocks += 1
        return KernelCost(bytes_read=nbytes_r, bytes_written=nbytes_w,
                          blocks=max(blocks, 1), threads_per_block=256,
                          kernel_class="swap", memory_ramp=0.4)

    try:
        if host_schur:
            for info in infos:
                for c in info.children:
                    if c in host_schur and c not in staged:
                        staged[c] = device.from_host(host_schur[c])
        device.launch("assemble:extend_add", kernel)
    finally:
        for arr in staged.values():
            arr.free()
    return list(staged)


def _make_block_batches(device, symb, fids, buffers):
    """Per-level pointer setup: view batches of F11/F12/F21/F22."""
    s_vec, u_vec = [], []
    v11, v12, v21, v22 = [], [], [], []
    for fid in fids:
        info = symb.fronts[fid]
        s, u = info.sep_size, info.upd_size
        arr = buffers[fid]
        s_vec.append(s)
        u_vec.append(u)
        v11.append(arr[:s, :s])
        v12.append(arr[:s, s:])
        v21.append(arr[s:, :s])
        v22.append(arr[s:, s:])
    s_vec = np.array(s_vec, dtype=np.int64)
    u_vec = np.array(u_vec, dtype=np.int64)
    f11 = IrrBatch(device, v11, s_vec, s_vec)
    f12 = IrrBatch(device, v12, s_vec, u_vec)
    f21 = IrrBatch(device, v21, u_vec, s_vec)
    f22 = IrrBatch(device, v22, u_vec, u_vec)
    return s_vec, u_vec, f11, f12, f21, f22


def _apply_pivots_to_f12(device, f12: IrrBatch, pivots: list[np.ndarray],
                         engine=None) -> None:
    """One kernel: gather-apply each front's pivot swaps to its F12 rows."""

    def kernel() -> KernelCost:
        if engine is not None:
            return engine.exec_apply_pivots_f12(f12, pivots)
        nbytes = 0.0
        blocks = 0
        for i in range(len(f12)):
            s, u = f12.local_dims(i)
            if s == 0 or u == 0:
                continue
            b = f12.arrays[i].data
            for r in range(len(pivots[i])):
                p = int(pivots[i][r])
                if p != r:
                    b[[r, p], :] = b[[p, r], :]
            nbytes += 2 * s * u * f12.itemsize
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.4)

    device.launch("irrlaswp:f12", kernel)


def _sub_batch(device, b: IrrBatch, sel: np.ndarray) -> IrrBatch:
    """View sub-batch over the selected member indices."""
    return IrrBatch(device, [b.arrays[i] for i in sel],
                    b.m_vec[sel], b.n_vec[sel])


def _quarantine_broken(device, bad, *batches) -> None:
    """One kernel: zero the given blocks of broken-down fronts.

    A front whose pivot block reported an unrecovered breakdown holds
    garbage in the columns at and beyond the breakdown; zeroing its
    F12/F21 factors and F22 Schur block keeps the extend-add (and any
    later solve attempt) finite.  Engine-independent, so both engines
    emit the identical launch.
    """

    def kernel() -> KernelCost:
        nbytes = 0.0
        for i in bad:
            for b in batches:
                view = b.matrix(int(i))
                view[...] = 0.0
                nbytes += view.nbytes
        return KernelCost(bytes_written=nbytes, blocks=max(len(bad), 1),
                          threads_per_block=256, kernel_class="swap",
                          memory_ramp=0.4)

    device.launch("breakdown:quarantine", kernel)


def _record_level_diag(diag_of, fids, piv) -> None:
    """Propagate each front's per-matrix pivot diagnostics (satellite of
    the robustness layer: the level loop previously never read
    ``pivots.info``)."""
    if diag_of is None:
        return
    for i, fid in enumerate(fids):
        diag_of[fid] = (int(piv.info[i]), int(piv.n_replaced[i]),
                        float(piv.min_pivot[i]), float(piv.growth[i]))


def _level_batched(device, symb, fids, buffers, pivots_of, gemm_mode,
                   hybrid_cutoff, laswp_variant, nb, *, engine=None,
                   diag_of=None, pivot_tol=0.0, static_pivot=False,
                   replace_scale=None) -> None:
    s_vec, u_vec, f11, f12, f21, f22 = _make_block_batches(
        device, symb, fids, buffers)

    piv = irr_getrf(device, f11, nb=nb, laswp_variant=laswp_variant,
                    pivot_tol=pivot_tol, static_pivot=static_pivot,
                    replace_scale=replace_scale, engine=engine)
    for fid, ip in zip(fids, piv.ipiv):
        pivots_of[fid] = ip
    device.host_step(lambda: _record_level_diag(diag_of, fids, piv))
    _level_offdiag(device, symb, fids, s_vec, u_vec, f11, f12, f21, f22,
                   piv, gemm_mode, hybrid_cutoff, engine=engine)


def _level_offdiag(device, symb, fids, s_vec, u_vec, f11, f12, f21, f22,
                   piv, gemm_mode, hybrid_cutoff, *, engine=None) -> None:
    """The off-diagonal updates of one batched level (everything after
    the pivot-block LU): breakdown gating, pivot application to F12, the
    two TRSMs and the Schur GEMM."""
    smax = int(s_vec.max()) if len(s_vec) else 0
    umax = int(u_vec.max()) if len(u_vec) else 0
    if umax == 0 or smax == 0:
        return

    # Gate broken-down fronts out of the off-diagonal updates: zero their
    # blocks, then run TRSM/GEMM on the clean survivors only.  piv.info
    # is bitwise identical between engines, so the gating (and every
    # downstream launch) is too.
    bad = device.host_step(lambda: np.nonzero(piv.info != 0)[0].tolist())
    piv_list = piv.ipiv
    if len(bad):
        _quarantine_broken(device, bad, f12, f21, f22)
        good = np.setdiff1d(np.arange(len(fids), dtype=np.int64), bad)
        if not len(good):
            return
        s_vec, u_vec = s_vec[good], u_vec[good]
        f11 = _sub_batch(device, f11, good)
        f12 = _sub_batch(device, f12, good)
        f21 = _sub_batch(device, f21, good)
        f22 = _sub_batch(device, f22, good)
        piv_list = [piv.ipiv[int(i)] for i in good]
        smax = int(s_vec.max())
        umax = int(u_vec.max())
        if umax == 0 or smax == 0:
            return

    _apply_pivots_to_f12(device, f12, piv_list, engine=engine)
    irr_trsm(device, "L", "L", "N", "U", smax, umax, 1.0,
             f11, (0, 0), f12, (0, 0), name="irrtrsm:f12", engine=engine)
    irr_trsm(device, "R", "U", "N", "N", umax, smax, 1.0,
             f11, (0, 0), f21, (0, 0), name="irrtrsm:f21", engine=engine)

    if gemm_mode == "irr":
        irr_gemm(device, "N", "N", umax, umax, smax, -1.0, f21, (0, 0),
                 f12, (0, 0), 1.0, f22, (0, 0), name="irrgemm:schur",
                 engine=engine)
    elif gemm_mode == "vendor":
        _vendor_gemm_loop(device, fids, symb, f12, f21, f22,
                          range(len(f12)))
    else:  # hybrid (Fig 14)
        small = [i for i in range(len(f12))
                 if max(s_vec[i], u_vec[i]) <= hybrid_cutoff]
        large = [i for i in range(len(f12))
                 if max(s_vec[i], u_vec[i]) > hybrid_cutoff]
        if small:
            sel = np.array(small, dtype=np.int64)
            irr_gemm(device, "N", "N",
                     int(u_vec[sel].max()), int(u_vec[sel].max()),
                     int(s_vec[sel].max()), -1.0,
                     _sub_batch(device, f21, sel), (0, 0),
                     _sub_batch(device, f12, sel), (0, 0), 1.0,
                     _sub_batch(device, f22, sel), (0, 0),
                     name="irrgemm:schur", engine=engine)
        _vendor_gemm_loop(device, fids, symb, f12, f21, f22, large)


def _vendor_gemm_loop(device, fids, symb, f12, f21, f22, which) -> None:
    for i in which:
        s, u = f12.local_dims(i)
        if s == 0 or u == 0:
            continue
        vendor_gemm(device, "N", "N", -1.0, f21.arrays[i].data,
                    f12.arrays[i].data, 1.0, f22.arrays[i].data,
                    name="cublas_gemm:schur")


def _level_looped(device, symb, fids, buffers, pivots_of, *,
                  diag_of=None) -> None:
    """cuSOLVER/cuBLAS called in a loop over the level's fronts.

    The vendor model has no static-pivot mode (cuSOLVER does not), but
    its ``devInfo`` status is checked per front: a broken-down front is
    quarantined (F12/F21/F22 zeroed, off-diagonal updates skipped) and
    reported through ``diag_of`` instead of feeding garbage onward.
    """
    info_arr = np.zeros(1, dtype=np.int64)
    for fid in fids:
        info = symb.fronts[fid]
        s, u = info.sep_size, info.upd_size
        arr = buffers[fid]
        if s == 0:
            pivots_of[fid] = np.empty(0, dtype=np.int64)
            continue
        info_arr[0] = 0
        ipiv = vendor_getrf(device, arr[:s, :s], info_out=info_arr)
        pivots_of[fid] = ipiv
        if diag_of is not None:
            diag_of[fid] = (int(info_arr[0]), 0, np.inf, 1.0)
        if int(info_arr[0]) != 0:
            if u:
                def zero_blocks(arr=arr, s=s) -> KernelCost:
                    arr.data[:s, s:] = 0.0
                    arr.data[s:, :s] = 0.0
                    arr.data[s:, s:] = 0.0
                    return KernelCost(
                        bytes_written=float(arr.data.nbytes -
                                            s * s * arr.data.itemsize),
                        blocks=1, kernel_class="swap", memory_ramp=0.4)

                device.launch("breakdown:quarantine", zero_blocks)
            continue
        if u == 0:
            continue
        _apply_pivots_single(device, arr.data[:s, s:], ipiv)
        vendor_trsm(device, "L", "L", "N", "U", 1.0, arr.data[:s, :s],
                    arr.data[:s, s:], name="cusolver_trsm:f12")
        vendor_trsm(device, "R", "U", "N", "N", 1.0, arr.data[:s, :s],
                    arr.data[s:, :s], name="cusolver_trsm:f21")
        vendor_gemm(device, "N", "N", -1.0, arr.data[s:, :s],
                    arr.data[:s, s:], 1.0, arr.data[s:, s:],
                    name="cublas_gemm:schur")


def _apply_pivots_single(device, b: np.ndarray, ipiv: np.ndarray) -> None:
    def kernel() -> KernelCost:
        for r in range(len(ipiv)):
            p = int(ipiv[r])
            if p != r:
                b[[r, p], :] = b[[p, r], :]
        return KernelCost(bytes_read=b.nbytes, bytes_written=b.nbytes,
                          blocks=1, kernel_class="swap", memory_ramp=0.3)

    device.launch("laswp:f12", kernel)


def _level_strumpack(device, symb, fids, buffers, pivots_of,
                     laswp_variant, nb, *, diag_of=None, pivot_tol=0.0,
                     static_pivot=False, replace_scale=None) -> None:
    """STRUMPACK v6.3.1 model: naive batch kernels for pivot blocks
    ≤ 32×32, looped vendor calls above, and a synchronization after every
    operation."""
    small = [f for f in fids
             if symb.fronts[f].sep_size <= STRUMPACK_BATCH_LIMIT]
    large = [f for f in fids
             if symb.fronts[f].sep_size > STRUMPACK_BATCH_LIMIT]

    if small:
        s_vec, u_vec, f11, f12, f21, f22 = _make_block_batches(
            device, symb, small, buffers)
        # the naive batch kernel: unblocked, column-wise, a launch per
        # elementary operation (this is what "naive" costs).
        piv = irr_getrf(device, f11, nb=max(1, nb // 4),
                        panel="columnwise", laswp_variant="looped",
                        pivot_tol=pivot_tol, static_pivot=static_pivot,
                        replace_scale=replace_scale)
        device.synchronize()
        for fid, ip in zip(small, piv.ipiv):
            pivots_of[fid] = ip
        _record_level_diag(diag_of, small, piv)
        smax = int(s_vec.max()) if len(s_vec) else 0
        umax = int(u_vec.max()) if len(u_vec) else 0
        if smax and umax:
            bad = np.nonzero(piv.info != 0)[0]
            piv_list = piv.ipiv
            good = np.arange(len(small), dtype=np.int64)
            if len(bad):
                _quarantine_broken(device, bad, f12, f21, f22)
                device.synchronize()
                good = np.setdiff1d(good, bad)
                s_vec, u_vec = s_vec[good], u_vec[good]
                f11 = _sub_batch(device, f11, good)
                f12 = _sub_batch(device, f12, good)
                f21 = _sub_batch(device, f21, good)
                f22 = _sub_batch(device, f22, good)
                piv_list = [piv.ipiv[int(i)] for i in good]
                smax = int(s_vec.max()) if len(s_vec) else 0
                umax = int(u_vec.max()) if len(u_vec) else 0
        if smax and umax and len(good):
            _apply_pivots_to_f12(device, f12, piv_list)
            device.synchronize()
            irr_trsm(device, "L", "L", "N", "U", smax, umax, 1.0,
                     f11, (0, 0), f12, (0, 0), base_nb=8)
            device.synchronize()
            irr_trsm(device, "R", "U", "N", "N", umax, smax, 1.0,
                     f11, (0, 0), f21, (0, 0), base_nb=8)
            device.synchronize()
            irr_gemm(device, "N", "N", umax, umax, smax, -1.0, f21, (0, 0),
                     f12, (0, 0), 1.0, f22, (0, 0), name="irrgemm:schur")
            device.synchronize()

    for fid in large:
        _level_looped(device, symb, [fid], buffers, pivots_of,
                      diag_of=diag_of)
        device.synchronize()
