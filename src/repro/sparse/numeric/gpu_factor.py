"""GPU multifrontal factorization: level-by-level batched fronts (§III-A).

"Our GPU implementation traverses the tree level-by-level, from leaves to
root, using batch algorithms for the dense linear algebra operations (LU,
triangular solve and matrix multiplication) for all fronts on a given
level."

Three kernel strategies, matching the paper's comparisons:

* ``"batched"`` — the paper's contribution: per level, one assembly
  kernel, then irrLU on the pivot blocks (left swaps on the device's
  side stream, §VI), one pivot-application kernel, two streamed
  irrTRSMs (F21's on the side stream) and the Schur irrGEMM.
  ``gemm_mode`` selects pure irrGEMM, a pure vendor-GEMM loop, or the
  paper's hybrid (irrGEMM for fronts ≤ 256, cuBLAS-style loop above —
  Fig 14).
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

from ...batched.engine import resolve_engine, trsm_stream_order
from ...batched.gemm import irr_gemm
from ...batched.getrf import irr_getrf
from ...batched.interface import IrrBatch
from ...batched.laswp import apply_interchanges
from ...batched.trsm import TRSM_BASE_NB, irr_trsm
from ...batched.vendor import vendor_gemm, vendor_getrf, vendor_trsm
from ...device.kernel import TILE, KernelCost, tile_blocks
from ...device.memory import DeviceArray, DeviceOutOfMemory, \
    validate_memory_budget
from ...device.simulator import Device
from ...errors import CorruptionDetected, FactorizationError, \
    KernelLaunchError, ResourceExhausted
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors
from .report import FactorReport, finish_factors
from .solve_plan import DeviceFactorCache, pack_level

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
                            memory_budget: int | None = None,
                            pivot_tol: float = 0.0,
                            static_pivot: bool = False,
                            replace_scale: float | None = None,
                            breakdown: str = "raise",
                            engine="bucketed",
                            host_fallback: bool = True,
                            store: DeviceFactorCache | None = None
                            ) -> GpuFactorResult:
    """Factor the permuted sparse matrix on the simulated device.

    ``engine`` selects the host execution path for the batched kernels
    (``"bucketed"`` default / ``"naive"``, see
    :mod:`repro.batched.engine`).  One :class:`BatchEngine` is shared by
    every level of the traversal, so levels with matching front-size
    vectors reuse each other's DCWI plans.  Same-level fronts are highly
    shape-clustered, which is exactly the case shape bucketing rewards.
    The strategies that *model* naive implementations (``"looped"``,
    ``"strumpack"``) always run their reference loops.

    ``a_perm`` is checked against the analysis first
    (:func:`check_factor_args`): a nonzero that no front gathers raises
    :class:`ValueError` before any device work.

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

    ``store`` is an output argument: an empty
    :class:`~repro.sparse.numeric.solve_plan.DeviceFactorCache` on
    ``device``, laid out by a ``SolveLayout`` of ``symb``, with
    ``factors=None``.  A single in-core traversal then packs each
    level's F11/F21/F12 into it device to device once the level's
    parents have assembled, and frees the level's fronts (at most two
    adjacent levels of fronts are alive at once); the returned factors'
    blocks stay in the store until something reads ``factors.fronts``.
    The packs run inside the timed region, so ``elapsed`` includes
    them, and the factors never cross the bus.  Out-of-core runs and
    the host-fallback rung return host factors as without a store.
    Either way the store then backs the returned factors, ready to
    serve solves; a factorization that raises releases it.
    """
    if strategy not in ("batched", "looped", "strumpack"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if gemm_mode not in ("irr", "vendor", "hybrid"):
        raise ValueError(f"unknown gemm_mode {gemm_mode!r}")
    a_perm, a_dev_bytes = check_factor_args(
        a_perm, symb, breakdown=breakdown, store=store, device=device)
    memory_budget = validate_memory_budget(memory_budget)
    engine = resolve_engine(engine)
    mark, seq0 = device.recovery_log.mark(), device.launch_seq

    # Static infeasibility ("largest front needs X bytes") is a contract
    # violation of the requested budget: it raises eagerly, before any
    # recovery is attempted.  The ladder below only shrinks the budget
    # down to the largest-front floor, so the static raise cannot recur.
    itemsize = a_perm.dtype.itemsize
    plan_traversals(symb, memory_budget, itemsize=itemsize)
    floor = max((itemsize * f.order ** 2 for f in symb.fronts), default=0)

    budget = memory_budget
    records = region = failure = None
    n_chunks = 0
    for _round in range(_MAX_CHUNK_SHRINKS + 1):
        try:
            records, region, n_chunks = _attempt_factorization(
                device, a_perm, symb, budget, a_dev_bytes, strategy,
                gemm_mode, engine, pivot_tol, static_pivot, replace_scale,
                store)
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

    if records is None:
        recovery = device.recovery_log.since(mark)
        if host_fallback:
            device.recovery_log.record(
                "host-fallback", site="gpu_factor",
                detail=f"{type(failure).__name__}: {failure}")
            res = _host_fallback_result(
                device, a_perm, symb, mark, pivot_tol=pivot_tol,
                static_pivot=static_pivot, replace_scale=replace_scale,
                breakdown=breakdown)
            if store is not None:
                store.bind(res.factors)
            return res
        raise ResourceExhausted(
            f"device factorization failed after exhausting its recovery "
            f"options ({recovery.summary()})", log=recovery) from failure

    out = finish_factors(
        MultifrontalFactors(symb, [records[f] for f in
                                   range(len(symb.fronts))],
                            dtype=a_perm.dtype),
        pivot_tol=pivot_tol, static_pivot=static_pivot,
        replace_scale=replace_scale, breakdown=breakdown,
        recovery=device.recovery_log.since(mark), store=store)
    counters = {k: region[k] for k in region if k != "elapsed"}
    counters["traversals"] = n_chunks
    return GpuFactorResult(factors=out, elapsed=region["elapsed"],
                           counters=counters,
                           breakdown=device.profiler.by_prefix(since=seq0),
                           report=out.report)


def check_factor_args(a_perm, symb, *, breakdown, store=None,
                      device=None) -> tuple[sp.csr_matrix, int]:
    """Validate the options every device factorization shares; return
    ``a_perm`` on the analyzed pattern
    (:meth:`~repro.sparse.symbolic.analysis.AssemblyMap.conform`, which
    raises for a nonzero no front gathers) and the bytes its device copy
    takes.  A ``store`` must be a fresh one on ``device``, laid out for
    ``symb``."""
    if breakdown not in ("raise", "report"):
        raise ValueError(f"unknown breakdown mode {breakdown!r}")
    a_csr = sp.csr_matrix(a_perm)
    a_bytes = a_csr.data.nbytes + a_csr.indices.nbytes + a_csr.indptr.nbytes
    a_perm = symb.assembly.conform(a_csr)
    if store is not None and (store.factors is not None
                              or store.layout.symb is not symb
                              or store.device is not device):
        raise ValueError("store must be an empty DeviceFactorCache "
                         "(factors=None) on the factorization's device "
                         "(node[0] on a node), laid out by a "
                         "SolveLayout of this analysis")
    return a_perm, a_bytes


def download_fronts(symb, fids, buffers, records, host_schur=None) -> None:
    """Fill finished fronts' records with their blocks from the device
    (the Schur blocks a later traversal needs into ``host_schur``) and
    free each front's buffer once it is down.  Fronts with no buffer
    left were packed into a store and are skipped."""
    fid_set = set(fids)
    for fid in fids:
        if fid not in buffers:
            continue
        info = symb.fronts[fid]
        s = info.sep_size
        data = buffers[fid].to_host()
        rec = records[fid]
        rec.f11, rec.f12, rec.f21 = (data[:s, :s].copy(),
                                     data[:s, s:].copy(),
                                     data[s:, :s].copy())
        if host_schur is not None and info.parent >= 0 \
                and info.parent not in fid_set and info.upd_size:
            host_schur[fid] = data[s:, s:].copy()
        buffers.pop(fid).free()


def factor_levels(device, symb, fids, run_level, buffers, records,
                  store=None, shares=None) -> None:
    """Factor ``fids`` level by level, deepest first, through
    ``run_level(level_fids)``, whose kernels write each front's one
    :class:`FrontFactors` record into ``records``: its pivots and
    diagnostics.  The record's blocks start empty; :func:`download_fronts`
    fills them from the front's buffer, or the store's download does for
    a front :func:`pack_fronts` packed.

    With a ``store``, a level's members whose parents ran here too (or
    that have none) are packed once the next level has committed — a
    retried parent level re-reads the children's Schur blocks, so not
    earlier — and their buffers freed: at most two adjacent levels of
    fronts are alive at once.  See :func:`pack_fronts` for where they
    go.  The other fronts keep their buffers for the caller: members
    whose parent did not run here (their Schur blocks feed it), and
    every front that :func:`pack_fronts` has no place for.
    """
    in_run = set(fids)

    def finished(level_fids) -> None:
        done = [f for f in level_fids if symb.fronts[f].parent < 0
                or symb.fronts[f].parent in in_run]
        if store is not None and done:
            pack_fronts(device, symb, done, buffers, records, store,
                        shares)

    pending = None
    for level_fids in _chunk_levels(symb, fids):
        run_level(level_fids)
        if pending is not None:
            finished(pending)
        pending = level_fids
    if pending is not None:
        finished(pending)


def front_views(symb, buffers, fids) -> dict:
    """Each front's ``(f11, f21, f12)`` views into its front buffer."""
    out = {}
    for f in fids:
        s, arr = symb.fronts[f].sep_size, buffers[f]
        out[f] = (arr[:s, :s], arr[s:, :s], arr[:s, s:])
    return out


def retry_launch(device, fn):
    """Return ``fn()``, retrying a rejected kernel launch like a level
    transaction's (``fn`` must leave nothing behind when it raises)."""
    for attempt in range(1, _MAX_LEVEL_RETRIES + 1):
        try:
            return fn()
        except KernelLaunchError as exc:
            if attempt >= _MAX_LEVEL_RETRIES:
                raise
            device.recovery_log.record("launch-retry", site=exc.kernel,
                                       attempt=attempt, detail=str(exc))


def pack_fronts(device, symb, fids, buffers, records, store,
                shares=None) -> None:
    """Pack finished fronts ``fids`` of one tree level on ``device``.

    They go into ``store`` when it is on ``device`` and ``fids`` are the
    whole tree level (always so on one device); else into a share of the
    level on ``device``, a :class:`~.solve_plan.LevelFactorBlocks`
    appended to ``shares[li]`` that
    :func:`~.shard.multifrontal_factor_sharded` (the one caller that
    passes ``shares``) later merges into the store.  Packed fronts'
    buffers are freed; their records' blocks stay pending in the store,
    except a front without a separator, whose blocks are empty.  A
    rejected pack launch is retried like a level transaction's.
    """
    depth = symb.fronts[fids[0]].level
    whole = len(fids) == len(symb.levels()[-1 - depth])
    li = store.layout.level_of_depth.get(depth)
    if li is not None:
        blocks = front_views(symb, buffers,
                             [f for f in fids if symb.fronts[f].sep_size])
        if store.device is device and whole:
            retry_launch(device, lambda: store.pack(li, blocks))
        else:
            shares.setdefault(li, []).append(retry_launch(
                device, lambda: pack_level(device, store.layout.levels[li],
                                           blocks)))
    for fid in fids:
        info = symb.fronts[fid]
        front = buffers.pop(fid)
        if not info.sep_size:
            u, dt, rec = info.upd_size, front.dtype, records[fid]
            rec.f11, rec.f12, rec.f21 = (np.empty((0, 0), dt),
                                         np.empty((0, u), dt),
                                         np.empty((u, 0), dt))
        front.free()


def _attempt_factorization(device, a_perm, symb, memory_budget,
                           a_dev_bytes, strategy, gemm_mode, engine,
                           pivot_tol, static_pivot, replace_scale,
                           store) -> tuple:
    """One full traversal under a given budget; exception-safe accounting.

    Any failure releases every device allocation this attempt made (the
    uploaded A, live front buffers, levels packed into ``store``)
    before propagating, so a failed attempt leaves
    ``device.allocated_bytes`` exactly where it started.  A single
    in-core traversal packs into ``store`` (see :func:`factor_levels`).
    """
    chunks = plan_traversals(symb, memory_budget,
                             itemsize=a_perm.dtype.itemsize)
    streaming = len(chunks) > 1
    if streaming:
        store = None

    buffers: dict[int, DeviceArray] = {}
    records: dict[int, FrontFactors] = {}
    host_schur: dict[int, np.ndarray] = {}

    def run_level(level_fids) -> None:
        _run_level(device, a_perm, symb, level_fids, buffers, records,
                   strategy, gemm_mode, host_schur=host_schur,
                   engine=engine, pivot_tol=pivot_tol,
                   static_pivot=static_pivot, replace_scale=replace_scale)

    # Upload the sparse matrix (outside the timed factorization region,
    # as a solver would hold A on the device already).
    device._claim(a_dev_bytes, site="gpu_factor:a_csr")
    try:
        device._account_transfer(a_dev_bytes)
        with device.timed_region() as region:
            for chunk in chunks:
                factor_levels(device, symb, chunk, run_level, buffers,
                              records, store)
                if streaming:
                    # stream the finished traversal back to the host
                    download_fronts(symb, chunk, buffers, records,
                                    host_schur)
        if not streaming:
            # Factors stayed resident (as a solver keeping them for the
            # solve phase would); download outside the measured region.
            download_fronts(symb, chunks[0], buffers, records)
        return records, region, len(chunks)
    except BaseException:
        if store is not None:
            store.release()
        raise
    finally:
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

def _run_level(device, a_perm, symb, fids, buffers, records, strategy,
               gemm_mode, *, host_schur=None, dev_schur=None, engine=None,
               pivot_tol=0.0, static_pivot=False,
               replace_scale=None) -> None:
    """Run one level as a transaction: bounded retries, then batch split.

    Level inputs are immutable while the level runs — children buffers
    are only read by the extend-add, and a consumed Schur block, from
    ``host_schur`` or ``dev_schur`` (device arrays on ``device``), is
    dropped (and freed) only after the level commits — so a retry
    re-runs the level from identical state and produces
    bitwise-identical factors.  A failed attempt rolls back everything
    the level allocated or wrote.

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
    Every other kernel gives a front the same bits in any batch: the
    F12/F21 solves block each triangle on one grid whose ``base_nb``
    (:func:`offdiag_base_nb`) is fixed per device and dtype.
    docs/API.md, "Batch-independent blocking", states the contract.
    """
    kw = dict(host_schur=host_schur, dev_schur=dev_schur, engine=engine,
              pivot_tol=pivot_tol, static_pivot=static_pivot,
              replace_scale=replace_scale)

    def split(why: str) -> None:
        """Run the level as two sub-batch transactions."""
        half = (len(fids) + 1) // 2
        device.recovery_log.record(
            "level-split", site=f"level[{len(fids)} fronts]",
            detail=f"{why}sub-batches of {half} and {len(fids) - half}")
        for part in (fids[:half], fids[half:]):
            _run_level(device, a_perm, symb, part, buffers, records,
                       strategy, gemm_mode, **kw)

    launch_failures = alloc_failures = corrupt_failures = 0
    while True:
        try:
            consumed = _factor_level(device, a_perm, symb, fids, buffers,
                                     records, strategy, gemm_mode, **kw)
        except CorruptionDetected as exc:
            _rollback_level(fids, buffers, records)
            corrupt_failures += 1
            if corrupt_failures < 2:
                device.recovery_log.record(
                    "kernel-reexec", site=f"level[{len(fids)} fronts]",
                    attempt=corrupt_failures, detail=str(exc))
                continue
            if len(fids) > 1:
                split("corruption isolation: ")
                return
            _quarantine_corrupt_front(device, a_perm, symb, fids[0],
                                      buffers, records, exc)
            return
        except (DeviceOutOfMemory, KernelLaunchError) as exc:
            _rollback_level(fids, buffers, records)
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
            split("")
            return
        else:
            # Commit: only now do consumed Schur blocks from another
            # traversal or device go (they were needed for any retry).
            for c in consumed:
                if host_schur is not None:
                    host_schur.pop(c, None)
                if dev_schur is not None and c in dev_schur:
                    blk = dev_schur.pop(c)
                    (blk.base or blk).free()
            return


#: ``info`` sentinel for a front quarantined after persistent silent
#: data corruption (negative so it can never collide with LAPACK's
#: 1-based breakdown-column codes).
CORRUPT_FRONT_INFO = -2


def _quarantine_corrupt_front(device, a_perm, symb, fid, buffers, records,
                              exc) -> None:
    """Terminal corruption rung for one front: zero it out and flag it.

    The front's buffer is replaced by zeros (its Schur block then
    extend-adds nothing into the parent, keeping ancestors finite and
    *their* factors identical to a run where this front contributed a
    zero update), pivots become the identity, and the record carries
    :data:`CORRUPT_FRONT_INFO` so the aggregated
    :class:`FactorReport` reports the front as failed — the caller sees
    a typed per-front failure, never silently wrong factors.
    """
    info = symb.fronts[fid]
    buffers[fid] = device.zeros((info.order, info.order),
                                dtype=a_perm.dtype)
    records[fid] = FrontFactors(
        f11=None, ipiv=np.arange(info.sep_size, dtype=np.int64), f12=None,
        f21=None, info=CORRUPT_FRONT_INFO, min_pivot=0.0)
    device.recovery_log.record(
        "front-quarantine", site=f"front[{fid}]",
        detail=f"persistent corruption: {exc}")


def _rollback_level(fids, buffers, records) -> None:
    """Undo a failed level attempt: free its buffers, drop its records."""
    for fid in fids:
        arr = buffers.pop(fid, None)
        if arr is not None:
            arr.free()
        records.pop(fid, None)


def _factor_level(device, a_perm, symb, fids, buffers, records, strategy,
                  gemm_mode, *, host_schur=None, dev_schur=None,
                  engine=None, pivot_tol=0.0, static_pivot=False,
                  replace_scale=None) -> list[int]:
    infos = [symb.fronts[f] for f in fids]
    for fid, info in zip(fids, infos):
        buffers[fid] = device.empty((info.order, info.order),
                                    dtype=a_perm.dtype)

    for fid in fids:
        buffers[fid].data[...] = 0.0
    consumed = _assemble_level(device, a_perm, symb, fids, buffers,
                               host_schur=host_schur, dev_schur=dev_schur)

    # Children buffers stay alive until this level commits (a retry
    # re-reads their Schur blocks); factor_levels then packs them or
    # keeps them for the caller.

    if strategy == "batched":
        _level_batched(device, symb, fids, buffers, records, gemm_mode,
                       engine=engine, pivot_tol=pivot_tol,
                       static_pivot=static_pivot,
                       replace_scale=replace_scale)
    elif strategy == "looped":
        _level_looped(device, symb, fids, buffers, records)
    else:
        _level_strumpack(device, symb, fids, buffers, records,
                         pivot_tol=pivot_tol, static_pivot=static_pivot,
                         replace_scale=replace_scale)
    return consumed


def _assemble_level(device, a_perm, symb, fids, buffers, *,
                    host_schur=None, dev_schur=None) -> list[int]:
    """One kernel: gather A entries + extend-add children Schur blocks,
    one thread block per 32×32 tile of each front.

    It replays the analysis's
    :class:`~repro.sparse.symbolic.analysis.AssemblyMap`, so ``a_perm``
    must be on the analyzed pattern (``AssemblyMap.conform``), and the
    fronts' buffers zeroed.  Each front adds its gathered entries into
    its buffer, then its children's Schur blocks in ``info.children``
    order: the host oracle's values and additions
    (:func:`~.factors.assemble_front`), so the same bits.

    Children factored in an earlier traversal (out-of-core mode) have
    their Schur complements on the host; those are re-uploaded first
    (H2D transfers the multi-traversal mode pays for) and used once.
    Children factored on another device of a node have theirs in
    ``dev_schur``, already on ``device``, and are read there.  Returns
    the consumed child ids — the *caller* drops them from ``host_schur``
    and ``dev_schur`` once the level commits, so a retried level can
    re-read them.  Staged uploads are freed on any exit path.
    """
    infos = [symb.fronts[f] for f in fids]
    amap, values = symb.assembly, a_perm.data

    staged: dict[int, DeviceArray] = {}
    resident = {c: dev_schur[c] for info in infos for c in info.children
                if dev_schur and c in dev_schur}

    def kernel() -> KernelCost:
        nbytes_r = 0.0
        nbytes_w = 0.0
        for fid, info in zip(fids, infos):
            F = buffers[fid].data
            if info.order == 0:
                continue
            F.reshape(-1)[amap.dst[fid]] += values[amap.src[fid]]
            nbytes_w += F.nbytes
            for c in info.children:
                loc = amap.loc[c]
                if loc is None:
                    continue
                if c in staged:
                    schur = staged[c].data
                elif c in resident:
                    schur = resident[c].data
                else:
                    cs = symb.fronts[c].sep_size
                    schur = buffers[c].data[cs:, cs:]
                F[np.ix_(loc, loc)] += schur
                nbytes_r += schur.nbytes
        orders = [info.order for info in infos]
        return KernelCost(bytes_read=nbytes_r, bytes_written=nbytes_w,
                          blocks=max(tile_blocks(orders, orders), 1),
                          threads_per_block=256,
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
    return list(staged) + list(resident)


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
    """One kernel: gather-apply each front's pivot swaps to its F12 rows,
    one thread block per 32×32 tile of each F12 block."""

    def kernel() -> KernelCost:
        if engine is not None:
            return engine.exec_apply_pivots_f12(f12, pivots)
        nbytes = 0.0
        for i in range(len(f12)):
            s, u = f12.local_dims(i)
            if s == 0 or u == 0:
                continue
            apply_interchanges(f12.arrays[i].data, pivots[i])
            nbytes += 2 * s * u * f12.itemsize
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(tile_blocks(f12.m_vec, f12.n_vec), 1),
                          kernel_class="swap", memory_ramp=0.4)

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
    emit the identical launch: one thread block per 32×32 tile zeroed.
    """

    def kernel() -> KernelCost:
        nbytes = 0.0
        for i in bad:
            for b in batches:
                view = b.matrix(int(i))
                view[...] = 0.0
                nbytes += view.nbytes
        blocks = sum(tile_blocks(b.m_vec[bad], b.n_vec[bad]) for b in batches)
        return KernelCost(bytes_written=nbytes, blocks=max(blocks, 1),
                          threads_per_block=256, kernel_class="swap",
                          memory_ramp=0.4)

    device.launch("breakdown:quarantine", kernel)


def _gate_broken(device, piv, s_vec, u_vec, f11, f12, f21, f22, *,
                 sync: bool = False):
    """Gate broken-down fronts out of a level's off-diagonal updates.

    Returns ``(s_vec, u_vec, f11, f12, f21, f22, ipiv)`` of the fronts
    left to update, or ``None`` when no front has an update to make.
    The blocks of fronts whose pivot block broke down unrecovered are
    zeroed first, in one quarantine launch (followed by a synchronize
    when ``sync``, the STRUMPACK model's), and the clean survivors come
    back as sub-batches.  ``piv.info`` is bitwise identical between
    engines, so the gating, and every launch after it, is too.
    """
    if not (len(s_vec) and s_vec.max() and u_vec.max()):
        return None
    bad = np.nonzero(piv.info != 0)[0]
    if not len(bad):
        return s_vec, u_vec, f11, f12, f21, f22, piv.ipiv
    _quarantine_broken(device, bad, f12, f21, f22)
    if sync:
        device.synchronize()
    good = np.setdiff1d(np.arange(len(s_vec), dtype=np.int64), bad)
    if not (len(good) and s_vec[good].max() and u_vec[good].max()):
        return None
    return (s_vec[good], u_vec[good],
            *(_sub_batch(device, b, good) for b in (f11, f12, f21, f22)),
            [piv.ipiv[int(i)] for i in good])


def _record_fronts(records, fids, piv) -> None:
    """Write each front's record from the batched LU's pivots and
    per-matrix diagnostics; its blocks stay empty until
    :func:`pack_fronts` or :func:`download_fronts`."""
    for i, fid in enumerate(fids):
        records[fid] = FrontFactors(
            f11=None, ipiv=piv.ipiv[i].copy(), f12=None, f21=None,
            info=int(piv.info[i]), n_replaced=int(piv.n_replaced[i]),
            min_pivot=float(piv.min_pivot[i]), growth=float(piv.growth[i]))


def _level_batched(device, symb, fids, buffers, records, gemm_mode, *,
                   engine=None, pivot_tol=0.0, static_pivot=False,
                   replace_scale=None) -> None:
    s_vec, u_vec, f11, f12, f21, f22 = _make_block_batches(
        device, symb, fids, buffers)

    piv = irr_getrf(device, f11, concurrent_swaps=True, pivot_tol=pivot_tol,
                    static_pivot=static_pivot, replace_scale=replace_scale,
                    engine=engine)
    _record_fronts(records, fids, piv)
    _level_offdiag(device, s_vec, u_vec, f11, f12, f21, f22, piv, gemm_mode,
                   engine=engine)


def offdiag_base_nb(spec, itemsize: int) -> int:
    """irrTRSM's ``base_nb`` for the F12 and F21 solves: the largest
    order whose streamed base launch fits at any update width
    (:func:`~repro.batched.engine.trsm_stream_order` at ``TILE``
    right-hand sides), 620 on the A100 and 224 on the MI100 in FP64.
    One value per device and dtype, so a front's bits never depend on
    the batch it is factored in."""
    return max(TRSM_BASE_NB, trsm_stream_order(spec, TILE, itemsize))


def _level_offdiag(device, s_vec, u_vec, f11, f12, f21, f22, piv,
                   gemm_mode, *, engine=None) -> None:
    """The off-diagonal updates of one batched level (everything after
    the pivot-block LU): breakdown gating (:func:`_gate_broken`), pivot
    application to F12, the two TRSMs and the Schur GEMM.

    The F21 solve reads only U, so it runs on the device's side stream
    while the F12 pivots and solve (which read L) run on the main one;
    the Schur GEMM waits for both."""
    gated = _gate_broken(device, piv, s_vec, u_vec, f11, f12, f21, f22)
    if gated is None:
        return
    s_vec, u_vec, f11, f12, f21, f22, piv_list = gated
    smax, umax = int(s_vec.max()), int(u_vec.max())

    base_nb = offdiag_base_nb(device.spec, f11.itemsize)
    side = device.side_stream
    device.wait_event(side, device.record_event())
    irr_trsm(device, "R", "U", "N", "N", umax, smax, 1.0,
             f11, (0, 0), f21, (0, 0), stream=side, base_nb=base_nb,
             name="irrtrsm:f21", engine=engine)
    f21_done = device.record_event(side)
    _apply_pivots_to_f12(device, f12, piv_list, engine=engine)
    irr_trsm(device, "L", "L", "N", "U", smax, umax, 1.0,
             f11, (0, 0), f12, (0, 0), base_nb=base_nb,
             name="irrtrsm:f12", engine=engine)
    device.wait_event(None, f21_done)

    if gemm_mode == "irr":
        irr_gemm(device, "N", "N", umax, umax, smax, -1.0, f21, (0, 0),
                 f12, (0, 0), 1.0, f22, (0, 0), name="irrgemm:schur",
                 engine=engine)
    elif gemm_mode == "vendor":
        _vendor_gemm_loop(device, f12, f21, f22, range(len(f12)))
    else:  # hybrid (Fig 14)
        small = [i for i in range(len(f12))
                 if max(s_vec[i], u_vec[i]) <= HYBRID_GEMM_CUTOFF]
        large = [i for i in range(len(f12))
                 if max(s_vec[i], u_vec[i]) > HYBRID_GEMM_CUTOFF]
        if small:
            sel = np.array(small, dtype=np.int64)
            irr_gemm(device, "N", "N",
                     int(u_vec[sel].max()), int(u_vec[sel].max()),
                     int(s_vec[sel].max()), -1.0,
                     _sub_batch(device, f21, sel), (0, 0),
                     _sub_batch(device, f12, sel), (0, 0), 1.0,
                     _sub_batch(device, f22, sel), (0, 0),
                     name="irrgemm:schur", engine=engine)
        _vendor_gemm_loop(device, f12, f21, f22, large)


def _vendor_gemm_loop(device, f12, f21, f22, which) -> None:
    for i in which:
        s, u = f12.local_dims(i)
        if s == 0 or u == 0:
            continue
        vendor_gemm(device, "N", "N", -1.0, f21.arrays[i].data,
                    f12.arrays[i].data, 1.0, f22.arrays[i].data,
                    name="cublas_gemm:schur")


def _level_looped(device, symb, fids, buffers, records) -> None:
    """cuSOLVER/cuBLAS called in a loop over the level's fronts.

    The vendor model has no static-pivot mode (cuSOLVER does not), but
    its ``devInfo`` status is checked per front: a broken-down front is
    quarantined (:func:`_quarantine_broken`, off-diagonal updates
    skipped) and its record carries the status instead of feeding
    garbage onward.
    """
    info_arr = np.zeros(1, dtype=np.int64)
    for fid in fids:
        info = symb.fronts[fid]
        s, u = info.sep_size, info.upd_size
        arr = buffers[fid]
        if s == 0:
            records[fid] = FrontFactors(f11=None, ipiv=np.empty(0, np.int64),
                                        f12=None, f21=None)
            continue
        info_arr[0] = 0
        ipiv = vendor_getrf(device, arr[:s, :s], info_out=info_arr)
        records[fid] = FrontFactors(f11=None, ipiv=ipiv.copy(), f12=None,
                                    f21=None, info=int(info_arr[0]))
        if int(info_arr[0]) != 0:
            if u:
                _, _, _, f12, f21, f22 = _make_block_batches(
                    device, symb, [fid], buffers)
                _quarantine_broken(device, [0], f12, f21, f22)
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
        apply_interchanges(b, ipiv)
        return KernelCost(bytes_read=b.nbytes, bytes_written=b.nbytes,
                          blocks=tile_blocks(*b.shape), kernel_class="swap",
                          memory_ramp=0.3)

    device.launch("laswp:f12", kernel)


def _level_strumpack(device, symb, fids, buffers, records, *,
                     pivot_tol=0.0, static_pivot=False,
                     replace_scale=None) -> None:
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
        piv = irr_getrf(device, f11, nb=8, panel="columnwise",
                        laswp_variant="looped", pivot_tol=pivot_tol,
                        static_pivot=static_pivot,
                        replace_scale=replace_scale)
        device.synchronize()
        _record_fronts(records, small, piv)
        gated = _gate_broken(device, piv, s_vec, u_vec, f11, f12, f21, f22,
                             sync=True)
        if gated is not None:
            s_vec, u_vec, f11, f12, f21, f22, piv_list = gated
            smax, umax = int(s_vec.max()), int(u_vec.max())
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
        _level_looped(device, symb, [fid], buffers, records)
        device.synchronize()
