"""Sharded multifrontal factorization across a multi-device node.

§III-A: "for the distributed memory parallel code, the assembly tree is
split in multiple subtrees, each of which is assigned to a single MPI
rank and corresponding GPU, while the top log P levels of the tree are
distributed ... and then processed using either ScaLAPACK (CPU-only) or
SLATE."

This module is the single-node, multi-GPU realisation of that design:

* :func:`partition_tree` splits the assembly tree into the top
  ``⌈log₂ P⌉`` levels plus rank-local subtrees, assigned to devices by
  longest-processing-time on their flop counts;
* each device factors its subtrees with the *same* level transactions
  as the single-device path (:func:`~.gpu_factor._run_level`: bounded
  retries, batch splitting, corruption quarantine, and the full pivot
  policy — ``pivot_tol`` / ``static_pivot`` / ``replace_scale``), on
  its own simulated timeline;
* subtree-root Schur contributions ship to the owner device over the
  node's modeled links (:meth:`~repro.device.node.Node.transfer`), and
  the top part is factored there with the batched kernels (the
  SLATE-like path) or costed with a ScaLAPACK-style CPU model.

Parity with single-device execution: at any device count the factors
are bitwise identical to :func:`~.gpu_factor.multifrontal_factor_gpu`
(tested on grid Laplacians at 1–8 devices and on the Maxwell system at
2 and 4).  That rests on three invariants: per-front numerics
independent of which fronts share a batch (the engines' documented
contract — irrTRSM blocks every triangle on one fixed grid; the one
batch-level rule left, the fused-panel fit, matters only for pivot
blocks too tall for shared memory), an extend-add that consumes
children in ``info.children`` order whatever buffer they arrive
through, and byte-exact host round trips of Schur blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ...analysis.flops import gemm_flops, getrf_flops, trsm_flops
from ...batched.engine import resolve_engine
from ...device.node import Node
from ...device.simulator import Device
from ...device.spec import XEON_6140_2S
from ...errors import FactorizationError
from ...recovery import RecoveryLog
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors
from .gpu_factor import HYBRID_GEMM_CUTOFF, _chunk_levels, _run_level, \
    check_factor_args, download_fronts
from .report import FactorReport

__all__ = ["partition_tree", "RankAssignment",
           "multifrontal_factor_sharded", "ShardedFactorResult"]


# ----------------------------------------------------------------------
# tree partitioning
# ----------------------------------------------------------------------

@dataclass
class RankAssignment:
    """Which rank owns which front; -1 marks the distributed top part."""

    n_ranks: int
    rank_of_front: np.ndarray
    top_fronts: list[int]
    rank_fronts: list[list[int]]     # per rank, postorder
    rank_flops: list[float]

    @property
    def imbalance(self) -> float:
        """max/mean flop ratio across ranks (1.0 = perfect balance)."""
        nonzero = [f for f in self.rank_flops if f > 0]
        if not nonzero:
            return 1.0
        return max(nonzero) / (sum(nonzero) / len(nonzero))


def _front_flops(symb: SymbolicFactorization, fid: int) -> float:
    f = symb.fronts[fid]
    s, u = f.sep_size, f.upd_size
    return getrf_flops(s, s) + 2 * trsm_flops(s, u) + gemm_flops(u, u, s)


def partition_tree(symb: SymbolicFactorization,
                   n_ranks: int) -> RankAssignment:
    """Split the assembly tree: top ⌈log₂P⌉ levels + LPT subtrees."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    nf = len(symb.fronts)
    rank_of = np.full(nf, -1, dtype=np.int64)
    if n_ranks == 1:
        return RankAssignment(
            n_ranks=1, rank_of_front=np.zeros(nf, dtype=np.int64),
            top_fronts=[],
            rank_fronts=[list(range(nf))],
            rank_flops=[sum(_front_flops(symb, f) for f in range(nf))])

    top_levels = max(1, math.ceil(math.log2(n_ranks)))
    top = [fid for fid, f in enumerate(symb.fronts) if f.level < top_levels]
    top_set = set(top)

    # subtree roots: fronts below the top whose parent is in the top (or
    # absent) — each subtree goes to one rank as a unit.
    subtree_flops: dict[int, float] = {}
    subtree_fronts: dict[int, list[int]] = {}

    def collect(fid: int) -> tuple[float, list[int]]:
        f = symb.fronts[fid]
        fl = _front_flops(symb, fid)
        fronts = []
        for c in f.children:
            cf, cl = collect(c)
            fl += cf
            fronts.extend(cl)
        fronts.append(fid)
        return fl, fronts

    roots = [fid for fid, f in enumerate(symb.fronts)
             if fid not in top_set and
             (f.parent < 0 or f.parent in top_set)]
    for r in roots:
        subtree_flops[r], subtree_fronts[r] = collect(r)

    # LPT assignment of subtrees to ranks
    loads = [0.0] * n_ranks
    rank_fronts: list[list[int]] = [[] for _ in range(n_ranks)]
    for r in sorted(roots, key=lambda x: -subtree_flops[x]):
        dest = int(np.argmin(loads))
        loads[dest] += subtree_flops[r]
        rank_fronts[dest].extend(sorted(subtree_fronts[r]))
        for fid in subtree_fronts[r]:
            rank_of[fid] = dest
    for rf in rank_fronts:
        rf.sort()

    return RankAssignment(n_ranks=n_ranks, rank_of_front=rank_of,
                          top_fronts=sorted(top), rank_fronts=rank_fronts,
                          rank_flops=loads)


# ----------------------------------------------------------------------
# sharded factorization
# ----------------------------------------------------------------------

@dataclass
class ShardedFactorResult:
    """Factors plus the simulated multi-device execution profile.

    ``elapsed`` is this call's node makespan: from the latest member
    clock at entry to the latest once every device is idle (subtree
    phases overlap, so this is *not* the sum of the parts).
    ``link_bytes`` counts the boundary Schur bytes that crossed a link;
    the owner's own contributions never do.
    """

    factors: MultifrontalFactors
    assignment: RankAssignment
    elapsed: float
    per_device_seconds: list[float] = field(default_factory=list)
    gather_seconds: float = 0.0
    top_seconds: float = 0.0
    link_bytes: int = 0
    report: "FactorReport | None" = None


def multifrontal_factor_sharded(
        node: Node, a_perm: sp.spmatrix, symb: SymbolicFactorization, *,
        strategy: str = "batched", gemm_mode: str = "hybrid",
        hybrid_cutoff: int = HYBRID_GEMM_CUTOFF,
        laswp_variant: str = "rehearsed", nb: int = 32,
        pivot_tol: float = 0.0, static_pivot: bool = False,
        replace_scale: float | None = None, breakdown: str = "raise",
        engine="bucketed", top_mode: str = "slate",
        top_device: int = 0) -> ShardedFactorResult:
    """Factor the permuted sparse matrix across the node's devices.

    Subtrees run on concurrent per-device timelines through the same
    level transactions as :func:`multifrontal_factor_gpu` — the full
    pivot policy (``pivot_tol``/``static_pivot``/``replace_scale``),
    batch engine selection and the retry/level-split/quarantine ladder
    all apply per device.  Boundary Schur contributions are shipped to
    ``top_device`` over the node's modeled links; the top part is
    factored there (``top_mode="slate"``, batched kernels) or costed
    with the ScaLAPACK-style CPU model (``"scalapack"`` — the numerics
    still run, on an untimed scratch device, so the factors are always
    complete).

    The aggregated :class:`FactorReport` (with every device's recovery
    slice merged in) is attached to ``result.report`` and
    ``factors.report``; ``breakdown="raise"`` (default) raises a typed
    :class:`FactorizationError` on unrecovered pivot breakdown,
    ``"report"`` returns the quarantined factors with ``report.ok ==
    False``.  See the module docstring for the parity contract with
    the single-device path.
    """
    a_perm, a_dev_bytes = check_factor_args(
        a_perm, symb, strategy=strategy, gemm_mode=gemm_mode,
        breakdown=breakdown)
    if top_mode not in ("slate", "scalapack"):
        raise ValueError(f"unknown top_mode {top_mode!r}")
    if not 0 <= top_device < len(node):
        raise ValueError(f"top_device {top_device} out of range for a "
                         f"{len(node)}-device node")

    assign = partition_tree(symb, len(node))
    engine = resolve_engine(engine)
    marks = [dev.recovery_log.mark() for dev in node]
    start = node.makespan
    link_bytes0 = node.p2p_bytes + node.staged_bytes

    host_factors: dict[int, FrontFactors] = {}
    host_schur: dict[int, np.ndarray] = {}

    def run_fronts(device: Device, fids: list[int]) -> float:
        """Factor one device's fronts; stream results to the host store.

        Identical level transactions to the single-device traversal
        (same engine, same pivot policy, same recovery ladder); the
        download/harvest happens outside the timed region, as the
        single-device path does.
        """
        if not fids:
            return 0.0
        buffers: dict = {}
        pivots_of: dict = {}
        diag_of: dict[int, tuple[int, int, float, float]] = {}
        try:
            with device.timed_region() as region:
                for level_fids in _chunk_levels(symb, fids):
                    _run_level(device, a_perm, symb, level_fids, buffers,
                               pivots_of, strategy, gemm_mode,
                               hybrid_cutoff, laswp_variant, nb,
                               host_schur=host_schur, engine=engine,
                               diag_of=diag_of, pivot_tol=pivot_tol,
                               static_pivot=static_pivot,
                               replace_scale=replace_scale)
            download_fronts(symb, fids, buffers, pivots_of, diag_of,
                            host_factors, host_schur, release=True)
        finally:
            for arr in buffers.values():
                arr.free()
        return region["elapsed"]

    # Each participating device holds its own copy of A for assembly
    # (uploaded outside the timed regions, like the single-device path).
    active = [d for d in range(len(node)) if assign.rank_fronts[d]]
    if assign.top_fronts and top_mode == "slate" \
            and top_device not in active:
        active.append(top_device)
    claimed: list[int] = []
    try:
        for d in active:
            node[d]._claim(a_dev_bytes, site="shard:a_csr")
            claimed.append(d)
            node[d]._account_transfer(a_dev_bytes)

        # --- phase 1: rank-local subtrees (concurrent timelines) ---------
        per_device = [run_fronts(node[d], assign.rank_fronts[d])
                      for d in range(len(node))]

        # --- phase 2: gather boundary Schur contributions to the owner ---
        gather_seconds = 0.0
        if assign.top_fronts:
            owner = node[top_device]
            t0 = owner.host_time
            for d in range(len(node)):
                for f in assign.rank_fronts[d]:
                    if f in host_schur:
                        node.transfer(d, top_device, host_schur[f].nbytes)
            gather_seconds = owner.host_time - t0

        # --- phase 3: the top part on the owner device -------------------
        top_seconds = 0.0
        if assign.top_fronts:
            if top_mode == "slate":
                top_seconds = run_fronts(node[top_device],
                                         assign.top_fronts)
            else:
                # ScaLAPACK model: CPU-only 2D block-cyclic over all
                # devices' host processes; the numerics run on an
                # untimed scratch device so the factors stay complete.
                cpu = XEON_6140_2S()
                flops = sum(_front_flops(symb, f)
                            for f in assign.top_fronts)
                rate = len(node) * 16 * cpu.freq_hz * \
                    cpu.flops_per_cycle_per_core
                eff = cpu.getrf_efficiency(
                    max(symb.fronts[f].order for f in assign.top_fronts))
                top_seconds = flops / (rate * max(eff, 1e-3))
                run_fronts(Device(node.spec), assign.top_fronts)
                node[top_device].host_compute(top_seconds)
    finally:
        for d in claimed:
            node[d]._release(a_dev_bytes)

    out = MultifrontalFactors(symb=symb)
    out.fronts = [host_factors[fid] for fid in range(len(symb.fronts))]
    out.report = FactorReport.from_factors(
        out, pivot_tol=pivot_tol, static_pivot=static_pivot,
        replace_scale=replace_scale)
    events: list = []
    for dev, mark in zip(node, marks):
        events.extend(dev.recovery_log.since(mark).events)
    out.report.recovery = RecoveryLog(events)
    if breakdown == "raise" and not out.report.ok:
        raise FactorizationError(out.report.summary(), out.report)

    return ShardedFactorResult(
        factors=out, assignment=assign,
        elapsed=node.synchronize() - start,
        per_device_seconds=per_device, gather_seconds=gather_seconds,
        top_seconds=top_seconds,
        link_bytes=(node.p2p_bytes + node.staged_bytes) - link_bytes0,
        report=out.report)
