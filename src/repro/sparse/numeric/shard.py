"""Sharded multifrontal factorization across a multi-device node.

§III-A: "for the distributed memory parallel code, the assembly tree is
split in multiple subtrees, each of which is assigned to a single MPI
rank and corresponding GPU, while the top log P levels of the tree are
distributed ... and then processed using either ScaLAPACK (CPU-only) or
SLATE."

This module is the single-node, multi-GPU realisation of that design,
with the SLATE-like top only (the top levels run on a GPU):

* :func:`partition_tree` splits the assembly tree into the top
  ``⌈log₂ P⌉`` levels plus rank-local subtrees, assigned to devices by
  longest-processing-time on their flop counts; the top device takes
  the lightest share;
* each device factors its subtrees with the *same* level transactions
  as the single-device path (:func:`~.gpu_factor._run_level`: bounded
  retries, batch splitting, corruption quarantine, and the full pivot
  policy — ``pivot_tol`` / ``static_pivot`` / ``replace_scale``), on
  its own simulated timeline;
* subtree-root Schur contributions ship to the owner device over the
  node's modeled links, and the top part is factored there with the
  batched kernels;
* with a solve store (``SparseLU`` passes one), the factors never leave
  the devices: each device packs its share of every level into its own
  memory, the Schur blocks land peer to peer in the owner's memory,
  and once the top part is done each share is copied into the store
  on the owner — peers' over the links
  (:func:`~repro.device.memory.pack_to_device` with ``node=``).  The
  first solve then uploads nothing.

Parity with single-device execution: the factors are bitwise identical
to :func:`~.gpu_factor.multifrontal_factor_gpu` wherever the fused-panel
fit blocks every front's panels as the single-device level does (tested
on grid Laplacians at 1–8 devices and on the Maxwell system at 2 and 4
A100 devices, with and without a store).  That rests on three
invariants: per-front numerics independent of which fronts share a
batch, an extend-add that consumes children in ``info.children`` order
whatever buffer they arrive through, and byte-exact copies of Schur and
factor blocks, over the host or peer to peer.  The first has one
exception, the fused-panel fit: on the MI100, Maxwell n=12 at 2 devices
differs in 2 of 103 fronts.  docs/API.md, "Batch-independent blocking",
states the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from ...analysis.flops import gemm_flops, getrf_flops, trsm_flops
from ...batched.engine import resolve_engine
from ...device.memory import pack_to_device
from ...device.node import Node
from ...device.simulator import Device
from ...recovery import RecoveryLog
from ..symbolic.analysis import SymbolicFactorization
from .factors import FrontFactors, MultifrontalFactors
from .gpu_factor import HYBRID_GEMM_CUTOFF, _chunk_levels, _run_level, \
    check_factor_args, download_fronts, factor_levels, finish_factors, \
    pack_fronts, retry_launch
from .report import FactorReport
from .solve_plan import DeviceFactorCache

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
    ``per_device_seconds`` times each device's subtree phase.
    ``gather_seconds`` is the top device's clock delta over the gather
    of the boundary Schur blocks, so it includes that device's wait for
    the slowest subtree device as well as the link time.
    ``top_seconds`` times the top part.  On the store path the shares
    merge into the store after the top part, on the top device's clock:
    that time is in ``elapsed`` only.  ``link_bytes`` counts the bytes
    that crossed a link: the boundary Schur blocks (the top device's own
    never do) and, on the store path, every peer's share of every level.
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
        engine="bucketed", top_device: int = 0,
        store: DeviceFactorCache | None = None) -> ShardedFactorResult:
    """Factor the permuted sparse matrix across the node's devices.

    Subtrees run on concurrent per-device timelines through the same
    level transactions as :func:`multifrontal_factor_gpu` — the full
    pivot policy (``pivot_tol``/``static_pivot``/``replace_scale``),
    batch engine selection and the retry/level-split/quarantine ladder
    all apply per device.  ``top_device`` takes the lightest subtree
    share, since it also factors the top part (and holds the store).
    Boundary Schur contributions are shipped to ``top_device`` over the
    node's modeled links, and the top part is factored there with the
    batched kernels.

    The aggregated :class:`FactorReport` (with every device's recovery
    slice merged in) is attached to ``result.report`` and
    ``factors.report``; ``breakdown="raise"`` (default) raises a typed
    :class:`FactorizationError` on unrecovered pivot breakdown,
    ``"report"`` returns the quarantined factors with ``report.ok ==
    False``.  See the module docstring for the parity contract with
    the single-device path.

    ``store`` is the output argument of
    :func:`~repro.sparse.numeric.gpu_factor.multifrontal_factor_gpu`,
    on ``node[top_device]`` (else a :class:`ValueError`).  With a store
    every level stays on the devices:

    * each device packs its share of a level (the level's fronts that
      ran there) into its own memory, one ``pack_to_device`` per level
      part, once their parents have committed there, and frees the
      fronts; a level that ran whole on the top device goes straight
      into the store, as on one device;
    * the boundary Schur blocks go peer to peer into the top device's
      memory, and the top part's assembly reads them there;
    * once the top part has freed its fronts (and every device its copy
      of A), each level's shares land in the store's level allocation,
      one copy per level part and device (a ``solve:pack`` kernel for
      the top device's own share, a peer copy over the node's link for
      each peer's), and are freed.

    So on a 1-device node every level is packed as by
    ``multifrontal_factor_gpu`` (the same launches), and on any node
    the first solve uploads nothing.  Without a store, the levels
    download to host factors instead.  A raise frees every
    share and releases the store, so each device's ``allocated_bytes``
    returns to where it was.
    """
    if not 0 <= top_device < len(node):
        raise ValueError(f"top_device {top_device} out of range for a "
                         f"{len(node)}-device node")
    owner = node[top_device]
    a_perm, a_dev_bytes = check_factor_args(
        a_perm, symb, strategy=strategy, gemm_mode=gemm_mode,
        breakdown=breakdown, store=store, device=owner)

    assign = _lightest_on(partition_tree(symb, len(node)), top_device)
    engine = resolve_engine(engine)
    marks = [dev.recovery_log.mark() for dev in node]
    start = node.makespan
    link_bytes0 = node.p2p_bytes + node.staged_bytes

    # per level, the devices' packed shares (the store path only)
    shares = {} if store is not None else None
    host_factors: dict[int, FrontFactors] = {}
    pivots_of: dict = {}
    diag_of: dict[int, tuple[int, int, float, float]] = {}
    # boundary Schur blocks: on the host without shares, else on `owner`
    host_schur: dict[int, np.ndarray] = {}
    dev_schur: dict = {}
    buffers: list[dict] = [{} for _ in node]

    def run_fronts(device: Device, fids: list[int], bufs: dict) -> float:
        """Factor one device's fronts with the same level transactions
        as the single-device traversal (same engine, pivot policy,
        recovery ladder and packs).  Without shares, the fronts then
        download outside the timed region, as the single-device path's
        do."""
        if not fids:
            return 0.0

        def run_level(level_fids) -> None:
            _run_level(device, a_perm, symb, level_fids, bufs, pivots_of,
                       strategy, gemm_mode, hybrid_cutoff, laswp_variant,
                       nb, host_schur=host_schur, dev_schur=dev_schur,
                       engine=engine, diag_of=diag_of, pivot_tol=pivot_tol,
                       static_pivot=static_pivot,
                       replace_scale=replace_scale)

        with device.timed_region() as region:
            factor_levels(device, symb, fids, run_level, bufs, pivots_of,
                          diag_of, host_factors, store, shares)
        if shares is None:
            download_fronts(symb, fids, bufs, pivots_of, diag_of,
                            host_factors, host_schur)
        return region["elapsed"]

    # Each participating device holds its own copy of A for assembly
    # (uploaded outside the timed regions, like the single-device path).
    active = [d for d in range(len(node)) if assign.rank_fronts[d]]
    if assign.top_fronts and top_device not in active:
        active.append(top_device)
    claimed: list[int] = []

    def release_a() -> None:
        while claimed:
            node[claimed.pop()]._release(a_dev_bytes)

    try:
        for d in active:
            node[d]._claim(a_dev_bytes, site="shard:a_csr")
            claimed.append(d)
            node[d]._account_transfer(a_dev_bytes)

        # --- phase 1: rank-local subtrees (concurrent timelines) ---------
        per_device = [run_fronts(node[d], assign.rank_fronts[d], buffers[d])
                      for d in range(len(node))]

        # --- phase 2: gather boundary Schur contributions to the owner ---
        gather_seconds = 0.0
        if assign.top_fronts:
            t0 = owner.host_time
            for d in range(len(node)):
                if shares is None:
                    for f in assign.rank_fronts[d]:
                        if f in host_schur:
                            node.transfer(d, top_device,
                                          host_schur[f].nbytes)
                elif buffers[d]:
                    _send_boundary(node, d, top_device, symb, buffers[d],
                                   pivots_of, diag_of, host_factors, store,
                                   shares, dev_schur)
            gather_seconds = owner.host_time - t0

        # --- phase 3: the top part on the owner device -------------------
        top_seconds = 0.0
        if assign.top_fronts:
            top_seconds = run_fronts(owner, assign.top_fronts,
                                     buffers[top_device])

        # --- phase 4: merge the shares into the store --------------------
        release_a()
        for li in sorted(shares or ()):
            _merge_level(node, store, li, shares)
    except BaseException:
        # a clean run has merged every share and consumed every block
        for parts in (shares or {}).values():
            for share in parts:
                share.free()
        for blk in dev_schur.values():
            blk.base.free()
        if store is not None:
            store.release()
        raise
    finally:
        for bufs in buffers:
            for arr in bufs.values():
                arr.free()
        release_a()

    events: list = []
    for dev, mark in zip(node, marks):
        events.extend(dev.recovery_log.since(mark).events)
    out = finish_factors(symb, host_factors, RecoveryLog(events),
                         pivot_tol=pivot_tol, static_pivot=static_pivot,
                         replace_scale=replace_scale, breakdown=breakdown,
                         dtype=a_perm.dtype, store=store)

    return ShardedFactorResult(
        factors=out, assignment=assign,
        elapsed=node.synchronize() - start,
        per_device_seconds=per_device, gather_seconds=gather_seconds,
        top_seconds=top_seconds,
        link_bytes=(node.p2p_bytes + node.staged_bytes) - link_bytes0,
        report=out.report)


def _lightest_on(assign: RankAssignment, top: int) -> RankAssignment:
    """``assign`` with its lightest rank's subtrees swapped onto device
    ``top``, which also factors the top part and holds the store.  LPT
    alone breaks its first tie toward device 0, which then gets the
    heaviest subtree."""
    light = int(np.argmin(assign.rank_flops))
    if assign.rank_flops[light] >= assign.rank_flops[top]:
        return assign
    fronts, flops = list(assign.rank_fronts), list(assign.rank_flops)
    fronts[light], fronts[top] = fronts[top], fronts[light]
    flops[light], flops[top] = flops[top], flops[light]
    rank_of = assign.rank_of_front.copy()
    rank_of[assign.rank_of_front == light] = top
    rank_of[assign.rank_of_front == top] = light
    return replace(assign, rank_of_front=rank_of, rank_fronts=fronts,
                   rank_flops=flops)


def _send_boundary(node, d, top, symb, bufs, pivots_of, diag_of,
                   host_factors, store, shares, dev_schur) -> None:
    """Device ``d``'s part of the gather: copy each of its boundary
    fronts' Schur blocks into ``node[top]``'s memory (a peer copy over
    the node's link; a ``solve:pack`` on the top device itself), then
    pack its share of their level and free them."""
    owner = node[top]
    for f in sorted(bufs):
        s = symb.fronts[f].sep_size
        if symb.fronts[f].upd_size:
            schur = bufs[f][s:, s:]
            dev_schur[f] = retry_launch(owner, lambda: pack_to_device(
                owner, [schur], node=node))[0]
    for level in _chunk_levels(symb, list(bufs)):
        pack_fronts(node[d], symb, level, bufs, pivots_of, diag_of,
                    host_factors, store, shares)
    # the merge's peer copies start from this clock: the packs are done
    node[d].synchronize()


def _merge_level(node, store, li, shares) -> None:
    """Land level ``li``'s shares in the store's level allocation — one
    copy per level part and device: a ``solve:pack`` kernel for the
    store device's own share, a peer copy over the node's link for each
    peer's — and free them."""
    blocks = {f: v for share in shares[li] for f, v in share.views.items()}
    retry_launch(store.device, lambda: store.pack(li, blocks, node=node))
    for share in shares.pop(li):
        share.free()
