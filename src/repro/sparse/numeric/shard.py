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
  longest-processing-time on their flop counts; ``node[0]``, the top
  device, takes the lightest share;
* each device factors its subtrees with the *same* level transactions
  as the single-device path (:func:`~.gpu_factor._run_level`: bounded
  retries, batch splitting, corruption quarantine, and the full pivot
  policy — ``pivot_tol`` / ``static_pivot`` / ``replace_scale``), on
  its own simulated timeline;
* subtree-root Schur contributions are copied into ``node[0]``'s
  memory, peers' over the node's modeled links
  (:func:`~repro.device.memory.pack_to_device` with ``node=``), and the
  top part is factored there with the batched kernels and the hybrid
  Schur GEMM, its assembly reading them in place;
* without a solve store, every front stays on its device through the
  top part and downloads to host factors once the node is idle, as the
  single-device path downloads after its measured region;
* with a solve store (``SparseLU`` passes one), the factors never leave
  the devices: each device packs its share of every level into its own
  memory, and once the top part is done each share is copied into the
  store there, peers' over the links.  The first solve then uploads
  nothing.

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
from .gpu_factor import _chunk_levels, _run_level, check_factor_args, \
    download_fronts, factor_levels, pack_fronts, retry_launch
from .report import FactorReport, finish_factors
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
    clock at entry to the latest once every device is idle after the
    top part (subtree phases overlap, so this is *not* the sum of the
    parts).  Without a store the fronts download to host factors after
    that, outside ``elapsed``, as in ``multifrontal_factor_gpu``.
    ``per_device_seconds`` times each device's subtree phase.
    ``gather_seconds`` is the top device's clock delta over the gather
    of the boundary Schur blocks into its memory, so it includes that
    device's wait for the slowest subtree device as well as the link
    time.
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
        pivot_tol: float = 0.0, static_pivot: bool = False,
        replace_scale: float | None = None, breakdown: str = "raise",
        engine="bucketed",
        store: DeviceFactorCache | None = None) -> ShardedFactorResult:
    """Factor the permuted sparse matrix across the node's devices.

    Subtrees run on concurrent per-device timelines through the same
    level transactions as :func:`multifrontal_factor_gpu` with its
    default ``strategy="batched"`` and ``gemm_mode="hybrid"`` — the full
    pivot policy (``pivot_tol``/``static_pivot``/``replace_scale``),
    batch engine selection and the retry/level-split/quarantine ladder
    all apply per device.  ``node[0]`` takes the lightest subtree share,
    since it also factors the top part (and holds the store).  Boundary
    Schur blocks are copied into ``node[0]``'s memory (peer to peer over
    the node's modeled links, a ``solve:pack`` for ``node[0]``'s own),
    and the top part is factored there with the same kernels, its
    assembly reading them in place.

    The aggregated :class:`FactorReport` (with every device's recovery
    slice merged in) is attached to ``result.report`` and
    ``factors.report``; ``breakdown="raise"`` (default) raises a typed
    :class:`FactorizationError` on unrecovered pivot breakdown,
    ``"report"`` returns the quarantined factors with ``report.ok ==
    False``.  See the module docstring for the parity contract with
    the single-device path.

    ``store`` is the output argument of
    :func:`~repro.sparse.numeric.gpu_factor.multifrontal_factor_gpu`,
    on ``node[0]`` (else a :class:`ValueError`).  With a store
    every level stays on the devices:

    * each device packs its share of a level (the level's fronts that
      ran there) into its own memory, one ``pack_to_device`` per level
      part, once their parents have committed there, and frees the
      fronts; a level that ran whole on the top device goes straight
      into the store, as on one device;
    * once the top part has freed its fronts (and every device its copy
      of A), each level's shares land in the store's level allocation,
      one copy per level part and device (a ``solve:pack`` kernel for
      the top device's own share, a peer copy over the node's link for
      each peer's), and are freed.

    So on a 1-device node every level is packed as by
    ``multifrontal_factor_gpu`` (the same launches), and on any node
    the first solve uploads nothing.  Without a store, every front
    stays on its device until the node is idle (``elapsed`` stops
    there) and then downloads to host factors, as on one device.  A
    raise frees every share and releases the store, so each device's
    ``allocated_bytes`` returns to where it was.
    """
    owner = node[0]
    a_perm, a_dev_bytes = check_factor_args(
        a_perm, symb, breakdown=breakdown, store=store, device=owner)

    assign = _lightest_first(partition_tree(symb, len(node)))
    engine = resolve_engine(engine)
    marks = [dev.recovery_log.mark() for dev in node]
    start = node.makespan
    link_bytes0 = node.p2p_bytes + node.staged_bytes

    # per level, the devices' packed shares (the store path only)
    shares = {} if store is not None else None
    records: dict[int, FrontFactors] = {}
    # the boundary Schur blocks, gathered into `owner`'s memory
    dev_schur: dict = {}
    buffers: list[dict] = [{} for _ in node]

    def run_fronts(device: Device, fids: list[int], bufs: dict) -> float:
        """Factor one device's fronts with the same level transactions
        as the single-device traversal (same engine, pivot policy,
        recovery ladder and packs)."""
        if not fids:
            return 0.0

        def run_level(level_fids) -> None:
            _run_level(device, a_perm, symb, level_fids, bufs, records,
                       "batched", "hybrid", dev_schur=dev_schur,
                       engine=engine, pivot_tol=pivot_tol,
                       static_pivot=static_pivot,
                       replace_scale=replace_scale)

        with device.timed_region() as region:
            factor_levels(device, symb, fids, run_level, bufs, records,
                          store, shares)
        return region["elapsed"]

    # Each participating device holds its own copy of A for assembly
    # (uploaded outside the timed regions, like the single-device path).
    active = [d for d in range(len(node)) if assign.rank_fronts[d]]
    if assign.top_fronts and 0 not in active:
        active.append(0)
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

        # --- phase 2: gather boundary Schur blocks into the owner ------
        gather_seconds = 0.0
        if assign.top_fronts:
            t0 = owner.host_time
            for d in range(len(node)):
                if buffers[d]:
                    _send_boundary(node, d, symb, buffers[d], records,
                                   store, shares, dev_schur)
            gather_seconds = owner.host_time - t0

        # --- phase 3: the top part on the owner device -------------------
        top_seconds = 0.0
        if assign.top_fronts:
            top_seconds = run_fronts(owner, assign.top_fronts, buffers[0])

        # --- phase 4: merge the shares into the store --------------------
        release_a()
        for li in sorted(shares or ()):
            _merge_level(node, store, li, shares)
        elapsed = node.synchronize() - start

        # without a store, the fronts download once the node is idle
        for bufs in buffers:
            download_fronts(symb, sorted(bufs), bufs, records)
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
    out = finish_factors(
        MultifrontalFactors(symb, [records[f] for f in
                                   range(len(symb.fronts))],
                            dtype=a_perm.dtype),
        pivot_tol=pivot_tol, static_pivot=static_pivot,
        replace_scale=replace_scale, breakdown=breakdown,
        recovery=RecoveryLog(events), store=store)

    return ShardedFactorResult(
        factors=out, assignment=assign, elapsed=elapsed,
        per_device_seconds=per_device, gather_seconds=gather_seconds,
        top_seconds=top_seconds,
        link_bytes=(node.p2p_bytes + node.staged_bytes) - link_bytes0,
        report=out.report)


def _lightest_first(assign: RankAssignment) -> RankAssignment:
    """``assign`` with its lightest rank's subtrees swapped onto device
    0, which also factors the top part and holds the store.  LPT alone
    breaks its first tie toward device 0, which then gets the heaviest
    subtree."""
    light = int(np.argmin(assign.rank_flops))
    if assign.rank_flops[light] >= assign.rank_flops[0]:
        return assign
    fronts, flops = list(assign.rank_fronts), list(assign.rank_flops)
    fronts[light], fronts[0] = fronts[0], fronts[light]
    flops[light], flops[0] = flops[0], flops[light]
    rank_of = assign.rank_of_front.copy()
    rank_of[assign.rank_of_front == light] = 0
    rank_of[assign.rank_of_front == 0] = light
    return replace(assign, rank_of_front=rank_of, rank_fronts=fronts,
                   rank_flops=flops)


def _send_boundary(node, d, symb, bufs, records, store, shares,
                   dev_schur) -> None:
    """Device ``d``'s part of the gather: copy the Schur block of each
    of its boundary fronts (those whose parent did not run there) into
    ``node[0]``'s memory: a peer copy over the node's link, a
    ``solve:pack`` on ``node[0]`` itself.  With a ``store``, then pack
    ``d``'s share of their level and free them (on that path they are
    all ``d`` still holds); without one, every front stays on ``d``
    until the download."""
    owner = node[0]
    boundary = [f for f in sorted(bufs) if symb.fronts[f].parent >= 0
                and symb.fronts[f].parent not in bufs]
    for f in boundary:
        s = symb.fronts[f].sep_size
        if symb.fronts[f].upd_size:
            schur = bufs[f][s:, s:]
            dev_schur[f] = retry_launch(owner, lambda: pack_to_device(
                owner, [schur], node=node))[0]
    if store is None:
        return
    for level in _chunk_levels(symb, boundary):
        pack_fronts(node[d], symb, level, bufs, records, store, shares)
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
