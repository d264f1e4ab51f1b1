"""Solve plan + device-resident factor cache (fast repeated solves).

A production sparse direct solver factors once and solves *many* times
(§V-B amortizes the factorization over repeated right-hand sides,
Fig 12).  The seed solve path re-did all per-solve setup on every call:
it re-uploaded every factor level, re-applied pivots row-by-row in
Python, and scatter-updated front-by-front with ``np.subtract.at``.
This module precomputes everything that depends only on the factors:

* :class:`SolveLayout` — built once per symbolic analysis.  Per level
  it stores the concatenated update-index arrays with segment
  boundaries, the conflict-free scatter *rounds* (see below) and the
  shape buckets for the ``f21 @ y`` / ``f12 @ x`` update GEMMs.  None
  of it depends on pivots, so it serves every factorization of one
  analysis, and a factorization can pack into a cache laid out by it
  before any pivot is known.

* :class:`SolvePlan` — built once per factorization over a layout.  It
  holds the *rehearsed* pivot permutation of the whole tree (every
  front's row-by-row swap loop becomes part of one fancy-index gather,
  reusing the rehearsal machinery of
  :class:`~repro.batched.engine.BatchEngine`), the ``posmap`` of where
  each row's value sits once it is applied, and its copy of each
  level's scatter rounds remapped through that map.

* :class:`DeviceFactorCache` — keeps the factor blocks device-resident
  across solves: per level, the ``f11`` pivot blocks as an
  :class:`~repro.batched.interface.IrrBatch` (for irrTRSM) and the
  ``f21``/``f12`` blocks packed into contiguous per-bucket stacks.  It
  fills either from host factors (each level part uploaded on first
  use, one H2D transfer per bucket and per ``f11`` block) or, as the
  *store* of a device factorization, from device blocks: packs of the
  factorization's own fronts (one copy per level part, no transfer at
  all), or on a node the devices' packed shares of a level (one copy
  per level part and source device, peers' over the node's link).  A
  ``memory_budget`` keeps only the levels that fit resident;
  the rest fall back to the seed's streaming uploads (upload, use,
  free) — mirroring the out-of-core factorization mode.

Bitwise-identity contract
-------------------------
The planned path must produce solutions bitwise identical to the naive
per-front reference in :mod:`repro.sparse.numeric.gpu_solve`:

* the rehearsed permutation replays the exact swap sequence, so the
  single gather equals the row-by-row swaps;
* both paths apply every front's interchanges before the forward
  sweep's first level (the separator ranges are disjoint), so a front's
  updates subtract into ``posmap`` of its ancestors' rows: each row
  receives the same subtractions in the same order as when its front
  pivots just before its own triangle solve, and the backward sweep
  reads the fully permuted vector either way;
* stacked 3-D ``np.matmul`` equals the per-matrix 2-D product (the
  engine's contract); the inner-product shape (``m = nrhs = 1``) stays
  per-matrix;
* the forward scatter's ``np.subtract.at`` is order-sensitive when two
  same-level fronts update the same ancestor row.  The plan partitions
  the concatenated update positions into *rounds*: round ``r`` holds the
  ``r``-th occurrence of every row, so within a round the rows are
  unique (plain vectorized subtract) and across rounds each row receives
  its contributions in front order — the exact sequence of the
  per-front ``np.subtract.at`` loop.  Almost all levels need one round.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ...batched.engine import BatchEngine, split_k_partials
from ...batched.interface import IrrBatch
from ...device.kernel import tile_blocks
from ...device.memory import DeviceOutOfMemory, pack_to_device, \
    validate_memory_budget
from ...device.simulator import Device
from ...errors import FactorsReleased
from ..symbolic.analysis import SymbolicFactorization
from .factors import MultifrontalFactors
from .report import check_factors_ok

__all__ = ["SolveLayout", "SolvePlan", "DeviceFactorCache",
           "LevelSolvePlan", "SolveBucket", "LevelFactorBlocks"]


@dataclass
class SolveBucket:
    """One (upd_size, sep_size) shape class of a level's active fronts.

    All member fronts share the update-GEMM shapes, so their ``f21`` /
    ``f12`` blocks stack into contiguous ``(bs, u, s)`` / ``(bs, s, u)``
    arrays and their gathers/scatters become single fancy-index
    operations through the precomputed global row matrices.
    """

    u: int
    s: int
    fids: np.ndarray          #: member front ids (front order)
    sep_start: np.ndarray     #: per member, first global sep row
    seg_start: np.ndarray     #: per member, start into the level's
    #: concatenated update positions
    sep_mat: np.ndarray       #: (bs, s) global sep rows
    sep_flat: np.ndarray      #: (bs*s,) flattened ``sep_mat``
    upd_mat: np.ndarray       #: (bs, u) global update rows
    out_pos: np.ndarray       #: (bs*u,) positions into the delta buffer

    @property
    def batch_size(self) -> int:
        return len(self.fids)


@dataclass
class LevelSolvePlan:
    """Precomputed execution structure of one assembly-tree level.

    A :class:`SolveLayout` level carries the structure only; its
    :class:`SolvePlan` copy remaps the scatter ``rounds`` to where the
    pivoted rows sit (:attr:`SolvePlan.posmap`).
    """

    fids: list[int]           #: fronts with ``sep_size > 0``, front order
    sep_m: np.ndarray         #: per-front separator sizes (int64)
    sep_starts: np.ndarray    #: per-front first global sep row
    max_sep: int
    # update structure (fronts with ``upd_size > 0`` only)
    upd_rows: np.ndarray      #: concatenated global update rows
    rounds: list[tuple[np.ndarray, np.ndarray]]  #: (rows, positions)
    buckets: list[SolveBucket] = field(default_factory=list)
    # integer cost totals the naive loop recounts front by front
    sum_us: int = 0           #: Σ upd·sep over active fronts
    sum_u: int = 0            #: Σ upd over active fronts
    sum_s_active: int = 0     #: Σ sep over active fronts
    upd_tiles: int = 0        #: Σ ⌈upd/32⌉·⌈sep/32⌉ over active fronts
    scatter_partials: int = 0  #: split-K partials of ``f21 @ y``
    gather_partials: int = 0   #: split-K partials of ``f12 @ x``

    @property
    def nfronts(self) -> int:
        return len(self.fids)

    @property
    def elements(self) -> int:
        """Factor elements the level holds (f11 + f21 + f12)."""
        return int(np.sum(self.sep_m * self.sep_m) + 2 * self.sum_us)


def _build_rounds(upd_rows: np.ndarray
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition concatenated update positions into conflict-free rounds.

    Position ``i`` lands in round ``occ(i)`` = how many earlier positions
    target the same global row.  A stable sort keeps equal rows in front
    order, so round ``r`` holds every row's ``r``-th contribution and the
    per-row application order matches the sequential reference exactly.
    """
    n = len(upd_rows)
    if n == 0:
        return []
    order = np.argsort(upd_rows, kind="stable")
    sorted_rows = upd_rows[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_rows[1:] != sorted_rows[:-1]
    idx = np.arange(n, dtype=np.int64)
    group_start = idx[new_group][np.cumsum(new_group) - 1]
    occ = np.empty(n, dtype=np.int64)
    occ[order] = idx - group_start
    n_rounds = int(occ.max()) + 1
    return [(upd_rows[occ == r], np.nonzero(occ == r)[0])
            for r in range(n_rounds)]


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class SolveLayout:
    """The per-level structure of the solve sweeps, from the symbolic
    analysis alone.

    Levels hold the fronts with ``sep_size > 0``, deepest level first;
    ``level_of_depth`` maps a tree depth (``FrontInfo.level``) to its
    level index.  :class:`~repro.sparse.solver.SparseLU` builds one per
    :meth:`~repro.sparse.solver.SparseLU.analyze` and reuses it across
    ``update_values``.
    """

    def __init__(self, symb: SymbolicFactorization):
        self.symb = symb
        self.levels: list[LevelSolvePlan] = []
        self.level_of_depth: dict[int, int] = {}
        for fids in symb.levels():
            depth = symb.fronts[fids[0]].level
            fids = [f for f in fids if symb.fronts[f].sep_size > 0]
            if fids:
                self.level_of_depth[depth] = len(self.levels)
                self.levels.append(self._build_level(fids))

    def _build_level(self, fids: list[int]) -> LevelSolvePlan:
        infos = [self.symb.fronts[f] for f in fids]
        sep_m = np.array([i.sep_size for i in infos], dtype=np.int64)
        sep_starts = np.array([i.sep_begin for i in infos], dtype=np.int64)

        # Active fronts (upd_size > 0): concatenated update rows, the
        # scatter rounds, and the (u, s) shape buckets.
        act = [(i, info) for i, info in enumerate(infos) if info.upd_size]
        upd_rows = _cat([info.upd for _i, info in act])
        seg_starts = np.zeros(len(act), dtype=np.int64)
        if act:
            sizes = np.array([info.upd_size for _i, info in act],
                             dtype=np.int64)
            seg_starts[1:] = np.cumsum(sizes)[:-1]

        lp = LevelSolvePlan(
            fids=fids, sep_m=sep_m, sep_starts=sep_starts,
            max_sep=int(sep_m.max()),
            upd_rows=upd_rows, rounds=_build_rounds(upd_rows))
        if act:
            shapes = np.array([[info.upd_size, info.sep_size]
                               for _i, info in act], dtype=np.int64)
            uniq, inv = np.unique(shapes, axis=0, return_inverse=True)
            inv = inv.ravel()
            for g in range(len(uniq)):
                members = np.nonzero(inv == g)[0]
                u, s = int(uniq[g, 0]), int(uniq[g, 1])
                b_sep = sep_starts[[act[m][0] for m in members]]
                b_seg = seg_starts[members]
                sep_mat = b_sep[:, None] + np.arange(s, dtype=np.int64)
                upd_pos = b_seg[:, None] + np.arange(u, dtype=np.int64)
                lp.buckets.append(SolveBucket(
                    u=u, s=s,
                    fids=np.array([fids[act[m][0]] for m in members],
                                  dtype=np.int64),
                    sep_start=b_sep, seg_start=b_seg,
                    sep_mat=sep_mat, sep_flat=sep_mat.reshape(-1),
                    upd_mat=upd_rows[upd_pos],
                    out_pos=upd_pos.reshape(-1)))
            u, s = shapes[:, 0], shapes[:, 1]
            lp.sum_us = int(np.sum(u * s))
            lp.sum_u = int(np.sum(u))
            lp.sum_s_active = int(np.sum(s))
            lp.upd_tiles = tile_blocks(u, s)
            lp.scatter_partials = split_k_partials(u, s)
            lp.gather_partials = split_k_partials(s, u)
        return lp


class SolvePlan:
    """Per-level execution plan built once from the numeric factors.

    Rehearses the factors' pivots over a :class:`SolveLayout` (built
    here unless one is passed) into one global row gather: the
    separator ranges are disjoint, so every front's interchanges apply
    in the forward sweep's single ``solve:pivots`` launch.  ``posmap``
    says where each row's value sits once they have, and the plan's
    copy of each level remaps its scatter ``rounds`` through it, so a
    front's updates land on its ancestors' rows after their pivoting.
    Owns a :class:`~repro.batched.engine.BatchEngine` so the TRSM/DCWI
    plans cached during the first solve are reused by every later solve
    (including the refinement passes of one ``SparseLU.solve`` call).
    """

    def __init__(self, factors: MultifrontalFactors, *,
                 engine: BatchEngine | None = None,
                 layout: SolveLayout | None = None):
        check_factors_ok(factors, "build a solve plan")
        self.factors = factors
        self.symb = factors.symb
        if layout is None:
            layout = SolveLayout(self.symb)
        elif layout.symb is not self.symb:
            raise ValueError("the layout belongs to another symbolic "
                             "analysis")
        self.layout = layout
        self.engine = engine if isinstance(engine, BatchEngine) \
            else BatchEngine()
        self.dtype = factors.dtype

        # Each level's swap sequences replayed at once: row ``r`` of its
        # front ``i`` ends up holding the front's row ``perm[i, r]``.
        dst, src, swaps = [], [], 0
        for lp in layout.levels:
            perm, sw = BatchEngine._rehearse_permutation(
                factors.pivots(lp.fids), lp.max_sep)
            fi, r = np.nonzero(perm != np.arange(lp.max_sep))
            dst.append(lp.sep_starts[fi] + r)
            src.append(lp.sep_starts[fi] + perm[fi, r])
            swaps += int(sw.sum())
        #: global rows that move, and their source rows after all swaps
        self.piv_dst, self.piv_src = _cat(dst), _cat(src)
        self.swaps_total = swaps    #: off-diagonal pivots (cost parity)
        #: Σ ⌈sep/32⌉ over every front (the ``solve:pivots`` grid)
        self.sep_tiles = sum(tile_blocks(lp.sep_m, 1)
                             for lp in layout.levels)
        #: where each row's value sits once the interchanges are applied
        self.posmap = np.arange(self.symb.n, dtype=np.int64)
        self.posmap[self.piv_src] = self.piv_dst
        self.levels = [replace(lp, rounds=[(self.posmap[rows], pos)
                                           for rows, pos in lp.rounds])
                       for lp in layout.levels]

    # ------------------------------------------------------------------
    def level_nbytes(self, lp: LevelSolvePlan) -> int:
        """Device bytes a resident level holds (f11 + stacked f21/f12)."""
        return np.dtype(self.dtype).itemsize * lp.elements

    def total_nbytes(self) -> int:
        return sum(self.level_nbytes(lp) for lp in self.levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SolvePlan(levels={len(self.levels)}, "
                f"bytes={self.total_nbytes()})")


class LevelFactorBlocks:
    """One level's factor blocks on the device.

    ``f11`` is an :class:`IrrBatch` (consumed by irrTRSM); ``f21_stacks``
    / ``f12_stacks`` are per-bucket contiguous 3-D stacks, parallel to
    ``LevelSolvePlan.buckets``.  Parts are uploaded lazily: a streamed
    forward pass needs only ``f11`` + ``f21``.  A packed level part is
    one allocation whose members are views (their ``base`` owns it);
    :func:`pack_level` also maps each packed front to its blocks in
    :attr:`views`.
    """

    def __init__(self) -> None:
        self.f11: IrrBatch | None = None
        self.f21_stacks: list | None = None
        self.f12_stacks: list | None = None
        #: front id -> its ``(f11, f21, f12)`` views (set by a pack)
        self.views: dict = {}

    def free(self) -> None:
        """Release the level's device memory (idempotent)."""
        arrays = list(self.f11.arrays) if self.f11 is not None else []
        for stacks in (self.f21_stacks, self.f12_stacks):
            arrays += stacks or []
        for arr in arrays:
            (arr.base or arr).free()
        self.f11 = self.f21_stacks = self.f12_stacks = None
        self.views = {}

    def __enter__(self) -> "LevelFactorBlocks":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


def pack_level(device: Device, lp: LevelSolvePlan, blocks: dict, *,
               node=None) -> LevelFactorBlocks:
    """Pack the fronts of level ``lp`` that ``blocks`` holds into
    ``device`` memory, in layout order.

    ``blocks`` maps a front id to its ``(f11, f21, f12)`` device views:
    on ``device`` or, with ``node``, on any member of it.  Each level
    part (the f11 blocks, the f21 stacks, the f12 stacks) takes one
    :func:`pack_to_device` call: one allocation, filled by one copy per
    source device (a ``solve:pack`` kernel here, a peer copy over the
    node's link from a peer).  The result's ``views`` maps the same
    fronts to their new blocks in the same form, so a device's share of
    a level can itself be packed into a store.  A failed pack leaves
    nothing behind.
    """
    at = [i for i, f in enumerate(lp.fids) if f in blocks]
    fids = [lp.fids[i] for i in at]
    members = [m for m in ([f for f in b.fids if f in blocks]
                           for b in lp.buckets) if m]
    out = LevelFactorBlocks()
    try:
        f11 = pack_to_device(device, [[blocks[f][0]] for f in fids],
                             node=node)
        out.f11 = IrrBatch(device, [st[0] for st in f11], lp.sep_m[at],
                           lp.sep_m[at])
        out.f21_stacks, out.f12_stacks = [], []
        if members:
            out.f21_stacks = pack_to_device(device, [
                [blocks[f][1] for f in m] for m in members], node=node)
            out.f12_stacks = pack_to_device(device, [
                [blocks[f][2] for f in m] for m in members], node=node)
    except BaseException:
        out.free()
        raise
    out.views = {f: (a, None, None) for f, a in zip(fids, out.f11.arrays)}
    for m, s21, s12 in zip(members, out.f21_stacks, out.f12_stacks):
        for j, f in enumerate(m):
            out.views[f] = (out.views[f][0], s21[j], s12[j])
    return out


class _ReleasedStore:
    """A factors' ``store`` once :meth:`DeviceFactorCache.release`
    dropped blocks only the store held: reading them raises.  It also
    breaks the factors <-> store cycle, so the old factors' host blocks
    are freed as soon as nothing else holds them."""

    def download(self) -> None:
        raise FactorsReleased("factor blocks were released on the device "
                              "without a download; re-factor")


def _download_part(views: list) -> list[np.ndarray]:
    """One D2H transfer of a packed level part, split host-side into
    arrays shaped like its ``views``."""
    flat = views[0].base.to_host()
    out, off = [], 0
    for v in views:
        out.append(flat[off:off + v.data.size].reshape(v.shape))
        off += v.data.size
    return out


class DeviceFactorCache:
    """Device-resident factor storage shared across repeated solves.

    ``plan`` is a :class:`SolvePlan` or its :class:`SolveLayout`.
    ``memory_budget=None`` keeps every level resident (the first solve
    uploads each level once; later solves — including iterative
    refinement — perform **zero** factor uploads).  A positive integer
    budget keeps only the levels that fit (chosen smallest-first, which
    maximizes the resident level count and hence the per-solve transfer
    round-trips saved); other budgets raise :class:`ValueError`.
    Non-resident levels are streamed per use exactly like the seed path
    (the internal ``_stream_all`` flag forces that mode for one-shot
    solves).

    As a factorization's *store* (``factors=None``, passed as
    ``store=`` to :func:`~repro.sparse.numeric.gpu_factor.
    multifrontal_factor_gpu` or :func:`~repro.sparse.numeric.shard.
    multifrontal_factor_sharded`), the cache is filled by
    :meth:`pack` instead: each level's blocks are copied device to
    device from the factorization's fronts (on a node, from each
    device's share of the level, peers' over the node's link), and the
    cache then backs the factors it returns.  Those levels exist only on the device until
    :meth:`download` brings them to the host factors — on the first read
    of ``factors.fronts``, and before :meth:`free`, a budget or device
    change (``SparseLU`` frees the old cache) or an :meth:`evict_lru`
    drops them.  :meth:`release` drops them without a download.

    Under memory pressure the cache *spills*: when an upload hits a
    :class:`~repro.device.memory.DeviceOutOfMemory`, the least recently
    used uploaded level is evicted (its host factors stay authoritative,
    so nothing is lost) and the upload retried; each eviction is
    recorded as a ``cache-evict`` in ``device.recovery_log``.  Evicted
    levels drop back to streaming for later acquires.

    Ownership: the cache is a *shared* resource — one
    :class:`~repro.sparse.solver.SparseLU` handle may be solved from
    several threads (a serving layer multiplexes many sessions onto one
    device).  Every mutating entry point (:meth:`acquire`,
    :meth:`evict_lru`, :meth:`free`, :meth:`download`,
    :meth:`release`) takes the cache's re-entrant lock, and a whole
    solve brackets itself with :meth:`exclusive` so a concurrent solve
    on the same handle cannot interleave its uploads with this solve's
    evictions (the interleaving that used to corrupt residency
    bookkeeping).  The lock serializes solves per handle; distinct
    handles (distinct caches) proceed independently.
    """

    def __init__(self, device: Device,
                 factors: MultifrontalFactors | None,
                 plan: "SolvePlan | SolveLayout", *,
                 memory_budget: int | None = None,
                 _stream_all: bool = False):
        check_factors_ok(factors, "cache factors on the device")
        self.device = device
        self.factors = factors
        self.layout = plan.layout if isinstance(plan, SolvePlan) else plan
        self.memory_budget = validate_memory_budget(memory_budget)
        self._stream_all = bool(_stream_all)
        self.uploads = 0          #: level-part upload events
        self.hits = 0             #: resident re-uses
        self.evictions = 0        #: OOM-pressure spills
        self._resident: dict[int, LevelFactorBlocks] = {}
        self._packed: set[int] = set()    # resident, not on the host
        self._lost: set[int] = set()      # released while packed
        self._tick = 0
        self._last_use: dict[int, int] = {}
        self._lock = threading.RLock()
        self._resident_set = self._choose_resident()

    @contextmanager
    def exclusive(self):
        """Hold the cache for one logical operation (e.g. a full solve).

        Re-entrant: the per-call locking inside :meth:`acquire` /
        :meth:`evict_lru` / :meth:`free` nests freely under it.
        """
        with self._lock:
            yield self

    # ------------------------------------------------------------------
    def _level_nbytes(self, li: int) -> int:
        return self.factors.dtype.itemsize * self.layout.levels[li].elements

    def _choose_resident(self) -> set[int]:
        if self._stream_all:
            return set()
        if self.memory_budget is None:
            return set(range(len(self.layout.levels)))
        chosen: set[int] = set()
        used = 0
        for nb, li in sorted((self._level_nbytes(li), li)
                             for li in range(len(self.layout.levels))):
            if used + nb <= self.memory_budget:
                chosen.add(li)
                used += nb
        return chosen

    def evict_lru(self, *, exclude: int | None = None) -> int | None:
        """Spill the least recently used uploaded level; return its index.

        The level's device blocks are freed (downloaded to the host
        factors first if they exist only here) and the level drops out
        of the resident set, so later acquires stream it.  Returns
        ``None`` when nothing is uploaded to evict.
        """
        with self._lock:
            candidates = [li for li in self._resident if li != exclude]
            if not candidates:
                return None
            li = min(candidates, key=lambda li: self._last_use.get(li, -1))
            if li in self._packed:
                self._download_level(li)
            self._resident.pop(li).free()
            self._resident_set.discard(li)
            self._last_use.pop(li, None)
            self.evictions += 1
        self.device.recovery_log.record(
            "cache-evict", site="DeviceFactorCache",
            detail=f"level {li} ({self._level_nbytes(li)} bytes)")
        return li

    @property
    def resident_levels(self) -> set[int]:
        """Levels whose blocks are allocated on the device now."""
        return set(self._resident)

    @property
    def resident_nbytes(self) -> int:
        """Device bytes the allocated levels hold."""
        return sum(self._level_nbytes(li) for li in self._resident)

    # ------------------------------------------------------------------
    def pack(self, li: int, blocks: dict, *, node=None) -> None:
        """Pack level ``li`` from a factorization's device blocks.

        ``blocks`` maps every front of the level to its ``(f11, f21,
        f12)`` device views: views into the factorization's front
        buffers on the store's device, or, with ``node``, the devices'
        shares of the level on any member of it (see
        :func:`pack_level`: one allocation per level part, one copy per
        source device).  The level is then resident and exists only here
        until :meth:`download`.  A failed pack leaves nothing behind.
        """
        lp = self.layout.levels[li]
        if any(f not in blocks for f in lp.fids):
            raise ValueError(f"level {li}: blocks must cover every front")
        blocks = pack_level(self.device, lp, blocks, node=node)
        with self._lock:
            self._resident[li] = blocks
            self._packed.add(li)

    def _download_level(self, li: int) -> None:
        """D2H level ``li``'s packed parts (one transfer each) into its
        fronts' host records, each block its own array as a per-front
        download gives; the level stays resident."""
        lp = self.layout.levels[li]
        blocks = self._resident[li]
        f11 = _download_part(blocks.f11.arrays)
        f21 = _download_part(blocks.f21_stacks) if lp.buckets else []
        f12 = _download_part(blocks.f12_stacks) if lp.buckets else []
        records = self.factors._fronts
        for f, blk in zip(lp.fids, f11):
            rec = records[f]
            rec.f11 = blk.copy()
            rec.f21 = np.empty((0, blk.shape[0]), dtype=blk.dtype)
            rec.f12 = np.empty((blk.shape[0], 0), dtype=blk.dtype)
        for b, s21, s12 in zip(lp.buckets, f21, f12):
            for j, f in enumerate(b.fids):
                records[f].f21 = s21[j].copy()
                records[f].f12 = s12[j].copy()
        self._packed.discard(li)

    def bind(self, factors: MultifrontalFactors) -> None:
        """Make this store back ``factors``, the result of the
        factorization that packed into it: while levels exist only
        here, reading ``factors.fronts`` downloads them."""
        with self._lock:
            self.factors = factors
            factors.store = self if self._packed else None

    def download(self) -> None:
        """Bring every level that exists only on the device to the host
        factors (one D2H transfer per level part, once); the levels stay
        resident.  Raises :class:`~repro.errors.FactorsReleased` when
        :meth:`release` dropped such levels, and the typed
        :class:`~repro.errors.TransferError` when a transfer keeps
        failing (the levels not yet down stay packed)."""
        with self._lock:
            if self._lost:
                raise FactorsReleased(
                    f"{len(self._lost)} factor level(s) were released on "
                    f"the device without a download; re-factor")
            self._download_packed()

    def _download_packed(self) -> None:
        for li in sorted(self._packed):
            self._download_level(li)

    def release(self) -> None:
        """Free all device memory without downloading.  Levels that
        existed only on the device are lost: reading the blocks of the
        factors they back raises :class:`~repro.errors.FactorsReleased`.
        """
        with self._lock:
            if self.factors is not None and self._packed:
                self._lost |= self._packed
                self.factors.store = _ReleasedStore()
            self._packed.clear()
            self._free_resident()

    # ------------------------------------------------------------------
    def _host_fronts(self, li: int) -> list:
        """Level ``li``'s host records.  Read directly, so streaming a
        level never downloads the levels still packed here."""
        if li in self._lost:
            raise FactorsReleased(
                f"factor level {li} was released on the device without "
                f"a download; re-factor")
        return [self.factors._fronts[f] for f in self.layout.levels[li].fids]

    def _upload_f11(self, li: int) -> IrrBatch:
        lp = self.layout.levels[li]
        arrays = []
        try:
            for rec in self._host_fronts(li):
                arrays.append(self.device.from_host(rec.f11))
        except BaseException:
            for a in arrays:
                a.free()
            raise
        return IrrBatch(self.device, arrays, lp.sep_m, lp.sep_m)

    def _upload_stacks(self, li: int, which: str) -> list:
        """Pack one bucket's f21/f12 blocks and upload in one transfer."""
        records = self.factors._fronts
        stacks = []
        try:
            for b in self.layout.levels[li].buckets:
                blocks = [getattr(records[f], which) for f in b.fids]
                stacks.append(pack_to_device(self.device, blocks,
                                             dtype=self.factors.dtype))
        except BaseException:
            for s in stacks:
                s.free()
            raise
        return stacks

    def _acquire_once(self, li: int,
                      part: str) -> tuple[LevelFactorBlocks, bool]:
        if li in self._resident_set:
            blocks = self._resident.get(li)
            if blocks is None:
                blocks = LevelFactorBlocks()
                try:
                    blocks.f11 = self._upload_f11(li)
                    blocks.f21_stacks = self._upload_stacks(li, "f21")
                    blocks.f12_stacks = self._upload_stacks(li, "f12")
                except BaseException:
                    blocks.free()
                    raise
                self._resident[li] = blocks
                self.uploads += 1
            else:
                self.hits += 1
            self._tick += 1
            self._last_use[li] = self._tick
            return blocks, False
        blocks = LevelFactorBlocks()
        try:
            blocks.f11 = self._upload_f11(li)
            if part == "fwd":
                blocks.f21_stacks = self._upload_stacks(li, "f21")
            else:
                blocks.f12_stacks = self._upload_stacks(li, "f12")
        except BaseException:
            blocks.free()
            raise
        self.uploads += 1
        return blocks, True

    def acquire(self, li: int, part: str) -> tuple[LevelFactorBlocks, bool]:
        """Get level ``li``'s blocks for one sweep direction.

        ``part`` is ``"fwd"`` (needs f11 + f21) or ``"bwd"`` (f11 + f12).
        Returns ``(blocks, owned)``; an *owned* result is streamed and
        must be freed by the caller after use (it supports the context
        manager protocol for that).  An upload that hits device OOM
        spills resident levels LRU-first and retries; the OOM propagates
        only once nothing is left to evict.  A failed acquire never
        leaves a partial upload behind.
        """
        if part not in ("fwd", "bwd"):
            raise ValueError(f"invalid part {part!r}")
        with self._lock:
            while True:
                try:
                    return self._acquire_once(li, part)
                except DeviceOutOfMemory:
                    if self.evict_lru(exclude=li) is None:
                        raise

    def free(self) -> None:
        """Release all resident device memory (the cache stays usable):
        levels that exist only on the device are downloaded first."""
        with self._lock:
            self._download_packed()
            self._free_resident()

    def _free_resident(self) -> None:
        for blocks in self._resident.values():
            blocks.free()
        self._resident.clear()
        self._last_use.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeviceFactorCache(levels={len(self.layout.levels)}, "
                f"resident={len(self._resident)}, "
                f"packed={len(self._packed)}, uploads={self.uploads}, "
                f"hits={self.hits}, evictions={self.evictions})")
