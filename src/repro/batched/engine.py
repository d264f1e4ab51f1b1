"""Shape-bucketed vectorized execution engine + DCWI plan cache.

The ``irr_*`` kernels are semantically "one launch for the whole batch",
but the simulator executes each launch with a per-matrix Python loop that
re-runs DCWI inference for every matrix at every blocked step — so host
wall-clock scales as O(batch × panels) in interpreter overhead.  This
module removes that overhead without changing a single bit of output:

* **DCWI plan cache** (:class:`PlanCache`): workload inference is a pure
  function of ``(required dims, local dims, offsets, trans/side flags)``.
  ``irr_getrf``'s offset schedule is fixed, so each signature's inference
  — vectorized over the whole batch by the ``*_batch`` functions in
  :mod:`repro.batched.dcwi` — is computed once per factorization and
  reused, keyed by :attr:`IrrBatch.dims_key` (so batches with identical
  local dims, e.g. successive levels of a multifrontal traversal, share
  plans too).

* **Shape-bucketed dispatch** (:class:`BatchEngine`): matrices whose
  inferred workload shapes match are stacked into one contiguous
  ``(bucket, m, n)`` array and executed with a single vectorized NumPy
  call — one ``np.matmul`` per GEMM bucket.  Panel launches group their
  matrices by row class (uniform and mixed shapes alike) into zero-padded
  batch-last ``(W, R, bs)`` slabs and run one right-looking elimination
  per slab: per pivot column one pivot search, one row swap, one scale
  and one rank-1 update of the whole trailing slab — the batch-last
  layout of the interleaved solvers (paper §II), with every step
  vectorized over the batch.  Singleton groups fall back to the
  per-matrix reference kernel.

Bitwise-identity contract
-------------------------
``engine="bucketed"`` must produce factors, pivots **and** simulated
``KernelCost`` totals bitwise identical to ``engine="naive"``:

* stacked 3-D ``np.matmul`` equals the per-matrix 2-D product (same
  elementwise FMA sequence per output element);
* the slab elimination applies, to every real element, the scalar
  loop's elementwise sequence (argmax, row swap, divide, rank-1
  subtract) in the same order, so each matrix's factors match exactly.
  Zero padding keeps pad rows and columns out of every real value; a
  matrix past its last pivot column masks only its pivot index and
  divisor, and a matrix whose pivot broke down unrecovered has its
  rank-1 factors zeroed for that column.  If a non-finite value leaks
  into the padding and wins a pivot search, the slab is discarded and
  its matrices re-run through the scalar kernel.  The running
  ``min_pivot`` uses ``fmin``, which skips a NaN pivot exactly as the
  scalar loop's ``<`` test does;
* TRSM base-case solves stay **per matrix** in both engines: LAPACK's
  blocked ``trsm`` accumulation order cannot be reproduced bitwise by a
  stacked substitution, so bucketing only amortizes the inference and
  accounting, never the solve itself;
* integer-valued cost sums (flops, bytes, blocks) are order-independent
  in IEEE double below 2^53; the one non-integer accumulator (the
  flop-weighted GEMM ramp) is summed sequentially in ascending matrix
  order, matching the naive loop's ``+=`` order.
"""

from __future__ import annotations

import threading

import numpy as np

from ..device.kernel import TILE, KernelCost, gemm_compute_ramp, \
    tile_blocks
from .dcwi import WORKLOAD_NONE, infer_gemm_batch, infer_trsm_batch
from .panel import PanelPivots, factor_panel_block

__all__ = ["BatchEngine", "PlanCache", "resolve_engine",
           "MIN_BUCKET", "PAD_BYTES_LIMIT", "PLAN_CACHE_CAPACITY",
           "solve_pivots_cost",
           "solve_update_cost", "split_k_partials", "trsm_base_work",
           "trsm_base_smem", "trsm_stream_order", "trsm_base_cost"]

#: buckets smaller than this run the per-matrix fallback path — stacking
#: a single matrix costs a copy and buys nothing.
MIN_BUCKET = 2

#: ceiling on the scratch a padded panel super-bucket may allocate; above
#: it the engine falls back to the scalar per-matrix elimination.
PAD_BYTES_LIMIT = 1 << 28  # 256 MiB

#: rows a rehearsed-LASWP gather block moves through shared memory at
#: once (a ``_LASWP_CHUNK_ROWS × 32`` tile of doubles).
_LASWP_CHUNK_ROWS = 32

#: row-class granularity of the padded panel groups: matrices are padded
#: to the next multiple of this many rows, bounding padding waste while
#: keeping the group count (and per-group dispatch overhead) small.
ROW_CLASS = 32

#: LRU bound of a long-lived engine's plan cache (a service device's,
#: or a ``SparseLU`` handle's).  One Maxwell n=12 re-factor and its
#: solves use 239 plans; coalesced traffic rarely repeats a size vector,
#: so an unbounded cache would grow with it.
PLAN_CACHE_CAPACITY = 1024

#: a pivot replay (:meth:`BatchEngine._rehearse_permutation`) with
#: fewer moves than this per row that some member moves swaps member by
#: member in Python (~0.25 µs a move); with more, one vectorized step
#: per such row moves every member at once (~8 NumPy calls, ~10 µs).
#: Maxwell's LASWP windows, F12 pivots and solve plans fall below it;
#: Fig 10's 500-matrix LASWP windows (~480 moves a row) stay above.
_REPLAY_MOVES_PER_ROW = 40

#: element count of one padded-panel batch chunk (~4 MiB of doubles).
#: The chunk and its rank-1 product scratch (at most the same size) stay
#: cache-resident across every column of the elimination, so the slab is
#: streamed from main memory once per panel rather than once per column.
_PANEL_CHUNK_ELEMS = 1 << 19


class PlanCache:
    """Memoized DCWI inference plans, keyed by workload signature.

    Keys are ``(kind, flags..., required dims, offsets, dims_key...)``
    tuples; values are the immutable plan objects built by
    :class:`BatchEngine`.  ``hits``/``misses`` expose the reuse rate (a
    blocked factorization should miss once per distinct offset signature
    and hit every later panel iteration).

    The cache is bounded: with ``capacity=k`` it keeps the ``k`` most
    recently used plans and evicts least-recently-used entries beyond
    that (``evictions`` counts them), so a long-lived service facing
    unbounded shape diversity cannot grow plans without limit.
    ``capacity=None`` disables the bound.  All operations are
    thread-safe; concurrent ``get_or_build`` calls for the same key may
    both build, but they return equal plans (builds are pure functions
    of the key) and the counters stay coherent.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, "
                             f"got {capacity}")
        from collections import OrderedDict
        self.capacity = capacity
        self._plans: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def get_or_build(self, key, build):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        # Build outside the lock: plans are pure functions of the key,
        # so a racing duplicate build is wasted work, never wrong.
        plan = build()
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            if self.capacity is not None:
                while len(self._plans) > self.capacity:
                    self._plans.popitem(last=False)
                    self.evictions += 1
        return plan


def resolve_engine(engine) -> "BatchEngine | None":
    """Normalize an ``engine=`` argument to a :class:`BatchEngine` or None.

    ``None`` / ``"naive"`` → None (per-matrix reference path);
    ``"bucketed"`` → a fresh engine; a :class:`BatchEngine` instance is
    passed through, so drivers can share one plan cache across many
    kernel calls.
    """
    if engine is None or engine == "naive":
        return None
    if isinstance(engine, BatchEngine):
        return engine
    if engine == "bucketed":
        return BatchEngine()
    raise ValueError(f"unknown engine {engine!r}; choose 'bucketed', "
                     f"'naive', None or a BatchEngine")


def _ceil_div(x: np.ndarray, d: int) -> np.ndarray:
    return -(-x // d)


# ----------------------------------------------------------------------
# irrTRSM base-case cost, shared by the naive loop in
# repro.batched.trsm and exec_trsm_base below.
# ----------------------------------------------------------------------

def trsm_base_work(order, rhs) -> tuple[float, int, int, int, int]:
    """Integer totals of one base launch over its written members.

    ``order``/``rhs`` hold each member's triangle order and right-hand-
    side count.  Returns ``(flops, Σ order², Σ order²·⌈rhs/TILE⌉,
    Σ order·rhs, blocks)``: the second counts the triangle once, the
    third once per 32-column tile of ``x`` (a streamed triangle is read
    by every column tile's block), and ``blocks`` is
    ``tile_blocks(1, rhs)``.
    """
    order = np.asarray(order, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64)
    ord2 = order * order
    return (float(np.sum(ord2 * rhs)), int(np.sum(ord2)),
            int(np.sum(ord2 * _ceil_div(rhs, TILE))),
            int(np.sum(order * rhs)), tile_blocks(1, rhs))


def trsm_base_smem(order_req: int, rhs_req: int, itemsize: int) -> int:
    """Shared memory of a base launch whose order exceeds ``TILE``: one
    diagonal tile plus the block's ``order×TILE`` column tile of ``x``."""
    return (TILE * TILE + order_req * min(rhs_req, TILE)) * itemsize


def trsm_stream_order(spec, rhs_req: int, itemsize: int) -> int:
    """The largest triangle order whose streamed base launch with
    ``rhs_req`` right-hand sides fits in ``spec.max_shared_per_block``
    (:func:`trsm_base_smem`'s inequality, solved for the order).

    The one fit rule behind every ``base_nb`` above ``TILE``: the
    factorization's F12/F21 solves (``rhs_req = TILE``, so any width
    fits) and the solve's per-level rule.  FP64 with 32 right-hand
    sides: 620 rows on the A100, 224 on the MI100.
    """
    return (spec.max_shared_per_block // itemsize - TILE * TILE) \
        // min(max(rhs_req, 1), TILE)


def trsm_base_cost(spec, order_req: int, rhs_req: int, work,
                   itemsize: int, kernel_class: str,
                   peak_scale: float) -> KernelCost:
    """One ``irr_trsm`` base launch from its :func:`trsm_base_work`.

    A front's triangle is one chain of dependent substitution steps, so
    it stays in one thread block per 32-column tile of ``x``.  Up to
    ``TILE`` the whole triangle sits in shared memory.  Above it the
    block *streams* the triangle from global memory: its column tile of
    ``x`` and one diagonal tile stay in shared memory, the triangle is
    read once per column tile, and the dependent diagonal-tile steps
    run at one tile's GEMM ramp on the block's share of an SM.
    """
    flops, ord2, ord2_tiles, b_elems, blocks = work
    if order_req <= TILE:
        tri = ord2
        smem = min(order_req * order_req * itemsize,
                   spec.max_shared_per_block)
        ramp = gemm_compute_ramp(order_req, order_req, order_req,
                                 halfsize=32.0)
    else:
        tri = ord2_tiles
        smem = trsm_base_smem(order_req, rhs_req, itemsize)
        ramp = gemm_compute_ramp(TILE, TILE, TILE, halfsize=32.0)
    return KernelCost(
        flops=flops, bytes_read=tri * itemsize / 2 + float(b_elems) * itemsize,
        bytes_written=float(b_elems) * itemsize,
        blocks=max(blocks, 1), threads_per_block=128,
        shared_mem_per_block=smem, kernel_class=kernel_class,
        compute_ramp=ramp, peak_scale=peak_scale)


# ----------------------------------------------------------------------
# multifrontal solve-phase costs, shared by the naive closures in
# repro.sparse.numeric.gpu_solve and the planned bodies below: both pass
# the same integer totals, so their records agree bit for bit.
# ----------------------------------------------------------------------

def split_k_partials(rows, k) -> int:
    """Partial-sum elements per right-hand side of split-K products.

    A ``rows×k`` block times ``k×nrhs`` vectors, with one thread block
    per ``TILE``×``TILE`` tile of the ``rows×k`` block, leaves ``⌈k/TILE⌉``
    partial ``rows``-vectors per column whenever K spans more than one
    tile; each is written once and read back once by the reduction.
    Summed over array arguments, like :func:`~repro.device.kernel.
    tile_blocks`.
    """
    kt = _ceil_div(np.asarray(k, dtype=np.int64), TILE)
    return int(np.sum(np.where(kt > 1, kt * np.asarray(rows, np.int64), 0)))


def solve_pivots_cost(swaps: int, sep_tiles: int, nrhs: int,
                      itemsize: int) -> KernelCost:
    """One ``solve:pivots`` launch: ``swaps`` row swaps across every
    front's separator block of ``x``, one thread block per tile of each
    ``sep×nrhs`` block (``sep_tiles`` = Σ ⌈sep/TILE⌉)."""
    nbytes = 4.0 * nrhs * itemsize * swaps
    return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                      blocks=max(sep_tiles * tile_blocks(1, nrhs), 1),
                      kernel_class="swap", memory_ramp=0.3)


def solve_update_cost(sum_us: int, sum_rows: int, tiles: int,
                      partials: int, nrhs: int,
                      itemsize: int) -> KernelCost:
    """One ``solve:scatter``/``solve:gather`` launch.

    The level's fronts stream their update factor blocks (Σ u·s =
    ``sum_us`` elements, ``tiles`` = Σ ⌈u/TILE⌉·⌈s/TILE⌉) against
    ``nrhs`` columns and update ``sum_rows`` rows of ``x``.  The grid
    splits K over the factor blocks' tiles, so it launches ``tiles``
    blocks per ``TILE`` columns, and the ``partials`` elements per column
    (:func:`split_k_partials`) cross memory twice more.
    """
    nbytes = float(sum_us + 2 * sum_rows * nrhs) * itemsize
    pbytes = float(partials * nrhs) * itemsize
    return KernelCost(flops=2.0 * sum_us * nrhs,
                      bytes_read=nbytes * 0.7 + pbytes,
                      bytes_written=nbytes * 0.3 + pbytes,
                      blocks=max(tiles * tile_blocks(1, nrhs), 1),
                      kernel_class="gemm_irr", memory_ramp=0.5)


def laswp_cost(spec, row_bytes: int, window_bytes: int, blocks: int,
               ib: int) -> KernelCost:
    """One rehearsed ``irrlaswp`` launch, the same on both engines.

    The grid has one block per 32-column strip of every matrix with
    pivots in the window and columns in the part (``blocks`` = Σ
    ⌈width/TILE⌉).  Each block reads its matrix's pivot window
    (``window_bytes`` = 8 bytes per pivot per block) and replays it in
    shared memory: an 8-byte source index for each of the at most
    ``2·ib`` rows the window touches, beside one ``_LASWP_CHUNK_ROWS ×
    32`` tile of doubles.  Then it moves its strip of those rows
    (``row_bytes``) through that tile.
    """
    return KernelCost(bytes_read=float(row_bytes + window_bytes),
                      bytes_written=float(row_bytes),
                      blocks=max(blocks, 1), threads_per_block=256,
                      shared_mem_per_block=min(
                          (_LASWP_CHUNK_ROWS * 32 + 2 * ib) * 8,
                          spec.max_shared_per_block),
                      kernel_class="swap", memory_ramp=0.85)


class _GemmPlan:
    __slots__ = ("mi", "ni", "ki", "buckets", "singles", "scales",
                 "flops_mult", "ramp_weighted", "ab_read_elems",
                 "c_mult_elems", "c_scale_elems", "blocks")


class _TrsmPlan:
    __slots__ = ("idx", "order", "mi", "ni", "work")


class _PanelPlan:
    __slots__ = ("chunks", "scalar", "nbytes_elems", "blocks")


class _PanelChunk:
    """One padded ``(W, R, bs)`` slab of a row-class group, with the
    per-column tables its elimination reads (all ``(P, bs)``)."""

    __slots__ = ("idx", "binx", "members", "R", "W", "P", "act",
                 "act_all", "room", "flop_tab", "flops", "base")

    def __init__(self, j: int, idx: np.ndarray, rows: np.ndarray,
                 width: np.ndarray, npiv: np.ndarray, R: int, W: int,
                 P: int) -> None:
        r, w, k = rows[idx], width[idx], npiv[idx]
        cols = np.arange(P)[:, None]
        r1 = r - cols - 1
        self.idx, self.binx = idx, np.arange(len(idx))
        self.members = list(zip(idx.tolist(), r.tolist(), w.tolist(),
                                k.tolist()))
        self.R, self.W, self.P = R, W, P
        #: member still has a pivot at column c
        self.act = cols < k
        self.act_all = self.act.all(axis=1).tolist()
        #: a pivot offset at or past this lands in the member's padding
        #: (never reached by an inactive member, whose offset is masked)
        self.room = np.where(self.act, r - cols, R)
        #: the scalar loop's flops per (column, member) if it proceeds
        self.flop_tab = np.where(self.act & (r1 > 0), r1 + 2 * r1 *
                                 np.maximum(w - cols - 1, 0), 0)
        self.flops = int(self.flop_tab.sum())
        self.base = j + cols


class _LaswpPlan:
    __slots__ = ("length", "npiv", "c0", "c1", "lmax", "blocks",
                 "window_bytes")


class BatchEngine:
    """Plan-cached, shape-bucketed executor for the irregular kernels.

    One engine instance carries one :class:`PlanCache`; drivers create a
    single engine per factorization (or share one across a multifrontal
    traversal) so every panel iteration after the first reuses its plans.
    The per-matrix reference path is ``engine="naive"`` (no engine).
    """

    def __init__(self, *, cache: PlanCache | None = None) -> None:
        self.cache = PlanCache() if cache is None else cache
        self._bufs: dict = {}
        self._lapack: dict = {}

    def clear_plan_caches(self) -> None:
        """Drop cached plans and scratch buffers (host-side backpressure).

        Called by the recovery ladder before restarting a factorization
        under a smaller traversal budget: the new chunking changes the
        level compositions, so the old plans' keys would mostly go cold
        while their buffers pin host memory.
        """
        self.cache.clear()
        self._bufs.clear()

    def _scratch(self, name: str, n: int, dtype) -> np.ndarray:
        """Reusable flat scratch buffer (grown geometrically, never shrunk).

        Reuse keeps the hot panel loop free of large allocations and the
        page faults that come with touching fresh memory every launch.
        """
        buf = self._bufs.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = np.empty(max(n, 2 * (buf.size if buf is not None else 0)),
                           dtype=dtype)
            self._bufs[name] = buf
        return buf[:n]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BatchEngine(plans={len(self.cache)}, "
                f"hits={self.cache.hits}, misses={self.cache.misses})")

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def _gemm_plan(self, transa, transb, m, n, k, A, a_off, B, b_off,
                   C, c_off) -> _GemmPlan:
        key = ("gemm", transa, transb, m, n, k, a_off, b_off, c_off,
               A.dims_key, B.dims_key, C.dims_key)

        def build() -> _GemmPlan:
            mi, ni, ki, cls = infer_gemm_batch(
                transa, transb, m, n, k,
                A.m_vec, A.n_vec, a_off, B.m_vec, B.n_vec, b_off,
                C.m_vec, C.n_vec, c_off)
            active = cls != WORKLOAD_NONE
            mult = active & (ki > 0)
            mult_idx = np.nonzero(mult)[0]
            scale_idx = np.nonzero(active & (ki == 0))[0]

            p = _GemmPlan()
            p.mi, p.ni, p.ki = mi, ni, ki
            p.flops_mult = float(
                2 * np.sum(mi[mult_idx] * ni[mult_idx] * ki[mult_idx]))
            p.ab_read_elems = int(np.sum(
                mi[mult_idx] * ki[mult_idx] + ki[mult_idx] * ni[mult_idx]))
            p.c_mult_elems = int(np.sum(mi[mult_idx] * ni[mult_idx]))
            p.c_scale_elems = int(np.sum(mi[scale_idx] * ni[scale_idx]))
            p.blocks = tile_blocks(mi[active], ni[active])

            buckets: list = []
            single_parts: list = []
            ramp_of = np.empty(0)
            inv = np.empty(0, dtype=np.int64)
            if len(mult_idx):
                # one integer key per (m, n, k), ordered lexicographically
                dims = (mi[mult_idx], ni[mult_idx], ki[mult_idx])
                key = np.ravel_multi_index(
                    dims, tuple(int(d.max()) + 1 for d in dims))
                _keys, first, inv = np.unique(key, return_index=True,
                                              return_inverse=True)
                uniq = [(int(mi[i]), int(ni[i]), int(ki[i]))
                        for i in mult_idx[first]]
                for u, shape in enumerate(uniq):
                    members = mult_idx[inv == u]
                    # m=n=1 is the inner-product shape: NumPy's 2-D path
                    # takes a strided-dot route whose summation order
                    # differs from the stacked 3-D dgemm, so bucketing it
                    # would break bitwise identity with the naive loop.
                    if len(members) >= MIN_BUCKET and \
                            not (shape[0] == 1 and shape[1] == 1):
                        buckets.append((shape, members))
                    else:
                        single_parts.append(members)
                ramp_of = np.array([gemm_compute_ramp(*u) for u in uniq])
            p.buckets = [(shape, members.tolist()) for shape, members
                         in buckets]
            singles = (np.sort(np.concatenate(single_parts))
                       if single_parts else np.empty(0, dtype=np.int64))
            # Pre-resolved python tuples: the exec loop pays no per-launch
            # numpy-scalar conversion cost (plans are cached across panels).
            p.singles = [(int(i), int(mi[i]), int(ni[i]), int(ki[i]))
                         for i in singles]
            p.scales = [(int(i), int(mi[i]), int(ni[i]))
                        for i in scale_idx]

            # The flop-weighted efficiency ramp is the one non-integer
            # accumulator; replicate the naive loop's ascending-index
            # sequential addition exactly.
            rw = 0.0
            if len(mult_idx):
                flops_each = 2.0 * (mi[mult_idx] * ni[mult_idx]
                                    * ki[mult_idx]).astype(np.float64)
                for v in (flops_each * ramp_of[inv]).tolist():
                    rw += v
            p.ramp_weighted = rw
            return p

        return self.cache.get_or_build(key, build)

    def exec_gemm(self, device, transa, transb, m, n, k, alpha,
                  A, a_off, B, b_off, beta, C, c_off,
                  kernel_class: str) -> KernelCost:
        """Bucketed body of one ``irr_gemm`` launch (numerics + cost)."""
        plan = self._gemm_plan(transa, transb, m, n, k, A, a_off, B, b_off,
                               C, c_off)
        itemsize = C.itemsize
        a_sub, b_sub, c_sub = A.sub, B.sub, C.sub
        ao0, ao1 = a_off
        bo0, bo1 = b_off
        co0, co1 = c_off

        # In-place ``multiply``/``add`` below compute the same values as
        # the naive loop's ``alpha*prod + beta*c`` expression (elementwise
        # ops, identical operand order; ``1.0*x`` is bitwise ``x``) while
        # skipping its three temporaries.
        for (bm, bn, bk), idx in plan.buckets:
            ar, ac = (bm, bk) if transa == "N" else (bk, bm)
            br, bc = (bk, bn) if transb == "N" else (bn, bk)
            bs = len(idx)
            a_stack = self._scratch("gemm_a", bs * ar * ac,
                                    C.dtype).reshape(bs, ar, ac)
            b_stack = self._scratch("gemm_b", bs * br * bc,
                                    C.dtype).reshape(bs, br, bc)
            for t, i in enumerate(idx):
                a_stack[t] = a_sub(i, ao0, ao1, ar, ac)
                b_stack[t] = b_sub(i, bo0, bo1, br, bc)
            prod = self._scratch("gemm_p", bs * bm * bn,
                                 C.dtype).reshape(bs, bm, bn)
            np.matmul(_apply_op3(a_stack, transa),
                      _apply_op3(b_stack, transb), out=prod)
            if alpha != 1.0:
                np.multiply(prod, alpha, out=prod)
            if beta == 0.0:
                for t, i in enumerate(idx):
                    c_sub(i, co0, co1, bm, bn)[...] = prod[t]
            elif beta == 1.0:
                for t, i in enumerate(idx):
                    cs = c_sub(i, co0, co1, bm, bn)
                    np.add(prod[t], cs, out=cs)
            else:
                for t, i in enumerate(idx):
                    cs = c_sub(i, co0, co1, bm, bn)
                    np.add(prod[t], beta * cs, out=cs)

        for i, mi, ni, ki in plan.singles:
            ar, ac = (mi, ki) if transa == "N" else (ki, mi)
            br, bc = (ki, ni) if transb == "N" else (ni, ki)
            prod = _apply_op2(a_sub(i, ao0, ao1, ar, ac), transa) @ \
                _apply_op2(b_sub(i, bo0, bo1, br, bc), transb)
            if alpha != 1.0:
                np.multiply(prod, alpha, out=prod)
            cs = c_sub(i, co0, co1, mi, ni)
            if beta == 0.0:
                cs[...] = prod
            elif beta == 1.0:
                np.add(prod, cs, out=cs)
            else:
                np.add(prod, beta * cs, out=cs)

        if beta != 1.0:
            for i, mi, ni in plan.scales:
                cs = c_sub(i, co0, co1, mi, ni)
                if beta == 0.0:
                    cs[...] = 0.0
                else:
                    cs *= beta

        flops = plan.flops_mult
        bytes_r = float(plan.ab_read_elems) * itemsize
        bytes_w = float(plan.c_mult_elems) * itemsize
        if beta != 0.0:
            bytes_r += float(plan.c_mult_elems) * itemsize
        if beta == 0.0:
            bytes_w += float(plan.c_scale_elems) * itemsize
        elif beta != 1.0:
            flops += float(plan.c_scale_elems)
            bytes_r += float(plan.c_scale_elems) * itemsize
            bytes_w += float(plan.c_scale_elems) * itemsize
        ramp = plan.ramp_weighted / flops if flops > 0 else 1.0
        smem = min(2 * TILE * TILE * itemsize,
                   device.spec.max_shared_per_block)
        return KernelCost(
            flops=flops, bytes_read=bytes_r, bytes_written=bytes_w,
            blocks=max(plan.blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class=kernel_class,
            compute_ramp=ramp, peak_scale=C.peak_scale)

    # ------------------------------------------------------------------
    # TRSM base case
    # ------------------------------------------------------------------
    def _trsm_plan(self, side, m, n, T, t_off, B, b_off) -> _TrsmPlan:
        key = ("trsm", side, m, n, t_off, b_off, T.dims_key, B.dims_key)

        def build() -> _TrsmPlan:
            mi, ni, cls = infer_trsm_batch(side, m, n, T.m_vec, T.n_vec,
                                           t_off, B.m_vec, B.n_vec, b_off)
            idx = np.nonzero(cls != WORKLOAD_NONE)[0]
            order = (mi if side == "L" else ni)[idx]
            rhs = (ni if side == "L" else mi)[idx]
            p = _TrsmPlan()
            p.idx = idx
            p.order = order
            p.mi, p.ni = mi[idx], ni[idx]
            p.work = trsm_base_work(order, rhs)
            return p

        return self.cache.get_or_build(key, build)

    def _solve_fast(self, t, b, side, uplo, trans, diag, alpha,
                    solve) -> None:
        """Low-overhead equivalent of :func:`~repro.batched.trsm._solve_small`.

        Calls the same LAPACK ``?trtrs`` routine the scipy wrapper resolves
        to, with the identical contiguity-dependent argument mapping scipy
        uses, so the solution is bitwise that of the reference path — only
        the Python-level validation layers are skipped.  Any nonzero
        ``info`` falls back to the reference ``solve`` so singular
        triangles raise the exact scipy error.
        """
        unit = diag == "U"
        lower = (uplo == "L") != (trans == "T")
        tt = t.T if trans == "T" else t
        ab = b if alpha == 1.0 else alpha * b
        if side == "L":
            a1, b1 = tt, ab
        else:
            a1, b1 = tt.T, ab.T
            lower = not lower
        key = (a1.dtype.char, b1.dtype.char)
        trtrs = self._lapack.get(key)
        if trtrs is None:
            from scipy.linalg.lapack import get_lapack_funcs
            trtrs, = get_lapack_funcs(("trtrs",), (a1, b1))
            self._lapack[key] = trtrs
        if a1.flags.f_contiguous:
            x, info = trtrs(a1, b1, overwrite_b=True, lower=lower,
                            trans=0, unitdiag=unit)
        else:
            # trtrs wants Fortran order: solve the transposed system on
            # the C-ordered view instead of copying (scipy does the same).
            x, info = trtrs(a1.T, b1, overwrite_b=True, lower=not lower,
                            trans=1, unitdiag=unit)
        if info != 0:
            solve(t, b, side, uplo, trans, diag, alpha)
            return
        if side == "L":
            b[...] = x
        else:
            b[...] = x.T

    def exec_trsm_base(self, device, side, uplo, trans, diag, m, n, alpha,
                       T, t_off, B, b_off, kernel_class: str,
                       solve) -> KernelCost:
        """Plan-cached body of one ``irr_trsm`` base-case launch.

        The solves stay per matrix in both engines — see the
        bitwise-identity contract above — so the engine removes the
        inference/accounting overhead and routes each solve through
        :meth:`_solve_fast` (same LAPACK call, no wrapper layers).
        """
        plan = self._trsm_plan(side, m, n, T, t_off, B, b_off)
        for b in range(len(plan.idx)):
            i = int(plan.idx[b])
            order = int(plan.order[b])
            mi, ni = int(plan.mi[b]), int(plan.ni[b])
            t_sub = T.sub(i, t_off[0], t_off[1], order, order)
            b_sub = B.sub(i, b_off[0], b_off[1], mi, ni)
            self._solve_fast(t_sub, b_sub, side, uplo, trans, diag, alpha,
                             solve)
        order_req, rhs_req = (m, n) if side == "L" else (n, m)
        return trsm_base_cost(device.spec, order_req, rhs_req, plan.work,
                              B.itemsize, kernel_class, B.peak_scale)

    # ------------------------------------------------------------------
    # fused panel factorization
    # ------------------------------------------------------------------
    def _panel_plan(self, batch, j: int, ib: int) -> _PanelPlan:
        key = ("panel", j, ib, batch.dims_key)

        def build() -> _PanelPlan:
            m_vec, n_vec = batch.m_vec, batch.n_vec
            rows = np.maximum(m_vec - j, 0)
            width = np.maximum(np.minimum(j + ib, n_vec) - j, 0)
            npiv = np.maximum(
                np.minimum(ib, np.minimum(m_vec, n_vec) - j), 0)
            active = np.nonzero(npiv > 0)[0]

            p = _PanelPlan()
            p.nbytes_elems = int(np.sum(rows[active] * width[active]))
            p.blocks = len(active)
            p.chunks = []
            scalar_parts: list = []
            # Row-class groups: pad each matrix only up to the next
            # multiple of ROW_CLASS rows, so one huge matrix cannot force
            # every small one to its height and the padding waste per
            # matrix stays below one class step.
            cls = _ceil_div(rows[active], ROW_CLASS)
            for c in np.unique(cls):
                members = active[cls == c]
                R, W, P = (int(rows[members].max()),
                           int(width[members].max()),
                           int(npiv[members].max()))
                if len(members) < MIN_BUCKET or \
                        R * W * len(members) * batch.itemsize > \
                        PAD_BYTES_LIMIT:
                    scalar_parts.append(members)
                    continue
                # Batch-axis chunks sized to stay cache-resident across
                # the whole column loop (matrices are independent, so
                # chunking cannot change any value).
                step = max(MIN_BUCKET, _PANEL_CHUNK_ELEMS // (R * W))
                for s in range(0, len(members), step):
                    p.chunks.append(_PanelChunk(
                        j, members[s:s + step], rows, width, npiv, R, W, P))
            scal = np.sort(np.concatenate(scalar_parts)) if scalar_parts \
                else np.empty(0, dtype=np.int64)
            p.scalar = list(zip(scal.tolist(), rows[scal].tolist(),
                                width[scal].tolist(), npiv[scal].tolist()))
            return p

        return self.cache.get_or_build(key, build)

    def exec_panel(self, device, batch, pivots, j: int, ib: int,
                   smem: int) -> KernelCost:
        """Bucketed body of one fused-``irrGETF2`` launch."""
        plan = self._panel_plan(batch, j, ib)
        flops = 0.0
        for ch in plan.chunks:
            flops += self._panel_chunk(batch, pivots, j, ch)
        for i, rows, width, npiv in plan.scalar:
            flops += factor_panel_block(
                batch.sub(i, j, j, rows, width), npiv, pivots.ipiv[i],
                pivots.info, i, j, ctrl=pivots.ctrl)
        nbytes = float(plan.nbytes_elems) * batch.itemsize
        return KernelCost(
            flops=float(flops), bytes_read=nbytes, bytes_written=nbytes,
            blocks=max(plan.blocks, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class="getf2",
            compute_ramp=min(1.0, ib / 16.0),
            peak_scale=batch.peak_scale)

    def _panel_chunk(self, batch, pivots, j: int, ch: _PanelChunk) -> int:
        """Right-looking LU of one zero-padded row-class chunk.

        The chunk lives in one batch-last ``(W, R, bs)`` scratch slab
        (column-major per matrix, so each column and each row of the
        whole chunk is one strided view).  Each pivot column costs one
        pivot search, one row swap, one scale and one rank-1 update of
        the entire trailing slab into a product scratch no larger than
        the chunk — the scalar loop's elementwise sequence, so every
        real element gets bitwise the scalar result.  Diagnostics are
        gathered into locals and, like the factors and pivots, scattered
        back only after the whole chunk succeeded.
        """
        R, W, P = ch.R, ch.W, ch.P
        bs = len(ch.idx)
        data = self._scratch("pad", W * R * bs,
                             batch.dtype).reshape(W, R, bs)
        data.fill(0.0)
        for b, (i, r, w, _k) in enumerate(ch.members):
            data[:w, :r, b] = batch.sub(i, j, j, r, w).T
        prod = self._scratch("prod", (W - 1) * (R - 1) * bs, batch.dtype)
        binx, idx = ch.binx, ch.idx
        ctrl = pivots.ctrl
        thresh, repl = ctrl.thresh[idx], ctrl.repl[idx]
        info, n_rep = pivots.info[idx], ctrl.n_replaced[idx]
        min_piv = ctrl.min_pivot[idx]
        offs = np.empty((P, bs), dtype=np.int64)
        nz_tab = None        # ch.act minus unrecovered breakdowns
        for c in range(P):
            col = data[c]
            p = offs[c]
            np.abs(col[c:]).argmax(axis=0, out=p)
            act_all = ch.act_all[c]
            if not act_all:
                act = ch.act[c]
                p *= act
            if np.count_nonzero(p):
                pr = p + c
                row_c = data[:, c].copy()
                data[:, c] = data[:, pr, binx]
                data[:, pr, binx] = row_c
            piv = col[c]
            apiv = np.abs(piv)
            bad = apiv < thresh
            # fmin skips a NaN pivot as the scalar ``apiv < min`` does
            if act_all:
                np.fmin(min_piv, apiv, out=min_piv)
            else:
                np.fmin(min_piv, np.where(act, apiv, np.inf), out=min_piv)
                bad &= act
            nz = None
            if np.count_nonzero(bad):
                rep = bad & (repl > 0.0)
                if rep.any():
                    # static pivoting: replace, keeping the sign/phase
                    scale = np.where(apiv > 0.0, apiv, 1.0)
                    sgn = np.where(apiv > 0.0, piv / scale, 1.0)
                    piv = np.where(rep, sgn * repl, piv)
                    col[c] = piv
                    n_rep += rep
                unrec = bad & ~rep
                if unrec.any():
                    info[unrec & (info == 0)] = j + c + 1
                    if nz_tab is None:
                        nz_tab = ch.act.copy()
                    nz = nz_tab[c]
                    nz &= ~unrec
            if c + 1 == R:
                continue
            # Past its last pivot column a member's trailing rows or
            # columns are all padding; only its divisor needs masking
            # (0/0 would poison the padding).  An unrecovered breakdown
            # also skips the member's scale and rank-1 update: with both
            # factors zeroed its product is +0, which subtracts exactly.
            mask = nz if nz is not None else (None if act_all else act)
            low = col[c + 1:]
            np.divide(low, piv if mask is None else np.where(mask, piv, 1.0),
                      out=low)
            if c + 1 == W:
                continue
            u = data[c + 1:, c]
            if nz is not None:
                low = np.where(nz, low, 0.0)
                u = np.where(nz, u, 0.0)
            pv = prod[:(W - c - 1) * (R - c - 1) * bs].reshape(
                W - c - 1, R - c - 1, bs)
            np.multiply(low, u[:, None], out=pv)
            trail = data[c + 1:, c + 1:]
            np.subtract(trail, pv, out=trail)
        if (offs >= ch.room).any():
            # A non-finite value reached the padding (0·inf) and won a
            # pivot search the scalar loop never sees: discard the slab
            # (nothing was written back) and factor the chunk per matrix.
            return sum(factor_panel_block(
                batch.sub(i, j, j, r, w), k, pivots.ipiv[i], pivots.info,
                i, j, ctrl=ctrl) for i, r, w, k in ch.members)
        piv_rows = offs + ch.base
        for b, (i, r, w, k) in enumerate(ch.members):
            batch.sub(i, j, j, r, w)[...] = data[:w, :r, b].T
            pivots.ipiv[i][j:j + k] = piv_rows[:k, b]
        pivots.info[idx] = info
        ctrl.n_replaced[idx] = n_rep
        ctrl.min_pivot[idx] = min_piv
        if nz_tab is None:
            return ch.flops
        return int(ch.flop_tab[nz_tab].sum())

    # ------------------------------------------------------------------
    # rehearsed LASWP
    # ------------------------------------------------------------------
    def _laswp_plan(self, batch, j: int, ib: int, part) -> _LaswpPlan:
        key = ("laswp", j, ib,
               part if isinstance(part, str) else ("win",) + tuple(part),
               batch.dims_key)

        def build() -> _LaswpPlan:
            m_vec, n_vec = batch.m_vec, batch.n_vec
            p = _LaswpPlan()
            p.length = np.maximum(m_vec - j, 0)
            p.npiv = np.maximum(
                np.minimum(ib, np.minimum(m_vec, n_vec) - j), 0)
            if part == "left":
                p.c0 = np.zeros(len(batch), dtype=np.int64)
                p.c1 = np.minimum(j, n_vec)
            elif part == "right":
                p.c0 = np.minimum(j + ib, n_vec)
                p.c1 = n_vec.copy()
            elif isinstance(part, tuple) and len(part) == 2:
                p.c0 = np.minimum(int(part[0]), n_vec)
                p.c1 = np.minimum(int(part[1]), n_vec)
            else:
                raise ValueError(f"invalid part {part!r}")
            p.lmax = int(p.length.max()) if len(batch) else 0
            width = p.c1 - p.c0
            act = (p.npiv > 0) & (width > 0)
            strips = _ceil_div(width, TILE) * act
            p.blocks = int(np.sum(strips))
            p.window_bytes = 8 * int(np.sum(strips * p.npiv))
            return p

        return self.cache.get_or_build(key, build)

    def exec_laswp(self, batch, pivots, j: int, ib: int,
                   part) -> KernelCost:
        """Bucketed body of the ``irrlaswp:{part}`` launch.

        Every matrix's pivot window ``ipiv[j:j+npiv]`` replays through
        :meth:`_rehearse_permutation`, vectorized over the batch: ``aux[i,
        r]`` is the row that ends up at row ``j + r``.  Then each matrix
        moves the window's rows and every row a pivot displaced.  The
        naive path replays and moves matrix by matrix
        (:func:`~repro.batched.laswp.rehearsed_laswp`).
        """
        plan = self._laswp_plan(batch, j, ib, part)
        windows = [pivots.ipiv[i][j:j + k]
                   for i, k in enumerate(plan.npiv.tolist())]
        aux, _swaps = self._rehearse_permutation(windows, plan.lmax, base=j)
        lmax = aux.shape[1]
        rel_all = np.arange(lmax, dtype=np.int64)
        touch = ((rel_all[None, :] < plan.npiv[:, None]) |
                 ((aux != rel_all[None, :]) &
                  (rel_all[None, :] < plan.length[:, None])))
        nbytes = 0
        for i in range(len(batch)):
            np_i = int(plan.npiv[i])
            c0, c1 = int(plan.c0[i]), int(plan.c1[i])
            width = c1 - c0
            if np_i == 0 or width <= 0:
                continue
            a = batch.arrays[i].data
            rel = np.nonzero(touch[i, :int(plan.length[i])])[0]
            a[rel + j, c0:c1] = a[aux[i, rel] + j, c0:c1]
            nbytes += 2 * len(rel) * width * batch.itemsize
        return laswp_cost(batch.device.spec, nbytes, plan.window_bytes,
                          plan.blocks, ib)

    # ------------------------------------------------------------------
    # pivot application (getrs / multifrontal F12)
    # ------------------------------------------------------------------
    @staticmethod
    def _rehearse_permutation(pivots_list, nrows: int, base: int = 0
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Replay every matrix's swap sequence on an index matrix.

        Returns ``(perm, swaps)``: ``perm[i, r]`` is the source row that
        ends up at row ``r`` of matrix ``i`` after its swaps, and
        ``swaps[i]`` the number of off-diagonal pivots (the count the
        naive loop's traffic accounting depends on).  A sequence that
        is a window ``ipiv[base:base+k]`` of a longer one replays with
        its rows counted from ``base``.

        Only the off-diagonal pivots move rows, so the replay visits
        them alone: member by member while few members move per row
        (:data:`_REPLAY_MOVES_PER_ROW`), else one vectorized step per
        row that some member moves.
        """
        bs = len(pivots_list)
        klen = np.array([len(pv) for pv in pivots_list], dtype=np.int64)
        kmax = int(klen.max()) if bs else 0
        cols = np.arange(max(kmax, 1), dtype=np.int64)
        valid = cols[None, :] < klen[:, None]
        ip_pad = np.zeros((bs, len(cols)), dtype=np.int64)
        if kmax:
            ip_pad[valid] = np.concatenate(pivots_list)
        if base:
            ip_pad -= base
        moves = (ip_pad != cols[None, :]) & valid
        swaps = np.sum(moves, axis=1)
        ncols = max(nrows, 1)
        perm = np.broadcast_to(np.arange(ncols, dtype=np.int64),
                               (bs, ncols)).copy()
        moves = moves[:, :ncols]      # a pivot past the rows moves none
        rows = np.nonzero(moves.any(axis=0))[0]
        if len(rows) == 0:
            return perm, swaps
        mi, mr = np.nonzero(moves)
        if len(mi) < _REPLAY_MOVES_PER_ROW * len(rows):
            # Swap source rows in a dict keyed by flat position in
            # ``perm``; a position not yet touched holds its own row.
            mp = ip_pad[mi, mr]
            at: dict = {}
            for fr, r, fp, p in zip((mi * ncols + mr).tolist(), mr.tolist(),
                                    (mi * ncols + mp).tolist(), mp.tolist()):
                src = at.get(fr, r)
                at[fr] = at.get(fp, p)
                at[fp] = src
            perm.reshape(-1)[np.fromiter(at, np.int64, len(at))] = \
                np.fromiter(at.values(), np.int64, len(at))
            return perm, swaps
        binx = np.arange(bs)
        for r in rows.tolist():
            act = moves[:, r]
            p = np.where(act, ip_pad[:, r], r)
            col_r = perm[:, r].copy()
            col_p = perm[binx, p]
            perm[binx, p] = np.where(act, col_r, col_p)
            perm[:, r] = np.where(act, col_p, col_r)
        return perm, swaps

    def exec_apply_pivots(self, rhs, pivots) -> KernelCost:
        """Bucketed body of the ``irrgetrs:pivots`` launch.

        The rehearsed permutation depends only on the pivot sequences
        and the row count, so it is memoized on a :class:`PanelPivots` —
        repeated solves against one set of factors (the getrs analogue
        of the solve plan) rehearse once and replay the gather; the
        pivots' ``reset`` drops it when they are factored again.
        """
        memo = getattr(pivots, "_rehearsal", None)
        if memo is not None and memo[0] == rhs.max_m:
            _m, perm, swaps = memo
        else:
            perm, swaps = self._rehearse_permutation(pivots.ipiv, rhs.max_m)
            if isinstance(pivots, PanelPivots):
                pivots._rehearsal = (rhs.max_m, perm, swaps)
        itemsize = rhs.itemsize
        nbytes = 0
        blocks = 0
        for i in range(len(rhs)):
            n, k = rhs.local_dims(i)
            if n == 0 or k == 0:
                continue
            b = rhs.matrix(i)
            b[...] = b[perm[i, :n], :]
            nbytes += 4 * k * itemsize * int(swaps[i])
            blocks += 1
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(blocks, 1), kernel_class="swap",
                          memory_ramp=0.3)

    def exec_apply_pivots_f12(self, f12, pivots_list) -> KernelCost:
        """Bucketed body of the multifrontal ``irrlaswp:f12`` launch."""
        perm, _swaps = self._rehearse_permutation(pivots_list, f12.max_m)
        itemsize = f12.itemsize
        nbytes = 0
        for i in range(len(f12)):
            s, u = f12.local_dims(i)
            if s == 0 or u == 0:
                continue
            b = f12.arrays[i].data
            b[:s, :] = b[perm[i, :s], :]
            nbytes += 2 * s * u * itemsize
        return KernelCost(bytes_read=nbytes / 2, bytes_written=nbytes / 2,
                          blocks=max(tile_blocks(f12.m_vec, f12.n_vec), 1),
                          kernel_class="swap", memory_ramp=0.4)

    # ------------------------------------------------------------------
    # multifrontal solve phase (plan-driven level kernels)
    # ------------------------------------------------------------------
    # ``lp`` below is a LevelSolvePlan from repro.sparse.numeric.solve_plan
    # (duck-typed here to keep the dependency one-directional);
    # ``stacks`` the per-bucket 3-D DeviceArray factor stacks.  Costs
    # come from the shared solve_*_cost functions over the level's
    # precomputed integer totals, which the naive closures in gpu_solve
    # recount front by front.

    def exec_solve_pivots(self, x, plan, nrhs: int,
                          itemsize: int) -> KernelCost:
        """Planned body of the ``solve:pivots`` launch (every front).

        ``plan`` is the :class:`~repro.sparse.numeric.solve_plan.
        SolvePlan`: its per-front swap loops were rehearsed at build
        time into one global ``(dst, src)`` row gather; the fancy-index
        read completes before any write, so permutation cycles resolve
        to the same rows as the sequential swaps they replay.
        """
        if len(plan.piv_dst):
            x[plan.piv_dst, :] = x[plan.piv_src, :]
        return solve_pivots_cost(plan.swaps_total, plan.sep_tiles, nrhs,
                                 itemsize)

    def exec_solve_scatter(self, x, lp, stacks, nrhs: int,
                           itemsize: int) -> KernelCost:
        """Planned body of the ``solve:scatter`` launch (forward updates).

        Every bucket's ``f21 @ y`` products are computed stacked into a
        contiguous delta buffer first — safe, because same-level
        separators never appear in same-level update sets, so no product
        reads a row the subtraction writes.  The conflict-free rounds
        then drain the buffer with one vectorized subtract each, hitting
        every row in the reference's per-front order.
        """
        total = len(lp.upd_rows)
        delta = self._scratch("solve_delta", total * nrhs,
                              x.dtype).reshape(total, nrhs)
        for b, stack in zip(lp.buckets, stacks):
            bs = len(b.fids)
            blocks3 = stack.data
            # The (u=1, nrhs=1) product is the inner-product shape whose
            # 2-D summation order differs from stacked matmul (the GEMM
            # bucketing rule); it and sub-MIN_BUCKET buckets stay 2-D.
            if bs >= MIN_BUCKET and not (b.u == 1 and nrhs == 1):
                y = x[b.sep_mat, :]
                prod = np.matmul(blocks3, y)
                delta[b.out_pos, :] = prod.reshape(bs * b.u, nrhs)
            else:
                for j in range(bs):
                    s0 = int(b.sep_start[j])
                    g0 = int(b.seg_start[j])
                    delta[g0:g0 + b.u, :] = \
                        blocks3[j] @ x[s0:s0 + b.s, :]
        for rows, pos in lp.rounds:
            x[rows, :] -= delta[pos, :]
        return solve_update_cost(lp.sum_us, lp.sum_u, lp.upd_tiles,
                                 lp.scatter_partials, nrhs, itemsize)

    def exec_solve_gather(self, x, lp, stacks, nrhs: int,
                          itemsize: int) -> KernelCost:
        """Planned body of the ``solve:gather`` launch (backward updates).

        Reads ancestor rows (finished by earlier backward levels) and
        writes this level's disjoint separator ranges, so the bucket
        subtracts are conflict-free by construction.
        """
        for b, stack in zip(lp.buckets, stacks):
            bs = len(b.fids)
            blocks3 = stack.data
            if bs >= MIN_BUCKET and not (b.s == 1 and nrhs == 1):
                xu = x[b.upd_mat, :]
                prod = np.matmul(blocks3, xu)
                x[b.sep_flat, :] -= prod.reshape(bs * b.s, nrhs)
            else:
                for j in range(bs):
                    s0 = int(b.sep_start[j])
                    g0 = int(b.seg_start[j])
                    xu = x[lp.upd_rows[g0:g0 + b.u], :]
                    x[s0:s0 + b.s, :] -= blocks3[j] @ xu
        return solve_update_cost(lp.sum_us, lp.sum_s_active, lp.upd_tiles,
                                 lp.gather_partials, nrhs, itemsize)


def _apply_op2(a: np.ndarray, trans: str) -> np.ndarray:
    if trans == "N":
        return a
    return a.conj().T if trans == "C" else a.T


def _apply_op3(a: np.ndarray, trans: str) -> np.ndarray:
    """Per-matrix ``op`` on a stacked ``(bucket, rows, cols)`` array."""
    if trans == "N":
        return a
    swapped = a.transpose(0, 2, 1)
    return swapped.conj() if trans == "C" else swapped
