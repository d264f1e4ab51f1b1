"""irrLASWP — full-width row interchanges (§IV-F).

After the panel factorization at step ``j``, the pivoting row swaps must
be propagated to the matrix columns *outside* the panel: the left part
(columns ``[0, j)``) and the right part (columns ``[j+ib, n_i)``).  The
per-matrix widths ``w_l`` and ``w_r`` differ across the batch and are
inferred by DCWI from the local dimensions.

Two implementations with identical numerics:

* :func:`looped_laswp` — the reference: one ``irrSWAP`` launch per pivot
  row.  Row accesses in a column-major layout are strided, so each launch
  moves little data at poor bandwidth efficiency — but a swap whose pivot
  is already on the diagonal is skipped entirely, which is why the paper
  notes this variant can win in the (rare) mostly-diagonal-pivot corner
  case.

* :func:`rehearsed_laswp` — the paper's optimization: (1) initialize a
  one-column auxiliary vector ``0, 1, …``, (2) *rehearse* the swap
  sequence on it (cheap: single column), (3) gather the affected rows
  through shared-memory-sized chunks and write them back contiguously.
  Three launches total, high bandwidth efficiency, but the cost is
  *independent of the pivot pattern* (rows that stayed in place are moved
  anyway).
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost, tile_blocks
from ..device.simulator import Device
from .engine import _LASWP_CHUNK_ROWS, resolve_engine
from .interface import IrrBatch
from .panel import PanelPivots

__all__ = ["looped_laswp", "rehearsed_laswp", "irr_laswp",
           "apply_interchanges"]

_ITEM = 8


def apply_interchanges(a: np.ndarray, ipiv, *, reverse: bool = False
                       ) -> int:
    """LAPACK's row-interchange loop on a host array, in place: for each
    position ``r`` of ``ipiv`` in turn, row ``r`` of ``a`` trades places
    with row ``ipiv[r]`` (rows are the first axis, so ``a`` may be a
    vector).  ``reverse=True`` walks the positions backwards, which
    undoes a forward pass.  Returns the number of rows that moved, the
    count the swap kernels are costed by."""
    order = range(len(ipiv) - 1, -1, -1) if reverse else range(len(ipiv))
    swaps = 0
    for r in order:
        p = int(ipiv[r])
        if p != r:
            a[[r, p]] = a[[p, r]]
            swaps += 1
    return swaps


def _pivot_count(batch: IrrBatch, i: int, j: int, ib: int) -> int:
    m, n = batch.local_dims(i)
    return max(0, min(ib, min(m, n) - j))


def _col_range(batch: IrrBatch, i: int, j: int, ib: int,
               part) -> tuple[int, int]:
    """DCWI: the (start, stop) column range of ``part`` for matrix ``i``.

    ``part`` is ``"left"`` (columns before the panel), ``"right"``
    (columns after it), or an explicit ``(c0, c1)`` window — the latter is
    what the recursive panel factorization uses to confine swaps to the
    other half of its own panel.
    """
    _m, n = batch.local_dims(i)
    if part == "left":
        return 0, min(j, n)
    if part == "right":
        return min(j + ib, n), n
    if isinstance(part, tuple) and len(part) == 2:
        c0, c1 = part
        return min(int(c0), n), min(int(c1), n)
    raise ValueError(f"invalid part {part!r}")


def _part_label(part) -> str:
    return part if isinstance(part, str) else f"win{part[0]}:{part[1]}"


def looped_laswp(device: Device, batch: IrrBatch, pivots: PanelPivots,
                 j: int, ib: int, part: str, *, stream=None,
                 wait_events=None) -> None:
    """Reference: one strided-row irrSWAP launch per pivot row."""
    for r in range(ib):
        def kernel(r=r) -> KernelCost:
            nbytes = 0.0
            blocks = 0
            for i in range(len(batch)):
                if r >= _pivot_count(batch, i, j, ib):
                    continue
                p = int(pivots.ipiv[i][j + r])
                if p == j + r:
                    continue  # pivot on the diagonal: free for this variant
                c0, c1 = _col_range(batch, i, j, ib, part)
                if c1 <= c0:
                    continue
                a = batch.arrays[i].data
                a[[j + r, p], c0:c1] = a[[p, j + r], c0:c1]
                nbytes += 2 * (c1 - c0) * batch.itemsize
                blocks += 1
            # Strided row access in a column-major layout: each element
            # touches a separate cache line, hence the low memory ramp.
            return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                              blocks=max(blocks, 1), threads_per_block=128,
                              kernel_class="swap", memory_ramp=0.08)

        device.launch(f"irrswap:{_part_label(part)}", kernel, stream=stream,
                      wait_events=wait_events if r == 0 else None)


def rehearsed_laswp(device: Device, batch: IrrBatch, pivots: PanelPivots,
                    j: int, ib: int, part: str, *, stream=None,
                    wait_events=None, engine=None) -> None:
    """Rehearse swaps on an index column, then move rows in chunks of
    ``_LASWP_CHUNK_ROWS`` (32).

    With a bucketed ``engine`` the three launches keep their names and
    costs, but the auxiliary columns live in one padded matrix and the
    rehearsal is one permutation replay vectorized across the batch
    instead of a per-matrix per-pivot Python loop.
    """
    eng = resolve_engine(engine)
    label = _part_label(part)
    if eng is not None:
        sess = eng.laswp_session(batch, pivots, j, ib, part)
        device.launch(f"irrlaswp:{label}:init", sess.init, stream=stream,
                      wait_events=wait_events)
        device.launch(f"irrlaswp:{label}:rehearse", sess.rehearse,
                      stream=stream)
        device.launch(f"irrlaswp:{label}:gather", sess.gather,
                      stream=stream)
        return

    bs = len(batch)
    # The auxiliary one-column matrices: aux[i][r] = source row that must
    # end up at row r.  Rehearsal only involves rows >= j that the current
    # pivot window can touch.
    aux: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * bs

    def init_kernel() -> KernelCost:
        nbytes = 0.0
        blocks = 0
        for i in range(bs):
            m, _n = batch.local_dims(i)
            aux[i] = np.arange(j, m, dtype=np.int64)
            nbytes += max(0, m - j) * _ITEM
            blocks += 1
        return KernelCost(bytes_written=nbytes, blocks=max(blocks, 1),
                          threads_per_block=256, kernel_class="swap")

    def rehearse_kernel() -> KernelCost:
        nbytes = 0.0
        blocks = 0
        for i in range(bs):
            npiv = _pivot_count(batch, i, j, ib)
            a = aux[i]
            for r in range(npiv):
                p = int(pivots.ipiv[i][j + r]) - j
                if p != r:
                    a[r], a[p] = a[p], a[r]
            nbytes += 2 * npiv * _ITEM
            blocks += 1
        return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                          blocks=max(blocks, 1), threads_per_block=64,
                          kernel_class="swap")

    def gather_kernel() -> KernelCost:
        nbytes = 0.0
        blocks = 0
        for i in range(bs):
            npiv = _pivot_count(batch, i, j, ib)
            if npiv == 0:
                continue
            c0, c1 = _col_range(batch, i, j, ib, part)
            width = c1 - c0
            if width <= 0:
                continue
            a = batch.arrays[i].data
            # Rows the rehearsal says participate: the pivot window plus
            # any row a pivot displaced (aux entry differs from identity).
            # The cost model charges the whole participating set
            # regardless of how many actually moved — the
            # pattern-independence the paper describes.
            rel = np.arange(len(aux[i]), dtype=np.int64)
            moved = np.nonzero(aux[i] != rel + j)[0]
            touched = np.unique(np.concatenate(
                [np.arange(npiv, dtype=np.int64), moved]))
            dest_rows = touched + j
            src_rows = aux[i][touched]
            gathered = a[src_rows, c0:c1].copy()
            # Chunked write-back: contiguous blocks via shared memory.
            for s in range(0, len(dest_rows), _LASWP_CHUNK_ROWS):
                e = min(s + _LASWP_CHUNK_ROWS, len(dest_rows))
                a[dest_rows[s:e], c0:c1] = gathered[s:e]
            nbytes += 2 * len(dest_rows) * width * batch.itemsize
            blocks += tile_blocks(1, width)
        return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                          blocks=max(blocks, 1), threads_per_block=256,
                          shared_mem_per_block=min(
                              _LASWP_CHUNK_ROWS * 32 * _ITEM,
                              device.spec.max_shared_per_block),
                          kernel_class="swap", memory_ramp=0.85)

    device.launch(f"irrlaswp:{label}:init", init_kernel, stream=stream,
                  wait_events=wait_events)
    device.launch(f"irrlaswp:{label}:rehearse", rehearse_kernel,
                  stream=stream)
    device.launch(f"irrlaswp:{label}:gather", gather_kernel, stream=stream)


def irr_laswp(device: Device, batch: IrrBatch, pivots: PanelPivots,
              j: int, ib: int, part: str, *, variant: str = "rehearsed",
              stream=None, wait_events=None, engine=None) -> None:
    """Dispatch to the selected row-interchange implementation.

    ``engine`` only affects the rehearsed variant; the looped variant is
    a per-pivot launch sequence by definition and always runs naive.
    """
    if variant == "rehearsed":
        rehearsed_laswp(device, batch, pivots, j, ib, part, stream=stream,
                        wait_events=wait_events, engine=engine)
    elif variant == "looped":
        looped_laswp(device, batch, pivots, j, ib, part, stream=stream,
                     wait_events=wait_events)
    else:
        raise ValueError(f"unknown laswp variant {variant!r}")
