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

* :func:`rehearsed_laswp` — the paper's optimization in ONE launch: each
  thread block *rehearses* its matrix's swap sequence on a row-index
  column in shared memory (a window of at most ``ib`` pivots touches at
  most ``2·ib`` rows), then gathers the affected rows of its 32-column
  strip through shared-memory-sized chunks and writes them back
  contiguously.  No auxiliary launch does index arithmetic (§IV-A); the
  bandwidth efficiency is high, but the cost is *independent of the pivot
  pattern* (rows that stayed in place are moved anyway).
"""

from __future__ import annotations

import numpy as np

from ..device.kernel import KernelCost, tile_blocks
from ..device.simulator import Device
from .engine import _LASWP_CHUNK_ROWS, laswp_cost, resolve_engine
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
    """One ``irrlaswp:{part}`` launch: each block replays its matrix's
    pivot window on a row-index column, then moves the rows it touches
    in chunks of ``_LASWP_CHUNK_ROWS`` (32).

    With a bucketed ``engine`` the launch keeps its name and cost, but
    the replay is one permutation rehearsal vectorized across the batch
    (:meth:`~repro.batched.engine.BatchEngine.exec_laswp`) instead of a
    per-matrix per-pivot Python loop.
    """
    eng = resolve_engine(engine)
    name = f"irrlaswp:{_part_label(part)}"
    if eng is not None:
        device.launch(name, lambda: eng.exec_laswp(batch, pivots, j, ib,
                                                   part),
                      stream=stream, wait_events=wait_events)
        return

    def kernel() -> KernelCost:
        nbytes = 0
        window_bytes = 0
        blocks = 0
        for i in range(len(batch)):
            npiv = _pivot_count(batch, i, j, ib)
            c0, c1 = _col_range(batch, i, j, ib, part)
            width = c1 - c0
            if npiv == 0 or width <= 0:
                continue
            m, _n = batch.local_dims(i)
            # The rehearsal: aux[r] = source row that must end up at row
            # j + r.  Only rows >= j can take part in this window.
            aux = np.arange(j, m, dtype=np.int64)
            for r in range(npiv):
                p = int(pivots.ipiv[i][j + r]) - j
                if p != r:
                    aux[r], aux[p] = aux[p], aux[r]
            a = batch.arrays[i].data
            # Rows that participate: the pivot window plus any row a
            # pivot displaced (aux entry differs from identity).  The
            # cost model charges the whole participating set regardless
            # of how many actually moved — the pattern-independence the
            # paper describes.
            moved = np.nonzero(aux != np.arange(j, m))[0]
            touched = np.unique(np.concatenate(
                [np.arange(npiv, dtype=np.int64), moved]))
            dest_rows = touched + j
            gathered = a[aux[touched], c0:c1].copy()
            # Chunked write-back: contiguous blocks via shared memory.
            for s in range(0, len(dest_rows), _LASWP_CHUNK_ROWS):
                e = min(s + _LASWP_CHUNK_ROWS, len(dest_rows))
                a[dest_rows[s:e], c0:c1] = gathered[s:e]
            strips = tile_blocks(1, width)
            nbytes += 2 * len(dest_rows) * width * batch.itemsize
            window_bytes += strips * npiv * _ITEM
            blocks += strips
        return laswp_cost(device.spec, nbytes, window_bytes, blocks, ib)

    device.launch(name, kernel, stream=stream, wait_events=wait_events)


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
