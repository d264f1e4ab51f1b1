"""Symbolic factorization: fronts, update sets, level sets (§III-A).

Given the permuted matrix pattern and the separator tree, compute for
every tree node its frontal-matrix structure:

* the *separator* indices (the pivot block F11) — the contiguous new-index
  range the ordering assigned to the node, and
* the *update* set ``upd`` — the ancestor indices the front's Schur
  complement touches: ancestors directly connected to the separator in
  ``A``, united with whatever the children's update sets pass up.

Nested dissection guarantees every update index exceeds the subtree's
index range (separators shield subtrees from their siblings), which makes
the update sets well-defined sorted integer arrays.

The analysis also produces the *level sets* the GPU factorization batches
over (all fronts of one tree level are independent, §III-A), the
aggregate statistics Fig 13 plots, and the :class:`AssemblyMap` every
device factorization replays: which entries of ``A`` each front gathers
and where its children's update blocks land, which depend on the
pattern only, never on the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..ordering.nested_dissection import NestedDissection, SeparatorTreeNode

__all__ = ["AssemblyMap", "FrontInfo", "SymbolicFactorization",
           "canonical_csr", "symbolic_analysis"]


@dataclass
class FrontInfo:
    """Structure of one frontal matrix (indices in the permuted order)."""

    node: SeparatorTreeNode
    level: int
    #: separator (pivot-block) indices: arange(sep_begin, sep_end)
    sep_begin: int
    sep_end: int
    #: sorted ancestor indices updated by this front's Schur complement
    upd: np.ndarray
    children: list[int] = field(default_factory=list)
    parent: int = -1

    @property
    def sep_size(self) -> int:
        return self.sep_end - self.sep_begin

    @property
    def upd_size(self) -> int:
        return len(self.upd)

    @property
    def order(self) -> int:
        """Total frontal-matrix dimension |sep| + |upd|."""
        return self.sep_size + self.upd_size

    @property
    def indices(self) -> np.ndarray:
        """All global (permuted) indices of the front, sep first."""
        return np.concatenate([
            np.arange(self.sep_begin, self.sep_end, dtype=np.int64),
            self.upd])


@dataclass
class SymbolicFactorization:
    """Complete symbolic structure consumed by the numeric phases."""

    fronts: list[FrontInfo]          # postorder
    root: int                        # index of the root front
    n: int
    #: CSR ``indptr``/``indices`` of the analyzed matrix in canonical
    #: form (private copies): the pattern :attr:`assembly` is laid out on
    indptr: np.ndarray = field(repr=False, compare=False)
    indices: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def assembly(self) -> "AssemblyMap":
        """The fronts' :class:`AssemblyMap` over the analyzed pattern,
        built on first use and kept for every later factorization."""
        return AssemblyMap(self.fronts, self.indptr, self.indices)

    def levels(self) -> list[list[int]]:
        """Front ids grouped by tree level, deepest level first.

        This is the batching schedule: each inner list is one batch of
        independent fronts.
        """
        if not self.fronts:
            return []
        maxlev = max(f.level for f in self.fronts)
        out: list[list[int]] = [[] for _ in range(maxlev + 1)]
        for fid, f in enumerate(self.fronts):
            out[maxlev - f.level].append(fid)
        return out

    def level_statistics(self) -> list[dict]:
        """Per-level batch size and front-size distribution (Fig 13)."""
        stats = []
        maxlev = max(f.level for f in self.fronts)
        for depth_from_bottom, fids in enumerate(self.levels()):
            sizes = np.array([self.fronts[f].order for f in fids])
            stats.append({
                "level": maxlev - depth_from_bottom,
                "batch_size": len(fids),
                "min_size": int(sizes.min()),
                "mean_size": float(sizes.mean()),
                "max_size": int(sizes.max()),
            })
        return stats

    def factor_nonzeros(self) -> int:
        """Nonzeros in L+U stored by the fronts (sep rows/cols only)."""
        total = 0
        for f in self.fronts:
            s, u = f.sep_size, f.upd_size
            total += s * s + 2 * s * u
        return total

    def factor_flops(self) -> float:
        """Total factorization flops (LU + two TRSMs + GEMM per front)."""
        from ...analysis.flops import gemm_flops, getrf_flops, trsm_flops
        total = 0.0
        for f in self.fronts:
            s, u = f.sep_size, f.upd_size
            total += getrf_flops(s, s) + 2 * trsm_flops(s, u) \
                + gemm_flops(u, u, s)
        return total


def symbolic_analysis(a_perm: sp.spmatrix,
                      nd: NestedDissection) -> SymbolicFactorization:
    """Compute front structures for the *permuted* matrix ``a_perm``.

    ``a_perm`` must already carry the nested-dissection permutation
    (``a_perm = A[perm][:, perm]`` with a symmetrized pattern for
    rectangular-front correctness).
    """
    a_perm = canonical_csr(a_perm)
    n = a_perm.shape[0]
    if n != nd.n:
        raise ValueError("matrix size does not match the ordering")
    # Symmetrize so row structure covers column structure.
    pattern = ((a_perm != 0) + (a_perm != 0).T).tocsr()
    indptr, indices = pattern.indptr, pattern.indices

    fronts: list[FrontInfo] = []

    def visit(node: SeparatorTreeNode, level: int) -> int:
        child_ids = [visit(c, level + 1) for c in node.children]
        sep_begin, sep_end = node.sep_begin, node.hi

        upd_sets = [fronts[c].upd for c in child_ids]
        direct: set[int] = set()
        for r in range(sep_begin, sep_end):
            for c in indices[indptr[r]:indptr[r + 1]]:
                if c >= node.hi:
                    direct.add(int(c))
        merged = set(direct)
        for s in upd_sets:
            merged.update(int(x) for x in s if x >= node.hi)
        upd = np.array(sorted(merged), dtype=np.int64)

        fid = len(fronts)
        f = FrontInfo(node=node, level=level, sep_begin=sep_begin,
                      sep_end=sep_end, upd=upd, children=child_ids)
        for c in child_ids:
            fronts[c].parent = fid
        fronts.append(f)
        return fid

    root = visit(nd.tree, 0)
    return SymbolicFactorization(fronts=fronts, root=root, n=n,
                                 indptr=a_perm.indptr.copy(),
                                 indices=a_perm.indices.copy())


def canonical_csr(a) -> sp.csr_matrix:
    """``a`` as CSR with sorted indices and no duplicate entries.

    A canonical ``a`` is returned as is (a CSR matrix shares its
    arrays); any other is canonicalized on a copy, summing each run of
    duplicates in storage order, the order ``toarray()`` adds them in.
    """
    a = sp.csr_matrix(a)
    if a.has_canonical_format:
        return a
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    order = np.lexsort((a.indices, rows))    # stable: runs keep their order
    out = sp.csr_matrix((a.data[order], a.indices[order], a.indptr.copy()),
                        shape=a.shape)
    out.has_sorted_indices = True
    out.sum_duplicates()
    return out


class AssemblyMap:
    """Where each front's assembly reads and writes (§III-A).

    The paper sets the per-front views up once per level on the host;
    this map is the assembly's share of that set-up, built once per
    analysis and replayed by every factorization of the same pattern:

    * ``dst[f]`` holds the flat positions, in front ``f``'s
      ``order × order`` buffer, of the ``A`` entries the front gathers
      (its separator rows, and its update rows' separator columns), and
      ``src[f]`` their positions in the canonical matrix's ``data``;
    * ``loc[c]`` holds the local positions of front ``c``'s update set
      in its parent's index set (``None`` without an update block);
    * ``dropped`` lists the stored entries no front gathers.  Only
      explicit zeros can be there, because the analysis reads
      ``a_perm != 0``; :meth:`conform` refuses a nonzero in one.
    """

    def __init__(self, fronts: list[FrontInfo], indptr: np.ndarray,
                 indices: np.ndarray):
        n = len(indptr) - 1
        self.indptr, self.indices = indptr, indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        cols = indices.astype(np.int64)
        # the same slots column by column (rows ascending in each)
        by_col = np.argsort(cols, kind="stable")
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
        # global index -> local index in the front being mapped, else -1
        local = np.full(n, -1, dtype=np.int64)
        gathered = np.zeros(len(cols), dtype=bool)
        self.dst: list[np.ndarray] = []
        self.src: list[np.ndarray] = []
        self.loc: list[np.ndarray | None] = [None] * len(fronts)
        for info in fronts:
            b, e, s, order = (info.sep_begin, info.sep_end, info.sep_size,
                              info.order)
            local[b:e] = np.arange(s)
            local[info.upd] = np.arange(s, order)
            # F[:s, :]: the separator rows' entries in the front's columns
            p = np.arange(indptr[b], indptr[e], dtype=np.int64)
            lc = local[cols[p]]
            top = lc >= 0
            # F[s:, :s]: the update rows' entries in the separator columns
            q = by_col[col_ptr[b]:col_ptr[e]]
            lr = local[rows[q]]
            low = lr >= s
            self.dst.append(np.concatenate([
                (rows[p[top]] - b) * order + lc[top],
                lr[low] * order + cols[q[low]] - b]))
            self.src.append(np.concatenate([p[top], q[low]]))
            gathered[self.src[-1]] = True
            for c in info.children:
                if fronts[c].upd_size:
                    self.loc[c] = local[fronts[c].upd]
            local[b:e] = -1
            local[info.upd] = -1
        self.dropped = np.flatnonzero(~gathered)

    def conform(self, a) -> sp.csr_matrix:
        """``a`` as canonical CSR on the analyzed pattern, ready for
        :attr:`src` to gather from.

        A non-canonical ``a`` is canonicalized on a copy
        (:func:`canonical_csr`); one stored on another pattern is moved
        onto this one, on a copy, dropping its explicit zeros outside
        it.  Raises :class:`ValueError` when ``a`` has the wrong size,
        or a nonzero that no front gathers: outside the analyzed
        pattern, or at a :attr:`dropped` entry.  A factorization would
        otherwise lose it silently.
        """
        n = len(self.indptr) - 1
        a = canonical_csr(a)
        if a.shape != (n, n):
            raise ValueError("matrix size does not match the symbolic "
                             "analysis")
        if not (np.array_equal(a.indptr, self.indptr)
                and np.array_equal(a.indices, self.indices)):
            a = self._onto_pattern(a)
        lost = np.count_nonzero(a.data[self.dropped])
        if lost:
            raise ValueError(
                f"{lost} nonzero(s) of the matrix sit at entries stored as "
                f"zeros when it was analyzed, which no front assembles "
                f"(analyze a matrix with these entries nonzero)")
        return a

    def _onto_pattern(self, a: sp.csr_matrix) -> sp.csr_matrix:
        """Canonical ``a`` stored on the analyzed pattern (a copy)."""
        n = len(self.indptr) - 1

        def keys(indptr, indices):      # row-major, ascending if canonical
            return np.repeat(np.arange(n, dtype=np.int64),
                             np.diff(indptr)) * n + indices

        mine = keys(self.indptr, self.indices)
        theirs = keys(a.indptr, a.indices)
        pos = np.minimum(np.searchsorted(mine, theirs), max(len(mine) - 1, 0))
        found = mine[pos] == theirs if len(mine) else \
            np.zeros(len(theirs), dtype=bool)
        outside = np.count_nonzero(a.data[~found])
        if outside:
            raise ValueError(
                f"{outside} nonzero(s) of the matrix lie outside the "
                f"pattern its symbolic analysis was built on (factor the "
                f"matrix the analysis saw, permuted as a[perm][:, perm])")
        data = np.zeros(len(mine), dtype=a.dtype)
        data[pos[found]] = a.data[found]
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=a.shape)
