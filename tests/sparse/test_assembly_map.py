"""The assembly map: each front's gather and extend-add, built once.

:class:`~repro.sparse.symbolic.analysis.AssemblyMap` is laid out once
per analysis over the canonical pattern, and every device
factorization replays it in ``_assemble_level``.  The host
``assemble_front`` (scipy slicing plus a dict of positions per child) is
the oracle: the replayed assembly must equal it bit for bit, for the
analyzed values and for new values on the same structure, in every
working precision, and for a non-canonical input.  Every factor entry
point checks its matrix against the map first: a nonzero that no front
gathers raises :class:`ValueError` before any device work, where it
was once dropped without a word.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, Device, Node
from repro.sparse import SparseCholesky, SparseLU, multifrontal_factor_cpu, \
    multifrontal_factor_gpu, multifrontal_factor_sharded, \
    naive_loop_factor, strumpack_like_factor, superlu_like_factor, \
    symbolic_analysis
from repro.sparse.numeric.factors import assemble_front
from repro.sparse.numeric.gpu_factor import _assemble_level

from .util import grid3d, maxwell


@pytest.fixture(scope="module", params=["maxwell8", "grid3d7"])
def system(request):
    a = maxwell(8) if request.param == "maxwell8" else grid3d(7)
    return SparseLU(a).analyze()


def perturbed(a, seed):
    a2 = a.copy()
    a2.data = a2.data * np.random.default_rng(seed).uniform(0.99, 1.01,
                                                           a.nnz)
    return a2


def complex_of(a, seed):
    ac = a.astype(np.complex128)
    ac.data += 1j * np.random.default_rng(seed).standard_normal(a.nnz)
    return ac


def with_duplicate(a):
    """``a`` stored non-canonically: its first row reversed and its
    first entry split into two that sum to it."""
    a = sp.csr_matrix(a, copy=True)
    a.sort_indices()
    e = a.indptr[1]
    row = slice(0, e)
    data = np.concatenate([[0.25 * a.data[0]], a.data[row][::-1],
                           a.data[e:]])
    data[e] = 0.75 * a.data[0]      # the first entry, now last in row 0
    indices = np.concatenate([[a.indices[0]], a.indices[row][::-1],
                              a.indices[e:]])
    indptr = a.indptr.copy()
    indptr[1:] += 1
    out = sp.csr_matrix((data, indices, indptr), shape=a.shape)
    assert not out.has_canonical_format
    return out


def assert_map_equals_oracle(symb, a_perm):
    """Assemble every level through the map, children before parents,
    and compare each front with ``assemble_front`` bitwise.  Once
    compared, a front's update block is filled with random values, so
    the parent's extend-add moves nonzero Schur blocks."""
    dev = Device(A100())
    rng = np.random.default_rng(0)
    buffers, schur = {}, {}
    conformed = symb.assembly.conform(a_perm)
    for fids in symb.levels():
        for fid in fids:
            order = symb.fronts[fid].order
            buffers[fid] = dev.zeros((order, order), dtype=a_perm.dtype)
        _assemble_level(dev, conformed, symb, fids, buffers)
        for fid in fids:
            info = symb.fronts[fid]
            ref = assemble_front(
                a_perm, info, [schur[c] for c in info.children
                               if symb.fronts[c].upd_size])
            got = buffers[fid].data
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), f"front {fid}"
            s, u = info.sep_size, info.upd_size
            block = rng.standard_normal((u, u)).astype(a_perm.dtype)
            got[s:, s:] = block
            schur[fid] = (block, info.upd)
    for arr in buffers.values():
        arr.free()
    assert dev.allocated_bytes == 0


class TestMapEqualsOracle:
    @pytest.mark.parametrize("dtype", ["fp64", "fp32", "complex128"])
    def test_analyzed_and_updated_values(self, system, dtype):
        """The analyzed values, then new values after ``update_values``
        on the same handle: both bitwise the host oracle's fronts."""
        a = system.a
        if dtype == "complex128":
            a = complex_of(a, seed=1)
        slu = SparseLU(a).analyze()
        cast = np.float32 if dtype == "fp32" else a.dtype
        assert_map_equals_oracle(slu.symb, slu.a_perm.astype(cast))
        pattern = slu.a_perm.indptr, slu.a_perm.indices
        slu.update_values(perturbed(a, seed=2))
        # a value-only refresh: the analyzed pattern arrays are kept
        assert np.shares_memory(slu.a_perm.indptr, pattern[0])
        assert np.shares_memory(slu.a_perm.indices, pattern[1])
        assert_map_equals_oracle(slu.symb, slu.a_perm.astype(cast))

    def test_non_canonical_input(self, system):
        """Duplicates are summed (in storage order, as ``toarray()``
        sums them) on a copy; the caller's matrix is left as it was."""
        nc = with_duplicate(system.a_perm)
        data0 = nc.data.copy()
        assert_map_equals_oracle(system.symb, nc)
        assert np.array_equal(nc.data, data0)
        assert not nc.has_canonical_format

    def test_map_covers_every_nonzero_once(self, system):
        amap, symb = system.symb.assembly, system.symb
        src = np.concatenate(amap.src)
        assert len(np.unique(src)) == len(src)
        assert len(src) + len(amap.dropped) == system.a_perm.nnz
        for fid, info in enumerate(symb.fronts):
            dst = amap.dst[fid]
            assert len(np.unique(dst)) == len(dst)
            assert (dst >= 0).all() and (dst < info.order ** 2).all()
            if info.parent >= 0 and info.upd_size:
                parent = symb.fronts[info.parent]
                np.testing.assert_array_equal(
                    parent.indices[amap.loc[fid]], info.upd)


@pytest.fixture(scope="module")
def maxwell6():
    return SparseLU(maxwell(6)).analyze()


def outside_entry(slu, value):
    """``a_perm`` plus one stored entry at (0, n−2), in no front."""
    n = slu.n
    owner = next(f for f in slu.symb.fronts if f.sep_begin <= 0 < f.sep_end)
    assert n - 2 not in owner.indices and slu.a_perm[0, n - 2] == 0
    a = slu.a_perm.tolil()
    a[0, n - 2] = 1.0           # a nonzero entry, then set to the value
    a = a.tocsr()
    a[0, n - 2] = value
    assert a.nnz == slu.a_perm.nnz + 1
    return a


def factor_on(backend, a, symb):
    """Factor ``a`` with ``symb`` on ``backend``; returns the factors
    and every device the call could allocate on."""
    if backend == "sharded":
        node = Node(A100(), 2)
        return (lambda: multifrontal_factor_sharded(node, a, symb).factors,
                list(node))
    dev = Device(A100())
    calls = {
        "batched": lambda: multifrontal_factor_gpu(dev, a, symb).factors,
        "naive": lambda: multifrontal_factor_gpu(dev, a, symb,
                                                 engine="naive").factors,
        "looped": lambda: naive_loop_factor(dev, a, symb).factors,
        "strumpack": lambda: strumpack_like_factor(dev, a, symb).factors,
        "superlu": lambda: superlu_like_factor(dev, a, symb).factors,
        "cpu": lambda: multifrontal_factor_cpu(a, symb),
    }
    return calls[backend], [dev]


BACKENDS = ["batched", "naive", "looped", "strumpack", "sharded", "superlu",
            "cpu"]


class TestNonzerosOutsideFronts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nonzero_outside_every_front_raises(self, maxwell6, backend):
        """A nonzero at (0, n−2), outside every front, raises before any
        device work (it was dropped, and the factorization 'succeeded'
        with a residual of 0.29 against the matrix passed)."""
        run, devices = factor_on(backend, outside_entry(maxwell6, 1.0),
                                 maxwell6.symb)
        with pytest.raises(ValueError, match="outside the pattern"):
            run()
        assert all(d.allocated_bytes == 0 for d in devices)
        assert all(d.profiler.launch_count == 0 for d in devices)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpermuted_matrix_raises(self, maxwell6, backend):
        run, devices = factor_on(backend, maxwell6.a_pre, maxwell6.symb)
        with pytest.raises(ValueError, match="outside the pattern"):
            run()
        assert all(d.allocated_bytes == 0 for d in devices)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_zero_outside_fronts_factors(self, maxwell6, backend):
        """An explicit zero outside every front is legal, and the factors
        are bitwise those of the matrix without it."""
        ref, _ = factor_on(backend, maxwell6.a_perm, maxwell6.symb)
        run, _ = factor_on(backend, outside_entry(maxwell6, 0.0),
                           maxwell6.symb)
        for f1, f2 in zip(ref().fronts, run().fronts):
            for blk in ("f11", "f12", "f21", "ipiv"):
                assert getattr(f1, blk).tobytes() == \
                    getattr(f2, blk).tobytes()

    def test_analyzed_explicit_zero_must_stay_zero(self, maxwell6):
        """Analyzed with the explicit zero, that entry is in the pattern
        but in no front (the analysis reads ``a_perm != 0``): zero there
        factors, bitwise as without it, and a value there raises."""
        a_zero = outside_entry(maxwell6, 0.0)
        symb = symbolic_analysis(a_zero, maxwell6.nd)
        assert len(symb.assembly.dropped) == 1
        ref = multifrontal_factor_gpu(Device(A100()), maxwell6.a_perm,
                                      maxwell6.symb).factors
        got = multifrontal_factor_gpu(Device(A100()), a_zero, symb).factors
        for f1, f2 in zip(ref.fronts, got.fronts):
            for blk in ("f11", "f12", "f21", "ipiv"):
                assert getattr(f1, blk).tobytes() == \
                    getattr(f2, blk).tobytes()
        a_one = a_zero.copy()
        a_one[0, maxwell6.n - 2] = 1.0
        dev = Device(A100())
        with pytest.raises(ValueError, match="no front assembles"):
            multifrontal_factor_gpu(dev, a_one, symb)
        assert dev.allocated_bytes == 0
        assert dev.profiler.launch_count == 0

    def test_cholesky_checks_its_matrix(self):
        chol = SparseCholesky(grid3d(5, diag=8.0) +
                              grid3d(5, diag=8.0).T).analyze()
        chol.factor()
        n = chol.a_perm.shape[0]
        bad = chol.a_perm.tolil()
        owner = next(f for f in chol.symb.fronts if f.sep_begin == 0)
        col = next(c for c in range(n - 1, 0, -1) if c not in owner.indices)
        bad[0, col] = bad[col, 0] = 1.0
        chol.a_perm = bad.tocsr()
        for backend, dev in (("cpu", None), ("batched", Device(A100()))):
            with pytest.raises(ValueError, match="outside the pattern"):
                chol.factor(backend=backend, device=dev)
