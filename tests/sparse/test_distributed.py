"""Tests for the simulated distributed-memory factorization (§III-A):
the assembly-tree partition and the sharded factorization on a node whose
devices talk over an MPI-style network link."""

import numpy as np
import pytest

from repro.device import A100, Device, Link, Node
from repro.sparse import multifrontal_factor_gpu, \
    multifrontal_factor_sharded, nested_dissection, partition_tree, \
    symbolic_analysis

from .util import grid2d, grid3d


def prepare(a, leaf_size=16):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return nd, ap, symbolic_analysis(ap, nd)


def mpi_node(n_ranks):
    """A node of ``n_ranks`` devices joined by an MPI-style network."""
    return Node(A100(), n_ranks,
                p2p_link=Link(bandwidth=25e9, latency=5e-6))


class TestPartition:
    def test_single_rank_owns_everything(self, rng):
        _, _, symb = prepare(grid2d(10, 10))
        assign = partition_tree(symb, 1)
        assert assign.top_fronts == []
        assert assign.rank_fronts[0] == list(range(len(symb.fronts)))

    def test_partition_is_exact(self, rng):
        _, _, symb = prepare(grid3d(6))
        assign = partition_tree(symb, 4)
        owned = sorted(f for rf in assign.rank_fronts for f in rf)
        owned += assign.top_fronts
        assert sorted(owned) == list(range(len(symb.fronts)))

    def test_top_is_top_levels(self, rng):
        _, _, symb = prepare(grid3d(6))
        assign = partition_tree(symb, 4)   # ceil(log2 4) = 2 levels
        for f in assign.top_fronts:
            assert symb.fronts[f].level < 2
        for rf in assign.rank_fronts:
            for f in rf:
                assert symb.fronts[f].level >= 2

    def test_subtrees_stay_whole(self, rng):
        # a front and its children live on the same rank (unless top)
        _, _, symb = prepare(grid3d(6))
        assign = partition_tree(symb, 4)
        for fid, f in enumerate(symb.fronts):
            r = assign.rank_of_front[fid]
            if r < 0:
                continue
            for c in f.children:
                assert assign.rank_of_front[c] == r

    def test_balance_reasonable(self, rng):
        _, _, symb = prepare(grid3d(7))
        assign = partition_tree(symb, 4)
        assert assign.imbalance < 2.0

    def test_invalid_rank_count(self, rng):
        _, _, symb = prepare(grid2d(6, 6))
        with pytest.raises(ValueError, match="at least one rank"):
            partition_tree(symb, 0)


class TestDistributedFactorization:
    def test_identical_to_single_device(self, rng):
        a = grid3d(6)
        _, ap, symb = prepare(a)
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        res = multifrontal_factor_sharded(mpi_node(4), ap, symb)
        for f1, f2 in zip(ref.factors.fronts, res.factors.fronts):
            np.testing.assert_array_equal(f1.f11, f2.f11)
            np.testing.assert_array_equal(f1.f12, f2.f12)
            np.testing.assert_array_equal(f1.f21, f2.f21)
            np.testing.assert_array_equal(f1.ipiv, f2.ipiv)

    def test_invalid_top_mode(self, rng):
        """The top part always runs on ``node[top_device]``; a device
        the node lacks raises before any device work."""
        _, ap, symb = prepare(grid2d(6, 6))
        node = mpi_node(2)
        for top in (-1, 2):
            with pytest.raises(ValueError, match="top_device"):
                multifrontal_factor_sharded(node, ap, symb, top_device=top)
        assert node.allocated_bytes == 0
        assert all(d.profiler.launch_count == 0 for d in node)
