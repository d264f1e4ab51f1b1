"""Property tests for :func:`partition_tree` (assembly-tree sharding)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import RankAssignment, nested_dissection, \
    partition_tree, symbolic_analysis

from .util import grid2d, grid3d

pytestmark = pytest.mark.multidev


def prepare(a, leaf_size=16):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return symbolic_analysis(ap, nd)


def check_assignment(symb, assign, n_ranks):
    nf = len(symb.fronts)
    # every front assigned exactly once: top ∪ rank subtrees partition
    owned = list(assign.top_fronts)
    for rf in assign.rank_fronts:
        owned.extend(rf)
    assert sorted(owned) == list(range(nf))
    assert len(assign.rank_fronts) == n_ranks
    # rank_of_front agrees with the listings (-1 marks the top part)
    for f in assign.top_fronts:
        assert assign.rank_of_front[f] == -1
    for r, rf in enumerate(assign.rank_fronts):
        for f in rf:
            assert assign.rank_of_front[f] == r
    # children precede parents within a rank (postorder), so the
    # per-device level schedule can consume them bottom-up
    for rf in assign.rank_fronts:
        pos = {f: i for i, f in enumerate(rf)}
        for f in rf:
            for c in symb.fronts[f].children:
                if c in pos:
                    assert pos[c] < pos[f]
    # the top part is exactly the top ceil(log2 P) levels, and subtrees
    # stay whole: a ranked front's children live on its rank
    top_levels = math.ceil(math.log2(n_ranks)) if n_ranks > 1 else 0
    for fid, f in enumerate(symb.fronts):
        r = assign.rank_of_front[fid]
        assert (r < 0) == (f.level < top_levels)
        if r >= 0:
            assert all(assign.rank_of_front[c] == r for c in f.children)
    assert assign.imbalance >= 1.0


class TestPartitionProperties:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 8])
    def test_exact_cover_2d(self, n_ranks):
        symb = prepare(grid2d(12, 11))
        check_assignment(symb, partition_tree(symb, n_ranks), n_ranks)

    @pytest.mark.parametrize("n_ranks", [2, 4, 7])
    def test_exact_cover_3d(self, n_ranks):
        symb = prepare(grid3d(6))
        check_assignment(symb, partition_tree(symb, n_ranks), n_ranks)

    def test_single_rank_has_no_top_part(self):
        symb = prepare(grid2d(10, 10))
        assign = partition_tree(symb, 1)
        assert assign.top_fronts == []
        assert assign.rank_fronts[0] == list(range(len(symb.fronts)))
        assert assign.imbalance == 1.0

    def test_rejects_zero_ranks(self):
        symb = prepare(grid2d(6, 6))
        with pytest.raises(ValueError, match="at least one rank"):
            partition_tree(symb, 0)

    def test_more_ranks_than_subtrees(self):
        # a tiny tree: some ranks legitimately end up with nothing
        symb = prepare(grid2d(5, 5), leaf_size=32)
        n_ranks = 16
        assign = partition_tree(symb, n_ranks)
        check_assignment(symb, assign, n_ranks)
        assert any(not rf for rf in assign.rank_fronts)

    def test_single_front_tree(self):
        # leaf_size swallows the whole matrix -> one front, no top work
        symb = prepare(grid2d(4, 4), leaf_size=1024)
        assert len(symb.fronts) == 1
        for n_ranks in (1, 2, 4):
            assign = partition_tree(symb, n_ranks)
            check_assignment(symb, assign, n_ranks)

    def test_all_zero_flop_ranks_report_perfect_balance(self):
        assign = RankAssignment(
            n_ranks=2, rank_of_front=np.zeros(0, dtype=np.int64),
            top_fronts=[], rank_fronts=[[], []], rank_flops=[0.0, 0.0])
        assert assign.imbalance == 1.0

    def test_lpt_balances_better_than_worst_case(self):
        symb = prepare(grid3d(6))
        assign = partition_tree(symb, 4)
        # LPT guarantees max load <= (4/3 - 1/3m) * optimum; sanity-check
        # the far weaker claim that no rank owns everything
        busy = [f for f in assign.rank_flops if f > 0]
        assert len(busy) > 1
        total = sum(assign.rank_flops)
        assert max(assign.rank_flops) < total
        assert assign.imbalance < 2.0
        assert partition_tree(prepare(grid3d(7)), 4).imbalance < 2.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 12), st.integers(4, 12), st.integers(1, 9))
    def test_property_sweep(self, nx, ny, n_ranks):
        symb = prepare(grid2d(nx, ny))
        check_assignment(symb, partition_tree(symb, n_ranks), n_ranks)
