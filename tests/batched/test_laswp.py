"""Tests for irrLASWP: looped vs rehearsed row interchanges."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batched import IrrBatch, PanelPivots, fused_getf2, irr_getrf, \
    irr_laswp, looped_laswp, rehearsed_laswp
from repro.batched import engine as engine_mod
from repro.batched.engine import BatchEngine
from repro.batched.laswp import apply_interchanges
from repro.device import A100, Device


def apply_reference_swaps(a, ipiv, j, ib, cols):
    out = a.copy()
    k = len(ipiv)
    for r in range(j, min(j + ib, k)):
        p = int(ipiv[r])
        if p != r:
            out[[r, p], cols] = out[[p, r], cols]
    return out


def make_pivoted_batch(dev, rng, shapes, j, ib):
    """A batch with a factored panel at (j, j) so pivots are realistic."""
    mats = [rng.standard_normal(s) for s in shapes]
    b = IrrBatch.from_host(dev, mats)
    piv = PanelPivots(b)
    fused_getf2(dev, b, piv, j, ib)
    return b, piv


class TestEquivalence:
    @pytest.mark.parametrize("part", ["left", "right"])
    def test_looped_equals_rehearsed(self, rng, part):
        shapes = [(20, 20), (9, 9), (33, 40), (40, 12)]
        j, ib = 4, 4
        dev_a, dev_b = Device(A100()), Device(A100())
        rng2 = np.random.default_rng(7)
        ba, piv_a = make_pivoted_batch(dev_a, rng2, shapes, j, ib)
        rng2 = np.random.default_rng(7)
        bb, piv_b = make_pivoted_batch(dev_b, rng2, shapes, j, ib)
        looped_laswp(dev_a, ba, piv_a, j, ib, part)
        rehearsed_laswp(dev_b, bb, piv_b, j, ib, part)
        for i in range(len(shapes)):
            np.testing.assert_array_equal(ba.arrays[i].data,
                                          bb.arrays[i].data)

    @pytest.mark.parametrize("variant", ["looped", "rehearsed"])
    def test_matches_reference_swaps(self, a100, rng, variant):
        shapes = [(24, 24), (10, 30)]
        j, ib = 8, 8
        b, piv = make_pivoted_batch(a100, rng, shapes, j, ib)
        snapshots = [a.data.copy() for a in b.arrays]
        irr_laswp(a100, b, piv, j, ib, "right", variant=variant)
        for i, (snap, arr) in enumerate(zip(snapshots, b.arrays)):
            n = b.n_vec[i]
            cols = slice(min(j + ib, n), n)
            want = apply_reference_swaps(snap, piv.ipiv[i], j, ib, cols)
            np.testing.assert_array_equal(arr.data, want)

    def test_left_part_only_touches_left_columns(self, a100, rng):
        b, piv = make_pivoted_batch(a100, rng, [(16, 16)], 4, 4)
        snap = b.arrays[0].data.copy()
        irr_laswp(a100, b, piv, 4, 4, "left", variant="rehearsed")
        # columns >= j untouched by the left swap
        np.testing.assert_array_equal(b.arrays[0].data[:, 4:], snap[:, 4:])


class TestDcwiWidths:
    def test_narrow_matrix_right_part_empty(self, a100, rng):
        # A matrix whose columns end inside the panel has w_r = 0.
        shapes = [(30, 30), (30, 8)]
        j, ib = 4, 8
        b, piv = make_pivoted_batch(a100, rng, shapes, j, ib)
        before = b.arrays[1].data.copy()
        irr_laswp(a100, b, piv, j, ib, "right", variant="rehearsed")
        np.testing.assert_array_equal(b.arrays[1].data, before)

    def test_finished_matrix_skipped(self, a100, rng):
        shapes = [(30, 30), (3, 3)]
        j, ib = 8, 8
        b, piv = make_pivoted_batch(a100, rng, shapes, j, ib)
        before = b.arrays[1].data.copy()
        for part in ("left", "right"):
            irr_laswp(a100, b, piv, j, ib, part, variant="looped")
            irr_laswp(a100, b, piv, j, ib, part, variant="rehearsed")
        np.testing.assert_array_equal(b.arrays[1].data, before)

    def test_invalid_variant(self, a100, rng):
        b, piv = make_pivoted_batch(a100, rng, [(8, 8)], 0, 4)
        with pytest.raises(ValueError, match="variant"):
            irr_laswp(a100, b, piv, 0, 4, "right", variant="bogus")

    def test_invalid_part(self, a100, rng):
        b, piv = make_pivoted_batch(a100, rng, [(8, 8)], 0, 4)
        with pytest.raises(ValueError, match="part"):
            looped_laswp(a100, b, piv, 0, 4, "middle")


class TestCostModel:
    def test_looped_launches_per_pivot_row(self, a100, rng):
        b, piv = make_pivoted_batch(a100, rng, [(64, 64)], 0, 16)
        n0 = a100.profiler.launch_count
        looped_laswp(a100, b, piv, 0, 16, "right")
        assert a100.profiler.launch_count - n0 == 16

    def test_rehearsed_is_one_launch(self, a100, rng):
        b, piv = make_pivoted_batch(a100, rng, [(64, 64)], 0, 16)
        a100.synchronize()
        n0 = len(a100.profiler.records)
        rehearsed_laswp(a100, b, piv, 0, 16, "right")
        a100.synchronize()
        assert [r.name for r in a100.profiler.records[n0:]] == \
            ["irrlaswp:right"]

    def test_looped_free_when_pivots_on_diagonal(self, rng):
        # The §IV-F corner case: diagonally dominant matrices pivot on the
        # diagonal, so the looped variant moves zero bytes...
        dev = Device(A100())
        a = rng.standard_normal((32, 32)) + 1e3 * np.eye(32)
        b = IrrBatch.from_host(dev, [a])
        piv = PanelPivots(b)
        fused_getf2(dev, b, piv, 0, 8)
        assert np.all(piv.ipiv[0][:8] == np.arange(8))
        dev.synchronize()  # flush earlier records
        n0 = len(dev.profiler.records)
        looped_laswp(dev, b, piv, 0, 8, "right")
        dev.synchronize()
        cost_loop = sum(r.cost.bytes_total
                        for r in dev.profiler.records[n0:])
        assert cost_loop == 0.0

    def test_rehearsed_cost_pattern_independent(self, rng):
        # ... while the rehearsed variant pays the same traffic whether or
        # not any row actually moved.
        dev = Device(A100())
        a = rng.standard_normal((32, 32)) + 1e3 * np.eye(32)
        b = IrrBatch.from_host(dev, [a])
        piv = PanelPivots(b)
        fused_getf2(dev, b, piv, 0, 8)
        dev.synchronize()
        n0 = len(dev.profiler.records)
        rehearsed_laswp(dev, b, piv, 0, 8, "right")
        dev.synchronize()
        gather_bytes = sum(r.cost.bytes_total
                           for r in dev.profiler.records[n0:]
                           if r.name == "irrlaswp:right")
        assert gather_bytes > 0


def _random_pivots(rng, batch, j, ib):
    """Pivots of a panel at (j, j): every row of the window trades with
    a row at or below it (LAPACK's ``ipiv[r] >= r``), some with itself."""
    piv = PanelPivots(batch)
    for i, ip in enumerate(piv.ipiv):
        m = int(batch.m_vec[i])
        for r in range(j, min(j + ib, len(ip))):
            ip[r] = r if rng.random() < 0.3 else rng.integers(r, m)
    return piv


class TestOneLaunch:
    """The rehearsed LASWP is ONE launch on either engine: every block
    replays its own matrix's pivot window, so no launch of its own
    rehearses an index column, and both engines move the same rows under
    the same record."""

    # (rows, cols) at j=8, ib=8: a square member, a tall one, a wide one,
    # one finished before the panel (no pivots), one whose columns end
    # inside the panel (no right width), one ending at the window's
    # start (no window width) and a one-row one
    SHAPES = [(40, 40), (70, 33), (12, 50), (6, 6), (30, 12), (25, 16),
              (1, 64)]

    @pytest.mark.parametrize("smem", [None, 4096], ids=["a100", "smem4k"])
    @pytest.mark.parametrize("part", ["left", "right", (16, 24)],
                             ids=["left", "right", "window"])
    def test_engines_match_the_sequential_swaps(self, part, smem):
        spec = A100() if smem is None else \
            dataclasses.replace(A100(), max_shared_per_block=smem)
        j, ib = 8, 8
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal(s) for s in self.SHAPES]
        runs = []
        for engine in ("naive", "bucketed"):
            dev = Device(spec)
            b = IrrBatch.from_host(dev, mats)
            piv = _random_pivots(np.random.default_rng(5), b, j, ib)
            dev.synchronize()
            rehearsed_laswp(dev, b, piv, j, ib, part, engine=engine)
            dev.synchronize()
            rec = [(r.name, r.stream, r.cost, r.start, r.end)
                   for r in dev.profiler.records]
            runs.append(([a.data.copy() for a in b.arrays], rec, piv))
        (out_n, rec_n, piv), (out_b, rec_b, _) = runs
        assert rec_n == rec_b
        label = part if isinstance(part, str) else "win16:24"
        assert [r[0] for r in rec_b] == [f"irrlaswp:{label}"]
        cost = rec_b[0][2]
        assert cost.shared_mem_per_block <= spec.max_shared_per_block
        for i, (a0, a_n, a_b) in enumerate(zip(mats, out_n, out_b)):
            n = a0.shape[1]
            c0, c1 = {"left": (0, min(j, n)),
                      "right": (min(j + ib, n), n)}.get(
                          part, (min(16, n), min(24, n)))
            want = apply_reference_swaps(a0, piv.ipiv[i], j, ib,
                                         slice(c0, c1))
            assert np.array_equal(a_n, want), i
            assert np.array_equal(a_b, want), i

    def test_factor_bitwise_on_both_engines_under_small_shared_memory(self):
        # 4 KB blocks: the fused panel holds 16 rows, so taller members
        # take the recursive panel split and its window swaps
        spec = dataclasses.replace(A100(), max_shared_per_block=4096)
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((m, n)) for m, n in
                [(48, 48), (30, 30), (64, 40), (5, 5), (20, 52), (1, 1)]]
        runs = []
        for engine in ("naive", "bucketed"):
            dev = Device(spec)
            b = IrrBatch.from_host(dev, mats)
            piv = irr_getrf(dev, b, engine=engine)
            dev.synchronize()
            rec = [(r.name, r.stream, r.cost, r.start, r.end)
                   for r in dev.profiler.records]
            runs.append(([a.data.copy() for a in b.arrays], piv.ipiv, rec))
        (f_n, p_n, rec_n), (f_b, p_b, rec_b) = runs
        assert rec_n == rec_b
        names = {r[0] for r in rec_b}
        assert {"irrlaswp:left", "irrlaswp:right"} <= names
        assert any(n.startswith("irrlaswp:win") for n in names)
        assert not any(n.endswith((":init", ":rehearse", ":gather"))
                       for n in names)
        for x, y in zip(f_n, f_b, strict=True):
            assert np.array_equal(x, y)
        for x, y in zip(p_n, p_b, strict=True):
            assert np.array_equal(x, y)


class TestRehearsedPermutation:
    """``BatchEngine._rehearse_permutation`` is the sequential interchange
    loop replayed on row indices, on its member-by-member branch and on
    its vectorized one alike."""

    @pytest.mark.parametrize("cutoff", [0, None, 10 ** 9],
                             ids=["vectorized", "default", "member"])
    @settings(max_examples=40, deadline=None)
    @given(bs=st.integers(0, 90), nrows=st.integers(1, 24),
           keep=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
           base=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_sequential_replay(self, cutoff, bs, nrows, keep, base,
                                      seed):
        # each member a window of k <= nrows pivots counted from `base`:
        # none, mostly identity (keep near 1) or mostly swaps (keep 0)
        rng = np.random.default_rng(seed)
        pivots = []
        for _ in range(bs):
            k = int(rng.integers(0, nrows + 1))
            moved = rng.random(k) >= keep
            pivots.append(base + np.where(moved, rng.integers(0, nrows, k),
                                          np.arange(k)))
        want = np.tile(np.arange(nrows), (bs, 1))
        want_swaps = [apply_interchanges(want[i], pv - base)
                      for i, pv in enumerate(pivots)]
        if cutoff is None:
            cutoff = engine_mod._REPLAY_MOVES_PER_ROW
        with mock.patch.object(engine_mod, "_REPLAY_MOVES_PER_ROW", cutoff):
            perm, swaps = BatchEngine._rehearse_permutation(pivots, nrows,
                                                            base=base)
        assert np.array_equal(perm, want.reshape(bs, nrows))
        assert swaps.tolist() == want_swaps
