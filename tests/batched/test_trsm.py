"""Tests for irrTRSM (recursive) and the MAGMA-style baseline."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from repro.analysis import max_trsm_backward_error
from repro.batched import IrrBatch, irr_trsm, magma_style_trsm
from repro.batched.engine import trsm_base_smem, trsm_stream_order
from repro.device import A100, MI100, Device


def make_tri_problem(rng, sizes_rhs, side="L", diag="N"):
    """Well-conditioned triangular systems of mixed sizes."""
    ts, bs = [], []
    for mr in sizes_rhs:
        m, r = mr
        b = rng.standard_normal((m, r))
        order = m if side == "L" else r
        t = 0.4 * rng.standard_normal((order, order)) / max(
            1.0, np.sqrt(order))
        t += np.eye(order) * (1.0 if diag == "U" else order)
        ts.append(t)
        bs.append(b)
    return ts, bs


def reference_solve(t, b, side, uplo, trans, diag):
    tt = np.tril(t) if uplo == "L" else np.triu(t)
    if diag == "U":
        tt = tt.copy()
        np.fill_diagonal(tt, 1.0)
    op = tt.T if trans == "T" else tt
    if side == "L":
        return np.linalg.solve(op, b)
    return np.linalg.solve(op.T, b.T).T


SIZES = [(5, 3), (37, 8), (64, 1), (100, 17), (1, 2)]


class TestAllCombinations:
    @pytest.mark.parametrize(
        "side,uplo,trans,diag",
        list(itertools.product("LR", "LU", "NT", "NU")))
    def test_residual_small(self, rng, side, uplo, trans, diag):
        dev = Device(A100())
        sizes = SIZES if side == "L" else [(r, m) for m, r in SIZES]
        ts, bs = make_tri_problem(rng, sizes, side=side, diag=diag)

        def solve(members):
            T = IrrBatch.from_host(dev, [ts[i] for i in members])
            B = IrrBatch.from_host(dev, [bs[i].copy() for i in members])
            m = max(bs[i].shape[0] for i in members)
            n = max(bs[i].shape[1] for i in members)
            irr_trsm(dev, side, uplo, trans, diag, m, n, 1.0, T, (0, 0),
                     B, (0, 0))
            return dict(zip(members, B.to_host()))

        xs = solve(list(range(len(bs))))
        for i, (t, b) in enumerate(zip(ts, bs)):
            ref = reference_solve(t, b, side, uplo, trans, diag)
            np.testing.assert_allclose(xs[i], ref, rtol=1e-9, atol=1e-9)
        # partition property: each member alone, and the batch as two
        # launches with different required orders, give the one-launch bits
        for part in ([[i] for i in range(len(bs))], [[0, 1, 4], [2, 3]]):
            for members in part:
                for i, x in solve(members).items():
                    np.testing.assert_array_equal(x, xs[i])


class TestMixedDtype:
    def test_real_triangles_complex_rhs(self, rng):
        # real factors against complex right-hand sides: the multifrontal
        # solve path after dtype promotion (complex b, real LU)
        ts, _ = make_tri_problem(rng, SIZES)
        bs = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
              for m, r in SIZES]
        m = max(b.shape[0] for b in bs)
        n = max(b.shape[1] for b in bs)
        results = {}
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            T = IrrBatch.from_host(dev, ts)
            B = IrrBatch.from_host(dev, [b.copy() for b in bs])
            irr_trsm(dev, "L", "L", "N", "U", m, n, 1.0, T, (0, 0),
                     B, (0, 0), engine=engine)
            results[engine] = B.to_host()
        for xn, xb in zip(results["naive"], results["bucketed"]):
            assert xn.dtype == np.complex128
            np.testing.assert_array_equal(xn, xb)
        for t, b, x in zip(ts, bs, results["naive"]):
            ref = reference_solve(t, b, "L", "L", "N", "U")
            np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-9)


class TestSemantics:
    def test_alpha_scaling(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(16, 4)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        irr_trsm(a100, "L", "L", "N", "N", 16, 4, 2.5, T, (0, 0), B, (0, 0))
        ref = 2.5 * reference_solve(ts[0], bs[0], "L", "L", "N", "N")
        np.testing.assert_allclose(B.to_host()[0], ref, rtol=1e-10)

    def test_offsets_solve_trailing_block(self, a100, rng):
        # Solve with the 4x4 trailing triangle of an 8x8 matrix against
        # the B rows 4:8 — the pattern irrLU uses at every panel.
        t = np.eye(8) * 8 + 0.1 * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 5))
        T = IrrBatch.from_host(a100, [t])
        B = IrrBatch.from_host(a100, [b.copy()])
        irr_trsm(a100, "L", "L", "N", "N", 4, 5, 1.0, T, (4, 4), B, (4, 0))
        want = b.copy()
        want[4:, :] = reference_solve(t[4:, 4:], b[4:, :], "L", "L", "N", "N")
        np.testing.assert_allclose(B.to_host()[0], want, rtol=1e-10)

    def test_finished_matrices_skipped(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(32, 4), (2, 4)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        irr_trsm(a100, "L", "L", "N", "N", 16, 4, 1.0, T, (8, 8), B, (8, 0))
        # matrix 1 (2x2 triangle) is exhausted at offset 8: untouched.
        np.testing.assert_array_equal(B.to_host()[1], bs[1])

    def test_zero_dims_noop(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(8, 3)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        n0 = a100.profiler.launch_count
        irr_trsm(a100, "L", "L", "N", "N", 0, 3, 1.0, T, (0, 0), B, (0, 0))
        irr_trsm(a100, "L", "L", "N", "N", 8, 0, 1.0, T, (0, 0), B, (0, 0))
        assert a100.profiler.launch_count == n0
        np.testing.assert_array_equal(B.to_host()[0], bs[0])

    def test_validation(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(8, 3)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, bs)
        with pytest.raises(ValueError, match="side"):
            irr_trsm(a100, "X", "L", "N", "N", 8, 3, 1.0, T, (0, 0),
                     B, (0, 0))
        with pytest.raises(ValueError, match="uplo"):
            irr_trsm(a100, "L", "X", "N", "N", 8, 3, 1.0, T, (0, 0),
                     B, (0, 0))
        with pytest.raises(ValueError, match="base_nb"):
            irr_trsm(a100, "L", "L", "N", "N", 8, 3, 1.0, T, (0, 0),
                     B, (0, 0), base_nb=0)

    def test_recursion_reduces_to_base_and_gemm(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(128, 4)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        n0 = a100.profiler.launch_count
        irr_trsm(a100, "L", "L", "N", "N", 128, 4, 1.0, T, (0, 0), B, (0, 0))
        launches = a100.profiler.launch_count - n0
        # 128 -> 4 base solves of 32 + 3 gemm updates = 7 launches
        assert launches == 7


class TestStreamedBase:
    """A ``base_nb`` above one 32-wide tile: one base launch streams
    every triangle, one thread block per matrix per column tile."""

    SIZES = [(130, 40), (37, 1), (64, 33)]

    def run(self, rng, engine, base_nb, sizes=SIZES, spec=A100):
        dev = Device(spec())
        ts, bs = make_tri_problem(rng, sizes)
        T = IrrBatch.from_host(dev, ts)
        B = IrrBatch.from_host(dev, [b.copy() for b in bs])
        m = max(b.shape[0] for b in bs)
        n = max(b.shape[1] for b in bs)
        irr_trsm(dev, "L", "L", "N", "N", m, n, 1.0, T, (0, 0), B, (0, 0),
                 base_nb=base_nb, engine=engine)
        dev.synchronize()
        return ts, bs, B.to_host(), dev.profiler.records

    @pytest.mark.parametrize("engine", ["naive", "bucketed"])
    def test_one_launch_one_trtrs_per_matrix(self, engine):
        ts, bs, xs, recs = self.run(np.random.default_rng(3), engine, 130)
        assert [r.name for r in recs] == ["irrtrsm:base"]
        for t, b, x in zip(ts, bs, xs):
            assert np.array_equal(x, sla.solve_triangular(
                t, b, lower=True, check_finite=False))
        c = recs[0].cost
        tiles = [-(-r // 32) for _m, r in self.SIZES]
        assert c.blocks == sum(tiles)
        assert c.shared_mem_per_block == (32 * 32 + 130 * 32) * 8
        assert c.flops == sum(m * m * r for m, r in self.SIZES)
        # the triangle once per column tile, B read and written once
        assert c.bytes_read == sum((m * m / 2 * k + m * r) * 8
                                   for (m, r), k in zip(self.SIZES, tiles))
        assert c.bytes_written == sum(m * r * 8 for m, r in self.SIZES)
        assert c.compute_ramp == 0.5

    def test_order_within_a_tile_keeps_its_record(self):
        sizes = [(20, 40), (7, 3)]
        _, _, x32, r32 = self.run(np.random.default_rng(5), None, 32, sizes)
        _, _, x64, r64 = self.run(np.random.default_rng(5), None, 64, sizes)
        assert all(np.array_equal(a, b) for a, b in zip(x32, x64))
        assert [r.cost for r in r32] == [r.cost for r in r64]

    def test_base_that_does_not_fit_raises_before_launching(self):
        # 300 rows of a 32-column tile plus a diagonal tile: 84 KB of
        # doubles against the MI100's 64 KB per block
        with pytest.raises(ValueError, match="shared memory"):
            self.run(np.random.default_rng(6), None, 300, [(300, 40)],
                     spec=MI100)
        _, _, _, recs = self.run(np.random.default_rng(6), None, 300,
                                 [(300, 1)], spec=MI100)
        assert [r.name for r in recs] == ["irrtrsm:base"]

    @pytest.mark.parametrize("spec", [A100, MI100])
    def test_stream_order_is_the_largest_that_fits(self, spec):
        limit = spec().max_shared_per_block
        for itemsize, rhs in itertools.product((4, 8, 16),
                                               (1, 7, 32, 500)):
            order = trsm_stream_order(spec(), rhs, itemsize)
            assert trsm_base_smem(order, rhs, itemsize) <= limit
            assert trsm_base_smem(order + 1, rhs, itemsize) > limit
        assert trsm_stream_order(spec(), 32, 8) == \
            {A100: 620, MI100: 224}[spec]


class TestMagmaStyleBaseline:
    def test_matches_reference(self, a100, rng):
        ts, bs = make_tri_problem(rng, SIZES)
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        m = max(b.shape[0] for b in bs)
        n = max(b.shape[1] for b in bs)
        magma_style_trsm(a100, "L", "L", "N", "N", m, n, 1.0, T, (0, 0),
                         B, (0, 0))
        for t, b, x in zip(ts, bs, B.to_host()):
            ref = reference_solve(t, b, "L", "L", "N", "N")
            np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-8)

    def test_upper_variant(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(24, 4), (9, 2)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, [b.copy() for b in bs])
        magma_style_trsm(a100, "L", "U", "N", "N", 24, 4, 1.0, T, (0, 0),
                         B, (0, 0))
        for t, b, x in zip(ts, bs, B.to_host()):
            ref = reference_solve(t, b, "L", "U", "N", "N")
            np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-8)

    def test_unsupported_configuration(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(8, 3)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, bs)
        with pytest.raises(NotImplementedError):
            magma_style_trsm(a100, "R", "L", "N", "N", 8, 3, 1.0, T, (0, 0),
                             B, (0, 0))

    def test_workspace_freed(self, a100, rng):
        ts, bs = make_tri_problem(rng, [(32, 8)])
        T = IrrBatch.from_host(a100, ts)
        B = IrrBatch.from_host(a100, bs)
        before = a100.allocated_bytes
        magma_style_trsm(a100, "L", "L", "N", "N", 32, 8, 1.0, T, (0, 0),
                         B, (0, 0))
        assert a100.allocated_bytes == before


class TestAccuracyClaim:
    def test_irrtrsm_not_less_accurate_than_magma(self, rng):
        """Fig 6's claim: the true substitution achieves slightly better
        backward error than the explicit-inverse approach."""
        dev = Device(A100())
        # Moderately conditioned triangles so the inverse loses digits but
        # the paper's |b - Tx|/|b| metric stays meaningful.
        ts, bs = [], []
        for _ in range(24):
            n = int(rng.integers(16, 96))
            t = np.tril(rng.standard_normal((n, n))) / np.sqrt(n)
            signs = np.where(np.diag(t) < 0, -1.0, 1.0)
            np.fill_diagonal(t, signs * (0.5 + np.abs(np.diag(t))))
            ts.append(t)
            bs.append(rng.standard_normal((n, 8)))
        m = max(t.shape[0] for t in ts)

        Bi = IrrBatch.from_host(dev, [b.copy() for b in bs])
        Ti = IrrBatch.from_host(dev, ts)
        irr_trsm(dev, "L", "L", "N", "N", m, 8, 1.0, Ti, (0, 0), Bi, (0, 0))
        err_irr = max_trsm_backward_error(ts, Bi.to_host(), bs, uplo="L")

        Bm = IrrBatch.from_host(dev, [b.copy() for b in bs])
        magma_style_trsm(dev, "L", "L", "N", "N", m, 8, 1.0, Ti, (0, 0),
                         Bm, (0, 0))
        err_magma = max_trsm_backward_error(ts, Bm.to_host(), bs, uplo="L")

        assert err_irr <= err_magma * 1.5  # at least comparable
        assert err_irr < 1e-10


class TestTrsmProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 48), st.integers(1, 8)),
                    min_size=1, max_size=5),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["L", "U"]), st.sampled_from(["N", "T"]))
    def test_left_solve_residual(self, sizes, seed, uplo, trans):
        rng = np.random.default_rng(seed)
        dev = Device(A100())
        ts, bs = make_tri_problem(rng, sizes)
        T = IrrBatch.from_host(dev, ts)
        B = IrrBatch.from_host(dev, [b.copy() for b in bs])
        m = max(b.shape[0] for b in bs)
        n = max(b.shape[1] for b in bs)
        irr_trsm(dev, "L", uplo, trans, "N", m, n, 1.0, T, (0, 0), B, (0, 0))
        for t, b, x in zip(ts, bs, B.to_host()):
            tt = np.tril(t) if uplo == "L" else np.triu(t)
            op = tt.T if trans == "T" else tt
            res = np.abs(op @ x - b).max() / max(np.abs(b).max(), 1e-300)
            assert res < 1e-11
