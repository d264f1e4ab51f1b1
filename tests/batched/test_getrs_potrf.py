"""Tests for irrGETRS (batched solve), and SPD batches on the LU path.

The batched Cholesky (irrPOTRF) is retired; SPD batches go through
irrLU and irrGETRS, and the right/lower/transposed irrTRSM it composed
stays part of the Fig 3 interface.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.flops import getrf_flops
from repro.batched import IrrBatch, irr_getrf, irr_getrs, irr_trsm, \
    lu_reconstruct
from repro.device import A100, Device
from repro.errors import FactorizationError


def spd(rng, n, dtype=np.float64):
    """A symmetric (Hermitian), strictly diagonally dominant matrix with
    a positive diagonal, so SPD: partial pivoting keeps every pivot on
    the diagonal."""
    g = rng.standard_normal((n, n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        g += 1j * rng.standard_normal((n, n))
    a = (g + g.conj().T) / 2
    return a + np.diag(np.abs(a).sum(axis=1) + 1.0)


def assert_cholesky_rescaled(lu, a, rtol=1e-10):
    """irrLU of a diagonally dominant SPD matrix is its Cholesky factor
    rescaled: ``L·√diag(U) = chol(A)``."""
    n = a.shape[0]
    lower = np.tril(lu, -1) + np.eye(n)
    np.testing.assert_allclose(lower * np.sqrt(np.diag(lu).real),
                               np.linalg.cholesky(a), rtol=rtol,
                               atol=rtol * np.sqrt(np.abs(a).max()))


class TestGetrs:
    def test_solves_irregular_batch(self, a100, rng):
        mats = [rng.standard_normal((n, n)) + n * np.eye(n)
                for n in (1, 8, 30, 64)]
        rhss = [rng.standard_normal((m.shape[0], k))
                for m, k in zip(mats, (2, 1, 5, 3))]
        fb = IrrBatch.from_host(a100, [m.copy() for m in mats])
        rb = IrrBatch.from_host(a100, [r.copy() for r in rhss])
        piv = irr_getrf(a100, fb)
        irr_getrs(a100, fb, piv, rb)
        for a, x, r in zip(mats, rb.to_host(), rhss):
            assert np.abs(a @ x - r).max() < 1e-10 * max(1, np.abs(r).max())

    def test_matches_lu_solve_factored(self, a100, rng):
        from repro.batched import lu_solve_factored
        a = rng.standard_normal((40, 40))
        r = rng.standard_normal((40, 2))
        fb = IrrBatch.from_host(a100, [a.copy()])
        rb = IrrBatch.from_host(a100, [r.copy()])
        piv = irr_getrf(a100, fb)
        irr_getrs(a100, fb, piv, rb)
        ref = lu_solve_factored(fb.matrix(0), piv[0], r)
        np.testing.assert_allclose(rb.to_host()[0], ref, rtol=1e-11)

    def test_three_launch_phases_plus_trsm(self, a100, rng):
        mats = [rng.standard_normal((32, 32)) for _ in range(10)]
        fb = IrrBatch.from_host(a100, mats)
        rb = IrrBatch.from_host(a100,
                                [rng.standard_normal((32, 1))] * 10)
        piv = irr_getrf(a100, fb)
        n0 = a100.profiler.launch_count
        irr_getrs(a100, fb, piv, rb)
        # pivots + 1 lower-trsm base + 1 upper-trsm base
        assert a100.profiler.launch_count - n0 == 3

    def test_repeated_solves_memoize_rehearsal(self, a100, rng):
        # the rehearsed pivot permutation is cached on the pivots object,
        # so repeated solves against one factorization rehearse once
        from repro.batched.engine import BatchEngine
        mats = [rng.standard_normal((n, n)) + n * np.eye(n)
                for n in (7, 23, 23, 41)]
        rhss = [rng.standard_normal((m.shape[0], 2)) for m in mats]
        fb = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, fb)
        eng = BatchEngine()
        xs = []
        for _ in range(2):
            rb = IrrBatch.from_host(a100, [r.copy() for r in rhss])
            irr_getrs(a100, fb, piv, rb, engine=eng)
            xs.append(rb.to_host())
            rb.free()
        assert piv._rehearsal is not None  # memoized after the first solve
        for x1, x2 in zip(*xs):
            np.testing.assert_array_equal(x1, x2)
        for a, x, r in zip(mats, xs[0], rhss):
            assert np.abs(a @ x - r).max() < 1e-10 * max(1, np.abs(r).max())

    def test_validation(self, a100, rng):
        fb = IrrBatch.from_host(a100, [rng.standard_normal((4, 5))])
        rb = IrrBatch.from_host(a100, [rng.standard_normal((4, 1))])
        piv = None
        with pytest.raises(ValueError, match="not square"):
            from repro.batched import PanelPivots
            irr_getrs(a100, fb, PanelPivots(fb), rb)

    def test_rhs_row_mismatch(self, a100, rng):
        from repro.batched import PanelPivots
        fb = IrrBatch.from_host(a100, [rng.standard_normal((4, 4))])
        rb = IrrBatch.from_host(a100, [rng.standard_normal((5, 1))])
        with pytest.raises(ValueError, match="rows"):
            irr_getrs(a100, fb, PanelPivots(fb), rb)

    def test_trans_unsupported(self, a100, rng):
        from repro.batched import PanelPivots
        fb = IrrBatch.from_host(a100, [rng.standard_normal((4, 4))])
        rb = IrrBatch.from_host(a100, [rng.standard_normal((4, 1))])
        with pytest.raises(NotImplementedError):
            irr_getrs(a100, fb, PanelPivots(fb), rb, trans="T")


class TestPotrf:
    def test_factors_irregular_batch(self, a100, rng):
        mats = [spd(rng, n) for n in (1, 7, 33, 64, 129)]
        b = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, b)
        for i, a in enumerate(mats):
            assert np.array_equal(piv.ipiv[i], np.arange(a.shape[0]))
            assert np.abs(lu_reconstruct(b.matrix(i), piv.ipiv[i]) - a
                          ).max() < 1e-12 * np.abs(a).max()

    def test_matches_numpy_cholesky(self, a100, rng):
        a = spd(rng, 50)
        b = IrrBatch.from_host(a100, [a.copy()])
        irr_getrf(a100, b, nb=8)
        assert_cholesky_rescaled(b.matrix(0), a)

    def test_upper_triangle_untouched(self, a100, rng):
        """The right/lower/transposed solve ``X·Lᵀ = B`` neither reads
        nor writes the strict upper triangle of ``L``."""
        sizes = (5, 40, 90)           # one base case, two recursions
        chols = [np.linalg.cholesky(spd(rng, n)) for n in sizes]
        tri = [c + np.triu(np.full_like(c, np.nan), 1) for c in chols]
        rhs = [rng.standard_normal((3, n)) for n in sizes]
        T = IrrBatch.from_host(a100, tri)
        B = IrrBatch.from_host(a100, [r.copy() for r in rhs])
        irr_trsm(a100, "R", "L", "T", "N", 3, max(sizes), 1.0,
                 T, (0, 0), B, (0, 0))
        for c, t, r, x in zip(chols, T.to_host(), rhs, B.to_host()):
            np.testing.assert_array_equal(t, c + np.triu(
                np.full_like(c, np.nan), 1))
            assert np.abs(x @ c.T - r).max() < 1e-12 * np.abs(r).max()

    def test_not_spd_raises(self, a100, rng):
        """An indefinite member factors; a singular one is flagged, and
        the solve refuses the batch."""
        indefinite = spd(rng, 6) - 40.0 * np.eye(6)
        mats = [spd(rng, 9), indefinite, np.zeros((4, 4))]
        b = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, b)
        assert list(piv.info) == [0, 0, 1]
        rhs = IrrBatch.from_host(a100, [np.ones((m.shape[0], 1))
                                        for m in mats])
        with pytest.raises(FactorizationError, match="broken-down"):
            irr_getrs(a100, b, piv, rhs)

    def test_rectangular_rejected(self, a100, rng):
        mats = [spd(rng, 5), rng.standard_normal((3, 5))]
        b = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, b)
        rhs = IrrBatch.from_host(a100, [np.ones((5, 1)), np.ones((3, 1))])
        with pytest.raises(ValueError, match="matrix 1 is not square"):
            irr_getrs(a100, b, piv, rhs)

    def test_invalid_panel(self, a100, rng):
        b = IrrBatch.from_host(a100, [spd(rng, 4)])
        with pytest.raises(ValueError, match="panel width"):
            irr_getrf(a100, b, nb=0)

    def test_flop_formula(self):
        """The LU path's flops on an SPD matrix: ``2n³/3``, twice a
        Cholesky's ``n³/3``."""
        assert getrf_flops(1, 1) == 0.0
        n = 300
        assert getrf_flops(n, n) == pytest.approx(2 * n ** 3 / 3, rel=1e-2)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5),
           st.integers(0, 2 ** 31 - 1), st.integers(1, 24))
    def test_property_cholesky(self, sizes, seed, nb):
        rng = np.random.default_rng(seed)
        dev = Device(A100())
        mats = [spd(rng, n) for n in sizes]
        b = IrrBatch.from_host(dev, [m.copy() for m in mats])
        irr_getrf(dev, b, nb=nb)
        for i, a in enumerate(mats):
            assert_cholesky_rescaled(b.matrix(i), a)


class TestComplexGuards:
    def test_potrf_rejects_complex(self, a100, rng):
        """A Hermitian positive definite batch factors on the LU path;
        the conjugate-transposed solve is not implemented, and says so."""
        a = spd(rng, 6, np.complex128)
        b = IrrBatch.from_host(a100, [a.copy()])
        piv = irr_getrf(a100, b)
        assert_cholesky_rescaled(b.matrix(0), a)
        rhs = IrrBatch.from_host(a100, [np.ones((6, 1), np.complex128)])
        with pytest.raises(NotImplementedError, match="trans"):
            irr_getrs(a100, b, piv, rhs, trans="C")
