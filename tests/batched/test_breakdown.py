"""Pivot-breakdown detection and static replacement in the batched LU.

Covers the magnitude-threshold fix (subnormal pivots like 1e-310 used to
pass the old ``== 0.0`` test and overflow the column scaling), the
relative ``pivot_tol`` threshold, static-pivot replacement, and the
bitwise engine-parity contract for every diagnostic the kernels emit.
"""

import numpy as np
import pytest

from repro.batched import IrrBatch, PanelPivots, irr_getrf
from repro.batched.getrf import lu_reconstruct
from repro.batched.getrs import irr_getrs
from repro.batched.panel import DEFAULT_REPLACE_SCALE
from repro.errors import FactorizationError

from .test_engine import records

ENGINES = ("naive", "bucketed")
PANELS = ("fused", "columnwise")


def subnormal_matrix():
    """Nonzero but subnormal second pivot: 1e-310 < tiny(float64)."""
    a = np.eye(3)
    a[1, 1] = 1e-310
    return a


class TestSubnormalPivotRegression:
    """The old detector tested ``pivot == 0.0``; a 1e-310 pivot passed
    and the column scaling ``1/pivot`` overflowed to inf."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("panel", PANELS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_1e310_pivot_flagged_not_overflowed(self, a100, engine, panel):
        b = IrrBatch.from_host(a100, [subnormal_matrix()])
        piv = irr_getrf(a100, b, panel=panel, engine=engine)
        assert piv.info[0] == 2  # 1-based column of the bad pivot
        assert np.all(np.isfinite(b.to_host()[0]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exact_zero_still_flagged(self, a100, engine):
        a = np.eye(3)
        a[2, 2] = 0.0
        b = IrrBatch.from_host(a100, [a])
        piv = irr_getrf(a100, b, engine=engine)
        assert piv.info[0] == 3

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_uniform_scaling_not_false_positive(self, a100, engine,
                                                     rng):
        # Every entry ~1e-300: pivots are far below any absolute cutoff
        # but healthy relative to max|A| — must factor cleanly.
        mats = [1e-300 * (np.eye(n) * 4.0 + rng.standard_normal((n, n)))
                for n in (4, 9, 17)]
        b = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, b, engine=engine)
        assert np.all(piv.info == 0)
        assert piv.n_replaced.sum() == 0
        for m, arr, ip in zip(mats, b.arrays, piv.ipiv):
            rec = lu_reconstruct(arr.data[:m.shape[0], :m.shape[1]], ip)
            np.testing.assert_allclose(rec, m, rtol=1e-12, atol=0)


class TestPivotTol:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_relative_threshold_flags_small_pivot(self, a100, engine):
        # second pivot is 1e-12·max|A|: clean under the default policy,
        # broken down under pivot_tol=1e-8.
        a = np.diag([1.0, 1e-12])
        b0 = IrrBatch.from_host(a100, [a.copy()])
        assert irr_getrf(a100, b0, engine=engine).info[0] == 0
        b1 = IrrBatch.from_host(a100, [a.copy()])
        piv = irr_getrf(a100, b1, pivot_tol=1e-8, engine=engine)
        assert piv.info[0] == 2
        assert piv.min_pivot[0] == 1e-12

    def test_negative_pivot_tol_rejected(self, a100):
        b = IrrBatch.from_host(a100, [np.eye(2)])
        with pytest.raises(ValueError, match="pivot_tol"):
            irr_getrf(a100, b, pivot_tol=-1.0)

    def test_nonpositive_replace_scale_rejected(self, a100):
        b = IrrBatch.from_host(a100, [np.eye(2)])
        with pytest.raises(ValueError, match="replace_scale"):
            irr_getrf(a100, b, static_pivot=True, replace_scale=0.0)


class TestStaticPivot:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_replacement_recovers_factorization(self, a100, engine):
        b = IrrBatch.from_host(a100, [subnormal_matrix()])
        piv = irr_getrf(a100, b, static_pivot=True, engine=engine)
        assert piv.info[0] == 0
        assert piv.n_replaced[0] == 1
        lu = b.to_host()[0]
        assert np.all(np.isfinite(lu))
        # the replaced pivot carries the documented magnitude
        assert lu[1, 1] == pytest.approx(DEFAULT_REPLACE_SCALE, rel=1e-12)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_replacement_preserves_sign(self, a100, engine):
        a = np.diag([1.0, -1e-320])
        b = IrrBatch.from_host(a100, [a])
        piv = irr_getrf(a100, b, static_pivot=True, engine=engine)
        assert piv.info[0] == 0
        assert b.to_host()[0][1, 1] < 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_matrix_not_replaceable(self, a100, engine):
        # max|A| = 0: there is no scale to synthesize a pivot from, so
        # static pivoting must not "recover" an all-zero matrix.
        b = IrrBatch.from_host(a100, [np.zeros((3, 3))])
        piv = irr_getrf(a100, b, static_pivot=True, engine=engine)
        assert piv.info[0] == 1
        assert piv.n_replaced[0] == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_growth_and_min_pivot_recorded(self, a100, engine, rng):
        mats = [rng.standard_normal((n, n)) for n in (5, 12)]
        b = IrrBatch.from_host(a100, mats)
        piv = irr_getrf(a100, b, engine=engine)
        assert np.all(piv.min_pivot > 0)
        assert np.all(np.isfinite(piv.min_pivot))
        assert np.all(piv.growth >= 1.0 - 1e-15)


class TestEngineParityOnBreakdown:
    """The bucketed engine must emit bitwise-identical factors *and*
    diagnostics on batches containing broken/replaced pivots."""

    def _mixed_batch(self, rng):
        mats = []
        for n in (3, 5, 5, 5, 9, 16, 16, 33):
            m = rng.standard_normal((n, n))
            mats.append(m)
        mats[1] = subnormal_matrix()          # subnormal pivot
        z = rng.standard_normal((7, 7))
        z[:, 4] = 0.0
        z[4, :] = 0.0
        mats.append(z)                        # zero row+col (singular)
        mats.append(np.zeros((4, 4)))         # all-zero matrix
        return mats

    def _uniform_nonfinite_batch(self, rng):
        # A uniform 12x12 bucket with partial breakdowns (a zero column,
        # a zero row), then a tall and a wide member, then an inf and a
        # NaN member.  With nb=8 the second panel puts all of them in one
        # row class, padded to the tall member's 32 rows.
        mats = [rng.standard_normal((12, 12)) for _ in range(10)]
        mats[3][:, 5] = 0.0
        mats[6][9, :] = 0.0
        mats += [rng.standard_normal((40, 12)), rng.standard_normal((12, 40))]
        for bad in (np.inf, np.nan):
            m = rng.standard_normal((12, 12))
            m[7, 10] = bad
            mats.append(m)
        return mats

    def _padding_nonfinite_batch(self, rng):
        # The 2x2 member's inf reaches its padding as 0*inf = NaN while
        # its real row holds -inf; the padding must never win a pivot.
        return [np.array([[1.0, np.inf], [0.5, 2.0]]),
                rng.standard_normal((5, 5))]

    BATCHES = {"mixed": (_mixed_batch, 32),
               "uniform-nonfinite": (_uniform_nonfinite_batch, 8),
               "padding-nonfinite": (_padding_nonfinite_batch, 32)}

    @pytest.mark.parametrize("case", sorted(BATCHES))
    @pytest.mark.parametrize("static", [False, True])
    @pytest.mark.parametrize("pivot_tol", [0.0, 1e-8])
    def test_bitwise_identical_factors_and_diagnostics(
            self, a100, mi100, case, static, pivot_tol):
        build, nb = self.BATCHES[case]
        mats = build(self, np.random.default_rng(7))
        bn = IrrBatch.from_host(a100, [m.copy() for m in mats])
        bb = IrrBatch.from_host(mi100, [m.copy() for m in mats])
        with np.errstate(invalid="ignore", over="ignore"):
            pn = irr_getrf(a100, bn, engine="naive", nb=nb,
                           pivot_tol=pivot_tol, static_pivot=static)
            pb = irr_getrf(mi100, bb, engine="bucketed", nb=nb,
                           pivot_tol=pivot_tol, static_pivot=static)
        for xn, xb in zip(bn.to_host(), bb.to_host()):
            assert np.array_equal(xn, xb, equal_nan=True)
        for ipn, ipb in zip(pn.ipiv, pb.ipiv):
            assert np.array_equal(ipn, ipb)
        assert np.array_equal(pn.info, pb.info)
        assert np.array_equal(pn.n_replaced, pb.n_replaced)
        assert np.array_equal(pn.min_pivot, pb.min_pivot)
        assert np.array_equal(pn.growth, pb.growth, equal_nan=True)
        assert records(a100) == records(mi100)


class TestGetrsRefusal:
    def test_solve_from_broken_factors_refused(self, a100, rng):
        mats = [rng.standard_normal((4, 4)), np.zeros((3, 3))]
        b = IrrBatch.from_host(a100, mats)
        piv = irr_getrf(a100, b)
        assert piv.info[1] == 1
        rhs = IrrBatch.from_host(a100, [np.ones((4, 1)), np.ones((3, 1))])
        with pytest.raises(FactorizationError, match="broken-down"):
            irr_getrs(a100, b, piv, rhs)

    def test_flagged_member_refused_before_launch(self, a100, rng):
        # the info check always runs: a flagged member is refused even
        # when its factors are usable, by index, before any launch
        mats = [rng.standard_normal((4, 4)), rng.standard_normal((3, 3))]
        b = IrrBatch.from_host(a100, mats)
        piv = irr_getrf(a100, b)
        piv.info[1] = 1  # simulate a flagged member with usable factors
        rhs = IrrBatch.from_host(a100, [np.ones((4, 1)), np.ones((3, 1))])
        launches = a100.profiler.launch_count
        with pytest.raises(FactorizationError, match=r"matrices \[1\]"):
            irr_getrs(a100, b, piv, rhs)
        assert a100.profiler.launch_count == launches
