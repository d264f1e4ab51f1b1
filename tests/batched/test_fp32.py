"""FP32 support across the batched stack (the interface's generic "type T")."""

import numpy as np
import pytest

from repro.batched import IrrBatch, irr_gemm, irr_getrf, irr_getrs, \
    irr_trsm, lu_reconstruct
from repro.batched.panel import DEFAULT_REPLACE_SCALE, default_replace_scale
from repro.device import A100, Device


def _well_conditioned(rng, m, n, dtype):
    a = rng.standard_normal((m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((m, n))
    return (a + 4 * np.eye(m, n)).astype(dtype)


class TestDtypeHandling:
    def test_float32_preserved(self, a100, rng):
        b = IrrBatch.from_host(
            a100, [rng.standard_normal((4, 4)).astype(np.float32)])
        assert b.dtype == np.float32
        assert b.itemsize == 4
        assert b.peak_scale == 2.0

    def test_float64_default(self, a100, rng):
        b = IrrBatch.from_host(a100, [rng.standard_normal((4, 4))])
        assert b.dtype == np.float64
        assert b.peak_scale == 1.0

    def test_explicit_dtype_cast(self, a100, rng):
        b = IrrBatch.from_host(a100, [rng.standard_normal((4, 4))],
                               dtype=np.float32)
        assert b.dtype == np.float32

    def test_mixed_dtypes_rejected(self, a100, rng):
        a32 = a100.from_host(rng.standard_normal((2, 2)).astype(np.float32))
        a64 = a100.from_host(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="mixed data types"):
            IrrBatch(a100, [a32, a64], np.array([2, 2]), np.array([2, 2]))

    def test_integer_dtype_rejected(self, a100):
        arr = a100.from_host(np.ones((2, 2), dtype=np.int32))
        with pytest.raises(ValueError, match="unsupported data type"):
            IrrBatch(a100, [arr], np.array([2]), np.array([2]))


class TestFp32Numerics:
    def test_getrf_fp32(self, a100, rng):
        mats = [rng.standard_normal((int(n), int(n))).astype(np.float32)
                for n in rng.integers(1, 70, 10)]
        b = IrrBatch.from_host(a100, [m.copy() for m in mats])
        piv = irr_getrf(a100, b)
        for i, orig in enumerate(mats):
            rec = lu_reconstruct(b.matrix(i).astype(np.float64), piv[i])
            err = np.abs(rec - orig).max() / max(1.0, np.abs(orig).max())
            assert err < 1e-4   # single precision

    def test_factors_stay_fp32(self, a100, rng):
        b = IrrBatch.from_host(
            a100, [rng.standard_normal((40, 40)).astype(np.float32)])
        irr_getrf(a100, b)
        assert b.matrix(0).dtype == np.float32

    def test_gemm_fp32(self, a100, rng):
        mats = [rng.standard_normal((8, 8)).astype(np.float32)
                for _ in range(6)]
        A = IrrBatch.from_host(a100, mats[:2])
        B = IrrBatch.from_host(a100, mats[2:4])
        C = IrrBatch.from_host(a100, mats[4:])
        refs = [a @ b for a, b in zip(A.to_host(), B.to_host())]
        irr_gemm(a100, "N", "N", 8, 8, 8, 1.0, A, (0, 0), B, (0, 0),
                 0.0, C, (0, 0))
        for got, want in zip(C.to_host(), refs):
            np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_trsm_fp32(self, a100, rng):
        t = (np.tril(rng.standard_normal((48, 48)).astype(np.float32))
             + 48 * np.eye(48, dtype=np.float32))
        bmat = rng.standard_normal((48, 4)).astype(np.float32)
        T = IrrBatch.from_host(a100, [t])
        B = IrrBatch.from_host(a100, [bmat.copy()])
        irr_trsm(a100, "L", "L", "N", "N", 48, 4, 1.0, T, (0, 0), B, (0, 0))
        res = np.abs(np.tril(t) @ B.to_host()[0] - bmat).max()
        assert res < 1e-4


@pytest.mark.precision
class TestThreeWayParity:
    """The reduced-precision kernel stack is engine- and
    layout-independent: the naive per-matrix loop, the bucketed DCWI
    engine on a pooled batch (one allocation, one transfer) and the
    bucketed engine on individually uploaded members must produce
    bitwise-identical factors, pivots, solutions and breakdown
    diagnostics — in float32 and complex64 exactly as in double."""

    SHAPES = [(12, 12), (20, 20), (12, 12), (5, 5)]
    RUNS = (("naive", True), ("bucketed", True), ("bucketed", False))

    @staticmethod
    def upload(dev, mats, pooled):
        if pooled:
            return IrrBatch.from_host(dev, [m.copy() for m in mats])
        return IrrBatch(dev, [dev.from_host(m.copy()) for m in mats],
                        [m.shape[0] for m in mats],
                        [m.shape[1] for m in mats])

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_getrf_getrs_parity(self, rng, dtype):
        mats = [_well_conditioned(rng, m, n, dtype)
                for m, n in self.SHAPES]
        rhss = [_well_conditioned(rng, n, 2, dtype)
                for _, n in self.SHAPES]
        runs = []
        for engine, pooled in self.RUNS:
            dev = Device(A100())
            b = self.upload(dev, mats, pooled)
            piv = irr_getrf(dev, b, engine=engine)
            r = self.upload(dev, rhss, pooled)
            irr_getrs(dev, b, piv, r, engine=engine)
            runs.append((b.to_host(), piv, r.to_host()))
        ref_f, ref_piv, ref_x = runs[1]
        for fac, piv, x in (runs[0], runs[2]):
            for i in range(len(mats)):
                assert fac[i].dtype == np.dtype(dtype)
                np.testing.assert_array_equal(fac[i], ref_f[i])
                np.testing.assert_array_equal(piv.ipiv[i], ref_piv.ipiv[i])
                np.testing.assert_array_equal(x[i], ref_x[i])

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_breakdown_diagnostics_parity(self, rng, dtype):
        """Static-pivot recovery diagnostics (info / n_replaced /
        min_pivot / growth) agree bitwise across all three paths when a
        member breaks down at working-precision eps."""
        mats = [_well_conditioned(rng, 8, 8, dtype) for _ in range(3)]
        sing = mats[1].copy()
        sing[3] = sing[2]          # dependent rows: exact zero pivot
        mats[1] = sing
        diags = []
        for engine, pooled in self.RUNS:
            dev = Device(A100())
            b = self.upload(dev, mats, pooled)
            piv = irr_getrf(dev, b, engine=engine, static_pivot=True)
            diags.append((piv.info.copy(), piv.n_replaced.copy(),
                          piv.min_pivot.copy(), piv.growth.copy(),
                          b.to_host()))
        info, nrep, minp, growth, fac = diags[1]
        assert nrep[1] >= 1 and np.all(info == 0)
        for other in (diags[0], diags[2]):
            np.testing.assert_array_equal(other[0], info)
            np.testing.assert_array_equal(other[1], nrep)
            np.testing.assert_array_equal(other[2], minp)
            np.testing.assert_array_equal(other[3], growth)
            for a, ref in zip(other[4], fac):
                np.testing.assert_array_equal(a, ref)

    def test_replace_scale_tracks_working_eps(self):
        assert default_replace_scale(np.float32) == \
            pytest.approx(float(np.sqrt(np.finfo(np.float32).eps)))
        assert default_replace_scale(np.complex64) == \
            pytest.approx(float(np.sqrt(np.finfo(np.float32).eps)))
        assert default_replace_scale(np.float64) == DEFAULT_REPLACE_SCALE
        assert default_replace_scale(np.complex128) == \
            DEFAULT_REPLACE_SCALE

    def test_static_pivot_magnitude_at_fp32_eps(self, rng):
        """A replaced pivot in an f4 factorization sits at
        sqrt(eps_fp32)·|A|max: the fp64 default would vanish below
        fp32 roundoff and the 'recovered' factors would be garbage."""
        a = _well_conditioned(rng, 6, 6, np.float32)
        a[:, 0] = 0.0              # zero first column: immediate breakdown
        dev = Device(A100())
        b = IrrBatch.from_host(dev, [a.copy()])
        piv = irr_getrf(dev, b, static_pivot=True)
        assert piv.info[0] == 0 and piv.n_replaced[0] >= 1
        expected = float(np.sqrt(np.finfo(np.float32).eps)) * \
            float(np.abs(a).max())
        assert abs(b.matrix(0)[0, 0]) == pytest.approx(expected, rel=1e-5)


class TestFp32Performance:
    def test_fp32_faster_than_fp64_in_model(self, rng):
        """FP32 doubles the arithmetic peak and halves the traffic, so the
        modeled time must drop for a compute-heavy batch."""
        mats64 = [rng.standard_normal((256, 256)) for _ in range(16)]
        times = {}
        for dtype in (np.float64, np.float32):
            dev = Device(A100())
            b = IrrBatch.from_host(dev, [m.astype(dtype) for m in mats64])
            with dev.timed_region() as t:
                irr_getrf(dev, b)
            times[dtype] = t["elapsed"]
        assert times[np.float32] < 0.8 * times[np.float64]

    def test_fp32_panel_fits_taller(self):
        """Half the bytes per element: the fused panel reaches 2x the
        height before falling back (shared-memory capacity, §IV-E)."""
        from repro.batched import panel_shared_bytes
        spec = A100()
        h64 = h32 = 0
        while panel_shared_bytes(h64 + 1, 0, 32, 8) <= \
                spec.max_shared_per_block:
            h64 += 1
        while panel_shared_bytes(h32 + 1, 0, 32, 4) <= \
                spec.max_shared_per_block:
            h32 += 1
        assert h32 == 2 * h64
