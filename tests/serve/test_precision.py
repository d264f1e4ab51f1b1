"""Per-request mixed precision through :class:`SolverService`.

``precision="fp32"`` requests carry half-sized payloads through the
coalescer and run the batched kernels in the working dtype; every
solution is finished by the service's FP64 refinement pass against the
caller's original matrix, so the answers handed back are full-precision
regardless of what the factors cost.  Reduced requests get their own
group keys (the ``"mixed"`` discriminator) — they never coalesce with
natively single-precision traffic — and a member whose refinement
stagnates is transparently re-factored in FP64, healing its handle in
place and bumping the ``precision_fallbacks`` counter.
"""

import numpy as np
import pytest

from repro.batched import IrrBatch, irr_getrf
from repro.device import A100, Device
from repro.serve import CoalescingPolicy, ServeSession, SolverService
from repro.serve.scheduler import getrf_key, getrs_key
from repro.sparse.solver import REFINE_TARGET

from ..sparse.util import grid2d

pytestmark = pytest.mark.precision

RNG = np.random.default_rng(2024)


def dense_laplacian_sq(n):
    """Dense 1-D Laplacian squared: κ ~ (n/π)**4 defeats FP32-corrected
    refinement without troubling the FP64 fallback."""
    L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1))
    return L @ L


def dense(n, dtype=np.float64, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    return a.astype(dtype)


def inline_service(device=None, **policy_kw):
    dev = device if device is not None else Device(A100())
    return SolverService(dev, policy=CoalescingPolicy(**policy_kw),
                         start=False)


def backward_error(a, x, b):
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


class TestGroupKeys:
    def test_mixed_discriminator_separates_getrf(self):
        spec = A100()
        base = getrf_key(16, 16, np.float32, {}, spec, 0)
        mixed = getrf_key(16, 16, np.float32, {}, spec, 0, mixed=True)
        assert base != mixed and "mixed" in mixed

    def test_mixed_discriminator_separates_getrs(self):
        assert getrs_key(np.float32) != getrs_key(np.float32, mixed=True)

    def test_mixed_and_native_f4_do_not_coalesce(self):
        svc = inline_service(max_batch=8)
        futs = [svc.submit_factor_solve(dense(12, seed=1),
                                        RNG.standard_normal(12),
                                        precision="fp32"),
                svc.submit_factor_solve(dense(12, np.float32, seed=2),
                                        RNG.standard_normal(12)
                                        .astype(np.float32))]
        assert svc.run_once() == 2             # separate launch groups
        for f in futs:
            f.result(0)
        svc.close()

    def test_invalid_precision_rejected_at_submit(self):
        svc = inline_service()
        with pytest.raises(ValueError, match="precision"):
            svc.submit_factor(dense(8), precision="fp16")
        svc.close()

    def test_unsupported_payload_dtype_rejected(self):
        svc = inline_service()
        with pytest.raises(ValueError, match="unsupported data type"):
            svc.submit_factor(np.ones((4, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="unsupported data type"):
            svc.submit_factor(np.ones((4, 4), dtype=object))
        svc.close()


class TestDenseMixed:
    def test_coalesced_factor_solve_refines_to_fp64(self):
        sizes = [8, 24, 16, 33, 5]
        mats = [dense(n, seed=50 + n) for n in sizes]
        rhss = [np.random.default_rng(n).standard_normal(n)
                for n in sizes]
        svc = inline_service(max_batch=8)
        futs = [svc.submit_factor_solve(a, b, precision="fp32")
                for a, b in zip(mats, rhss)]
        assert svc.run_once() == 1             # still ONE mixed group
        for a, b, fut in zip(mats, rhss, futs):
            x, h = fut.result(0)
            assert x.dtype == np.float64
            assert backward_error(a, x, b) <= REFINE_TARGET
            assert h.precision == "fp32"
            assert h.lu.dtype == np.float32    # factors stay reduced
        snap = svc.stats.snapshot()
        assert snap["refine_passes"] >= len(sizes)
        assert snap["precision_fallbacks"] == 0
        svc.close()

    def test_coalescing_keeps_mixed_answers_bitwise(self):
        # every refinement correction is blocked on its member's own
        # order, so a coalesced answer is bitwise the solo answer
        orders = [8, 24, 40, 48, 100, 150, 33, 64]
        mats = [dense(n, seed=60 + n) for n in orders]
        rhss = [np.random.default_rng(70 + n).standard_normal(n)
                for n in orders]
        results = {}
        for max_batch in (1, 8):
            svc = inline_service(max_batch=max_batch)
            futs = [svc.submit_factor_solve(a, b, precision="fp32")
                    for a, b in zip(mats, rhss)]
            svc.run_once()
            results[max_batch] = [f.result(0) for f in futs]
            svc.close()
        for (x1, h1), (x8, h8) in zip(results[1], results[8]):
            assert np.array_equal(x1, x8)
            assert np.array_equal(h1.lu, h8.lu)

    def test_handle_solve_runs_refinement(self):
        a = dense(20, seed=9)
        svc = inline_service()
        fh = svc.submit_factor(a, precision="fp32")
        svc.run_once()
        h = fh.result(0)
        assert h.precision == "fp32" and h.a_ref is not None
        b = RNG.standard_normal(20)
        fx = svc.submit_solve(h, b)
        svc.run_once()
        x = fx.result(0)
        assert x.dtype == np.float64
        assert backward_error(a, x, b) <= REFINE_TARGET
        svc.close()

    def test_complex_payload_reduces_to_complex64(self):
        n = 12
        a = dense(n) + 1j * RNG.standard_normal((n, n))
        b = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        svc = inline_service()
        fut = svc.submit_factor_solve(a, b, precision="fp32")
        svc.run_once()
        x, h = fut.result(0)
        assert h.lu.dtype == np.complex64
        assert x.dtype == np.complex128
        assert backward_error(a, x, b) <= REFINE_TARGET
        svc.close()

    def test_stagnating_member_heals_to_fp64(self):
        """An ill-conditioned member defeats FP32 refinement; the
        service re-factors it alone in FP64, heals the handle and
        counts the fallback — while the healthy member of the same
        group refines normally."""
        bad = dense_laplacian_sq(120)
        good = dense(120, seed=3)
        rng = np.random.default_rng(11)
        b_bad, b_good = rng.standard_normal(120), rng.standard_normal(120)
        svc = inline_service(max_batch=8)
        f_bad = svc.submit_factor_solve(bad, b_bad, precision="fp32")
        f_good = svc.submit_factor_solve(good, b_good, precision="fp32")
        svc.run_once()
        x_bad, h_bad = f_bad.result(0)
        x_good, h_good = f_good.result(0)
        assert h_bad.precision == "fp64"       # healed in place
        assert h_bad.lu.dtype == np.float64
        assert h_good.precision == "fp32"
        assert backward_error(good, x_good, b_good) <= REFINE_TARGET
        # the fallback answer is the FP64 answer
        ref = inline_service(max_batch=1)
        rf = ref.submit_factor_solve(bad, b_bad)
        ref.run_once()
        x_ref, _ = rf.result(0)
        np.testing.assert_array_equal(x_bad, x_ref)
        assert svc.stats.snapshot()["precision_fallbacks"] >= 1
        ref.close()
        svc.close()

    def test_healed_handle_serves_fp64_solves(self):
        a = dense_laplacian_sq(120)
        b = np.random.default_rng(4).standard_normal(120)
        svc = inline_service()
        fut = svc.submit_factor_solve(a, b, precision="fp32")
        svc.run_once()
        _, h = fut.result(0)
        assert h.precision == "fp64"
        b2 = np.random.default_rng(5).standard_normal(120)
        fx = svc.submit_solve(h, b2)
        svc.run_once()
        x2 = fx.result(0)
        assert backward_error(a, x2, b2) < 1e-9   # native FP64 quality
        svc.close()


class TestCompiledMixed:
    def test_hot_mixed_signature_compiles_and_refines(self):
        # a recurring fp32 signature is served on the bucketed runner,
        # refined to the FP64 target every round, and its reduced
        # factors equal a direct float32 factorization of the same
        # matrices uploaded one by one
        sizes = [10, 18, 10]
        svc = inline_service(max_batch=8)
        for rnd in range(3):
            mats = [dense(n, seed=rnd * 10 + n) for n in sizes]
            rhss = [np.random.default_rng(rnd * 7 + n).standard_normal(n)
                    for n in sizes]
            futs = [svc.submit_factor_solve(a, b, precision="fp32")
                    for a, b in zip(mats, rhss)]
            svc.run_once()
            dev = Device(A100())
            ref = IrrBatch(dev, [dev.from_host(a.astype(np.float32))
                                 for a in mats], sizes, sizes)
            piv = irr_getrf(dev, ref)
            factors = ref.to_host()
            for i, (a, b, fut) in enumerate(zip(mats, rhss, futs)):
                x, h = fut.result(0)
                assert h.precision == "fp32"
                assert backward_error(a, x, b) <= REFINE_TARGET
                np.testing.assert_array_equal(factors[i], h.lu)
                np.testing.assert_array_equal(piv.ipiv[i], h.ipiv)
        assert svc.stats.snapshot()["dispatches"] == 3
        svc.close()


class TestSparseMixed:
    def test_session_carries_precision(self):
        a = grid2d(10, 10)
        b = np.random.default_rng(8).standard_normal(100)
        svc = inline_service()
        fut = svc.submit_factor(a, precision="fp32")
        svc.run_once()
        sess = fut.result(0)
        assert isinstance(sess, ServeSession)
        assert sess.precision == "fp32"
        fx = svc.submit_solve(sess, b)
        svc.run_once()
        x, info = fx.result(0)
        assert info.precision == "fp32"
        assert info.final_residual <= REFINE_TARGET
        assert svc.stats.snapshot()["refine_passes"] >= 1
        sess.close()
        svc.close()

    def test_one_shot_sparse_mixed(self):
        a = grid2d(9, 9)
        b = np.random.default_rng(2).standard_normal(81)
        svc = inline_service()
        fut = svc.submit_factor_solve(a, b, precision="fp32")
        svc.run_once()
        x, info = fut.result(0)
        assert info.precision == "fp32"
        assert backward_error(a, x, b) <= REFINE_TARGET
        svc.close()

    def test_sparse_fallback_counted(self):
        import scipy.sparse as sp
        L = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(120, 120),
                     format="csr")
        a = sp.csr_matrix(L @ L)
        b = np.random.default_rng(3).standard_normal(120)
        svc = inline_service()
        fut = svc.submit_factor(a, precision="fp32")
        svc.run_once()
        sess = fut.result(0)
        fx = svc.submit_solve(sess, b)
        svc.run_once()
        x, info = fx.result(0)
        assert info.fallback and info.precision == "fp64"
        assert sess.precision == "fp64"        # session healed too
        assert svc.stats.snapshot()["precision_fallbacks"] >= 1
        sess.close()
        svc.close()
