"""ABFT checksum verification of the batched drivers (``-m sdc``).

The contract under test: with kernel verification on, every injected
``corrupt`` fault is either *repaired* — the re-executed launch yields
results bitwise identical to a fault-free run — or surfaced as a typed
:class:`~repro.errors.CorruptionDetected`; and a fault-free verified
run is bitwise identical to an unverified one (the checks are
read-only).
"""

import numpy as np
import pytest

from repro.batched import IrrBatch, irr_getrf, lu_reconstruct
from repro.batched.abft import ABFT_MAX_REEXEC
from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule
from repro.errors import CorruptionDetected

pytestmark = [pytest.mark.sdc,
              pytest.mark.filterwarnings("error::RuntimeWarning")]


def corrupt(match, *, times=1, at=0, seed=7):
    return FaultPlan([FaultRule("corrupt", at=at, times=times,
                                match=match)], seed=seed)


def mats(rng, shapes):
    out = []
    for m, n in shapes:
        a = rng.standard_normal((m, n))
        k = min(m, n)
        a[:k, :k] += float(max(m, n)) * np.eye(k)
        out.append(a)
    return out


SHAPES = [(40, 40), (48, 33), (17, 40), (64, 64)]


def factor_ref(shapes, seed=12345, **kw):
    rng = np.random.default_rng(seed)
    dev = Device(A100())
    b = IrrBatch.from_host(dev, mats(rng, shapes))
    piv = irr_getrf(dev, b, **kw)
    return [a.data.copy() for a in b.arrays], piv


class TestRepair:
    @pytest.mark.parametrize("site", ["irrgemm", "irrtrsm:base",
                                      "irrgetf2"])
    def test_transient_corruption_repaired_bitwise(self, site, rng):
        ref, piv_ref = factor_ref(SHAPES)
        dev = Device(A100())
        b = IrrBatch.from_host(dev, mats(np.random.default_rng(12345),
                                         SHAPES))
        with dev.fault_scope(corrupt(site)) as inj:
            piv = irr_getrf(dev, b)
        assert [f.kind for f in inj.injected] == ["corrupt"]
        assert dev.recovery_log.count("kernel-reexec") >= 1
        for i in range(len(b)):
            np.testing.assert_array_equal(b.arrays[i].data, ref[i])
            np.testing.assert_array_equal(piv.ipiv[i], piv_ref.ipiv[i])

    def test_two_hit_corruption_uses_full_budget(self, rng):
        ref, _ = factor_ref(SHAPES)
        dev = Device(A100())
        b = IrrBatch.from_host(dev, mats(np.random.default_rng(12345),
                                         SHAPES))
        with dev.fault_scope(corrupt("irrgemm",
                                     times=ABFT_MAX_REEXEC)):
            irr_getrf(dev, b)
        assert dev.recovery_log.count("kernel-reexec") == ABFT_MAX_REEXEC
        for i in range(len(b)):
            np.testing.assert_array_equal(b.arrays[i].data, ref[i])

    def test_persistent_corruption_raises_typed(self, rng):
        dev = Device(A100())
        b = IrrBatch.from_host(dev, mats(np.random.default_rng(12345),
                                         SHAPES))
        with dev.fault_scope(corrupt("irrgemm", times=PERSISTENT)):
            with pytest.raises(CorruptionDetected) as ei:
                irr_getrf(dev, b)
        assert "irrgemm" in ei.value.site
        assert 0 <= ei.value.batch_index < len(SHAPES)
        # budget fully consumed before giving up
        assert dev.recovery_log.count("kernel-reexec") >= ABFT_MAX_REEXEC


class TestNoFalsePositives:
    def test_verified_fault_free_run_is_bitwise_clean(self, rng):
        ref, piv_ref = factor_ref(SHAPES)
        dev = Device(A100())
        b = IrrBatch.from_host(dev, mats(np.random.default_rng(12345),
                                         SHAPES))
        dev.verify_kernels = True
        try:
            piv = irr_getrf(dev, b)
        finally:
            dev.verify_kernels = False
        assert dev.recovery_log.count("kernel-reexec") == 0
        for i in range(len(b)):
            np.testing.assert_array_equal(b.arrays[i].data, ref[i])
            np.testing.assert_array_equal(piv.ipiv[i], piv_ref.ipiv[i])

    def test_singular_member_is_skipped_not_flagged(self, rng):
        # a structurally singular member reports info != 0; its factors
        # are undefined so the checksum must not flag it
        good = rng.standard_normal((24, 24)) + 24 * np.eye(24)
        bad = np.zeros((24, 24))
        dev = Device(A100())
        b = IrrBatch.from_host(dev, [good.copy(), bad])
        dev.verify_kernels = True
        try:
            piv = irr_getrf(dev, b)
        finally:
            dev.verify_kernels = False
        assert piv.info[1] != 0
        assert dev.recovery_log.count("kernel-reexec") == 0
        rec = lu_reconstruct(b.arrays[0].data, piv.ipiv[0])
        np.testing.assert_allclose(rec, good, atol=1e-10)

    def test_static_pivot_replacement_not_flagged(self, rng):
        # replaced pivots perturb the factors away from A0 on purpose;
        # the loosened tolerance must absorb that, not cry corruption
        a = rng.standard_normal((32, 32))
        a[0] = a[1]          # force a (near-)singular leading block
        dev = Device(A100())
        b = IrrBatch.from_host(dev, [a.copy()])
        dev.verify_kernels = True
        try:
            piv = irr_getrf(dev, b, static_pivot=True, pivot_tol=1e-8)
        finally:
            dev.verify_kernels = False
        assert piv.n_replaced[0] >= 1
        assert dev.recovery_log.count("kernel-reexec") == 0


class TestCompiledProgramABFT:
    """The whole-factorization rung (``irrgetrf``) on a pooled batch,
    whose members share one allocation and one checked download."""

    def test_program_replay_repairs_transient_corruption(self, rng):
        # a corrupted fused panel and a corrupted download, both in one
        # call: the re-run restores every member in place and the
        # retried download returns the fault-free bits
        shapes = [(40, 40)] * 4
        hosts = mats(np.random.default_rng(3), shapes)
        ref_dev = Device(A100())
        ref_b = IrrBatch.from_host(ref_dev, hosts)
        ref_piv = irr_getrf(ref_dev, ref_b)
        ref = ref_b.to_host()
        dev = Device(A100())
        b = IrrBatch.from_host(dev, hosts)
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgetf2"),
                          FaultRule("d2h", at=0)], seed=7)
        with dev.fault_scope(plan):
            piv = irr_getrf(dev, b)
            got = b.to_host()
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert dev.recovery_log.count("transfer-retry") == 1
        for i in range(len(shapes)):
            np.testing.assert_array_equal(got[i], ref[i])
            np.testing.assert_array_equal(piv.ipiv[i], ref_piv.ipiv[i])

    def test_program_replay_persistent_corruption_raises(self, rng):
        shapes = [(40, 40)] * 4
        hosts = mats(np.random.default_rng(3), shapes)
        dev = Device(A100())
        b = IrrBatch.from_host(dev, hosts)
        with dev.fault_scope(corrupt("irrgetf2", times=PERSISTENT)):
            with pytest.raises(CorruptionDetected) as ei:
                irr_getrf(dev, b)
        assert ei.value.site == "irrgetrf"
        b.free()
        assert dev.allocated_bytes == 0
        # a later fault-free upload of the same values is clean
        b = IrrBatch.from_host(dev, hosts)
        piv = irr_getrf(dev, b)
        assert (piv.info == 0).all()
        b.free()