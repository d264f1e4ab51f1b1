"""The pooled batch against individually uploaded members (§IV-A).

``IrrBatch.from_host`` uploads a whole batch into ONE device allocation
in ONE transfer, and its members are views of it: the per-matrix
``Aarray`` pointers of the expanded interface all point into one pool.
The contract under test: a pooled batch factors and solves exactly like
a batch built from separately uploaded members — factors, pivots,
breakdown diagnostics and every simulated launch record bitwise equal,
on every engine and schedule — while it makes one transfer each way
instead of one per matrix, re-plans nothing for recurring shapes and
releases its one allocation on ``free()``.
"""

import numpy as np
import pytest

from repro.batched import BatchEngine, IrrBatch, irr_getrf, irr_getrs
from repro.device import A100, Device, FaultPlan, FaultRule
from repro.device.node import PCIE_STAGING
from repro.errors import FactorizationError
from repro.workloads.random_batch import random_square_batch

#: the paper's Fig 10 mix in miniature: empty/degenerate members, shape
#: clusters, rectangulars and a couple of large outliers
MIXED = [(0, 0), (1, 1), (1, 7), (7, 1), (17, 17), (17, 17), (17, 17),
         (40, 23), (23, 40), (64, 64), (3, 3), (3, 3), (33, 33), (33, 33),
         (96, 64), (5, 5)]

SQ = [(17, 17), (5, 5), (33, 33), (17, 17), (64, 64), (5, 5)]
RHS = [(17, 2), None, (33, 1), (17, 2), (64, 4), None]


def _records(dev):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.threads_per_block,
             r.cost.shared_mem_per_block, r.cost.kernel_class,
             r.cost.compute_ramp, r.cost.peak_scale)
            for r in dev.profiler.records]


def _members(dev, mats):
    """The reference layout: every matrix in its own allocation,
    uploaded in its own transfer."""
    return IrrBatch(dev, [dev.from_host(np.asarray(m)) for m in mats],
                    [np.shape(m)[0] for m in mats],
                    [np.shape(m)[1] for m in mats])


def _getrf(mats, pooled, **lu):
    """Fresh-device bucketed factorization of ``mats``; returns the
    device, the factors and the pivots."""
    dev = Device(A100())
    batch = IrrBatch.from_host(dev, mats) if pooled else _members(dev, mats)
    piv = irr_getrf(dev, batch, **lu)
    dev.synchronize()
    return dev, batch.to_host(), piv


def assert_same_factors(a, b):
    (_, fa, pa), (_, fb, pb) = a, b
    for x, y in zip(fa, fb):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(pa.ipiv, pb.ipiv):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(pa.info, pb.info)
    np.testing.assert_array_equal(pa.ctrl.n_replaced, pb.ctrl.n_replaced)
    np.testing.assert_array_equal(pa.ctrl.min_pivot, pb.ctrl.min_pivot)
    np.testing.assert_array_equal(pa.ctrl.growth, pb.ctrl.growth)


class _View:
    def __init__(self, ipiv, info):
        self.ipiv = ipiv
        self.info = info


def _solve_subbatch(dev, batch, pivots, idxs, rhs_payloads):
    """One solve over the members ``idxs`` on resident factors."""
    idx = np.asarray(idxs)
    sub = IrrBatch(dev, [batch.arrays[i] for i in idxs],
                   batch.m_vec[idx], batch.n_vec[idx])
    view = _View([pivots.ipiv[i] for i in idxs], pivots.info[idx])
    rb = IrrBatch.from_host(dev, rhs_payloads)
    irr_getrs(dev, sub, view, rb)
    dev.synchronize()
    out = rb.to_host()
    rb.free()
    return out


class TestGetrfParity:
    def test_mixed_bitwise_and_diagnostics(self, rng):
        for _ in range(2):
            p = [rng.standard_normal(s) for s in MIXED]
            assert_same_factors(_getrf(p, True), _getrf(p, False))

    def test_launch_records_identical_unfused(self, rng):
        p = [rng.standard_normal(s) for s in MIXED]
        pooled, members = _getrf(p, True)[0], _getrf(p, False)[0]
        assert _records(pooled) == _records(members)

    def test_fig10_batch(self):
        mats = random_square_batch(60, 48, seed=17)
        pooled, members = _getrf(mats, True), _getrf(mats, False)
        assert_same_factors(pooled, members)
        # one transfer each way against one per matrix each way
        assert pooled[0].profiler.transfer_count == 2
        assert members[0].profiler.transfer_count == 2 * len(mats)

    def test_fused_cost_totals_and_fewer_launches(self, rng):
        # the same launches and the same bytes over the bus, one
        # per-transfer latency instead of one per matrix
        p = [rng.standard_normal(s) for s in MIXED]
        pooled, members = _getrf(p, True)[0], _getrf(p, False)[0]
        assert pooled.profiler.launch_count == members.profiler.launch_count
        bus = sum(2 * a.nbytes for a in p) / PCIE_STAGING.bandwidth
        assert pooled.profiler.transfer_time == pytest.approx(
            2 * PCIE_STAGING.latency + bus)
        assert members.profiler.transfer_time == pytest.approx(
            2 * len(p) * PCIE_STAGING.latency + bus)

    def test_static_pivot_replay(self, rng):
        # a tight pivot_tol forces static replacements on ordinary
        # random payloads; the zero member exercises info parity
        sing = [np.zeros((6, 6)) if i == 0
                else rng.standard_normal((6, 6)) for i in range(12)]
        lu = {"static_pivot": True, "pivot_tol": 0.5}
        pooled = _getrf(sing, True, **lu)
        assert_same_factors(pooled, _getrf(sing, False, **lu))
        assert pooled[2].ctrl.n_replaced.sum() > 0

    def test_zero_misses_zero_allocs_after_first_run(self, rng):
        # recurring shapes re-plan nothing on a shared engine, and each
        # upload makes one allocation, released on free()
        dev = Device(A100())
        engine = BatchEngine()
        base = dev.allocated_bytes

        def run():
            b = IrrBatch.from_host(dev, [rng.standard_normal(s)
                                         for s in MIXED])
            irr_getrf(dev, b, engine=engine)
            b.free()

        run()
        misses0 = engine.cache.misses
        for _ in range(3):
            allocs0 = dev.alloc_count
            run()
            assert dev.alloc_count - allocs0 == 1
            assert dev.allocated_bytes == base
        assert engine.cache.misses == misses0


class TestSinglePanelSchedule:
    def test_uniform_small_batch_single_launch(self, rng):
        p = [rng.standard_normal((12, 12)) for _ in range(20)]
        pooled, members = _getrf(p, True), _getrf(p, False)
        assert pooled[0].profiler.launch_count == 1
        assert_same_factors(pooled, members)
        assert _records(pooled[0]) == _records(members[0])

    def test_single_launch_breakdown_diagnostics(self, rng):
        p = [np.zeros((8, 8)) if i == 3 else rng.standard_normal((8, 8))
             for i in range(10)]
        p[6][2, 2] = np.nan       # a NaN pivot is skipped by min_pivot
        pooled = _getrf(p, True)
        assert pooled[0].profiler.launch_count == 1
        assert_same_factors(pooled, _getrf(p, False))
        assert pooled[2].info[3] != 0

    def test_several_launches_above_panel_width(self, rng):
        p = [rng.standard_normal((48, 48)) for _ in range(20)]
        pooled, members = _getrf(p, True), _getrf(p, False)
        assert pooled[0].profiler.launch_count > 1
        assert _records(pooled[0]) == _records(members[0])


class TestRepairedRehearsal:
    @pytest.mark.sdc
    def test_repaired_rehearsal_yields_no_program(self, rng):
        # an ABFT re-execution restores the corrupted member inside the
        # shared allocation: every member's bits equal a fault-free run,
        # and free() returns the one allocation
        p = [rng.standard_normal((48, 48)) for _ in range(4)]
        ref = _getrf(p, False)
        dev = Device(A100())
        base = dev.allocated_bytes
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm")],
                         seed=7)
        b = IrrBatch.from_host(dev, p)
        with dev.fault_scope(plan):
            piv = irr_getrf(dev, b)
            facs = b.to_host()
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert_same_factors((dev, facs, piv), ref)
        b.free()
        assert dev.allocated_bytes == base


class TestFactorSolve:
    """Factor a pooled batch, solve member groups on its views: the
    pipeline the service runs."""

    def _baseline(self, As, Bs):
        dev = Device(A100())
        batch = _members(dev, As)
        piv = irr_getrf(dev, batch)
        sols = {}
        for i, b in enumerate(Bs):
            if b is not None:
                rb = _members(dev, [b])
                irr_getrs(dev, IrrBatch(dev, [batch.arrays[i]],
                                        batch.m_vec[[i]], batch.n_vec[[i]]),
                          _View([piv.ipiv[i]], piv.info[[i]]), rb)
                sols[i] = rb.to_host()[0]
        return sols

    @pytest.mark.parametrize("grouping", ["batch", "member"])
    def test_pipeline_parity(self, rng, grouping):
        # pooled factors solved in one launch sequence, or one per
        # member, match per-member uploads solved one by one
        As = [rng.standard_normal(s) for s in SQ]
        Bs = [rng.standard_normal(r) if r else None for r in RHS]
        dev = Device(A100())
        batch = IrrBatch.from_host(dev, As)
        piv = irr_getrf(dev, batch)
        sel = [i for i, b in enumerate(Bs) if b is not None]
        groups = [sel] if grouping == "batch" else [[i] for i in sel]
        sols = {}
        for idxs in groups:
            out = _solve_subbatch(dev, batch, piv, idxs,
                                  [Bs[i] for i in idxs])
            sols.update(zip(idxs, out))
        assert sorted(sols) == sel     # factor-only members solve nothing
        for i, x in self._baseline(As, Bs).items():
            np.testing.assert_array_equal(sols[i], x)


class TestGetrs:
    """Solves on pooled factors and pooled right-hand sides."""

    def test_parity_with_pipeline(self, rng):
        As = [rng.standard_normal((17, 17)) for _ in range(6)]
        Bs = [rng.standard_normal((17, 3)) for _ in range(6)]
        xs = {}
        for pooled in (True, False):
            dev = Device(A100())
            up = IrrBatch.from_host if pooled else _members
            fb = up(dev, As)
            piv = irr_getrf(dev, fb)
            rb = up(dev, Bs)
            irr_getrs(dev, fb, piv, rb)
            xs[pooled] = rb.to_host()
        for a, b in zip(xs[True], xs[False]):
            np.testing.assert_array_equal(a, b)

    def test_broken_info_refused(self, rng):
        As = [rng.standard_normal((5, 5)) for _ in range(4)]
        As[2] = np.zeros((5, 5))
        dev = Device(A100())
        fb = IrrBatch.from_host(dev, As)
        piv = irr_getrf(dev, fb)
        assert piv.info[2] != 0
        rb = IrrBatch.from_host(dev, [rng.standard_normal((5, 1))
                                      for _ in range(4)])
        with pytest.raises(FactorizationError, match="broken-down"):
            irr_getrs(dev, fb, piv, rb)


class TestErrors:
    def test_payload_count_mismatch(self, a100, rng):
        # parts that do not fill the array are refused before any byte
        # lands or any transfer is charged
        arr = a100.zeros(12)
        with pytest.raises(ValueError, match="do not fill"):
            arr.copy_from_host([rng.standard_normal((2, 2))] * 2)
        assert np.all(arr.data == 0.0)
        assert a100.profiler.transfer_count == 0

    def test_payload_shape_mismatch(self, a100, rng):
        arr = a100.zeros((4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            arr.copy_from_host(rng.standard_normal((5, 5)))
        # parts land only in a contiguous array
        with pytest.raises(ValueError, match="contiguous"):
            arr[:, :2].copy_from_host([rng.standard_normal(8)])

    def test_payload_name_mismatch(self):
        # the serving layer's upload name is the one packed upload
        assert IrrBatch.__dict__["from_host_packed"] is \
            IrrBatch.__dict__["from_host"]

    def test_concurrent_swaps_uncompilable(self, rng):
        # a two-stream schedule on pooled members: same bits, same
        # launch records
        p = [rng.standard_normal((40, 40)) for _ in range(3)]
        pooled = _getrf(p, True, concurrent_swaps=True)
        members = _getrf(p, False, concurrent_swaps=True)
        assert_same_factors(pooled, members)
        assert _records(pooled[0]) == _records(members[0])

    def test_naive_engine_uncompilable(self, rng):
        # the per-matrix reference loops run on pooled members too
        p = [rng.standard_normal(s) for s in MIXED]
        assert_same_factors(_getrf(p, True, engine="naive"),
                            _getrf(p, False))

    def test_unknown_op(self, a100, rng):
        # parts of any memory layout land in C order, and the checksum
        # of a transposed or Fortran-ordered part covers those bytes
        a = rng.standard_normal((5, 3))
        plan = FaultPlan([FaultRule("h2d", at=0)])
        with a100.fault_scope(plan):
            b = IrrBatch.from_host(a100, [a.T, np.asfortranarray(a)])
        assert a100.recovery_log.count("transfer-retry") == 1
        np.testing.assert_array_equal(b.matrix(0), a.T)
        np.testing.assert_array_equal(b.matrix(1), a)

    def test_run_after_free(self, a100, rng):
        b = IrrBatch.from_host_packed(a100, [rng.standard_normal((4, 4))
                                             for _ in range(2)])
        b.free()
        n0 = a100.profiler.transfer_count
        with pytest.raises(RuntimeError, match="use after free"):
            b.to_host()
        assert a100.profiler.transfer_count == n0

    def test_free_releases_device_memory(self, rng):
        dev = Device(A100())
        base = dev.allocated_bytes
        b = IrrBatch.from_host(dev, [rng.standard_normal(s) for s in MIXED])
        assert dev.allocated_bytes > base
        b.arrays[4].free()         # a member is a view: owns nothing
        assert dev.allocated_bytes > base
        b.free()
        assert dev.allocated_bytes == base
        b.free()  # idempotent

    def test_context_manager_frees(self, rng):
        dev = Device(A100())
        base = dev.allocated_bytes
        with IrrBatch.from_host(dev, [rng.standard_normal((4, 4))] * 3) as b:
            assert isinstance(b, IrrBatch)
        assert dev.allocated_bytes == base
