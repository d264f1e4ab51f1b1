"""Tests for ahead-of-time workload programs (compile once, replay).

The contract under test: a :class:`WorkloadProgram` replays the exact
launch schedule the bucketed engine would issue — factors, pivots,
diagnostics and simulated ``KernelCost`` records all bitwise identical —
while ``run()`` itself performs zero DCWI planning and zero device
allocation after compile, and fusion only merges adjacent launch records
(identical cost *totals*, fewer records).
"""

import numpy as np
import pytest

from repro.batched import CompileError, GuardTripped, IrrBatch, \
    PayloadMismatch, WorkloadProgram, compile_workload, fuse_costs, \
    irr_getrf, irr_getrs
from repro.batched.program import Recorder, replay
from repro.device import A100, Device, FaultPlan, FaultRule
from repro.device.kernel import KernelCost
from repro.errors import FactorizationError
from repro.workloads.random_batch import random_square_batch

pytestmark = pytest.mark.compiled

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


def _totals(recs):
    return (sum(r.cost.flops for r in recs),
            sum(r.cost.bytes_read for r in recs),
            sum(r.cost.bytes_written for r in recs),
            sum(r.cost.blocks for r in recs))


def _baseline_getrf(payload, **lu):
    """Fresh-device bucketed factorization of one payload."""
    dev = Device(A100())
    batch = IrrBatch.from_host_packed(dev, payload)
    piv = irr_getrf(dev, batch, engine="bucketed", **lu)
    dev.synchronize()
    return dev, batch.to_host(), piv


class _View:
    def __init__(self, ipiv, info):
        self.ipiv = ipiv
        self.info = info


def _baseline_solve_subbatch(dev, batch, pivots, idxs, rhs_payloads):
    """One solve over the members ``idxs`` on resident factors."""
    idx = np.asarray(idxs)
    sub = IrrBatch(dev, [batch.arrays[i] for i in idxs],
                   batch.m_vec[idx], batch.n_vec[idx])
    view = _View([pivots.ipiv[i] for i in idxs], pivots.info[idx])
    rb = IrrBatch.from_host_packed(dev, rhs_payloads)
    irr_getrs(dev, sub, view, rb, engine="bucketed", check_info=False)
    dev.synchronize()
    out = rb.to_host()
    rb.free()
    return out


class TestGetrfParity:
    def test_mixed_bitwise_and_diagnostics(self, rng):
        payloads = [[rng.standard_normal(s) for s in MIXED]
                    for _ in range(2)]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", MIXED, fuse=False)
        for p in payloads:
            res = prog.run(a=p)
            _, facs, piv = _baseline_getrf(p)
            for a, b in zip(res.factors, facs):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(res.ipiv, piv.ipiv):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(res.info, piv.info)
            np.testing.assert_array_equal(res.n_replaced,
                                          piv.ctrl.n_replaced)
            np.testing.assert_array_equal(res.min_pivot,
                                          piv.ctrl.min_pivot)
            np.testing.assert_array_equal(res.growth, piv.ctrl.growth)
        prog.free()

    def test_launch_records_identical_unfused(self, rng):
        p = [rng.standard_normal(s) for s in MIXED]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", MIXED, fuse=False)
        r0 = len(dev.profiler.records)
        prog.run(a=p)
        mine = _records(dev)[r0:]
        bdev, _, _ = _baseline_getrf(p)
        assert mine == _records(bdev)
        prog.free()

    def test_fig10_batch(self, rng):
        mats = random_square_batch(60, 48, seed=17)
        shapes = [m.shape for m in mats]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", shapes)
        res = prog.run(a=mats)
        _, facs, piv = _baseline_getrf(mats)
        for a, b in zip(res.factors, facs):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(res.info, piv.info)
        prog.free()

    def test_fused_cost_totals_and_fewer_launches(self, rng):
        p = [rng.standard_normal(s) for s in MIXED]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", MIXED)  # fuse=True default
        n0 = len(dev.profiler.records)
        res = prog.run(a=p)
        run_recs = dev.profiler.records[n0:]
        bdev, facs, _ = _baseline_getrf(p)
        for a, b in zip(res.factors, facs):
            np.testing.assert_array_equal(a, b)
        # identical simulated work, fewer launch records
        assert _totals(run_recs) == _totals(bdev.profiler.records)
        assert prog.n_fused > 0
        assert len(run_recs) == len(bdev.profiler.records) - prog.n_fused
        prog.free()

    def test_static_pivot_replay(self, rng):
        # a tight pivot_tol forces static replacements on ordinary
        # random payloads; the zero members exercise info parity
        shapes = [(6, 6)] * 12
        sing = [np.zeros((6, 6)) if i == 0
                else rng.standard_normal((6, 6)) for i in range(12)]
        dev = Device(A100())
        prog = compile_workload(
            dev, "getrf", shapes,
            lu_kwargs={"static_pivot": True, "pivot_tol": 0.5})
        res = prog.run(a=sing)
        _, facs, piv = _baseline_getrf(sing, static_pivot=True,
                                       pivot_tol=0.5)
        for a, b in zip(res.factors, facs):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(res.n_replaced, piv.ctrl.n_replaced)
        np.testing.assert_array_equal(res.info, piv.info)
        assert res.n_replaced.sum() > 0
        prog.free()

    def test_zero_misses_zero_allocs_after_first_run(self, rng):
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", MIXED)
        prog.run(a=[rng.standard_normal(s) for s in MIXED])
        misses0 = prog.engine.cache.misses
        allocs0 = dev.alloc_count
        for _ in range(3):
            prog.run(a=[rng.standard_normal(s) for s in MIXED])
        assert prog.engine.cache.misses == misses0
        assert dev.alloc_count == allocs0
        prog.free()


class TestSinglePanelSchedule:
    def test_uniform_small_batch_single_launch(self, rng):
        shapes = [(12, 12)] * 20
        p = [rng.standard_normal(s) for s in shapes]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", shapes)
        assert prog.n_launches == 1
        res = prog.run(a=p)
        bdev, facs, piv = _baseline_getrf(p)
        for a, b in zip(res.factors, facs):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(res.ipiv, piv.ipiv):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(res.growth, piv.ctrl.growth)
        # the replayed launch record equals the bucketed engine's
        # single fused-panel record
        assert _records(dev)[-1:] == _records(bdev)[-1:]
        prog.free()

    def test_single_launch_breakdown_diagnostics(self, rng):
        shapes = [(8, 8)] * 10
        p = [np.zeros((8, 8)) if i == 3 else rng.standard_normal((8, 8))
             for i in range(10)]
        p[6][2, 2] = np.nan       # a NaN pivot is skipped by min_pivot
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", shapes)
        assert prog.n_launches == 1
        res = prog.run(a=p)
        _, _, piv = _baseline_getrf(p)
        np.testing.assert_array_equal(res.info, piv.info)
        np.testing.assert_array_equal(res.min_pivot, piv.ctrl.min_pivot)
        assert res.info[3] != 0
        prog.free()

    def test_several_launches_above_panel_width(self, rng):
        shapes = [(48, 48)] * 20
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", shapes)
        assert prog.n_launches > 1
        prog.free()


class TestRepairedRehearsal:
    @pytest.mark.sdc
    def test_repaired_rehearsal_yields_no_program(self, rng):
        # an ABFT re-execution during the rehearsal would be recorded
        # as schedule: no program, and a later compile replays bitwise
        shapes = [(48, 48)] * 4
        dev = Device(A100())
        plan = FaultPlan([FaultRule("corrupt", at=0, match="irrgemm")],
                         seed=7)
        base = dev.allocated_bytes
        with dev.fault_scope(plan):
            assert compile_workload(dev, "getrf", shapes) is None
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert dev.allocated_bytes == base
        prog = compile_workload(dev, "getrf", shapes)
        for _ in range(2):
            p = [rng.standard_normal(s) for s in shapes]
            res = prog.run(a=p)
            _, facs, piv = _baseline_getrf(p)
            for a, b in zip(res.factors, facs):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(res.growth, piv.ctrl.growth)
        prog.free()


class _ToyState:
    def __init__(self):
        self.flag = False
        self.log = []


def _toy_driver(dev, st):
    """A driver with per-run host work, a branch check and launches."""
    def launch(name):
        def kernel():
            st.log.append(name)
            return KernelCost(flops=1.0, blocks=1)
        dev.launch(name, kernel)

    dev.host_step(lambda: st.log.append("reset"))
    launch("toy:a")
    if dev.host_step(lambda: st.flag):
        launch("toy:flagged")
    launch("toy:b")


class TestHostStepHook:
    def test_steps_replay_in_order_and_flipped_check_trips(self):
        dev = Device(A100())
        st = _ToyState()
        with Recorder(dev) as rec:
            _toy_driver(dev, st)
        assert st.log == ["reset", "toy:a", "toy:b"]
        st.log.clear()
        n0 = dev.profiler.launch_count
        replay(dev, rec.steps)
        assert st.log == ["reset", "toy:a", "toy:b"]
        assert dev.profiler.launch_count - n0 == 2
        st.log.clear()
        st.flag = True
        with pytest.raises(GuardTripped):
            replay(dev, rec.steps)
        assert st.log == ["reset", "toy:a"]


def _replay_solve(prog, As, Bs, groups):
    """Factor ``As`` by program replay, then solve each index group of
    ``groups`` with the ordinary bucketed getrs on the replayed factors
    (one launch sequence per group)."""
    res = prog.run(a=As)
    dev = Device(A100())
    batch = IrrBatch.from_host_packed(dev, res.factors)
    sols = {}
    for idxs in groups:
        out = _baseline_solve_subbatch(dev, batch, res, idxs,
                                       [Bs[i] for i in idxs])
        sols.update(zip(idxs, out))
    return sols


class TestFactorSolve:
    """Factor by ``getrf`` program replay, solve by the ordinary
    driver: the pipeline the service runs, with the factor step
    compiled."""

    def _baseline(self, As, Bs, grouping):
        dev = Device(A100())
        batch = IrrBatch.from_host_packed(dev, As)
        piv = irr_getrf(dev, batch, engine="bucketed")
        sel = [i for i, b in enumerate(Bs) if b is not None]
        sols = {}
        # one launch over every member, or one launch per member
        groups = [sel] if grouping == "batch" else [[i] for i in sel]
        for idxs in groups:
            out = _baseline_solve_subbatch(dev, batch, piv, idxs,
                                           [Bs[i] for i in idxs])
            for i, x in zip(idxs, out):
                sols[i] = x
        return sols

    @pytest.mark.parametrize("grouping", ["batch", "member"])
    def test_pipeline_parity(self, rng, grouping):
        # the replayed factors solved in one launch sequence match the
        # bucketed pipeline solved per member, and vice versa
        As = [rng.standard_normal(s) for s in SQ]
        Bs = [rng.standard_normal(r) if r else None for r in RHS]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", SQ)
        sel = [i for i, b in enumerate(Bs) if b is not None]
        groups = [[i] for i in sel] if grouping == "batch" else [sel]
        sols = _replay_solve(prog, As, Bs, groups)
        assert sorted(sols) == sel     # factor-only members solve nothing
        for i, x in self._baseline(As, Bs, grouping).items():
            np.testing.assert_array_equal(sols[i], x)
        prog.free()


class TestGetrs:
    """Solves from a ``getrf`` program's factors and pivots."""

    def test_parity_with_pipeline(self, rng):
        As = [rng.standard_normal((17, 17)) for _ in range(6)]
        Bs = [rng.standard_normal((17, 3)) for _ in range(6)]
        bdev = Device(A100())
        fb = IrrBatch.from_host_packed(bdev, As)
        piv = irr_getrf(bdev, fb, engine="bucketed")
        rb = IrrBatch.from_host_packed(bdev, Bs)
        irr_getrs(bdev, fb, piv, rb, engine="bucketed")
        bdev.synchronize()
        xs = rb.to_host()

        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(17, 17)] * 6)
        sols = _replay_solve(prog, As, Bs, [list(range(6))])
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(sols[i], x)
        prog.free()

    def test_broken_info_refused(self, rng):
        As = [rng.standard_normal((5, 5)) for _ in range(4)]
        As[2] = np.zeros((5, 5))
        Bs = [rng.standard_normal((5, 1)) for _ in range(4)]
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(5, 5)] * 4)
        res = prog.run(a=As)
        assert res.info[2] != 0
        fb = IrrBatch.from_host_packed(dev, res.factors)
        rb = IrrBatch.from_host_packed(dev, Bs)
        with pytest.raises(FactorizationError, match="broken-down"):
            irr_getrs(dev, fb, res, rb, engine="bucketed")
        prog.free()


class TestErrors:
    def test_payload_count_mismatch(self, rng):
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(4, 4)] * 3)
        with pytest.raises(PayloadMismatch):
            prog.run(a=[rng.standard_normal((4, 4))] * 2)
        prog.free()

    def test_payload_shape_mismatch(self, rng):
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(4, 4)] * 3)
        with pytest.raises(PayloadMismatch):
            prog.run(a=[rng.standard_normal((5, 5))] * 3)
        prog.free()

    def test_payload_name_mismatch(self, rng):
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(4, 4)] * 3)
        with pytest.raises(PayloadMismatch):
            prog.run(b=[rng.standard_normal((4, 4))] * 3)
        prog.free()

    def test_concurrent_swaps_uncompilable(self):
        dev = Device(A100())
        with pytest.raises(CompileError, match="concurrent_swaps"):
            compile_workload(dev, "getrf", [(4, 4)] * 3,
                             lu_kwargs={"concurrent_swaps": True})

    def test_naive_engine_uncompilable(self):
        dev = Device(A100())
        with pytest.raises(CompileError):
            compile_workload(dev, "getrf", [(4, 4)] * 3, engine="naive")

    def test_unknown_op(self):
        dev = Device(A100())
        with pytest.raises(CompileError, match="unknown workload op"):
            compile_workload(dev, "potrf", [(4, 4)] * 3)

    def test_run_after_free(self, rng):
        dev = Device(A100())
        prog = compile_workload(dev, "getrf", [(4, 4)] * 3)
        prog.free()
        with pytest.raises(RuntimeError, match="freed"):
            prog.run(a=[rng.standard_normal((4, 4))] * 3)

    def test_free_releases_device_memory(self):
        dev = Device(A100())
        base = dev.allocated_bytes
        prog = compile_workload(dev, "getrf", MIXED)
        assert dev.allocated_bytes > base
        prog.free()
        assert dev.allocated_bytes == base
        prog.free()  # idempotent

    def test_context_manager_frees(self):
        dev = Device(A100())
        base = dev.allocated_bytes
        with compile_workload(dev, "getrf", [(4, 4)] * 3) as prog:
            assert isinstance(prog, WorkloadProgram)
        assert dev.allocated_bytes == base


class TestFuseCosts:
    def test_totals_sum_and_maxes(self):
        a = KernelCost(flops=100.0, bytes_read=10.0, bytes_written=5.0,
                       blocks=4, threads_per_block=128,
                       shared_mem_per_block=1024, kernel_class="getf2",
                       compute_ramp=0.5, memory_ramp=1.0, peak_scale=1.0)
        b = KernelCost(flops=300.0, bytes_read=30.0, bytes_written=15.0,
                       blocks=8, threads_per_block=256,
                       shared_mem_per_block=512, kernel_class="gemm_irr",
                       compute_ramp=1.0, memory_ramp=0.5, peak_scale=2.0)
        f = fuse_costs([a, b])
        assert f.flops == 400.0
        assert f.bytes_read == 40.0
        assert f.bytes_written == 20.0
        assert f.blocks == 12
        assert f.threads_per_block == 256
        assert f.shared_mem_per_block == 1024
        # dominated by the bigger launch
        assert f.kernel_class == "gemm_irr"
        assert f.peak_scale == 1.0           # conservative: min
        # flop-weighted compute ramp
        assert f.compute_ramp == pytest.approx((100 * 0.5 + 300 * 1.0)
                                               / 400)

    def test_single_cost_passthrough(self):
        a = KernelCost(flops=10.0, bytes_read=1.0, bytes_written=1.0,
                       blocks=1, kernel_class="trsm_irr")
        f = fuse_costs([a])
        assert f.flops == a.flops and f.kernel_class == a.kernel_class
