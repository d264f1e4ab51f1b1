"""Compiled level-schedule factorization for :class:`SparseLU` (§IV).

``factor(engine="compiled")`` compiles the multifrontal level schedule
into a :class:`FactorProgram` on the first call, then — after
``update_values`` on the same structure — replays it: no re-planning,
no new device allocations, results bitwise identical to the plain
bucketed engine on every run.
"""

import numpy as np
import pytest

from repro.device import A100, Device, FaultPlan, FaultRule, Node
from repro.sparse.solver import SparseLU
from repro.workloads.fronts import build_maxwell_workload

pytestmark = pytest.mark.compiled


@pytest.fixture(scope="module")
def maxwell():
    return build_maxwell_workload(4, leaf_size=16)


def perturbed(a, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    a2 = a.copy()
    a2.data = a2.data * (1.0 + scale * rng.standard_normal(a2.data.shape))
    return a2


def factor_bucketed(a, rhs):
    dev = Device(A100())
    slu = SparseLU(a, use_mc64=False)
    slu.factor(backend="batched", device=dev, engine="bucketed")
    x, _ = slu.solve(rhs, device=dev)
    return slu, x


def assert_fronts_equal(fb, fc, diagnostics=True):
    assert len(fb.fronts) == len(fc.fronts)
    for fid in range(len(fb.fronts)):
        a1, a2 = fb.fronts[fid], fc.fronts[fid]
        np.testing.assert_array_equal(a1.f11, a2.f11)
        np.testing.assert_array_equal(a1.f12, a2.f12)
        np.testing.assert_array_equal(a1.f21, a2.f21)
        np.testing.assert_array_equal(a1.ipiv, a2.ipiv)
        assert a1.info == a2.info
        if diagnostics:
            assert a1.n_replaced == a2.n_replaced
            assert a1.min_pivot == a2.min_pivot
            assert a1.growth == a2.growth


class TestCompileParity:
    def test_first_factor_matches_bucketed_bitwise(self, maxwell):
        slu_b, x_b = factor_bucketed(maxwell.matrix, maxwell.rhs)

        dev = Device(A100())
        slu_c = SparseLU(maxwell.matrix, use_mc64=False)
        slu_c.factor(backend="batched", device=dev, engine="compiled")
        assert slu_c._factor_program is not None

        assert_fronts_equal(slu_b.factor_result.factors,
                            slu_c.factor_result.factors)
        x_c, _ = slu_c.solve(maxwell.rhs, device=dev)
        np.testing.assert_array_equal(x_b, x_c)

    def test_report_parity(self, maxwell):
        slu_b, _ = factor_bucketed(maxwell.matrix, maxwell.rhs)
        dev = Device(A100())
        slu_c = SparseLU(maxwell.matrix, use_mc64=False)
        slu_c.factor(backend="batched", device=dev, engine="compiled")
        rb, rc = slu_b.factor_report, slu_c.factor_report
        np.testing.assert_array_equal(rb.n_replaced, rc.n_replaced)
        assert rb.max_growth == rc.max_growth
        assert rb.ok == rc.ok


class TestReplay:
    def test_update_values_replays_program(self, maxwell):
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev, engine="compiled")
        prog = slu._factor_program
        alloc0 = dev.alloc_count

        a2 = perturbed(a, seed=7)
        slu_ref, x_ref = factor_bucketed(a2, rhs)

        slu.update_values(a2)
        assert slu._factor_program is prog
        slu.factor(backend="batched", device=dev, engine="compiled")
        assert slu._factor_program is prog
        assert prog.runs == 1
        assert dev.alloc_count == alloc0
        assert slu.factor_result.counters.get("compiled_replay") == 1

        assert_fronts_equal(slu_ref.factor_result.factors,
                            slu.factor_result.factors)
        x, _ = slu.solve(rhs, device=dev)
        np.testing.assert_array_equal(x_ref, x)

    def test_repeated_replays_stay_bitwise(self, maxwell):
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev, engine="compiled")
        prog = slu._factor_program
        for i in range(3):
            a2 = perturbed(a, seed=20 + i)
            slu_ref, x_ref = factor_bucketed(a2, rhs)
            slu.update_values(a2)
            slu.factor(backend="batched", device=dev, engine="compiled")
            assert slu._factor_program is prog
            assert prog.runs == i + 1
            assert_fronts_equal(slu_ref.factor_result.factors,
                                slu.factor_result.factors)
            x, _ = slu.solve(rhs, device=dev)
            np.testing.assert_array_equal(x_ref, x)

    def test_device_change_recompiles(self, maxwell):
        a = maxwell.matrix
        dev1 = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev1, engine="compiled")
        prog1 = slu._factor_program
        slu.update_values(perturbed(a, seed=3))
        dev2 = Device(A100())
        slu.factor(backend="batched", device=dev2, engine="compiled")
        assert slu._factor_program is not prog1


class TestGuardFallback:
    def test_breakdown_falls_back_to_bucketed(self, maxwell):
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev, engine="compiled")

        a_bad = a.copy()
        a_bad.data = np.zeros_like(a_bad.data)
        slu.update_values(a_bad)
        slu.factor(backend="batched", device=dev, engine="compiled",
                   breakdown="report")
        assert any(ev.action == "compiled-fallback"
                   for ev in dev.recovery_log.events)
        assert slu.factor_report.n_failed > 0

        # the fallback result matches a plain bucketed factorization on
        # the same symbolic structure (the all-zero values would give a
        # fresh SparseLU a different dissection tree)
        dev_b = Device(A100())
        slu_b = SparseLU(a, use_mc64=False)
        slu_b.factor(backend="batched", device=dev_b, engine="bucketed")
        slu_b.update_values(a_bad)
        slu_b.factor(backend="batched", device=dev_b, engine="bucketed",
                     breakdown="report")
        assert_fronts_equal(slu_b.factor_result.factors,
                            slu.factor_result.factors)


class TestCompiledGuards:
    def test_memory_budget_bypasses_compilation(self, maxwell):
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        slu.factor(backend="batched", device=dev, engine="compiled",
                   memory_budget=1 << 30)
        assert slu._factor_program is None
        assert slu.factor_report.ok

    def test_update_values_requires_no_mc64(self, maxwell):
        slu = SparseLU(maxwell.matrix, use_mc64=True)
        with pytest.raises(ValueError, match="use_mc64"):
            slu.update_values(maxwell.matrix)

    def test_update_values_rejects_structure_change(self, maxwell):
        a = maxwell.matrix
        slu = SparseLU(a, use_mc64=False)
        a2 = a.copy().tolil()
        i = 0
        j = int(a.shape[1] - 1)
        if a2[i, j] != 0:
            j -= 1
        a2[i, j] = 1.0
        with pytest.raises(ValueError, match="structure"):
            slu.update_values(a2.tocsr())

    @pytest.mark.parametrize("backend", ["looped", "strumpack", "sharded"])
    def test_other_backends_reject_compiled_engine(self, maxwell, backend):
        dev = Node(A100(), 2) if backend == "sharded" else Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        with pytest.raises(ValueError, match="'bucketed', 'naive'"):
            slu.factor(backend=backend, device=dev, engine="compiled")

    def test_non_batched_strategy_rejected(self, maxwell):
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        with pytest.raises(ValueError, match="batched"):
            slu.factor(backend="batched", device=dev, engine="compiled",
                       strategy="rightlooking")


def one_fault(kind, match=""):
    return FaultPlan([FaultRule(kind, at=0, match=match)], seed=7)


@pytest.mark.chaos
@pytest.mark.sdc
class TestCompiledUnderFaults:
    """The compile call is the ordinary traversal (recovery ladder and
    ABFT included); replays fall back to it under verification or a
    device fault.  Every answer stays bitwise the fault-free one."""

    def fresh(self, maxwell):
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        return dev, slu

    def test_repaired_compile_yields_no_program(self, maxwell):
        dev, slu = self.fresh(maxwell)
        with dev.fault_scope(one_fault("corrupt", "irrgemm")):
            slu.factor(backend="batched", device=dev, engine="compiled")
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert slu._factor_program is None
        for seed in (7, 8):
            a2 = perturbed(maxwell.matrix, seed=seed)
            slu_ref, _ = factor_bucketed(a2, maxwell.rhs)
            slu.update_values(a2)
            slu.factor(backend="batched", device=dev, engine="compiled")
            assert slu._factor_program is not None
            assert_fronts_equal(slu_ref.factor_result.factors,
                                slu.factor_result.factors)
        assert slu._factor_program.runs == 1

    def test_launch_fault_on_compile_and_replay(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu_ref, _ = factor_bucketed(maxwell.matrix, maxwell.rhs)
        with dev.fault_scope(one_fault("launch")):
            slu.factor(backend="batched", device=dev, engine="compiled")
        assert dev.recovery_log.count("launch-retry") == 1
        assert_fronts_equal(slu_ref.factor_result.factors,
                            slu.factor_result.factors)
        slu.factor(backend="batched", device=dev, engine="compiled")
        assert slu._factor_program is not None
        a2 = perturbed(maxwell.matrix, seed=5)
        slu_ref, _ = factor_bucketed(a2, maxwell.rhs)
        slu.update_values(a2)
        with dev.fault_scope(one_fault("launch")):
            slu.factor(backend="batched", device=dev, engine="compiled")
        assert dev.recovery_log.count("compiled-fallback") == 1
        assert_fronts_equal(slu_ref.factor_result.factors,
                            slu.factor_result.factors)

    def test_alloc_fault_on_compile(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu_ref, _ = factor_bucketed(maxwell.matrix, maxwell.rhs)
        with dev.fault_scope(one_fault("alloc")):
            slu.factor(backend="batched", device=dev, engine="compiled")
        assert dev.recovery_log.count("chunk-shrink") == 1
        assert_fronts_equal(slu_ref.factor_result.factors,
                            slu.factor_result.factors)

    def test_corrupt_fault_on_replay_falls_back(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu.factor(backend="batched", device=dev, engine="compiled")
        a2 = perturbed(maxwell.matrix, seed=9)
        slu_ref, _ = factor_bucketed(a2, maxwell.rhs)
        slu.update_values(a2)
        with dev.fault_scope(one_fault("corrupt", "irrgemm")):
            slu.factor(backend="batched", device=dev, engine="compiled")
        assert dev.recovery_log.count("compiled-fallback") == 1
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert_fronts_equal(slu_ref.factor_result.factors,
                            slu.factor_result.factors)
