"""The re-factor contract of ``update_values`` + ``factor`` (§V-B).

A time-stepping loop re-factors one sparsity structure with new values
at every step.  :meth:`SparseLU.update_values` keeps the orderings, the
symbolic analysis and the solve layout; the next
``factor(backend="batched")`` runs the ordinary level loop and packs
its factors into a fresh solve cache of that layout.  Every re-factor
gives the bits of a fresh handle on the same values, brings device
memory back to the level the first factor left, and leaves solves with
zero factor uploads — also when the recovery ladder repairs a launch,
allocation or corruption fault.  ``engine="compiled"`` is no engine of
any backend.
"""

import numpy as np
import pytest

from repro.device import A100, Device, FaultPlan, FaultRule, Node
from repro.errors import FactorizationError
from repro.sparse import multifrontal_factor_gpu, plan_traversals
from repro.sparse.solver import SparseLU
from repro.workloads.fronts import build_maxwell_workload


@pytest.fixture(scope="module")
def maxwell():
    return build_maxwell_workload(4, leaf_size=16)


def perturbed(a, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    a2 = a.copy()
    a2.data = a2.data * (1.0 + scale * rng.standard_normal(a2.data.shape))
    return a2


def factor_fresh(a, rhs):
    """The reference bits: a fresh handle on ``a``, factored and solved
    on a new device."""
    dev = Device(A100())
    slu = SparseLU(a, use_mc64=False)
    slu.factor(backend="batched", device=dev)
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


def refactor(slu, dev, a_new, **kw):
    """``update_values`` then ``factor`` on the default path.  Checks
    that the solve layout is reused and that device memory returns to
    the level the previous factor left."""
    layout, held = slu.solve_cache.layout, dev.allocated_bytes
    slu.update_values(a_new)
    assert slu.solve_cache is None
    slu.factor(backend="batched", device=dev, **kw)
    assert slu.solve_cache.layout is layout
    assert dev.allocated_bytes == held


def assert_fresh_bits(slu, dev, a, rhs):
    """A device solve uploads no factors, and the answer and factors
    are bitwise those of a fresh handle on ``a``."""
    slu_ref, x_ref = factor_fresh(a, rhs)
    x, _ = slu.solve(rhs, device=dev)
    assert slu.solve_cache.uploads == 0
    np.testing.assert_array_equal(x_ref, x)
    assert_fronts_equal(slu_ref.factors, slu.factors)


class TestCompileParity:
    def test_first_factor_matches_bucketed_bitwise(self, maxwell):
        """The first default-path factor keeps its factors on the
        device; downloaded, they equal a direct bucketed
        ``multifrontal_factor_gpu`` call's host factors."""
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        assert slu.factors.store is slu.solve_cache
        assert dev.allocated_bytes == slu.solve_cache.resident_nbytes > 0

        ref = multifrontal_factor_gpu(Device(A100()), slu.a_perm, slu.symb,
                                      engine="bucketed")
        assert_fronts_equal(ref.factors, slu.factors)

    def test_report_parity(self, maxwell):
        """A re-factor's report equals a fresh handle's on the same
        values."""
        a = maxwell.matrix
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        a2 = perturbed(a, seed=11)
        refactor(slu, dev, a2)
        slu_ref, _ = factor_fresh(a2, maxwell.rhs)
        rb, rc = slu_ref.factor_report, slu.factor_report
        np.testing.assert_array_equal(rb.n_replaced, rc.n_replaced)
        assert rb.max_growth == rc.max_growth
        assert rb.ok == rc.ok


class TestReplay:
    def test_update_values_replays_program(self, maxwell):
        """One re-factor: fresh bits, memory back at the post-factor
        level, the layout reused and zero solve uploads."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        a2 = perturbed(a, seed=7)
        refactor(slu, dev, a2)
        assert_fresh_bits(slu, dev, a2, rhs)

    def test_repeated_replays_stay_bitwise(self, maxwell):
        """Three re-factors in a row: each gives fresh bits, and each
        makes the same allocations."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        allocs = []
        for i in range(3):
            a2 = perturbed(a, seed=20 + i)
            alloc0 = dev.alloc_count
            refactor(slu, dev, a2)
            allocs.append(dev.alloc_count - alloc0)
            assert_fresh_bits(slu, dev, a2, rhs)
        assert allocs[0] > 0 and len(set(allocs)) == 1

    def test_refactor_breakdown_covers_its_own_launches(self, maxwell):
        """Two identical re-factors on one device, with a solve between
        them, report the same per-operation kernel time: each breakdown
        sums its own call's launches, not the device's history."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        results = []
        for _ in range(2):
            refactor(slu, dev, a)
            results.append(slu.factor_result)
            slu.solve(rhs, device=dev)
        first, second = results
        assert second.elapsed == pytest.approx(first.elapsed, rel=1e-9)
        assert set(first.breakdown) == set(second.breakdown)
        for op, t in first.breakdown.items():
            assert second.breakdown[op] == pytest.approx(t, rel=1e-9), op

    def test_device_change_recompiles(self, maxwell):
        """A re-factor on another device moves the factors there: the
        first device's memory returns to baseline."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev1, dev2 = Device(A100()), Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev1)
        layout = slu.solve_cache.layout
        a2 = perturbed(a, seed=3)
        slu.update_values(a2)
        slu.factor(backend="batched", device=dev2)
        assert dev1.allocated_bytes == 0
        assert slu.solve_cache.device is dev2
        assert slu.solve_cache.layout is layout
        assert dev2.allocated_bytes == slu.solve_cache.resident_nbytes
        assert_fresh_bits(slu, dev2, a2, rhs)


class TestGuardFallback:
    def test_breakdown_falls_back_to_bucketed(self, maxwell):
        """A re-factor whose values break down raises and releases its
        store, or reports quarantined fronts; the next re-factor to good
        values gives fresh bits again."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        held = dev.allocated_bytes

        a_bad = a.copy()
        a_bad.data = np.zeros_like(a_bad.data)
        slu.update_values(a_bad)
        with pytest.raises(FactorizationError):
            slu.factor(backend="batched", device=dev)
        assert dev.allocated_bytes == 0
        assert slu.factor_report.n_failed > 0

        slu.factor(backend="batched", device=dev, breakdown="report")
        assert slu.factor_report.n_failed > 0
        # the same re-factor on a second handle of this structure (the
        # all-zero values would give a fresh SparseLU a different
        # dissection tree)
        dev_b = Device(A100())
        slu_b = SparseLU(a, use_mc64=False)
        slu_b.factor(backend="batched", device=dev_b)
        slu_b.update_values(a_bad)
        slu_b.factor(backend="batched", device=dev_b, breakdown="report")
        assert_fronts_equal(slu_b.factors, slu.factors)

        a2 = perturbed(a, seed=13)
        refactor(slu, dev, a2)
        assert dev.allocated_bytes == held
        assert_fresh_bits(slu, dev, a2, rhs)


class TestCompiledGuards:
    def test_memory_budget_bypasses_compilation(self, maxwell):
        """A re-factor under a ``memory_budget`` runs in several
        traversals and keeps no store: its factors are on the host,
        bitwise those of the in-core re-factor."""
        a, rhs = maxwell.matrix, maxwell.rhs
        dev = Device(A100())
        slu = SparseLU(a, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        budget = max(8 * f.order ** 2 for f in slu.symb.fronts) * 2
        assert len(plan_traversals(slu.symb, budget)) > 1
        a2 = perturbed(a, seed=17)
        slu.update_values(a2)
        slu.factor(backend="batched", device=dev, memory_budget=budget)
        assert slu.solve_cache is None and slu.factors.store is None
        assert slu.factor_result.counters["traversals"] > 1
        assert dev.allocated_bytes == 0
        assert slu.factor_report.ok
        slu_ref, _ = factor_fresh(a2, rhs)
        assert_fronts_equal(slu_ref.factors, slu.factors)

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
        with pytest.raises(ValueError, match="dtype"):
            slu.update_values(a.astype(np.complex128))

    @pytest.mark.parametrize("backend",
                             ["batched", "looped", "strumpack", "sharded"])
    def test_other_backends_reject_compiled_engine(self, maxwell, backend):
        dev = Node(A100(), 2) if backend == "sharded" else Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        with pytest.raises(ValueError, match="'bucketed', 'naive'"):
            slu.factor(backend=backend, device=dev, engine="compiled")
        devices = list(dev) if backend == "sharded" else [dev]
        assert all(d.allocated_bytes == 0 for d in devices)

    def test_non_batched_strategy_rejected(self, maxwell):
        """``backend=`` picks the strategy: ``strategy=`` is rejected up
        front, and the factors already there stay usable."""
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        slu.factor(backend="batched", device=dev)
        x0, _ = slu.solve(maxwell.rhs, device=dev)
        for backend, strategy in (("batched", "rightlooking"),
                                  ("batched", "batched"),
                                  ("looped", "looped")):
            with pytest.raises(ValueError, match="backend="):
                slu.factor(backend=backend, device=dev, strategy=strategy)
        x, _ = slu.solve(maxwell.rhs, device=dev)
        np.testing.assert_array_equal(x0, x)
        assert slu.solve_cache.uploads == 0


def one_fault(kind, match=""):
    return FaultPlan([FaultRule(kind, at=0, match=match)], seed=7)


@pytest.mark.chaos
@pytest.mark.sdc
class TestCompiledUnderFaults:
    """The recovery ladder on the first factor and on a re-factor: a
    repaired run gives the fault-free bits, device memory back at the
    post-factor level and zero solve uploads."""

    def fresh(self, maxwell):
        dev = Device(A100())
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        return dev, slu

    def test_repaired_compile_yields_no_program(self, maxwell):
        """A corruption the ABFT ladder repairs on the first factor
        leaves no trace in later re-factors."""
        dev, slu = self.fresh(maxwell)
        with dev.fault_scope(one_fault("corrupt", "irrgemm")):
            slu.factor(backend="batched", device=dev)
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert dev.allocated_bytes == slu.solve_cache.resident_nbytes
        mark = dev.recovery_log.mark()
        for seed in (7, 8):
            a2 = perturbed(maxwell.matrix, seed=seed)
            refactor(slu, dev, a2)
            assert_fresh_bits(slu, dev, a2, maxwell.rhs)
        assert len(dev.recovery_log.since(mark)) == 0

    def test_launch_fault_on_compile_and_replay(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu_ref, _ = factor_fresh(maxwell.matrix, maxwell.rhs)
        with dev.fault_scope(one_fault("launch")):
            slu.factor(backend="batched", device=dev)
        assert dev.recovery_log.count("launch-retry") == 1
        assert_fronts_equal(slu_ref.factors, slu.factors)
        a2 = perturbed(maxwell.matrix, seed=5)
        with dev.fault_scope(one_fault("launch")):
            refactor(slu, dev, a2)
        assert dev.recovery_log.count("launch-retry") == 2
        assert_fresh_bits(slu, dev, a2, maxwell.rhs)

    def test_alloc_fault_on_compile(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu_ref, _ = factor_fresh(maxwell.matrix, maxwell.rhs)
        with dev.fault_scope(one_fault("alloc")):
            slu.factor(backend="batched", device=dev)
        assert dev.recovery_log.count("chunk-shrink") == 1
        assert dev.allocated_bytes == slu.solve_cache.resident_nbytes
        assert_fronts_equal(slu_ref.factors, slu.factors)
        a2 = perturbed(maxwell.matrix, seed=6)
        with dev.fault_scope(one_fault("alloc")):
            refactor(slu, dev, a2)
        assert dev.recovery_log.count("chunk-shrink") == 2
        assert_fresh_bits(slu, dev, a2, maxwell.rhs)

    def test_corrupt_fault_on_replay_falls_back(self, maxwell):
        dev, slu = self.fresh(maxwell)
        slu.factor(backend="batched", device=dev)
        a2 = perturbed(maxwell.matrix, seed=9)
        with dev.fault_scope(one_fault("corrupt", "irrgemm")):
            refactor(slu, dev, a2)
        assert dev.recovery_log.count("kernel-reexec") >= 1
        assert_fresh_bits(slu, dev, a2, maxwell.rhs)


def launch_records(devices):
    return [(r.name, r.stream, r.cost, r.start, r.end)
            for d in devices for r in d.profiler.records]


class TestPlansOncePerAnalysis:
    """A handle builds its DCWI plans once per analysis: the re-factor
    and the first solve after it build none, and move no bit."""

    @pytest.mark.parametrize("backend", ["batched", "sharded"])
    def test_refactor_builds_no_plan(self, maxwell, backend):
        a, rhs = maxwell.matrix, maxwell.rhs

        def target():
            return Node(A100(), 2) if backend == "sharded" \
                else Device(A100())

        def solve_device(t):
            return t[0] if backend == "sharded" else t

        slu = SparseLU(a, use_mc64=False)
        t = target()
        slu.factor(backend=backend, device=t)
        slu.solve(rhs, device=solve_device(t))
        fcache = slu.factor_engine.cache
        scache = slu.solve_engine.cache
        assert fcache.misses > 0 and scache.misses > 0

        a2 = perturbed(a, seed=31)
        slu.update_values(a2)
        t = target()
        misses = fcache.misses
        slu.factor(backend=backend, device=t)
        assert fcache.misses == misses
        misses = scache.misses
        x, _ = slu.solve(rhs, device=solve_device(t))
        assert scache.misses == misses
        assert slu.solve_plan.engine is slu.solve_engine

        # the bits and launch records of a fresh handle on the same values
        ref = SparseLU(a2, use_mc64=False)
        t_ref = target()
        ref.factor(backend=backend, device=t_ref)
        x_ref, _ = ref.solve(rhs, device=solve_device(t_ref))
        devices = list(t) if backend == "sharded" else [t]
        devices_ref = list(t_ref) if backend == "sharded" else [t_ref]
        assert launch_records(devices) == launch_records(devices_ref)
        assert x.tobytes() == x_ref.tobytes()
        assert_fronts_equal(ref.factors, slu.factors)

    def test_explicit_engine_wins(self, maxwell):
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        slu.analyze()
        slu.factor(backend="batched", device=Device(A100()),
                   engine="naive")
        assert slu.factor_engine.cache.misses == 0

    def test_analyze_again_starts_fresh(self, maxwell):
        """A new analysis starts new plan caches and a new assembly map;
        ``update_values`` keeps them."""
        slu = SparseLU(maxwell.matrix, use_mc64=False)
        slu.factor(backend="batched", device=Device(A100()))
        engines = slu.factor_engine, slu.solve_engine
        symb, amap = slu.symb, slu.symb.assembly
        slu.update_values(perturbed(maxwell.matrix, seed=5))
        assert (slu.factor_engine, slu.solve_engine) == engines
        assert slu.symb is symb and slu.symb.assembly is amap
        slu.analyze()
        assert slu.factor_engine is not engines[0]
        assert slu.solve_engine is not engines[1]
        assert len(slu.factor_engine.cache) == 0
        assert slu.symb is not symb and slu.symb.assembly is not amap
