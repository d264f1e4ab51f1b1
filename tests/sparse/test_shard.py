"""Sharded multifrontal factorization: bitwise parity with the
single-device path on grid Laplacians at 1–8 devices, plus the
multi-device execution profile (subtree makespan, link bytes) and the
store path that keeps every level on the devices."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.device import A100, PERSISTENT, Device, FaultPlan, FaultRule, \
    Link, Node
from repro.device.memory import DeviceOutOfMemory
from repro.errors import FactorizationError
from repro.sparse import SparseLU, multifrontal_factor_gpu, \
    multifrontal_factor_sharded, multifrontal_solve, nested_dissection, \
    symbolic_analysis
from repro.sparse.numeric.solve_plan import DeviceFactorCache, SolveLayout

from .util import grid2d, grid3d, maxwell

pytestmark = pytest.mark.multidev


def prepare(a, leaf_size=16):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    return nd, ap, symbolic_analysis(ap, nd)


def singular(k=40):
    """Grid operator with row+column k zeroed — exactly singular, with a
    guaranteed all-zero pivot column in the front that owns k."""
    a = grid2d(9, 9).tolil()
    a[k, :] = 0.0
    a[:, k] = 0.0
    return sp.csr_matrix(a)


def assert_factors_equal(fa, fb):
    assert len(fa.fronts) == len(fb.fronts)
    for x, y in zip(fa.fronts, fb.fronts):
        assert np.array_equal(x.f11, y.f11)
        assert np.array_equal(x.f12, y.f12)
        assert np.array_equal(x.f21, y.f21)
        assert np.array_equal(x.ipiv, y.ipiv)
        assert x.info == y.info


class TestShardedParity:
    @pytest.mark.parametrize("n_devices,system", [
        *(pytest.param(n, "grid", id=str(n)) for n in (1, 2, 4, 8)),
        *(pytest.param(n, "maxwell", id=f"maxwell-{n}") for n in (2, 4))])
    def test_bitwise_parity_with_single_device(self, n_devices, system):
        # Maxwell at SparseLU's default leaf size: its levels split across
        # devices into batches with different largest separators
        _, ap, symb = prepare(grid3d(7)) if system == "grid" else \
            prepare(maxwell(7), leaf_size=32)
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        node = Node(A100(), n_devices)
        res = multifrontal_factor_sharded(node, ap, symb)
        assert_factors_equal(ref.factors, res.factors)
        assert res.report is not None and bool(res.report.ok)
        assert np.array_equal(res.report.info, ref.report.info)
        assert node.allocated_bytes == 0

    def test_diagnostics_shape(self):
        _, ap, symb = prepare(grid3d(6))
        node = Node(A100(), 4)
        res = multifrontal_factor_sharded(node, ap, symb)
        assert res.elapsed > 0
        assert len(res.per_device_seconds) == 4
        assert res.gather_seconds >= 0 and res.top_seconds > 0
        assert res.link_bytes == node.p2p_bytes + node.staged_bytes
        assert res.link_bytes > 0

    def test_solve_against_sharded_factors(self, rng):
        a = grid2d(12, 11)
        nd, ap, symb = prepare(a)
        node = Node(A100(), 4)
        res = multifrontal_factor_sharded(node, ap, symb)
        b = rng.standard_normal(a.shape[0])
        x = multifrontal_solve(res.factors, b[nd.perm])[np.argsort(nd.perm)]
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    @pytest.mark.parametrize("kw", [
        dict(static_pivot=True, pivot_tol=1e-10),
        dict(pivot_tol=1e-12, replace_scale=1e4),
        dict(engine="naive"),
    ])
    def test_pivot_policy_parity(self, kw):
        _, ap, symb = prepare(grid2d(11, 10))
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb, **kw)
        res = multifrontal_factor_sharded(Node(A100(), 4), ap, symb, **kw)
        assert_factors_equal(ref.factors, res.factors)
        assert np.array_equal(res.report.n_replaced, ref.report.n_replaced)

    def test_breakdown_report_parity(self):
        _, ap, symb = prepare(singular())
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb,
                                      breakdown="report")
        res = multifrontal_factor_sharded(Node(A100(), 4), ap, symb,
                                          breakdown="report")
        assert not bool(res.report.ok)
        assert np.array_equal(res.report.info, ref.report.info)

    def test_breakdown_raise_parity(self):
        _, ap, symb = prepare(singular())
        with pytest.raises(FactorizationError):
            multifrontal_factor_gpu(Device(A100()), ap, symb)
        node = Node(A100(), 4)
        with pytest.raises(FactorizationError):
            multifrontal_factor_sharded(node, ap, symb)
        assert node.allocated_bytes == 0

    def test_rejects_bad_arguments(self):
        _, ap, symb = prepare(grid2d(6, 6))
        node = Node(A100(), 2)
        with pytest.raises(ValueError, match="breakdown"):
            multifrontal_factor_sharded(node, ap, symb, breakdown="nope")
        with pytest.raises(ValueError, match="engine"):
            multifrontal_factor_sharded(node, ap, symb, engine="nope")
        assert node.allocated_bytes == 0

    def test_top_part_on_first_device_matches_numerics(self):
        """The top part runs with the batched kernels on ``node[0]``,
        after the gather, bitwise as on one device: ``node[0]`` is the
        last device to finish."""
        _, ap, symb = prepare(grid3d(6))
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        node = Node(A100(), 4)
        res = multifrontal_factor_sharded(node, ap, symb)
        assert_factors_equal(ref.factors, res.factors)
        assert 0 < res.top_seconds < res.elapsed
        assert node[0].host_time == node.makespan
        assert all(d.host_time < node.makespan for d in list(node)[1:])
        assert node.allocated_bytes == 0


def store_bytes(lu):
    return sum(lu.factors.dtype.itemsize * lp.elements
               for lp in lu.solve_cache.layout.levels)


class TestShardedStore:
    """``SparseLU(backend="sharded")``: each device packs its share of
    every level, and the shares merge into the store on ``node[0]``."""

    @pytest.mark.parametrize("n_devices,system", [
        pytest.param(4, "grid", id="4"),
        *(pytest.param(n, "maxwell", id=f"maxwell-{n}") for n in (2, 4))])
    def test_bitwise_parity_with_single_device(self, n_devices, system,
                                               rng):
        a = grid3d(7) if system == "grid" else maxwell(7)
        dev = Device(A100())
        ref = SparseLU(a).analyze().factor(backend="batched", device=dev)
        node = Node(A100(), n_devices)
        lu = SparseLU(a).analyze().factor(backend="sharded", device=node)
        assert node[0].allocated_bytes == store_bytes(lu)
        assert all(d.allocated_bytes == 0 for d in list(node)[1:])
        b = rng.standard_normal(a.shape[0])
        x, _ = lu.solve(b, device=node[0])
        assert lu.solve_cache.uploads == 0
        assert np.array_equal(x, ref.solve(b, device=dev)[0])
        assert_factors_equal(ref.factors, lu.factors)
        assert np.array_equal(lu.factor_report.info, ref.factor_report.info)

    @pytest.mark.parametrize("busy", [0, 2])
    def test_top_device_takes_the_lightest_share(self, busy):
        """``node[0]`` takes the lightest subtree share whichever device
        is ahead in time: the assignment follows flops, not clocks."""
        _, ap, symb = prepare(maxwell(7), leaf_size=32)
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        node = Node(A100(), 4)
        node[busy].host_compute(1.0)
        res = multifrontal_factor_sharded(node, ap, symb)
        flops = res.assignment.rank_flops
        assert len(set(flops)) == 4        # four subtrees, no ties
        assert flops[0] == min(flops)
        for d, fids in enumerate(res.assignment.rank_fronts):
            assert all(res.assignment.rank_of_front[f] == d for f in fids)
        assert_factors_equal(ref.factors, res.factors)

    def test_share_pack_launch_fault_is_retried_bitwise(self):
        a = grid3d(8)
        ref = SparseLU(a).analyze().factor(backend="batched",
                                           device=Device(A100()))
        node = Node(A100(), 4)
        lu = SparseLU(a).analyze()
        rule = FaultRule("launch", at=0, match="solve:pack")
        with node[1].fault_scope(FaultPlan([rule])):
            lu.factor(backend="sharded", device=node)
        assert lu.factor_report.recovery.count("launch-retry") == 1
        assert node[0].allocated_bytes == store_bytes(lu)
        assert all(d.allocated_bytes == 0 for d in list(node)[1:])
        assert_factors_equal(ref.factors, lu.factors)

    def test_top_level_retry_rereads_the_peer_schur_blocks(self):
        a = grid3d(8)
        ref = SparseLU(a).analyze().factor(backend="batched",
                                           device=Device(A100()))
        clean = Node(A100(), 4)
        SparseLU(a).analyze().factor(backend="sharded", device=clean)
        n = sum(r.name == "assemble:extend_add"
                for r in clean[0].profiler.records)
        node = Node(A100(), 4)
        lu = SparseLU(a).analyze()
        # node[0]'s last two assemblies are the top part's depths 1 and
        # 0; depth 1 reads the Schur blocks the peers sent
        rule = FaultRule("launch", at=n - 2, match="assemble")
        with node[0].fault_scope(FaultPlan([rule])):
            lu.factor(backend="sharded", device=node)
        assert lu.factor_report.recovery.count("launch-retry") == 1
        assert node[0].allocated_bytes == store_bytes(lu)
        assert_factors_equal(ref.factors, lu.factors)

    def test_merge_alloc_fault_raises_typed_and_frees_every_device(self):
        a = grid3d(8)
        ref = SparseLU(a).analyze().factor(backend="batched",
                                           device=Device(A100()))
        node = Node(A100(), 4)
        lu = SparseLU(a).analyze()
        idle = FaultPlan([FaultRule("alloc", at=10 ** 9)])
        with node[0].fault_scope(idle) as counted:
            lu.factor(backend="sharded", device=node)
        # the merge makes node[0]'s last allocations: three per level
        # below the top part's two
        n_allocs = counted.counters["alloc"]
        merged = len(lu.solve_cache.layout.levels) - 2
        lu.solve_cache.free()
        rule = FaultRule("alloc", at=n_allocs - 3 * merged,
                         times=PERSISTENT)
        with node[0].fault_scope(FaultPlan([rule])) as inj:
            with pytest.raises(DeviceOutOfMemory):
                lu.factor(backend="sharded", device=node)
        # a store pack, not a level transaction (that would retry)
        assert inj.injected_of("alloc")[0].site == "pack_to_device"
        assert node[0].recovery_log.count() == 0
        assert lu.solve_cache is None
        assert all(d.allocated_bytes == 0 for d in node)
        lu.factor(backend="sharded", device=node)
        assert_factors_equal(ref.factors, lu.factors)

    def test_breakdown_raise_frees_every_device(self):
        node = Node(A100(), 4)
        lu = SparseLU(singular()).analyze()
        with pytest.raises(FactorizationError):
            lu.factor(backend="sharded", device=node)
        assert all(d.allocated_bytes == 0 for d in node)
        assert lu.solve_cache is None

    def test_store_on_another_device_is_rejected(self):
        _, ap, symb = prepare(grid2d(8, 8))
        node = Node(A100(), 2)
        store = DeviceFactorCache(node[1], None, SolveLayout(symb))
        with pytest.raises(ValueError, match="store must"):
            multifrontal_factor_sharded(node, ap, symb, store=store)
        assert node.allocated_bytes == 0


class TestSparseLUSharded:
    def test_backend_sharded_end_to_end(self, rng):
        a = grid2d(13, 12)
        node = Node(A100(), 4)
        lu = SparseLU(a).factor(backend="sharded", device=node)
        ref = SparseLU(a).factor(backend="batched", device=Device(A100()))
        assert_factors_equal(lu.factors, ref.factors)
        b = rng.standard_normal(a.shape[0])
        x, info = lu.solve(b)
        assert info.final_residual < 1e-12
        assert np.array_equal(x, ref.solve(b)[0])

    def test_backend_sharded_needs_a_node(self):
        a = grid2d(6, 6)
        with pytest.raises(ValueError, match="Node"):
            SparseLU(a).factor(backend="sharded", device=Device(A100()))


class TestDistributedWrapper:
    """The simulated-MPI setup — a node whose devices gather over a
    network link — keeps the pivot policy and breakdown semantics of
    the single-device path."""

    @staticmethod
    def mpi_node():
        return Node(A100(), 4, p2p_link=Link(bandwidth=25e9, latency=5e-6))

    def test_breakdown_parity_with_gpu_path(self):
        _, ap, symb = prepare(singular())
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb,
                                      breakdown="report")
        res = multifrontal_factor_sharded(self.mpi_node(), ap, symb,
                                          breakdown="report")
        assert res.report is not None
        assert np.array_equal(res.report.info, ref.report.info)

    def test_raise_on_breakdown(self):
        _, ap, symb = prepare(singular())
        with pytest.raises(FactorizationError):
            multifrontal_factor_sharded(self.mpi_node(), ap, symb)

    def test_pivot_policy_threads_through(self):
        _, ap, symb = prepare(grid2d(10, 10))
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb,
                                      static_pivot=True, pivot_tol=1e-10)
        res = multifrontal_factor_sharded(
            self.mpi_node(), ap, symb, static_pivot=True, pivot_tol=1e-10)
        assert_factors_equal(ref.factors, res.factors)
        assert res.report.static_pivot is True


def solve_residual(a, nd, factors, rng):
    b = rng.standard_normal(a.shape[0])
    x = multifrontal_solve(factors, b[nd.perm])[np.argsort(nd.perm)]
    return np.abs(a @ x - b).max()


class TestShardedExecution:
    def test_solve_correct_on_odd_device_count(self, rng):
        a = grid3d(6)
        nd, ap, symb = prepare(a)
        res = multifrontal_factor_sharded(Node(A100(), 3), ap, symb)
        assert solve_residual(a, nd, res.factors, rng) < 1e-10

    def test_subtree_makespan_shrinks_with_devices(self):
        _, ap, symb = prepare(grid3d(7))
        subtree = [max(multifrontal_factor_sharded(
            Node(A100(), p), ap, symb).per_device_seconds) for p in (1, 4)]
        assert subtree[1] < 0.7 * subtree[0]

    def test_link_bytes_are_boundary_schur_from_non_owners(self):
        _, ap, symb = prepare(grid3d(6))
        # an MPI-style network: the node's p2p link costs the gather
        node = Node(A100(), 4, p2p_link=Link(bandwidth=25e9, latency=5e-6))
        res = multifrontal_factor_sharded(node, ap, symb)
        rank = res.assignment.rank_of_front
        expected = sum(
            8 * f.upd_size ** 2 for fid, f in enumerate(symb.fronts)
            if rank[fid] > 0 and f.parent >= 0 and rank[f.parent] == -1)
        assert expected > 0
        assert res.link_bytes == expected == node.p2p_bytes
        assert res.gather_seconds > 0

    def test_host_factors_without_store_solve(self, rng):
        """Host factors from a direct call without a store solve, and
        every device is back at 0 bytes."""
        a = grid3d(6)
        nd, ap, symb = prepare(a)
        node = Node(A100(), 4)
        res = multifrontal_factor_sharded(node, ap, symb)
        assert res.top_seconds > 0
        assert node.allocated_bytes == 0
        assert solve_residual(a, nd, res.factors, rng) < 1e-10

    def test_one_device_sends_nothing(self):
        _, ap, symb = prepare(grid2d(12, 12), leaf_size=8)
        node = Node(A100(), 1)
        res = multifrontal_factor_sharded(node, ap, symb)
        assert res.link_bytes == 0 and node.link_bytes == [0]
        assert res.gather_seconds == 0.0 and res.top_seconds == 0.0
        assert res.elapsed >= res.per_device_seconds[0] > 0

    def test_one_device_times_the_single_device_factorization(self):
        """Without a store a 1-device node runs the single-device
        factorization and times it the same way: the fronts download
        after ``elapsed`` stops."""
        _, ap, symb = prepare(maxwell(8), leaf_size=32)
        ref = multifrontal_factor_gpu(Device(A100()), ap, symb)
        res = multifrontal_factor_sharded(Node(A100(), 1), ap, symb)
        assert res.elapsed == pytest.approx(ref.elapsed, rel=0.1)
        assert_factors_equal(ref.factors, res.factors)

    @pytest.mark.parametrize("n_devices", [2, 4])
    def test_no_store_run_is_no_slower_than_the_store_run(self, n_devices):
        """Both runs gather the boundary Schur blocks device to device
        into ``node[0]``; only the store run also merges the shares."""
        _, ap, symb = prepare(maxwell(8), leaf_size=32)
        runs = []
        for keep in (False, True):
            node = Node(A100(), n_devices)
            store = DeviceFactorCache(node[0], None, SolveLayout(symb)) \
                if keep else None
            runs.append(multifrontal_factor_sharded(node, ap, symb,
                                                    store=store))
        plain, stored = runs
        assert plain.elapsed <= stored.elapsed
        assert plain.link_bytes < stored.link_bytes
        assert_factors_equal(stored.factors, plain.factors)

    def test_elapsed_is_per_call_on_a_reused_node(self):
        a = grid2d(12, 11)
        node = Node(A100(), 4)
        runs = [SparseLU(a).factor(backend="sharded", device=node)
                .factor_result.elapsed for _ in range(2)]
        assert runs[1] == pytest.approx(runs[0], rel=1e-12)
