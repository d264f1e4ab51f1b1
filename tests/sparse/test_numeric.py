"""Tests for the numeric factorization phases (CPU and GPU backends)."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.batched.engine import resolve_engine
from repro.batched.panel import panel_shared_bytes
from repro.device import A100, MI100, Device, Node
from repro.sparse import multifrontal_factor_cpu, multifrontal_factor_gpu, \
    multifrontal_factor_sharded, multifrontal_solve, nested_dissection, \
    symbolic_analysis
from repro.sparse.numeric.cpu_factor import factor_front_blocks
from repro.sparse.numeric.gpu_factor import _level_batched, \
    offdiag_base_nb
from repro.workloads.fronts import build_maxwell_workload

from .util import grid2d, grid3d, random_sparse


def prepare(a, leaf_size=8):
    nd = nested_dissection(a, leaf_size=leaf_size)
    ap = a[nd.perm][:, nd.perm].tocsr()
    symb = symbolic_analysis(ap, nd)
    return nd, ap, symb


def _records(dev):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def solve_via(factors, nd, a, b):
    xp = multifrontal_solve(factors, b[nd.perm])
    x = np.empty_like(xp)
    x[nd.perm] = xp
    return x


class TestFactorFrontBlocks:
    def test_full_factorization_when_no_update(self, rng):
        F = rng.standard_normal((8, 8))
        orig = F.copy()
        fac, schur = factor_front_blocks(F.copy(), 8)
        assert schur.shape == (0, 0)
        from repro.batched import lu_reconstruct
        np.testing.assert_allclose(lu_reconstruct(fac.f11, fac.ipiv), orig,
                                   rtol=1e-11, atol=1e-12)

    def test_schur_complement_value(self, rng):
        F = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        orig = F.copy()
        fac, schur = factor_front_blocks(F.copy(), 6)
        want = orig[6:, 6:] - orig[6:, :6] @ np.linalg.inv(orig[:6, :6]) \
            @ orig[:6, 6:]
        np.testing.assert_allclose(schur, want, rtol=1e-10, atol=1e-10)

    def test_zero_pivot_block_raises(self):
        F = np.zeros((4, 4))
        F[2:, 2:] = np.eye(2)
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            factor_front_blocks(F, 2)


class TestCpuFactor:
    def test_solve_matches_scipy(self, rng):
        a = grid2d(13, 17)
        nd, ap, symb = prepare(a)
        fac = multifrontal_factor_cpu(ap, symb)
        b = rng.standard_normal(a.shape[0])
        x = solve_via(fac, nd, a, b)
        ref = spla.spsolve(a.tocsc(), b)
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-11)

    def test_multiple_rhs(self, rng):
        a = grid2d(9, 9)
        nd, ap, symb = prepare(a)
        fac = multifrontal_factor_cpu(ap, symb)
        B = rng.standard_normal((81, 3))
        X = solve_via(fac, nd, a, B)
        np.testing.assert_allclose(a @ X, B, rtol=1e-9, atol=1e-10)

    def test_3d_problem(self, rng):
        a = grid3d(5)
        nd, ap, symb = prepare(a, leaf_size=16)
        fac = multifrontal_factor_cpu(ap, symb)
        b = rng.standard_normal(125)
        x = solve_via(fac, nd, a, b)
        assert np.abs(a @ x - b).max() < 1e-10

    def test_unsymmetric_values(self, rng):
        a = random_sparse(80, seed=9)
        nd, ap, symb = prepare(a)
        fac = multifrontal_factor_cpu(ap, symb)
        b = rng.standard_normal(80)
        x = solve_via(fac, nd, a, b)
        assert np.abs(a @ x - b).max() / np.abs(b).max() < 1e-10

    def test_rhs_size_mismatch(self, rng):
        a = grid2d(5, 5)
        nd, ap, symb = prepare(a)
        fac = multifrontal_factor_cpu(ap, symb)
        with pytest.raises(ValueError, match="expected"):
            multifrontal_solve(fac, np.zeros(7))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 10), st.integers(3, 10),
           st.integers(0, 2 ** 31 - 1), st.integers(2, 16))
    def test_property_solve(self, nx, ny, seed, leaf):
        a = grid2d(nx, ny, seed=seed)
        nd, ap, symb = prepare(a, leaf_size=leaf)
        fac = multifrontal_factor_cpu(ap, symb)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(nx * ny)
        x = solve_via(fac, nd, a, b)
        assert np.abs(a @ x - b).max() / max(np.abs(b).max(), 1) < 1e-9


class TestGpuFactorStrategies:
    @pytest.mark.parametrize("strategy", ["batched", "looped", "strumpack"])
    def test_matches_cpu_factors(self, rng, strategy):
        a = grid2d(11, 11)
        nd, ap, symb = prepare(a)
        ref = multifrontal_factor_cpu(ap, symb)
        dev = Device(A100())
        res = multifrontal_factor_gpu(dev, ap, symb, strategy=strategy)
        for f_gpu, f_cpu in zip(res.factors.fronts, ref.fronts):
            np.testing.assert_allclose(f_gpu.f11, f_cpu.f11, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_array_equal(f_gpu.ipiv, f_cpu.ipiv)
            np.testing.assert_allclose(f_gpu.f12, f_cpu.f12, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(f_gpu.f21, f_cpu.f21, rtol=1e-10,
                                       atol=1e-12)

    @pytest.mark.parametrize("gemm_mode", ["irr", "vendor", "hybrid"])
    def test_gemm_modes_agree(self, rng, gemm_mode):
        # Maxwell n=8 has Schur updates on both sides of the fixed 256
        # cutoff (Fig 14), so the hybrid launches both kernel families
        wl = build_maxwell_workload(8)
        dev = Device(A100())
        res = multifrontal_factor_gpu(dev, wl.a_perm, wl.symb,
                                      strategy="batched",
                                      gemm_mode=gemm_mode)
        names = {r.name for r in dev.profiler.records}
        assert ("irrgemm:schur" in names) == (gemm_mode != "vendor")
        assert ("cublas_gemm:schur" in names) == (gemm_mode != "irr")
        a = wl.matrix
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        x = solve_via(res.factors, SimpleNamespace(perm=wl.perm), a, b)
        assert np.abs(a @ x - b).max() < 1e-9

    def test_invalid_strategy(self, rng):
        a = grid2d(5, 5)
        nd, ap, symb = prepare(a)
        dev = Device(A100())
        with pytest.raises(ValueError, match="strategy"):
            multifrontal_factor_gpu(dev, ap, symb, strategy="warp")

    def test_invalid_gemm_mode(self, rng):
        a = grid2d(5, 5)
        nd, ap, symb = prepare(a)
        dev = Device(A100())
        with pytest.raises(ValueError, match="gemm_mode"):
            multifrontal_factor_gpu(dev, ap, symb, gemm_mode="tensor")

    def test_device_memory_returns_to_baseline(self, rng):
        a = grid2d(8, 8)
        nd, ap, symb = prepare(a)
        dev = Device(A100())
        before = dev.allocated_bytes
        multifrontal_factor_gpu(dev, ap, symb)
        assert dev.allocated_bytes == before

    def test_mi100_also_correct(self, rng):
        a = grid2d(10, 10)
        nd, ap, symb = prepare(a)
        dev = Device(MI100())
        res = multifrontal_factor_gpu(dev, ap, symb)
        b = rng.standard_normal(100)
        x = solve_via(res.factors, nd, a, b)
        assert np.abs(a @ x - b).max() < 1e-9

    def test_engines_agree_on_maxwell(self):
        # fronts up to order 299 span many 32x32 tiles in every tiled
        # grid (assembly, F12 swaps, GEMM): both engines must make the
        # same launches at the same cost and produce the same bits
        wl = build_maxwell_workload(7)
        assert max(f.order for f in wl.symb.fronts) == 299
        runs = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            res = multifrontal_factor_gpu(dev, wl.a_perm, wl.symb,
                                          engine=engine)
            runs.append((res.factors.fronts, _records(dev)))
        (fronts_n, rec_n), (fronts_b, rec_b) = runs
        assert rec_n == rec_b
        assert max(r[4] for r in rec_b) > len(wl.symb.fronts)
        for fn, fb in zip(fronts_n, fronts_b):
            for blk in ("f11", "f12", "f21", "ipiv"):
                assert np.array_equal(getattr(fn, blk), getattr(fb, blk))


def _timed_records(dev):
    return [(r.name, r.stream, r.cost, r.start, r.end)
            for r in sorted(dev.profiler.records, key=lambda r: r.seq)]


def _assert_fronts_equal(fa, fb):
    for x, y in zip(fa, fb, strict=True):
        for blk in ("f11", "f12", "f21", "ipiv"):
            assert np.array_equal(getattr(x, blk), getattr(y, blk)), blk


class TestStreamedOffdiag:
    """Each level's F12 and F21 triangles stream in one irrTRSM base
    launch each where they fit (``offdiag_base_nb``), the left swaps and
    the F21 solve run on the device's side stream, and the Schur update
    waits for both solves."""

    def test_base_nb_per_device_and_dtype(self):
        assert offdiag_base_nb(A100(), 8) == 620
        assert offdiag_base_nb(MI100(), 8) == 224
        assert offdiag_base_nb(MI100(), 16) == 96
        assert offdiag_base_nb(MI100(), 4) == 480

    def test_launch_structure(self):
        wl = build_maxwell_workload(8)
        dev = Device(A100())
        multifrontal_factor_gpu(dev, wl.a_perm, wl.symb)
        side = dev.side_stream.sid
        assert sorted(dev._streams) == [side, 0]
        recs = sorted(dev.profiler.records, key=lambda r: r.seq)
        levels = []
        for r in recs:       # every level opens with its assembly
            if r.name == "assemble:extend_add":
                levels.append([])
            levels[-1].append(r)
        fids_by_level = wl.symb.levels()
        assert len(levels) == len(fids_by_level)
        swapped = 0
        for lev, fids in zip(levels, fids_by_level):
            names = [r.name for r in lev]
            assert not any(n.startswith(("irrtrsm:f12:gemm",
                                         "irrtrsm:f21:gemm")) for n in names)
            has_f12 = any(wl.symb.fronts[f].sep_size and
                          wl.symb.fronts[f].upd_size for f in fids)
            if not has_f12:
                assert "irrtrsm:f12:base" not in names
                continue
            assert names.count("irrtrsm:f12:base") == 1
            assert names.count("irrtrsm:f21:base") == 1
            f12 = next(r for r in lev if r.name == "irrtrsm:f12:base")
            f21 = next(r for r in lev if r.name == "irrtrsm:f21:base")
            assert (f12.stream, f21.stream) == (0, side)
            # F21 reads U: it waits on the LU's last main-stream launch;
            # the Schur update waits on the F21 solve
            lu_end = max(r.seq for r in lev if r.stream == 0
                         and r.seq < f21.seq)
            assert any(e.stream == 0 and e.seq >= lu_end
                       for e in f21.wait_events)
            schur = next(r for r in lev if r.name.endswith("gemm:schur"))
            assert schur.stream == 0
            assert any(e.stream == side and e.seq >= f21.seq
                       for e in schur.wait_events)
            assert schur.start >= max(f12.end, f21.end)
            left = [r for r in lev if r.name.startswith("irrlaswp:left")]
            assert all(r.stream == side for r in left)
            if left:
                swapped += 1
                assert f12.start >= max(r.end for r in left)
        assert swapped >= 2

    @pytest.mark.parametrize("spec,n", [
        pytest.param(A100, 8, id="a100-maxwell8"),
        pytest.param(MI100, 8, id="mi100-maxwell8"),
        pytest.param(MI100, 10, id="mi100-maxwell10")])
    def test_engine_parity(self, spec, n):
        wl = build_maxwell_workload(n)
        runs = []
        for engine in ("naive", "bucketed"):
            dev = Device(spec())
            res = multifrontal_factor_gpu(dev, wl.a_perm, wl.symb,
                                          engine=engine)
            runs.append((res.factors.fronts, _timed_records(dev)))
        (fronts_n, rec_n), (fronts_b, rec_b) = runs
        assert rec_n == rec_b
        _assert_fronts_equal(fronts_n, fronts_b)
        names = {r[0] for r in rec_b}
        # MI100 n=10: the 262-row level recurses on the 224·2^k grid
        recursed = spec is MI100 and n == 10
        assert ("irrtrsm:f12:gemm" in names) == recursed
        assert ("irrtrsm:f21:gemm" in names) == recursed

    def test_vendor_schur_gemms_alternate_streams(self):
        # Maxwell n=10 has levels with 2 to 4 fronts above the hybrid
        # cutoff: their cuBLAS Schur GEMMs alternate between the main
        # and the side stream, and the main stream's next launch starts
        # after the last of them ends
        wl = build_maxwell_workload(10)
        dev = Device(A100())
        multifrontal_factor_gpu(dev, wl.a_perm, wl.symb)
        side = dev.side_stream.sid
        recs = sorted(dev.profiler.records, key=lambda r: r.seq)
        groups, prev = [], ""
        for r in recs:
            if r.name == "cublas_gemm:schur":
                if prev != r.name:
                    groups.append([])
                groups[-1].append(r)
            prev = r.name
        wide = [g for g in groups if len(g) >= 2]
        assert len(wide) >= 3
        for g in wide:
            assert [r.stream for r in g] == \
                [0 if k % 2 == 0 else side for k in range(len(g))]
            nxt = next(r for r in recs if r.seq > g[-1].seq and r.stream == 0)
            assert nxt.start >= max(r.end for r in g)
            # the two streams' GEMMs run side by side
            assert g[1].start < g[0].end
        assert all(g[0].stream == 0 for g in groups if len(g) == 1)

    def test_looped_backend_stays_on_one_stream(self):
        # Table I's cuBLAS/cuSOLVER loop is the one-stream comparator
        wl = build_maxwell_workload(10)
        dev = Device(A100())
        multifrontal_factor_gpu(dev, wl.a_perm, wl.symb, strategy="looped")
        recs = dev.profiler.records
        assert sum(r.name == "cublas_gemm:schur" for r in recs) >= 10
        assert {r.stream for r in recs} == {0}

    def test_split_level_keeps_every_front_bitwise(self):
        # separators on both sides of the MI100's 224-row stream order,
        # both short enough for the fused panel
        dims = [(240, 64), (200, 48)]
        spec = MI100()
        assert all(panel_shared_bytes(s, 0, 32, 8) <=
                   spec.max_shared_per_block for s, _ in dims)
        rng = np.random.default_rng(3)
        fronts = [rng.standard_normal((s + u, s + u)) for s, u in dims]
        symb = SimpleNamespace(fronts=[SimpleNamespace(sep_size=s,
                                                       upd_size=u)
                                       for s, u in dims])

        def run(batches):
            dev = Device(spec)
            buffers = {i: dev.from_host(f) for i, f in enumerate(fronts)}
            records = {}
            for fids in batches:
                _level_batched(dev, symb, fids, buffers, records,
                               "hybrid", engine=resolve_engine("bucketed"))
            return [buffers[i].data.copy() for i in range(len(dims))], \
                records

        (whole, rec_w), (split, rec_s) = run([[0, 1]]), run([[0], [1]])
        for i, ((s, _), fw, fs) in enumerate(zip(dims, whole, split)):
            assert np.array_equal(rec_w[i].ipiv, rec_s[i].ipiv)
            assert np.array_equal(fw[:s, s:], fs[:s, s:])       # F12
            assert np.array_equal(fw[s:, :s], fs[s:, :s])       # F21
            assert np.array_equal(fw, fs)

    @pytest.mark.multidev
    @pytest.mark.parametrize("n_devices", [2, 4])
    def test_sharded_parity(self, n_devices):
        wl = build_maxwell_workload(8)
        ref = multifrontal_factor_gpu(Device(A100()), wl.a_perm, wl.symb)
        node = Node(A100(), n_devices)
        res = multifrontal_factor_sharded(node, wl.a_perm, wl.symb)
        _assert_fronts_equal(ref.factors.fronts, res.factors.fronts)
        for dev in node:
            assert len(dev._streams) == 2


class TestTableIOrderings:
    def test_batched_fastest(self, rng):
        """Table I shape: the irr-batched backend beats the naive loop and
        the STRUMPACK model on a front-rich problem."""
        a = grid3d(6)
        nd, ap, symb = prepare(a, leaf_size=16)
        times = {}
        for strategy in ("batched", "looped", "strumpack"):
            dev = Device(A100())
            res = multifrontal_factor_gpu(dev, ap, symb, strategy=strategy)
            times[strategy] = res.elapsed
        assert times["batched"] < times["looped"]
        assert times["batched"] < times["strumpack"]

    def test_batched_reduces_launch_and_sync_counters(self, rng):
        """The Nsight observation: launch and synchronize totals shrink by
        an order of magnitude vs the STRUMPACK model."""
        a = grid3d(6)
        nd, ap, symb = prepare(a, leaf_size=16)
        dev_b, dev_s = Device(A100()), Device(A100())
        res_b = multifrontal_factor_gpu(dev_b, ap, symb, strategy="batched")
        res_s = multifrontal_factor_gpu(dev_s, ap, symb,
                                        strategy="strumpack")
        assert res_s.counters["launch_count"] > \
            5 * res_b.counters["launch_count"]
        assert res_s.counters["sync_count"] > res_b.counters["sync_count"]
