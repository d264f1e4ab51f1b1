"""Tests for the shape-bucketed execution engine + DCWI plan cache.

The engine contract is *exact equivalence*: for every kernel it executes
(GEMM, TRSM, panel, LASWP, pivot application) the results must be
bitwise identical to the per-matrix reference loops and the simulated
:class:`KernelCost` records must match field-for-field.  These tests
sweep that contract over mixed batches (0x0, 1x1, tall, wide, inner
products), the full driver compositions (``irr_getrf``/``irr_getrs``)
and the multifrontal level loop, then pin the engine's internal routing
rules (row-class panel groups, plan-cache reuse).
"""

import numpy as np
import pytest

from repro.batched import BatchEngine, INTERLEAVED_MAX_N, IrrBatch, \
    PlanCache, irr_gemm, irr_getrf, irr_getrs, irr_trsm, resolve_engine
from repro.device import A100, Device


def records(dev):
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.threads_per_block,
             r.cost.shared_mem_per_block, r.cost.kernel_class,
             r.cost.compute_ramp, r.cost.peak_scale)
            for r in dev.profiler.records]


MIXED_SHAPES = [(0, 0), (1, 1), (1, 7), (7, 1), (17, 17), (17, 17),
                (17, 17), (40, 23), (23, 40), (64, 64), (3, 3), (3, 3),
                (33, 33), (33, 33), (128, 96), (5, 5)]


def mixed_batch(dev, rng, shapes=MIXED_SHAPES):
    return IrrBatch.from_host(dev, [rng.standard_normal(s) for s in shapes])


class TestResolveEngine:
    def test_naive_and_none(self):
        assert resolve_engine(None) is None
        assert resolve_engine("naive") is None

    def test_bucketed_string(self):
        assert isinstance(resolve_engine("bucketed"), BatchEngine)

    def test_shared_instance_passes_through(self):
        eng = BatchEngine()
        assert resolve_engine(eng) is eng

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            resolve_engine("turbo")


class TestGemmParity:
    @pytest.mark.parametrize("transa,transb", [("N", "N"), ("T", "N"),
                                               ("N", "T"), ("T", "C")])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (-1.0, 1.0),
                                            (0.5, 0.0), (2.0, 0.25)])
    def test_mixed_batch(self, rng, transa, transb, alpha, beta):
        # Square-ish locals so every trans combination stays meaningful.
        shapes = [(0, 0), (1, 1), (1, 9), (9, 1), (6, 6), (6, 6), (24, 24),
                  (24, 24), (24, 24), (13, 17), (17, 13), (40, 40)]
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(7)
            A = IrrBatch.from_host(dev, [r.standard_normal(s)
                                         for s in shapes])
            B = IrrBatch.from_host(dev, [r.standard_normal(s)
                                         for s in shapes])
            C = IrrBatch.from_host(dev, [r.standard_normal(s)
                                         for s in shapes])
            irr_gemm(dev, transa, transb, 20, 20, 20, alpha, A, (2, 2),
                     B, (2, 2), beta, C, (2, 2), engine=engine)
            dev.synchronize()
            out.append((C.to_host(), records(dev)))
        (cn, rn), (cb, rb) = out
        for a, b in zip(cn, cb):
            np.testing.assert_array_equal(a, b)
        assert rn == rb

    def test_inner_product_rows_stay_bitwise(self, rng):
        # (1, 1, k) workloads must match the reference summation order
        # exactly — the engine routes them per-matrix for that reason.
        shapes = [(1, 30)] * 6 + [(30, 30)] * 2
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(3)
            A = IrrBatch.from_host(dev, [r.standard_normal(s)
                                         for s in shapes])
            B = IrrBatch.from_host(dev, [r.standard_normal((30, 30))
                                         for _ in shapes])
            C = IrrBatch.from_host(dev, [r.standard_normal((1, 1))
                                         for _ in shapes])
            irr_gemm(dev, "N", "N", 1, 1, 30, 1.0, A, (0, 0), B, (0, 0),
                     1.0, C, (0, 0), engine=engine)
            out.append(C.to_host())
        for a, b in zip(*out):
            np.testing.assert_array_equal(a, b)

    def test_k_exhausted_beta_paths(self, rng):
        shapes = [(4, 2)] * 5 + [(4, 4)] * 3
        for beta in (0.0, 0.5, 1.0):
            out = []
            for engine in ("naive", "bucketed"):
                dev = Device(A100())
                r = np.random.default_rng(11)
                A = IrrBatch.from_host(dev, [r.standard_normal(s)
                                             for s in shapes])
                B = IrrBatch.from_host(dev, [r.standard_normal((4, 4))
                                             for _ in shapes])
                C = IrrBatch.from_host(dev, [r.standard_normal((4, 4))
                                             for _ in shapes])
                irr_gemm(dev, "N", "N", 4, 4, 4, 1.0, A, (0, 2), B, (0, 2),
                         beta, C, (0, 0), engine=engine)
                dev.synchronize()
                out.append((C.to_host(), records(dev)))
            (cn, rn), (cb, rb) = out
            for a, b in zip(cn, cb):
                np.testing.assert_array_equal(a, b)
            assert rn == rb


class TestTrsmParity:
    @pytest.mark.parametrize("side,uplo", [("L", "L"), ("L", "U"),
                                           ("R", "L"), ("R", "U")])
    @pytest.mark.parametrize("trans,diag", [("N", "N"), ("N", "U"),
                                            ("T", "N")])
    def test_mixed_batch(self, rng, side, uplo, trans, diag):
        tshapes = [(0, 0), (1, 1), (12, 12), (12, 12), (20, 20), (7, 7),
                   (7, 7), (30, 30)]
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(5)
            tri = [r.standard_normal(s) + np.eye(s[0]) * s[0]
                   for s in tshapes]
            T = IrrBatch.from_host(dev, [t.copy() for t in tri])
            B = IrrBatch.from_host(dev, [r.standard_normal((s[0], s[0]))
                                         for s in tshapes])
            irr_trsm(dev, side, uplo, trans, diag, 16, 16, 1.0,
                     T, (0, 0), B, (0, 0), engine=engine)
            dev.synchronize()
            out.append((B.to_host(), records(dev)))
        (bn, rn), (bb, rb) = out
        for a, b in zip(bn, bb):
            np.testing.assert_array_equal(a, b)
        assert rn == rb


class TestGetrfParity:
    def assert_parity(self, shapes, seed=0, **kw):
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(seed)
            mats = [r.standard_normal(s) for s in shapes]
            batch = IrrBatch.from_host(dev, mats)
            piv = irr_getrf(dev, batch, engine=engine, **kw)
            dev.synchronize()
            out.append((batch.to_host(), piv, records(dev)))
        (fn, pn, rn), (fb, pb, rb) = out
        for a, b in zip(fn, fb):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(pn.ipiv, pb.ipiv):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pn.info, pb.info)
        assert rn == rb

    def test_mixed_batch(self, rng):
        self.assert_parity(MIXED_SHAPES)

    def test_uniform_small_batch_interleaved_path(self, rng):
        self.assert_parity([(12, 12)] * 40)

    def test_rectangular(self, rng):
        self.assert_parity([(30, 12), (12, 30), (45, 45), (45, 45),
                            (8, 64), (64, 8), (1, 1), (0, 0)])

    def test_large_mixed(self, rng):
        r = np.random.default_rng(42)
        shapes = [(int(s), int(s)) for s in r.integers(1, 90, size=120)]
        self.assert_parity(shapes, seed=1)

    def test_zero_pivots_and_info(self, rng):
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(9)
            mats = []
            for s in (10, 10, 24, 24, 24, 40):
                a = r.standard_normal((s, s))
                a[:, 0] = 0.0  # zero first column -> info > 0
                mats.append(a)
            batch = IrrBatch.from_host(dev, mats)
            piv = irr_getrf(dev, batch, engine=engine)
            dev.synchronize()
            out.append((batch.to_host(), piv))
        (fn, pn), (fb, pb) = out
        assert np.all(pn.info > 0)
        for a, b in zip(fn, fb):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pn.info, pb.info)
        for a, b in zip(pn.ipiv, pb.ipiv):
            np.testing.assert_array_equal(a, b)


class TestGetrsParity:
    def test_mixed_batch(self, rng):
        sizes = [1, 1, 9, 9, 24, 24, 24, 40, 17, 64]
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            r = np.random.default_rng(13)
            mats = [r.standard_normal((s, s)) for s in sizes]
            rhs = [r.standard_normal((s, int(r.integers(1, 5))))
                   for s in sizes]
            fb = IrrBatch.from_host(dev, mats)
            piv = irr_getrf(dev, fb, engine=engine)
            rb_ = IrrBatch.from_host(dev, rhs)
            irr_getrs(dev, fb, piv, rb_, engine=engine)
            dev.synchronize()
            out.append((rb_.to_host(), records(dev)))
        (sn, rn), (sb, rb) = out
        for a, b in zip(sn, sb):
            np.testing.assert_array_equal(a, b)
        assert rn == rb


class TestMultifrontalParity:
    def test_grid2d(self):
        from repro.sparse import multifrontal_factor_gpu, \
            nested_dissection, symbolic_analysis
        from ..sparse.util import grid2d

        a = grid2d(12, 12)
        nd = nested_dissection(a, leaf_size=8)
        ap = a[nd.perm][:, nd.perm].tocsr()
        symb = symbolic_analysis(ap, nd)
        out = []
        for engine in ("naive", "bucketed"):
            dev = Device(A100())
            res = multifrontal_factor_gpu(dev, ap, symb, engine=engine)
            dev.synchronize()
            out.append((res, records(dev)))
        (resn, rn), (resb, rb) = out
        assert rn == rb
        for fa, fb in zip(resn.factors.fronts, resb.factors.fronts):
            np.testing.assert_array_equal(fa.f11, fb.f11)
            np.testing.assert_array_equal(fa.f12, fb.f12)
            np.testing.assert_array_equal(fa.f21, fb.f21)
            np.testing.assert_array_equal(fa.ipiv, fb.ipiv)


class TestEngineInternals:
    def test_plan_cache_reused_across_calls(self, rng):
        # Plans are keyed on (kind, dims, offsets, flags, dims_key): a
        # second factorization of an identically-shaped batch replays the
        # whole schedule from the cache — the multifrontal / repeated-
        # solve lifecycle the shared engine exists for.
        eng = BatchEngine()
        dev = Device(A100())
        mats = [rng.standard_normal((s, s)) for s in (70, 70, 70, 40, 40)]
        batch = IrrBatch.from_host(dev, mats)
        irr_getrf(dev, batch, engine=eng)
        dev.synchronize()
        misses_first = eng.cache.misses
        assert misses_first > 0
        irr_getrf(dev, batch, engine=eng)
        dev.synchronize()
        assert eng.cache.misses == misses_first  # no new plans
        assert eng.cache.hits >= misses_first

    def test_uniform_bucket_lands_in_one_padded_group(self, rng):
        # Uniform small buckets join the row-class groups: one padded
        # slab holds every member, nothing runs per matrix.
        eng = BatchEngine()
        dev = Device(A100())
        n = INTERLEAVED_MAX_N
        batch = IrrBatch.from_host(
            dev, [rng.standard_normal((n, n)) for _ in range(10)])
        plan = eng._panel_plan(batch, 0, n)
        assert len(plan.chunks) == 1
        ch = plan.chunks[0]
        assert ch.idx.tolist() == list(range(10))
        assert (ch.R, ch.W, ch.P) == (n, n, n)
        assert plan.scalar == []

    def test_lone_matrix_takes_scalar_path(self, rng):
        # The only matrix of its row class runs the reference kernel;
        # the pair in the other class still shares a slab.
        eng = BatchEngine()
        dev = Device(A100())
        batch = IrrBatch.from_host(
            dev, [rng.standard_normal(s) for s in ((40, 40), (5, 5),
                                                   (7, 7))])
        plan = eng._panel_plan(batch, 0, 32)
        assert plan.scalar == [(0, 40, 32, 32)]
        assert [ch.idx.tolist() for ch in plan.chunks] == [[1, 2]]

    def test_plan_has_no_interleaved_list(self, rng):
        # Every active member lands in exactly one padded chunk or the
        # scalar list; there is no third (interleaved) route.
        eng = BatchEngine()
        dev = Device(A100())
        shapes = [(12, 12)] * 10 + [(33, 33)] * 3 + [(3, 3)] * 9 + \
            [(0, 0), (64, 8)]
        batch = IrrBatch.from_host(
            dev, [rng.standard_normal(s) for s in shapes])
        plan = eng._panel_plan(batch, 0, 32)
        assert set(type(plan).__slots__) == {"chunks", "scalar",
                                             "nbytes_elems", "blocks"}
        routed = sorted([i for ch in plan.chunks for i in ch.idx.tolist()]
                        + [m[0] for m in plan.scalar])
        assert routed == [i for i, s in enumerate(shapes) if min(s) > 0]

    def test_shared_cache_across_engines(self):
        cache = PlanCache()
        e1 = BatchEngine(cache=cache)
        e2 = BatchEngine(cache=cache)
        assert e1.cache is e2.cache
