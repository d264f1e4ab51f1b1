"""irr_getrf's own parameter space: the panel width ``nb`` (the paper's
16–32-column design parameter, §IV-E), the row-interchange variant
(§IV-F) and the concurrent left swaps (§VI).

The library fixes these at their defaults and has no tuner (auto-tuning
by size distribution is the paper's open problem);
``examples/panel_tuning.py`` sweeps ``nb`` by hand.  These tests pin the
properties such a sweep relies on: every point of the grid runs and
factors correctly, the choice moves simulated time, and a sub-batch with
the batch's size distribution ranks the choices as the batch does.
"""

import numpy as np

from repro.batched import IrrBatch, irr_getrf, lu_reconstruct
from repro.device import A100, Device
from repro.workloads import large_square_batch, random_square_batch

#: nb × LASWP variant × concurrent left swaps
GRID = [{"nb": nb, "laswp_variant": lv, "concurrent_swaps": cs}
        for nb in (8, 16, 32, 64)
        for lv in ("rehearsed", "looped")
        for cs in (False, True)]


def run(mats, **cfg):
    """Factor copies of ``mats`` on a fresh A100 model; return the
    simulated seconds, the factored batch and its pivots."""
    dev = Device(A100())
    b = IrrBatch.from_host(dev, [m.copy() for m in mats])
    with dev.timed_region() as t:
        piv = irr_getrf(dev, b, **cfg)
    return t["elapsed"], b, piv, t["launch_count"]


def max_reconstruction_error(mats, b, piv):
    return max(np.abs(lu_reconstruct(b.arrays[i].data, piv.ipiv[i])
                      - m).max() / max(1.0, np.abs(m).max())
               for i, m in enumerate(mats))


def fastest(mats, grid):
    times = sorted((run(mats, **cfg)[0], i) for i, cfg in enumerate(grid))
    return grid[times[0][1]], grid[times[-1][1]], times


class TestAutotune:
    def test_returns_feasible_best(self, rng):
        # with panel="auto" every point of the grid is feasible: the
        # fused/column-wise panel choice self-selects per panel
        mats = random_square_batch(12, 64, seed=1)
        for cfg in GRID:
            _t, _b, piv, _n = run(mats, **cfg)
            assert all(i == 0 for i in piv.info), cfg

    def test_empty_batch(self):
        dev = Device(A100())
        piv = irr_getrf(dev, IrrBatch.from_host(dev, []))
        assert piv.ipiv == [] and len(piv.info) == 0
        assert dev.profiler.launch_count == 0

    def test_best_config_runs_on_full_batch(self, rng):
        mats = random_square_batch(60, 96, seed=2)
        best, _worst, _times = fastest(mats, GRID[::3])
        _t, b, piv, _n = run(mats, **best)
        assert all(i == 0 for i in piv.info)
        assert max_reconstruction_error(mats, b, piv) < 1e-11

    def test_tuning_matters(self, rng):
        # the grid's spread in simulated time is real
        mats = random_square_batch(30, 128, seed=3)
        _best, _worst, times = fastest(mats, GRID)
        assert times[-1][0] / times[0][0] > 1.2

    def test_large_matrices_prefer_wide_panels(self, rng):
        mats = large_square_batch(4, 768, seed=4)
        best, _worst, _times = fastest(mats, [{"nb": nb}
                                              for nb in (8, 16, 32, 64)])
        assert best["nb"] >= 16

    def test_custom_candidates(self, rng):
        # the panel width moves the launch count, not the answer
        mats = random_square_batch(10, 32, seed=5)
        _t8, b8, piv8, n8 = run(mats, nb=8)
        _t32, b32, piv32, n32 = run(mats, nb=32)
        assert n8 > n32
        for b, piv in ((b8, piv8), (b32, piv32)):
            assert max_reconstruction_error(mats, b, piv) < 1e-12

    def test_prediction_transfers_to_full_batch(self, rng):
        """A sub-batch with the batch's size distribution ranks the
        grid as the full batch does, at least best against worst."""
        mats = random_square_batch(80, 96, seed=6)
        pick = np.random.default_rng(1).choice(len(mats), 16, replace=False)
        best, worst, _times = fastest([mats[i] for i in pick], GRID)
        assert run(mats, **best)[0] < run(mats, **worst)[0]
