"""Tests for the distribution-aware auto-tuner (§VI)."""

import numpy as np
import pytest

from repro.batched import IrrBatch, autotune_getrf, irr_getrf
from repro.device import A100, Device
from repro.workloads import large_square_batch, random_square_batch


class TestAutotune:
    def test_returns_feasible_best(self, rng):
        mats = random_square_batch(40, 64, seed=1)
        res = autotune_getrf(A100(), mats, sample_size=10)
        assert res.best in [c for c, _ in res.trials]
        assert res.trials == sorted(res.trials, key=lambda kv: kv[1])

    def test_empty_batch(self):
        res = autotune_getrf(A100(), [])
        assert "nb" in res.best

    def test_best_config_runs_on_full_batch(self, rng):
        mats = random_square_batch(60, 96, seed=2)
        res = autotune_getrf(A100(), mats, sample_size=12)
        dev = Device(A100())
        b = IrrBatch.from_host(dev, [m.copy() for m in mats])
        piv = irr_getrf(dev, b, **res.best)
        assert all(i == 0 for i in piv.info)

    def test_tuning_matters(self, rng):
        # the candidate spread is real: worst/best > 1 on any batch
        mats = random_square_batch(30, 128, seed=3)
        res = autotune_getrf(A100(), mats, sample_size=10)
        assert res.speedup_over_worst() > 1.2

    def test_large_matrices_prefer_wide_panels(self, rng):
        mats = large_square_batch(4, 768, seed=4)
        res = autotune_getrf(A100(), mats, sample_size=4)
        assert res.best["nb"] >= 16

    def test_custom_candidates(self, rng):
        mats = random_square_batch(10, 32, seed=5)
        cands = [{"nb": 8}, {"nb": 32}]
        res = autotune_getrf(A100(), mats, candidates=cands)
        assert set(res.best) == {"nb"}
        assert len(res.trials) == 2

    def test_prediction_transfers_to_full_batch(self, rng):
        """The tuner's whole premise: the sampled winner is at least
        near-optimal on the full batch."""
        mats = random_square_batch(80, 96, seed=6)
        res = autotune_getrf(A100(), mats, sample_size=16, seed=1)

        def full_time(cfg):
            dev = Device(A100())
            b = IrrBatch.from_host(dev, [m.copy() for m in mats])
            with dev.timed_region() as t:
                irr_getrf(dev, b, **cfg)
            return t["elapsed"]

        t_best = full_time(res.best)
        t_worst = full_time(res.trials[-1][0])
        assert t_best < t_worst
