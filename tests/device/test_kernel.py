"""Tests for kernel cost descriptors and the roofline timing model."""

import numpy as np
import pytest

from repro.device import A100, MI100, KernelCost, gemm_compute_ramp, \
    intrinsic_duration, sm_demand, tile_blocks


class TestSmDemand:
    def test_single_block_uses_one_sm(self):
        assert sm_demand(KernelCost(blocks=1), A100()) == 1

    def test_many_blocks_capped_at_device(self):
        spec = A100()
        cost = KernelCost(blocks=100000)
        assert sm_demand(cost, spec) == spec.n_sm

    def test_shared_memory_reduces_occupancy_raises_demand(self):
        spec = A100()
        light = KernelCost(blocks=64, shared_mem_per_block=0)
        heavy = KernelCost(blocks=64,
                           shared_mem_per_block=spec.shared_mem_per_sm // 2)
        assert sm_demand(heavy, spec) > sm_demand(light, spec)

    def test_demand_at_least_one(self):
        assert sm_demand(KernelCost(blocks=0), A100()) == 1


class TestIntrinsicDuration:
    def test_includes_device_launch_overhead(self):
        spec = A100()
        t = intrinsic_duration(KernelCost(), spec)
        assert t >= spec.launch_overhead_device

    def test_compute_bound_scaling(self):
        spec = A100()
        t1 = intrinsic_duration(
            KernelCost(flops=1e9, blocks=10000, kernel_class="gemm_irr"), spec)
        t2 = intrinsic_duration(
            KernelCost(flops=2e9, blocks=10000, kernel_class="gemm_irr"), spec)
        overhead = spec.launch_overhead_device
        assert (t2 - overhead) == pytest.approx(2 * (t1 - overhead), rel=1e-9)

    def test_memory_bound_kernel_uses_bandwidth(self):
        spec = A100()
        nbytes = 1e9
        t = intrinsic_duration(
            KernelCost(bytes_read=nbytes, blocks=10000, kernel_class="swap"),
            spec)
        floor = nbytes / spec.mem_bandwidth
        assert t > floor  # efficiency < 1 means slower than raw peak

    def test_single_block_kernel_much_slower_than_wide_kernel(self):
        # The streamed-cuSOLVER effect: a one-matrix kernel occupies one
        # SM and runs at ~1/108th of device throughput.
        spec = A100()
        flops = 1e8
        narrow = intrinsic_duration(KernelCost(flops=flops, blocks=1), spec)
        wide = intrinsic_duration(KernelCost(flops=flops, blocks=1000), spec)
        assert narrow > 20 * wide

    def test_lower_efficiency_class_is_slower(self):
        spec = A100()
        base = dict(flops=1e9, blocks=1000)
        fast = intrinsic_duration(
            KernelCost(kernel_class="gemm_vendor", **base), spec)
        slow = intrinsic_duration(
            KernelCost(kernel_class="gemm_irr", **base), spec)
        assert slow > fast

    def test_compute_ramp_slows_small_kernels(self):
        spec = MI100()
        base = dict(flops=1e9, blocks=1000, kernel_class="gemm_irr")
        full = intrinsic_duration(KernelCost(compute_ramp=1.0, **base), spec)
        small = intrinsic_duration(KernelCost(compute_ramp=0.2, **base), spec)
        assert small > full


class TestGemmComputeRamp:
    def test_ramp_monotone(self):
        vals = [gemm_compute_ramp(s, s, s) for s in (1, 8, 64, 512)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ramp_bounded(self):
        assert 0 < gemm_compute_ramp(1, 1, 1) < 1
        assert gemm_compute_ramp(1e9, 1e9, 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_ramp_uses_smallest_dimension(self):
        assert gemm_compute_ramp(1000, 1000, 4) == gemm_compute_ramp(4, 4, 4)


class TestTileBlocks:
    @pytest.mark.parametrize("rows,cols,blocks", [
        (0, 0, 0), (0, 40, 0), (1, 1, 1), (32, 32, 1), (33, 32, 2),
        (33, 33, 4), (1, 33, 2), (299, 299, 100)])
    def test_scalar(self, rows, cols, blocks):
        assert tile_blocks(rows, cols) == blocks
        assert tile_blocks(np.int64(rows), np.int64(cols)) == blocks

    def test_arrays_sum_per_matrix_tiles(self):
        rows = np.array([0, 1, 32, 33, 64])
        cols = np.array([7, 1, 32, 33, 1])
        assert tile_blocks(rows, cols) == 0 + 1 + 1 + 4 + 2
        assert tile_blocks(list(rows), list(cols)) == 8
        assert tile_blocks(rows, 33) == 2 * (0 + 1 + 1 + 2 + 2)

    def test_empty_batch_has_no_tiles(self):
        assert tile_blocks(np.empty(0, np.int64), np.empty(0, np.int64)) == 0

    def test_never_negative(self):
        # ceil-div spelled -(-n // 32) ** 2 squares before negating
        n = np.arange(0, 200)
        assert tile_blocks(n, n) == int(np.sum(np.ceil(n / 32) ** 2))
