"""Additional coverage: device memory semantics and profiler accounting."""

import numpy as np
import pytest

from repro.device import A100, Device, DeviceOutOfMemory, FaultPlan, \
    FaultRule, KernelCost, pack_to_device
from repro.device.memory import total_nbytes

from .test_simulator import tiny_spec


class TestDeviceArraySemantics:
    def test_view_of_view_shares_base(self, a100):
        a = a100.zeros((16, 16))
        v1 = a[2:10, 2:10]
        v2 = v1[1:3, 1:3]
        v2.data[...] = 7.0
        assert np.all(a.data[3:5, 3:5] == 7.0)
        assert v2.base is a

    def test_free_is_idempotent(self, a100):
        a = a100.zeros((8, 8))
        a.free()
        a.free()  # second free must not double-release
        assert a100.allocated_bytes >= 0

    def test_dtype_allocations(self, a100):
        for dtype, itemsize in [(np.float32, 4), (np.float64, 8),
                                (np.complex128, 16)]:
            before = a100.allocated_bytes
            arr = a100.zeros((10, 10), dtype=dtype)
            assert a100.allocated_bytes - before == 100 * itemsize
            arr.free()

    def test_transfer_time_scales_with_bytes(self):
        dev1, dev2 = Device(A100()), Device(A100())
        dev1.from_host(np.zeros(10))
        dev2.from_host(np.zeros(10_000_000))
        assert dev2.profiler.transfer_time > dev1.profiler.transfer_time

    def test_total_nbytes_helper(self):
        assert total_nbytes([(2, 3), (4,)], np.float64) == 6 * 8 + 4 * 8

    def test_oom_message_mentions_device(self):
        dev = Device(tiny_spec(memory_capacity=100))
        with pytest.raises(DeviceOutOfMemory, match="tiny"):
            dev.zeros(1000)

    def test_pack_to_device_single_transfer(self):
        # packing N equal-shape blocks pays the PCIE latency once, a
        # per-block from_host loop pays it N times
        blocks = [np.full((4, 3), float(i)) for i in range(16)]
        packed_dev, loop_dev = Device(A100()), Device(A100())
        stack = pack_to_device(packed_dev, blocks)
        assert stack.shape == (16, 4, 3)
        for i, b in enumerate(blocks):
            np.testing.assert_array_equal(stack.data[i], b)
        for b in blocks:
            loop_dev.from_host(b)
        assert packed_dev.allocated_bytes == loop_dev.allocated_bytes
        assert packed_dev.profiler.transfer_time < \
            loop_dev.profiler.transfer_time

    def test_pack_to_device_empty_and_dtype(self):
        dev = Device(A100())
        t0 = dev.profiler.transfer_time
        empty = pack_to_device(dev, [])
        assert empty.data.size == 0
        assert dev.profiler.transfer_time == t0  # nothing crossed the bus
        stack = pack_to_device(dev, [np.ones((2, 2), dtype=np.float64)],
                               dtype=np.complex128)
        assert stack.dtype == np.complex128


    def test_pack_to_device_device_blocks_one_kernel(self, a100):
        # blocks already on the device: one copy kernel, no bus transfer;
        # nested lists give one stacked view per list, one allocation
        src = a100.from_host(np.arange(24.0).reshape(4, 6))
        t0, n0 = a100.profiler.transfer_count, a100.profiler.launch_count
        bytes0 = a100.allocated_bytes
        f11, f21 = pack_to_device(a100, [[src[:2, :2]],
                                         [src[2:, :2], src[2:, 2:4]]])
        assert a100.profiler.transfer_count == t0
        assert a100.profiler.launch_count == n0 + 1
        assert f11.shape == (1, 2, 2) and f21.shape == (2, 2, 2)
        assert f11.base is f21.base
        np.testing.assert_array_equal(f21.data[1], src.data[2:, 2:4])
        assert a100.allocated_bytes - bytes0 == 12 * 8
        f21.base.free()
        assert a100.allocated_bytes == bytes0
        with pytest.raises(ValueError, match="all-host or all-device"):
            pack_to_device(a100, [src[:2, :2], np.ones((2, 2))])
        with pytest.raises(ValueError, match="share a shape"):
            pack_to_device(a100, [src[:2, :2], src[:3, :2]])


    def test_pack_to_device_checksums_the_cast_bytes(self):
        # host blocks are cast to the allocation's dtype before the
        # checksum, so a verified pack of float64 blocks into float32
        # lands, and a corrupted landing is repaired to the cast bits
        blocks = [np.full((2, 3), 0.1 * i) for i in range(4)]
        dev = Device(A100())
        plan = FaultPlan([FaultRule("h2d", at=0)], seed=3)
        with dev.fault_scope(plan):
            stack = pack_to_device(dev, blocks, dtype=np.float32)
        assert dev.recovery_log.count("transfer-retry") == 1
        assert dev.profiler.transfer_count == 2       # one per attempt
        np.testing.assert_array_equal(
            stack.data, np.stack(blocks).astype(np.float32))


class TestUseAfterFree:
    """A freed allocation's bytes belong to nobody: reading or writing
    them through the array or any view of it raises, and no transfer
    is charged."""

    @pytest.mark.parametrize("via_view", [False, True])
    def test_transfers_on_freed_memory_raise(self, a100, via_view):
        arr = a100.from_host(np.arange(12.0).reshape(3, 4))
        target = arr[1:, :] if via_view else arr
        arr.free()
        n0 = a100.profiler.transfer_count
        with pytest.raises(RuntimeError, match="use after free"):
            target.to_host()
        with pytest.raises(RuntimeError, match="use after free"):
            target.copy_from_host(np.zeros(target.shape))
        assert a100.profiler.transfer_count == n0

    def test_live_view_of_live_owner_transfers(self, a100):
        arr = a100.from_host(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(arr[1:, 1:].to_host(),
                                      np.arange(12.0).reshape(3, 4)[1:, 1:])


class TestPartUploads:
    """``Device.from_host`` of a part list: one flat allocation, the
    parts back to back in it, one transfer."""

    def test_parts_land_back_to_back_in_one_transfer(self, a100):
        parts = [np.arange(6.0).reshape(2, 3), np.full((4, 1), 7.0),
                 np.zeros((0, 5)), np.ones(2)]
        flat = a100.from_host(parts)
        assert flat.shape == (12,)
        assert a100.profiler.transfer_count == 1
        np.testing.assert_array_equal(
            flat.data, np.concatenate([p.ravel() for p in parts]))
        assert a100.allocated_bytes == 12 * 8

    def test_copy_from_host_casts_before_the_checksum(self, a100):
        # a float32 host array into a float64 device array under
        # verification lands without a spurious checksum retry
        arr = a100.zeros((2, 2))
        host = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float32)
        with a100.fault_scope(FaultPlan([])):
            arr.copy_from_host(host)
        assert a100.recovery_log.count("transfer-retry") == 0
        np.testing.assert_array_equal(arr.data, host.astype(np.float64))


class TestProfilerAccounting:
    def test_snapshot_diff_isolates_region(self, a100):
        a100.launch("x", None, KernelCost(flops=1e6, blocks=4))
        a100.synchronize()
        snap = a100.profiler.snapshot()
        a100.launch("y", None, KernelCost(flops=1e6, blocks=4))
        a100.synchronize()
        after = a100.profiler.snapshot()
        assert after["launch_count"] - snap["launch_count"] == 1
        # every counter clear() resets is in the snapshot, so a timed
        # region reports the transfer count beside the transfer time
        with a100.timed_region() as region:
            a100.from_host(np.ones(8)).free()
            a100.profiler.note_stall(1e-6)
        assert region["transfer_count"] == 1
        assert region["transfer_time"] > 0
        assert region["stall_count"] == 1
        a100.profiler.clear()
        assert all(v == 0 for v in a100.profiler.snapshot().values())

    def test_clear_resets_everything(self, a100):
        a100.launch("x", None, KernelCost(flops=1e6, blocks=4))
        a100.synchronize()
        a100.profiler.clear()
        assert a100.profiler.launch_count == 0
        assert a100.profiler.total_kernel_time() == 0.0
        assert not a100.profiler.by_kernel()

    def test_mean_time(self, a100):
        for _ in range(4):
            a100.launch("k", None, KernelCost(flops=1e6, blocks=4))
        a100.synchronize()
        s = a100.profiler.by_kernel()["k"]
        assert s.mean_time == pytest.approx(s.total_time / 4)

    def test_kernel_record_durations_positive(self, a100):
        a100.launch("k", None, KernelCost(flops=1e6, blocks=4))
        a100.synchronize()
        assert all(r.duration > 0 for r in a100.profiler.records)


class TestPeakScaleRoofline:
    def test_fp32_kernel_faster(self):
        from repro.device import intrinsic_duration
        spec = A100()
        base = dict(flops=1e10, blocks=10000, kernel_class="gemm_irr")
        t64 = intrinsic_duration(KernelCost(peak_scale=1.0, **base), spec)
        t32 = intrinsic_duration(KernelCost(peak_scale=2.0, **base), spec)
        assert t32 < t64

    def test_complex_kernel_slower(self):
        from repro.device import intrinsic_duration
        spec = A100()
        base = dict(flops=1e10, blocks=10000, kernel_class="gemm_irr")
        t64 = intrinsic_duration(KernelCost(peak_scale=1.0, **base), spec)
        tc = intrinsic_duration(KernelCost(peak_scale=0.25, **base), spec)
        assert tc > 3 * t64
