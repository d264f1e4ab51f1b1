"""Tests for the multi-device :class:`Node` and its modeled links."""

import numpy as np
import pytest

from repro.device import A100, Device, Link, NVLINK, Node, PCIE_STAGING
from repro.device.memory import pack_to_device

pytestmark = pytest.mark.multidev


class TestLink:
    def test_seconds_is_latency_plus_bandwidth_term(self):
        link = Link(bandwidth=1e9, latency=1e-6)
        assert link.seconds(0) == pytest.approx(1e-6)
        assert link.seconds(10**9) == pytest.approx(1.0 + 1e-6)

    def test_defaults_are_sane(self):
        assert NVLINK.bandwidth > PCIE_STAGING.bandwidth
        assert NVLINK.latency < PCIE_STAGING.latency

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            Link(bandwidth=bandwidth, latency=1e-6)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Link(bandwidth=1e9, latency=-1e-9)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="transfer"):
            Link(bandwidth=1e9, latency=0.0).seconds(-1)


class TestNodeContainer:
    def test_members_are_independent_devices(self):
        node = Node(A100(), 3)
        assert len(node) == 3
        assert len({id(d) for d in node}) == 3
        for i, dev in enumerate(node):
            assert isinstance(dev, Device)
            assert node[i] is dev
            assert node.index_of(dev) == i

    def test_index_of_rejects_foreign_device(self):
        node = Node(A100(), 2)
        with pytest.raises(ValueError, match="not a member"):
            node.index_of(Device(A100()))

    def test_rejects_empty_node(self):
        with pytest.raises(ValueError, match="at least one device"):
            Node(A100(), 0)


class TestTransfer:
    def test_same_device_transfer_is_free(self):
        node = Node(A100(), 2)
        assert node.transfer(0, 0, 1 << 20) == 0.0
        assert node.p2p_bytes == 0
        assert node.link_bytes == [0, 0]

    def test_p2p_cost_and_counters(self):
        node = Node(A100(), 2)
        nbytes = 1 << 20
        seconds = node.transfer(0, 1, nbytes)
        assert seconds == pytest.approx(NVLINK.seconds(nbytes))
        assert node.p2p_bytes == nbytes
        assert node.staged_bytes == 0
        assert node.link_bytes == [nbytes, nbytes]

    def test_no_p2p_pays_two_staged_hops(self):
        nbytes = 1 << 20
        direct = Node(A100(), 2)
        staged = Node(A100(), 2, p2p_link=None)
        assert staged.transfer(0, 1, nbytes) == pytest.approx(
            2 * PCIE_STAGING.seconds(nbytes))
        assert staged.transfer(0, 1, nbytes) > direct.transfer(0, 1, nbytes)
        assert staged.p2p_bytes == 0
        assert staged.staged_bytes == 2 * nbytes

    def test_rendezvous_starts_at_later_endpoint(self):
        node = Node(A100(), 2)
        node[0].host_compute(1.0)     # sender is busy until t=1
        seconds = node.transfer(0, 1, 1 << 10)
        # receiver cannot consume bytes the sender has not produced
        assert node[1].host_time == pytest.approx(1.0 + seconds)
        assert node[0].host_time == pytest.approx(node[1].host_time)

    def test_transfer_shows_up_in_both_profilers(self):
        node = Node(A100(), 2)
        t0 = node[0].profiler.transfer_time
        t1 = node[1].profiler.transfer_time
        seconds = node.transfer(0, 1, 1 << 20)
        assert node[0].profiler.transfer_time == pytest.approx(
            t0 + seconds)
        assert node[1].profiler.transfer_time == pytest.approx(
            t1 + seconds)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="transfer"):
            Node(A100(), 2).transfer(0, 1, -4)


class TestPeerPack:
    """``pack_to_device(..., node=)``: the peer copy that moves data."""

    def test_blocks_from_every_member_land_bitwise(self, rng):
        node = Node(A100(), 3)
        host = [rng.standard_normal((4, 3)) for _ in range(5)]
        blocks = [node[i % 3].from_host(h) for i, h in enumerate(host)]
        launches = node[0].profiler.launch_count
        copies = [d.profiler.transfer_count for d in node]
        out = pack_to_device(node[0], [[b] for b in blocks], node=node)
        assert all(np.array_equal(o.data[0], h) for o, h in zip(out, host))
        # node[0]'s own blocks by one kernel, each peer's by one copy
        assert node[0].profiler.launch_count == launches + 1
        assert [d.profiler.transfer_count - c
                for d, c in zip(node, copies)] == [2, 1, 1]
        from_peer = [sum(h.nbytes for i, h in enumerate(host) if i % 3 == d)
                     for d in (1, 2)]
        assert node.p2p_bytes == sum(from_peer)
        assert node.link_bytes == [sum(from_peer), *from_peer]
        out[0].base.free()
        for b in blocks:
            b.free()
        assert node.allocated_bytes == 0

    def test_rejects_blocks_or_a_device_outside_the_node(self):
        node = Node(A100(), 2)
        other = Device(A100())
        with other.from_host(np.ones((2, 2))) as blk:
            with pytest.raises(ValueError, match="another device"):
                pack_to_device(node[0], [blk], node=node)
            with pytest.raises(ValueError, match="not a member"):
                pack_to_device(other, [blk], node=node)
        assert node.allocated_bytes == other.allocated_bytes == 0


class TestAggregates:
    def test_makespan_and_synchronize(self):
        node = Node(A100(), 3)
        node[1].host_compute(2.0)
        assert node.makespan == pytest.approx(2.0)
        assert node.synchronize() == pytest.approx(2.0)

    def test_allocated_bytes_sums_members(self):
        node = Node(A100(), 2)
        buf = node[1].from_host(np.zeros(1024))
        assert node.allocated_bytes == node[1].allocated_bytes > 0
        buf.free()
        assert node.allocated_bytes == 0

    def test_reset_clears_clocks_and_link_counters(self):
        node = Node(A100(), 2)
        node[0].host_compute(1.0)
        node.transfer(0, 1, 1 << 20)
        node.reset()
        assert node.makespan == 0.0
        assert node.p2p_bytes == 0
        assert node.staged_bytes == 0
        assert node.link_bytes == [0, 0]
