"""Multi-device node: N simulated GPUs plus a modeled interconnect.

The paper's distributed design (§III-A) assigns rank-local subtrees to
"a single MPI rank and corresponding GPU"; a :class:`Node` is the
single-machine analogue — several :class:`~repro.device.simulator.Device`
instances that advance *independent* simulated timelines (subtree work
on different devices overlaps, exactly like concurrent MPI ranks) and
exchange data over :class:`Link` objects that cost simulated time the
same way the PCIe H2D/D2H model does (``latency + nbytes/bandwidth``,
see ``Device._account_transfer``).

Two link classes model the two physical paths of a real node:

* ``p2p_link`` — direct device↔device copies (NVLink-class by default);
* :data:`PCIE_STAGING` — device↔host staging, the single-device
  H2D/D2H model.  When a node is built without peer-to-peer capability
  (``p2p_link=None``), a device-to-device transfer pays **two** staged
  hops (D2H then H2D), which is what ``cudaMemcpyPeer`` degenerates to
  without GPUDirect.

A transfer is a rendezvous: it starts when *both* endpoints reach it
(``max`` of the two host clocks) and both clocks advance to its end —
the receiving device cannot consume bytes the sender has not produced.
Per-device link-byte counters feed the serving stats.

:meth:`Node.transfer` charges time only and moves no numbers.  A peer
copy that moves them is :func:`~repro.device.memory.pack_to_device`
with ``node=``: it lands the blocks of each member in one allocation on
the destination and charges each source's bytes here, so a copy never
changes the numbers it carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simulator import _PCIE_BANDWIDTH, _PCIE_LATENCY, Device
from .spec import DeviceSpec

__all__ = ["Link", "Node", "NVLINK", "PCIE_STAGING"]


@dataclass(frozen=True)
class Link:
    """A modeled interconnect: fixed latency plus a bandwidth term.

    ``seconds(nbytes)`` mirrors the device's PCIe transfer model
    (``_account_transfer``): every message pays ``latency`` once plus
    ``nbytes / bandwidth``.
    """

    bandwidth: float            #: bytes / second
    latency: float              #: seconds per message

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def seconds(self, nbytes: int) -> float:
        """Simulated time one message of ``nbytes`` occupies the link."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer {nbytes} bytes")
        return self.latency + nbytes / self.bandwidth


#: NVLink-class device↔device path (per-direction, third-generation-ish).
NVLINK = Link(bandwidth=50e9, latency=2e-6)

#: PCIe-class device↔host staging path — the same constants the
#: single-device H2D/D2H model charges.
PCIE_STAGING = Link(bandwidth=_PCIE_BANDWIDTH, latency=_PCIE_LATENCY)


class Node:
    """``n_devices`` simulated GPUs with a modeled interconnect.

    Each device is an ordinary :class:`Device` (own memory arena,
    streams, clocks, recovery log); the node adds the cross-device data
    paths and aggregate accounting.  Like the device itself, the node's
    *launch* surface is single-owner — one thread drives transfers and
    kernel work at a time — while each device's memory accounting stays
    thread-safe.

    Parameters
    ----------
    spec:
        The :class:`DeviceSpec` every member device is built from
        (homogeneous nodes only — heterogeneous numerics would break
        the bitwise-parity contract for no modeling gain).
    n_devices:
        Number of member devices (>= 1).
    p2p_link:
        Device↔device link (:data:`NVLINK` by default).  Pass ``None``
        for a node without peer-to-peer: device-to-device transfers
        then pay two :data:`PCIE_STAGING` hops.
    """

    def __init__(self, spec: DeviceSpec, n_devices: int, *,
                 p2p_link: Link | None = NVLINK):
        if n_devices < 1:
            raise ValueError(f"need at least one device, got {n_devices}")
        self.spec = spec
        self.devices = [Device(spec) for _ in range(n_devices)]
        self.p2p_link = p2p_link
        #: bytes shipped over the p2p link / via host staging (totals).
        self.p2p_bytes = 0
        self.staged_bytes = 0
        #: per-device bytes that crossed a link at this endpoint.
        self.link_bytes = [0] * n_devices

    # ------------------------------------------------------------------
    # container surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, idx: int) -> Device:
        return self.devices[idx]

    def __iter__(self):
        return iter(self.devices)

    def index_of(self, device: Device) -> int:
        """Index of a member device (identity, not equality)."""
        for i, d in enumerate(self.devices):
            if d is device:
                return i
        raise ValueError(f"{device!r} is not a member of this node")

    # ------------------------------------------------------------------
    # the interconnect
    # ------------------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int) -> float:
        """Ship ``nbytes`` from device ``src`` to device ``dst``.

        Rendezvous semantics: the copy starts once both endpoints reach
        it (``max`` of their host clocks) and both clocks advance to
        its completion.  Uses the p2p link when the node has one,
        otherwise two staged hops through host memory.  A same-device
        "transfer" is free (the data is already there).  Returns the
        simulated seconds the copy occupied.  Timing only: the numbers
        move with ``pack_to_device(..., node=)``, which calls this.
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer {nbytes} bytes")
        s, d = self.devices[src], self.devices[dst]
        if s is d:
            return 0.0
        if self.p2p_link is not None:
            seconds = self.p2p_link.seconds(nbytes)
            self.p2p_bytes += nbytes
        else:
            # no peer access: D2H on the source, H2D on the destination
            seconds = 2 * PCIE_STAGING.seconds(nbytes)
            self.staged_bytes += nbytes
        start = max(s.host_time, d.host_time)
        end = start + seconds
        s.host_time = end
        d.host_time = end
        s.profiler.note_transfer(seconds)
        d.profiler.note_transfer(seconds)
        self.link_bytes[src] += nbytes
        self.link_bytes[dst] += nbytes
        return seconds

    # ------------------------------------------------------------------
    # aggregate surface
    # ------------------------------------------------------------------
    def synchronize(self) -> float:
        """Synchronize every member device; returns the node makespan
        (the latest host clock — when the whole node is idle)."""
        return max(dev.synchronize() for dev in self.devices)

    @property
    def makespan(self) -> float:
        """Latest member host clock (without forcing a synchronize)."""
        return max(dev.host_time for dev in self.devices)

    @property
    def allocated_bytes(self) -> int:
        """Sum of member devices' live allocations."""
        return sum(dev.allocated_bytes for dev in self.devices)

    def reset(self) -> None:
        """Reset every member's clocks/trace and the link counters
        (allocations are kept, as in :meth:`Device.reset`)."""
        for dev in self.devices:
            dev.reset()
        self.p2p_bytes = 0
        self.staged_bytes = 0
        self.link_bytes = [0] * len(self.devices)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Node({self.spec.name!r} x{len(self.devices)}, "
                f"makespan={self.makespan:.6f})")
