"""Device memory: arrays that live on a simulated device.

A :class:`DeviceArray` is a thin wrapper around a NumPy array tagged with
the :class:`~repro.device.simulator.Device` that owns it.  Kernels perform
their numerics directly on the wrapped arrays (functional layer) while the
device accounts simulated time (timing layer).

Allocation is tracked against the device's memory capacity so that the
"as large as the GPU memory affords" boundary of irrLU-GPU is a real,
testable failure mode (:class:`DeviceOutOfMemory`).  Accounting is
exception-safe: capacity is claimed *before* host buffers are built and
released on any construction failure, so a failed allocation or transfer
never strands bytes in ``device.allocated_bytes``.

Transfers are optionally integrity-checked: with verification enabled
(``device.verify_transfers``, on by default inside a
``device.fault_scope``) every H2D/D2H copy checksums the payload,
retries up to :data:`MAX_TRANSFER_ATTEMPTS` times on mismatch (each
retry re-pays the bus after an exponential backoff with deterministic
seeded jitter — ``Device.transfer_backoff`` — and is recorded with its
backoff in ``device.recovery_log``), and raises a typed
:class:`~repro.errors.TransferError` when the corruption persists.

Accounting is also *thread-safe*: claim, release and the
:meth:`DeviceArray.free` ownership hand-off all synchronize on the
owning device's memory lock, so concurrent service workers can
allocate/free against one device without corrupting (or over-committing)
``device.allocated_bytes``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..errors import TransferError
from .kernel import KernelCost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node
    from .simulator import Device

__all__ = ["DeviceArray", "DeviceOutOfMemory", "pack_to_device",
           "validate_memory_budget", "MAX_TRANSFER_ATTEMPTS"]

#: Bounded retry budget for integrity-checked transfers: a transfer is
#: attempted at most this many times before a typed
#: :class:`~repro.errors.TransferError` is raised.
MAX_TRANSFER_ATTEMPTS = 4


class DeviceOutOfMemory(MemoryError):
    """Raised when an allocation would exceed the device memory capacity."""


def validate_memory_budget(memory_budget, *,
                           name: str = "memory_budget") -> int | None:
    """Validate a device memory budget; one message for every call site.

    ``None`` means "no budget" and passes through.  Anything else must
    be a positive integer number of bytes — zero, negative, boolean and
    fractional budgets all raise the same :class:`ValueError`, instead
    of each consumer (out-of-core planner, factor cache, solver) failing
    in its own divergent way downstream.
    """
    if memory_budget is None:
        return None
    if isinstance(memory_budget, bool) or \
            not isinstance(memory_budget, (int, np.integer)):
        raise ValueError(
            f"{name} must be None or a positive integer number of bytes, "
            f"got {memory_budget!r}")
    if memory_budget <= 0:
        raise ValueError(
            f"{name} must be None or a positive integer number of bytes, "
            f"got {memory_budget!r}")
    return int(memory_budget)


def _digest(*arrays: np.ndarray) -> bytes:
    """Payload checksum: an order-exact digest of the arrays' C-order
    bytes laid back to back, built without joining them."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _land(dest: np.ndarray, parts: list[np.ndarray]) -> None:
    """Copy host ``parts`` into ``dest``: one part of ``dest``'s shape
    straight in, else back to back in the flat (C-contiguous) ``dest``."""
    if len(parts) == 1 and parts[0].shape == dest.shape:
        dest[...] = parts[0]
        return
    flat, off = dest.reshape(-1), 0
    for p in parts:
        flat[off:off + p.size].reshape(p.shape)[...] = p
        off += p.size


def _transfer_h2d(device: "Device", dest: np.ndarray, src, *,
                  verify: bool, site: str) -> None:
    """Copy host ``src`` into device-resident ``dest`` with bounded retries.

    ``src`` is one array of ``dest``'s shape or a list of arrays that
    land back to back in the C-contiguous ``dest``, each copied straight
    into its slice.  Parts are cast to ``dest``'s dtype first, so the
    checksum covers the bytes that land.  Each attempt is one transfer:
    it pays the bus (latency + bandwidth) once for every part, and an
    installed fault injector may corrupt the landed payload, which
    verification detects and repairs by re-transferring.
    """
    parts = [np.asarray(p, dtype=dest.dtype)
             for p in (src if isinstance(src, (list, tuple)) else [src])]
    nbytes = sum(p.nbytes for p in parts)
    want = _digest(*parts) if verify else None
    for attempt in range(1, MAX_TRANSFER_ATTEMPTS + 1):
        device._account_transfer(nbytes)
        _land(dest, parts)
        if device._injector is not None and dest.size:
            device._injector.on_transfer("h2d", dest, site)
        if not verify or _digest(dest) == want:
            return
        if attempt >= MAX_TRANSFER_ATTEMPTS:
            raise TransferError(site, "h2d", attempt)
        backoff = device.transfer_backoff(attempt, site)
        device.recovery_log.record(
            "transfer-retry", site=site, attempt=attempt,
            detail=f"h2d corrupted; backoff {backoff * 1e6:.1f}us")


def _transfer_d2h(device: "Device", src: np.ndarray, *,
                  verify: bool, site: str) -> np.ndarray:
    """Copy device-resident ``src`` to a new host array, with retries."""
    want = _digest(src) if verify else None
    for attempt in range(1, MAX_TRANSFER_ATTEMPTS + 1):
        device._account_transfer(src.nbytes)
        out = np.array(src, copy=True)
        if device._injector is not None and out.size:
            device._injector.on_transfer("d2h", out, site)
        if not verify or _digest(out) == want:
            return out
        if attempt >= MAX_TRANSFER_ATTEMPTS:
            raise TransferError(site, "d2h", attempt)
        backoff = device.transfer_backoff(attempt, site)
        device.recovery_log.record(
            "transfer-retry", site=site, attempt=attempt,
            detail=f"d2h corrupted; backoff {backoff * 1e6:.1f}us")
    raise AssertionError("unreachable")  # pragma: no cover


class DeviceArray:
    """An array resident in (simulated) device global memory.

    Supports the small surface the kernels need: shape/dtype inspection,
    slicing into *views* (views share the parent's allocation and are not
    charged again), and explicit round-trips to the host.  All arithmetic
    happens inside kernels via the ``.data`` NumPy array.

    Also a context manager: ``with device.empty(...) as scratch: ...``
    frees the allocation on exit.  :meth:`free` is idempotent and safe
    on views (a view never owns bytes, so freeing it is a no-op).
    """

    __slots__ = ("device", "data", "nbytes_owned", "_base")

    def __init__(self, device: "Device", data: np.ndarray,
                 base: "DeviceArray | None" = None):
        self.device = device
        self.data = data
        self._base = base
        self.nbytes_owned = 0 if base is not None else data.nbytes

    # -- construction -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def base(self) -> "DeviceArray | None":
        return self._base

    @property
    def freed(self) -> bool:
        """True once this (owning) array released its allocation."""
        return self._base is None and self.nbytes_owned == 0 \
            and self.data.nbytes > 0

    def view(self, key) -> "DeviceArray":
        """Return a sub-array view sharing this allocation (no copy)."""
        sub = self.data[key]
        if sub.base is None and sub.size and sub is not self.data:
            raise ValueError("view() produced a copy; use fancy-free slicing")
        return DeviceArray(self.device, sub, base=self._base or self)

    def __getitem__(self, key) -> "DeviceArray":
        return self.view(key)

    # -- host transfers ---------------------------------------------------
    def _live_data(self) -> np.ndarray:
        """Return ``data``; raise :class:`RuntimeError` once the
        allocation it lives in was freed (its bytes belong to nobody)."""
        if (self._base or self).freed:
            raise RuntimeError(f"use after free: {self!r} lives in a "
                               f"released device allocation")
        return self.data

    def to_host(self, *, verify: bool | None = None) -> np.ndarray:
        """Copy to host (D2H); charges transfer time on the device clock.

        ``verify=None`` follows ``device.verify_transfers``; ``True``
        forces checksummed transfer with bounded retries.
        """
        if verify is None:
            verify = self.device.verify_transfers
        return _transfer_d2h(self.device, self._live_data(), verify=verify,
                             site="to_host")

    def copy_from_host(self, host, *,
                       verify: bool | None = None) -> "DeviceArray":
        """Copy host data into this array (H2D), optionally checksummed.

        ``host`` is one array of this array's shape, or a list of host
        arrays that land back to back in this (C-contiguous) array in
        ONE transfer, each copied straight into its slice.
        """
        dest = self._live_data()
        if isinstance(host, (list, tuple)):
            host = [np.asarray(h) for h in host]
            size = sum(h.size for h in host)
            if size != dest.size or not dest.flags.c_contiguous:
                raise ValueError(
                    f"parts of {size} elements do not fill a contiguous "
                    f"device array of shape {dest.shape}")
        else:
            host = np.asarray(host)
            if host.shape != dest.shape:
                raise ValueError(f"shape mismatch: device {dest.shape} "
                                 f"vs host {host.shape}")
        if verify is None:
            verify = self.device.verify_transfers
        _transfer_h2d(self.device, dest, host, verify=verify,
                      site="copy_from_host")
        return self

    def free(self) -> None:
        """Release this allocation back to the device (idempotent).

        Safe under concurrent callers: the owned-byte count is claimed
        and zeroed under the device's memory lock, so two racing
        ``free()`` calls release exactly once (the lock is re-entrant,
        so the nested ``_release`` does not deadlock).
        """
        if self._base is not None:
            return
        with self.device._mem_lock:
            owned, self.nbytes_owned = self.nbytes_owned, 0
            if owned:
                self.device._release(owned)

    # -- scoped lifetime --------------------------------------------------
    def __enter__(self) -> "DeviceArray":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeviceArray(device={self.device.spec.name!r}, "
                f"shape={self.data.shape}, dtype={self.data.dtype})")


def pack_to_device(device: "Device", blocks: Sequence, dtype=None, *,
                   node: "Node | None" = None
                   ) -> "DeviceArray | list[DeviceArray]":
    """Stack blocks into ONE device allocation with ONE copy per source.

    ``blocks`` is a sequence of equal-shape blocks, returned as one
    ``(len(blocks), *block_shape)`` :class:`DeviceArray`; or a list of
    such lists, returned as a list of stacked views (one per inner
    list) into one allocation, each view's ``base`` owning it.

    Host blocks are uploaded in one H2D transfer, each copied straight
    into its slice of the allocation (no host staging copy): a
    per-block ``from_host`` loop would charge the PCIE latency once per
    block, one transfer pays it once.  Blocks already on
    ``device`` (:class:`DeviceArray` views) are copied by one device
    kernel, ``solve:pack``, and nothing crosses the bus.  With
    ``node`` (a :class:`~repro.device.node.Node` that ``device``
    belongs to), blocks may also live on the node's other members:
    each member's blocks move by one peer copy, charged on the node's
    link on both clocks (:meth:`~repro.device.node.Node.transfer`),
    and land in their slices.  Empty or zero-sized blocks allocate
    without any transfer or launch.

    Capacity is claimed *before* the stack is built and released if
    stacking, the transfer or the copy kernel fails, so a failed pack
    leaves ``device.allocated_bytes`` untouched.
    """
    nested = bool(blocks) and isinstance(blocks[0], (list, tuple))
    stacks = [list(st) for st in blocks] if nested else [list(blocks)]
    flat = [b for st in stacks for b in st]
    on_device = [isinstance(b, DeviceArray) for b in flat]
    if any(on_device) and not all(on_device):
        raise ValueError("pack_to_device needs all-host or all-device "
                         "blocks")
    on_device = any(on_device)
    sources = [device] if node is None else list(node)
    if all(src is not device for src in sources):
        raise ValueError("pack_to_device: the device is not a member of "
                         "the node")
    if on_device and any(all(b.device is not src for src in sources)
                         for b in flat):
        raise ValueError("pack_to_device: a block lives on another device")
    data = [b.data if on_device else np.asarray(b) for b in flat]
    if dtype is not None:
        dt = np.dtype(dtype)
    elif data:
        dt = np.result_type(*(d.dtype for d in data))
    else:
        dt = np.dtype(np.float64)
    shapes, at = [], 0
    for st in stacks:
        part = data[at:at + len(st)]
        if any(d.shape != part[0].shape for d in part):
            raise ValueError("pack_to_device: the blocks of one stack "
                             "must share a shape")
        shapes.append((len(part),) + part[0].shape if part else (0, 0, 0))
        at += len(part)
    sizes = [int(np.prod(shape, dtype=np.int64)) for shape in shapes]
    nbytes = sum(sizes) * dt.itemsize
    device._claim(nbytes, site="pack_to_device")
    try:
        buf = np.empty(sum(sizes), dtype=dt)
        if on_device and nbytes:
            _copy_device_blocks(device, buf, flat, node)
        elif nbytes:
            _transfer_h2d(device, buf, data,
                          verify=device.verify_transfers,
                          site="pack_to_device")
    except BaseException:
        device._release(nbytes)
        raise
    if not nested:
        return DeviceArray(device, buf.reshape(shapes[0]))
    owner = DeviceArray(device, buf)
    views, off = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(DeviceArray(device, buf[off:off + size].reshape(shape),
                                 base=owner))
        off += size
    return views


def _copy_device_blocks(device: "Device", buf: np.ndarray,
                        blocks: list[DeviceArray], node) -> None:
    """Land device-resident ``blocks`` back to back in ``device``'s flat
    ``buf``: the blocks on ``device`` by one ``solve:pack`` kernel, each
    other ``node`` member's by one peer copy over the node's link."""
    ends = np.cumsum([b.data.size for b in blocks])
    for src in [device] + [m for m in (node or ()) if m is not device]:
        mine = [i for i, b in enumerate(blocks) if b.device is src]
        size = sum(blocks[i].data.size for i in mine)
        if not size:
            continue

        def land(mine=mine) -> None:
            for i in mine:
                d = blocks[i].data
                buf[ends[i] - d.size:ends[i]].reshape(d.shape)[...] = d

        if src is not device:
            node.transfer(node.index_of(src), node.index_of(device),
                          size * buf.itemsize)
            land()
            continue

        def kernel(land=land, size=size) -> KernelCost:
            land()
            # a streaming copy, one thread per element
            nbytes = size * buf.itemsize
            return KernelCost(bytes_read=nbytes, bytes_written=nbytes,
                              blocks=-(-size // 256), threads_per_block=256,
                              kernel_class="swap")

        device.launch("solve:pack", kernel)


def total_nbytes(shapes: Iterable[Sequence[int]], dtype) -> int:
    """Total bytes needed for a collection of array shapes."""
    itemsize = np.dtype(dtype).itemsize
    total = 0
    for shape in shapes:
        n = 1
        for s in shape:
            n *= int(s)
        total += n * itemsize
    return total
