"""The simulated device: eager numerics, discrete-event timing.

Execution model
---------------
*Functional layer.*  ``Device.launch(name, fn, cost, stream=...)`` runs
``fn()`` immediately — kernels are ordinary Python callables operating on
:class:`~repro.device.memory.DeviceArray` data, so every numerical result
is real.  Callers must keep data-dependent kernels on one stream (FIFO
semantics); the eager execution order then coincides with a legal device
schedule.

*Timing layer.*  Each launch appends a :class:`LaunchRecord` carrying its
host issue time (the host clock advances by ``launch_overhead_host`` per
launch, which serializes multi-stream submission) and roofline cost.
``Device.synchronize()`` resolves all pending records with a discrete-event
simulation:

- a kernel becomes *ready* at ``max(host_issue, predecessor-in-stream end)``;
- co-resident kernels share the SMs — when the total SM demand exceeds the
  device, every active kernel's progress rate scales by
  ``n_sm / total_demand``;
- completion re-enables the next kernel in the same stream.

The host then waits for the makespan (recorded as synchronize wait — the
``cudaStreamSynchronize`` counter of Table I).
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..recovery import RecoveryLog
from .kernel import KernelCost, LaunchRecord, intrinsic_duration, sm_demand
from .memory import DeviceArray, DeviceOutOfMemory
from .profiler import Profiler
from .spec import DeviceSpec
from .stream import Stream

__all__ = ["Device"]

_PCIE_BANDWIDTH = 25e9      # bytes/s
_PCIE_LATENCY = 10e-6       # seconds per transfer

# Transfer-retry backoff ladder: delay before the (n+1)-th attempt is
# _BACKOFF_BASE * _BACKOFF_FACTOR**(n-1), plus up to _BACKOFF_JITTER of
# itself in deterministic seeded jitter (see Device.transfer_backoff).
_BACKOFF_BASE = 50e-6       # seconds before the 2nd attempt
_BACKOFF_FACTOR = 4.0
_BACKOFF_JITTER = 0.25


class Device:
    """A simulated GPU: memory arena, streams, launch trace, clocks.

    Thread-safety contract: memory accounting (``_claim``/``_release``,
    and therefore ``empty``/``zeros``/``from_host``/``free``) and the
    recovery log are safe to use from concurrent threads.  Kernel
    *launches*, stream bookkeeping and the host/device clocks are
    **single-owner**: exactly one thread may drive them at a time (the
    serving layer in :mod:`repro.serve` enforces this by funnelling all
    device work through one dispatcher thread).
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.profiler = Profiler()
        self.host_time = 0.0
        self.device_time = 0.0            # makespan of resolved kernels
        self.allocated_bytes = 0
        self.peak_allocated_bytes = 0
        #: monotone count of successful capacity claims — tests check
        #: that repeated runs make the same allocations by differencing
        #: this counter.
        self.alloc_count = 0
        # Guards the capacity check-and-claim and the release so
        # concurrent workers can never over-commit the device or corrupt
        # the byte counters (re-entrant: DeviceArray.free() holds it
        # while delegating to _release).
        self._mem_lock = threading.RLock()
        self.recovery_log = RecoveryLog()
        self.verify_transfers = False
        self.verify_kernels = False
        self._injector = None             # installed by fault_scope()
        self._streams: dict[int, Stream] = {0: Stream(0)}
        self._seq = 0
        self._pending: list[LaunchRecord] = []

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    @contextmanager
    def fault_scope(self, plan, *, verify_transfers: bool = True,
                    verify_kernels: bool | None = None):
        """Install a seeded fault schedule for the duration of a block.

        ``plan`` is a :class:`~repro.device.faults.FaultPlan` (or an
        already-constructed :class:`~repro.device.faults.FaultInjector`
        to share counters across scopes).  While installed, the device
        consults the injector at every allocation, transfer, launch and
        registered kernel output; transfer verification is switched on
        by default so injected corruption is detected rather than
        silently consumed (pass ``verify_transfers=False`` to test the
        unprotected path).  ABFT kernel verification
        (``verify_kernels``) defaults to *automatic*: it switches on
        exactly when the plan carries ``corrupt`` rules, so fault plans
        without output corruption keep every existing code path
        byte-for-byte identical; pass ``True``/``False`` to force it.
        Yields the injector; the previous injector/verification state is
        restored on exit.
        """
        from .faults import FaultInjector
        inj = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
        prev_inj, prev_verify = self._injector, self.verify_transfers
        prev_vk = self.verify_kernels
        if verify_kernels is None:
            verify_kernels = inj.has_corrupt_rules
        self._injector = inj
        self.verify_transfers = bool(verify_transfers) or prev_verify
        self.verify_kernels = bool(verify_kernels) or prev_vk
        try:
            yield inj
        finally:
            self._injector = prev_inj
            self.verify_transfers = prev_verify
            self.verify_kernels = prev_vk

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def empty(self, shape, dtype=np.float64) -> DeviceArray:
        """Allocate an uninitialized array in device memory.

        Capacity is claimed before the host-side buffer is built and
        released if construction fails, so failures never leak
        accounting.
        """
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize \
            if np.ndim(shape) else int(shape) * dt.itemsize
        self._claim(nbytes, site="empty")
        try:
            arr = np.empty(shape, dtype=dt)
        except BaseException:
            self._release(nbytes)
            raise
        return DeviceArray(self, arr)

    def zeros(self, shape, dtype=np.float64) -> DeviceArray:
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize \
            if np.ndim(shape) else int(shape) * dt.itemsize
        self._claim(nbytes, site="zeros")
        try:
            arr = np.zeros(shape, dtype=dt)
        except BaseException:
            self._release(nbytes)
            raise
        return DeviceArray(self, arr)

    def from_host(self, host, *, verify: bool | None = None) -> DeviceArray:
        """Allocate and copy host data to the device in ONE H2D transfer.

        ``host`` is one array, or a list of host arrays of one dtype
        that land back to back in one flat allocation (views of it
        address each part; a list of mixed dtypes raises
        :class:`ValueError`).  ``verify`` follows
        ``self.verify_transfers`` when ``None``; see
        :meth:`DeviceArray.copy_from_host` for checksum/retry semantics.
        """
        if isinstance(host, (list, tuple)):
            host = [np.asarray(h) for h in host]
            dtypes = {h.dtype for h in host}
            if len(dtypes) > 1:
                raise ValueError(f"mixed data types in one upload: {dtypes}")
            dt = dtypes.pop() if dtypes else np.dtype(np.float64)
            shape = (sum(h.size for h in host),)
        else:
            host = np.asarray(host)
            dt, shape = host.dtype, host.shape
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        self._claim(nbytes, site="from_host")
        try:
            arr = DeviceArray(self, np.empty(shape, dtype=dt))
            arr.copy_from_host(host, verify=verify)
        except BaseException:
            self._release(nbytes)
            raise
        return arr

    def _claim(self, nbytes: int, site: str = "alloc") -> None:
        if nbytes < 0:
            raise ValueError(f"cannot claim a negative allocation "
                             f"({nbytes} bytes at {site!r})")
        if self._injector is not None:
            self._injector.on_alloc(self, nbytes, site)
        with self._mem_lock:
            if self.allocated_bytes + nbytes > self.spec.memory_capacity:
                raise DeviceOutOfMemory(
                    f"{self.spec.name}: allocation of {nbytes} bytes exceeds "
                    f"capacity ({self.allocated_bytes} of "
                    f"{self.spec.memory_capacity} in use)")
            self.allocated_bytes += nbytes
            self.alloc_count += 1
            self.peak_allocated_bytes = max(self.peak_allocated_bytes,
                                            self.allocated_bytes)

    def _release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"cannot release a negative allocation "
                             f"({nbytes} bytes)")
        with self._mem_lock:
            if nbytes > self.allocated_bytes:
                raise RuntimeError(
                    f"release of {nbytes} bytes exceeds the "
                    f"{self.allocated_bytes} bytes currently allocated — "
                    f"double release?")
            self.allocated_bytes -= nbytes

    def _account_transfer(self, nbytes: int) -> None:
        seconds = _PCIE_LATENCY + nbytes / _PCIE_BANDWIDTH
        self.host_time += seconds
        self.profiler.note_transfer(seconds)

    def transfer_backoff(self, attempt: int, site: str) -> float:
        """Exponential backoff before retrying a corrupted transfer.

        ``attempt`` is the 1-based number of the attempt that just
        failed verification; the delay before attempt ``attempt + 1``
        grows geometrically from :data:`_BACKOFF_BASE` and carries a
        deterministic jitter fraction derived by hashing
        ``(seed, site, attempt)`` — a pure function of the installed
        fault plan's seed, so retry schedules are exactly reproducible
        yet decorrelated across sites (and never perturb the injector's
        own random stream).  Advances the host clock and returns the
        delay in simulated seconds.
        """
        base = _BACKOFF_BASE * _BACKOFF_FACTOR ** (max(attempt, 1) - 1)
        seed = self._injector.plan.seed if self._injector is not None else 0
        key = f"{seed}:{site}:{attempt}".encode()
        h = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(),
                           "little")
        delay = base * (1.0 + _BACKOFF_JITTER * (h % 2 ** 20) / 2 ** 20)
        self.host_time += delay
        return delay

    # ------------------------------------------------------------------
    # streams and launches
    # ------------------------------------------------------------------
    def stream(self, sid: int) -> Stream:
        """Get or create the stream with the given id."""
        if sid not in self._streams:
            self._streams[sid] = Stream(sid)
        return self._streams[sid]

    def new_stream(self) -> Stream:
        """Create a fresh stream with an unused id (cudaStreamCreate)."""
        sid = max(self._streams) + 1
        self.host_time += self.spec.sync_overhead_host
        return self.stream(sid)

    @property
    def default_stream(self) -> Stream:
        return self._streams[0]

    def record_event(self, stream: Stream | int | None = None) -> "Event":
        """Capture a stream's current position (cudaEventRecord).

        A later launch passing this event in ``wait_events`` cannot start
        until everything launched into ``stream`` before the record has
        completed.
        """
        from .stream import Event
        if isinstance(stream, int):
            stream = self.stream(stream)
        elif stream is None:
            stream = self.default_stream
        self.host_time += self.spec.sync_overhead_host
        return Event(stream=stream.sid, seq=stream.last_seq)

    def launch(self, name: str, fn: Callable[[], KernelCost | None] | None,
               cost: KernelCost | None = None, *,
               stream: Stream | int | None = None,
               wait_events: Sequence | None = None,
               outputs=None) -> KernelCost:
        """Launch a kernel: run its numerics now, queue its timing.

        ``fn`` may return a :class:`KernelCost` (preferred: the cost often
        depends on DCWI-inferred workloads known only inside the kernel);
        otherwise ``cost`` must be supplied.  Shared-memory feasibility is
        validated against the device limit.

        ``outputs`` registers the launch's output buffers (a sequence of
        arrays, or a zero-argument callable returning one — evaluated
        lazily, only when a fault injector is installed).  A registered
        launch is a ``corrupt`` fault site: after the numerics complete,
        an injected silent-data-corruption rule may overwrite one seeded
        element of one output, modelling a kernel that finishes but
        computes wrong bytes.  Launches without registered outputs are
        never corrupted.
        """
        if isinstance(stream, int):
            stream = self.stream(stream)
        elif stream is None:
            stream = self.default_stream

        # Fault site: an injected launch failure (or stream stall) fires
        # before the kernel's numerics run, so device state is unchanged
        # and the caller may retry the launch from consistent inputs.
        if self._injector is not None:
            self._injector.on_launch(self, name, stream)

        returned = fn() if fn is not None else None

        # Fault site: output corruption fires after the numerics, so the
        # launch "succeeded" and only ABFT verification can notice.
        if self._injector is not None and outputs is not None:
            outs = outputs() if callable(outputs) else outputs
            self._injector.on_kernel_output(name, outs)

        if isinstance(returned, KernelCost):
            cost = returned
        if cost is None:
            raise ValueError(f"kernel {name!r} supplied no KernelCost")
        if cost.shared_mem_per_block > self.spec.max_shared_per_block:
            raise ValueError(
                f"kernel {name!r} requests {cost.shared_mem_per_block} B of "
                f"shared memory > per-block limit "
                f"{self.spec.max_shared_per_block} B on {self.spec.name}")

        self.host_time += self.spec.launch_overhead_host
        self.profiler.note_launch(self.spec.launch_overhead_host)

        rec = LaunchRecord(name=name, stream=stream.sid, cost=cost,
                           seq=self._seq, host_issue=self.host_time,
                           wait_events=list(wait_events or ()))
        self._seq += 1
        stream.push(rec)
        self._pending.append(rec)
        return cost

    def host_compute(self, seconds: float) -> None:
        """Advance the host clock by CPU-side work (e.g. CPU panels)."""
        self.host_time += max(seconds, 0.0)

    # ------------------------------------------------------------------
    # timing resolution
    # ------------------------------------------------------------------
    def synchronize(self) -> float:
        """Resolve all pending launches; host blocks until the device idles.

        Returns the host time after synchronization.
        """
        makespan = self._resolve()
        wait = makespan - self.host_time
        self.profiler.note_sync(wait)
        self.host_time = max(self.host_time, makespan)
        self.host_time += self.spec.sync_overhead_host
        return self.host_time

    def _resolve(self) -> float:
        """Discrete-event simulation of every pending launch."""
        if not self._pending:
            return self.device_time

        # Per-stream FIFO chains; the head of each chain arrives at
        # max(host_issue, previous completion in that stream).
        chains: dict[int, list[LaunchRecord]] = {}
        for rec in self._pending:
            chains.setdefault(rec.stream, []).append(rec)
        for sid, recs in chains.items():
            recs.sort(key=lambda r: r.seq)

        heads: dict[int, int] = {sid: 0 for sid in chains}
        # A pending stream stall (injected fault) delays the stream's
        # next kernel chain; consumed here, once.
        prev_end: dict[int, float] = {}
        for sid in chains:
            s = self._streams[sid]
            prev_end[sid] = s.tail + s.pending_stall
            s.pending_stall = 0.0
        active: list[LaunchRecord] = []
        now = 0.0
        makespan = self.device_time

        stream_busy: dict[int, bool] = {sid: False for sid in chains}

        # Resolve the events pending launches wait on: each event completes
        # when the last pending kernel at-or-before its recorded position
        # finishes (or is already complete if nothing is pending there).
        event_gate: dict[int, list] = {}   # gating record seq -> [events]
        for rec in self._pending:
            for ev in rec.wait_events:
                if ev.resolved:
                    continue
                gate = None
                for other in chains.get(ev.stream, ()):  # sorted by seq
                    if other.seq <= ev.seq:
                        gate = other
                    else:
                        break
                if gate is None:
                    ev.completed_at = self._streams[ev.stream].tail \
                        if ev.stream in self._streams else 0.0
                else:
                    event_gate.setdefault(gate.seq, []).append(ev)

        def arrival_time(sid: int) -> float | None:
            i = heads[sid]
            if i >= len(chains[sid]) or stream_busy[sid]:
                return None  # exhausted, or FIFO predecessor still running
            rec = chains[sid][i]
            t = max(rec.host_issue, prev_end[sid])
            for ev in rec.wait_events:
                if not ev.resolved:
                    return None  # blocked on a cross-stream event
                t = max(t, ev.completed_at)
            return t

        while True:
            total_demand = sum(r.sm_demand for r in active)
            rate = 1.0 if total_demand <= self.spec.n_sm else \
                self.spec.n_sm / total_demand

            t_complete = math.inf
            completing: LaunchRecord | None = None
            for r in active:
                t = now + r.remaining / rate
                if t < t_complete:
                    t_complete, completing = t, r

            t_arrive = math.inf
            arriving_sid: int | None = None
            for sid in chains:
                t = arrival_time(sid)
                if t is not None and t < t_arrive:
                    t_arrive, arriving_sid = t, sid

            if completing is None and arriving_sid is None:
                if any(heads[sid] < len(chains[sid]) for sid in chains):
                    raise RuntimeError(
                        "event deadlock: pending launches wait on events "
                        "that can never complete")
                break

            # Arrivals break ties so a kernel never completes "around" a
            # co-resident arrival that should have slowed it down.
            if t_arrive <= t_complete:
                dt = max(t_arrive - now, 0.0)
                for r in active:
                    r.remaining -= dt * rate
                now = t_arrive
                rec = chains[arriving_sid][heads[arriving_sid]]
                heads[arriving_sid] += 1
                rec.start = now
                rec.sm_demand = sm_demand(rec.cost, self.spec)
                rec.intrinsic = intrinsic_duration(rec.cost, self.spec)
                rec.remaining = rec.intrinsic
                active.append(rec)
                stream_busy[arriving_sid] = True
            else:
                dt = max(t_complete - now, 0.0)
                for r in active:
                    r.remaining -= dt * rate
                now = t_complete
                completing.end = now
                completing.remaining = 0.0
                active.remove(completing)
                stream_busy[completing.stream] = False
                prev_end[completing.stream] = now
                for ev in event_gate.pop(completing.seq, ()):
                    ev.completed_at = now
                self._streams[completing.stream].tail = now
                makespan = max(makespan, now)
                self.profiler.add_record(completing)

        self._pending.clear()
        self.device_time = makespan
        return makespan

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @contextmanager
    def timed_region(self) -> Iterator[dict]:
        """Measure simulated elapsed host time across a region.

        Synchronizes at entry and exit (like wrapping a measured region in
        ``cudaDeviceSynchronize``); yields a dict later filled with
        ``elapsed`` plus the counter deltas for the region.
        """
        self.synchronize()
        t0 = self.host_time
        snap0 = self.profiler.snapshot()
        out: dict = {}
        yield out
        self.synchronize()
        snap1 = self.profiler.snapshot()
        out["elapsed"] = self.host_time - t0
        for key in snap0:
            out[key] = snap1[key] - snap0[key]

    def reset(self) -> None:
        """Clear clocks, trace and profiler (allocations are kept)."""
        self.synchronize()
        self.host_time = 0.0
        self.device_time = 0.0
        for s in self._streams.values():
            s.tail = 0.0
            s.pending_stall = 0.0
        self.profiler.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Device({self.spec.name!r}, host_time={self.host_time:.6f}, "
                f"alloc={self.allocated_bytes}B)")
