"""Ahead-of-time compiled launch schedules for recurring batched workloads.

Recurring batches repeat the same *shape signatures* endlessly, yet
every dispatch re-runs DCWI inference, bucketing, permutation
rehearsal, packed-buffer construction and the per-launch Python
orchestration of the drivers in this package.  All of that work is a
pure function of the workload's shapes, so it can be done **once**,
ahead of time.

:func:`compile_workload` turns a batch signature (a multiset of shapes
factored by ``getrf``) into a :class:`WorkloadProgram`:

* **Record once** — the ordinary driver (``irr_getrf`` on a bucketed
  :class:`~repro.batched.engine.BatchEngine`) runs once on a synthetic
  payload of the compiled shapes — the *rehearsal* — while a recorder
  wraps the device's ``launch`` and ``host_step`` entry points.  Every
  launch closure and every host step the driver issues (pivot-state
  reset, growth epilogue) is captured, in order, into a fixed step
  list; a replay re-executes them on the new payload, so the compiled
  path follows the driver with no copy of its host logic.  Multi-stream
  schedules (``concurrent_swaps``) have event dependencies the linear
  step list cannot express and are rejected with :class:`CompileError`.
* **One guard rule** — a host step returns the value its driver branches
  on (``None`` for pure host work).  A replay whose step returns a
  different value than the rehearsal's took a branch the schedule did
  not record and raises :class:`GuardTripped`; callers fall back to the
  ordinary bucketed path for that payload.
* **No repairs in the schedule** — a rehearsal during which the device's
  recovery log records any event (an ABFT re-execution, a retried
  transfer) would record the repair as schedule, so it yields no
  program: :func:`compile_workload` returns ``None``.
* **Preallocate once** — packed host staging and device storage for the
  batch live in one allocation made at compile time.
  ``program.run(...)`` only copies payload bytes (one packed H2D
  transfer) and replays: zero plan-cache misses and zero new device
  allocations after the first execution.
* **Fuse adjacent launches** — runs of consecutive recorded launches
  (panel→LASWP→TRSM→GEMM chains) are merged into single
  launch records executing the captured closures back to back and
  summing their costs (:func:`fuse_costs`): flops/bytes/blocks totals
  are preserved exactly; only the launch *count* (and with it the
  per-launch host overhead) drops.  Host steps are fusion barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.kernel import KernelCost
from ..device.memory import DeviceArray
from ..device.simulator import Device
from ..errors import CorruptionDetected
from .abft import ABFT_MAX_REEXEC, getrf_check
from .engine import BatchEngine, resolve_engine
from .getrf import irr_getrf
from .interface import IrrBatch

__all__ = ["WorkloadProgram", "ProgramResult", "compile_workload",
           "fuse_costs", "CompileError", "GuardTripped", "PayloadMismatch"]

#: most captured launches merged into one fused launch record.
FUSE_WINDOW = 8


class CompileError(ValueError):
    """The requested workload cannot be compiled into a static program
    (e.g. multi-stream schedules, or an engine that resolves to the
    naive per-matrix path)."""


class PayloadMismatch(ValueError):
    """``program.run`` payloads do not match the compiled signature
    (wrong count, shape or dtype)."""


class GuardTripped(RuntimeError):
    """A replay guard failed: a driver's branch check returned another
    value than in the rehearsal, so the payload needs a launch sequence
    the compiled schedule did not record.  Callers fall back to the
    ordinary bucketed path for this payload."""

    def __init__(self, message: str, info: np.ndarray | None = None):
        super().__init__(message)
        self.info = info


# ----------------------------------------------------------------------
# cost fusion
# ----------------------------------------------------------------------
def fuse_costs(costs: list[KernelCost]) -> KernelCost:
    """Combine the costs of back-to-back launches into one fused record.

    Work totals (flops, bytes, blocks) are **summed** — the fused kernel
    performs exactly the member kernels' work, so profiler totals stay
    identical modulo the launch-count reduction.  Geometry limits
    (threads, shared memory) take the max; the efficiency inputs are
    work-weighted means (flop-weighted compute ramp, byte-weighted
    memory ramp) with the kernel class of the flop-dominant member, so
    the roofline duration of the fused record stays close to the sum of
    its members'.
    """
    if not costs:
        raise ValueError("cannot fuse an empty launch run")
    if len(costs) == 1:
        return costs[0]
    flops = float(sum(c.flops for c in costs))
    bytes_read = float(sum(c.bytes_read for c in costs))
    bytes_written = float(sum(c.bytes_written for c in costs))
    dominant = max(costs, key=lambda c: (c.flops, c.bytes_total))
    if flops > 0:
        compute_ramp = sum(c.flops * c.compute_ramp for c in costs) / flops
    else:
        compute_ramp = max(c.compute_ramp for c in costs)
    bytes_total = sum(c.bytes_total for c in costs)
    if bytes_total > 0:
        memory_ramp = sum(c.bytes_total * c.memory_ramp
                          for c in costs) / bytes_total
    else:
        memory_ramp = max(c.memory_ramp for c in costs)
    return KernelCost(
        flops=flops, bytes_read=bytes_read, bytes_written=bytes_written,
        blocks=int(sum(c.blocks for c in costs)),
        threads_per_block=max(c.threads_per_block for c in costs),
        shared_mem_per_block=max(c.shared_mem_per_block for c in costs),
        kernel_class=dominant.kernel_class,
        compute_ramp=min(1.0, compute_ramp),
        memory_ramp=min(1.0, memory_ramp),
        peak_scale=min(c.peak_scale for c in costs))


# ----------------------------------------------------------------------
# steps
# ----------------------------------------------------------------------
class _HostCall:
    """One recorded ``device.host_step``: re-run, and held to the value
    it returned in the rehearsal (the one guard rule)."""

    __slots__ = ("fn", "value")

    def __init__(self, fn, value):
        self.fn = fn
        self.value = value

    def run(self, device: Device) -> None:
        got = self.fn()
        if got != self.value:
            raise GuardTripped(
                f"replay guard: a driver branch check returned {got!r} "
                f"where the rehearsal returned {self.value!r}; fall back "
                f"to the bucketed path for this payload")


class _LaunchStep:
    """One captured kernel launch, replayed verbatim.

    ``outputs`` carries the originating driver's lazy output
    registration through to replay, so a compiled replay launch is a
    ``corrupt`` fault site exactly like its uncompiled counterpart.
    """

    __slots__ = ("name", "fn", "cost", "outputs")

    def __init__(self, name, fn, cost=None, outputs=None):
        self.name = name
        self.fn = fn
        self.cost = cost
        self.outputs = outputs

    def run(self, device: Device) -> None:
        device.launch(self.name, self.fn, self.cost, outputs=self.outputs)


class _FusedStep:
    """A run of captured launches executed as one launch record."""

    __slots__ = ("name", "parts", "_has_outputs")

    def __init__(self, parts: list[_LaunchStep]):
        self.parts = parts
        self.name = (f"fused[{len(parts)}]:"
                     f"{parts[0].name}..{parts[-1].name}")
        self._has_outputs = any(p.outputs is not None for p in parts)

    def run(self, device: Device) -> None:
        parts = self.parts

        def fused() -> KernelCost:
            costs = []
            for p in parts:
                out = p.fn() if p.fn is not None else None
                costs.append(out if isinstance(out, KernelCost) else p.cost)
            return fuse_costs(costs)

        if not self._has_outputs:
            device.launch(self.name, fused)
            return

        def outputs():
            outs = []
            for p in parts:
                if p.outputs is not None:
                    o = p.outputs() if callable(p.outputs) else p.outputs
                    outs.extend(o)
            return outs

        device.launch(self.name, fused, outputs=outputs)


def fuse_steps(steps: list) -> list:
    """Merge runs of adjacent launch steps (host steps are barriers)
    into :class:`_FusedStep` records of at most :data:`FUSE_WINDOW`
    launches."""
    out: list = []
    run: list[_LaunchStep] = []

    def flush() -> None:
        if len(run) >= 2:
            out.append(_FusedStep(list(run)))
        else:
            out.extend(run)
        run.clear()

    for step in steps:
        if isinstance(step, _LaunchStep):
            run.append(step)
            if len(run) >= FUSE_WINDOW:
                flush()
        else:
            flush()
            out.append(step)
    flush()
    return out


def replay(device: Device, steps: list) -> None:
    """Run recorded steps; a tripped guard first drains the launches
    already issued."""
    try:
        for step in steps:
            step.run(device)
    except GuardTripped:
        device.synchronize()
        raise


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
class Recorder:
    """Captures the launches and host steps of a rehearsal, in order.

    While entered, the device's ``launch`` and ``host_step`` run as usual
    and each call is appended to :attr:`steps`.  :attr:`repaired` tells
    whether the recovery log recorded any event during the rehearsal —
    then the steps contain a repair, not the schedule, and must not be
    replayed.
    """

    def __init__(self, device: Device):
        self.device = device
        self.steps: list = []
        self._mark = 0

    def __enter__(self) -> "Recorder":
        device, steps = self.device, self.steps
        launch, host_step = device.launch, device.host_step

        def recording_launch(name, fn, cost=None, *, stream=None,
                             wait_events=None, outputs=None):
            if stream is not None or wait_events:
                raise CompileError(
                    f"launch {name!r} uses a side stream or event "
                    "dependencies; multi-stream schedules cannot be "
                    "compiled into a static program")
            returned = launch(name, fn, cost, outputs=outputs)
            steps.append(_LaunchStep(name, fn, cost, outputs=outputs))
            return returned

        def recording_host_step(fn):
            value = host_step(fn)
            steps.append(_HostCall(fn, value))
            return value

        self._mark = device.recovery_log.mark()
        device.launch = recording_launch
        device.host_step = recording_host_step
        return self

    def __exit__(self, *exc) -> bool:
        del self.device.launch          # re-expose the class methods
        del self.device.host_step
        return False

    @property
    def repaired(self) -> bool:
        return len(self.device.recovery_log.since(self._mark)) > 0


def compile_engine(engine) -> BatchEngine:
    """The engine a program records with (default: a fresh bucketed one)."""
    eng = resolve_engine("bucketed" if engine is None else engine)
    if eng is None:
        raise CompileError(
            "cannot compile the naive per-matrix path; pass a bucketed "
            "engine")
    return eng


# ----------------------------------------------------------------------
# persistent buffers
# ----------------------------------------------------------------------
class _PackedBuffer:
    """One owning device allocation + staging area for a program's batch.

    Mirrors :meth:`IrrBatch.from_host_packed` — per-matrix device views
    into one flat allocation — but the views and the :class:`IrrBatch`
    wrapper are built once at compile time and reused by every
    execution.  A run's payload bytes move host-to-device in ONE packed
    transfer (:meth:`flush`, after :meth:`stage`) and the results come
    back in one device-to-host transfer (:meth:`account_download`) — a
    single ``cudaMemcpy`` each way is physically possible exactly
    because every member shares one allocation.
    """

    def __init__(self, device: Device, dtype, shapes):
        self.device = device
        self.shapes = [(int(m), int(n)) for (m, n) in shapes]
        self.dtype = np.dtype(dtype)
        sizes = [m * n for (m, n) in self.shapes]
        self.offsets = np.cumsum([0] + sizes).astype(np.int64)
        self.total = int(self.offsets[-1])
        self.flat = device.empty((self.total,), dtype=self.dtype)
        self.staging = np.empty(self.total, dtype=self.dtype)
        #: payloads were staged since the last flush
        self.dirty = False
        arrays = [DeviceArray(
            device,
            self.flat.data[int(o):int(o) + m * n].reshape((m, n)),
            base=self.flat)
            for (m, n), o in zip(self.shapes, self.offsets[:-1])]
        self.batch = IrrBatch(device, arrays,
                              [m for (m, _n) in self.shapes],
                              [n for (_m, n) in self.shapes])
        self.batch._packed = self.flat

    @property
    def nbytes(self) -> int:
        return self.total * self.dtype.itemsize

    def stage(self, payloads, *, label: str = "payload") -> None:
        """Copy payload bytes into the staging area (no transfer yet);
        shapes and dtype must match the compiled signature exactly."""
        if len(payloads) != len(self.shapes):
            raise PayloadMismatch(
                f"{label}: expected {len(self.shapes)} matrices, "
                f"got {len(payloads)}")
        for i, p in enumerate(payloads):
            a = np.asarray(p)
            if a.shape != self.shapes[i]:
                raise PayloadMismatch(
                    f"{label}[{i}]: expected shape {self.shapes[i]}, "
                    f"got {a.shape}")
            if a.dtype != self.dtype:
                raise PayloadMismatch(
                    f"{label}[{i}]: expected dtype {self.dtype}, "
                    f"got {a.dtype}")
            o = int(self.offsets[i])
            self.staging[o:o + a.size] = a.ravel()
        self.dirty = True

    def load(self, payloads) -> None:
        """Stage + transfer immediately (used at compile time)."""
        self.stage(payloads, label="compile")
        if self.total:
            self.flat.copy_from_host(self.staging)

    def flush(self) -> None:
        """One packed H2D transfer of the payloads staged this run."""
        if self.dirty and self.total:
            self.flat.copy_from_host(self.staging)
        self.dirty = False

    def account_download(self, download: bool) -> None:
        """Charge the one packed D2H transfer of a downloaded run."""
        if download and self.total:
            self.device._account_transfer(self.nbytes)

    def free(self) -> None:
        self.flat.free()

    def staged(self) -> list[np.ndarray]:
        """Host staging views of every member (the payloads as loaded —
        execution never touches staging, so these are pre-run values)."""
        return [self.staging[int(o):int(o) + m * n].reshape((m, n))
                for (m, n), o in zip(self.shapes, self.offsets[:-1])]

    def download(self, download: bool = True) -> list[np.ndarray] | None:
        """Host copies of every member (:meth:`account_download` charges
        the D2H), or ``None`` when the caller leaves the results on the
        device."""
        if not download:
            return None
        return [np.array(a.data, copy=True) for a in self.batch.arrays]


# ----------------------------------------------------------------------
# the program object
# ----------------------------------------------------------------------
@dataclass
class ProgramResult:
    """Host-side outputs of one :meth:`WorkloadProgram.run`."""

    factors: list | None = None
    ipiv: list | None = None
    info: np.ndarray | None = None
    n_replaced: np.ndarray | None = None
    min_pivot: np.ndarray | None = None
    growth: np.ndarray | None = None


class WorkloadProgram:
    """A fixed, replayable launch schedule with persistent buffers.

    Built by :func:`compile_workload`; execute with :meth:`run`, which
    only copies payload bytes, replays the recorded steps and downloads
    the results — no planning, no allocation.
    """

    def __init__(self, device: Device, op: str, signature: tuple,
                 steps: list, *, buf: _PackedBuffer, collect,
                 engine: BatchEngine, verifier, pivots):
        self.device = device
        self.op = op
        self.signature = signature
        self.steps = steps
        self.engine = engine
        self.runs = 0
        self._buf = buf
        self._collect = collect
        self._freed = False
        #: ABFT verifier ``() -> first bad member | None``, consulted
        #: after each execution when ``device.verify_kernels`` is on.
        self._verifier = verifier
        #: the rehearsal's pivot object, reset by every replay
        self._pivots = pivots

    # -- inspection ----------------------------------------------------
    @property
    def n_launches(self) -> int:
        """Launch records issued per execution (after fusion)."""
        return sum(1 for s in self.steps
                   if isinstance(s, (_LaunchStep, _FusedStep)))

    @property
    def n_fused(self) -> int:
        """Captured launches folded away by fusion per execution."""
        return sum(len(s.parts) - 1 for s in self.steps
                   if isinstance(s, _FusedStep))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WorkloadProgram(op={self.op!r}, "
                f"launches={self.n_launches}, fused={self.n_fused}, "
                f"runs={self.runs})")

    # -- execution -----------------------------------------------------
    def run(self, *, download: bool = True, **payloads) -> ProgramResult:
        """Replay the compiled schedule on new payload values.

        The payload is ``a``, the matrices; ``download=False`` leaves
        the factors on the device (``None`` in the result).  Raises
        :class:`PayloadMismatch` on any signature deviation and
        :class:`GuardTripped` when a replay guard fails (caller falls
        back to the bucketed path for this payload; ``info`` carries the
        replay's pivot codes).
        """
        if self._freed:
            raise RuntimeError("cannot run a freed WorkloadProgram")
        if set(payloads) != {"a"}:
            raise PayloadMismatch(
                f"{self.op} program expects payload ['a'], got "
                f"{sorted(payloads)}")
        self._buf.stage(payloads["a"])
        verify = self.device.verify_kernels
        attempts = (ABFT_MAX_REEXEC + 1) if verify else 1
        for attempt in range(attempts):
            self._buf.flush()
            try:
                replay(self.device, self.steps)
            except GuardTripped as exc:
                exc.info = self._pivots.info.copy()
                raise
            self.device.synchronize()
            if not verify:
                break
            bad = self._verifier()
            if bad is None:
                break
            site = f"program:{self.op}"
            if attempt >= ABFT_MAX_REEXEC:
                raise CorruptionDetected(
                    site, bad, f"checksum mismatch survived "
                    f"{ABFT_MAX_REEXEC} program re-execution(s)")
            # Re-execute the whole program from the (host-side, intact)
            # staging payloads: the next flush re-uploads the clean bytes.
            self.device.recovery_log.record(
                "kernel-reexec", site=site, attempt=attempt + 1,
                detail=f"checksum mismatch at member {bad}; re-staged "
                       f"payloads and re-executed the program")
            self._buf.dirty = True
        self.runs += 1
        return self._collect(download)

    def free(self) -> None:
        """Release the persistent device buffers (idempotent)."""
        if self._freed:
            return
        self._freed = True
        self._buf.free()

    def __enter__(self) -> "WorkloadProgram":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_workload(device: Device, op: str, shapes, *,
                     dtype=np.float64, lu_kwargs: dict | None = None,
                     engine=None, fuse: bool = True) -> WorkloadProgram | None:
    """Compile a batch signature into a :class:`WorkloadProgram`.

    Returns ``None`` when the device's recovery log recorded an event
    during the rehearsal: its launches contain the repair, so no
    program is kept — compile again later.

    Parameters
    ----------
    op:
        ``"getrf"`` — factor a batch (payload ``a``).  Any other op
        raises :class:`CompileError`.
    shapes:
        The signature's matrix shapes, one ``(m, n)`` per member.
    lu_kwargs:
        The LU policy of the factorization (same keys as
        :func:`~repro.batched.getrf.irr_getrf`).  ``concurrent_swaps``
        is rejected: its side-stream schedule cannot be replayed.
    fuse:
        Merge runs of adjacent launches into fused launch records.
    """
    if op != "getrf":
        raise CompileError(f"unknown workload op {op!r}")
    lu_kwargs = dict(lu_kwargs or {})
    if lu_kwargs.get("concurrent_swaps"):
        raise CompileError(
            "concurrent_swaps schedules use a side stream and events; "
            "they cannot be compiled into a static program")
    eng = compile_engine(engine)
    dt = np.dtype(dtype)
    buf = _PackedBuffer(device, dt, _check_shapes(shapes, op))
    try:
        with Recorder(device) as rec:
            # well-conditioned rehearsal payload: identity never breaks down
            buf.load([np.eye(m, n, dtype=dt) for (m, n) in shapes])
            pivots = irr_getrf(device, buf.batch, engine=eng, **lu_kwargs)
        device.synchronize()
    except BaseException:
        buf.free()
        raise
    if rec.repaired:
        buf.free()
        return None

    def collect(download: bool) -> ProgramResult:
        buf.account_download(download)
        ctrl = pivots.ctrl
        return ProgramResult(
            factors=buf.download(download),
            ipiv=[ip.copy() for ip in pivots.ipiv], info=pivots.info.copy(),
            n_replaced=ctrl.n_replaced.copy(),
            min_pivot=ctrl.min_pivot.copy(), growth=ctrl.growth.copy())

    def verifier() -> int | None:
        # the driver's factor checksum over the staged payloads
        return getrf_check(buf.batch, buf.staged()).first_bad(pivots)

    signature = ("getrf", dt.str, tuple(buf.shapes),
                 tuple(sorted(lu_kwargs.items())))
    steps = fuse_steps(rec.steps) if fuse else rec.steps
    return WorkloadProgram(device, op, signature, steps, buf=buf,
                           collect=collect, engine=eng, verifier=verifier,
                           pivots=pivots)


def _check_shapes(shapes, what: str) -> list[tuple[int, int]]:
    out = []
    for s in shapes:
        m, n = s
        if int(m) < 0 or int(n) < 0:
            raise CompileError(f"{what} shape {s} is negative")
        out.append((int(m), int(n)))
    return out
