"""Ahead-of-time compiled launch schedules for recurring batched workloads.

Serve traffic and multifrontal level schedules repeat the same *shape
signatures* endlessly, yet every dispatch re-runs DCWI inference,
bucketing, permutation rehearsal, packed-buffer construction and the
per-launch Python orchestration of the drivers in this package.  All of
that work is a pure function of the workload's shapes — never of the
payload values — so it can be done **once**, ahead of time.

:func:`compile_workload` turns a traffic signature (a multiset of shapes
plus an op: ``getrf``, ``getrs``, ``trsm``, ``gemm`` or a
``factor_solve`` pipeline) into a :class:`WorkloadProgram`:

* **Record once** — the op's normal driver (``irr_getrf`` & friends,
  running on a bucketed :class:`~repro.batched.engine.BatchEngine`) is
  executed on a synthetic payload of the compiled shapes while the
  device's ``launch`` entry point is temporarily wrapped by a recorder.
  Every launch closure the driver issues is captured, in order, into a
  fixed step list.  This is sound because the drivers' launch *sequences*
  depend only on dimensions; all value-dependent behaviour (pivot
  selection, breakdown handling, TRSM fallbacks) lives *inside* the
  closures, which are re-executed on replay.  Multi-stream schedules
  (``concurrent_swaps``) have event dependencies the linear step list
  cannot express and are rejected with :class:`CompileError`.
* **Preallocate once** — packed host staging and device buffers for every
  input batch are allocated at compile time and reused by every
  execution.  ``program.run(...)`` only copies payload bytes (one packed
  H2D transfer per input buffer, exactly like
  :meth:`IrrBatch.from_host_packed`): zero plan-cache misses and zero new
  device allocations after the first execution.
* **Lower uniform buckets** — a ``getrf`` signature of at least
  ``INTERLEAVED_MIN_BS`` uniform, small (``max(m, n) <= INTERLEAVED_MAX_N``)
  single-panel matrices is lowered to one struct-of-arrays launch over a
  persistent interleaved ``(m, n, batch)`` array, running
  :func:`~repro.batched.interleaved.interleaved_lu_core` in place —
  bitwise identical factors, pivots, breakdown diagnostics and
  ``KernelCost`` to the bucketed engine's panel launch, without the
  per-run copy into scratch.
* **Fuse adjacent launches** — runs of consecutive recorded launches
  (panel→LASWP→TRSM→GEMM chains, factor→solve) are merged into single
  launch records executing the captured closures back to back and
  summing their costs (:func:`fuse_costs`): flops/bytes/blocks totals
  are preserved exactly; only the launch *count* (and with it the
  per-launch host overhead) drops.

Replays stay bitwise identical to ``engine="bucketed"`` because the
per-run host work the drivers would have done (pivot-state construction,
the growth-factor epilogue, ``check_info``) is replicated as explicit
host/guard steps with the drivers' exact arithmetic.  Pivot breakdowns
on a replay whose schedule assumed clean factors raise
:class:`GuardTripped`; callers fall back to the ordinary bucketed path
for that payload (see ``docs/API.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.kernel import KernelCost, peak_scale_for
from ..device.memory import DeviceArray
from ..device.simulator import Device
from ..errors import CorruptionDetected, FactorizationError
from .abft import ABFT_MAX_REEXEC, _LOOSE_FRAC, _SLACK, _abs_row_sum, \
    _lu_checksum, _mismatch, _row_sum
from .engine import BatchEngine, resolve_engine
from .gemm import irr_gemm
from .getrf import DEFAULT_PANEL_WIDTH, irr_getrf
from .getrs import irr_getrs
from .interface import IrrBatch
from .interleaved import INTERLEAVED_MAX_N, interleaved_lu_core
from .panel import PivotControl, _batch_abs_max, panel_shared_bytes
from .trsm import TRSM_BASE_NB, irr_trsm

__all__ = ["WorkloadProgram", "ProgramResult", "compile_workload",
           "fuse_costs", "CompileError", "GuardTripped", "PayloadMismatch",
           "INTERLEAVED_MIN_BS"]

#: minimum members before a uniform small getrf signature is lowered to
#: the persistent interleaved kernel; below this the ordinary recorded
#: schedule is kept (a near-empty interleaved launch buys nothing).
INTERLEAVED_MIN_BS = 8


class CompileError(ValueError):
    """The requested workload cannot be compiled into a static program
    (e.g. multi-stream schedules, or an engine that resolves to the
    naive per-matrix path)."""


class PayloadMismatch(ValueError):
    """``program.run`` payloads do not match the compiled signature
    (wrong count, shape or dtype)."""


class GuardTripped(RuntimeError):
    """A replay guard failed: the payload took a value-dependent branch
    (pivot breakdown) the compiled schedule did not record.  Callers
    fall back to the ordinary bucketed path for this payload."""

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
class _HostStep:
    """Host-side work between launches (pivot reset, growth epilogue)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def run(self, device: Device) -> None:
        self.fn()


class _GuardStep:
    """Raises :class:`GuardTripped` when the payload leaves the recorded
    schedule's validity region."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def run(self, device: Device) -> None:
        self.fn()


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


def _fuse_steps(steps: list, window: int) -> list:
    """Merge runs of adjacent launch steps (host/guard steps are
    barriers) into :class:`_FusedStep` records, at most ``window``
    launches per fused record."""
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
            if len(run) >= window:
                flush()
        else:
            flush()
            out.append(step)
    flush()
    return out


# ----------------------------------------------------------------------
# launch recorder
# ----------------------------------------------------------------------
class _Recorder:
    """Temporarily wraps ``device.launch`` to capture launches while the
    wrapped driver executes normally (record-by-execution)."""

    def __init__(self, device: Device):
        self.device = device
        self._steps: list[_LaunchStep] = []
        self._depth = 0

    def __enter__(self) -> "_Recorder":
        if self._depth == 0:
            orig = self.device.launch
            steps = self._steps

            def recording_launch(name, fn, cost=None, *, stream=None,
                                 wait_events=None, outputs=None):
                if stream is not None or wait_events:
                    raise CompileError(
                        f"launch {name!r} uses a side stream or event "
                        "dependencies; multi-stream schedules cannot be "
                        "compiled into a static program")
                returned = orig(name, fn, cost, outputs=outputs)
                steps.append(_LaunchStep(name, fn, cost, outputs=outputs))
                return returned

            self._orig = orig
            self.device.launch = recording_launch
        self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        self._depth -= 1
        if self._depth == 0:
            del self.device.launch   # re-expose the class method
        return False

    def take(self) -> list[_LaunchStep]:
        # keep the same list object: the wrapper closure captured it
        steps = list(self._steps)
        self._steps.clear()
        return steps


# ----------------------------------------------------------------------
# persistent buffers
# ----------------------------------------------------------------------
class _Arena:
    """One owning device allocation + staging area for a whole program.

    Every persistent buffer of a program reserves a contiguous range
    here, so a run's payload bytes move host-to-device in ONE packed
    transfer (:meth:`flush`, after the loaders have staged) and the
    results come back in one device-to-host transfer
    (:meth:`account_download`) — a single ``cudaMemcpy`` each way is
    physically possible exactly because all buffers share one
    allocation.  Compile-time rehearsal loads still transfer
    per-buffer; only :meth:`WorkloadProgram.run` uses the packed path.
    """

    def __init__(self, device: Device, dtype, capacity: int):
        self.device = device
        self.dtype = np.dtype(dtype)
        self.capacity = int(capacity)
        self.used = 0
        self.flat = device.empty((self.capacity,), dtype=self.dtype)
        self.staging = np.empty(self.capacity, dtype=self.dtype)
        self._buffers: list = []
        self._staged: set = set()

    def reserve(self, n: int, buf) -> int:
        off = self.used
        self.used += int(n)
        if self.used > self.capacity:
            raise CompileError(
                f"arena overflow: reserved {self.used} elements of "
                f"{self.capacity}")
        self._buffers.append(buf)
        return off

    def mark_staged(self, buf) -> None:
        self._staged.add(id(buf))

    def flush(self) -> None:
        """One packed H2D transfer for everything staged this run."""
        if not self._staged:
            return
        if len(self._staged) == len(self._buffers) and self.capacity:
            self.flat.copy_from_host(self.staging)
        else:
            for buf in self._buffers:
                if id(buf) in self._staged:
                    buf.flush_one()
        self._staged.clear()

    def account_download(self, nbytes: int) -> None:
        if nbytes:
            self.device._account_transfer(int(nbytes))

    def free(self) -> None:
        self.flat.free()


class _PackedBuffer:
    """Preallocated packed staging + device storage for one batch.

    Mirrors :meth:`IrrBatch.from_host_packed` — per-matrix device views
    into one flat allocation, one H2D transfer per :meth:`load` — but
    the allocation, the views and the :class:`IrrBatch` wrapper are
    built once at compile time and reused by every execution.  With an
    ``arena`` the storage is a range of the program-wide allocation and
    run-time uploads coalesce into the arena's single flush.
    """

    def __init__(self, device: Device, shapes, dtype, arena=None):
        self.device = device
        self.arena = arena
        self.shapes = [(int(m), int(n)) for (m, n) in shapes]
        self.dtype = np.dtype(dtype)
        sizes = [m * n for (m, n) in self.shapes]
        self.offsets = np.cumsum([0] + sizes).astype(np.int64)
        self.total = int(self.offsets[-1])
        self._has_empty = any(s == 0 for s in sizes)
        if arena is None:
            self.staging = np.empty(self.total, dtype=self.dtype)
            self.flat = device.empty((self.total,), dtype=self.dtype)
        else:
            base = arena.reserve(self.total, self)
            self.staging = arena.staging[base:base + self.total]
            self.flat = arena.flat[base:base + self.total]
        arrays = [DeviceArray(
            device,
            self.flat.data[int(o):int(o) + m * n].reshape((m, n)),
            base=self.flat)
            for (m, n), o in zip(self.shapes, self.offsets[:-1])]
        m_vec = np.array([m for (m, _n) in self.shapes], dtype=np.int64)
        n_vec = np.array([n for (_m, n) in self.shapes], dtype=np.int64)
        self.batch = IrrBatch(device, arrays, m_vec, n_vec)
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
        if self.arena is not None:
            self.arena.mark_staged(self)

    def flush_one(self) -> None:
        if self.total:
            self.flat.copy_from_host(self.staging)

    def load(self, payloads, *, label: str = "payload") -> None:
        """Stage + transfer immediately (one packed H2D for this
        buffer; used at compile time)."""
        self.stage(payloads, label=label)
        self.flush_one()
        if self.arena is not None:
            self.arena._staged.discard(id(self))

    def staged_matrix(self, i: int) -> np.ndarray:
        """Host staging view of member ``i`` (the payload as loaded —
        execution never touches staging, so this is the pre-run value)."""
        m, n = self.shapes[i]
        o = int(self.offsets[i])
        return self.staging[o:o + m * n].reshape((m, n))

    def seg_abs_max(self) -> np.ndarray:
        """Per-matrix ``max|A_i|`` over the device-resident data —
        bitwise identical to :func:`_batch_abs_max` (same value
        multiset per segment; max is exact and order-independent)."""
        if self._has_empty or self.total == 0:
            return _batch_abs_max(self.batch)
        # per-segment maxes over the flat storage; reduceat walks the
        # segments element-by-element and is ~30x slower here
        data = self.flat.data
        out = np.empty(len(self.shapes), dtype=np.float64)
        offs = self.offsets
        for i in range(len(out)):
            out[i] = np.max(np.abs(data[int(offs[i]):int(offs[i + 1])]))
        return out

    def download(self, *, account: bool = True) -> list[np.ndarray]:
        if account:
            return self.batch.to_host()
        return [np.array(a.data, copy=True) for a in self.batch.arrays]

    def free(self) -> None:
        self.batch.free()


class _InterleavedBuffer:
    """Persistent struct-of-arrays ``(m, n, batch)`` storage for a
    lowered uniform bucket (batch axis unit-stride)."""

    def __init__(self, device: Device, m: int, n: int, bs: int, dtype,
                 arena=None):
        self.device = device
        self.arena = arena
        self.m, self.n, self.bs = int(m), int(n), int(bs)
        self.dtype = np.dtype(dtype)
        shape = (self.m, self.n, self.bs)
        total = self.m * self.n * self.bs
        if arena is None:
            self.staging = np.empty(shape, dtype=self.dtype)
            self.dev = device.empty(shape, dtype=self.dtype)
        else:
            base = arena.reserve(total, self)
            self.staging = arena.staging[base:base + total].reshape(shape)
            self.dev = DeviceArray(
                device, arena.flat.data[base:base + total].reshape(shape),
                base=arena.flat)

    @property
    def nbytes(self) -> int:
        return self.m * self.n * self.bs * self.dtype.itemsize

    def stage(self, payloads, *, label: str = "payload") -> None:
        if len(payloads) != self.bs:
            raise PayloadMismatch(
                f"{label}: expected {self.bs} matrices, got {len(payloads)}")
        shape = (self.m, self.n)
        for b, p in enumerate(payloads):
            a = np.asarray(p)
            if a.shape != shape:
                raise PayloadMismatch(
                    f"{label}[{b}]: expected shape {shape}, got {a.shape}")
            if a.dtype != self.dtype:
                raise PayloadMismatch(
                    f"{label}[{b}]: expected dtype {self.dtype}, "
                    f"got {a.dtype}")
            self.staging[:, :, b] = a
        if self.arena is not None:
            self.arena.mark_staged(self)

    def flush_one(self) -> None:
        self.dev.copy_from_host(self.staging)

    def load(self, payloads, *, label: str = "payload") -> None:
        self.stage(payloads, label=label)
        self.flush_one()
        if self.arena is not None:
            self.arena._staged.discard(id(self))

    def staged_matrix(self, b: int) -> np.ndarray:
        """Host staging view of member ``b`` (pre-run payload value)."""
        return self.staging[:, :, b]

    def seg_abs_max(self) -> np.ndarray:
        return np.max(np.abs(self.dev.data), axis=(0, 1)).astype(np.float64)

    def download(self, *, account: bool = True) -> list[np.ndarray]:
        if account:
            self.device._account_transfer(self.dev.nbytes)
        data = self.dev.data
        return [np.ascontiguousarray(data[:, :, b]) for b in range(self.bs)]

    def free(self) -> None:
        self.dev.free()


class _PivotView:
    """Pivot carrier for recorded solve launches (mirrors the serving
    layer's view: a list of per-matrix pivot vectors + an info array)."""

    def __init__(self, ipiv: list, info: np.ndarray):
        self.ipiv = ipiv
        self.info = info


class _LoweredPivots:
    """Pivot state of an interleaved-lowered getrf (same fields the
    drivers populate on a :class:`PanelPivots`)."""

    def __init__(self, bs: int, k: int, dtype, *, pivot_tol: float,
                 static_pivot: bool, replace_scale: float | None):
        self.ipiv = [np.arange(k, dtype=np.int64) for _ in range(bs)]
        self.ctrl = PivotControl(np.zeros(bs), dtype, pivot_tol=pivot_tol,
                                 static_pivot=static_pivot,
                                 replace_scale=replace_scale)
        self.info = np.zeros(bs, dtype=np.int64)


# ----------------------------------------------------------------------
# per-run pivot-state reset (bitwise replica of PivotControl.__init__)
# ----------------------------------------------------------------------
def _reset_pivots(pivots, anorm: np.ndarray, tiny: float) -> None:
    ctrl = pivots.ctrl
    ctrl.anorm[...] = anorm
    np.maximum(tiny, ctrl.pivot_tol * ctrl.anorm, out=ctrl.thresh)
    if ctrl.static_pivot:
        ctrl.repl[...] = np.where(ctrl.anorm > 0.0,
                                  ctrl.replace_scale * ctrl.anorm, 0.0)
    else:
        ctrl.repl[...] = 0.0
    ctrl.n_replaced[...] = 0
    ctrl.min_pivot[...] = np.inf
    ctrl.growth[...] = 1.0
    pivots.info[...] = 0
    # drop the permutation-rehearsal memo cached on the pivot object by
    # the engine's pivot-apply body: it is keyed on dims only and would
    # replay a stale permutation otherwise.
    pivots.__dict__.pop("_rehearsal", None)


def _growth_epilogue(buf, ctrl) -> None:
    """The driver's element-growth epilogue, replayed per run."""
    post = buf.seg_abs_max()
    np.divide(post, ctrl.anorm, out=ctrl.growth, where=ctrl.anorm > 0.0)


_GETRS_BROKEN_MSG = (
    "cannot solve from broken-down LU factors: matrices {bad} reported an "
    "unrecovered pivot breakdown (pivots.info != 0); re-factor with "
    "static_pivot=True or pass check_info=False")


# ----------------------------------------------------------------------
# program-level ABFT (checksum verification over whole replays)
# ----------------------------------------------------------------------
def _program_factor_check(get_fac, get_src, pivots, nmembers: int,
                          dtype) -> int | None:
    """First member whose packed factors fail ``P^T.L.(U.w) = A0.w``.

    ``get_src(i)`` reads the *staged* payload (host staging is untouched
    by execution, so the pre-factorization checksum is recomputable
    after the run).  Broken members are excluded; statically repaired
    members get the loose gross-corruption threshold.
    """
    eps = float(np.finfo(dtype).eps)
    tiny = float(np.finfo(dtype).tiny)
    for i in range(nmembers):
        if pivots.info[i] != 0:
            continue
        fac = get_fac(i)
        k = min(fac.shape)
        if k == 0:
            continue
        src = get_src(i)
        got = _lu_checksum(fac, pivots.ipiv[i])
        mag = _lu_checksum(fac, pivots.ipiv[i], absolute=True)
        r0a = _abs_row_sum(src)
        tol = _SLACK * eps * (k + 8) * (mag + r0a) + _SLACK * tiny
        if pivots.ctrl.n_replaced[i] > 0:
            tol = tol + _LOOSE_FRAC * (mag + r0a + 1.0)
        if _mismatch(got, _row_sum(src), tol):
            return i
    return None


def _program_solve_check(get_a, get_b, get_x, pivots, members,
                         dtype) -> int | None:
    """First member whose solution fails the residual checksum
    ``A0.(X.w) = B0.w`` (backward-stable solves satisfy it to
    ``O(n.eps.|A0|.|X|)`` regardless of conditioning)."""
    eps = float(np.finfo(dtype).eps)
    tiny = float(np.finfo(dtype).tiny)
    for i in members:
        if pivots.info[i] != 0:
            continue
        a0 = get_a(i)
        x = get_x(i)
        if x is None or x.size == 0:
            continue
        got = a0 @ _row_sum(x)
        mag = np.abs(a0) @ _abs_row_sum(x)
        ref = _row_sum(get_b(i))
        mag = mag + _abs_row_sum(get_b(i))
        n = a0.shape[0]
        tol = _SLACK * eps * (n + 8) * mag + _SLACK * tiny
        if pivots.ctrl.n_replaced[i] > 0:
            tol = tol + _LOOSE_FRAC * (mag + 1.0)
        if _mismatch(got, ref, tol):
            return i
    return None


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
    #: per-member solutions, aligned with the compiled batch; ``None``
    #: entries are members without a right-hand side.
    solutions: list | None = None


class WorkloadProgram:
    """A fixed, replayable launch schedule with persistent buffers.

    Built by :func:`compile_workload`; execute with :meth:`run`, which
    only copies payload bytes, replays the recorded steps and downloads
    the results — no planning, no allocation.
    """

    def __init__(self, device: Device, op: str, signature: tuple,
                 steps: list, inputs: dict, optional: set,
                 collect, buffers: list, engine: BatchEngine,
                 arena: "_Arena | None" = None):
        self.device = device
        self.op = op
        self.signature = signature
        self.steps = steps
        self.engine = engine
        self.runs = 0
        self._inputs = inputs          # name -> loader(payload)
        self._optional = optional
        self._collect = collect
        self._buffers = buffers
        self._arena = arena
        self._freed = False
        #: optional ABFT verifier ``() -> first bad member | None``,
        #: consulted after each execution when ``device.verify_kernels``
        #: is on; set by the getrf / factor_solve compilers.
        self._verifier = None
        #: Device-resident factored batch after a :meth:`run` — set for
        #: getrf / factor_solve programs, whose factors live in the
        #: arena as an :class:`IrrBatch` (``None`` for other ops).
        #: Contents are only meaningful until the next ``run``;
        #: the serving layer's mixed-precision finisher reads it to run
        #: correction solves against the resident factors without
        #: re-uploading them.
        self.factor_batch: IrrBatch | None = None

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

        Payload keyword names depend on the op (``a`` for matrices,
        ``b`` for right-hand sides, ``c`` for GEMM outputs, ``ipiv`` /
        ``info`` for precomputed pivots).  Raises
        :class:`PayloadMismatch` on any signature deviation and
        :class:`GuardTripped` when a replay guard fails (caller falls
        back to the bucketed path for this payload).
        """
        if self._freed:
            raise RuntimeError("cannot run a freed WorkloadProgram")
        required = set(self._inputs) - self._optional
        given = set(payloads)
        if not (required <= given and given <= set(self._inputs)):
            raise PayloadMismatch(
                f"{self.op} program expects payloads {sorted(required)} "
                f"(optional: {sorted(self._optional)}), got {sorted(given)}")
        for name, loader in self._inputs.items():
            if name in given:
                loader(payloads[name])
        verify = self.device.verify_kernels and self._verifier is not None
        attempts = (ABFT_MAX_REEXEC + 1) if verify else 1
        for attempt in range(attempts):
            if self._arena is not None:
                self._arena.flush()
            for step in self.steps:
                step.run(self.device)
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
            # staging payloads: re-mark every buffer staged so the next
            # flush re-uploads the clean bytes.
            self.device.recovery_log.record(
                "kernel-reexec", site=site, attempt=attempt + 1,
                detail=f"checksum mismatch at member {bad}; re-staged "
                       f"payloads and re-executed the program")
            if self._arena is not None:
                for buf in self._arena._buffers:
                    self._arena.mark_staged(buf)
        self.runs += 1
        return self._collect(download)

    def free(self) -> None:
        """Release the persistent device buffers (idempotent)."""
        if self._freed:
            return
        self._freed = True
        for buf in self._buffers:
            buf.free()

    def __enter__(self) -> "WorkloadProgram":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
_LU_KEYS = frozenset({"nb", "panel", "laswp_variant", "concurrent_swaps",
                      "pivot_tol", "static_pivot", "replace_scale"})


def _resolve_compile_engine(engine) -> BatchEngine:
    if engine is None:
        return BatchEngine("compiled")
    eng = resolve_engine(engine)
    if eng is None:
        raise CompileError(
            "cannot compile the naive per-matrix path; pass a bucketed "
            "or compiled engine")
    return eng


def _check_shapes(shapes, what: str) -> list[tuple[int, int]]:
    out = []
    for s in shapes:
        m, n = s
        if int(m) < 0 or int(n) < 0:
            raise CompileError(f"{what} shape {s} is negative")
        out.append((int(m), int(n)))
    return out


def _lowerable(shapes: list[tuple[int, int]], lu_kwargs: dict,
               device: Device, itemsize: int) -> bool:
    """True when the bucketed engine would execute this getrf signature
    as exactly one fused-panel launch over one uniform small group — the
    regime the program lowers to a persistent struct-of-arrays kernel."""
    if not shapes or not set(lu_kwargs) <= _LU_KEYS:
        return False
    m, n = shapes[0]
    if any(s != (m, n) for s in shapes):
        return False
    bs = len(shapes)
    nb = lu_kwargs.get("nb", "auto")
    nb = DEFAULT_PANEL_WIDTH if nb == "auto" else nb
    if not isinstance(nb, int) or nb < 1:
        return False
    return (bs >= INTERLEAVED_MIN_BS
            and 1 <= n <= m <= INTERLEAVED_MAX_N
            and n <= nb                       # single panel, no right block
            and lu_kwargs.get("panel", "auto") in ("auto", "fused")
            and lu_kwargs.get("laswp_variant",
                              "rehearsed") in ("rehearsed", "looped")
            and panel_shared_bytes(m, 0, n, itemsize) <=
            device.spec.max_shared_per_block)


def compile_workload(device: Device, op: str, shapes, *,
                     dtype=np.float64, rhs_shapes=None,
                     lu_kwargs: dict | None = None,
                     op_kwargs: dict | None = None,
                     engine=None, solve_grouping: str = "batch",
                     fuse: bool = True, fuse_window: int = 8,
                     lower_interleaved: bool = True) -> WorkloadProgram:
    """Compile a traffic signature into a :class:`WorkloadProgram`.

    Parameters
    ----------
    op:
        ``"getrf"`` — factor a batch (payload ``a``); ``"getrs"`` —
        solve from precomputed factors (payloads ``a``, ``ipiv``, ``b``,
        optional ``info``); ``"factor_solve"`` — factor then solve in
        one schedule (payloads ``a``, ``b``; ``b`` entries may be
        ``None`` for factor-only members); ``"trsm"`` / ``"gemm"`` —
        a single triangular-solve / multiply-accumulate launch group
        (payloads ``a``, ``b`` (+ ``c``)).
    shapes:
        The signature's matrix shapes, one ``(m, n)`` per member (for
        ``gemm``: one ``((ma, na), (mb, nb), (mc, nc))`` triple per
        member).
    rhs_shapes:
        Right-hand-side shapes for ``getrs``/``factor_solve``/``trsm``
        (``factor_solve`` accepts ``None`` entries for members without
        a solve).
    lu_kwargs:
        The LU policy of the factor step (same keys as
        :func:`~repro.batched.getrf.irr_getrf`).  ``concurrent_swaps``
        is rejected: its side-stream schedule cannot be replayed.
    solve_grouping:
        ``"batch"`` — one solve over every member with an RHS (the plain
        ``irr_getrf``+``irr_getrs`` pipeline); ``"order_class"`` — solve
        members sub-batched by TRSM order class exactly like
        :class:`~repro.serve.service.SolverService` dispatch groups.
    fuse / fuse_window:
        Merge runs of adjacent launches (at most ``fuse_window`` per
        record) into fused launch records.
    lower_interleaved:
        Lower uniform small single-panel ``getrf`` signatures to the
        persistent interleaved struct-of-arrays kernel.
    """
    lu_kwargs = dict(lu_kwargs or {})
    op_kwargs = dict(op_kwargs or {})
    if lu_kwargs.get("concurrent_swaps"):
        raise CompileError(
            "concurrent_swaps schedules use a side stream and events; "
            "they cannot be compiled into a static program")
    eng = _resolve_compile_engine(engine)
    dt = np.dtype(dtype)
    if op == "getrf":
        return _compile_getrf(device, shapes, dt, lu_kwargs, eng, fuse,
                              fuse_window, lower_interleaved)
    if op == "getrs":
        return _compile_getrs(device, shapes, rhs_shapes, dt, eng, fuse,
                              fuse_window)
    if op == "factor_solve":
        return _compile_factor_solve(device, shapes, rhs_shapes, dt,
                                     lu_kwargs, eng, solve_grouping, fuse,
                                     fuse_window)
    if op == "trsm":
        return _compile_trsm(device, shapes, rhs_shapes, dt, op_kwargs,
                             eng, fuse, fuse_window)
    if op == "gemm":
        return _compile_gemm(device, shapes, dt, op_kwargs, eng, fuse,
                             fuse_window)
    raise CompileError(f"unknown workload op {op!r}")


def _maybe_fuse(steps: list, fuse: bool, window: int) -> list:
    return _fuse_steps(steps, window) if fuse and window >= 2 else steps


def _synthetic_lu(m: int, n: int, dt: np.dtype) -> np.ndarray:
    """Well-conditioned rehearsal payload (identity never breaks down)."""
    return np.eye(m, n, dtype=dt)


# -- getrf -------------------------------------------------------------
def _compile_getrf(device, shapes, dt, lu_kwargs, eng, fuse, fuse_window,
                   lower_interleaved) -> WorkloadProgram:
    shapes = _check_shapes(shapes, "getrf")
    signature = ("getrf", dt.str, tuple(shapes),
                 tuple(sorted(lu_kwargs.items())))
    if lower_interleaved and _lowerable(shapes, lu_kwargs, device,
                                        dt.itemsize):
        return _compile_getrf_interleaved(device, shapes, dt, lu_kwargs,
                                          eng, signature)
    arena = _Arena(device, dt, sum(m * n for (m, n) in shapes))
    buf = _PackedBuffer(device, shapes, dt, arena=arena)
    buf.load([_synthetic_lu(m, n, dt) for (m, n) in shapes],
             label="compile")
    rec = _Recorder(device)
    with rec:
        pivots = irr_getrf(device, buf.batch, engine=eng, **lu_kwargs)
    launches = rec.take()
    device.synchronize()

    tiny = float(np.finfo(dt).tiny)
    ctrl = pivots.ctrl
    steps: list = [_HostStep(lambda: _reset_pivots(
        pivots, buf.seg_abs_max(), tiny))]
    steps.extend(launches)
    if launches:
        steps.append(_HostStep(lambda: _growth_epilogue(buf, ctrl)))
    steps = _maybe_fuse(steps, fuse, fuse_window)

    def collect(download: bool) -> ProgramResult:
        if download:
            arena.account_download(buf.nbytes)
        return ProgramResult(
            factors=buf.download(account=False) if download else None,
            ipiv=[ip.copy() for ip in pivots.ipiv],
            info=pivots.info.copy(),
            n_replaced=ctrl.n_replaced.copy(),
            min_pivot=ctrl.min_pivot.copy(),
            growth=ctrl.growth.copy())

    prog = WorkloadProgram(device, "getrf", signature, steps,
                           inputs={"a": buf.stage}, optional=set(),
                           collect=collect, buffers=[arena], engine=eng,
                           arena=arena)
    prog.factor_batch = buf.batch
    prog._verifier = lambda: _program_factor_check(
        buf.batch.matrix, buf.staged_matrix, pivots, len(shapes), dt)
    return prog


def _compile_getrf_interleaved(device, shapes, dt, lu_kwargs, eng,
                               signature) -> WorkloadProgram:
    """Lower a uniform small single-panel getrf to one persistent
    struct-of-arrays launch (bitwise identical to the bucketed engine's
    panel launch, including cost and diagnostics)."""
    m, n = shapes[0]
    bs = len(shapes)
    nb = lu_kwargs.get("nb", "auto")
    nb = DEFAULT_PANEL_WIDTH if nb == "auto" else int(nb)
    ib = min(nb, n)          # == n: single panel
    npiv = n
    smem = panel_shared_bytes(m, 0, ib, dt.itemsize)
    peak_scale = peak_scale_for(dt)
    itemsize = dt.itemsize

    arena = _Arena(device, dt, m * n * bs)
    buf = _InterleavedBuffer(device, m, n, bs, dt, arena=arena)
    pivots = _LoweredPivots(
        bs, min(m, n), dt,
        pivot_tol=lu_kwargs.get("pivot_tol", 0.0),
        static_pivot=lu_kwargs.get("static_pivot", False),
        replace_scale=lu_kwargs.get("replace_scale"))
    ctrl = pivots.ctrl
    tiny = float(np.finfo(dt).tiny)
    data = buf.dev.data

    def kernel() -> KernelCost:
        # the scalar elimination's elementwise ops on the same values,
        # vectorized in place over the persistent interleaved array
        # instead of copied through the engine's per-call slab scratch.
        ipiv, nz_counts, first_bad, n_rep, min_p = interleaved_lu_core(
            data, npiv, thresh=ctrl.thresh, repl=ctrl.repl)
        for b in range(bs):
            pivots.ipiv[b][0:npiv] = ipiv[:, b]
            if first_bad[b] and pivots.info[b] == 0:
                pivots.info[b] = int(first_bad[b])
        ctrl.n_replaced += n_rep
        np.minimum(ctrl.min_pivot, min_p, out=ctrl.min_pivot)
        flops = 0
        for c in range(npiv):
            cnt = int(nz_counts[c])
            if cnt and c + 1 < m:
                flops += cnt * (m - c - 1)
                if c + 1 < n:
                    flops += 2 * cnt * (m - c - 1) * (n - c - 1)
        nbytes = float(bs * m * n) * itemsize
        return KernelCost(
            flops=float(flops), bytes_read=nbytes, bytes_written=nbytes,
            blocks=max(bs, 1), threads_per_block=256,
            shared_mem_per_block=smem, kernel_class="getf2",
            compute_ramp=min(1.0, ib / 16.0),
            peak_scale=peak_scale)

    steps: list = [
        _HostStep(lambda: _reset_pivots(pivots, buf.seg_abs_max(), tiny)),
        _LaunchStep("irrgetf2", kernel, outputs=lambda: [data]),
        _HostStep(lambda: _growth_epilogue(buf, ctrl)),
    ]

    def collect(download: bool) -> ProgramResult:
        if download:
            arena.account_download(buf.nbytes)
        return ProgramResult(
            factors=buf.download(account=False) if download else None,
            ipiv=[ip.copy() for ip in pivots.ipiv],
            info=pivots.info.copy(),
            n_replaced=ctrl.n_replaced.copy(),
            min_pivot=ctrl.min_pivot.copy(),
            growth=ctrl.growth.copy())

    prog = WorkloadProgram(device, "getrf", signature, steps,
                           inputs={"a": buf.stage}, optional=set(),
                           collect=collect, buffers=[arena], engine=eng,
                           arena=arena)
    # the interleaved struct-of-arrays lowering has no IrrBatch view
    prog.factor_batch = getattr(buf, "batch", None)
    prog._verifier = lambda: _program_factor_check(
        lambda b: data[:, :, b], buf.staged_matrix, pivots, bs, dt)
    return prog


# -- getrs -------------------------------------------------------------
def _compile_getrs(device, shapes, rhs_shapes, dt, eng, fuse,
                   fuse_window) -> WorkloadProgram:
    shapes = _check_shapes(shapes, "getrs")
    if rhs_shapes is None:
        raise CompileError("getrs compilation requires rhs_shapes")
    rhs_shapes = _check_shapes(rhs_shapes, "getrs rhs")
    if len(rhs_shapes) != len(shapes):
        raise CompileError("getrs needs one rhs shape per matrix")
    for i, ((m, n), (rm, _rn)) in enumerate(zip(shapes, rhs_shapes)):
        if m != n:
            raise CompileError(f"getrs matrix {i} is not square: {m}x{n}")
        if rm != n:
            raise CompileError(
                f"getrs rhs {i} has {rm} rows for order {n}")
    signature = ("getrs", dt.str, tuple(shapes), tuple(rhs_shapes))

    arena = _Arena(device, dt,
                   sum(m * n for (m, n) in rhs_shapes)
                   + sum(m * n for (m, n) in shapes))
    # RHS first: the downloaded solutions occupy one leading range
    b_buf = _PackedBuffer(device, rhs_shapes, dt, arena=arena)
    a_buf = _PackedBuffer(device, shapes, dt, arena=arena)
    a_buf.load([_synthetic_lu(m, n, dt) for (m, n) in shapes],
               label="compile")
    b_buf.load([np.ones(s, dtype=dt) for s in rhs_shapes], label="compile")
    view = _PivotView([np.arange(n, dtype=np.int64) for (_m, n) in shapes],
                      np.zeros(len(shapes), dtype=np.int64))
    rec = _Recorder(device)
    with rec:
        irr_getrs(device, a_buf.batch, view, b_buf.batch, engine=eng)
    steps: list = list(rec.take())
    device.synchronize()
    steps = _maybe_fuse(steps, fuse, fuse_window)

    def load_ipiv(ipiv_list) -> None:
        if len(ipiv_list) != len(shapes):
            raise PayloadMismatch(
                f"ipiv: expected {len(shapes)} vectors, "
                f"got {len(ipiv_list)}")
        for i, ip in enumerate(ipiv_list):
            arr = np.asarray(ip, dtype=np.int64)
            if arr.shape != (shapes[i][1],):
                raise PayloadMismatch(
                    f"ipiv[{i}]: expected {shapes[i][1]} pivots, "
                    f"got shape {arr.shape}")
            view.ipiv[i] = arr
        view.__dict__.pop("_rehearsal", None)

    def load_info(info) -> None:
        # replicate irr_getrs's check_info on caller-provided codes
        # (None — the default — means clean factors).
        view.info[...] = 0
        if info is None:
            return
        codes = np.asarray(info, dtype=np.int64)
        if codes.shape != (len(shapes),):
            raise PayloadMismatch(
                f"info: expected {len(shapes)} codes, got {codes.shape}")
        if np.any(codes != 0):
            bad = np.nonzero(codes != 0)[0]
            raise FactorizationError(
                _GETRS_BROKEN_MSG.format(bad=bad.tolist()))

    inputs = {"info": load_info, "ipiv": load_ipiv, "a": a_buf.stage,
              "b": b_buf.stage}

    def collect(download: bool) -> ProgramResult:
        if download:
            arena.account_download(b_buf.nbytes)
        return ProgramResult(
            solutions=b_buf.download(account=False) if download else None)

    return WorkloadProgram(device, "getrs", signature, steps,
                           inputs=inputs, optional={"info"},
                           collect=collect, buffers=[arena],
                           engine=eng, arena=arena)


# -- factor + solve pipeline -------------------------------------------
def _compile_factor_solve(device, shapes, rhs_shapes, dt, lu_kwargs, eng,
                          solve_grouping, fuse, fuse_window
                          ) -> WorkloadProgram:
    shapes = _check_shapes(shapes, "factor_solve")
    if rhs_shapes is None:
        raise CompileError("factor_solve compilation requires rhs_shapes "
                           "(entries may be None for factor-only members)")
    if len(rhs_shapes) != len(shapes):
        raise CompileError("factor_solve needs one rhs entry per matrix")
    if solve_grouping not in ("batch", "order_class"):
        raise CompileError(f"unknown solve_grouping {solve_grouping!r}")
    rhs_norm: list[tuple[int, int] | None] = []
    for i, rs in enumerate(rhs_shapes):
        if rs is None:
            rhs_norm.append(None)
            continue
        (m, n) = shapes[i]
        if m != n:
            raise CompileError(
                f"factor_solve member {i} has an RHS but a non-square "
                f"matrix {m}x{n}")
        rm, rn = int(rs[0]), int(rs[1])
        if rm != n:
            raise CompileError(
                f"factor_solve rhs {i} has {rm} rows for order {n}")
        rhs_norm.append((rm, rn))
    sel = [i for i, rs in enumerate(rhs_norm) if rs is not None]
    signature = ("factor_solve", dt.str, tuple(shapes), tuple(rhs_norm),
                 tuple(sorted(lu_kwargs.items())), solve_grouping)

    arena = _Arena(device, dt,
                   sum(m * n for (m, n) in shapes)
                   + sum(m * n for rs in rhs_norm if rs is not None
                         for (m, n) in [rs]))
    a_buf = _PackedBuffer(device, shapes, dt, arena=arena)
    a_buf.load([_synthetic_lu(m, n, dt) for (m, n) in shapes],
               label="compile")
    rec = _Recorder(device)
    with rec:
        pivots = irr_getrf(device, a_buf.batch, engine=eng, **lu_kwargs)
    factor_launches = rec.take()
    tiny = float(np.finfo(dt).tiny)
    ctrl = pivots.ctrl
    steps: list = [_HostStep(lambda: _reset_pivots(
        pivots, a_buf.seg_abs_max(), tiny))]
    steps.extend(factor_launches)
    if factor_launches:
        steps.append(_HostStep(lambda: _growth_epilogue(a_buf, ctrl)))

    views: list[_PivotView] = []
    rhs_bufs: list[tuple[_PackedBuffer, list[int]]] = []
    if sel:
        guard_idx = np.asarray(sel, dtype=np.int64)

        def guard() -> None:
            if np.any(pivots.info[guard_idx] != 0):
                bad = guard_idx[pivots.info[guard_idx] != 0]
                raise GuardTripped(
                    f"pivot breakdown during compiled replay (matrices "
                    f"{bad.tolist()}); the recorded solve schedule "
                    f"assumes clean factors — fall back to the bucketed "
                    f"path for this payload", info=pivots.info.copy())

        steps.append(_GuardStep(guard))

        if solve_grouping == "batch":
            groups = [list(sel)]
        else:
            # the serving layer's TRSM order classes, ascending
            by_order: dict[int, list[int]] = {}
            for i in sel:
                order = shapes[i][1]
                ocls = order if order > TRSM_BASE_NB else 0
                by_order.setdefault(ocls, []).append(i)
            groups = [by_order[c] for c in sorted(by_order)]

        for idxs in groups:
            rbuf = _PackedBuffer(device, [rhs_norm[i] for i in idxs], dt,
                                 arena=arena)
            rbuf.load([np.ones(rhs_norm[i], dtype=dt) for i in idxs],
                      label="compile")
            rhs_bufs.append((rbuf, idxs))
            if solve_grouping == "batch" and len(idxs) == len(shapes):
                carrier = pivots           # the plain-pipeline parity case
            else:
                fsub = IrrBatch(device,
                                [a_buf.batch.arrays[i] for i in idxs],
                                a_buf.batch.m_vec[np.asarray(idxs)],
                                a_buf.batch.n_vec[np.asarray(idxs)])
                carrier = _PivotView(
                    [pivots.ipiv[i] for i in idxs],
                    pivots.info[np.asarray(idxs)])
                views.append(carrier)
            with rec:
                if carrier is pivots:
                    irr_getrs(device, a_buf.batch, pivots, rbuf.batch,
                              engine=eng, check_info=False)
                else:
                    irr_getrs(device, fsub, carrier, rbuf.batch,
                              engine=eng, check_info=False)
            steps.extend(rec.take())
    device.synchronize()

    if views:
        def drop_view_memos() -> None:
            for v in views:
                v.__dict__.pop("_rehearsal", None)
        steps.insert(0, _HostStep(drop_view_memos))
    steps = _maybe_fuse(steps, fuse, fuse_window)

    def load_rhs(b_list) -> None:
        if len(b_list) != len(shapes):
            raise PayloadMismatch(
                f"b: expected {len(shapes)} entries (None for factor-only "
                f"members), got {len(b_list)}")
        for i, b in enumerate(b_list):
            if (b is None) != (rhs_norm[i] is None):
                raise PayloadMismatch(
                    f"b[{i}]: rhs presence does not match the compiled "
                    f"signature")
        for rbuf, idxs in rhs_bufs:
            rbuf.stage([b_list[i] for i in idxs], label="b")

    inputs = {"a": a_buf.stage, "b": load_rhs}

    def collect(download: bool) -> ProgramResult:
        solutions: list = [None] * len(shapes)
        if download:
            # factors + every solution group live in one allocation:
            # one packed D2H transfer brings the whole arena back
            arena.account_download(
                a_buf.nbytes + sum(rb.nbytes for rb, _ in rhs_bufs))
            for rbuf, idxs in rhs_bufs:
                xs = rbuf.download(account=False)
                for i, x in zip(idxs, xs):
                    solutions[i] = x
        return ProgramResult(
            factors=a_buf.download(account=False) if download else None,
            ipiv=[ip.copy() for ip in pivots.ipiv],
            info=pivots.info.copy(),
            n_replaced=ctrl.n_replaced.copy(),
            min_pivot=ctrl.min_pivot.copy(),
            growth=ctrl.growth.copy(),
            solutions=solutions)

    prog = WorkloadProgram(device, "factor_solve", signature, steps,
                           inputs=inputs, optional=set(), collect=collect,
                           buffers=[arena], engine=eng, arena=arena)
    prog.factor_batch = a_buf.batch

    def verifier() -> int | None:
        bad = _program_factor_check(a_buf.batch.matrix,
                                    a_buf.staged_matrix, pivots,
                                    len(shapes), dt)
        if bad is not None:
            return bad
        for rbuf, idxs in rhs_bufs:
            pos = {i: p for p, i in enumerate(idxs)}
            bad = _program_solve_check(
                a_buf.staged_matrix,
                lambda i, rb=rbuf, pp=pos: rb.staged_matrix(pp[i]),
                lambda i, rb=rbuf, pp=pos: rb.batch.matrix(pp[i]),
                pivots, idxs, dt)
            if bad is not None:
                return bad
        return None

    prog._verifier = verifier
    return prog


# -- trsm / gemm -------------------------------------------------------
def _compile_trsm(device, shapes, rhs_shapes, dt, op_kwargs, eng, fuse,
                  fuse_window) -> WorkloadProgram:
    shapes = _check_shapes(shapes, "trsm")
    if rhs_shapes is None:
        raise CompileError("trsm compilation requires rhs_shapes")
    rhs_shapes = _check_shapes(rhs_shapes, "trsm rhs")
    if len(rhs_shapes) != len(shapes):
        raise CompileError("trsm needs one rhs shape per matrix")
    side = op_kwargs.pop("side", "L")
    uplo = op_kwargs.pop("uplo", "L")
    transa = op_kwargs.pop("transa", "N")
    diag = op_kwargs.pop("diag", "N")
    alpha = op_kwargs.pop("alpha", 1.0)
    if op_kwargs:
        raise CompileError(f"unknown trsm options {sorted(op_kwargs)}")
    m_req = max((m for (m, _n) in rhs_shapes), default=0)
    n_req = max((n for (_m, n) in rhs_shapes), default=0)
    signature = ("trsm", dt.str, tuple(shapes), tuple(rhs_shapes),
                 (side, uplo, transa, diag, float(np.real(alpha)),
                  float(np.imag(alpha))))

    arena = _Arena(device, dt,
                   sum(m * n for (m, n) in rhs_shapes)
                   + sum(m * n for (m, n) in shapes))
    b_buf = _PackedBuffer(device, rhs_shapes, dt, arena=arena)
    a_buf = _PackedBuffer(device, shapes, dt, arena=arena)
    a_buf.load([_synthetic_lu(m, n, dt) for (m, n) in shapes],
               label="compile")
    b_buf.load([np.ones(s, dtype=dt) for s in rhs_shapes], label="compile")
    rec = _Recorder(device)
    with rec:
        irr_trsm(device, side, uplo, transa, diag, m_req, n_req, alpha,
                 a_buf.batch, (0, 0), b_buf.batch, (0, 0), engine=eng)
    steps = _maybe_fuse(list(rec.take()), fuse, fuse_window)
    device.synchronize()

    def collect(download: bool) -> ProgramResult:
        if download:
            arena.account_download(b_buf.nbytes)
        return ProgramResult(
            solutions=b_buf.download(account=False) if download else None)

    return WorkloadProgram(device, "trsm", signature, steps,
                           inputs={"a": a_buf.stage, "b": b_buf.stage},
                           optional=set(), collect=collect,
                           buffers=[arena], engine=eng, arena=arena)


def _compile_gemm(device, shapes, dt, op_kwargs, eng, fuse,
                  fuse_window) -> WorkloadProgram:
    triples = []
    for t in shapes:
        sa, sb, sc = t
        triples.append((_check_shapes([sa], "gemm A")[0],
                        _check_shapes([sb], "gemm B")[0],
                        _check_shapes([sc], "gemm C")[0]))
    transa = op_kwargs.pop("transa", "N")
    transb = op_kwargs.pop("transb", "N")
    alpha = op_kwargs.pop("alpha", 1.0)
    beta = op_kwargs.pop("beta", 1.0)
    if op_kwargs:
        raise CompileError(f"unknown gemm options {sorted(op_kwargs)}")
    m_req = max((c[0] for (_a, _b, c) in triples), default=0)
    n_req = max((c[1] for (_a, _b, c) in triples), default=0)
    if transa == "N":
        k_req = max((a[1] for (a, _b, _c) in triples), default=0)
    else:
        k_req = max((a[0] for (a, _b, _c) in triples), default=0)
    signature = ("gemm", dt.str, tuple(triples),
                 (transa, transb, float(np.real(alpha)),
                  float(np.imag(alpha)), float(np.real(beta)),
                  float(np.imag(beta))))

    arena = _Arena(device, dt,
                   sum(t[0][0] * t[0][1] + t[1][0] * t[1][1]
                       + t[2][0] * t[2][1] for t in triples))
    c_buf = _PackedBuffer(device, [t[2] for t in triples], dt, arena=arena)
    a_buf = _PackedBuffer(device, [t[0] for t in triples], dt, arena=arena)
    b_buf = _PackedBuffer(device, [t[1] for t in triples], dt, arena=arena)
    a_buf.load([np.ones(t[0], dtype=dt) for t in triples], label="compile")
    b_buf.load([np.ones(t[1], dtype=dt) for t in triples], label="compile")
    c_buf.load([np.zeros(t[2], dtype=dt) for t in triples],
               label="compile")
    rec = _Recorder(device)
    with rec:
        irr_gemm(device, transa, transb, m_req, n_req, k_req, alpha,
                 a_buf.batch, (0, 0), b_buf.batch, (0, 0), beta,
                 c_buf.batch, (0, 0), engine=eng)
    steps = _maybe_fuse(list(rec.take()), fuse, fuse_window)
    device.synchronize()

    def collect(download: bool) -> ProgramResult:
        if download:
            arena.account_download(c_buf.nbytes)
        return ProgramResult(
            solutions=c_buf.download(account=False) if download else None)

    return WorkloadProgram(device, "gemm", signature, steps,
                           inputs={"a": a_buf.stage, "b": b_buf.stage,
                                   "c": c_buf.stage},
                           optional=set(), collect=collect,
                           buffers=[arena], engine=eng, arena=arena)
