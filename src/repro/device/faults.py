"""Deterministic fault injection for the simulated device pipeline.

Real GPU runs fail in ways correctness tests never exercise: an
allocation that succeeds on one traversal and fails on the next, a DMA
transfer that lands with a flipped bit, a kernel launch the runtime
rejects, a stream that stalls behind an unrelated tenant.  This module
makes those failures *first-class, seeded inputs* so the recovery
machinery in the solver stack can be driven — and proven bitwise-safe —
under any schedule.

Model
-----
A :class:`FaultPlan` is a pure value: a tuple of :class:`FaultRule`
entries plus a seed.  Installing it on a device::

    with device.fault_scope(FaultPlan([
            FaultRule("alloc", at=3),                  # 4th alloc fails once
            FaultRule("h2d", probability=0.05),        # 5% corrupted uploads
            FaultRule("launch", match="irrgemm", at=0),
            FaultRule("stall", at=2, stall=1e-3),
    ], seed=7)) as injector:
        ...

creates a :class:`FaultInjector` that the device consults at each fault
site (allocation, H2D/D2H transfer, kernel launch).  The injector keeps
one operation counter per fault kind; a rule fires positionally
(``at``/``times``) or probabilistically (``probability``, drawn from the
plan's seeded generator).  The full fault schedule is therefore a pure
function of ``(seed, rules, operation sequence)`` — re-running the same
program against the same plan reproduces the same faults, which is what
makes chaos tests assertable.

Fault kinds
-----------
``alloc``
    The allocation raises
    :class:`~repro.device.memory.DeviceOutOfMemory` *before* any bytes
    are claimed.  ``times=1`` models a transient spike (a retry
    succeeds); ``times=PERSISTENT`` models true exhaustion.
``h2d`` / ``d2h``
    One bit of the transferred payload is flipped after the copy.  With
    transfer verification enabled (the default inside a fault scope)
    the checksum mismatch is detected and the transfer retried; a
    persistent rule exhausts the retry budget into a typed
    :class:`~repro.errors.TransferError`.
``launch``
    :class:`~repro.errors.KernelLaunchError` is raised before the
    kernel's numerics run, so no device state changes — retrying the
    launch (or the enclosing level transaction) is always safe.
``stall``
    The target stream's next kernels are delayed by ``stall`` simulated
    seconds (timing-only: numerics are unaffected).
``corrupt``
    One element of a *completed* launch's output buffer is overwritten
    with a scale-dominant wrong value after the kernel's numerics ran —
    silent data corruption, invisible to launch/transfer checking.
    Only launches that register their outputs (the batched GETRF /
    TRSM / GEMM drivers do) are corrupt
    sites; the ABFT checksum layer (:mod:`repro.batched.abft`) detects
    the damage when kernel verification is on (the default inside a
    fault scope whose plan carries corrupt rules).  The perturbation is
    deliberately large relative to the buffer's magnitude so
    tolerance-based detection can never miss it — the *detectability*
    of low-order bit flips is a different (ABFT-theoretic) question
    than the recovery machinery exercised here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..errors import KernelLaunchError
from .memory import DeviceOutOfMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Device
    from .stream import Stream

__all__ = ["FaultRule", "FaultPlan", "FaultInjector", "PERSISTENT",
           "FAULT_KINDS"]

#: ``times=PERSISTENT`` makes a rule fire on every matching operation.
PERSISTENT = -1

FAULT_KINDS = ("alloc", "h2d", "d2h", "launch", "stall", "corrupt")

#: magnitude of an injected output corruption, as a multiple of
#: ``1 + max|output|``: dominant over any rounding-error tolerance the
#: ABFT checks use, so an injected corruption is always detectable.
CORRUPT_MAGNITUDE = 1e3


@dataclass(frozen=True)
class FaultRule:
    """One seeded fault source.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Fire at the ``at``-th *matching* operation (0-based; each rule
        counts the operations of its kind that pass its ``match``
        filter, so ``FaultRule("alloc", at=0, match="pack")`` means "the
        first pack allocation", however many other allocations precede
        it).  ``None`` disables positional firing (use ``probability``).
    times:
        How many consecutive matching operations fire starting at
        ``at`` (default 1 = transient).  :data:`PERSISTENT` fires
        forever — an unrecoverable fault.
    probability:
        Per-operation Bernoulli firing probability drawn from the
        plan's seeded generator (used when ``at`` is ``None``).
    match:
        Substring filter on the site label (kernel name, transfer
        site); ``""`` matches everything.
    stall:
        Stall duration in simulated seconds (``kind="stall"`` only).
    """

    kind: str
    at: int | None = None
    times: int = 1
    probability: float = 0.0
    match: str = ""
    stall: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.at is None and self.probability <= 0.0:
            raise ValueError(
                f"rule {self.kind!r} needs a position (at=) or a "
                f"probability (> 0)")
        if self.at is not None and self.at < 0:
            raise ValueError("at must be >= 0")
        if self.times == 0 or self.times < PERSISTENT:
            raise ValueError("times must be >= 1 or PERSISTENT (-1)")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.kind == "stall" and self.stall <= 0.0:
            raise ValueError("stall rules need stall > 0 seconds")

    def fires_at(self, index: int) -> bool:
        """Positional firing test for the ``index``-th matching op."""
        if self.at is None:
            return False
        if index < self.at:
            return False
        return self.times == PERSISTENT or index < self.at + self.times


class FaultPlan:
    """An immutable, seeded fault schedule specification.

    The pair ``(rules, seed)`` fully determines the fault schedule for
    any given program: two runs of the same code under the same plan
    observe identical faults.
    """

    def __init__(self, rules: Iterable[FaultRule], *, seed: int = 0):
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        for r in self.rules:
            if not isinstance(r, FaultRule):
                raise TypeError(f"expected FaultRule, got {type(r).__name__}")
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(r.kind for r in self.rules)
        return f"FaultPlan([{kinds}], seed={self.seed})"


@dataclass
class InjectedFault:
    """Record of one fault the injector actually fired (for assertions)."""

    kind: str
    site: str
    index: int        #: per-kind operation index at which it fired


class FaultInjector:
    """Executes a :class:`FaultPlan` against a device's fault sites.

    One injector instance tracks per-kind operation counters and the
    plan's seeded generator; install it with
    :meth:`~repro.device.simulator.Device.fault_scope`.  The ``injected``
    list records every fault fired, so tests can assert the schedule
    (and the recovery log) precisely.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.counters: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._rule_counts: dict[int, int] = {}
        self.injected: list[InjectedFault] = []

    # ------------------------------------------------------------------
    def _fire(self, kind: str, site: str) -> FaultRule | None:
        """Advance the ``kind`` counter; return the first firing rule.

        Positional rules index into their *own* matched-operation count,
        so ``match`` narrows both which sites a rule can hit and how its
        ``at`` position is counted.
        """
        index = self.counters[kind]
        self.counters[kind] = index + 1
        hit = None
        for ri, rule in enumerate(self.plan.rules):
            if rule.kind != kind or rule.match not in site:
                continue
            matched = self._rule_counts.get(ri, 0)
            self._rule_counts[ri] = matched + 1
            if rule.at is not None:
                fired = rule.fires_at(matched)
            else:
                # one deterministic draw per matching probabilistic rule
                fired = self.rng.random() < rule.probability
            if fired and hit is None:
                hit = rule
        if hit is not None:
            self.injected.append(InjectedFault(kind, site, index))
        return hit

    # -- fault sites (called by the device layer) ----------------------
    def on_alloc(self, device: "Device", nbytes: int, site: str) -> None:
        """Allocation site: may raise an injected out-of-memory."""
        if self._fire("alloc", site) is not None:
            raise DeviceOutOfMemory(
                f"{device.spec.name}: injected allocation failure of "
                f"{nbytes} bytes at {site!r}")

    def on_transfer(self, direction: str, data: np.ndarray,
                    site: str) -> bool:
        """Transfer site: may flip one bit of ``data`` in place.

        Returns True when a corruption was injected.  The flip position
        is drawn from the seeded generator, so the corruption pattern is
        part of the reproducible schedule.
        """
        if self._fire(direction, site) is None or data.size == 0:
            return False
        idx = int(self.rng.integers(data.size))
        bit = int(self.rng.integers(8 * data.dtype.itemsize))
        raw = bytearray(np.asarray(data.flat[idx]).tobytes())
        raw[bit // 8] ^= 1 << (bit % 8)
        data.flat[idx] = np.frombuffer(bytes(raw), dtype=data.dtype)[0]
        return True

    def on_launch(self, device: "Device", name: str,
                  stream: "Stream") -> None:
        """Launch site: may raise a launch failure or stall the stream.

        Called before the kernel's function runs, so an injected
        failure leaves device memory untouched.
        """
        rule = self._fire("launch", name)
        if rule is not None:
            raise KernelLaunchError(name, "injected launch failure")
        rule = self._fire("stall", name)
        if rule is not None:
            stream.pending_stall += rule.stall
            device.profiler.note_stall(rule.stall)

    def on_kernel_output(self, name: str,
                         outputs: Sequence[np.ndarray]) -> bool:
        """Output site: may corrupt one element of a completed launch.

        Called after the kernel's numerics ran, with the output arrays
        the launch registered.  A firing ``corrupt`` rule overwrites
        one seeded element of one seeded output with a value
        :data:`CORRUPT_MAGNITUDE` times the buffer's magnitude — the
        silent-data-corruption model the ABFT checks exist for.
        Returns True when a corruption was injected.
        """
        rule = self._fire("corrupt", name)
        if rule is None:
            return False
        arrs = [a for a in (np.asarray(getattr(o, "data", o))
                            for o in outputs) if a.size]
        if not arrs:
            return False
        a = arrs[int(self.rng.integers(len(arrs)))]
        idx = int(self.rng.integers(a.size))
        scale = CORRUPT_MAGNITUDE * (1.0 + float(np.max(np.abs(a))))
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        a.flat[idx] = a.dtype.type(sign * scale)
        return True

    # -- inspection ----------------------------------------------------
    @property
    def has_corrupt_rules(self) -> bool:
        """Whether the plan carries any ``corrupt`` rule (drives the
        device's automatic kernel-verification enablement)."""
        return any(r.kind == "corrupt" for r in self.plan.rules)

    @property
    def n_injected(self) -> int:
        return len(self.injected)

    def injected_of(self, kind: str) -> list[InjectedFault]:
        return [f for f in self.injected if f.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultInjector({self.plan!r}, "
                f"injected={self.n_injected})")
