"""Layer-attributed spans recorded from outside the library.

:class:`Tracer` wraps each layer's public functions and methods (the
``BOUNDARIES`` table) while it is active, records one :class:`Span` per
call, and restores every original object when it deactivates.  A span
carries the host clock (``time.perf_counter``) and the simulated clock
of the device its arguments name, at entry and at exit.

Module-level functions are replaced in *every* loaded ``repro`` module
that binds the same object (identity match), so ``from x import f``
copies are caught; methods are replaced on the class that defines them.
Kernel bodies are spans too: the wrapper around ``Device.launch``
replaces its ``fn`` argument with a timed copy, so launch bookkeeping
and kernel numerics are told apart.

A layer's *self* time is the duration of its spans minus the part of
each span that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer, module, attribute path) of every wrapped boundary.  Setup-only
#: layers (fem, ordering, symbolic) run once per set-up, the rest per op.
BOUNDARIES = (
    ("fem", "repro.fem.maxwell", "MaxwellProblem.build"),
    ("fem", "repro.fem.maxwell", "MaxwellProblem.reduced_system"),
    ("sparse.ordering", "repro.sparse.ordering.nested_dissection",
     "nested_dissection"),
    ("sparse.symbolic", "repro.sparse.symbolic.analysis",
     "symbolic_analysis"),
    ("sparse.solver", "repro.sparse.solver", "SparseLU.analyze"),
    ("sparse.solver", "repro.sparse.solver", "SparseLU.factor"),
    ("sparse.solver", "repro.sparse.solver", "SparseLU.solve"),
    ("sparse.solver", "repro.sparse.solver", "SparseLU.update_values"),
    ("sparse.numeric.factor", "repro.sparse.numeric.gpu_factor",
     "multifrontal_factor_gpu"),
    ("sparse.numeric.factor", "repro.sparse.numeric.shard",
     "multifrontal_factor_sharded"),
    ("sparse.numeric.solve", "repro.sparse.numeric.gpu_solve",
     "multifrontal_solve_gpu"),
    ("sparse.numeric.solve_setup", "repro.sparse.numeric.solve_plan",
     "SolvePlan.__init__"),
    ("sparse.numeric.solve_setup", "repro.sparse.numeric.solve_plan",
     "DeviceFactorCache.__init__"),
    ("batched.getrf", "repro.batched.getrf", "irr_getrf"),
    ("batched.getrs", "repro.batched.getrs", "irr_getrs"),
    ("batched.panel", "repro.batched.panel", "fused_getf2"),
    ("batched.panel", "repro.batched.panel", "columnwise_getf2"),
    ("batched.laswp", "repro.batched.laswp", "irr_laswp"),
    ("batched.trsm", "repro.batched.trsm", "irr_trsm"),
    ("batched.gemm", "repro.batched.gemm", "irr_gemm"),
    ("batched.gemm", "repro.batched.vendor", "vendor_gemm"),
    ("batched.io", "repro.batched.interface", "IrrBatch.from_host"),
    ("batched.io", "repro.batched.interface", "IrrBatch.from_host_packed"),
    ("batched.io", "repro.batched.interface", "IrrBatch.to_host"),
    ("device.launch", "repro.device.simulator", "Device.launch"),
    ("device.sync", "repro.device.simulator", "Device.synchronize"),
    ("device.transfer", "repro.device.simulator", "Device.from_host"),
    ("device.transfer", "repro.device.memory",
     "DeviceArray.copy_from_host"),
    ("device.transfer", "repro.device.memory", "DeviceArray.to_host"),
    ("device.transfer", "repro.device.memory", "pack_to_device"),
    ("serve.submit", "repro.serve.service", "SolverService.submit_factor"),
    ("serve.submit", "repro.serve.service",
     "SolverService.submit_factor_solve"),
    ("serve.dispatch", "repro.serve.service",
     "SolverService._safe_dispatch"),
    ("serve.replay", "repro.workloads.traffic", "run_mix"),
    ("workloads.gen", "repro.workloads.traffic", "_payload"),
)

#: layer of the spans around kernel bodies (the ``fn`` of a launch)
KERNEL_BODY = "device.kernel_body"

#: kernel-name family (text before the first ``:``) -> layer.  A kernel
#: outside this table fails the traced run, so simulated time is never
#: attributed silently to the wrong layer.
KERNEL_LAYERS = {
    "irrgetf2": "batched.panel",
    "irrpanel": "batched.panel",
    "irrlaswp": "batched.laswp",
    "irrswap": "batched.laswp",
    "laswp": "batched.laswp",
    "irrtrsm": "batched.trsm",
    "cublas_trsm": "batched.trsm",
    "irrgemm": "batched.gemm",
    "cublas_gemm": "batched.gemm",
    "irrgetrs": "batched.getrs",
    "assemble": "sparse.numeric.assemble",
    "solve": "sparse.numeric.solve",
    "breakdown": "sparse.numeric.factor",
}


def kernel_layer(name: str) -> str:
    """The layer a kernel name belongs to; ``KeyError`` if unknown."""
    family = name.split(":", 1)[0]
    try:
        return KERNEL_LAYERS[family]
    except KeyError:
        raise KeyError(f"kernel {name!r}: family {family!r} has no layer "
                       f"in KERNEL_LAYERS") from None


class Span:
    """One call across a layer boundary."""

    __slots__ = ("id", "parent", "layer", "name", "t0", "t1", "sim0",
                 "sim1", "attrs")

    def __init__(self, id, parent, layer, name, t0, sim0=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.sim0 = sim0
        self.sim1 = sim0
        self.attrs = None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span), so nested or overlapping children are each
    subtracted once."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(kids.get(s.id, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: ``calls``, ``self_s`` and, for transfer spans whose
    parent is not itself a transfer, ``bytes``; kernel bodies are also
    summed per kernel layer under ``body_s``."""
    spans = list(spans)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "body_s": 0.0, "bytes": 0})
    for s in spans:
        row = out[s.layer]
        row["calls"] += 1
        row["self_s"] += own[s.id]
        if s.layer == KERNEL_BODY:
            out[kernel_layer(s.name)]["body_s"] += own[s.id]
        elif s.layer == "device.transfer" and s.attrs:
            parent = by_id.get(s.parent)
            if parent is None or parent.layer != "device.transfer":
                row["bytes"] += s.attrs.get("bytes", 0)
    return dict(out)


def chrome_trace(spans, origin: float) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds),
    readable in chrome://tracing and Perfetto."""
    events = []
    for s in spans:
        args = {"id": s.id, "parent": s.parent}
        if s.sim0 is not None:
            args["sim_t0_ms"] = s.sim0 * 1e3
            args["sim_t1_ms"] = s.sim1 * 1e3
        if s.attrs:
            args.update(s.attrs)
        events.append({"name": s.name, "cat": s.layer, "ph": "X",
                       "ts": (s.t0 - origin) * 1e6,
                       "dur": (s.t1 - s.t0) * 1e6,
                       "pid": 1, "tid": 1, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _result_attrs(layer, result):
    if layer == "device.transfer":
        return {"bytes": int(getattr(result, "nbytes", 0))}
    if layer == "serve.dispatch":
        return {"sim_seconds": getattr(result, "sim_seconds", 0.0),
                "batch_size": getattr(result, "batch_size", 0)}
    return None


class Tracer:
    """Records spans at the ``BOUNDARIES`` while :meth:`active`."""

    def __init__(self):
        from repro.device import Device, Node
        self._device_cls, self._node_cls = Device, Node
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _sim_clock(self, args, kwargs):
        for a in (*args[:3], *kwargs.values()):
            if isinstance(a, self._device_cls):
                return a.host_time
            if isinstance(a, self._node_cls):
                return a.makespan
            dev = getattr(a, "device", None)
            if isinstance(dev, self._device_cls):
                return dev.host_time
        return None

    @contextmanager
    def span(self, layer: str, name: str, args=(), kwargs=None):
        kwargs = kwargs or {}
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None,
                  layer, name, time.perf_counter(),
                  self._sim_clock(args, kwargs))
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            sp.sim1 = self._sim_clock(args, kwargs)
            self._stack.pop()

    def _wrap(self, layer: str, fn, name: str):
        tracer = self
        launch = layer == "device.launch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if launch:
                args, kwargs = tracer._time_kernel_body(args, kwargs)
            with tracer.span(layer, name, args, kwargs) as sp:
                result = fn(*args, **kwargs)
                sp.attrs = _result_attrs(layer, result)
                return result
        return wrapper

    def _time_kernel_body(self, args, kwargs):
        """Replace ``Device.launch``'s ``fn`` with a copy timed as a
        kernel-body span named after the kernel."""
        name = args[1] if len(args) > 1 else kwargs.get("name")
        if len(args) > 2:
            fn, rest = args[2], None
        else:
            fn, rest = kwargs.get("fn"), kwargs
        if fn is None:
            return args, kwargs
        device = args[0]

        def body():
            with self.span(KERNEL_BODY, name, (device,)):
                return fn()
        if rest is None:
            return (*args[:2], body, *args[3:]), kwargs
        return args, dict(kwargs, fn=body)

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, modname, path in BOUNDARIES:
            try:
                module = importlib.import_module(modname)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name \
                    else module
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}:{path}")
                continue
            if owner is module:
                self._patch_function(layer, module, attr, path)
            else:
                self._patch_method(layer, owner, attr, path)

    def _patch_function(self, layer, module, attr, path) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}:{path}")
            return
        wrapper = self._wrap(layer, orig, path)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def _patch_method(self, layer, cls, attr, path) -> None:
        owner = next((k for k in cls.__mro__ if attr in vars(k)), None)
        if owner is None:
            self.missing.append(f"{cls.__module__}:{path}")
            return
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(layer, raw.__func__, path))
        else:
            new = self._wrap(layer, raw, path)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    @contextmanager
    def active(self):
        """Wrap every boundary for the duration of a block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
