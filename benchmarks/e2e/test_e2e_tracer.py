"""Tracer tests: self-time arithmetic, clean restore, boundary coverage.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer
from tracer import Span, chrome_trace, layer_totals, self_times

HERE = Path(__file__).resolve().parent

_SPARSE = {
    "repro.fem.maxwell:MaxwellProblem.build",
    "repro.fem.maxwell:MaxwellProblem.reduced_system",
    "repro.sparse.ordering.nested_dissection:nested_dissection",
    "repro.sparse.symbolic.analysis:symbolic_analysis",
    "repro.sparse.solver:SparseLU.analyze",
    "repro.sparse.solver:SparseLU.factor",
    "repro.sparse.solver:SparseLU.solve",
    "repro.sparse.solver:SparseLU.update_values",
    "repro.sparse.numeric.gpu_solve:multifrontal_solve_gpu",
    "repro.sparse.numeric.solve_plan:SolvePlan.__init__",
    "repro.sparse.numeric.solve_plan:DeviceFactorCache.__init__",
    "repro.device.memory:pack_to_device",
}
_KERNELS = {
    "repro.batched.getrf:irr_getrf",
    "repro.batched.panel:fused_getf2",
    "repro.batched.laswp:irr_laswp",
    "repro.batched.trsm:irr_trsm",
    "repro.batched.gemm:irr_gemm",
    "repro.device.simulator:Device.launch",
    "repro.device.simulator:Device.synchronize",
    "repro.device.simulator:Device.from_host",
    "repro.device.memory:DeviceArray.copy_from_host",
}
#: boundaries each workload is predicted to cross at least once
EXPECTED = {
    "maxwell-timestep": _SPARSE | _KERNELS | {
        "repro.sparse.numeric.gpu_factor:multifrontal_factor_gpu"},
    "maxwell-sharded4": _SPARSE | _KERNELS | {
        "repro.sparse.numeric.shard:multifrontal_factor_sharded"},
    "fig10-batch": _KERNELS | {
        "repro.batched.getrs:irr_getrs",
        "repro.batched.interface:IrrBatch.from_host",
        "repro.batched.interface:IrrBatch.to_host"},
    "serve-mixed": _KERNELS | {
        "repro.batched.getrs:irr_getrs",
        "repro.batched.interface:IrrBatch.from_host_packed",
        "repro.batched.interface:IrrBatch.to_host",
        "repro.serve.service:SolverService.submit_factor",
        "repro.serve.service:SolverService.submit_factor_solve",
        "repro.serve.service:SolverService._safe_dispatch",
        "repro.workloads.traffic:run_mix",
        "repro.workloads.traffic:_payload"},
}


def span(id, parent, t0, t1, layer="x", name="x"):
    s = Span(id, parent, layer, name, t0)
    s.t1 = t1
    return s


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),     # overlaps child 2 on [3, 4]
        span(2, 0, 3.0, 6.0),
        span(3, 1, 2.0, 3.0),     # grandchild: charged to span 1 only
        span(4, 0, 9.0, 12.0),    # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span(7, None, 2.5, 4.0)]) == {7: pytest.approx(1.5)}


def _bindings():
    """Every object a boundary wrap may replace, by identity slot."""
    out = {}
    for _, modname, path in tracer.BOUNDARIES:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            owner = next(k for k in cls.__mro__ if attr in vars(k))
            out[(owner, attr)] = vars(owner)[attr]
        else:
            orig = getattr(module, attr)
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and mod is not None:
                    for key, value in vars(mod).items():
                        if value is orig:
                            out[(mod, key)] = value
    return out


def test_wrap_then_restore_leaves_every_attribute_identical():
    before = _bindings()
    tr = tracer.Tracer()
    with tr.active():
        assert tr.missing == []
        replaced = [k for k, v in before.items() if vars(k[0])[k[1]] is not v]
        assert len(replaced) == len(before)
    assert all(vars(owner)[attr] is value
               for (owner, attr), value in before.items())


def test_spans_carry_both_clocks_and_kernel_bodies():
    import repro.batched as rb
    from repro.device import A100, Device

    dev = Device(A100())
    rng = np.random.default_rng(0)
    batch = rb.IrrBatch.from_host(dev, [rng.standard_normal((n, n))
                                        for n in (3, 40, 17)])
    tr = tracer.Tracer()
    with tr.active():
        rb.irr_getrf(dev, batch)
        dev.synchronize()
    batch.free()
    getrf = next(s for s in tr.spans if s.layer == "batched.getrf")
    assert getrf.parent is None and getrf.sim1 >= getrf.sim0 >= 0.0
    bodies = [s for s in tr.spans if s.layer == tracer.KERNEL_BODY]
    launches = {s.id: s for s in tr.spans if s.layer == "device.launch"}
    assert bodies and all(b.parent in launches for b in bodies)
    totals = layer_totals(tr.spans)
    assert totals["device.launch"]["calls"] == len(bodies)
    assert totals["batched.panel"]["body_s"] > 0.0
    trace = json.loads(json.dumps(chrome_trace(tr.spans, tr.spans[0].t0)))
    assert len(trace["traceEvents"]) == len(tr.spans)
    assert {e["ph"] for e in trace["traceEvents"]} == {"X"}


def test_unknown_kernel_family_is_an_error():
    assert tracer.kernel_layer("irrgemm:schur") == "batched.gemm"
    with pytest.raises(KeyError):
        tracer.kernel_layer("mystery:kernel")


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_every_predicted_boundary_is_crossed(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    uncalled = {b for b in EXPECTED[workload] if not out["boundary_calls"][b]}
    assert not uncalled
    assert out["failed"] == 0
