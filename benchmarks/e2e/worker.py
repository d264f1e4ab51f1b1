"""Run one set-up and measurement of one workload; print raw samples.

``run.py`` starts one such process per set-up, so every ``setup_s``
sample is a cold start (imports included) and ``ru_maxrss`` is the
workload's own.  The last line of standard output is one JSON object
with the set-up time, every op's two-clock samples, the correctness
counts and, when traced, the per-layer metrics of the traced ops.

Usage::

    python benchmarks/e2e/worker.py --workload maxwell-timestep \\
        --seed 1 --rep 0 --seconds 3 [--trace 1] [--trace-dir DIR] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

#: layers timed per set-up rather than per op
SETUP_LAYERS = ("fem", "sparse.ordering", "sparse.symbolic")


class DeviceRegistry:
    """Records every simulated device created while it is installed, so
    devices built inside the library (a traffic replay's) are measured
    too."""

    def __init__(self, device_cls):
        self.devices = []
        self.tracking = True
        self._cls, self._init = device_cls, device_cls.__init__
        registry, init = self, self._init

        def tracked_init(dev, *args, **kwargs):
            init(dev, *args, **kwargs)
            if registry.tracking:
                registry.devices.append(dev)
        device_cls.__init__ = tracked_init

    @contextmanager
    def paused(self):
        self.tracking = False
        try:
            yield
        finally:
            self.tracking = True

    def close(self):
        self._cls.__init__ = self._init


def _device_state(dev):
    p = dev.profiler
    return (len(p.records), p.launch_count, p.transfer_count,
            p.transfer_time, p.host_launch_time, p.sync_wait_time,
            dev.host_time)


def device_delta(devices, before) -> dict:
    """Counters the devices accumulated since the ``before`` states
    (devices absent from ``before`` start from zero)."""
    out = {"launches": 0, "transfers": 0, "transfer_sim_s": 0.0,
           "launch_overhead_sim_s": 0.0, "sync_wait_sim_s": 0.0,
           "clock_s": 0.0, "kernel_s": 0.0, "flops": 0.0, "bytes": 0.0,
           "sim_by_layer": {}}
    for dev in devices:
        b = before.get(id(dev), (0, 0, 0, 0.0, 0.0, 0.0, 0.0))
        now = _device_state(dev)
        out["launches"] += now[1] - b[1]
        out["transfers"] += now[2] - b[2]
        out["transfer_sim_s"] += now[3] - b[3]
        out["launch_overhead_sim_s"] += now[4] - b[4]
        out["sync_wait_sim_s"] += now[5] - b[5]
        out["clock_s"] += now[6] - b[6]
        for rec in dev.profiler.records[b[0]:]:
            layer = tracer.kernel_layer(rec.name)
            out["sim_by_layer"][layer] = \
                out["sim_by_layer"].get(layer, 0.0) + rec.duration
            out["kernel_s"] += rec.duration
            out["flops"] += rec.cost.flops
            out["bytes"] += rec.cost.bytes_total
    return out


def layer_metrics(setup_spans, op_spans, deltas, units, stats) -> dict:
    """Per-layer metrics: setup layers per set-up, the rest per unit of
    work (``units`` = traced ops x units per op)."""
    per_setup = tracer.layer_totals(setup_spans)
    per_op = tracer.layer_totals(op_spans)
    empty = {"calls": 0, "self_s": 0.0, "body_s": 0.0, "bytes": 0}
    out = {}
    span_layers = [b[0] for b in tracer.BOUNDARIES]
    for layer in dict.fromkeys(span_layers + ["workload",
                                              tracer.KERNEL_BODY]):
        if layer in SETUP_LAYERS:
            row, n = per_setup.get(layer, empty), 1
        else:
            row, n = per_op.get(layer, empty), units
        out[f"{layer}.host_ms"] = row["self_s"] / n * 1e3
        out[f"{layer}.calls"] = row["calls"] / n
    sim = {}
    for d in deltas:
        for layer, s in d["sim_by_layer"].items():
            sim[layer] = sim.get(layer, 0.0) + s
    for layer in dict.fromkeys(tracer.KERNEL_LAYERS.values()):
        row = per_op.get(layer, empty)
        out[f"{layer}.body_ms"] = row["body_s"] / units * 1e3
        out[f"{layer}.sim_ms"] = sim.get(layer, 0.0) / units * 1e3

    def total(key):
        return sum(d[key] for d in deltas)
    launch = per_op.get("device.launch", empty)
    clock = total("clock_s")
    out.update({
        "device.launches": total("launches") / units,
        "device.launch_self_us":
            launch["self_s"] / launch["calls"] * 1e6 if launch["calls"]
            else 0.0,
        "device.transfers": total("transfers") / units,
        "device.transfer_mb":
            per_op.get("device.transfer", empty)["bytes"] / units / 1e6,
        "device.transfer_sim_ms": total("transfer_sim_s") / units * 1e3,
        "device.launch_overhead_sim_ms":
            total("launch_overhead_sim_s") / units * 1e3,
        "device.sync_wait_sim_ms": total("sync_wait_sim_s") / units * 1e3,
        "device.busy_frac": total("kernel_s") / clock if clock else 0.0,
        "device.kernel_gflop": total("flops") / units / 1e9,
        "device.kernel_gb": total("bytes") / units / 1e9,
    })
    dispatch = [s.attrs["sim_seconds"] for s in op_spans
                if s.layer == "serve.dispatch" and s.attrs]
    if dispatch:
        out["serve.exec_p50_ms"] = statistics.median(dispatch) * 1e3
    out.update(stats)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload](args.seed, args.rep, args.smoke)
    t_start = time.perf_counter()
    wl.load()
    registry = DeviceRegistry(wl.repro.device.Device)
    try:
        tr = tracer.Tracer() if args.trace else None
        with tr.active() if tr else nullcontext():
            wl.setup()
        setup_s = time.perf_counter() - t_start
        n_setup_spans = len(tr.spans) if tr else 0
        wl.verify()

        ops, deltas, stats_sum = [], [], {}
        t_meas = time.perf_counter()
        while len(ops) < wl.min_ops or \
                time.perf_counter() - t_meas < args.seconds:
            inputs = wl.prepare(len(ops))
            # traced and untraced ops alternate, so their host times
            # give the tracing overhead within one process
            traced = tr is not None and len(ops) % 2 == 0
            known = len(registry.devices)
            if traced:
                before = {id(d): _device_state(d) for d in registry.devices}
            with tr.active() if traced else nullcontext(), \
                    tr.span("workload", "op") if traced else nullcontext():
                sample = wl.run(inputs)
            sample["traced"] = traced
            # the op's own devices if it built any (a traffic replay),
            # else the long-lived ones it ran on
            used = registry.devices[known:] or registry.devices
            sample["peak_device_mb"] = max(
                d.peak_allocated_bytes for d in used) / 1e6
            if traced:
                deltas.append(device_delta(registry.devices, before))
                for k, v in wl.stats.items():
                    stats_sum[k] = stats_sum.get(k, 0.0) + v
            wl.verify()
            ops.append(sample)
        if args.rep == 0:
            with registry.paused():
                wl.run_once()
        wl.teardown()

        leaked = sum(d.allocated_bytes != 0 for d in registry.devices)
        events = sum(len(d.recovery_log) for d in registry.devices)
        failed = wl.failed + leaked + events
        errors = list(wl.errors)
        if leaked:
            errors.append(f"{leaked} devices not back at 0 allocated bytes")
        if events:
            errors.append(f"{events} recovery events in a fault-free run")
        out = {
            "workload": wl.name, "rep": args.rep, "setup_s": setup_s,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
            "attempted": wl.attempted, "failed": failed, "errors": errors,
            "min_ops": wl.min_ops, "ops": ops, "extras": wl.extras,
        }
        if tr is not None:
            n_traced = len(deltas)
            stats = {k: v / n_traced for k, v in stats_sum.items()}
            stats["recovery.events"] = events
            host = {t: [o["host_ms"] for o in ops if o["traced"] == t]
                    for t in (True, False)}
            stats["trace.overhead_frac"] = (
                statistics.median(host[True]) / statistics.median(host[False])
                - 1.0 if host[False] else 0.0)
            out["layers"] = layer_metrics(
                tr.spans[:n_setup_spans],
                tr.spans[n_setup_spans:], deltas,
                n_traced * wl.units_per_op, stats)
            calls: dict[str, int] = {}
            for s in tr.spans:
                calls[s.name] = calls.get(s.name, 0) + 1
            out["boundary_calls"] = {
                f"{m}:{p}": calls.get(p, 0) for _, m, p in tracer.BOUNDARIES}
            out["missing"] = tr.missing
            if args.trace_dir:
                path = Path(args.trace_dir) / \
                    f"{wl.name}.{args.rep}.trace.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(
                    tracer.chrome_trace(tr.spans, t_start)))
    finally:
        registry.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
