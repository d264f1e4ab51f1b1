"""Benchmark contract tests: names, smoke runs, clock-delta measurement.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from compare import claim_holds, verdict
from run import SPEC, WORKLOADS, unit_of
from workloads import WARM, measure
from workloads import WORKLOADS as WORKLOAD_CLASSES

HERE = Path(__file__).resolve().parent
SPEC_DATA = json.loads(SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(*args, cwd=HERE.parents[1], timeout=120):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_benchmark_json_is_well_formed():
    spec = SPEC_DATA
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in spec[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == unit_of(m["name"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_ops_never_reuse_the_warm_up_inputs():
    wl = WORKLOAD_CLASSES["fig10-batch"](seed=5, rep=0, smoke=True)
    draws = [wl.rng(i).random() for i in (WARM, 0, 1)]
    assert len(set(draws)) == 3
    other = WORKLOAD_CLASSES["fig10-batch"](seed=5, rep=1, smoke=True)
    assert other.rng(0).random() not in draws


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(trace, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "runs.json"
    proc = run_cli("--smoke", "--seconds", "0.5", "--trace", str(trace),
                   "--out", str(out))
    assert time.perf_counter() - t0 < 60
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = [m["name"] for m in
                SPEC_DATA["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == {f"{w}/{n}" for w in WORKLOADS
                                      for n in declared}
    lines = {tuple(ln.split()[:2]) for ln in proc.stdout.splitlines()[:-1]}
    assert all((w, n) in lines for w in WORKLOADS for n in declared)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 1 and set(runs[0]["workloads"]) == set(WORKLOADS)


def test_compare_verdicts_and_the_pairs_rule():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(a, list(a), 0.1, 1) == "identical"
    assert verdict(a, [x * 1.05 for x in a], 0.1, 1) == "within"
    assert verdict(a, [x * 1.2 for x in a], 0.1, 1) == "worse"
    assert verdict(a, [x * 1.2 for x in a], 0.1, -1) == "better"
    noisy = [50.0, 100.0, 150.0, 100.0, 60.0]
    assert verdict(a, noisy, 0.1, 1) == "unresolved"
    assert verdict(a, [x * 1.2 for x in a], None, 1) == "info"
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [x * 0.9 for x in parent]
    assert claim_holds(parent, faster, 1)[0]
    assert not claim_holds(parent[:9], faster[:9], 1)[0]     # < 10 pairs
    assert claim_holds(parent, parent[:1] + faster[1:], 1)[0]   # 9 of 10
    assert not claim_holds(parent, parent[:2] + faster[2:], 1)[0]


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig10-batch", "--seconds", "1"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _maxwell(n=6):
    from repro.fem import HexMesh, MaxwellProblem
    from repro.sparse import SparseLU
    a, _ = MaxwellProblem.build(HexMesh(n, n, n)).reduced_system()
    return SparseLU(a).analyze()


def test_factor_sim_is_stable_across_identical_refactors():
    from repro.device import A100, Device, Node
    solver = _maxwell()
    dev = Device(A100())
    sims = [measure(dev, lambda: solver.factor(backend="batched",
                                               device=dev))[2]
            for _ in range(3)]
    assert sims == pytest.approx([sims[0]] * 3, rel=1e-12)
    node = Node(A100(), 4)
    sharded = []
    for _ in range(3):
        node.reset()
        sharded.append(measure(node, lambda: solver.factor(
            backend="sharded", device=node))[2])
        # solves on one member skew the node's clocks between factors
        solver.solve(np.ones(solver.n), device=node[0])
    assert sharded == pytest.approx([sharded[0]] * 3, rel=1e-12)


def test_factor_sim_matches_between_batched_and_one_device_sharded():
    """Same kernels on both paths; the sharded one also synchronizes
    once more, and each synchronize costs ``sync_overhead_host``."""
    from repro.device import A100, Device, Node
    solver = _maxwell()
    dev = Device(A100())
    batched = measure(dev, lambda: solver.factor(backend="batched",
                                                 device=dev))[2]
    node = Node(A100(), 1)
    node.reset()
    sharded = measure(node, lambda: solver.factor(backend="sharded",
                                                  device=node))[2]
    p, q = dev.profiler, node[0].profiler
    assert q.launch_count == p.launch_count
    extra = q.sync_count - p.sync_count
    assert sharded - batched == pytest.approx(
        extra * dev.spec.sync_overhead_host, abs=1e-12)
