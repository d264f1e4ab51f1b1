"""Benchmark-suite fixtures and the helpers the gate tests share.

Each ``test_fig*``, ``test_table*`` and ``test_ablation*`` case
regenerates one paper figure or table and asserts the paper's shape;
each ``test_gate_*`` case re-checks one feature's parity contract and
speedup threshold.  Every case prints its report and archives it under
``results/``.  Run with::

    pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable
    pytest benchmarks/e2e

Set ``REPRO_FULL=1`` for paper-scale workloads and the gates' full
thresholds (much slower).  The committed ``results/bench_*.txt`` files
are ``REPRO_FULL=1`` output; a default run overwrites them.
"""

import pathlib

import numpy as np
import pytest
import scipy.sparse as sp


@pytest.fixture(scope="session")
def results_dir():
    d = pathlib.Path(__file__).resolve().parent.parent / "results"
    d.mkdir(exist_ok=True)
    return d


@pytest.fixture
def archive(results_dir):
    """Print a report and persist it to results/<name>.txt."""

    def _archive(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _archive


def launch_records(dev):
    """A device's simulated launch records in comparable form: two runs
    that issue the same kernels at the same modeled cost compare equal."""
    return [(r.name, r.cost.flops, r.cost.bytes_read, r.cost.bytes_written,
             r.cost.blocks, r.cost.compute_ramp, r.cost.kernel_class)
            for r in dev.profiler.records]


def min_of_reps(reps, runs, agree):
    """Time competing runs interleaved (a, b, a, b, ...) so that the
    machine's clock drift hits them alike.  Each run returns ``(seconds,
    result)``, where ``seconds`` may be a tuple of timings, and
    ``agree(*results)`` checks one round's results against each other.
    Returns each run's elementwise minimum seconds over ``reps`` rounds,
    the last round's results, and whether every round agreed."""
    times = [[] for _ in runs]
    agreed = True
    for _ in range(reps):
        outs = []
        for run, t in zip(runs, times):
            dt, out = run()
            t.append(dt)
            outs.append(out)
        agreed = agree(*outs) and agreed
    return [np.min(t, axis=0) for t in times], outs, agreed


def grid2d(nx, ny, seed=0, diag=4.0):
    """Unsymmetric-valued 5-point grid operator (symmetric pattern)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            k = i * ny + j
            rows.append(k)
            cols.append(k)
            vals.append(diag + rng.random())
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k)
                    cols.append(ii * ny + jj)
                    vals.append(-1.0 - 0.3 * rng.random())
    n = nx * ny
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
