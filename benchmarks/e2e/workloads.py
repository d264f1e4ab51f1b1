"""The four benchmark workloads.

Each workload generates its inputs from ``--seed`` (and the worker and
op index) and hands the library only those inputs.  ``worker.py`` drives
it in steps:

* ``load()`` + ``setup()`` — imports, assembly, analysis and one warm
  operation; timed together as ``setup_s``;
* ``prepare(i)`` — untimed: the next op's inputs (new values, right-hand
  sides, a node clock reset);
* ``run(inputs)`` — one op, measured on two clocks: host
  ``perf_counter`` and the simulated clock of the device it ran on;
* ``verify()`` — untimed: checks the last op's answers;
* ``run_once()`` — untimed, first worker only, after measuring: one-off
  checks and detail metrics.

Only library defaults are used: no engine, policy or compile knob is
set, so a later change that removes a knob cannot break the benchmark.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

#: normwise backward error each answer must reach
SPARSE_TOL = 1e-12
DENSE_TOL = 1e-13
SERVE_TOL = 1e-12

#: op index of the warm-up op run inside set-up
WARM = -1

#: random streams drawn from ``--seed``.  Each stream keys its draws
#: with a fixed number of words, because ``SeedSequence`` ignores
#: trailing zero words (``[s, 0]`` seeds the same stream as ``[s]``).
SIZES, WARM_UP, OPS = 1, 2, 3


def measure(target, fn):
    """Run ``fn`` and return ``(result, host_s, sim_s)``.

    Simulated time is the delta of ``target.synchronize()`` across the
    call (a :class:`~repro.device.Device`, or a
    :class:`~repro.device.Node` whose members' clocks are aligned, e.g.
    by ``Node.reset()``); it is never read from a result's ``elapsed``.
    Host time covers the call and the closing synchronize.
    """
    s0 = target.synchronize()
    h0 = time.perf_counter()
    out = fn()
    s1 = target.synchronize()
    return out, time.perf_counter() - h0, s1 - s0


def backward_error(a, x, b) -> float:
    """``‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`` for dense or sparse ``A``."""
    r = b - a @ x
    anorm = float(abs(a).sum(axis=1).max()) if a.shape[0] else 0.0
    denom = anorm * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0)
    return float(np.abs(r).max(initial=0.0) / denom) if denom else 0.0


class Workload:
    """Base: input seeding and correctness accounting."""

    name = ""
    #: ops always run; the simulated metrics come from exactly these
    min_ops = 1
    #: units of work in one op (serving reports per request)
    units_per_op = 1

    def __init__(self, seed: int, rep: int, smoke: bool):
        self.seed, self.rep, self.smoke = seed, rep, smoke
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: per-layer numbers of the last op (reported from traced ops)
        self.stats: dict = {}
        #: numbers measured once per run by ``run_once``
        self.extras: dict = {}

    def seed_seq(self, stream: int, *key: int) -> np.random.SeedSequence:
        """A random stream of ``--seed``; ``key`` picks one draw in it."""
        return np.random.SeedSequence([self.seed, stream, *key])

    def rng(self, i: int) -> np.random.Generator:
        """The random inputs of op ``i`` (or of the warm-up op)."""
        return np.random.default_rng(
            self.seed_seq(WARM_UP) if i == WARM
            else self.seed_seq(OPS, self.rep, i))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def check_all(self, excess, what: str) -> None:
        """One check per value of ``excess`` (amount over tolerance);
        each positive value is a failure."""
        excess = list(excess)
        self.attempted += len(excess)
        bad = sum(e > 0 for e in excess)
        self.failed += bad
        if bad:
            self.errors.append(f"{bad} of {len(excess)} {what}")

    def load(self):
        import repro.batched
        import repro.device
        import repro.fem
        import repro.sparse
        import repro.workloads.traffic
        self.repro = repro

    def run_once(self) -> None:
        """Untimed one-off work of the first worker, after it has
        measured: checks and detail metrics that need no repetition."""

    def teardown(self) -> None:
        """Release device-resident state so memory returns to baseline."""


class MaxwellTimestep(Workload):
    """Maxwell box mesh: per op, new values -> re-factor -> solves."""

    name = "maxwell-timestep"
    min_ops = 2

    def __init__(self, seed, rep, smoke):
        super().__init__(seed, rep, smoke)
        self.mesh_n = 6 if smoke else 12
        self.n_solves = 2 if smoke else 8

    def target(self):
        return self.repro.device.Device(self.repro.device.A100())

    def solve_device(self):
        return self.dev

    def factor(self):
        self.solver.factor(backend="batched", device=self.dev)

    def setup(self):
        fem = self.repro.fem
        prob = fem.MaxwellProblem.build(
            fem.HexMesh(self.mesh_n, self.mesh_n, self.mesh_n))
        self.a, b = prob.reduced_system()
        self.solver = self.repro.sparse.SparseLU(self.a).analyze()
        self.dev = self.target()
        self.factor()
        x, _ = self.solver.solve(b, device=self.solve_device())
        self.last = (self.a, [x], [b])

    def prepare(self, i):
        rng = self.rng(i)
        a = self.a.copy()
        a.data *= rng.uniform(0.99, 1.01, a.nnz)
        rhs = [rng.standard_normal(a.shape[0]) for _ in range(self.n_solves)]
        return a, rhs

    def run(self, inputs):
        a, rhs = inputs
        solver, dev = self.solver, self.solve_device()
        t0 = time.perf_counter()
        solver.update_values(a)
        update_s = time.perf_counter() - t0
        _, f_host, f_sim = measure(self.dev, self.factor)
        s_host, s_sim, xs, passes = [], [], [], 0
        for b in rhs:
            (x, info), h, s = measure(dev,
                                      lambda: solver.solve(b, device=dev))
            s_host.append(h)
            s_sim.append(s)
            xs.append(x)
            passes += len(info.residuals) - 1
        self.last = (a, xs, rhs)
        self.stats["sparse.numeric.cache_uploads_per_solve"] = \
            solver.solve_cache.uploads / len(rhs)
        self.stats["sparse.solver.refine_passes"] = passes / len(rhs)
        factor_host = update_s + f_host
        return {
            "host_ms": (factor_host + sum(s_host)) * 1e3,
            "sim_ms": [(f_sim + sum(s_sim)) * 1e3],
            "factor_host_ms": [factor_host * 1e3],
            "factor_sim_ms": [f_sim * 1e3],
            "solve_host_ms": [h * 1e3 for h in s_host],
            "solve_sim_ms": [s * 1e3 for s in s_sim],
        }

    def verify(self):
        a, xs, rhs = self.last
        self.check_all((backward_error(a, x, b) - SPARSE_TOL
                        for x, b in zip(xs, rhs)),
                       f"solves above backward error {SPARSE_TOL:g}")

    def teardown(self):
        if self.solver.solve_cache is not None:
            self.solver.solve_cache.free()


class MaxwellSharded4(MaxwellTimestep):
    """The same Maxwell ops, factored across a 4-device node."""

    name = "maxwell-sharded4"
    n_devices = 4

    def target(self):
        dv = self.repro.device
        return dv.Node(dv.A100(), self.n_devices)

    def solve_device(self):
        return self.dev[0]

    def factor(self):
        self.solver.factor(backend="sharded", device=self.dev)

    def prepare(self, i):
        inputs = super().prepare(i)
        # member clocks drift apart (solves run on device 0 only); align
        # them so the node's synchronize delta spans the whole factor
        self.dev.reset()
        return inputs

    def run(self, inputs):
        out = super().run(inputs)
        res = self.solver.factor_result
        per_dev = list(res.per_device_seconds)
        self.stats.update({
            "shard.top_sim_ms": res.top_seconds * 1e3,
            "shard.gather_sim_ms": res.gather_seconds * 1e3,
            "shard.subtree_max_sim_ms": max(per_dev) * 1e3,
            "shard.imbalance_ratio":
                max(per_dev) * len(per_dev) / sum(per_dev),
            "shard.link_mb": res.link_bytes / 1e6,
        })
        return out

    def run_once(self):
        """Compare sharded factors of the last op's matrix with single-
        device batched ones, front by front.

        On a 1-device node they must be bitwise equal; each differing
        front is a failure.  The library promises the same on every
        node, but on these matrices fronts inside the subtrees of a 2+
        device node differ in their last bits (and rarely in pivot
        order), so on the workload's node the differing fronts are
        counted as ``shard.parity_mismatch_fronts`` and not failed.
        Every sharded solve's backward error is checked either way.
        """
        dv = self.repro.device
        a = self.last[0]

        def fronts(backend, device):
            solver = self.repro.sparse.SparseLU(a).analyze()
            solver.factor(backend=backend, device=device)
            return solver.factors.fronts

        ref = fronts("batched", dv.Device(dv.A100()))

        def differing(sharded):
            return [not all(np.array_equal(getattr(f, k), getattr(g, k))
                            for k in ("f11", "ipiv", "f12", "f21"))
                    for f, g in zip(sharded, ref)]

        self.check_all(differing(fronts("sharded", dv.Node(dv.A100(), 1))),
                       "fronts of a 1-device sharded factorization not "
                       "bitwise equal to batched")
        self.extras["shard.parity_mismatch_fronts"] = sum(differing(
            fronts("sharded", dv.Node(dv.A100(), self.n_devices))))


class Fig10Batch(Workload):
    """Fig 10: a batch of 500 square matrices with sizes in [1, 256]."""

    name = "fig10-batch"
    min_ops = 3

    def __init__(self, seed, rep, smoke):
        super().__init__(seed, rep, smoke)
        count, top = (50, 64) if smoke else (500, 256)
        # stratified U[1, top]: one size per 1/count quantile, jittered
        # by the seed, so the batch's total work barely moves with it
        rng = np.random.default_rng(self.seed_seq(SIZES))
        q = (rng.permutation(count) + rng.random(count)) / count
        self.sizes = (1 + np.floor(q * top)).astype(int)

    def setup(self):
        self.dev = self.repro.device.Device(self.repro.device.A100())
        self.run(self.prepare(WARM))

    def prepare(self, i):
        rng = self.rng(i)
        mats = [rng.standard_normal((n, n)) for n in self.sizes]
        rhs = [rng.standard_normal((n, 1)) for n in self.sizes]
        return mats, rhs

    def run(self, inputs):
        mats, rhs = inputs
        batched, dev = self.repro.batched, self.dev
        batch = rb = None

        def factor():
            nonlocal batch
            batch = batched.IrrBatch.from_host(dev, mats)
            return batched.irr_getrf(dev, batch)

        def solve():
            nonlocal rb
            rb = batched.IrrBatch.from_host(dev, rhs)
            batched.irr_getrs(dev, batch, piv, rb)
            return rb.to_host()

        try:
            piv, f_host, f_sim = measure(dev, factor)
            xs, s_host, s_sim = measure(dev, solve)
        finally:
            for b in (batch, rb):
                if b is not None:
                    b.free()
        self.last = (mats, xs, rhs)
        return {
            "host_ms": (f_host + s_host) * 1e3,
            "sim_ms": [(f_sim + s_sim) * 1e3],
            "factor_host_ms": [f_host * 1e3],
            "factor_sim_ms": [f_sim * 1e3],
            "solve_host_ms": [s_host * 1e3],
            "solve_sim_ms": [s_sim * 1e3],
        }

    def verify(self):
        self.check_all((backward_error(a, x, b) - DENSE_TOL
                        for a, x, b in zip(*self.last)),
                       f"matrices above backward error {DENSE_TOL:g}")


class ServeMixed(Workload):
    """The repository's open-loop Poisson standard mixes, replayed in
    virtual time."""

    name = "serve-mixed"
    #: ``STANDARD_MIXES`` each op replays, with their rates and classes;
    #: the two open-loop Poisson ones (the others are bursty or closed)
    mix_names = ("steady", "heavy-tail")
    #: requests per mix per op: short ops, so that a run holds enough of
    #: them for steady medians of host time and of the op's device peak
    count = 125
    units_per_op = 2 * count
    #: 3 workers x 8 ops x 250 requests: 6000 latencies per run
    min_ops = 8

    def __init__(self, seed, rep, smoke):
        super().__init__(seed, rep, smoke)
        if smoke:
            self.count = 25
            self.units_per_op = 2 * self.count

    def load(self):
        super().load()
        traffic = self.repro.workloads.traffic
        self.mixes = [dataclasses.replace(traffic.STANDARD_MIXES[m],
                                          count=self.count)
                      for m in self.mix_names]

    def traffic_seed(self, stream: int, *key: int) -> int:
        """A replay's seed (arrivals and payloads) from ``--seed``."""
        return int(self.seed_seq(stream, *key).generate_state(1)[0])

    def setup(self):
        traffic = self.repro.workloads.traffic
        warm = [dataclasses.replace(m, count=100) for m in self.mixes]
        seed = self.traffic_seed(WARM_UP)
        self.last = (warm, seed, [traffic.run_mix(m, seed=seed)
                                  for m in warm])

    def prepare(self, i):
        return self.traffic_seed(OPS, self.rep, i)

    def run(self, seed):
        traffic = self.repro.workloads.traffic
        t0 = time.perf_counter()
        results = [traffic.run_mix(m, seed=seed) for m in self.mixes]
        host = time.perf_counter() - t0
        self.last = (self.mixes, seed, results)
        snaps = [r.stats for r in results]
        dispatches = sum(s["dispatches"] for s in snaps)
        waits = [s["wait"] for s in snaps]
        caches = [s["plan_cache"] or {} for s in snaps]
        hits = sum(c.get("hits", 0) for c in caches)
        lookups = hits + sum(c.get("misses", 0) for c in caches)
        self.stats = {
            "serve.dispatches": dispatches / self.units_per_op,
            "serve.group_size_mean":
                sum(s["coalesced_requests"] for s in snaps) / dispatches,
            "serve.occupancy_frac":
                sum(s["occupancy_total"] for s in snaps) / dispatches,
            # the service's quantiles are 2x-wide bin edges; mean and
            # max are exact
            "serve.queue_wait_mean_ms": 1e3 * sum(
                w["mean"] * w["count"] for w in waits)
                / sum(w["count"] for w in waits),
            "serve.queue_wait_max_ms": max(w["max"] for w in waits) * 1e3,
            "serve.rejected": sum(r.rejected for r in results),
            "serve.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        }
        # latency runs from each request's scheduled arrival; a virtual-
        # time replay never falls behind its schedule (lateness 0)
        return {
            "host_ms": host / self.units_per_op * 1e3,
            "sim_ms": [lat * 1e3 for r in results for lat in r.latencies
                       if lat is not None],
        }

    def verify(self):
        mixes, seed, results = self.last
        payload = self.repro.workloads.traffic._payload
        for mix, res in zip(mixes, results):
            self.check(res.rejected == 0 and res.failed == 0
                       and res.completed == mix.count,
                       f"{mix.name} replay: {res.rejected} rejected, "
                       f"{res.failed} failed of {mix.count}")
            excess = []
            for i, x in enumerate(res.results):
                cls, a, b = payload(mix, seed, i)
                if cls.kind == "factor_solve":
                    excess.append(1.0 if x is None else
                                  backward_error(a, x, b) - SERVE_TOL)
            self.check_all(excess, f"{mix.name} answers above backward "
                                   f"error {SERVE_TOL:g}")


WORKLOADS = {w.name: w for w in (MaxwellTimestep, Fig10Batch, ServeMixed,
                                 MaxwellSharded4)}
