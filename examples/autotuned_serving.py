"""Online policy autotuning under live traffic, in virtual time.

Replays the standard "steady" and "closed-loop" traffic mixes against
a :class:`~repro.serve.service.SolverService` twice — once under the
static default :class:`~repro.serve.scheduler.CoalescingPolicy`, once
with an :class:`~repro.serve.autotune.OnlineAutotuner` hot-swapping
refined policies mid-run — and shows:

* the tuner's decisions (swaps / rollbacks / final knobs),
* per-class p50/p99 latency against each class's soft SLO,
* throughput, and
* that every per-request result is **bitwise identical** across the two
  runs: tuning changes launch shapes, never bits.

The replay is thread-free and deterministic: a virtual clock is
injected as the service clock, arrivals land at generated timestamps,
and the clock advances by each dispatch's *simulated* device seconds —
so the same seed reproduces the same decisions on any machine.

Run:  PYTHONPATH=src python examples/autotuned_serving.py
"""

import numpy as np

from repro.serve import AutotuneConfig, CoalescingPolicy, OnlineAutotuner
from repro.workloads import run_mix, standard_mix

SEED = 7

policy = CoalescingPolicy(max_queue=4096)
cfg = AutotuneConfig(min_requests=12, min_dispatches=2)


def tuner_factory(svc, clock):
    return OnlineAutotuner(svc, clock=clock, config=cfg)


for name in ("steady", "closed-loop"):
    mix = standard_mix(name)
    static = run_mix(mix, policy=policy, seed=SEED)
    tuned = run_mix(mix, policy=policy, seed=SEED,
                    autotuner=tuner_factory, tune_every=1e-2)

    parity = all(
        (a is None and b is None) or
        (a is not None and b is not None and np.array_equal(a, b))
        for a, b in zip(static.results, tuned.results))

    print(f"=== {mix.name}: {mix.count} requests, "
          f"{mix.arrival} arrivals ===")
    print(f"  static : {static.throughput:8.1f} req/s over "
          f"{static.makespan * 1e3:6.1f} ms virtual, "
          f"{static.dispatches} dispatches")
    print(f"  tuned  : {tuned.throughput:8.1f} req/s over "
          f"{tuned.makespan * 1e3:6.1f} ms virtual, "
          f"{tuned.dispatches} dispatches")
    t = tuned.tuner
    print(f"  tuner  : {t['windows']} windows, {t['swaps']} swaps, "
          f"{t['rollbacks']} rollbacks")
    knobs = tuned.policy
    print(f"  final policy: max_batch={knobs['max_batch']} "
          f"max_wait={knobs['max_wait']:.2g}s")
    for cls, entry in sorted(tuned.per_class.items()):
        slo = entry["slo"]
        print(f"  class {cls:>14}: p50={entry['p50'] * 1e3:6.2f} ms  "
              f"p99={entry['p99'] * 1e3:6.2f} ms  "
              f"slo={'-' if slo is None else f'{slo * 1e3:.0f} ms'}  "
              f"met={entry['met']}")
    print(f"  bitwise parity static vs tuned: {parity}")
    assert parity, "tuning must never change result bits"
    print()
