"""Traffic generation and virtual-time replay for the solver service.

The serving benchmarks need *arrival processes*, not just batches: the
value of a batching policy only shows against traffic with temporal
structure — steady trickles, bursts, heavy-tailed size mixes, closed
feedback loops.  This module provides both halves:

* **Generators** — :class:`TrafficMix` describes a workload as weighted
  :class:`RequestClass`\\ es (kind, size distribution, per-class soft
  latency SLO) under an arrival process: open-loop ``poisson`` (memoryless
  at a fixed rate), open-loop ``burst`` (a storm-modulated Poisson — long
  quiet valleys, short high-rate storms), or ``closed`` (K clients, each
  submitting, waiting for its result, thinking an exponential time, and
  submitting again — arrival rate adapts to service rate).  Four standard
  mixes (:data:`STANDARD_MIXES`: steady, bursty, heavy-tail, closed-loop)
  are the acceptance surface of ``benchmarks/test_gate_serve.py``.
* **Replay** — :func:`run_mix` replays a mix against a fresh
  :class:`~repro.serve.service.SolverService` in *virtual time*: a
  :class:`VirtualClock` is injected as the service clock, arrivals are
  submitted at their generated timestamps (backdated when they land
  inside a dispatch busy period, exactly as a caller thread would have
  enqueued them), groups are collected with the queue's discrete-event
  hooks (:meth:`~repro.serve.scheduler.AdmissionQueue.next_ripe` /
  :meth:`collect_ready`), and the clock advances by each dispatch's
  *simulated* device seconds.  No threads, no sleeps: the same seed
  replays the same decisions, and two runs under different policies see
  byte-identical request payloads — which is what makes the benchmark's
  bitwise parity gate meaningful.

Every request payload is a pure function of ``(mix, seed, request
index)`` — never of the policy, the clock, or what happened to earlier
requests — so runs under two policies solve the exact same problems in
a possibly different grouping, and their per-request results must match
bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..device.simulator import Device
from ..device.spec import A100, DeviceSpec
from ..serve.service import SolverService
from ..errors import ServiceOverloaded

__all__ = ["RequestClass", "TrafficMix", "VirtualClock", "MixResult",
           "run_mix", "STANDARD_MIXES", "standard_mix"]


@dataclass(frozen=True)
class RequestClass:
    """One class of traffic: what is submitted and how fast it must be.

    ``slo`` is the class's soft latency objective in (virtual) seconds —
    requests carry it into the scheduler (SLO-aware admission caps their
    hold time) and ``benchmarks/test_gate_serve.py`` gates the class's
    measured p99 against it.  ``sampler`` picks orders ``"uniform"`` on
    ``[order_lo, order_hi]`` or ``"lognormal"`` (heavy tail) with median
    ``order_lo`` clipped to ``order_hi``.
    """

    name: str
    kind: str = "factor_solve"        #: "factor" | "factor_solve"
    order_lo: int = 8
    order_hi: int = 32
    weight: float = 1.0
    slo: float | None = None
    sampler: str = "uniform"
    sigma: float = 0.8                #: lognormal shape (heavy tail)

    def sample_order(self, rng: np.random.Generator) -> int:
        if self.sampler == "lognormal":
            o = int(round(self.order_lo *
                          np.exp(rng.normal(0.0, self.sigma))))
            return int(np.clip(o, 2, self.order_hi))
        return int(rng.integers(self.order_lo, self.order_hi + 1))


@dataclass(frozen=True)
class TrafficMix:
    """A complete workload: classes + arrival process + volume.

    ``arrival``: ``"poisson"`` (open loop, ``rate``/s), ``"burst"``
    (open loop; storms of ``rate × burst_factor`` lasting ``storm_len``
    seconds every ``burst_period`` seconds, valleys at ``rate``), or
    ``"closed"`` (``clients`` concurrent callers with exponential
    ``think_time``; ``rate`` is ignored).
    """

    name: str
    classes: tuple
    count: int = 200
    arrival: str = "poisson"
    rate: float = 2000.0
    burst_factor: float = 20.0
    burst_period: float = 5e-2
    storm_len: float = 5e-3
    clients: int = 16
    think_time: float = 2e-3

    def pick_class(self, rng: np.random.Generator) -> RequestClass:
        w = np.array([c.weight for c in self.classes], dtype=float)
        return self.classes[rng.choice(len(self.classes), p=w / w.sum())]

    def arrival_times(self, rng: np.random.Generator) -> list[float]:
        """Open-loop arrival timestamps (``closed`` mixes schedule
        arrivals from completions inside the replay loop instead)."""
        if self.arrival == "poisson":
            return list(np.cumsum(rng.exponential(1.0 / self.rate,
                                                  size=self.count)))
        if self.arrival == "burst":
            t, out = 0.0, []
            storm_rate = self.rate * self.burst_factor
            while len(out) < self.count:
                in_storm = (t % self.burst_period) < self.storm_len
                t += rng.exponential(
                    1.0 / (storm_rate if in_storm else self.rate))
                out.append(t)
            return out
        raise ValueError(f"unknown arrival process {self.arrival!r} "
                         f"(closed mixes do not pregenerate arrivals)")


def _payload(mix: TrafficMix, seed: int, index: int
             ) -> tuple[RequestClass, np.ndarray, np.ndarray]:
    """Request ``index``'s class, matrix and rhs — a pure function of
    ``(mix, seed, index)`` so every replay of the mix, under any policy,
    submits byte-identical problems."""
    rng = np.random.default_rng((seed, index))
    cls = mix.pick_class(rng)
    n = cls.sample_order(rng)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)                # diagonally dominant: no breakdown
    b = rng.standard_normal(n)
    return cls, a, b


class VirtualClock:
    """A monotonic-by-convention callable clock the replay loop owns.

    Injected as the service/queue/request clock; the loop sets
    :attr:`now` to event times and advances it by each dispatch's
    simulated duration.  (The loop briefly rewinds it to backdate a
    submission that arrived during a busy period — the one consumer of
    the clock during a submit is ``Request.t_submit``.)
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += max(float(dt), 0.0)


@dataclass
class MixResult:
    """One replayed mix: per-request outcomes + per-class SLO report.

    ``results[i]`` is request ``i``'s solution vector (``factor_solve``)
    or packed LU (``factor``); ``None`` marks a rejected request.
    ``makespan`` is virtual seconds from first arrival to last
    completion; ``throughput`` is completed requests per makespan
    second.  ``per_class[name]`` carries ``count/p50/p99/slo/met``.
    """

    name: str
    results: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    makespan: float = 0.0
    dispatches: int = 0
    stats: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.completed / self.makespan if self.makespan else 0.0

    @property
    def per_class(self) -> dict:
        out: dict = {}
        for name in {c.name for c in self.classes}:
            cls = next(c for c in self.classes if c.name == name)
            lats = [l for l, c in zip(self.latencies, self.classes)
                    if c.name == name and l is not None]
            entry = {"count": len(lats), "slo": cls.slo}
            if lats:
                entry["p50"] = float(np.percentile(lats, 50))
                entry["p99"] = float(np.percentile(lats, 99))
                entry["met"] = (cls.slo is None
                                or entry["p99"] <= cls.slo)
            else:
                entry.update(p50=0.0, p99=0.0, met=True)
            out[name] = entry
        return out

    def slo_met(self) -> bool:
        return all(e["met"] for e in self.per_class.values())


def run_mix(mix: TrafficMix, *, policy=None, spec: DeviceSpec | None = None,
            seed: int = 0) -> MixResult:
    """Replay ``mix`` against a fresh service in virtual time.

    ``policy`` is the service's policy for the whole replay (default
    :class:`CoalescingPolicy`).  Deterministic: same arguments, same
    decisions, same bits.
    """
    clock = VirtualClock()
    device = Device(spec or A100())
    svc = SolverService(device, policy=policy, start=False, clock=clock)
    policy = svc.policy

    # -- request stream -------------------------------------------------
    rng = np.random.default_rng(seed)
    n_req = mix.count
    res = MixResult(name=mix.name, results=[None] * n_req,
                    latencies=[None] * n_req,
                    classes=[_payload(mix, seed, i)[0]
                             for i in range(n_req)])
    # (t_arrival, index) heap; closed-loop pushes from completions
    events: list[tuple[float, int]] = []
    closed = mix.arrival == "closed"
    client_of: dict[int, int] = {}
    if closed:
        next_index = 0
        for c in range(min(mix.clients, n_req)):
            heapq.heappush(events, (rng.exponential(mix.think_time),
                                    next_index))
            client_of[next_index] = c
            next_index += 1
    else:
        for i, t in enumerate(mix.arrival_times(rng)):
            heapq.heappush(events, (t, i))

    outstanding: dict[int, object] = {}   # index -> future
    first_arrival = events[0][0] if events else 0.0

    def submit(i: int, t_arr: float) -> None:
        cls, a, b = _payload(mix, seed, i)
        saved = clock.now
        clock.now = t_arr          # backdate: arrivals during a busy
        try:                       # period still queue at arrival time
            if cls.kind == "factor":
                fut = svc.submit_factor(a, slo=cls.slo)
            else:
                fut = svc.submit_factor_solve(a, b, slo=cls.slo)
            outstanding[i] = fut
        except ServiceOverloaded:
            res.rejected += 1
        finally:
            clock.now = max(saved, t_arr)

    def harvest() -> None:
        """Record completions (latency ends when the dispatch that
        resolved the request finishes, i.e. at the current clock)."""
        done = [i for i, f in outstanding.items() if f.done()]
        for i in done:
            fut = outstanding.pop(i)
            err = fut.exception()
            if err is not None:
                res.failed += 1
            else:
                value = fut.result()
                res.results[i] = (value[0] if isinstance(value, tuple)
                                  else value.lu)
                res.completed += 1
            res.latencies[i] = clock.now - arrival_t[i]
            if closed and next_holder[0] < n_req:
                j = next_holder[0]
                next_holder[0] += 1
                client_of[j] = client_of[i]
                t_next = clock.now + rng.exponential(mix.think_time)
                heapq.heappush(events, (t_next, j))

    arrival_t: dict[int, float] = {}
    next_holder = [len(client_of)] if closed else [n_req]

    # -- discrete-event loop -------------------------------------------
    while events or len(svc._queue):
        if events and events[0][0] <= clock.now:
            t_arr, i = heapq.heappop(events)
            arrival_t[i] = t_arr
            submit(i, t_arr)
            continue
        ripe_t = svc._queue.next_ripe(policy, clock.now)
        next_a = events[0][0] if events else None
        if ripe_t is None:
            if next_a is None:
                break
            clock.now = next_a
            continue
        if next_a is not None and next_a < ripe_t:
            clock.now = next_a
            continue
        clock.now = max(clock.now, ripe_t)
        group = svc._queue.collect_ready(policy, clock.now)
        if group is not None:
            record = svc._safe_dispatch(group)
            clock.advance(record.sim_seconds)
            res.dispatches += 1
            harvest()
        else:
            # float rounding can leave (now - t_submit) one ulp short
            # of the hold budget next_ripe promised; nudge past it
            clock.advance(1e-9)

    harvest()
    res.makespan = max(clock.now - first_arrival, 0.0)
    res.stats = svc.stats.snapshot()
    res.policy = policy.describe()
    svc.close()
    return res


#: The four acceptance traffic mixes of ``test_gate_serve_slo``, the
#: closed-loop feedback mix among them.  Rates/SLOs are calibrated to
#: the simulated device's cost model: steady fills groups by arrival,
#: bursty stresses the hold budget, heavy-tail stresses group
#: composition, closed-loop couples arrivals to service rate.
STANDARD_MIXES: dict[str, TrafficMix] = {
    "steady": TrafficMix(
        name="steady", count=240, arrival="poisson", rate=2000.0,
        classes=(
            RequestClass("small-solve", "factor_solve", 8, 32,
                         weight=0.7, slo=2e-2),
            RequestClass("medium-factor", "factor", 32, 64,
                         weight=0.3, slo=5e-2),
        )),
    "bursty": TrafficMix(
        name="bursty", count=240, arrival="burst", rate=400.0,
        burst_factor=25.0, burst_period=5e-2, storm_len=5e-3,
        classes=(
            RequestClass("interactive", "factor_solve", 8, 24,
                         weight=0.8, slo=2e-2),
            RequestClass("background", "factor", 48, 80,
                         weight=0.2, slo=1e-1),
        )),
    "heavy-tail": TrafficMix(
        name="heavy-tail", count=200, arrival="poisson", rate=1500.0,
        classes=(
            RequestClass("tail", "factor_solve", 16, 96,
                         weight=1.0, slo=4e-2, sampler="lognormal"),
        )),
    "closed-loop": TrafficMix(
        name="closed-loop", count=192, arrival="closed", clients=16,
        think_time=2e-3,
        classes=(
            RequestClass("client", "factor_solve", 8, 40,
                         weight=1.0, slo=3e-2),
        )),
}


def standard_mix(name: str) -> TrafficMix:
    try:
        return STANDARD_MIXES[name]
    except KeyError:
        raise ValueError(f"unknown traffic mix {name!r}; choose from "
                         f"{sorted(STANDARD_MIXES)}") from None
