"""Online policy autotuning for the solver service (§VI, taken online).

:mod:`repro.batched.tuning` answers the paper's open auto-tuning problem
for *one batch whose sizes are known at run time*.  A serving system has
a harder version of the same problem: the "batch" is the arrival process
itself, and its size distribution drifts.  The paper's irregular kernels
let any mix of sizes share one launch, so once the admission keys make
grouping bitwise-safe a served group needs only two decisions — how many
requests to group and how long to hold them, ``max_batch`` and
``max_wait`` of the :class:`~repro.serve.scheduler.CoalescingPolicy`.
This module closes that loop:

1. **Observe.**  :class:`OnlineAutotuner.step` diffs two
   :meth:`~repro.serve.stats.ServiceStats.snapshot` calls into an exact
   :class:`Window` — arrival/completion rates, mean group size,
   occupancy, wait/exec histogram deltas (the snapshots carry raw bin
   counts), shed work.
2. **Decide.**  Signal rules propose one bounded knob move per window
   (double/halve ``max_wait``/``max_batch``).  A proposal must repeat
   for ``hysteresis`` consecutive windows before it is applied — one
   noisy window never moves a knob.
3. **Guard.**  Every applied move records the pre-swap policy and the
   pre-swap objective.  If the next full window's objective regresses
   by more than ``rollback_tolerance``, the previous policy is restored
   (:class:`~repro.serve.service.SolverService.set_policy` is atomic and
   drops nothing) and the tuner holds still for ``cooldown`` windows.

Both knobs change *launch shapes only* — group composition and hold
times.  Neither changes the bits of any individual result: the
admission keys of :mod:`repro.serve.scheduler` make every grouping
bitwise-safe, and no knob enters a key.
``benchmarks/test_gate_serve.py::test_gate_serve_slo`` checks exactly
that: autotuned runs must beat the static policy on throughput *and*
stay bitwise-equal to it, request by request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .stats import LatencyHistogram

__all__ = ["AutotuneConfig", "Window", "TuneAction", "OnlineAutotuner",
           "default_objective"]


@dataclass(frozen=True)
class AutotuneConfig:
    """Bounds and pacing of the online tuner (a pure value).

    The knob bounds are deliberately wide — the rollback guard, not the
    bounds, is the safety net — but every bound keeps the policy inside
    :class:`~repro.serve.scheduler.CoalescingPolicy` validation, i.e.
    inside the bitwise-safe tunable space.
    """

    min_requests: int = 16     #: smallest window worth acting on
    min_dispatches: int = 4
    hysteresis: int = 2        #: consecutive agreeing windows before a move
    cooldown: int = 2          #: windows to hold still after a rollback
    rollback_tolerance: float = 0.15   #: fractional objective regression
    max_batch_bounds: tuple = (4, 256)
    max_wait_bounds: tuple = (1e-5, 5e-2)


@dataclass
class Window:
    """One observation window: the exact difference of two stats
    snapshots, in rates the objective can consume.  ``sim_seconds`` is
    simulated device time actually spent dispatching; ``seconds`` is the
    observing clock's span (virtual under the traffic simulator)."""

    seconds: float
    sim_seconds: float
    submitted: int
    completed: int
    failed: int
    expired: int
    rejected: int
    dispatches: int
    coalesced: int
    launches: int
    occupancy: float        #: mean per-dispatch occupancy in the window
    wait_p50: float
    wait_p99: float
    exec_p50: float
    queue_depth: int        #: at window end

    @property
    def arrival_rate(self) -> float:
        return self.submitted / self.seconds if self.seconds > 0 else 0.0

    @property
    def mean_group(self) -> float:
        return self.coalesced / self.dispatches if self.dispatches else 0.0

    @property
    def throughput(self) -> float:
        """Completions per observed second (virtual under the traffic
        simulator) — the delivered rate, not the busy-time rate."""
        return self.completed / self.seconds if self.seconds > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the window the device spent dispatching."""
        return min(self.sim_seconds / self.seconds, 1.0) \
            if self.seconds > 0 else 0.0


def default_objective(w: Window) -> float:
    """Higher is better: delivered throughput, discounted by tail wait
    latency and shed work.

    Delivered (per observed second), not busy-time: a policy that
    batches harder always looks better per *busy* second, yet in an
    underloaded or closed-loop system it can deliver strictly fewer
    answers per wall second — the quantity callers experience.  The
    latency scale (5 ms) keeps the discount gentle until queueing
    genuinely explodes; shed work divides linearly — shedding is the
    worst signal a batching policy can emit."""
    if w.seconds <= 0 or w.completed == 0:
        return 0.0
    latency_discount = 1.0 + w.wait_p99 / 5e-3
    shed_discount = 1.0 + w.expired + w.rejected
    return w.throughput / (latency_discount * shed_discount)


@dataclass
class TuneAction:
    """One tuner decision, kept in :attr:`OnlineAutotuner.history`."""

    kind: str               #: "swap" | "rollback" | "hold"
    changes: dict           #: knob -> new value ({} for hold/rollback)
    objective: float        #: the window objective that drove it
    window: Window


def _hist_window(after: dict, before: dict) -> tuple[list, int]:
    """Exact bin-count delta of one histogram between two snapshots."""
    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    return counts, after["count"] - before["count"]


class OnlineAutotuner:
    """Closed-loop policy tuner over one :class:`SolverService`.

    Owns no thread: call :meth:`step` at window boundaries (the traffic
    simulator does so between mix segments; a live deployment would call
    it from a timer).  Each step observes the window since the previous
    step, then either holds, applies one hysteresis-backed knob move via
    ``service.set_policy`` (atomic; queued work survives), or rolls the
    previous move back if it regressed the objective.
    """

    def __init__(self, service, *, config: AutotuneConfig | None = None,
                 objective=None, clock=None):
        self.service = service
        self.config = config or AutotuneConfig()
        self.objective = objective or default_objective
        self._clock = clock if clock is not None else \
            getattr(service, "_clock", time.monotonic)
        self._last_snap = service.stats.snapshot()
        self._last_t = self._clock()
        self.history: list[TuneAction] = []
        self._votes: dict[str, int] = {}
        self._cooldown = 0
        self._pending_guard: tuple | None = None  # (policy, objective)

    # -- observation ---------------------------------------------------
    def _observe(self) -> Window:
        snap = self.service.stats.snapshot()
        now = self._clock()
        before, self._last_snap = self._last_snap, snap
        t0, self._last_t = self._last_t, now
        wait_counts, wait_n = _hist_window(snap["wait"], before["wait"])
        exec_counts, exec_n = _hist_window(snap["exec"], before["exec"])
        dispatches = snap["dispatches"] - before["dispatches"]
        occ = snap["occupancy_total"] - before["occupancy_total"]
        return Window(
            seconds=max(now - t0, 0.0),
            sim_seconds=snap["sim_seconds"] - before["sim_seconds"],
            submitted=snap["submitted"] - before["submitted"],
            completed=snap["completed"] - before["completed"],
            failed=snap["failed"] - before["failed"],
            expired=snap["expired"] - before["expired"],
            rejected=snap["rejected"] - before["rejected"],
            dispatches=dispatches,
            coalesced=snap["coalesced_requests"]
            - before["coalesced_requests"],
            launches=snap["launches"] - before["launches"],
            occupancy=occ / dispatches if dispatches else 0.0,
            wait_p50=LatencyHistogram.quantile_of(wait_counts, wait_n, 0.5),
            wait_p99=LatencyHistogram.quantile_of(wait_counts, wait_n,
                                                  0.99),
            exec_p50=LatencyHistogram.quantile_of(exec_counts, exec_n, 0.5),
            queue_depth=snap["queue_depth"],
        )

    # -- proposal rules ------------------------------------------------
    def _proposals(self, w: Window, policy) -> dict:
        """Signal rules: window + current policy -> knob moves wanted
        *this* window (hysteresis gates actual application)."""
        cfg = self.config
        want: dict = {}
        lo_b, hi_b = cfg.max_batch_bounds
        lo_w, hi_w = cfg.max_wait_bounds

        # Group-size pressure: saturated groups with a backlog want a
        # larger cap; chronically tiny groups under a huge cap shrink it
        # (bounded queue headroom matters more than a cap nobody fills).
        if w.mean_group >= 0.9 * policy.max_batch and w.queue_depth > 0 \
                and policy.max_batch < hi_b:
            want["max_batch"] = min(policy.max_batch * 2, hi_b)
        elif w.mean_group <= 1.5 and policy.max_batch > 8 \
                and w.arrival_rate * policy.max_wait < 1.0:
            want["max_batch"] = max(policy.max_batch // 2, lo_b)

        # Hold-time pressure: when groups ripen by timeout (median wait
        # pinned at the budget) the budget is the active constraint —
        # lengthen it if arrivals are fast enough that waiting buys
        # company, shorten it if they are not (waiting buys only
        # latency).  Shed work always shortens it.
        timeout_bound = w.dispatches > 0 and \
            w.wait_p50 >= 0.5 * policy.max_wait and \
            w.mean_group < 0.75 * policy.max_batch
        if w.expired or w.rejected:
            want["max_wait"] = max(policy.max_wait / 2, lo_w)
        elif timeout_bound:
            expected = w.arrival_rate * policy.max_wait
            if expected >= 2.0 * max(2.0, w.mean_group) \
                    and policy.max_wait < hi_w:
                want["max_wait"] = min(policy.max_wait * 2, hi_w)
            elif w.utilization < 0.5 and policy.max_wait > lo_w:
                # the device is mostly idle and requests still ripen by
                # timeout: holding buys amortization nobody needs —
                # trade it back for latency (the rollback guard catches
                # the case where the amortization WAS load-bearing)
                want["max_wait"] = max(policy.max_wait / 2, lo_w)
        return want

    # -- the loop ------------------------------------------------------
    def step(self) -> TuneAction:
        """Observe the window since the last step and maybe act.

        Always returns the action taken (``kind="hold"`` when nothing
        changed) and appends it to :attr:`history`.
        """
        w = self._observe()
        obj = self.objective(w)
        policy = self.service.policy
        cfg = self.config

        small = w.submitted < cfg.min_requests or \
            w.dispatches < cfg.min_dispatches

        # rollback guard: the previous swap must justify itself on the
        # first full window that follows it
        if self._pending_guard is not None and not small:
            prev_policy, prev_obj = self._pending_guard
            self._pending_guard = None
            if prev_obj > 0 and \
                    obj < (1.0 - cfg.rollback_tolerance) * prev_obj:
                self.service.set_policy(prev_policy)
                self._cooldown = cfg.cooldown
                self._votes.clear()
                action = TuneAction("rollback", {}, obj, w)
                self.history.append(action)
                return action

        if small or self._cooldown > 0:
            if self._cooldown > 0 and not small:
                self._cooldown -= 1
            action = TuneAction("hold", {}, obj, w)
            self.history.append(action)
            return action

        want = self._proposals(w, policy)

        # hysteresis: a knob moves only after agreeing votes in
        # consecutive windows (direction changes reset the count)
        changes: dict = {}
        for knob, value in want.items():
            token = f"{knob}->{value}"
            self._votes[token] = self._votes.get(token, 0) + 1
            if self._votes[token] >= cfg.hysteresis:
                changes[knob] = value
        for token in list(self._votes):
            knob = token.split("->", 1)[0]
            if knob not in want or f"{knob}->{want[knob]}" != token:
                del self._votes[token]

        if not changes:
            action = TuneAction("hold", {}, obj, w)
            self.history.append(action)
            return action

        new_policy = policy.replace(**changes)
        self.service.set_policy(new_policy)
        self._pending_guard = (policy, obj)
        for knob in changes:
            for token in [t for t in self._votes
                          if t.startswith(f"{knob}->")]:
                del self._votes[token]
        action = TuneAction("swap", dict(changes), obj, w)
        self.history.append(action)
        return action

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict:
        """Counts of swaps/rollbacks/holds and the current knobs."""
        kinds = [a.kind for a in self.history]
        return {
            "windows": len(kinds),
            "swaps": kinds.count("swap"),
            "rollbacks": kinds.count("rollback"),
            "holds": kinds.count("hold"),
            "policy": self.service.policy.describe(),
        }
